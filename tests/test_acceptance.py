"""Acceptance scoreboard: ten end-to-end checks, one printed verdict each.

Run under plain ``pytest -v``. Every check prints a single

    ACCEPTANCE <name>: PASS|FAIL (measured numbers)

line outside pytest's capture before asserting, so the scoreboard is
visible even when a check fails. Seeds, tolerances, and wall-clock
budgets are pinned as constants below; nothing in this file adapts to
the machine or to previous runs.
"""

import time

import numpy as np

from gtvclass import metrics as mx
from gtvclass.graph import build, gtv
from gtvclass.groundtruth import (LabeledCloud, asymmetric_model,
                                  bayes_risk, bayes_tv, halfplane_model,
                                  noisy_halfplane_model, quadrant_model,
                                  risk_of_constant, sample)
from gtvclass.kernels import SHAPES, KernelProfile, surface_tension
from gtvclass.solver import certify_overfit, solve_brute_force, solve_mincut
from test_graph import divergence
from test_metrics import brute_tl1

SEED_ORACLE = 101
SEED_TIGHTNESS = 202
SEED_OVERFIT = 301
SEED_UNDERFIT = 401
SEED_CONSISTENCY = 501
SEED_CALIBRATED = 901
SEED_GAMMA = 42
SEED_TL1 = 801
SEED_CONCENTRATION = 91
SEED_IDENTITIES = 1001

TOL_TIGHTNESS_REL = 1e-4
TOL_SURFACE_TENSION_REL = 1e-6
GAMMA_FINAL_REL_MAX = 0.15
TOL_TL1 = 1e-10
TOL_IDENTITY_REL = 1e-10
EXCESS_AT_LARGEST_MAX = 0.05

BUDGET_ORACLE_S = 10.0
BUDGET_TIGHTNESS_S = 120.0
BUDGET_OVERFIT_S = 60.0
BUDGET_UNDERFIT_S = 60.0
BUDGET_CONSISTENCY_S = 600.0
BUDGET_SURFACE_TENSION_S = 1.0
BUDGET_GAMMA_S = 120.0
BUDGET_TL1_S = 10.0
BUDGET_CONCENTRATION_S = 60.0
BUDGET_IDENTITIES_S = 10.0

INDICATOR = KernelProfile("indicator")
CONSISTENCY_NS = (500, 2000, 8000)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print("\nACCEPTANCE %-22s %s  (%s)"
              % (name + ":", "PASS" if ok else "FAIL", detail))


def _strictly_decreasing(seq):
    return all(a > b for a, b in zip(seq, seq[1:]))


def test_01_mincut_matches_brute_force(capsys):
    rng = np.random.Generator(np.random.Philox(SEED_ORACLE))
    t0 = time.perf_counter()
    mismatches, worst = 0, 0.0
    for k in range(100):
        n = int(rng.integers(2, 13))
        d = 1 + k % 2
        points = rng.random((n, d)) * rng.uniform(0.5, 1.5)
        labels = rng.integers(0, 2, n)
        prof = KernelProfile(SHAPES[k % len(SHAPES)])
        g = build(LabeledCloud(points, labels), float(rng.uniform(0.2, 1.2)), prof)
        lam = float(10.0 ** rng.uniform(-3, 1))
        e_cut = solve_mincut(g, labels, lam).energy_binary
        e_ref = solve_brute_force(g, labels, lam).energy_binary
        worst = max(worst, abs(e_cut - e_ref))
        mismatches += e_cut != e_ref
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < BUDGET_ORACLE_S
    _report(capsys, "exact-solver-oracle", ok,
            "100 instances, %d energy mismatches, worst |diff| %.3g, %.2fs"
            % (mismatches, worst, elapsed))
    assert mismatches == 0, "min-cut energy differs from exhaustive minimum"
    assert elapsed < BUDGET_ORACLE_S


def test_02_primal_dual_tightness(capsys):
    model = quadrant_model()
    rng = np.random.Generator(np.random.Philox(SEED_TIGHTNESS))
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(200, 2001))
        cloud = sample(model, n, (SEED_TIGHTNESS, k))
        eps = float(rng.uniform(2.0, 4.0)) * n ** (-1 / 3)
        lam = float(10.0 ** rng.uniform(np.log10(0.005), np.log10(0.1)))
        g = build(cloud, eps, INDICATOR)
        # by weak duality the min-cut's gap bounds energy_binary minus the
        # relaxed minimum, so the relaxation is tight to within it
        res = solve_mincut(g, cloud.labels, lam)
        worst = max(worst, res.gap / res.energy_binary)
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL_TIGHTNESS_REL and elapsed < BUDGET_TIGHTNESS_S
    _report(capsys, "relaxation-tightness", ok,
            "20 instances, worst gap / energy_binary %.3g (tol %g), %.1fs"
            % (worst, TOL_TIGHTNESS_REL, elapsed))
    assert worst <= TOL_TIGHTNESS_REL
    assert elapsed < BUDGET_TIGHTNESS_S


def test_03_overfitting_regime(capsys):
    model = quadrant_model()
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for n in (1000, 10000):
        cloud = sample(model, n, (SEED_OVERFIT, n))
        eps = n ** (-1 / 3)
        lam = eps * 1e-3
        g = build(cloud, eps, INDICATOR)
        certified, margin = certify_overfit(g, lam)
        u = solve_mincut(g, cloud.labels, lam).u_binary
        exact = bool(np.array_equal(u, cloud.labels))
        risk = mx.empirical_risk(u, cloud.labels)
        all_ok = all_ok and certified and exact and risk == 0.0
        details.append("n=%d cert=%s margin=%.3f labels=%s R_n=%g"
                       % (n, certified, margin, exact, risk))
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < BUDGET_OVERFIT_S
    _report(capsys, "overfitting-regime", ok,
            "; ".join(details) + ", %.1fs" % elapsed)
    assert all_ok, "small lambda must certify and reproduce the raw labels"
    assert elapsed < BUDGET_OVERFIT_S


def test_04_underfitting_regime(capsys):
    model = asymmetric_model()
    lam = 1e3
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for n in (1000, 10000):
        cloud = sample(model, n, (SEED_UNDERFIT, n))
        g = build(cloud, n ** (-1 / 3), INDICATOR)
        u = solve_mincut(g, cloud.labels, lam).u_binary
        majority = 1.0 if cloud.labels.mean() > 0.5 else 0.0
        is_const = u.min() == u.max()
        target = risk_of_constant(model, u[0])
        tr, ci = mx.test_risk(mx.voronoi_extend(cloud, u), model, 2000,
                              (SEED_UNDERFIT + 1, n))
        close = abs(tr - target) <= 3.0 * ci
        all_ok = all_ok and is_const and u[0] == majority and close
        details.append("n=%d const=%s maj=%g |test-R|=%.4f 3ci=%.4f"
                       % (n, is_const, majority, abs(tr - target), 3.0 * ci))
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < BUDGET_UNDERFIT_S
    _report(capsys, "underfitting-regime", ok,
            "; ".join(details) + ", %.1fs" % elapsed)
    assert all_ok, "huge lambda must collapse to the empirical majority label"
    assert elapsed < BUDGET_UNDERFIT_S


def _interface_costs_and_gain(model, lam_scale):
    """Closed-form regime quantities: lambda_n * sigma_eta * TV(u_B) at each
    n of the grid, and the fidelity gain min(R(0), R(1)) - R_B."""
    tv_bayes = float(surface_tension(INDICATOR, model.d) * bayes_tv(model))
    costs = [lam_scale * n ** (-0.25) * tv_bayes for n in CONSISTENCY_NS]
    gain = min(risk_of_constant(model, 0.0),
               risk_of_constant(model, 1.0)) - bayes_risk(model)
    return costs, gain


def _consistency_medians(model, eps_scale, lam_scale, seed_base, test_m):
    """Median excess risk and Bayes disagreement over 5 seeds per n, and
    the largest overfit-certificate margin per n (it certifies iff > 0)."""
    rb = bayes_risk(model)
    med_excess, med_disagree, max_margin = [], [], []
    for n in CONSISTENCY_NS:
        ex, dis, margins = [], [], []
        for seed in range(1, 6):
            cloud = sample(model, n, (seed_base, n, seed))
            g = build(cloud, eps_scale * n ** (-1 / 3), INDICATOR)
            lam = lam_scale * n ** (-0.25)
            margins.append(certify_overfit(g, lam)[1])
            u = solve_mincut(g, cloud.labels, lam).u_binary
            vc = mx.voronoi_extend(cloud, u)
            tr, _ = mx.test_risk(vc, model, test_m, (seed_base + 1, n, seed))
            ba = mx.bayes_agreement(vc, model, test_m, (seed_base + 2, n, seed))
            ex.append(tr - rb)
            dis.append(1.0 - ba)
        med_excess.append(float(np.median(ex)))
        med_disagree.append(float(np.median(dis)))
        max_margin.append(max(margins))
    return med_excess, med_disagree, max_margin


def test_05_consistency_regime(capsys):
    # Canonical rates eps = n^(-1/3), lambda = n^(-1/4), unit prefactors.
    # The theory is asymptotic; at finite n the exact minimizer can only
    # track u_B once the interface cost lambda*sigma_eta*TV(u_B) is below
    # the fidelity gain min(R(0), R(1)) - R_B, else a constant wins.
    # Noisy half-plane (mu 0.1 | 0.9, interface length 1): sigma_eta*TV =
    # 4/3 and the gain is 0.5 - 0.1 = 0.4, so the cost 0.28/0.20/0.14 at
    # n = 500/2000/8000 stays below it (breakeven lambda = 0.3, n ~ 120).
    # Quadrant model (mu 0.55 | 0.45, interface length 2): sigma_eta*TV =
    # 8/3 and the gain is only 0.05, so the cost 0.56/0.40/0.28 is
    # 6-11 times the gain; breakeven lambda = 0.019 means n ~ 8e6, and at
    # n <= 8000 the minimizer is a constant. The precondition below
    # rejects such a model, and rules out the overfitting regime by
    # requiring that the overfit certificate fails at every cell.
    model = noisy_halfplane_model()
    costs, gain = _interface_costs_and_gain(model, 1.0)
    t0 = time.perf_counter()
    med_excess, med_disagree, margins = _consistency_medians(
        model, 1.0, 1.0, SEED_CONSISTENCY, 2000)
    elapsed = time.perf_counter() - t0
    regime = all(c < gain for c in costs) and all(m <= 0.0 for m in margins)
    dec_e = _strictly_decreasing(med_excess)
    dec_d = _strictly_decreasing(med_disagree)
    small = med_excess[-1] <= EXCESS_AT_LARGEST_MAX
    ok = (regime and dec_e and dec_d and small
          and elapsed < BUDGET_CONSISTENCY_S)
    _report(capsys, "consistency-regime", ok,
            "interface costs %s vs gain %.4f, max overfit margins %s; "
            "excess medians %s, disagreement medians %s, %.1fs"
            % (["%.4f" % c for c in costs], gain,
               ["%.3f" % m for m in margins],
               ["%.4f" % e for e in med_excess],
               ["%.4f" % d for d in med_disagree], elapsed))
    assert regime, ("outside the consistency regime: interface costs %s vs "
                    "gain %g, max overfit margins %s" % (costs, gain, margins))
    assert dec_e, "median excess risk not strictly decreasing: %s" % med_excess
    assert dec_d, ("median Bayes disagreement not strictly decreasing: %s"
                   % med_disagree)
    assert small, "excess risk at n=8000 above %g: %g" % (
        EXCESS_AT_LARGEST_MAX, med_excess[-1])
    assert elapsed < BUDGET_CONSISTENCY_S


def test_consistency_trend_with_calibrated_constants(capsys):
    # The quadrant model under test_05's protocol, with two differences.
    # The model's margin is small (gain 0.05 against sigma_eta*TV(u_B) =
    # 8/3), so unit-prefactor rates collapse to a constant at these n (see
    # test_05). The prefactors therefore come from pilot calibration:
    # eps = 0.7 n^(-1/3) keeps the graph sparse enough that label noise
    # stays expensive, lambda = 0.15 n^(-1/4) sits between the
    # memorization and constant-collapse thresholds at every n used.
    t0 = time.perf_counter()
    med_excess, med_disagree, _ = _consistency_medians(
        quadrant_model(), 0.7, 0.15, SEED_CALIBRATED, 20000)
    elapsed = time.perf_counter() - t0
    dec_e = _strictly_decreasing(med_excess)
    dec_d = _strictly_decreasing(med_disagree)
    small = med_excess[-1] <= EXCESS_AT_LARGEST_MAX
    ok = dec_e and dec_d and small and elapsed < BUDGET_CONSISTENCY_S
    with capsys.disabled():
        print("\nNOTE calibrated-consistency: %s  (excess medians %s, "
              "disagreement medians %s, %.1fs)"
              % ("PASS" if ok else "FAIL",
                 ["%.4f" % e for e in med_excess],
                 ["%.4f" % d for d in med_disagree], elapsed))
    assert dec_e and dec_d and small, (med_excess, med_disagree)
    assert elapsed < BUDGET_CONSISTENCY_S


def test_06_surface_tension_closed_forms(capsys):
    t0 = time.perf_counter()
    err1 = abs(surface_tension(INDICATOR, 1) - 1.0)
    err2 = abs(surface_tension(INDICATOR, 2) - 4.0 / 3.0) / (4.0 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = (err1 <= TOL_SURFACE_TENSION_REL and err2 <= TOL_SURFACE_TENSION_REL
          and elapsed < BUDGET_SURFACE_TENSION_S)
    _report(capsys, "surface-tension", ok,
            "d=1 err %.2g, d=2 err %.2g (tol %g), %.2fs"
            % (err1, err2, TOL_SURFACE_TENSION_REL, elapsed))
    assert err1 <= TOL_SURFACE_TENSION_REL
    assert err2 <= TOL_SURFACE_TENSION_REL
    assert elapsed < BUDGET_SURFACE_TENSION_S


def test_07_continuum_limit_trend(capsys):
    model = halfplane_model()
    t0 = time.perf_counter()
    rows = mx.gamma_check(model, INDICATOR, {n: n ** (-0.25) for n in (1000, 4000, 16000)},
                          SEED_GAMMA)
    elapsed = time.perf_counter() - t0
    abs_errs = [r["abs_err"] for r in rows]
    final_rel = rows[-1]["rel_err"]
    dec = _strictly_decreasing(abs_errs)
    ok = dec and final_rel <= GAMMA_FINAL_REL_MAX and elapsed < BUDGET_GAMMA_S
    _report(capsys, "continuum-limit-trend", ok,
            "abs errs %s, final rel %.3f (max %.2f), %.1fs"
            % (["%.4f" % e for e in abs_errs], final_rel,
               GAMMA_FINAL_REL_MAX, elapsed))
    assert dec, "discrete-vs-continuum error not decreasing: %s" % abs_errs
    assert final_rel <= GAMMA_FINAL_REL_MAX
    assert elapsed < BUDGET_GAMMA_S


def test_08_tl1_exactness_and_axioms(capsys):
    rng = np.random.Generator(np.random.Philox(SEED_TL1))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        xa, xb = rng.random((n, d)), rng.random((n, d))
        fa, fb = rng.normal(size=n), rng.normal(size=n)
        got = mx.tl1_exact(xa, fa, xb, fb)[0]
        worst = max(worst, abs(got - brute_tl1(xa, fa, xb, fb)))
    worst_sym = 0.0
    worst_tri = -np.inf
    for _ in range(50):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        clouds = [(rng.random((n, d)), rng.normal(size=n)) for _ in range(3)]
        (xa, fa), (xb, fb), (xc, fc) = clouds
        dab = mx.tl1_exact(xa, fa, xb, fb)[0]
        worst_sym = max(worst_sym, abs(dab - mx.tl1_exact(xb, fb, xa, fa)[0]))
        dbc = mx.tl1_exact(xb, fb, xc, fc)[0]
        dac = mx.tl1_exact(xa, fa, xc, fc)[0]
        worst_tri = max(worst_tri, dac - (dab + dbc))
    elapsed = time.perf_counter() - t0
    ok = (worst <= TOL_TL1 and worst_sym <= TOL_TL1 and worst_tri <= TOL_TL1
          and elapsed < BUDGET_TL1_S)
    _report(capsys, "tl1-exactness", ok,
            "200 instances worst |diff| %.2g, symmetry %.2g, "
            "triangle slack %.2g (tol %g), %.1fs"
            % (worst, worst_sym, worst_tri, TOL_TL1, elapsed))
    assert worst <= TOL_TL1, "assignment solver disagrees with exhaustion"
    assert worst_sym <= TOL_TL1
    assert worst_tri <= TOL_TL1
    assert elapsed < BUDGET_TL1_S


def test_09_concentration_diagnostic_decays(capsys):
    model = quadrant_model()
    t0 = time.perf_counter()
    medians = {}
    for n in (1000, 10000):
        vals = [mx.concentration_diagnostic(
                    sample(model, n, (SEED_CONCENTRATION, n, k)),
                    model, n ** (-1 / 3))
                for k in range(3)]
        medians[n] = float(np.median(vals))
    elapsed = time.perf_counter() - t0
    ok = medians[10000] < medians[1000] and elapsed < BUDGET_CONCENTRATION_S
    _report(capsys, "concentration-decay", ok,
            "3-seed medians n=1e3: %.4f, n=1e4: %.4f, %.2fs"
            % (medians[1000], medians[10000], elapsed))
    assert medians[10000] < medians[1000]
    assert elapsed < BUDGET_CONCENTRATION_S


def test_10_divergence_and_gtv_properties(capsys):
    rng = np.random.Generator(np.random.Philox(SEED_IDENTITIES))
    t0 = time.perf_counter()
    worst_div, worst_sum, worst_hom, worst_sub = 0.0, 0.0, 0.0, 0.0
    for k in range(100):
        n = int(rng.integers(2, 41))
        d = 1 + k % 3
        # a profile scale s is eps * s
        prof, s = KernelProfile(SHAPES[k % len(SHAPES)]), float(rng.uniform(0.6, 1.4))
        # discarded draw: it keeps the stream, so the instances stay as recorded
        rng.uniform(0.5, 2.0)
        cloud = LabeledCloud(rng.random((n, d)), rng.integers(0, 2, n))
        g = build(cloud, s * float(rng.uniform(0.3, 1.0)), prof)
        v = rng.normal(size=n)
        p = rng.normal(size=(g.m, 2))
        dv = divergence(g, p)
        # both sides of <v, div p> = sum_ij eta_eps(x_i-x_j) p_ij (v_j-v_i)
        lhs = float(v @ dv)
        dvv = v[g.ej] - v[g.ei]
        rhs = float(np.sum(g.w * (p[:, 0] - p[:, 1]) * dvv))
        mass = float(np.sum(np.abs(g.w * (p[:, 0] - p[:, 1]) * dvv))) + 1e-30
        worst_div = max(worst_div, abs(lhs - rhs) / mass)
        worst_sum = max(worst_sum, abs(float(dv.sum()))
                        / (float(np.abs(g.w * (p[:, 1] - p[:, 0])).sum()) + 1e-30))
        u, w2 = rng.normal(size=n), rng.normal(size=n)
        alpha = float(rng.normal()) * 3.0
        base = gtv(g, u)
        worst_hom = max(worst_hom, abs(gtv(g, alpha * u) - abs(alpha) * base)
                        / max(1.0, abs(alpha) * base))
        tot = base + gtv(g, w2)
        worst_sub = max(worst_sub, (gtv(g, u + w2) - tot) / max(1.0, tot))
    elapsed = time.perf_counter() - t0
    ok = (max(worst_div, worst_sum, worst_hom, worst_sub) <= TOL_IDENTITY_REL
          and elapsed < BUDGET_IDENTITIES_S)
    _report(capsys, "gtv-identities", ok,
            "100 graphs: divergence %.2g, antisymmetry %.2g, homogeneity %.2g,"
            " subadditivity %.2g (tol %g), %.1fs"
            % (worst_div, worst_sum, worst_hom, worst_sub, TOL_IDENTITY_REL,
               elapsed))
    assert worst_div <= TOL_IDENTITY_REL
    assert worst_sum <= TOL_IDENTITY_REL
    assert worst_hom <= TOL_IDENTITY_REL
    assert worst_sub <= TOL_IDENTITY_REL
    assert elapsed < BUDGET_IDENTITIES_S
