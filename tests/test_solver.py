import itertools

import networkx as nx
import numpy as np
import pytest

from gtvclass import ValidationError
from gtvclass import graph as gr
from gtvclass import solver as sv
from gtvclass.kernels import KernelProfile
from gtvclass.solver import SolverConfig


def three_point_line():
    # d = 1, points {0, 0.4, 0.8}, eps = 0.5, indicator, labels (1, 0, 1)
    g = gr.build(np.array([[0.0], [0.4], [0.8]]), 0.5, KernelProfile("indicator"))
    return g, np.array([1, 0, 1])


def enumerate_min(graph, labels, lam):
    # independent oracle: direct enumeration with the energy operation
    best = None
    for u in itertools.product((0.0, 1.0), repeat=graph.n):
        e = sv.energy(graph, labels, lam, np.array(u))
        if best is None or e < best[0] - 1e-15:
            best = (e, np.array(u))
    return best


def random_instance(rng, nmax=12):
    n = int(rng.integers(2, nmax + 1))
    d = int(rng.integers(1, 3))
    pts = rng.random((n, d))
    labels = rng.integers(0, 2, n)
    eps = float(rng.uniform(0.2, 1.2))
    lam = float(10.0 ** rng.uniform(-3, 1))
    shape = ("indicator", "exponential", "gaussian")[int(rng.integers(3))]
    # smooth shapes at profile scale 0.3, i.e. at 0.3 eps and 0.3^(d+1) lambda
    s = 1.0 if shape == "indicator" else 0.3
    return gr.build(pts, s * eps, KernelProfile(shape)), labels, s ** (d + 1) * lam


def test_energy_examples():
    g, y = three_point_line()
    lam = 0.3
    assert sv.energy(g, y, lam, y.astype(float)) == pytest.approx(lam * gr.gtv(g, y), rel=1e-15)
    assert sv.energy(g, y, lam, np.ones(3)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # enumeration oracle values on the 3-point line
    assert sv.energy(g, y, lam, np.array([1.0, 0.0, 1.0])) == pytest.approx(
        0.3 * 16.0 / 9.0, rel=1e-13)


def test_energy_shape_mismatch():
    g, y = three_point_line()
    with pytest.raises(ValidationError):
        sv.energy(g, y, 0.1, np.zeros(4))


def test_brute_force_examples():
    g1 = gr.build(np.array([[0.0]]), 0.5, KernelProfile("indicator"))
    r = sv.solve_brute_force(g1, np.array([1]), 0.7)
    assert np.array_equal(r.u_binary, [1.0]) and r.energy_binary == 0.0

    g, y = three_point_line()
    r = sv.solve_brute_force(g, y, 0.1)
    assert np.array_equal(r.u_binary, [1.0, 0.0, 1.0])
    r = sv.solve_brute_force(g, y, 0.3)
    assert np.array_equal(r.u_binary, [1.0, 1.0, 1.0])
    assert r.energy_binary == pytest.approx(1.0 / 3.0, abs=1e-15)

    rng = np.random.Generator(np.random.Philox(13))
    g5 = gr.build(rng.random((5, 2)), 0.6, KernelProfile("indicator"))
    y5 = rng.integers(0, 2, 5)
    r = sv.solve_brute_force(g5, y5, 0.0001)
    e_labels = sv.energy(g5, y5, 0.0001, y5.astype(float))
    assert r.energy_binary <= e_labels + 1e-15


def test_brute_force_lexicographic_tie_break():
    # two far points, labels (1, 0), huge lambda: (0,0) and (1,1) tie at 1/2;
    # lexicographically smallest wins
    g = gr.build(np.array([[0.0], [0.3]]), 1.0, KernelProfile("indicator"))
    r = sv.solve_brute_force(g, np.array([1, 0]), 100.0)
    assert np.array_equal(r.u_binary, [0.0, 0.0])


def test_brute_force_refuses_large_n():
    rng = np.random.Generator(np.random.Philox(14))
    g = gr.build(rng.random((21, 1)), 0.5, KernelProfile("indicator"))
    with pytest.raises(ValidationError):
        sv.solve_brute_force(g, np.zeros(21, dtype=int), 0.1)


def test_brute_force_matches_enumeration_oracle():
    rng = np.random.Generator(np.random.Philox(15))
    for _ in range(10):
        g, y, lam = random_instance(rng, nmax=8)
        e_oracle, _ = enumerate_min(g, y, lam)
        r = sv.solve_brute_force(g, y, lam)
        assert r.energy_binary == pytest.approx(e_oracle, rel=1e-13)


def test_mincut_examples():
    g, y = three_point_line()
    r = sv.solve_mincut(g, y, 0.3)
    assert np.array_equal(r.u_binary, [1.0, 1.0, 1.0])
    assert r.energy_binary == pytest.approx(1.0 / 3.0, abs=1e-14)
    r = sv.solve_mincut(g, y, 1e-9)
    assert np.array_equal(r.u_binary, y.astype(float))


def test_mincut_equals_brute_force_on_random_instances():
    rng = np.random.Generator(np.random.Philox(16))
    for _ in range(40):
        g, y, lam = random_instance(rng)
        bf = sv.solve_brute_force(g, y, lam)
        mc = sv.solve_mincut(g, y, lam)
        assert mc.energy_binary == bf.energy_binary


def networkx_min_source_side(graph, y, lam):
    # the integer network of solve_mincut's docstring, built by hand, and
    # the nodes reachable from s in the residual of networkx's maximum flow
    n = graph.n
    c = 2.0 * lam / (n ** 2 * graph.eps)
    caps = {}
    for i in range(n):
        caps["s", i] = y[i] / n
        caps[i, "t"] = (1.0 - y[i]) / n
    for i, j, w in zip(graph.ei.tolist(), graph.ej.tolist(), graph.w):
        caps[i, j] = caps[j, i] = c * w
    scale = (2.0 ** 31 - 1.0) / max(caps.values())
    G = nx.DiGraph()
    for (a, b), cap in caps.items():
        G.add_edge(a, b, capacity=int(np.rint(cap * scale)))
    value, flow = nx.maximum_flow(G, "s", "t")

    def residual(a, b):
        cap = G.edges[a, b]["capacity"] if G.has_edge(a, b) else 0
        return cap - flow[a].get(b, 0) + flow[b].get(a, 0)

    R = nx.DiGraph()
    R.add_edges_from((a, b) for e in G.edges for a, b in (e, e[::-1])
                     if residual(a, b) > 0)
    u = np.zeros(n)
    u[[v for v in nx.descendants(R, "s") if v != "t"]] = 1.0
    return u, value / scale


def test_mincut_matches_networkx_oracle():
    rng = np.random.Generator(np.random.Philox(26))
    nontrivial = 0
    for k in range(12):
        n, d = int(rng.integers(100, 400)), 1 + k % 3
        pts = rng.random((n, d))
        y = ((pts[:, 0] > 0.5) ^ (rng.random(n) < 0.25)).astype(int)
        prof = KernelProfile("indicator" if k % 2 else "gaussian")
        # tens of neighbours per node; lambda near the overfit edge, where
        # flipping one node trades 1/n against its cut edges
        eps = (20.0 / n) ** (1.0 / d) / (2.0 if k % 2 else 2.4)
        lam = n * eps ** (d + 1) * float(10.0 ** rng.uniform(-1.5, -0.5))
        # the gaussian at profile scale 0.3: 0.3 eps and 0.3^(d+1) lambda
        s = 1.0 if k % 2 else 0.3
        eps, lam = s * eps, s ** (d + 1) * lam
        g = gr.build(pts, eps, prof)
        mc = sv.solve_mincut(g, y, lam)
        u, cut_value = networkx_min_source_side(g, y, lam)
        assert np.array_equal(mc.u_binary, u)
        assert mc.energy_binary == sv.energy(g, y, lam, u)
        assert abs(cut_value - mc.energy_binary) <= mc.gap
        nontrivial += 0 < mc.u_binary.sum() < n and not np.array_equal(mc.u_binary, y)
    assert nontrivial >= 8


def test_mincut_gap_bounds_quantization_excess():
    # smooth kernels at profile scale 0.05, i.e. at 0.05 eps and
    # 0.05^(d+1) lambda: many arcs round to zero in int32
    rng = np.random.Generator(np.random.Philox(27))
    for k in range(120):
        n, d = int(rng.integers(8, 17)), int(rng.integers(1, 4))
        pts = rng.random((n, d))
        y = rng.integers(0, 2, n)
        g = gr.build(pts, 0.05 * float(rng.uniform(0.3, 1.5)),
                     KernelProfile(("gaussian", "exponential")[k % 2]))
        lam = 0.05 ** (d + 1) * float(10.0 ** rng.uniform(-3, 1))
        mc = sv.solve_mincut(g, y, lam)
        bf = sv.solve_brute_force(g, y, lam)
        assert 0.0 < mc.gap and mc.energy_binary - bf.energy_binary <= mc.gap
    # a tie made by rounding: the edge costs 1e-12 less than the label it
    # saves, but both round to 2^31 - 1, and the minimal source side is empty
    for shape in ("gaussian", "exponential"):
        g = gr.build(np.array([[0.0], [0.03]]), 0.05, KernelProfile(shape))
        y = np.array([1, 0])
        lam = 0.5 * (1.0 - 1e-12) / (2.0 * g.w[0] / (4 * g.eps))
        mc = sv.solve_mincut(g, y, lam)
        bf = sv.solve_brute_force(g, y, lam)
        assert np.array_equal(mc.u_binary, [0.0, 0.0])
        assert np.array_equal(bf.u_binary, [1.0, 0.0])
        assert 0.0 < mc.energy_binary - bf.energy_binary <= mc.gap


def test_mincut_nonbinary_labels_rejected():
    g, _ = three_point_line()
    with pytest.raises(ValidationError):
        sv.solve_mincut(g, np.array([1, 2, 0]), 0.1)


def test_binarize_binary_passthrough():
    # lambda small enough that no coarser level set beats u itself
    g, y = three_point_line()
    u = np.array([1.0, 0.0, 1.0])
    assert np.array_equal(sv.binarize(g, y, 0.001, u), u)


def test_binarize_half_constant_goes_to_majority():
    rng = np.random.Generator(np.random.Philox(17))
    g = gr.build(rng.random((9, 2)), 0.01, KernelProfile("indicator"))
    y = np.array([1, 1, 1, 1, 1, 0, 0, 0, 1])
    b = sv.binarize(g, y, 0.1, np.full(9, 0.5))
    assert np.array_equal(b, np.ones(9))


def test_binarize_never_exceeds_relaxed_energy():
    # coarea: the best level set beats the relaxed function
    rng = np.random.Generator(np.random.Philox(18))
    for _ in range(30):
        g, y, lam = random_instance(rng)
        u = rng.random(g.n)
        b = sv.binarize(g, y, lam, u)
        assert set(np.unique(b)) <= {0.0, 1.0}
        assert sv.energy(g, y, lam, b) <= sv.energy(g, y, lam, u) + 1e-10


def test_binarize_all_ones_candidate():
    # u bounded away from 0 and 1 with all-one labels: plain level sets of u
    # miss the all-ones labeling, which is the minimizer here
    g = gr.build(np.array([[0.0], [0.05]]), 1.0, KernelProfile("indicator"))
    y = np.array([1, 1])
    b = sv.binarize(g, y, 0.001, np.array([0.3, 0.4]))
    assert np.array_equal(b, [1.0, 1.0])


def binarize_by_enumeration(graph, labels, lam, u):
    # reference: the all-ones labeling, then the level set above every
    # distinct value of u and 1/2 in ascending order, each scored by energy;
    # the first minimum wins
    cands = [np.ones(graph.n)] + [(u > t).astype(float)
                                  for t in np.unique(np.append(u, 0.5))]
    energies = [sv.energy(graph, labels, lam, b) for b in cands]
    return cands[int(np.argmin(energies))]


def test_binarize_matches_enumeration_oracle():
    # u on quarters, so many nodes share a threshold and candidates tie
    rng = np.random.Generator(np.random.Philox(26))
    for trial in range(40):
        n = int(rng.integers(2, 401))
        d = int(rng.integers(1, 4))
        shape = ("indicator", "gaussian")[trial % 2]
        # the gaussian at profile scale 0.3: 0.3 eps and 0.3^(d+1) lambda
        s = 1.0 if shape == "indicator" else 0.3
        g = gr.build(rng.random((n, d)), s * float(rng.uniform(0.05, 0.4)),
                     KernelProfile(shape))
        y = rng.integers(0, 2, n)
        lam = s ** (d + 1) * float(10.0 ** rng.uniform(-3, 1))
        u = rng.integers(0, 5, n) / 4.0
        e = sv.energy(g, y, lam, sv.binarize(g, y, lam, u))
        e_ref = sv.energy(g, y, lam, binarize_by_enumeration(g, y, lam, u))
        assert e == pytest.approx(e_ref, rel=1e-12, abs=0.0)


def test_binarize_constant_tie_goes_to_all_ones():
    # balanced labels and a huge lambda: all-ones and all-zeros both cost
    # exactly 1/2 and every other level set more, so all-ones must win
    rng = np.random.Generator(np.random.Philox(27))
    for _ in range(20):
        n = 2 * int(rng.integers(10, 100))
        g = gr.build(rng.random((n, 2)), 0.3, KernelProfile("indicator"))
        y = rng.permutation(np.repeat([0, 1], n // 2))
        b = sv.binarize(g, y, 1e6, rng.random(n))
        assert np.array_equal(b, np.ones(n))


def test_certificate_hand_value():
    # n = 2, d = 1, points {0, 0.5}, eps = 1, indicator: s_i = 2 lambda
    g = gr.build(np.array([[0.0], [0.5]]), 1.0, KernelProfile("indicator"))
    ok, margin = sv.certify_overfit(g, 0.2)
    assert ok and margin == pytest.approx(1.0 - 0.4, abs=1e-14)
    ok, margin = sv.certify_overfit(g, 0.6)
    assert not ok and margin == pytest.approx(1.0 - 1.2, abs=1e-14)


def test_certificate_tiny_lambda_true():
    rng = np.random.Generator(np.random.Philox(19))
    g, y, _ = random_instance(rng)
    ok, margin = sv.certify_overfit(g, 1e-12)
    assert ok and margin > 0.999


def test_certificate_soundness_against_exact_solver():
    rng = np.random.Generator(np.random.Philox(20))
    hits = 0
    for _ in range(60):
        g, y, lam = random_instance(rng)
        ok, _ = sv.certify_overfit(g, lam)
        if ok:
            hits += 1
            r = sv.solve_mincut(g, y, lam)
            assert np.array_equal(r.u_binary, y.astype(float))
    assert hits >= 5  # the sweep must actually exercise the certified branch


def test_primal_dual_three_point_instances():
    g, y = three_point_line()
    for lam, expect in [(0.3, [1.0, 1.0, 1.0]), (0.1, [1.0, 0.0, 1.0])]:
        r = sv.solve_primal_dual(g, y, SolverConfig(lam, max_iters=5000, tol=1e-10))
        assert np.array_equal(r.u_binary, expect)
        e_oracle, _ = enumerate_min(g, y, lam)
        assert r.energy_binary == pytest.approx(e_oracle, rel=1e-12)


def test_primal_dual_contracts():
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(8):
        g, y, lam = random_instance(rng)
        cfg = SolverConfig(lam, max_iters=3000, tol=1e-9)
        r = sv.solve_primal_dual(g, y, cfg)
        e0 = sv.energy(g, y, lam, y.astype(float))
        assert r.energy_relaxed <= e0 + 1e-15
        assert r.energy_binary <= r.energy_relaxed + cfg.tol
        assert np.all(r.u >= 0) and np.all(r.u <= 1)
        assert r.gap >= -1e-12


def test_primal_dual_matches_exact_on_random_instances():
    rng = np.random.Generator(np.random.Philox(22))
    for _ in range(6):
        g, y, lam = random_instance(rng)
        r = sv.solve_primal_dual(g, y, SolverConfig(lam, max_iters=8000, tol=1e-10))
        mc = sv.solve_mincut(g, y, lam)
        assert r.energy_binary <= mc.energy_binary * (1 + 1e-6) + 1e-12


def test_primal_dual_certified_regime_returns_labels():
    rng = np.random.Generator(np.random.Philox(23))
    pts = rng.random((40, 2))
    y = rng.integers(0, 2, 40)
    g = gr.build(pts, 0.3, KernelProfile("indicator"))
    lam = 1e-4
    ok, _ = sv.certify_overfit(g, lam)
    assert ok
    r = sv.solve_primal_dual(g, y, SolverConfig(lam, max_iters=2000, tol=1e-10))
    assert np.array_equal(r.u_binary, y.astype(float))
    assert r.energy_binary == pytest.approx(lam * gr.gtv(g, y), rel=1e-12)


def pd_parity_instance(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((200, 2))
    y = ((pts[:, 0] > 0.5) ^ (rng.random(200) < 0.2)).astype(int)
    # the gaussian at profile scale 0.3 and eps 0.2, lambda 0.2: the map
    # to (0.3 * 0.2, 0.3^3 * 0.2) keeps the recorded values below
    return gr.build(pts, 0.3 * 0.2, KernelProfile("gaussian")), y


@pytest.mark.parametrize("seed, max_iters, expect", [
    # converges after 970 iterations, best iterate at 796
    (31, 5000, (970, True, 0.16602425571754764, 0.16602419512258082,
                0.00026798071159336856)),
    # capped at 77; the best iterate, 74, lies between convergence checks
    (35, 77, (77, False, 0.18565343440478993, 0.1856515434666479,
              0.004163678618902766)),
])
def test_primal_dual_parity_with_recorded_values(seed, max_iters, expect):
    # values recorded from the two-slot solver that called energy() every
    # iteration; a change of dual storage or energy bookkeeping must keep them
    g, y = pd_parity_instance(seed)
    r = sv.solve_primal_dual(g, y, SolverConfig(0.3 ** 3 * 0.2, tol=1e-9,
                                                max_iters=max_iters))
    iters, converged, e_relaxed, e_binary, gap = expect
    assert (r.iters, r.converged) == (iters, converged)
    assert r.energy_relaxed == pytest.approx(e_relaxed, rel=1e-12, abs=0.0)
    assert r.energy_binary == pytest.approx(e_binary, rel=1e-12, abs=0.0)
    assert r.gap == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_huge_lambda_gives_majority_constant():
    rng = np.random.Generator(np.random.Philox(24))
    pts = rng.random((50, 2))
    y = (rng.random(50) < 0.7).astype(int)
    g = gr.build(pts, 0.4, KernelProfile("indicator"))
    r = sv.solve_mincut(g, y, 1e3)
    maj = 1.0 if y.mean() > 0.5 else 0.0
    assert np.array_equal(r.u_binary, np.full(50, maj))
    assert sv.energy(g, y, 1e3, r.u_binary) == pytest.approx(min(y.mean(), 1 - y.mean()), rel=1e-13)


def test_gtv_of_minimizer_nonincreasing_in_lambda():
    rng = np.random.Generator(np.random.Philox(25))
    pts = rng.random((60, 2))
    y = rng.integers(0, 2, 60)
    g = gr.build(pts, 0.25, KernelProfile("indicator"))
    last = np.inf
    for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
        r = sv.solve_mincut(g, y, lam)
        val = gr.gtv(g, r.u_binary)
        assert val <= last + 1e-12
        last = val


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(0.0)
    with pytest.raises(ValidationError):
        SolverConfig(0.1, tol=0.0)
