import itertools

import networkx as nx
import numpy as np
import pytest

from gtvclass import ValidationError
from gtvclass import graph as gr
from gtvclass import solver as sv
from gtvclass.groundtruth import GroundTruthModel, noisy_halfplane_model, quadrant_model, sample
from gtvclass.kernels import KernelProfile
from gtvclass.solver import SolverConfig
from test_graph import divergence


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
        assert mc.energy_binary - bf.energy_binary <= mc.gap


def mincut_scale(graph, lam):
    # the largest edge arc maps to 2^30 - 1, since its residual reaches twice
    # its capacity, or 1/n to 2^31 - 1, whichever is smaller
    c = 2.0 * lam / (graph.n ** 2 * graph.eps)
    widest = np.max(c * graph.w, initial=0.0) * ((2.0 ** 31 - 1.0) / (2.0 ** 30 - 1.0))
    return (2.0 ** 31 - 1.0) / max(widest, 1.0 / graph.n)


def rounding_gap(graph, y, lam, u):
    # the a-priori bound on what rounding the capacities to integers costs,
    # valid when the integer maximum flow is right: the cut of u and a true
    # minimizer's cut cross at most k + n + m arcs, where k counts those of
    # u's cut, and each arc is off by at most 0.5/scale
    k = np.count_nonzero(u != y) + np.count_nonzero(u[graph.ei] != u[graph.ej])
    return (k + graph.n + graph.m) * 0.5 / mincut_scale(graph, lam)


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
    scale = mincut_scale(graph, lam)
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
        assert abs(cut_value - mc.energy_binary) <= rounding_gap(g, y, lam, u)
        assert 0.0 <= mc.gap <= rounding_gap(g, y, lam, u)
        nontrivial += 0 < mc.u_binary.sum() < n and not np.array_equal(mc.u_binary, y)
    assert nontrivial >= 8


@pytest.mark.parametrize("n, seed, eps", [
    (500, 1, 0.5 * np.sqrt(np.log(500) / 500)),   # r = 4.9
    (500, 2, 0.5 * np.sqrt(np.log(500) / 500)),
    # r = 0.57: an edge arc scaled to exactly 2^30 - 1/2 would round to 2^30
    (150, 2, 150 ** (-1 / 3)),
])
def test_mincut_exact_when_edge_arcs_pass_half_a_terminal_arc(n, seed, eps):
    # indicator kernel and lambda = n^(-1/4) on the noisy half-plane: an edge
    # arc is r = 2 lambda / (n eps^3) times a terminal arc, and once r > 1/2
    # an edge arc's residual c + f could pass 2^31 - 1 and stop the flow short
    cloud = sample(noisy_halfplane_model(), n, (seed, n))
    lam = n ** -0.25
    g = gr.build(cloud, eps, KernelProfile("indicator"))
    assert 2.0 * lam / (n * g.eps ** 3) > 0.5
    mc = sv.solve_mincut(g, cloud.labels, lam)
    u, cut_value = networkx_min_source_side(g, cloud.labels, lam)
    assert np.array_equal(mc.u_binary, u)
    assert abs(cut_value - mc.energy_binary) <= rounding_gap(g, cloud.labels, lam, u)
    assert 0.0 <= mc.gap <= rounding_gap(g, cloud.labels, lam, u)
    # a second witness: the minimum lies below both constants' energies
    assert mc.energy_binary < min(sv.energy(g, cloud.labels, lam, np.full(n, v)) for v in (0, 1))


def test_mincut_matches_networkx_oracle_at_random_capacity_ratios():
    # seeded instances on the noisy half-plane with an edge arc 1 to 5 times
    # a terminal arc, past the ratio of 1/2 where an int32 residual c + f
    # could overflow without the 2^30 - 1 scale
    rng = np.random.Generator(np.random.Philox(28))
    nontrivial = 0
    for k in range(12):
        n, r = int(rng.integers(500, 1001)), float(rng.uniform(1.0, 5.0))
        eps = float(rng.uniform(0.4, 0.8)) * np.sqrt(np.log(n) / n)
        cloud = sample(noisy_halfplane_model(), n, (28, k))
        lam = r * n * eps ** 3 / 2.0
        g = gr.build(cloud, eps, KernelProfile("indicator"))
        mc = sv.solve_mincut(g, cloud.labels, lam)
        u, cut_value = networkx_min_source_side(g, cloud.labels, lam)
        assert np.array_equal(mc.u_binary, u)
        assert abs(cut_value - mc.energy_binary) <= rounding_gap(g, cloud.labels, lam, u)
        assert 0.0 <= mc.gap <= rounding_gap(g, cloud.labels, lam, u)
        nontrivial += 0 < u.sum() < n and not np.array_equal(u, cloud.labels)
    assert nontrivial >= 6


def test_mincut_gap_bounds_the_excess_of_a_wrong_flow(monkeypatch):
    # a flow solver that returns half of a maximum flow (rounded toward 0):
    # the flow fits the capacities but is not maximal, so the cut read from
    # its residual is not a minimum. The gap reads the same flow, and weak
    # duality keeps it a bound on the excess whatever the flow solver did.
    real = sv.maximum_flow

    def half_flow(cap, s, t):
        res = real(cap, s, t)
        res.flow.data = (res.flow.data / 2).astype(res.flow.dtype)
        return res

    monkeypatch.setattr(sv, "maximum_flow", half_flow)
    rng = np.random.Generator(np.random.Philox(29))
    wrong = 0
    for _ in range(40):
        g, y, lam = random_instance(rng, nmax=14)
        mc = sv.solve_mincut(g, y, lam)
        excess = mc.energy_binary - sv.solve_brute_force(g, y, lam).energy_binary
        assert excess <= mc.gap
        wrong += excess > 1e-6
    # the first instance of test_mincut_exact_when_edge_arcs_pass_half_a_terminal_arc
    n = 500
    cloud = sample(noisy_halfplane_model(), n, (1, n))
    lam = n ** -0.25
    g = gr.build(cloud, 0.5 * np.sqrt(np.log(n) / n), KernelProfile("indicator"))
    mc = sv.solve_mincut(g, cloud.labels, lam)
    u, _ = networkx_min_source_side(g, cloud.labels, lam)
    excess = mc.energy_binary - sv.energy(g, cloud.labels, lam, u)
    assert 0.01 < excess <= mc.gap
    assert wrong >= 10


def test_mincut_refuses_a_flow_in_another_layout(monkeypatch):
    # the cut and the gap read the flow entry by entry against the capacity
    # matrix, so a flow matrix whose rows list the arcs in another order,
    # with the same entry count, must raise rather than misalign
    real = sv.maximum_flow

    def reversed_rows(cap, s, t):
        res = real(cap, s, t)
        fl = res.flow
        for a, b in zip(fl.indptr[:-1], fl.indptr[1:]):
            fl.indices[a:b] = fl.indices[a:b][::-1].copy()
            fl.data[a:b] = fl.data[a:b][::-1].copy()
        return res

    monkeypatch.setattr(sv, "maximum_flow", reversed_rows)
    pts = np.array([[0.0], [0.1], [0.2], [0.3]])
    g = gr.build(pts, 0.25, KernelProfile("indicator"))
    with pytest.raises(RuntimeError, match="layout"):
        sv.solve_mincut(g, np.array([1, 0, 1, 0]), 0.5)


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
        excess = mc.energy_binary - bf.energy_binary
        a_priori = rounding_gap(g, y, lam, mc.u_binary)
        assert excess <= mc.gap
        assert 0.0 < a_priori and excess <= a_priori
    # a tie made by rounding: the edge costs 1e-12 less than the label it
    # saves, but both round to 2^30 - 1, and the minimal source side is empty
    for shape in ("gaussian", "exponential"):
        g = gr.build(np.array([[0.0], [0.03]]), 0.05, KernelProfile(shape))
        y = np.array([1, 0])
        lam = 0.5 * (1.0 - 1e-12) / (2.0 * g.w[0] / (4 * g.eps))
        mc = sv.solve_mincut(g, y, lam)
        bf = sv.solve_brute_force(g, y, lam)
        assert np.array_equal(mc.u_binary, [0.0, 0.0])
        assert np.array_equal(bf.u_binary, [1.0, 0.0])
        assert 0.0 < mc.energy_binary - bf.energy_binary <= mc.gap
        assert mc.energy_binary - bf.energy_binary <= rounding_gap(g, y, lam, mc.u_binary)


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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", ["indicator", "exponential", "gaussian"])
def test_primal_dual_operators(d, shape):
    # K u = c w (u_ej - u_ei) and its two-slot adjoint 2 K^T against the
    # divergence, the inner product and the energy's gtv term. Each sum is
    # compared to 1e-14 of the sum of its terms' magnitudes, since rounding
    # differs where terms cancel.
    rng = np.random.Generator(np.random.Philox(26 + d))
    for _ in range(5):
        n = int(rng.integers(2, 40))
        s = 1.0 if shape == "indicator" else 0.3
        g = gr.build(rng.random((n, d)), s * float(rng.uniform(0.2, 1.2)),
                     KernelProfile(shape))
        if g.m == 0:
            continue
        lam = float(10.0 ** rng.uniform(-3, 1))
        c = lam / (n ** 2 * g.eps)
        K, KT = sv._pd_operator(g, c)
        assert K.shape == (g.m, n)
        u, q = rng.random(n), rng.uniform(-1.0, 1.0, g.m)
        ku, kq = K @ u, 2.0 * (KT @ q)
        ku_mag = c * g.w * (u[g.ej] + u[g.ei])
        assert np.all(np.abs(ku - c * g.w * (u[g.ej] - u[g.ei])) <= 1e-14 * ku_mag)
        div = c * divergence(g, np.stack([q, -q], axis=1))
        a = 2.0 * c * g.w * np.abs(q)
        kq_mag = np.bincount(g.ei, a, n) + np.bincount(g.ej, a, n)
        assert np.all(np.abs(kq - div) <= 1e-14 * kq_mag)
        assert abs(2.0 * (ku @ q) - u @ kq) <= 1e-14 * (u @ kq_mag)
        sigma = float(rng.uniform(0.1, 10.0))
        K.data *= sigma   # the solver's scaling, which KT shares
        np.testing.assert_array_equal(2.0 * (KT @ q), 2.0 * (K.T @ q))
        assert abs((2.0 / sigma) * np.abs(K @ u).sum() - lam * gr.gtv(g, u)) \
            <= 1e-14 * 2.0 * ku_mag.sum()


def test_primal_dual_zero_iterations_returns_labels():
    g, y = pd_parity_instance(31)
    lam = 0.3 ** 3 * 0.2
    r = sv.solve_primal_dual(g, y, SolverConfig(lam, max_iters=0))
    e = sv.energy(g, y, lam, y)
    assert np.array_equal(r.u, y) and np.array_equal(r.u_binary, y)
    assert (r.iters, r.converged) == (0, False)
    # the dual point q = 0 bounds the energy below by 0
    assert r.energy_relaxed == r.energy_binary == r.gap == e


def test_primal_dual_edgeless_graph_returns_labels():
    g = gr.build(np.array([[0.0], [1.0], [2.0]]), 0.5, KernelProfile("indicator"))
    y = np.array([1, 0, 1])
    assert g.m == 0
    r = sv.solve_primal_dual(g, y, SolverConfig(0.1))
    assert np.array_equal(r.u, y) and np.array_equal(r.u_binary, y)
    assert r.gap == 0.0
    assert r.energy_relaxed == r.energy_binary == sv.energy(g, y, 0.1, y) == 0.0


def test_edgeless_graph_gtv_is_zero_and_exact_solvers_return_labels():
    # with no edge gtv is an empty sum and brute force scores each labeling
    # by a (k, 0) @ (0,) product, so every labeling costs its label term alone
    g = gr.build(np.array([[0.0], [1.0], [2.0]]), 0.5, KernelProfile("indicator"))
    y = np.array([1, 0, 1])
    assert g.m == 0
    assert gr.gtv(g, np.array([0.0, 1.0, 0.5])) == 0.0
    for solve in (sv.solve_brute_force, sv.solve_mincut):
        r = solve(g, y, 0.1)
        assert np.array_equal(r.u_binary, y) and r.energy_binary == 0.0


def pd_parity_instance(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((200, 2))
    y = ((pts[:, 0] > 0.5) ^ (rng.random(200) < 0.2)).astype(int)
    # the gaussian at profile scale 0.3 and eps 0.2, lambda 0.2: the map
    # to (0.3 * 0.2, 0.3^3 * 0.2) keeps the recorded values below
    return gr.build(pts, 0.3 * 0.2, KernelProfile("gaussian")), y


@pytest.mark.parametrize("seed, max_iters, expect", [
    # the relative gap stays above 1e-9 up to the cap; energy_relaxed is
    # that of a thresholded iterate, and it and energy_binary are the
    # min-cut energy
    (31, 5000, (5000, False, 0.16602419512258076, 0.1660241951225808,
                2.0902008454559695e-05)),
    # capped at 77; the best iterate is 36, and the bound is read every 10
    # iterations and at the cap
    (35, 77, (77, False, 0.18565154346664783, 0.18565154346664786,
              0.0020888947398131352)),
    # capped at 39; the best iterate, 36, lies between gap checks, and the
    # bound is read at 30 and at the cap
    (35, 39, (39, False, 0.18565154346664783, 0.18565154346664786,
              0.004207682883477476)),
])
def test_primal_dual_parity_with_recorded_values(seed, max_iters, expect):
    # values recorded from the over-relaxed solver that stops on its duality
    # gap, scoring thresholded iterates and window-averaged duals too; a
    # change of dual storage or energy bookkeeping must keep them
    g, y = pd_parity_instance(seed)
    r = sv.solve_primal_dual(g, y, SolverConfig(0.3 ** 3 * 0.2, tol=1e-9,
                                                max_iters=max_iters))
    iters, converged, e_relaxed, e_binary, gap = expect
    assert (r.iters, r.converged) == (iters, converged)
    assert r.energy_relaxed == pytest.approx(e_relaxed, rel=1e-12, abs=0.0)
    assert r.energy_binary == pytest.approx(e_binary, rel=1e-12, abs=0.0)
    assert r.gap == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_primal_dual_converged_certifies_its_gap():
    # converged is a certified relative gap, never an energy plateau: on the
    # instance below the labels stay put for the first 50 iterations, and
    # they are the exact minimizer
    rng = np.random.Generator(np.random.Philox(31))
    pts = rng.random((200, 2))
    y = ((pts[:, 0] > 0.5) ^ (rng.random(200) < 0.2)).astype(int)
    cases = [(gr.build(pts, 0.25, KernelProfile("indicator")), y, 0.05)]
    rng = np.random.Generator(np.random.Philox(27))
    cases += [random_instance(rng) for _ in range(12)]
    certified = 0
    for k, (g, y, lam) in enumerate(cases):
        cfg = SolverConfig(lam, max_iters=3000, tol=(1e-7, 1e-9, 1e-14)[k % 3])
        r = sv.solve_primal_dual(g, y, cfg)
        assert r.gap >= -1e-12
        if r.converged:
            certified += 1
            assert r.gap <= cfg.tol * r.energy_relaxed
        if k == 0:
            assert r.converged and r.iters <= 30
            assert r.energy_binary == sv.solve_mincut(g, y, lam).energy_binary
    assert certified >= 6


def test_primal_dual_weak_duality_against_mincut():
    # the dual bound never passes the exact minimum and the relaxed energy,
    # that of the u returned, never falls below it, capped or converged;
    # the ties allow rounding. Caps 13 and 47 stop inside a block of 10
    # iterations, whose partial sum must not enter the windowed bound.
    rng = np.random.Generator(np.random.Philox(37))
    cases = [random_instance(rng) for _ in range(10)]
    pts = rng.random((300, 3))
    y = ((pts[:, 0] + pts[:, 1] > 1.0) ^ (rng.random(300) < 0.15)).astype(int)
    cases.append((gr.build(pts, 0.3, KernelProfile("indicator")), y, 0.2))
    cases.append((gr.build(pts, 0.3, KernelProfile("gaussian")), y, 0.2))
    for g, y, lam in cases:
        exact = sv.solve_mincut(g, y, lam).energy_binary
        for max_iters in (7, 13, 40, 47, 3000):
            r = sv.solve_primal_dual(g, y, SolverConfig(lam, max_iters=max_iters, tol=1e-9))
            assert r.energy_relaxed - r.gap <= exact + 1e-12 <= r.energy_relaxed + 2e-12
            assert r.energy_relaxed == pytest.approx(sv.energy(g, y, lam, r.u), rel=1e-12)


def test_primal_dual_iterations_on_quadrant_model():
    # the README's consistent regime at n = 2000 certifies the default tol in
    # 70 iterations, at the min-cut energy; the bound leaves 3 checks of
    # margin. Scoring only the relaxed iterate and the last dual it took 220,
    # and 390 without over-relaxation.
    n = 2000
    cloud = sample(quadrant_model(), n, (0, 1))
    g = gr.build(cloud, 0.7 * n ** (-1 / 3), KernelProfile("indicator"))
    lam = 0.15 * n ** -0.25
    r = sv.solve_primal_dual(g, cloud.labels, SolverConfig(lam))
    assert r.converged and r.iters <= 100
    assert r.energy_binary == sv.solve_mincut(g, cloud.labels, lam).energy_binary


def test_primal_dual_iterations_on_cube_model():
    # d = 3, uniform density, mu = 0.7 on x0 < 1/2 and 0.3 beyond, at
    # eps = 0.7 n^(-1/4) and lambda = 0.15 n^(-1/4): the default tol is
    # certified in 110 iterations, at the min-cut energy; the bound leaves 4
    # checks of margin. Without the thresholded iterate it took 410, without
    # the windowed dual 420, and with neither 420.
    n, d = 2000, 3
    model = GroundTruthModel((0,) * d, (1,) * d, [((0,) * d, (1,) * d, 1.0)],
                             [((0,) * d, (0.5, 1, 1), 0.7), ((0.5, 0, 0), (1,) * d, 0.3)])
    cloud = sample(model, n, (3, 1))
    g = gr.build(cloud, 0.7 * n ** -0.25, KernelProfile("indicator"))
    lam = 0.15 * n ** -0.25
    r = sv.solve_primal_dual(g, cloud.labels, SolverConfig(lam))
    assert r.converged and r.iters <= 150
    exact = sv.solve_mincut(g, cloud.labels, lam).energy_binary
    assert r.energy_binary == exact
    # recorded: capped at 67, the best bound is the mean over iterations
    # 21-60, read at 60; a window that took in a block before its tenth
    # iteration would move it
    r = sv.solve_primal_dual(g, cloud.labels, SolverConfig(lam, max_iters=67))
    assert (r.iters, r.converged, r.energy_relaxed) == (67, False, exact)
    assert r.gap == pytest.approx(2.3197097315241777e-07, rel=1e-12, abs=0.0)


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
    for tol in (0.0, -1e-7, 1.0, 2.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            SolverConfig(0.1, tol=tol)
    for max_iters in (-1, 2.7, True, "5", None):
        with pytest.raises(ValidationError, match="max_iters"):
            SolverConfig(0.1, max_iters=max_iters)
    for max_iters in (0, 7, np.int64(7)):
        cfg = SolverConfig(0.1, max_iters=max_iters)
        assert cfg.max_iters == max_iters and type(cfg.max_iters) is int
