import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtvclass import ValidationError
from gtvclass import graph as gr
from gtvclass import kernels
from gtvclass.kernels import KernelProfile
from gtvclass.solver import certify_overfit


def direct_build(points, eps, profile):
    # O(n^2) reference: all pairwise weights, no spatial index
    n, d = points.shape
    ei, ej, w = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            wij = kernels.eval(profile, np.linalg.norm(points[i] - points[j]) / eps) / eps ** d
            if wij > 0:
                ei.append(i)
                ej.append(j)
                w.append(wij)
    deg = np.zeros(n)
    for i, j, x in zip(ei, ej, w):
        deg[i] += x
        deg[j] += x
    deg += 1.0 / eps ** d   # eta(0) = 1 for every profile
    return np.array(ei), np.array(ej), np.array(w), deg


def random_graph(rng, n=None, d=None, eps=None):
    n = n or int(rng.integers(3, 40))
    d = d or int(rng.integers(1, 4))
    pts = rng.random((n, d))
    eps = eps or float(rng.uniform(0.15, 0.6))
    return gr.build(pts, eps, KernelProfile("indicator"))


def test_build_two_points_inside_support():
    for d in (1, 2):
        pts = np.zeros((2, d))
        pts[1, 0] = 0.4
        g = gr.build(pts, 0.5, KernelProfile("indicator"))
        assert g.m == 1
        assert g.w[0] == pytest.approx(0.5 ** -d, rel=1e-15)
        assert (g.ei[0], g.ej[0]) == (0, 1)


def test_build_two_points_outside_support():
    pts = np.array([[0.0], [0.6]])
    g = gr.build(pts, 0.5, KernelProfile("indicator"))
    assert g.m == 0


def test_build_complete_graph_when_eps_large():
    rng = np.random.Generator(np.random.Philox(1))
    pts = rng.random((30, 2))
    g = gr.build(pts, 10.0, KernelProfile("indicator"))
    assert g.m == 30 * 29 // 2


def test_build_empty_cloud_rejected():
    with pytest.raises(ValidationError):
        gr.build(np.empty((0, 2)), 0.5, KernelProfile("indicator"))


def test_build_matches_direct_double_loop():
    rng = np.random.Generator(np.random.Philox(2))
    for shape in ("indicator", "exponential", "gaussian"):
        for d in (1, 2, 3):
            n = 200 if d < 3 else 80
            pts = rng.random((n, d))
            # smooth shapes at 0.02 eps: a profile scale s is eps * s
            eps = float(rng.uniform(0.05, 0.3)) * (1.0 if shape == "indicator" else 0.02)
            prof = KernelProfile(shape)
            g = gr.build(pts, eps, prof)
            ei, ej, w, deg = direct_build(pts, eps, prof)
            assert np.array_equal(g.ei, ei) and np.array_equal(g.ej, ej)
            assert g.ei.dtype == g.ej.dtype == np.int32
            assert np.allclose(g.w, w, rtol=1e-12, atol=0)
            # the certificate's dual bound at lambda = 1 is the largest
            # degree sum, diagonal term included, times 2/(eps n)
            margin = certify_overfit(g, 1.0)[1]
            assert np.isclose(1.0 - margin, 2.0 / (eps * n) * deg.max(), rtol=1e-12, atol=0)
    # node numbers are stored as int32 whatever the width they come in
    h = gr.NeighborGraph(g.n, g.d, g.eps, g.ei.astype(np.int64), g.ej.astype(np.int64), g.w)
    assert h.ei.dtype == h.ej.dtype == np.int32


def all_pairs_edges(points, eps, profile):
    # O(n^2) reference: every pair through kernels.eval, with build's distance
    # arithmetic, so that the kernel alone decides pairs at the cutoff
    n, d = points.shape
    i, j = np.triu_indices(n, 1)
    diff = points[i] - points[j]
    w = kernels.eval(profile, np.sqrt((diff * diff).sum(axis=1)) / eps) / eps ** d
    keep = w > 0
    return i[keep], j[keep], w[keep]


def cutoff_cloud(kind, d, cutoff, rng):
    if kind == "random":
        return rng.random((int(rng.integers(2, 60)), d))
    if kind == "lattice":
        # spacing equal to the cutoff: every lattice neighbour sits on it
        k = {1: 30, 2: 7, 3: 4}[d]
        axes = [rng.uniform(-1, 1) + cutoff * np.arange(k) for _ in range(d)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
    # pairs at the cutoff moved by a few ulps, where a squared-distance
    # comparison and dist / eps <= radius can round opposite ways
    a = rng.uniform(-1, 1, (12, d))
    v = rng.standard_normal((12, d))
    b = a + cutoff * v / np.linalg.norm(v, axis=1, keepdims=True)
    b += rng.integers(-3, 4, (12, 1)) * np.spacing(b) * np.sign(v)
    return np.concatenate([a, b])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("random", "lattice", "boundary")),
       d=st.integers(1, 3), shape=st.sampled_from(kernels.SHAPES),
       scale=st.sampled_from((1.0, 0.7, 0.3, 0.05)),
       eps=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_build_matches_all_pairs_at_the_cutoff(kind, d, shape, scale, eps, seed):
    # a profile scale s is eps * s
    prof, eps = KernelProfile(shape), scale * eps
    rng = np.random.Generator(np.random.Philox(seed))
    pts = cutoff_cloud(kind, d, prof.support_radius * eps, rng)
    g = gr.build(pts, eps, prof)
    ei, ej, w = all_pairs_edges(pts, eps, prof)
    assert np.array_equal(g.ei, ei) and np.array_equal(g.ej, ej)
    assert np.array_equal(g.w, w)
    deg = (np.bincount(ei, weights=w, minlength=len(pts))
           + np.bincount(ej, weights=w, minlength=len(pts)) + 1.0 / eps ** d)
    assert certify_overfit(g, 1.0)[1] == 1.0 - float((2.0 / (eps * len(pts)) * deg).max())


def test_build_deterministic_and_sorted():
    rng = np.random.Generator(np.random.Philox(3))
    pts = rng.random((150, 2))
    g1 = gr.build(pts, 0.2, KernelProfile("indicator"))
    g2 = gr.build(pts, 0.2, KernelProfile("indicator"))
    assert np.array_equal(g1.ei, g2.ei) and np.array_equal(g1.ej, g2.ej)
    assert np.array_equal(g1.w, g2.w)
    assert np.all(g1.ei < g1.ej)
    keys = g1.ei * g1.n + g1.ej
    assert np.all(np.diff(keys) > 0)


def test_gtv_constant_zero_and_shift_invariance():
    rng = np.random.Generator(np.random.Philox(4))
    g = random_graph(rng, n=60, d=2, eps=0.3)
    assert gr.gtv(g, np.full(g.n, 0.7)) == 0.0
    u = rng.random(g.n)
    assert gr.gtv(g, u + 5.0) == pytest.approx(gr.gtv(g, u), rel=1e-12)


def test_gtv_hand_value():
    # d = 1, points {0, 0.5}, eps = 1, indicator, u = (0, 1):
    # (1/(2^2 * 1^2)) * 2 * 1 * 1 = 0.5
    g = gr.build(np.array([[0.0], [0.5]]), 1.0, KernelProfile("indicator"))
    assert gr.gtv(g, np.array([0.0, 1.0])) == pytest.approx(0.5, abs=1e-15)


def test_gtv_matches_direct_double_sum():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(5):
        n, d = 120, 2
        pts = rng.random((n, d))
        eps = 0.25
        prof = KernelProfile("indicator")
        g = gr.build(pts, eps, prof)
        u = rng.random(n)
        total = 0.0
        for i in range(n):
            r = np.linalg.norm(pts - pts[i], axis=1) / eps
            total += np.sum(kernels.eval(prof, r) / eps ** d * np.abs(u - u[i]))
        direct = total / (n ** 2 * eps)
        assert gr.gtv(g, u) == pytest.approx(direct, rel=1e-12)


def test_gtv_length_mismatch():
    g = random_graph(np.random.Generator(np.random.Philox(6)), n=10, d=2, eps=0.5)
    with pytest.raises(ValidationError):
        gr.gtv(g, np.zeros(11))


def test_gtv_homogeneity_and_subadditivity():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(30):
        g = random_graph(rng)
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        alpha = float(rng.uniform(-3, 3))
        lhs = gr.gtv(g, alpha * u)
        rhs = abs(alpha) * gr.gtv(g, u)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        assert gr.gtv(g, u + v) <= gr.gtv(g, u) + gr.gtv(g, v) + 1e-10


def divergence(graph, p):
    # reference oracle for the primal-dual solver's edge operator K:
    # div(p)_i = sum_j eta_eps(x_i - x_j)(p_ji - p_ij) for an (m, 2) field p,
    # p[e, 0] the i->j slot and p[e, 1] the j->i slot of edge e = (i, j)
    vals = np.asarray(p, dtype=float)
    if vals.shape != (graph.m, 2):
        raise ValidationError("edge field does not match the graph")
    a = graph.w * (vals[:, 1] - vals[:, 0])
    return (np.bincount(graph.ei, weights=a, minlength=graph.n)
            - np.bincount(graph.ej, weights=a, minlength=graph.n))


def test_divergence_symmetric_field_is_zero():
    rng = np.random.Generator(np.random.Philox(8))
    g = random_graph(rng, n=40, d=2, eps=0.4)
    s = rng.standard_normal(g.m)
    p = np.stack([s, s], axis=1)
    assert np.allclose(divergence(g, p), 0.0, atol=1e-14)


def test_divergence_single_edge_hand_value():
    g = gr.build(np.array([[0.0], [0.5]]), 1.0, KernelProfile("indicator"))
    w = g.w[0]
    p = np.array([[1.0, 0.0]])
    assert np.allclose(divergence(g, p), [-w, +w])


def test_divergence_sums_to_zero():
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(10):
        g = random_graph(rng)
        p = rng.standard_normal((g.m, 2))
        assert abs(divergence(g, p).sum()) <= 1e-10 * max(1.0, np.abs(p).sum())


def test_divergence_shape_mismatch():
    g = random_graph(np.random.Generator(np.random.Philox(10)), n=12, d=2, eps=0.5)
    with pytest.raises(ValidationError):
        divergence(g, np.zeros((g.m + 1, 2)))


def test_divergence_theorem_identity():
    # sum_i v_i div(p)_i = sum over ordered pairs of eta_eps p_ij (v_j - v_i)
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(50):
        g = random_graph(rng)
        v = rng.standard_normal(g.n)
        p = rng.standard_normal((g.m, 2))
        lhs = float(v @ divergence(g, p))
        rhs = float(np.sum(g.w * (p[:, 0] * (v[g.ej] - v[g.ei])
                                  + p[:, 1] * (v[g.ei] - v[g.ej]))))
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_gtv_duality_on_small_graphs():
    # gtv(u) = (1/(n^2 eps)) max over |p| <= 1 of sum_i u_i div(p)_i,
    # maximized here by enumerating sign fields on graphs with <= 5 edges
    rng = np.random.Generator(np.random.Philox(12))
    tried = 0
    while tried < 10:
        g = random_graph(rng, n=int(rng.integers(3, 7)), d=2, eps=0.5)
        if g.m == 0 or g.m > 5:
            continue
        tried += 1
        u = rng.standard_normal(g.n)
        best = -np.inf
        for signs in itertools.product((-1.0, 1.0), repeat=2 * g.m):
            p = np.array(signs).reshape(g.m, 2)
            best = max(best, float(u @ divergence(g, p)))
        assert gr.gtv(g, u) == pytest.approx(best / (g.n ** 2 * g.eps), rel=1e-10)


def test_num_components():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [9.0, 0.0]])
    g = gr.build(pts, 0.2, KernelProfile("indicator"))
    assert gr.num_components(g) == 3
    # against networkx on sparse random graphs, isolated nodes and the
    # edgeless graph included
    rng = np.random.Generator(np.random.Philox(31))
    for n, eps in ((1, 0.1), (40, 0.01), (60, 0.08), (300, 0.05), (500, 0.12)):
        g = gr.build(rng.random((n, 2)), eps, KernelProfile("indicator"))
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(zip(g.ei.tolist(), g.ej.tolist()))
        assert gr.num_components(g) == nx.number_connected_components(ref)
