"""Risk, TL1, transport, concentration, and continuum-oracle tests."""

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import Voronoi, cKDTree
from scipy.spatial.distance import cdist

from gtvclass import ValidationError
from gtvclass import metrics as mx
from gtvclass import groundtruth as gt
from gtvclass import kernels
from gtvclass.graph import build, gtv
from gtvclass.groundtruth import (GroundTruthModel, LabeledCloud, asymmetric_model,
                                  bayes_classify, bayes_risk, halfplane_model,
                                  noisy_halfplane_model, quadrant_model, risk_of_constant,
                                  sample)
from gtvclass.cli import main
from gtvclass.kernels import KernelProfile, surface_tension
from gtvclass.solver import (SolverConfig, binarize, certify_overfit, energy, solve_brute_force,
                             solve_mincut, solve_primal_dual)


def uniform_square():
    return GroundTruthModel((0, 0), (1, 1), [((0, 0), (1, 1), 1.0)],
                            [((0, 0), (1, 1), 1.0)], name="uniform")


# ---------------------------------------------------------------- risks

def test_empirical_risk_examples():
    y = np.array([1.0, 1.0, 1.0])
    assert mx.empirical_risk(y, y) == 0.0
    assert mx.empirical_risk(np.ones(5), np.array([1, 0, 1, 0, 1])) == 2 / 5
    assert mx.empirical_risk(np.array([1.0, 0.0, 1.0]), y) == pytest.approx(1 / 3)
    with pytest.raises(ValidationError):
        mx.empirical_risk(np.ones(3), np.ones(4))


def test_voronoi_hand_geometry():
    vc = mx.VoronoiClassifier(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    assert np.array_equal(vc(np.array([[0.3], [0.7]])), [0.0, 1.0])
    # an exact midpoint tie goes to one of the two points, the one whose value
    # the classifier returns
    dist, idx = vc.nearest(np.array([[0.5]]))
    assert dist[0] == 0.5 and idx[0] in (0, 1)
    assert vc(np.array([[0.5]]))[0] == vc.values[idx[0]]


def test_voronoi_own_value_at_reference_points():
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.random((40, 2))
    vals = (rng.random(40) < 0.5).astype(float)
    vc = mx.voronoi_extend(SimpleNamespace(points=pts), vals)
    assert np.array_equal(vc(pts), vals)


def test_voronoi_single_point_constant():
    vc = mx.VoronoiClassifier(np.array([[0.2, 0.8]]), np.array([1.0]))
    assert np.all(vc(np.random.Generator(np.random.Philox(0)).random((10, 2))) == 1.0)


def test_voronoi_duplicate_point_tie_goes_to_a_copy():
    pts = np.array([[0.5], [0.5], [2.0]])
    vc = mx.VoronoiClassifier(pts, np.array([1.0, 0.0, 0.0]))
    dist, idx = vc.nearest(np.array([[0.5]]))
    assert dist[0] == 0.0 and idx[0] in (0, 1)
    assert vc(np.array([[0.5]]))[0] == vc.values[idx[0]]


def test_voronoi_tie_beyond_eight_goes_to_a_tied_point():
    # 12 points of the integer circle of radius 5: every squared distance
    # from the origin is exactly 25, more ties than an 8-nearest query holds.
    # The same circle scaled by 20 makes 24 points, so the k-d tree splits
    # instead of scanning a single leaf in index order.
    circle = np.array([(3, 4), (3, -4), (-3, 4), (-3, -4), (4, 3), (4, -3),
                       (-4, 3), (-4, -3), (5, 0), (-5, 0), (0, 5), (0, -5)], float)
    rng = np.random.Generator(np.random.Philox(8))
    for cloud in (circle, np.concatenate([circle, 20 * circle])):
        n = len(cloud)
        orders = [np.arange(n), np.arange(n)[::-1]] + [rng.permutation(n) for _ in range(40)]
        for order in orders:
            pts = cloud[order]
            ring = ((pts ** 2).sum(axis=1) == 25).astype(float)
            assert mx.VoronoiClassifier(pts, ring)(np.zeros((1, 2)))[0] == 1.0
            assert mx.VoronoiClassifier(pts, 1.0 - ring)(np.zeros((1, 2)))[0] == 0.0


def brute_force_sq_dist(points, x):
    # every recomputed squared distance, one row per query
    return ((x[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)


def voronoi_cloud(kind, d, rng):
    """Reference points and query points for one oracle example."""
    if kind == "random":
        pts = rng.random((int(rng.integers(3, 60)), d))
        mids = (pts[rng.integers(0, len(pts), 20)] + pts[rng.integers(0, len(pts), 20)]) / 2
        return pts, np.concatenate([rng.random((40, d)), pts, mids])
    if kind == "lattice":
        # integer lattice, scaled by a power of two and listed in random
        # order: lattice points, edge midpoints and cell centres are exact
        # many-way ties
        k = {1: 12, 2: 5, 3: 3}[d]
        grid = np.stack(np.meshgrid(*[np.arange(k)] * d, indexing="ij"), -1).reshape(-1, d)
        scale = 2.0 ** int(rng.integers(-3, 4))
        pts = scale * grid[rng.permutation(len(grid))]
        offsets = [np.zeros(d), np.full(d, 0.5)] + [0.5 * np.eye(d)[j] for j in range(d)]
        queries = np.concatenate([scale * (grid + o) for o in offsets])
        return pts, np.concatenate([queries, scale * k * rng.random((20, d))])
    if kind == "duplicates":
        base = rng.random((int(rng.integers(2, 15)), d))
        pts = base[rng.integers(0, len(base), int(rng.integers(2, 40)))]
        return pts, np.concatenate([base, rng.random((40, d))])
    # n = 1 or 2, the two possibly identical
    pts = rng.random((int(rng.integers(1, 3)), d))
    if len(pts) == 2 and rng.random() < 0.5:
        pts[1] = pts[0]
    return pts, np.concatenate([pts, pts.mean(axis=0, keepdims=True), rng.random((20, d))])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("random", "lattice", "duplicates", "tiny")),
       d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_voronoi_matches_brute_force_oracle(kind, d, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    pts, x = voronoi_cloud(kind, d, rng)
    d2 = brute_force_sq_dist(pts, x)
    # one classifier per bit of the point index spells out the chosen point
    ids = np.arange(len(pts))
    got = np.zeros(len(x), dtype=np.int64)
    for b in range(max(1, int(len(pts) - 1).bit_length())):
        got |= mx.VoronoiClassifier(pts, (ids >> b) & 1)(x).astype(np.int64) << b
    # the chosen point is an exact nearest one, with no tolerance, and it is
    # the point nearest() names
    assert np.array_equal(d2[np.arange(len(x)), got], d2.min(axis=1))
    assert np.array_equal(mx.VoronoiClassifier(pts, ids % 2).nearest(x)[1], got)


def test_voronoi_validation():
    with pytest.raises(ValidationError):
        mx.VoronoiClassifier(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValidationError):
        mx.VoronoiClassifier(np.array([[0.0]]), np.array([0.3]))


def test_test_risk_bayes_on_quadrant_within_ci():
    model = quadrant_model()
    est, ci = mx.test_risk(lambda x: bayes_classify(model, x), model, 4000, 11)
    assert abs(est - bayes_risk(model)) <= ci


def test_test_risk_constant_one_on_quadrant():
    model = quadrant_model()
    est, ci = mx.test_risk(lambda x: np.ones(len(x)), model, 4000, 12)
    assert abs(est - 0.5) <= ci


def test_test_risk_deterministic_labels_zero():
    model = GroundTruthModel((0, 0), (1, 1), [((0, 0), (1, 1), 1.0)],
                             [((0, 0), (1, 1), 1.0)], name="all-ones")
    est, ci = mx.test_risk(lambda x: np.ones(len(x)), model, 500, 3)
    assert est == 0.0 and ci == 0.0


def test_test_risk_requires_m():
    with pytest.raises(ValidationError):
        mx.test_risk(lambda x: np.ones(len(x)), quadrant_model(), 50, 0)


def test_test_risk_ci_coverage_of_bayes():
    # nominal 95% binomial coverage over repeated frozen runs
    model = quadrant_model()
    rb = bayes_risk(model)
    hits = sum(abs(mx.test_risk(lambda x: bayes_classify(model, x),
                                model, 4000, (77, k))[0] - rb)
               <= mx.test_risk(lambda x: bayes_classify(model, x),
                               model, 4000, (77, k))[1]
               for k in range(40))
    assert hits >= 36


def test_test_risk_never_beats_bayes():
    model = quadrant_model()
    rb = bayes_risk(model)
    rng = np.random.Generator(np.random.Philox(23))
    for k in range(15):
        cloud = sample(model, 60, (23, k))
        vc = mx.voronoi_extend(cloud, (rng.random(60) < 0.5).astype(float))
        est, ci = mx.test_risk(vc, model, 2500, (24, k))
        assert est >= rb - ci


def test_bayes_agreement_of_bayes_is_one():
    model = quadrant_model()
    assert mx.bayes_agreement(lambda x: bayes_classify(model, x),
                              model, 1000, 9) == 1.0


def test_bayes_agreement_constant_one_half():
    model = quadrant_model()
    a = mx.bayes_agreement(lambda x: np.ones(len(x)), model, 20000, 10)
    assert abs(a - 0.5) < 0.02


def test_bayes_agreement_complement():
    model = quadrant_model()
    cloud = sample(model, 200, 31)
    vals = bayes_classify(model, cloud.points).astype(float)
    a = mx.bayes_agreement(mx.voronoi_extend(cloud, vals), model, 3000, 32)
    b = mx.bayes_agreement(mx.voronoi_extend(cloud, 1.0 - vals), model, 3000, 32)
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_voronoi_of_bayes_values_agrees_at_cloud_points():
    model = quadrant_model()
    cloud = sample(model, 300, 41)
    vals = bayes_classify(model, cloud.points).astype(float)
    vc = mx.voronoi_extend(cloud, vals)
    assert np.array_equal(vc(cloud.points), vals)


# ---------------------------------------------------------------- exact d = 2 risk

def voronoi_cells_in_box(points, lo, hi):
    """Each point's Voronoi cell within the box [lo, hi], a convex polygon
    with its vertices in counter-clockwise order.

    The four mirror images of the cloud across the box's faces bound every
    original cell and cut it exactly at the faces: inside the box a mirror
    image is never nearer than its original, and outside it each original's
    mirror across a crossed face is nearer than the original itself.
    """
    if len(np.unique(points, axis=0)) < len(points):
        raise ValueError("duplicate points have no Voronoi cell of their own")
    copies = [points]
    for j in range(2):
        for face in (lo[j], hi[j]):
            mirror = points.copy()
            mirror[:, j] = 2 * face - mirror[:, j]
            copies.append(mirror)
    vor = Voronoi(np.concatenate(copies))
    cells = []
    for i in range(len(points)):
        region = vor.regions[vor.point_region[i]]
        assert region and -1 not in region
        poly = vor.vertices[region]
        c = poly.mean(axis=0)
        cells.append(poly[np.argsort(np.arctan2(poly[:, 1] - c[1], poly[:, 0] - c[0]))])
    return cells


def clip_to_box(poly, lo, hi):
    # Sutherland-Hodgman against the four half-planes of the box
    for j in range(2):
        for bound, sign in ((lo[j], 1.0), (hi[j], -1.0)):
            if len(poly) == 0:
                return poly
            s = sign * (poly[:, j] - bound)   # inside where s >= 0
            out = []
            for p, q, a, b in zip(poly, np.roll(poly, -1, axis=0), s, np.roll(s, -1)):
                if a >= 0:
                    out.append(p)
                if (a >= 0) != (b >= 0):
                    out.append(p + (q - p) * (a / (a - b)))
            poly = np.array(out).reshape(-1, 2)
    return poly


def shoelace(poly):
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def exact_risk_2d(points, values, model):
    """Exact (risk, Bayes agreement) of the 1-NN extension of values in d = 2.

    With area[k] the area of the label-1 cells inside the model's refined
    piece k, where rho and mu are constant: R = int mu rho + sum_k (1 - 2 mu)
    rho area[k], and 1 - agreement = mass{c_B = 1} + sum_k (1 - 2 c_B) rho
    area[k]. Duplicate points are refused.
    """
    vol, rho, mu, los, his = model.pieces
    bayes = (mu >= 0.5).astype(float)
    area = np.zeros(len(vol))
    for poly, v in zip(voronoi_cells_in_box(points, model.lo, model.hi), values):
        if v == 1:
            area += [shoelace(clip_to_box(poly, lo, hi)) for lo, hi in zip(los, his)]
    risk = np.sum(vol * rho * mu) + np.sum((1 - 2 * mu) * rho * area)
    agreement = 1 - np.sum(vol * rho * bayes) - np.sum((1 - 2 * bayes) * rho * area)
    return float(risk), float(agreement)


def tilted_split_model():
    # rho jumps at x0 = 0.3 and mu at x1 = 0.6, so refined pieces mix both
    return GroundTruthModel((0, 0), (1, 1),
                            [((0, 0), (0.3, 1), 2.0), ((0.3, 0), (1, 1), 4 / 7)],
                            [((0, 0), (1, 0.6), 0.2), ((0, 0.6), (1, 1), 0.7)],
                            name="tilted-split")


def test_exact_risk_oracle_hand_cases():
    model = noisy_halfplane_model()
    # two points split the square at x0 = 0.4; the label-1 cell is x0 > 0.4
    pts = np.array([[0.2, 0.5], [0.6, 0.5]])
    risk, agreement = exact_risk_2d(pts, np.array([0.0, 1.0]), model)
    assert risk == pytest.approx(0.5 + 0.1 * (1 - 0.2) + 0.5 * (1 - 1.8), abs=1e-12)
    assert agreement == pytest.approx(0.9, abs=1e-12)
    # a constant labeling is its constant's risk on any cloud, and the cells
    # of a labeling and of its complement add up to the whole square
    for model in (quadrant_model(), tilted_split_model()):
        cloud = sample(model, 300, 80)
        for c in (0.0, 1.0):
            risk, _ = exact_risk_2d(cloud.points, np.full(300, c), model)
            assert risk == pytest.approx(risk_of_constant(model, c), abs=1e-12)
        u = (np.random.Generator(np.random.Philox(80)).random(300) < 0.5).astype(float)
        r0, a0 = exact_risk_2d(cloud.points, u, model)
        r1, a1 = exact_risk_2d(cloud.points, 1.0 - u, model)
        assert r0 + r1 == pytest.approx(1.0, abs=1e-12)
        assert a0 + a1 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="duplicate"):
        exact_risk_2d(np.array([[0.2, 0.5], [0.6, 0.5], [0.2, 0.5]]), np.ones(3), model)


@pytest.mark.parametrize("make_model", [quadrant_model, tilted_split_model])
@pytest.mark.parametrize("n", [300, 2000])
def test_estimators_match_exact_risk_2d(make_model, n):
    # each Monte-Carlo estimate lies within 4 binomial standard errors of the
    # exact value, on a random labeling and on the min-cut solution at the
    # README rule
    model = make_model()
    cloud = sample(model, n, (81, n))
    g = build(cloud, 0.7 * n ** (-1 / 3), KernelProfile("indicator"))
    labelings = {
        "random": (np.random.Generator(np.random.Philox((82, n))).random(n) < 0.5).astype(float),
        "mincut": solve_mincut(g, cloud.labels, 0.15 * n ** (-0.25)).u_binary,
    }
    m = 20000
    for name, u in labelings.items():
        risk, agreement = exact_risk_2d(cloud.points, u, model)
        vc = mx.voronoi_extend(cloud, u)
        for est, exact in ((mx.test_risk(vc, model, m, (83, n))[0], risk),
                           (mx.bayes_agreement(vc, model, m, (84, n)), agreement)):
            assert abs(est - exact) <= 4 * np.sqrt(exact * (1 - exact) / m), (name, est, exact)


# ---------------------------------------------------------------- TL1

def test_tl1_identical_is_zero():
    rng = np.random.Generator(np.random.Philox(1))
    x = rng.random((30, 2))
    f = rng.random(30)
    r = mx.tl1_exact(x, f, x, f)
    assert r.cost == 0.0 and r.sup_displacement == 0.0
    assert np.array_equal(np.sort(r.assignment), np.arange(30))


def test_tl1_single_pair():
    r = mx.tl1_exact(np.array([[0.0]]), np.array([0.0]),
                     np.array([[1.0]]), np.array([2.0]))
    assert r.cost == pytest.approx(3.0)
    assert r.sup_displacement == pytest.approx(1.0)


def test_tl1_two_point_swap():
    x = np.array([[0.0], [1.0]])
    assert mx.tl1_exact(x, np.array([0.0, 1.0]),
                        x, np.array([1.0, 0.0])).cost == pytest.approx(1.0)


def test_tl1_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        mx.tl1_exact(x, np.zeros(3), np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ValidationError):
        mx.tl1_exact(x, np.zeros(3), np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValidationError):
        mx.tl1_exact(x, np.zeros(2), x, np.zeros(3))
    big = np.zeros((mx.ASSIGNMENT_BUDGET + 1, 1))
    with pytest.raises(ValidationError):
        mx.tl1_exact(big, np.zeros(len(big)), big, np.zeros(len(big)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_tl1_refuses_non_finite_values(side, value):
    x, f = np.zeros((2, 2)), np.zeros(2)
    bad = np.array([value, 0.0])
    with pytest.raises(ValidationError, match="finite"):
        mx.tl1_exact(x, bad if side == "a" else f, x, bad if side == "b" else f)


def brute_tl1(xa, fa, xb, fb):
    n = xa.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        c = (np.linalg.norm(xa - xb[p], axis=1) + np.abs(fa - fb[p])).sum() / n
        best = min(best, c)
    return best


def test_tl1_matches_exhaustive_permutations():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(30):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        xa, xb = rng.random((n, d)), rng.random((n, d))
        fa, fb = rng.random(n), rng.random(n)
        assert mx.tl1_exact(xa, fa, xb, fb).cost == pytest.approx(
            brute_tl1(xa, fa, xb, fb), abs=1e-10)


def test_tl1_metric_axioms():
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(20):
        n = int(rng.integers(2, 7))
        xa, xb, xc = (rng.random((n, 2)) for _ in range(3))
        fa, fb, fc = (rng.random(n) for _ in range(3))
        dab = mx.tl1_exact(xa, fa, xb, fb).cost
        dba = mx.tl1_exact(xb, fb, xa, fa).cost
        dac = mx.tl1_exact(xa, fa, xc, fc).cost
        dbc = mx.tl1_exact(xb, fb, xc, fc).cost
        assert dab >= 0.0
        assert abs(dab - dba) <= 1e-12
        assert dac <= dab + dbc + 1e-12
        # identity of indiscernibles under relabeling
        perm = rng.permutation(n)
        assert mx.tl1_exact(xa, fa, xa[perm], fa[perm]).cost <= 1e-12


def proxy_oracle(cloud, u, model, m, seed):
    # the proxy's formula with its own tree over the cloud
    fresh = sample(model, m, seed)
    dist, idx = cKDTree(cloud.points).query(fresh.points, k=1)
    ref = bayes_classify(model, fresh.points).astype(float)
    return float(np.mean(dist + np.abs(np.asarray(u, dtype=float)[idx] - ref)))


def test_tl1_proxy_matches_own_tree_oracle():
    model = quadrant_model()
    rng = np.random.Generator(np.random.Philox(18))
    for n in (1, 2, 7, 60, 500):
        cloud = sample(model, n, (18, n))
        u = (rng.random(n) < 0.5).astype(float)
        for m, seed in ((100, (19, n)), (777, (20, n))):
            got = mx.tl1_proxy_1nn(mx.voronoi_extend(cloud, u), model, m, seed)
            assert got == proxy_oracle(cloud, u, model, m, seed)
    # a duplicated point with opposite values: both trees pick the same copy
    pts = np.vstack([cloud.points[:40], cloud.points[:1]])
    dup = SimpleNamespace(points=pts)
    u = np.r_[np.zeros(40), 1.0]
    got = mx.tl1_proxy_1nn(mx.voronoi_extend(dup, u), model, 300, 21)
    assert got == proxy_oracle(dup, u, model, 300, 21)


def test_tl1_proxy_names_the_classifiers_point():
    # every cloud point listed twice with opposite values, so each fresh z_k
    # ties exactly between two copies; T(z_k) must be the copy whose value
    # the classifier returns at z_k
    model = quadrant_model()
    cloud = sample(model, 200, 25)
    u = (np.random.Generator(np.random.Philox(26)).random(200) < 0.5).astype(float)
    vc = mx.VoronoiClassifier(np.concatenate([cloud.points] * 2), np.r_[u, 1.0 - u])
    fresh = sample(model, 1000, 27)
    dist, _ = cKDTree(cloud.points).query(fresh.points, k=1)
    want = np.mean(dist) + np.mean(np.abs(vc(fresh.points) - bayes_classify(model, fresh.points)))
    assert mx.tl1_proxy_1nn(vc, model, 1000, 27) == pytest.approx(want, abs=1e-12)


def test_tl1_proxy_zero_displacement_reduction():
    model = quadrant_model()
    cloud = sample(model, 500, 19)
    rng = np.random.Generator(np.random.Philox(20))
    u = (rng.random(500) < 0.5).astype(float)
    # the same-seed draw is the cloud itself, so every z_k is its own T(z_k)
    got = mx.tl1_proxy_1nn(mx.voronoi_extend(cloud, u), model, 500, 19)
    ref = bayes_classify(model, cloud.points)
    assert got == np.mean(np.abs(u - ref))


def test_tl1_proxy_constants_give_mean_displacement():
    model = uniform_square()   # mu = 1 everywhere, so the Bayes rule is 1
    cloud = sample(model, 300, 21)
    fresh = sample(model, 400, 22)
    dist, _ = cKDTree(cloud.points).query(fresh.points, k=1)
    got = mx.tl1_proxy_1nn(mx.voronoi_extend(cloud, np.ones(300)), model, 400, 22)
    assert got == pytest.approx(float(np.mean(dist)), abs=1e-14)


def test_tl1_proxy_shrinks_with_n():
    model = quadrant_model()
    vals = []
    for n in (100, 1000, 10000):
        cloud = sample(model, n, (33, n))
        u = bayes_classify(model, cloud.points).astype(float)
        vals.append(mx.tl1_proxy_1nn(mx.voronoi_extend(cloud, u), model, 4000, 34))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05


def test_estimators_require_m():
    vc = mx.voronoi_extend(sample(quadrant_model(), 10, 0), np.ones(10))
    for est in (mx.test_risk, mx.bayes_agreement, mx.tl1_proxy_1nn):
        with pytest.raises(ValidationError):
            est(vc, quadrant_model(), 99, 0)


# ---------------------------------------------------------------- transport

def test_quadrature_counts_and_apportionment():
    model = GroundTruthModel((0, 0), (1, 1),
                             [((0, 0), (0.5, 1), 1.1), ((0.5, 0), (1, 1), 0.9)],
                             [((0, 0), (1, 1), 1.0)], name="tilted")
    q = mx.quadrature_points(model, 10)
    assert q.shape == (10, 2)
    assert np.sum(q[:, 0] < 0.5) == 6  # mass 0.55 -> largest remainder
    assert np.all((q >= 0) & (q <= 1))


@pytest.mark.parametrize("n", [50, 1100])
def test_quadrature_grid_spans_every_axis(n):
    # n is not a perfect square, so the smallest r x r lattice holding n
    # points has empty sites; the grid must still reach its last row
    r = int(np.ceil(np.sqrt(n)))
    q = mx.quadrature_points(uniform_square(), n)
    assert q.shape == (n, 2) and np.unique(q, axis=0).shape == (n, 2)
    assert np.all(1.0 - q.max(axis=0) <= 1.0 / r), q.max(axis=0)
    assert np.all(q.min(axis=0) <= 1.0 / r)


def uniform_box(d):
    return GroundTruthModel((0,) * d, (1,) * d, [((0,) * d, (1,) * d, 1.0)],
                            [((0,) * d, (1,) * d, 1.0)], name="uniform%d" % d)


def bottleneck_oracle(grid, points):
    # smallest t whose pairs at distance <= t hold a perfect matching, found
    # by binary search over the distinct distances
    disp = cdist(grid, points)
    ts = np.unique(disp)
    lo, hi = 0, ts.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(csr_matrix(disp <= ts[mid]),
                                           perm_type="column")
        if np.all(match >= 0):
            hi = mid
        else:
            lo = mid + 1
    return ts[lo]


def test_transport_bracket_holds_exact_bottleneck():
    tilted = GroundTruthModel((0, 0), (1, 1),
                              [((0, 0), (0.3, 1), 2.0), ((0.3, 0), (1, 1), 4 / 7)],
                              [((0, 0), (1, 1), 1.0)], name="tilted")
    cases = ([(uniform_box(1), n) for n in (16, 37, 200)]
             + [(uniform_box(2), n) for n in (16, 50, 64, 97, 150, 200)]
             + [(tilted, n) for n in (23, 81, 140)]
             + [(uniform_box(3), n) for n in (27, 30, 64, 125, 199)])
    for k, (model, n) in enumerate(cases):
        cloud = sample(model, n, (71, k))
        lower, upper = mx.transport_bracket(cloud, model)
        exact = bottleneck_oracle(mx.quadrature_points(model, n), cloud.points)
        assert lower == exact == upper, (model.name, n, lower, exact, upper)


def test_transport_self_match_is_zero():
    model = uniform_square()
    q = mx.quadrature_points(model, 49)
    assert mx.transport_bracket(SimpleNamespace(points=q), model) == (0.0, 0.0)


def test_transport_single_point():
    model = uniform_square()
    z = np.array([[0.1, 0.9]])
    lower, upper = mx.transport_bracket(z, model)
    expect = float(np.linalg.norm(z[0] - mx.quadrature_points(model, 1)[0]))
    assert lower == pytest.approx(expect)
    assert upper == pytest.approx(expect)


def test_transport_over_budget_upper_is_diameter(monkeypatch):
    model = uniform_square()
    monkeypatch.setattr(mx, "ASSIGNMENT_BUDGET", 100)
    for n in (100, 101):
        cloud = sample(model, n, (57, n))
        lower, upper = mx.transport_bracket(cloud, model)
        grid = mx.quadrature_points(model, n)
        if n == 100:
            assert lower == bottleneck_oracle(grid, cloud.points) == upper
        else:
            disp = cdist(grid, cloud.points)
            assert lower == max(disp.min(axis=0).max(), disp.min(axis=1).max())
            assert upper == np.sqrt(2.0)


def test_transport_identical_points_at_a_corner():
    # every grid point must travel to the corner, so the farthest one sets d_inf
    model = uniform_square()
    lower, upper = mx.transport_bracket(np.zeros((50, 2)), model)
    expect = np.linalg.norm(mx.quadrature_points(model, 50), axis=1).max()
    assert lower == upper == pytest.approx(expect, rel=1e-15)


def test_transport_rejects_a_cloud_of_another_dimension():
    with pytest.raises(ValidationError, match="d = 3"):
        mx.transport_bracket(sample(uniform_box(3), 50, 58), uniform_square())


@pytest.mark.parametrize("n", [100, 101])
def test_transport_rejects_a_cloud_outside_the_domain(monkeypatch, n):
    # the diameter bounds d_inf only for a cloud inside the domain
    monkeypatch.setattr(mx, "ASSIGNMENT_BUDGET", 100)
    cloud = sample(uniform_square(), n, (57, n)).points + 5.0
    with pytest.raises(ValidationError, match="outside the domain"):
        mx.transport_bracket(cloud, uniform_square())


def test_transport_sup_decay_trend():
    # both ends ~ log(n)^{3/4} / sqrt(n) for uniform clouds in d = 2
    model = uniform_square()
    ratios = []
    for n in (256, 1024, 4096):
        cloud = sample(model, n, (55, n))
        bracket = mx.transport_bracket(cloud, model)
        ratios.append(np.array(bracket) / (np.log(n) ** 0.75 / np.sqrt(n)))
    ratios = np.array(ratios)
    assert np.all(ratios.max(axis=0) / ratios.min(axis=0) < 4.0)


# ---------------------------------------------------------------- concentration

def test_concentration_zero_for_exact_mu_labels():
    model = quadrant_model()
    pts = sample(model, 400, 61).points
    fake = SimpleNamespace(points=pts, labels=model.mu_at(pts))
    assert mx.concentration_diagnostic(fake, model, 0.2) == 0.0


def test_concentration_single_tent_reduction():
    model = quadrant_model()
    pts = np.zeros((8, 2))
    y = np.array([1.0, 0, 1, 0, 0, 0, 1, 0])
    fake = SimpleNamespace(points=pts, labels=y)
    expect = abs(np.mean(model.mu_at(pts) - y))
    assert mx.concentration_diagnostic(fake, model, 0.5) == pytest.approx(
        expect, abs=1e-14)


def test_concentration_reads_points_given_as_a_list_of_rows():
    model = quadrant_model()
    cloud = sample(model, 6, 3)
    rows = SimpleNamespace(points=cloud.points.tolist(), labels=cloud.labels)
    assert mx.concentration_diagnostic(rows, model, 0.5) == mx.concentration_diagnostic(
        cloud, model, 0.5) == 0.29470360023728376


def tent_keys_oracle(points, lo, eps):
    # each point's 2^d tent nodes, corners in binary order, numbered by np.unique
    d = points.shape[1]
    base = np.floor((points - lo) / (eps / 2.0)).astype(np.int64)
    offs = np.array(list(itertools.product((0, 1), repeat=d)))
    nodes, keys = np.unique((base[:, None, :] + offs).reshape(-1, d), axis=0,
                            return_inverse=True)
    return keys.reshape(len(points), 2 ** d), len(nodes)


def test_concentration_partition_of_unity():
    model = quadrant_model()
    pts = sample(model, 500, 62).points
    for eps in (0.07, 0.3, 1.7):
        keys, weights, n_nodes = mx._tent_partition(pts, model.lo, eps)
        assert np.all(weights >= 0)
        assert np.all(keys >= 0) and np.all(keys < n_nodes)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-10
        want_keys, want_nodes = tent_keys_oracle(pts, model.lo, eps)
        assert n_nodes == want_nodes and np.array_equal(keys, want_keys)


@pytest.mark.parametrize("d, eps", [(2, 1e-5), (3, 1e-7)])
def test_concentration_nodes_scale_with_the_cloud(d, eps):
    # at these eps no two of the points share a tent, so nothing cancels
    box = ((0,) * d, (1,) * d)
    model = GroundTruthModel(*box, [box + (1.0,)], [box + (0.3,)], name="noisy%d" % d)
    cloud = sample(model, 200, (64, d))
    keys, _, n_nodes = mx._tent_partition(cloud.points, model.lo, eps)
    assert 0 < n_nodes <= 2 ** d * 200
    want_keys, want_nodes = tent_keys_oracle(cloud.points, model.lo, eps)
    assert n_nodes == want_nodes and np.array_equal(keys, want_keys)
    assert np.unique(keys).size == keys.size
    expect = np.mean(np.abs(model.mu_at(cloud.points) - cloud.labels))
    assert mx.concentration_diagnostic(cloud, model, eps) == pytest.approx(expect, rel=1e-12)


def test_concentration_decreases_with_n():
    model = quadrant_model()
    vals = [mx.concentration_diagnostic(sample(model, n, (63, n)), model,
                                        n ** (-1 / 3))
            for n in (1000, 10000)]
    assert vals[1] < vals[0]


def test_concentration_requires_positive_eps():
    model = quadrant_model()
    with pytest.raises(ValidationError):
        mx.concentration_diagnostic(sample(model, 100, 1), model, 0.0)


@pytest.mark.parametrize("eps", [np.inf, np.nan, -1.0])
def test_concentration_requires_finite_eps(eps):
    model = quadrant_model()
    with pytest.raises(ValidationError, match="eps must be positive and finite"):
        mx.concentration_diagnostic(sample(model, 200, 1), model, eps)


# ---------------------------------------------------------------- continuum TV

def interface_measure(model, interface):
    """Reference rho^2-weighted measure of a hand-written flat interface.

    d = 1: an array of jump points, each contributing rho(x)^2. d = 2:
    segments shaped (k, 2, 2), each contributing its length times rho^2
    there. d = 3: triangles shaped (k, 3, 3), area weighted the same way.
    Every piece must lie within one density cell.
    """
    arr = np.asarray(interface, dtype=float)
    if arr.size == 0:
        return 0.0
    if model.d == 1:
        return float(np.sum(model.rho_at(arr.reshape(-1, 1)) ** 2))
    assert arr.shape[1:] == (model.d, model.d)
    rho = [model.rho_at(arr[:, v]) for v in range(model.d)]
    assert all(np.array_equal(r, rho[0]) for r in rho)
    if model.d == 2:
        measure = np.linalg.norm(arr[:, 1] - arr[:, 0], axis=1)
    else:
        measure = 0.5 * np.linalg.norm(
            np.cross(arr[:, 1] - arr[:, 0], arr[:, 2] - arr[:, 0]), axis=1)
    return float(np.sum(measure * rho[0] ** 2))


def vertical_segment(x, y0=0.0, y1=1.0):
    return np.array([[[x, y0], [x, y1]]])


def halves_model(d, rho_cells=None, name="halves"):
    """mu = 0.2 on {x0 < 1/2} and 0.8 on the rest of the unit cube."""
    lo, hi, mid = (0,) * d, (1,) * d, (0.5,) + (1,) * (d - 1)
    return GroundTruthModel(lo, hi, rho_cells or [(lo, hi, 1.0)],
                            [(lo, mid, 0.2), ((0.5,) + (0,) * (d - 1), hi, 0.8)],
                            name=name)


def test_continuum_tv_unit_square():
    assert gt.bayes_tv(halves_model(2)) == pytest.approx(1.0)


def test_continuum_tv_rho_squared_weight():
    model = halves_model(2, [((0, 0), (0.4, 1), 0.75), ((0.4, 0), (0.6, 1), 2.0),
                             ((0.6, 0), (1, 1), 0.75)], name="slab")
    assert gt.bayes_tv(model) == pytest.approx(4.0)


def test_continuum_tv_empty_interface():
    assert gt.bayes_tv(uniform_square()) == 0.0


def test_continuum_tv_rejects_cell_crossing():
    # the density jumps where u_B does, on part of the interface only
    for rho_cells in ([((0, 0), (0.5, 1), 1.2), ((0.5, 0), (1, 1), 0.8)],
                      [((0, 0), (0.5, 0.5), 1.2), ((0.5, 0), (1, 0.5), 0.8),
                       ((0, 0.5), (1, 1), 1.0)]):
        with pytest.raises(ValidationError, match="density jumps"):
            gt.bayes_tv(halves_model(2, rho_cells, name="split"))


def test_continuum_tv_d1_jumps():
    model = GroundTruthModel((0,), (2,),
                             [((0,), (1,), 0.4), ((1,), (2,), 0.6)],
                             [((0,), (0.5,), 0.3), ((0.5,), (1.5,), 0.7),
                              ((1.5,), (2,), 0.1)], name="line")
    assert gt.bayes_tv(model) == pytest.approx(0.4 ** 2 + 0.6 ** 2)
    assert gt.bayes_tv(model) == pytest.approx(interface_measure(model, [0.5, 1.5]))


def test_continuum_tv_d3_triangle():
    square = np.array([[[0.5, 0, 0], [0.5, 1, 0], [0.5, 0, 1]],
                       [[0.5, 1, 1], [0.5, 1, 0], [0.5, 0, 1]]], dtype=float)
    model = halves_model(3, name="cube3")
    assert gt.bayes_tv(model) == pytest.approx(0.5 + 0.5)
    assert gt.bayes_tv(model) == pytest.approx(interface_measure(model, square))


@pytest.mark.parametrize("model, interface", [
    (quadrant_model(), [[[0.5, 0], [0.5, 1]], [[0, 0.5], [1, 0.5]]]),
    (asymmetric_model(), [[[0.6, 0], [0.6, 1]]]),
    (halfplane_model(), vertical_segment(0.5)),
    (noisy_halfplane_model(), vertical_segment(0.5)),
], ids=["quadrant", "asymmetric", "halfplane", "noisy-halfplane"])
def test_bayes_tv_matches_segment_oracle(model, interface):
    assert gt.bayes_tv(model) == pytest.approx(interface_measure(model, interface),
                                               rel=1e-12)


@st.composite
def lattice_partition(draw, lo, hi, depth):
    """Boxes (lo, hi) in integer lattice units, cut in two along lattice
    lines recursively."""
    j = draw(st.integers(0, 1))
    if depth == 0 or hi[j] - lo[j] < 2 or draw(st.integers(0, 3)) == 0:
        return [(lo, hi)]
    cut = draw(st.integers(lo[j] + 1, hi[j] - 1))
    left_hi = hi[:j] + (cut,) + hi[j + 1:]
    right_lo = lo[:j] + (cut,) + lo[j + 1:]
    return (draw(lattice_partition(lo, left_hi, depth - 1))
            + draw(lattice_partition(right_lo, hi, depth - 1)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(2, 9))
def test_bayes_tv_matches_lattice_count(data, k):
    # every face lies on a line of the k x k lattice, so summing 1/k * rho^2
    # over opposite-class neighbouring lattice cells is exact
    dens = data.draw(lattice_partition((0, 0), (k, k), 2))
    w = [data.draw(st.sampled_from((1.0, 2.0))) for _ in dens]
    mass = sum(wi * (h[0] - l[0]) * (h[1] - l[1]) / k ** 2 for wi, (l, h) in zip(w, dens))
    mu = data.draw(lattice_partition((0, 0), (k, k), 4))
    model = GroundTruthModel(
        (0, 0), (1, 1),
        [(np.divide(l, k), np.divide(h, k), wi / mass) for wi, (l, h) in zip(w, dens)],
        # classes alternate in cut order unless a drawn flip says otherwise
        [(np.divide(l, k), np.divide(h, k), (0.2, 0.7)[(i + data.draw(st.booleans())) % 2])
         for i, (l, h) in enumerate(mu)])
    centers = (np.arange(k) + 0.5) / k
    grid = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1).reshape(-1, 2)
    cls = bayes_classify(model, grid).reshape(k, k)
    rho = model.rho_at(grid).reshape(k, k)
    count, jump = 0.0, False
    for c, r in ((cls, rho), (cls.T, rho.T)):
        face = c[:-1] != c[1:]
        jump |= bool(np.any(face & (r[:-1] != r[1:])))
        count += float(np.sum(r[:-1][face] ** 2)) / k
    if jump:
        with pytest.raises(ValidationError):
            gt.bayes_tv(model)
    else:
        assert gt.bayes_tv(model) == pytest.approx(count, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- gamma check

def test_gamma_check_constant_bayes_classifier():
    model = GroundTruthModel((0, 0), (1, 1), [((0, 0), (1, 1), 1.0)],
                             [((0, 0), (1, 1), 0.9)], name="const")
    rows = mx.gamma_check(model, KernelProfile("indicator"),
                          [200, 400], lambda n: n ** -0.25, 71)
    for r in rows:
        assert r["gtv"] == 0.0 and r["target"] == 0.0 and r["rel_err"] == 0.0


def test_gamma_check_error_shrinks():
    model = halfplane_model()
    rows = mx.gamma_check(model, KernelProfile("indicator"),
                          [400, 1600, 6400], lambda n: n ** -0.25, 73)
    assert rows[0]["target"] == pytest.approx(4 / 3)
    errs = [r["abs_err"] for r in rows]
    assert errs[2] < errs[0]


# ---------------------------------------------------------------- point arrays

def split_box(d):
    # uniform density on [0, 1]^d, mu = 0.2 on {x0 < 1/2} and 0.8 on the rest
    lo, hi = (0.0,) * d, (1.0,) * d
    return GroundTruthModel(lo, hi, [(lo, hi, 1.0)],
                            [(lo, (0.5,) + hi[1:], 0.2), ((0.5,) + lo[1:], hi, 0.8)],
                            name="split%d" % d)


def reference(model, n):
    # a classifier over n points of the model, its reference cloud
    return mx.VoronoiClassifier(sample(model, n, 92).points, np.ones(n))


# every public entry that takes an (n, d) point array, as a call on x and a
# d-dimensional model; True marks the ones that also hold x to the model's d
# (or the reference cloud's), the others take points of any d
POINT_TAKERS = {
    "rho_at": (True, lambda model, x: model.rho_at(x)),
    "mu_at": (True, lambda model, x: model.mu_at(x)),
    "bayes_classify": (True, bayes_classify),
    "VoronoiClassifier.__call__": (True, lambda model, x: reference(model, 5)(x)),
    "VoronoiClassifier.nearest": (True, lambda model, x: reference(model, 5).nearest(x)),
    "tl1_exact": (True, lambda model, x: mx.tl1_exact(
        x, np.zeros(len(x)), reference(model, len(x)).points, np.zeros(len(x)))),
    "transport_bracket": (True, lambda model, x: mx.transport_bracket(x, model)),
    "concentration_diagnostic": (True, lambda model, x: mx.concentration_diagnostic(
        SimpleNamespace(points=x, labels=np.zeros(len(x))), model, 0.3)),
    "build": (False, lambda model, x: build(x, 0.3, KernelProfile("indicator"))),
    "LabeledCloud": (False, lambda model, x: LabeledCloud(x, np.zeros(len(x)))),
    "voronoi_extend": (False, lambda model, x: mx.voronoi_extend(
        SimpleNamespace(points=x), np.zeros(len(x)))),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(POINT_TAKERS))
def test_point_arrays_are_n_by_d(name, d):
    # in d = 1 a 1-D array of n coordinates is not n points either: it is
    # refused, not read as one point or as a column
    checks_d, call = POINT_TAKERS[name]
    model = split_box(d)
    x = sample(model, 6, (90, d)).points
    call(model, x)
    bad = [x[:, 0], x[None]]
    if checks_d:
        bad += [np.hstack([x, x])] + ([x[:, :1]] if d > 1 else [])
    # coordinates are ints or floats: a bool or string array, a bool inside a
    # list of floats and rows of different lengths are refused
    rows = x.tolist()
    bad += [x > 0.5, x.astype(str), rows[:-1] + [[True] + rows[-1][1:]],
            rows[:-1] + [rows[-1] * 2]]
    for b in bad:
        with pytest.raises(ValidationError):
            call(model, b)
    # every entry refuses a NaN or infinite coordinate and says so
    for v in (np.nan, np.inf, -np.inf):
        b = x.copy()
        b[2, d - 1] = v
        with pytest.raises(ValidationError, match="finite"):
            call(model, b)



# ---------------------------------------------------------------- label arrays

def graph_on(x):
    return build(x, 0.5, KernelProfile("indicator"))


def solution_taker(*argv):
    # the CLI with y stored as a solve JSON's u_binary; its exit code 2 is a
    # ValidationError raised again here, so that every taker reads alike
    def call(x, y, tmp_path):
        gt.save_cloud(LabeledCloud(x, np.zeros(len(x), dtype=int)), tmp_path / "d.csv")
        u_binary = y.tolist() if isinstance(y, (np.ndarray, np.generic)) else y
        (tmp_path / "s.json").write_text(json.dumps({"u_binary": u_binary}))
        code = main(["--out-dir", str(tmp_path), *argv, "--data", str(tmp_path / "d.csv"),
                     "--solution", str(tmp_path / "s.json")])
        if code == 2:
            raise ValidationError("exit code 2")
        assert code == 0
    return call


def predicting(y):
    # a classifier whose predictions at the 102 fresh points of m = 102 are
    # the 6 values y, 17 times over; a list is repeated as a list, so that
    # ragged rows stay ragged
    return lambda q: y * 17 if isinstance(y, list) else np.tile(y, 17)


# every public entry that takes one binary value per point, as a call on
# (n, 2) points x, the values y and a scratch directory; a classifier's
# predictions at fresh points are binary values too
LABEL_TAKERS = {
    "LabeledCloud": lambda x, y, tmp: LabeledCloud(x, y),
    "solve_brute_force": lambda x, y, tmp: solve_brute_force(graph_on(x), y, 0.1),
    "solve_mincut": lambda x, y, tmp: solve_mincut(graph_on(x), y, 0.1),
    "solve_primal_dual": lambda x, y, tmp: solve_primal_dual(
        graph_on(x), y, SolverConfig(0.1, max_iters=20)),
    "energy": lambda x, y, tmp: energy(graph_on(x), y, 0.1, np.full(len(x), 0.5)),
    "binarize": lambda x, y, tmp: binarize(graph_on(x), y, 0.1, np.linspace(0, 1, len(x))),
    "VoronoiClassifier": lambda x, y, tmp: mx.VoronoiClassifier(x, y),
    "empirical_risk": lambda x, y, tmp: mx.empirical_risk(np.ones(len(x)), y),
    "empirical_risk u": lambda x, y, tmp: mx.empirical_risk(y, np.ones(len(x))),
    "test_risk": lambda x, y, tmp: mx.test_risk(predicting(y), quadrant_model(), 102, 0),
    "bayes_agreement": lambda x, y, tmp: mx.bayes_agreement(
        predicting(y), quadrant_model(), 102, 0),
    "risk --solution": solution_taker("risk", "--model", "builtin:quadrant", "--test-m", "100"),
    "plot --solution": solution_taker("plot"),
}

# labels that are not one 0 or 1 per point, made from valid (n,) labels y
BAD_LABELS = {
    "scalar": lambda y: y[0],
    "column": lambda y: y[:, None],
    "one-more": lambda y: np.append(y, 0),
    "one-fewer": lambda y: y[:-1],
    "half": lambda y: np.where(np.arange(y.size) == 2, 0.5, y),
    "two": lambda y: np.where(np.arange(y.size) == 2, 2, y),
    "nan": lambda y: np.where(np.arange(y.size) == 2, np.nan, y),
    "string": lambda y: [*y[:-1].tolist(), "1"],
    "ragged": lambda y: [y[:-1].tolist(), y[-1:].tolist()],
}


def labeled_points():
    return sample(quadrant_model(), 6, 93).points, np.array([0, 1, 1, 0, 1, 0])


@pytest.mark.parametrize("name", sorted(LABEL_TAKERS))
def test_labels_given_as_int_float_or_bool_are_taken(name, tmp_path):
    x, y = labeled_points()
    for labels in (y, y.astype(float), y.astype(bool)):
        LABEL_TAKERS[name](x, labels, tmp_path)


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
@pytest.mark.parametrize("name", sorted(LABEL_TAKERS))
def test_labels_must_be_one_0_or_1_per_point(name, case, tmp_path):
    x, y = labeled_points()
    with pytest.raises(ValidationError):
        LABEL_TAKERS[name](x, BAD_LABELS[case](y), tmp_path)


# ---------------------------------------------------------------- node values

# every public entry that takes one real value per node, as a call on (n, 2)
# points x and the values u; concentration_diagnostic's labels are soft, mu(x)
# in its tests
VALUE_TAKERS = {
    "gtv": lambda x, u: gtv(graph_on(x), u),
    "energy": lambda x, u: energy(graph_on(x), np.zeros(len(x)), 0.1, u),
    "binarize": lambda x, u: binarize(graph_on(x), np.zeros(len(x)), 0.1, u),
    "tl1_exact f_a": lambda x, u: mx.tl1_exact(x, u, x, np.zeros(len(x))),
    "tl1_exact f_b": lambda x, u: mx.tl1_exact(x, np.zeros(len(x)), x, u),
    "concentration_diagnostic": lambda x, u: mx.concentration_diagnostic(
        SimpleNamespace(points=x, labels=u), quadrant_model(), 0.3),
}

# values that are not one finite number per node, made from valid (n,) floats u
BAD_VALUES = {
    "scalar": lambda u: u[0],
    "column": lambda u: u[:, None],
    "one-more": lambda u: np.append(u, 0.5),
    "one-fewer": lambda u: u[:-1],
    "nan": lambda u: np.where(np.arange(u.size) == 2, np.nan, u),
    "inf": lambda u: np.where(np.arange(u.size) == 2, np.inf, u),
    "-inf": lambda u: np.where(np.arange(u.size) == 2, -np.inf, u),
    "bool": lambda u: u > 0.5,
    "string": lambda u: u.astype(str),
    "bool in a list": lambda u: [True, *u[1:].tolist()],
}


@pytest.mark.parametrize("name", sorted(VALUE_TAKERS))
def test_values_given_as_int_or_float_are_taken(name):
    x, y = labeled_points()
    call = VALUE_TAKERS[name]
    for u in (y, y.astype(np.int32), np.linspace(0, 1, len(x)), np.linspace(0, 1, len(x)).tolist()):
        call(x, u)
    # an int array is read as the floats it holds
    def read(r):
        return (r.cost, r.sup_displacement) if hasattr(r, "cost") else np.asarray(r).tolist()
    assert read(call(x, y)) == read(call(x, y.astype(float)))


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
@pytest.mark.parametrize("name", sorted(VALUE_TAKERS))
def test_values_must_be_one_finite_number_per_node(name, case):
    x = labeled_points()[0]
    u = np.linspace(0, 1, len(x))
    with pytest.raises(ValidationError, match="finite" if "inf" in case or case == "nan"
                       else None):
        VALUE_TAKERS[name](x, BAD_VALUES[case](u))


# ---------------------------------------------------------------- numbers

def cli_taker(make_argv):
    # the CLI on make_argv(value, tmp_path), a numpy scalar given as the
    # Python number it holds; exit code 2, from argparse or the command, is a
    # ValidationError raised again here, and a value taken reads back as None
    def call(value, tmp_path):
        value = value.item() if isinstance(value, np.generic) else value
        try:
            code = main(["--out-dir", str(tmp_path), *make_argv(value, tmp_path)])
        except SystemExit as exc:
            code = exc.code
        if code == 2:
            raise ValidationError("exit code 2")
        assert code == 0
    return call


def solve_flag(flag):
    # the flag spelled as JSON, so that True is true and the string "1" keeps its quotes
    def argv(value, tmp_path):
        gt.save_cloud(LabeledCloud(*labeled_points()), tmp_path / "d.csv")
        flags = {"--eps": 0.5, "--lambda": 0.1, flag: value}
        return ["solve", "--data", str(tmp_path / "d.csv"),
                *("%s=%s" % (f, json.dumps(v)) for f, v in flags.items())]
    return cli_taker(argv)


def sweep_key(overrides):
    def argv(value, tmp_path):
        cfg = {"model": "builtin:quadrant", "n_list": [20], "eps_rule": {"c": 0.7, "a": 0.5},
               "lambda_rule": {"regime": "fixed", "c": 0.01}, "seeds": [0], "test_m": 100,
               **overrides(value)}
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        return ["sweep", "--config", str(tmp_path / "sweep.json")]
    return cli_taker(argv)


def model_value(value, tmp_path):
    model = {"domain": {"lo": [0, 0], "hi": [1, 1]},
             "density_cells": [{"lo": [0, 0], "hi": [1, 1], "value": 1}],
             "mu_cells": [{"lo": [0, 0], "hi": [1, 1], "value": value}]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    return ["gen", "--model", str(tmp_path / "model.json"), "--n", "5", "--out", "y.csv"]


def unread(f):
    # a taker whose number is not read back
    def call(value, tmp_path):
        f(value)
    return call


def number_graph():
    x, y = labeled_points()
    return graph_on(x), y


# every public entry that takes one number, as a call on the number and a
# scratch directory that returns the number as taken, or None where it is not
# read back, with the number's rule: an int is the least integer taken
NUMBER_TAKERS = {
    "SolverConfig lambda": (lambda v, tmp: SolverConfig(v).lambda_, "positive"),
    "SolverConfig tol": (lambda v, tmp: SolverConfig(0.1, tol=v).tol, "in (0, 1)"),
    "SolverConfig max_iters": (lambda v, tmp: SolverConfig(0.1, max_iters=v).max_iters, 0),
    "build eps": (lambda v, tmp: build(labeled_points()[0], v, KernelProfile("indicator")).eps,
                  "positive"),
    "concentration_diagnostic eps": (unread(lambda v: mx.concentration_diagnostic(
        sample(quadrant_model(), 50, 1), quadrant_model(), v)), "positive"),
    "solve_brute_force": (unread(lambda v: solve_brute_force(*number_graph(), v)), "positive"),
    "solve_mincut": (unread(lambda v: solve_mincut(*number_graph(), v)), "positive"),
    "solve_primal_dual": (unread(lambda v: solve_primal_dual(
        *number_graph(), SolverConfig(v, max_iters=20))), "positive"),
    "certify_overfit": (unread(lambda v: certify_overfit(number_graph()[0], v)), "positive"),
    "energy": (unread(lambda v: energy(*number_graph(), v, np.full(6, 0.5))), "positive"),
    "binarize": (unread(lambda v: binarize(*number_graph(), v, np.linspace(0, 1, 6))),
                 "positive"),
    "surface_tension d": (unread(lambda v: surface_tension(KernelProfile("indicator"), v)), 1),
    "kernels.eval r": (unread(lambda v: kernels.eval(KernelProfile("exp"), v)), "nonnegative"),
    "sample n": (lambda v, tmp: sample(quadrant_model(), v, 0).n, 1),
    "quadrature_points n": (lambda v, tmp: len(mx.quadrature_points(quadrant_model(), v)), 1),
    "gamma_check n_list": (lambda v, tmp: mx.gamma_check(
        quadrant_model(), KernelProfile("indicator"), [v], lambda n: 0.5, 0)[0]["n"], 1),
    "test_risk m": (unread(lambda v: mx.test_risk(mx.VoronoiClassifier(*labeled_points()),
                                                  quadrant_model(), v, 0)), 100),
    "solve --lambda": (solve_flag("--lambda"), "positive"),
    "sweep test_m": (sweep_key(lambda v: {"test_m": v}), 100),
    "sweep n_list": (sweep_key(lambda v: {"n_list": [v]}), 1),
    "sweep seeds": (sweep_key(lambda v: {"seeds": [v]}), 0),
    "sweep eps_rule.c": (sweep_key(lambda v: {"eps_rule": {"c": v, "a": 0.5}}), "positive"),
    "model value": (cli_taker(model_value), "finite"),
}

# the primal-dual method's flags, which solve no longer has: refused whatever their
# value, under the rule each took while solve could run primal-dual
RETIRED_FLAGS = {
    "solve --tol": (solve_flag("--tol"), "in (0, 1)"),
    "solve --max-iters": (solve_flag("--max-iters"), 0),
}

# the values each rule takes; a rule's integers take no float, and (0, 1) no int
TAKEN = {"positive": [2, 0.5, np.int64(2), np.float64(0.5)],
         "in (0, 1)": [0.5, np.float64(0.25)],
         "finite": [1, 0.25, np.int64(1), np.float64(0.25)],
         "nonnegative": [0, 0.5, np.int64(0), np.float64(0.5)]}


def refused(rule):
    # a bool or a string is never a number, under any rule
    cases = {"bool": True, "string": "1", "none": None, "nan": np.nan, "inf": np.inf,
             "-inf": -np.inf}
    if isinstance(rule, int):
        return {**cases, "below": rule - 1, "fraction": 2.5}
    edges = {"positive": {"zero": 0}, "in (0, 1)": {"zero": 0, "one": 1}, "finite": {},
             "nonnegative": {"negative": -0.5, "string": "0.5"}}
    return {**cases, **edges[rule]}


@pytest.mark.parametrize("name", sorted(NUMBER_TAKERS))
def test_numbers_given_as_int_float_or_numpy_are_taken(name, tmp_path):
    call, rule = NUMBER_TAKERS[name]
    for value in [rule, np.int64(rule + 2)] if isinstance(rule, int) else TAKEN[rule]:
        taken = call(value, tmp_path)
        assert taken is None or (taken == value
                                 and type(taken) is (int if isinstance(rule, int) else float))


@pytest.mark.parametrize("name, case", [(name, case)
                                        for name, (_, rule) in sorted(
                                            {**NUMBER_TAKERS, **RETIRED_FLAGS}.items())
                                        for case in refused(rule)])
def test_numbers_must_be_int_or_float_in_range(name, case, tmp_path):
    call, rule = {**NUMBER_TAKERS, **RETIRED_FLAGS}[name]
    with pytest.raises(ValidationError):
        call(refused(rule)[case], tmp_path)
