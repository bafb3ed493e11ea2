"""Risk evaluation, TL1 transport distances, and the continuum comparison.

Covers the empirical side (misclassification rates, Voronoi/1-NN extension of
node labelings to the whole domain by one k = 1 k-d tree query, and three
Monte-Carlo estimators on that extension: test risk with a binomial CI, Bayes
agreement, and a 1-NN transport proxy for the distance to the Bayes
classifier that maps each draw to the point the extension picks) and the
transport side (exact TL1 between two equal-size point sets via an
assignment solver, the infinity-transport distance to a quadrature grid,
exact by a threshold max-flow search up to ASSIGNMENT_BUDGET points). The
discrete-vs-continuum comparison table sets the graph TV of the Bayes
labeling against its continuum limit sigma_eta * TV_rho^2(u_B), which
groundtruth.bayes_tv sums from the model's cells.
"""

from bisect import bisect_left

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import (ValidationError, _numbers, check_int, check_labels, check_number, check_points,
               check_values)
from .graph import build, gtv
from .groundtruth import bayes_classify, bayes_tv, sample
from .kernels import surface_tension

# the largest n at which tl1_exact solves its O(n^3) assignment and
# transport_bracket runs its threshold max-flow search; beyond it, tl1_exact
# refuses and transport_bracket's upper end is the domain's diameter
ASSIGNMENT_BUDGET = 4096


def empirical_risk(u, labels):
    """The fraction of points where the labeling u and the labels disagree;
    each is one 0 or 1 per point."""
    u = _numbers(u, "labels", bools=True)
    u = check_labels(u, u.size)
    return float(np.mean(np.abs(u - check_labels(labels, u.size))))


class VoronoiClassifier:
    """1-NN extension of binary node values to the whole domain.

    Built from (n, d) reference points and one value per point; queries are
    (m, d) arrays with the same d, and a prediction is an (m,) array. The
    prediction at x is the value of an exact nearest reference point,
    found by one k = 1 k-d tree query. Among exact ties, which have measure
    zero for sampled points, it is the point the tree returns, which is
    deterministic for a given listing of the cloud.
    """

    def __init__(self, points, values):
        points = check_points(points)
        if points.shape[0] == 0:
            raise ValidationError("reference cloud must be nonempty")
        self.points = points
        self.values = check_labels(values, points.shape[0])
        self._tree = cKDTree(points)

    def nearest(self, x):
        """(distance, index) of the nearest reference point to each row of x."""
        x = check_points(x, self.points.shape[1], "queries of the reference cloud")
        return self._tree.query(x, k=1)

    def __call__(self, x):
        return self.values[self.nearest(x)[1]]


def voronoi_extend(cloud, u):
    return VoronoiClassifier(cloud.points, u)


def _fresh(model, m, seed):
    # the m fresh labeled samples that each Monte-Carlo estimator draws
    return sample(model, check_int(m, "m", 100), seed)


def test_risk(classifier, model, m, seed):
    """Monte-Carlo risk of a classifier under the model, with a 95% CI.

    Draws m fresh labeled samples and returns (mean |c(x) - y|, halfwidth of
    the plug-in binomial confidence interval). Unbiased for the true risk.
    """
    fresh = _fresh(model, m, seed)
    pred = check_labels(classifier(fresh.points), fresh.n)
    p = float(np.mean(np.abs(pred - fresh.labels)))
    return p, float(1.96 * np.sqrt(p * (1.0 - p) / m))


def bayes_agreement(classifier, model, m, seed):
    """Fraction of m fresh samples where classifier(x) matches the Bayes rule.

    For binary classifiers 1 - agreement is the L1(nu) distance to the Bayes
    classifier, estimated by Monte-Carlo.
    """
    fresh = _fresh(model, m, seed)
    pred = check_labels(classifier(fresh.points), fresh.n)
    return float(np.mean(pred == bayes_classify(model, fresh.points)))


def tl1_exact(points_a, f_a, points_b, f_b):
    """Exact TL1 distance between two equal-size discrete functions, given
    as (n, d) point arrays and (n,) values.

    Minimizes (1/n) sum_i |x_i - z_s(i)| + |f(x_i) - g(z_s(i))| over
    assignments s, solved by an exact augmenting-path assignment algorithm.
    For uniform empirical measures of equal size an optimal coupling may be
    taken as a permutation, so this is the genuine TL1 distance between the
    two elements. Unequal sizes (general couplings) are out of scope.
    Returns (cost, sup_displacement): the distance and the longest move
    |x_i - z_s(i)| of the optimal assignment.
    """
    xa = check_points(points_a, what="first point set")
    xb = check_points(points_b, xa.shape[1], "second point set")
    if xa.shape[0] != xb.shape[0]:
        raise ValidationError("equal point counts required; unequal sizes are out of scope")
    if xa.shape[0] == 0:
        raise ValidationError("empty point sets")
    n = xa.shape[0]
    fa, fb = check_values(f_a, n), check_values(f_b, n)
    if n > ASSIGNMENT_BUDGET:
        raise ValidationError("assignment budget is n <= %d" % ASSIGNMENT_BUDGET)
    # imported here: scipy.optimize costs every process about 9 MB, and only TL1 needs it
    from scipy.optimize import linear_sum_assignment
    disp = cdist(xa, xb)
    cost_mat = disp + np.abs(fa[:, None] - fb[None, :])
    rows, cols = linear_sum_assignment(cost_mat)
    return float(cost_mat[rows, cols].sum() / n), float(disp[rows, cols].max())


def tl1_proxy_1nn(classifier, model, m, seed):
    """1-NN transport proxy for the TL1 distance to the Bayes classifier.

    Draws m fresh samples z_k, maps each to its nearest cloud point T(z_k)
    by the classifier's own nearest(), so T(z_k) is the point whose value
    classifier(z_k) returns, and averages |z_k - T(z_k)| + |u(T(z_k)) -
    c_B(z_k)|. Usable at any n; when every z_k lands exactly on a cloud point
    this reduces to the plain L1 mismatch of values.
    """
    fresh = _fresh(model, m, seed)
    dist, idx = classifier.nearest(fresh.points)
    vals = np.abs(classifier.values[idx] - bayes_classify(model, fresh.points))
    return float(np.mean(dist + vals))


def _cell_grid(lo, hi, k):
    # k centers of the smallest r^d lattice holding k points, spread evenly in lex order
    d = lo.size
    r = int(np.ceil(k ** (1.0 / d)))
    while r > 1 and (r - 1) ** d >= k:
        r -= 1
    axes = [lo[j] + (hi[j] - lo[j]) * (np.arange(r) + 0.5) / r for j in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return mesh[(2 * np.arange(k) + 1) * r ** d // (2 * k)]


def quadrature_points(model, n):
    """Deterministic n-point quadrature approximating the model density.

    Points are apportioned to density cells proportionally to cell mass
    (largest remainder), then laid out on a regular sub-lattice of cell
    centers within each cell.
    """
    n, rho = check_int(n, "n", 1), model.rho
    quota = n * rho.value * rho.volume
    base = np.floor(quota).astype(np.int64)
    short = int(n - base.sum())
    if short > 0:
        base[np.argsort(-(quota - base), kind="stable")[:short]] += 1
    parts = [_cell_grid(rho.lo[c], rho.hi[c], int(k))
             for c, k in enumerate(base) if k > 0]
    return np.concatenate(parts, axis=0)


def transport_bracket(cloud, model):
    """Bracket (lower, upper) on the infinity-transport distance between the
    cloud (a LabeledCloud or an (n, d) array with the model's d) and the
    model's n-point quadrature grid, n the cloud's size.

    lower is the larger of the two directed nearest-neighbour maxima, grid to
    cloud and cloud to grid: every bijection moves each point at least to its
    nearest point on the other side. It takes two k-d tree queries at any n.
    Up to ASSIGNMENT_BUDGET points both ends are the exact bottleneck value
    (Gabow and Tarjan, J. Algorithms 1988): the smallest grid-cloud distance
    t whose pairs within t hold a perfect matching, decided by a unit-capacity
    max-flow. t grows from lower by 1.25x until feasible, then bisects over
    the distinct pair distances. Above the budget upper is the domain's
    diameter. The cloud must lie in the model's domain.

    The grid only approximates the model's measure nu, so grid-to-cloud
    distances bound d_inf(nu, nu_n) only up to the grid's own distance to nu.
    """
    points = check_points(cloud.points if hasattr(cloud, "points") else cloud)
    model.rho_at(points)  # a ValidationError for another shape or outside the domain
    n = points.shape[0]
    if n == 0:
        raise ValidationError("empty cloud")
    grid = quadrature_points(model, n)
    gtree, ctree = cKDTree(grid), cKDTree(points)
    to_cloud, _ = ctree.query(grid)
    to_grid, _ = gtree.query(points)
    lower = float(max(to_cloud.max(), to_grid.max()))
    if n > ASSIGNMENT_BUDGET:
        return lower, float(np.linalg.norm(model.hi - model.lo))

    def perfect(p):
        # nodes: grid i, cloud n + j, source 2n, sink 2n + 1; flow n iff perfect
        src = np.concatenate([np.full(n, 2 * n), p["i"], n + np.arange(n)])
        dst = np.concatenate([np.arange(n), n + p["j"], np.full(n, 2 * n + 1)])
        net = csr_matrix((np.ones(src.size, dtype=np.int32), (src, dst)),
                         shape=(2 * n + 2,) * 2)
        return maximum_flow(net, 2 * n, 2 * n + 1).flow_value == n

    t = lower
    while not perfect(pairs := gtree.sparse_distance_matrix(
            ctree, t, output_type="ndarray")):
        t *= 1.25
    ts = np.unique(pairs["v"][pairs["v"] >= lower])
    exact = float(ts[bisect_left(ts, True, key=lambda s: perfect(pairs[pairs["v"] <= s]))])
    return exact, exact


def _tent_partition(points, lo, eps):
    """Tent partition of unity on the eps/2 grid, evaluated at the points.

    Returns (keys, weights, n_nodes): for each point, the indices of the 2^d
    grid nodes whose tents touch it and the tent values there. Only occupied
    nodes are numbered, so n_nodes <= 2^d n at any eps. Tents are products
    of 1-D hats of half-width eps/2, so each point's weights sum to 1 and the
    slopes scale like 1/eps.
    """
    n, d = points.shape
    h = eps / 2.0
    rel = (points - lo) / h
    base = np.floor(rel).astype(np.int64)
    frac = rel - base
    offs = (np.arange(2 ** d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    weights = np.empty((n, 2 ** d))
    for c in range(2 ** d):
        weights[:, c] = np.prod(np.where(offs[c] == 1, frac, 1.0 - frac), axis=1)
    # number the distinct node rows in lexicographic order: sort the rows,
    # then count the starts of runs of equal rows
    rows = (base[:, None, :] + offs).reshape(-1, d)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    start = np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)]
    keys = np.empty(rows.shape[0], dtype=np.intp)
    keys[order] = np.cumsum(start) - 1
    return keys.reshape(n, 2 ** d), weights, int(start.sum())


def concentration_diagnostic(cloud, model, eps):
    """Localized cancellation of label noise at scale eps.

    Evaluates sum_z |(1/n) sum_i (mu(x_i) - y_i) psi_z(x_i)| over a tent
    partition of unity {psi_z} on the eps/2 grid. Vanishes when labels equal
    mu(x) exactly and is expected to shrink like sqrt(log n / (n eps^d)) for
    genuinely random labels.
    """
    eps = check_number(eps, "eps", 0)
    x = check_points(cloud.points, model.d)
    resid = model.mu_at(x) - check_values(cloud.labels, len(x))
    keys, weights, n_nodes = _tent_partition(x, model.lo, eps)
    acc = np.zeros(n_nodes)
    np.add.at(acc, keys.ravel(), (resid[:, None] * weights).ravel())
    return float(np.abs(acc).sum() / resid.size)


def gamma_check(model, profile, eps_by_n, seed):
    """Discrete-vs-continuum comparison table for the graph functional.

    For each n of the mapping eps_by_n, ascending: sample a cloud from stream
    (seed, i), i the rank of n in the grid (so adding a smaller n redraws
    every larger one), restrict the Bayes classifier to it, and compare its
    graph total variation at eps_by_n[n] against the continuum target
    sigma_eta * TV_rho^2(u_B), summed from the model's cells by bayes_tv (a
    density jump across the Bayes interface is a ValidationError). Returns
    one row per n with the absolute and relative errors.
    """
    target = surface_tension(profile, model.d) * bayes_tv(model)
    rows = []
    grid = sorted((check_int(n, "n", 1), check_number(eps, "eps", 0))
                  for n, eps in eps_by_n.items())
    for i, (n, eps) in enumerate(grid):
        cloud = sample(model, n, (seed, i))
        val = gtv(build(cloud, eps, profile), bayes_classify(model, cloud.points))
        abs_err = abs(val - target)
        rows.append({
            "n": n, "eps": eps, "gtv": float(val), "target": float(target),
            "abs_err": float(abs_err),
            "rel_err": float(abs_err / target) if target > 0
            else (float("inf") if abs_err > 0 else 0.0),
        })
    return rows
