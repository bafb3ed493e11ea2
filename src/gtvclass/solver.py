"""Minimizers of the regularized empirical risk

    E(u) = lambda * gtv(u) + (1/n) sum_i |u_i - y_i|

over u in [0,1]^n. Both terms decompose over level sets (coarea), so a
binary global minimizer exists and is found exactly by a min s-t cut.
A first-order primal-dual iteration solves the relaxation with a duality
gap, and exhaustive enumeration serves as the small-instance oracle. The
overfitting certificate bounds the dual variables and, when it holds,
guarantees the labels themselves are the unique minimizer.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, maximum_flow,
                                  reverse_cuthill_mckee)

from . import ValidationError
from .graph import divergence, gtv


def _check_lambda(lam):
    # any other lambda gives false energies and certificates, not an error
    if not (0 < lam < np.inf):
        raise ValidationError("lambda must be positive and finite")
    return float(lam)


class SolverConfig:
    def __init__(self, lambda_, max_iters=20000, tol=1e-7):
        if not (tol > 0):
            raise ValidationError("tol must be positive")
        self.lambda_ = _check_lambda(lambda_)
        self.max_iters = int(max_iters)
        self.tol = float(tol)


class SolveResult:
    def __init__(self, u, u_binary, energy_relaxed, energy_binary, iters, gap,
                 method, converged=True):
        self.u = u
        self.u_binary = u_binary
        self.energy_relaxed = energy_relaxed
        self.energy_binary = energy_binary
        self.iters = iters
        self.gap = gap
        self.method = method
        self.converged = converged


def _check_labels(graph, labels):
    y = np.asarray(labels)
    if y.shape != (graph.n,):
        raise ValidationError("labels have wrong length")
    if not np.all(np.isin(y, (0, 1))):
        raise ValidationError("labels must be binary")
    return y.astype(float)


def energy(graph, labels, lam, u):
    u = np.asarray(u, dtype=float)
    y = np.asarray(labels, dtype=float)
    if u.shape != (graph.n,) or y.shape != (graph.n,):
        raise ValidationError("shape mismatch")
    return lam * gtv(graph, u) + float(np.abs(u - y).mean())


def solve_brute_force(graph, labels, lam):
    """Exhaustive minimum over u in {0,1}^n; ties broken by the
    lexicographically smallest u. Refused above n = 20."""
    y = _check_labels(graph, labels)
    lam = _check_lambda(lam)
    n = graph.n
    if n > 20:
        raise ValidationError("brute force refused for n > 20")
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)  # bit 0 of u is the high bit
    scale = 2.0 * lam / (n ** 2 * graph.eps)
    best_e, best_u = np.inf, None
    for lo in range(0, 1 << n, 1 << 16):
        hi = min(lo + (1 << 16), 1 << n)
        k = np.arange(lo, hi, dtype=np.int64)
        bits = ((k[:, None] >> shifts[None, :]) & 1).astype(float)
        e = np.abs(bits - y).mean(axis=1)
        if graph.m:
            e = e + scale * (np.abs(bits[:, graph.ei] - bits[:, graph.ej]) @ graph.w)
        j = int(np.argmin(e))
        if e[j] < best_e:
            best_e, best_u = float(e[j]), bits[j].copy()
    eb = energy(graph, labels, lam, best_u)
    return SolveResult(best_u.copy(), best_u, eb, eb, iters=1 << n, gap=0.0,
                       method="brute_force")


def solve_mincut(graph, labels, lam):
    """Exact binary minimizer via a min s-t cut.

    Terminal arcs carry capacity 1/n toward the node's own label; each
    undirected edge becomes two opposite arcs of capacity lambda*2*w/(n^2 eps),
    so a cut pays exactly the energy of the induced labeling. The flow solver
    works on int32 capacities: each float capacity c becomes rint(c * scale),
    scale = (2^31 - 1) / (largest capacity), and is off by at most 0.5/scale
    in energy units. The labeling returned is the set of nodes reachable from
    s in the residual of a maximum flow, the unique minimal source side of a
    minimum cut of the integer network; its energy is recomputed in floats.

    The network numbers the nodes in the reverse Cuthill-McKee order of the
    graph, which keeps neighbours close in memory and makes the flow solver
    faster. The labeling is mapped back to the graph's numbering; being the
    minimal source side, it does not depend on the node order.

    gap bounds energy_binary minus the true minimum (up to floating-point
    rounding of the energy sums). The integer cut returned is no dearer than
    the cut of a true minimizer, so their float energies differ by at most
    the rounding of the arcs the two cuts cross, 0.5/scale each: the cut
    returned crosses one terminal arc per node unequal to its label and one
    arc per edge it separates, a true minimizer's at most n + m arcs.
    """
    y = _check_labels(graph, labels)
    lam = _check_lambda(lam)
    n, m = graph.n, graph.m
    s, t = n, n + 1
    # perm lists the nodes in network order; rank[i] is node i's number there
    perm = reverse_cuthill_mckee(
        csr_matrix((np.ones(m, np.int8), (graph.ei, graph.ej)), shape=(n, n)),
        symmetric_mode=False)
    rank = np.empty(n, np.int32)
    rank[perm] = np.arange(n, dtype=np.int32)
    ri, rj = rank[graph.ei], rank[graph.ej]
    # one terminal arc per node, s -> i if y_i = 1 and i -> t if y_i = 0;
    # the other terminal arc has capacity 0 and is left out
    one = y == 1.0
    rows = np.concatenate([np.where(one, s, rank), ri, rj])
    cols = np.concatenate([np.where(one, rank, t), rj, ri])
    pair_cap = (2.0 * lam / (n ** 2 * graph.eps)) * graph.w
    caps = np.concatenate([np.full(n, 1.0 / n), pair_cap, pair_cap])
    del ri, rj, pair_cap
    # scipy's maximum_flow saturates silently past int32
    scale = (2.0 ** 31 - 1.0) / caps.max()
    cap = csr_matrix((np.rint(caps * scale).astype(np.int32), (rows, cols)),
                     shape=(n + 2, n + 2))
    del rows, cols, caps
    res = maximum_flow(cap, s, t)
    # arcs with residual capacity; cap - flow can overflow int32 where an
    # edge carries flow against its direction
    residual = cap > res.flow
    del cap, res
    reach = breadth_first_order(residual, s, directed=True, return_predecessors=False)
    del residual
    u = np.zeros(n)
    u[perm[reach[reach < n]]] = 1.0
    cut_arcs = np.count_nonzero(u != y) + np.count_nonzero(u[graph.ei] != u[graph.ej])
    gap = (cut_arcs + n + m) * 0.5 / scale
    eb = energy(graph, labels, lam, u)
    return SolveResult(u.copy(), u, eb, eb, iters=0, gap=gap, method="mincut")


def binarize(graph, labels, lam, u):
    """Best threshold binarization of u in [0,1]^n.

    Evaluates 1_{u > t} at every distinct value of u, at t = 1/2, and the
    all-ones labeling (the t below min(u) level set), and returns the lowest
    energy one; ties go to the lowest threshold. By the coarea decomposition
    the winner's energy never exceeds energy(u). Cost O((n + m) log n): all
    candidates are scored at once by prefix sums over threshold indices.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(labels, dtype=float)
    if u.shape != (graph.n,):
        raise ValidationError("node function has wrong length")
    thresholds = np.unique(np.concatenate([u, [0.5]]))
    k, n = thresholds.size, graph.n
    scale = 2.0 * lam / (n ** 2 * graph.eps)
    # candidate c = 0..k labels node i one iff c <= idx[i]: c = 0 is all-ones,
    # c = t + 1 the level set above thresholds[t]
    idx = np.searchsorted(thresholds, u)
    # mismatches: label-one nodes with idx < c, label-zero nodes with idx >= c
    miss = (n - y.sum()) + np.concatenate(
        [[0.0], np.cumsum(np.bincount(idx, weights=2.0 * y - 1.0, minlength=k))])
    # edge (i, j) is cut by candidates min(idx) + 1 .. max(idx)
    a, b = idx[graph.ei], idx[graph.ej]
    cut = np.cumsum(np.bincount(np.minimum(a, b) + 1, weights=graph.w, minlength=k + 1)
                    - np.bincount(np.maximum(a, b) + 1, weights=graph.w, minlength=k + 1))
    # constant labelings cut nothing; the prefix sum's +w/-w rounding residue
    # there could otherwise break the tie away from all-ones
    cut[:idx.min() + 1] = cut[idx.max() + 1:] = 0.0
    c = int(np.argmin(miss / n + scale * cut))
    return (idx >= c).astype(float)


def certify_overfit(graph, lam):
    """Dual bound s_i = (2 lambda/(eps n)) sum_j eta_eps(x_i - x_j), diagonal
    included. max s_i < 1 guarantees the unique minimizer is the labels."""
    s = (2.0 * _check_lambda(lam) / (graph.eps * graph.n)) * graph.degree_sums
    smax = float(s.max())
    return smax < 1.0, 1.0 - smax


def solve_primal_dual(graph, labels, config):
    """First-order primal-dual iteration on

        min_{u in [0,1]^n} max_{|p| <= 1} c <div(p), u> + (1/n) sum |u_i - y_i|

    with c = lambda/(n^2 eps). p starts at 0 and its projection onto [-1, 1]
    is odd, so p_ji = -p_ij for every iterate: one antisymmetric slot q per
    edge is stored. The primal step soft-shrinks u toward y by tau/n and clips
    to [0, 1]. Steps sized from a 30-step power estimate of the operator norm.
    Each iterate's edge differences are gathered once and give both its
    energy, tracked every iteration, and, by linearity, K(2 u_new - u_old).
    Stops when the relative energy change over 50 iterations drops below tol;
    the lowest-energy iterate is kept, so energy_relaxed never exceeds the
    energy of the initial point u0 = labels.
    """
    y = _check_labels(graph, labels)
    lam = config.lambda_
    n, m = graph.n, graph.m
    e0 = energy(graph, labels, lam, y)
    if m == 0:
        return SolveResult(y.copy(), y.copy(), e0, e0, 0, 0.0, "primal_dual")
    c = lam / (n ** 2 * graph.eps)
    cw = c * graph.w
    gscale = 2.0 / (n ** 2 * graph.eps)   # gtv = gscale * sum w |d|
    ei, ej = graph.ei, graph.ej

    def K(u):
        return cw * (u[ej] - u[ei])

    def KT(q):
        # the two-slot p_ji - p_ij is -q - q, which equals -2.0 * q exactly
        a = cw * (-2.0 * q)
        return np.bincount(ei, weights=a, minlength=n) - np.bincount(ej, weights=a, minlength=n)

    rng = np.random.Generator(np.random.Philox(2718))
    v = rng.standard_normal(n)
    lsq = 1.0
    for _ in range(30):
        v = KT(K(v))
        lsq = np.linalg.norm(v)
        if lsq == 0:
            break
        v /= lsq
    L = np.sqrt(lsq) * 1.02 if lsq > 0 else 1.0  # small margin over the estimate
    tau = sigma = 1.0 / L

    u, d = y.copy(), y[ej] - y[ei]   # d: edge differences of the iterate u
    kbar = cw * d                     # K(ubar) with ubar = u0
    q = np.zeros(m)
    best_e, best_u, best_q = e0, u.copy(), q.copy()
    hist = [e0]
    it = 0
    converged = False
    for it in range(1, config.max_iters + 1):
        q = np.clip(q + sigma * kbar, -1.0, 1.0)
        a = (u - tau * KT(q)) - y
        u = np.clip(y + np.sign(a) * np.maximum(np.abs(a) - tau / n, 0.0), 0.0, 1.0)
        dnew = u[ej] - u[ei]
        kbar = cw * (2.0 * dnew - d)   # K(2 u_new - u_old)
        d = dnew
        e = lam * (gscale * float(np.sum(graph.w * np.abs(d)))) + float(np.abs(u - y).mean())
        if e < best_e:
            best_e, best_u, best_q = e, u.copy(), q.copy()
        hist.append(e)
        if it >= 50 and it % 10 == 0:
            ref = hist[-51]
            if abs(ref - e) <= config.tol * max(abs(ref), 1e-12):
                converged = True
                break
    # certified lower bound from the dual feasible point at the best iterate;
    # the two-slot divergence, not KT, keeps it an independent check
    div = divergence(graph, np.stack([best_q, -best_q], axis=1))
    dual = float(np.sum(np.minimum(y / n, c * div + (1.0 - y) / n)))
    gap = best_e - dual
    ub = binarize(graph, labels, lam, best_u)
    return SolveResult(best_u, ub, best_e, energy(graph, labels, lam, ub),
                       iters=it, gap=gap, method="primal_dual", converged=converged)
