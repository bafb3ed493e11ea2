"""Minimizers of the regularized empirical risk

    E(u) = lambda * gtv(u) + (1/n) sum_i |u_i - y_i|

over u in [0,1]^n. Both terms decompose over level sets (coarea), so a
binary global minimizer exists; solve_mincut, the package's solver, finds it
exactly by a min s-t cut, and exhaustive enumeration is the small-instance oracle.
The overfitting certificate bounds the dual variables and, when it holds,
guarantees the labels themselves are the unique minimizer. The primal-dual
iteration (PD) on the relaxation is kept only as the subject of the pd_relax
benchmark (ROADMAP item 16); its _pd_operator and _dual_bound also serve min-cut's gap.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, maximum_flow,
                                  reverse_cuthill_mckee)

from . import ValidationError, check_int, check_labels, check_number, check_values
from .graph import _adjacency, gtv


class SolverConfig:
    """solve_primal_dual's options, checked here once: lambda positive and
    finite, max_iters an integer >= 0, tol in (0, 1)."""

    def __init__(self, lambda_, max_iters=20000, tol=1e-7):
        # the dual bound is at least 0, so gap <= energy: with tol >= 1 the
        # stop rule would pass at its first check and certify nothing
        self.tol = check_number(tol, "tol", 0, 1)
        self.max_iters = check_int(max_iters, "max_iters", 0)
        self.lambda_ = check_number(lambda_, "lambda", 0)


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


def energy(graph, labels, lam, u):
    """E(u), for u one finite number per node."""
    y, u = check_labels(labels, graph.n), check_values(u, graph.n)
    return check_number(lam, "lambda", 0) * gtv(graph, u) + float(np.abs(u - y).mean())


def solve_brute_force(graph, labels, lam):
    """Exhaustive minimum over u in {0,1}^n; ties broken by the
    lexicographically smallest u. Refused above n = 20."""
    y = check_labels(labels, graph.n)
    lam = check_number(lam, "lambda", 0)
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
        e = np.abs(bits - y).mean(axis=1) + scale * (
            np.abs(bits[:, graph.ei] - bits[:, graph.ej]) @ graph.w)
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
    works on int32 capacities: each float capacity x becomes rint(x * scale)
    and is off by at most 0.5/scale in energy units. scale is the smaller of
    the two that map the largest edge arc to 2^30 - 1 and 1/n to 2^31 - 1,
    so an edge arc's residual x + f <= 2x fits in int32. The labeling
    returned is the set of nodes reachable from s in the residual of a
    maximum flow, the unique minimal source side of a minimum cut of the
    integer network; its energy is recomputed in floats.

    The network numbers the nodes in the reverse Cuthill-McKee order of the
    graph, which keeps neighbours close in memory and makes the flow solver
    faster. The labeling is mapped back to the graph's numbering; being the
    minimal source side, it does not depend on the node order.

    gap is energy_binary minus primal-dual's dual bound at the flow's own
    dual point, plus an allowance for the floating-point rounding of the
    energy and bound sums: q_e is minus the flow from ei to ej over the edge
    arc's float capacity, clipped to [-1, 1]. Weak duality makes gap an
    upper bound on energy_binary minus the true minimum, as computed in
    floats, whatever the flow solver returned, since it never trusts the
    integer arithmetic. An exact maximum flow gives a gap of the order of
    the capacity rounding, 0.5/scale per arc, plus the allowance.
    """
    y = check_labels(labels, graph.n)
    lam = check_number(lam, "lambda", 0)
    n, m = graph.n, graph.m
    if m == 0:   # no edge to cut: the labels cost nothing and are the minimizer
        return SolveResult(y.copy(), y, 0.0, 0.0, iters=0, gap=0.0, method="mincut")
    s, t = n, n + 1
    # perm lists the nodes in network order; rank[i] is node i's number there
    perm = reverse_cuthill_mckee(_adjacency(graph), symmetric_mode=False)
    rank = np.empty(n, np.int32)
    rank[perm] = np.arange(n, dtype=np.int32)
    ri, rj = rank[graph.ei], rank[graph.ej]
    # one terminal arc per node, s -> i if y_i = 1 and i -> t if y_i = 0;
    # the other terminal arc has capacity 0 and is left out
    one = y.astype(bool)
    rows = np.concatenate([np.where(one, s, rank), ri, rj])
    cols = np.concatenate([np.where(one, rank, t), rj, ri])
    del ri, rj
    c = lam / (n ** 2 * graph.eps)   # _pd_operator's constant: 2 c w per arc
    pair_cap = 2.0 * c * graph.w
    # scipy's maximum_flow saturates silently past int32, and an edge arc's
    # residual reaches twice its capacity, so the largest edge arc maps to
    # 2^30 - 1 (to 2^30 - 1/2 it would round to 2^30, and twice that overflows)
    widest = pair_cap.max() * ((2.0 ** 31 - 1.0) / (2.0 ** 30 - 1.0))
    scale = (2.0 ** 31 - 1.0) / max(widest, 1.0 / n)
    pair_cap = np.rint(pair_cap * scale).astype(np.int32)
    caps = np.concatenate([np.full(n, np.rint((1.0 / n) * scale), np.int32),
                           pair_cap, pair_cap])
    del pair_cap
    cap = csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2))
    del rows, cols, caps
    flow = maximum_flow(cap, s, t).flow
    # scipy returns the flow on its own copy of cap with a zero-capacity
    # reverse arc added for each arc that has none: here the arcs i -> s, in
    # column s, and t -> i, in row t. Without those its entries line up with
    # cap's; scipy does not document this layout, so it is checked.
    end = flow.indptr[t]
    keep = flow.indices[:end] != s
    if not np.array_equal(flow.indices[:end][keep], cap.indices):
        raise RuntimeError("scipy's maximum_flow returned an unexpected flow layout")
    f = flow.data[:end][keep]
    del flow, keep
    # the flow from ei to ej on each edge (read along rows in edge order),
    # and the residual network
    fe = csr_matrix((f, cap.indices, cap.indptr), shape=cap.shape)[
        rank[graph.ei], rank[graph.ej]].A1
    cap.data -= f
    del f
    cap.eliminate_zeros()
    reach = breadth_first_order(cap, s, directed=True, return_predecessors=False)
    del cap
    u = np.zeros(n)
    u[perm[reach[reach < n]]] = 1.0
    eb = energy(graph, labels, lam, u)
    q = np.divide(fe, scale * (2.0 * c * graph.w), out=np.zeros(m), where=fe != 0)
    del fe
    _, KT = _pd_operator(graph, c)
    gap = eb - _dual_bound(y, -2.0 * (KT @ np.clip(q, -1.0, 1.0, out=q)))
    # the sums behind eb, K^T q and the bound each have under k = n + m + 4
    # terms whose magnitudes add up to at most eb + 1 + 4 c sum(w), so
    # rounding moves each by at most k eps/2 times that. 2 k eps times it
    # covers those three and the other energy that an excess is measured
    # against, so gap bounds the excess as computed in floats too.
    k = n + m + 4
    gap += 2.0 * k * np.finfo(float).eps * (eb + 1.0 + 4.0 * c * float(graph.w.sum()))
    return SolveResult(u.copy(), u, eb, eb, iters=0, gap=gap, method="mincut")


def binarize(graph, labels, lam, u):
    """Best threshold binarization of u in [0,1]^n.

    Evaluates 1_{u > t} at every distinct value of u, at t = 1/2, and the
    all-ones labeling (the t below min(u) level set), and returns the lowest
    energy one; ties go to the lowest threshold. By the coarea decomposition
    the winner's energy never exceeds energy(u). Cost O((n + m) log n): all
    candidates are scored at once by prefix sums over threshold indices.
    """
    u = check_values(u, graph.n)
    y = check_labels(labels, graph.n)
    thresholds = np.unique(np.concatenate([u, [0.5]]))
    k, n = thresholds.size, graph.n
    scale = 2.0 * check_number(lam, "lambda", 0) / (n ** 2 * graph.eps)
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
    c = 2.0 * check_number(lam, "lambda", 0) / (graph.eps * graph.n)
    deg = np.bincount(graph.ei, graph.w, graph.n) + np.bincount(graph.ej, graph.w, graph.n)
    s = c * (deg + 1.0 / graph.eps ** graph.d)   # diagonal term eta_eps(0), eta(0) = 1
    smax = float(s.max())
    return smax < 1.0, 1.0 - smax


def _dual_bound(y, a):
    """Weak-duality lower bound on the minimum energy from a = 2 K^T q with
    q in [-1, 1]^m: the minimum of <a, u> + (1/n) sum |u_i - y_i| over
    u in [0, 1]^n, which splits per node, an O(n) read."""
    n = y.size
    return float(np.sum(np.minimum(y / n, a + (1.0 - y) / n)))


def _pd_operator(graph, c):
    """K, m x n CSR with (K u)_e = c w_e (u_ej - u_ei), and K^T, a view of its
    arrays. K is the one dual representation: c div([q, -q]) = 2 K^T q."""
    cw = c * graph.w
    K = csr_matrix((np.stack([-cw, cw], axis=1).ravel(),
                    np.stack([graph.ei, graph.ej], axis=1).ravel(),
                    np.arange(0, 2 * graph.m + 1, 2)), shape=(graph.m, graph.n))
    return K, K.T


def solve_primal_dual(graph, labels, config):
    """Over-relaxed Chambolle-Pock primal-dual iteration on

        min_{u in [0,1]^n} max_{|q| <= 1} 2 <K^T q, u> + (1/n) sum |u_i - y_i|

    with K from _pd_operator at c = lambda/(n^2 eps): one dual value q per
    edge. Steps tau = sigma = 1/L come from a 30-step power estimate of L.
    With K scaled by sigma, u = y, q = 0 and their products ku = K u and
    kq = 2 K^T q, an iteration is

        u~ = u - kq soft-shrunk toward y by tau/n and clipped to [0, 1]
        q~ = clip(q + 2 K u~ - ku, -1, 1)
        (u, ku, q, kq) += rho (u~ - u, K u~ - ku, q~ - q, 2 K^T q~ - kq)

    with rho = 1.9: one product with K and one with K^T, as at rho = 1, where
    it is plain Chambolle-Pock. Only the prox outputs u~ and q~ are scored,
    each from its own fresh product, since the relaxed points may leave
    the box. The energy of u~ reuses K u~: lambda gtv(u~) = (2/sigma) |K u~|_1.

    Every 10th iteration and at the cap is a check. There the thresholded
    u^ = 1{u~ > 1/2} is scored too, with one more product K u^. By coarea
    the relaxation has binary minimizers, so u^ often reaches the minimum
    long before u~ does. The lowest-energy point seen, u~ or u^, is
    returned as u, so u may be binary, and energy_relaxed <= energy(labels).

    Any q in the box bounds the minimum below by
    sum_i min(y_i/n, a_i + (1 - y_i)/n), where a = 2 K^T q unscaled, an O(n)
    read. A check reads it at q~ and at the mean of q~ over the last 1, 2, 4
    and 8 complete blocks of 10 iterations, from running sums of 2 K^T q~
    (one O(n) add per iteration). Means of points in the box stay in it;
    the relaxed q is never averaged. The best bound (at first 0, that of
    q = 0) is kept. gap is energy_relaxed minus it, and converged means
    gap <= tol * energy_relaxed: a certified gap.
    """
    y = check_labels(labels, graph.n)
    lam = config.lambda_
    n, m = graph.n, graph.m
    e0 = energy(graph, labels, lam, y)
    if m == 0:
        return SolveResult(y.copy(), y.copy(), e0, e0, 0, 0.0, "primal_dual")
    K, KT = _pd_operator(graph, lam / (n ** 2 * graph.eps))

    rng = np.random.Generator(np.random.Philox(2718))
    v = rng.standard_normal(n)
    lsq = 1.0
    for _ in range(30):
        v = 2.0 * (KT @ (K @ v))
        lsq = np.linalg.norm(v)
        if lsq == 0:
            break
        v /= lsq
    L = float(np.sqrt(lsq)) * 1.02 if lsq > 0 else 1.0  # small margin over the estimate
    # over-relaxation, which converges for any rho in (0, 2) once tau sigma L^2 < 1
    # (Condat, JOTA 2013; Chambolle and Pock, Math. Program. 2016)
    rho = 1.9
    # the dual bound is also read at ergodic means of q~ (ibid.): over the
    # last 1, 2, 4 and 8 complete blocks of 10 iterations
    windows = (1, 2, 4, 8)
    tau = sigma = 1.0 / L
    K.data *= sigma   # and so KT, which shares it: 2 KT q is now 2 tau K^T q

    def score(v, kv):
        return (2.0 / sigma) * float(np.abs(kv).sum()) + float(np.abs(v - y).mean())

    u, q = y.copy(), np.zeros(m)
    ku, kq = K @ u, np.zeros(n)   # sigma K u and 2 tau K^T q
    best_e, best_u, best_dual = e0, u.copy(), 0.0
    # sums of kq~ over the open block and the last complete ones, oldest first
    block, blocks = np.zeros(n), []
    it = 0
    for it in range(1, config.max_iters + 1):
        a = (u - kq) - y
        ut = np.clip(y + np.sign(a) * np.maximum(np.abs(a) - tau / n, 0.0), 0.0, 1.0)
        kut = K @ ut
        e = score(ut, kut)
        if e < best_e:
            best_e, best_u = e, ut.copy()
        qt = np.clip(q + (2.0 * kut - ku), -1.0, 1.0)
        kqt = 2.0 * (KT @ qt)
        block += kqt
        if it % 10 == 0:
            blocks = (blocks + [block])[-windows[-1]:]
            block = np.zeros(n)
        if it % 10 == 0 or it == config.max_iters:
            uh = (ut > 0.5).astype(float)
            e = score(uh, K @ uh)
            if e < best_e:
                best_e, best_u = e, uh
            best_dual = max(best_dual, _dual_bound(y, kqt / tau))
            total = 0.0
            for k in range(1, len(blocks) + 1):
                total = total + blocks[-k]
                if k in windows:
                    best_dual = max(best_dual, _dual_bound(y, total / (10 * k) / tau))
            if best_e - best_dual <= config.tol * best_e:
                break
        # over-relaxation; the K and K^T products follow by linearity
        for x, xt in ((u, ut), (ku, kut), (q, qt), (kq, kqt)):
            xt -= x
            xt *= rho
            x += xt
    gap = best_e - best_dual
    ub = binarize(graph, labels, lam, best_u)
    return SolveResult(best_u, ub, best_e, energy(graph, labels, lam, ub), iters=it,
                       gap=gap, method="primal_dual", converged=gap <= config.tol * best_e)
