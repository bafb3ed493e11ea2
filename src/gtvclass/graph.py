"""eps-neighborhood graphs over point clouds: construction via a k-d tree
pair search, graph total variation, and the discrete divergence operator.

Weight convention: stored weights are w_ij = eta_eps(x_i - x_j) =
eps^-d eta(|x_i - x_j|/eps), kept once per undirected pair i < j. The
ordered double sums of the energy are recovered by a factor 2 in gtv and
by the two per-edge slots of divergence's (m, 2) field: the primal-dual
solver stores its antisymmetric dual as one slot per edge.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from . import ValidationError
from . import kernels


class NeighborGraph:
    # ei, ej: (m,) int64 with ei < ej, sorted by ei then ej; node numbers
    # are the input order of the points
    # w: (m,) eta_eps weights, all positive; every pair with a positive
    # weight is an edge
    # degree_sums: (n,) sum_j eta_eps(x_i - x_j) including the j = i term
    def __init__(self, n, eps, ei, ej, w, degree_sums):
        self.n = int(n)
        self.eps = float(eps)
        self.ei = np.asarray(ei, dtype=np.int64)
        self.ej = np.asarray(ej, dtype=np.int64)
        self.w = np.asarray(w, dtype=float)
        self.degree_sums = np.asarray(degree_sums, dtype=float)

    @property
    def m(self):
        return self.ei.size


def build(cloud, eps, profile):
    """Build the eps-neighborhood graph of a LabeledCloud (or raw points)."""
    points = cloud.points if hasattr(cloud, "points") else np.asarray(cloud, dtype=float)
    if points.size == 0:
        raise ValidationError("cannot build a graph over an empty cloud")
    if not (0 < eps < np.inf):
        raise ValidationError("eps must be positive and finite")
    n, d = points.shape
    # the k-d tree rounds distances its own way; the margin only widens the
    # candidate set, and w > 0 below decides which pairs become edges
    cutoff = profile.support_radius * eps * (1.0 + 1e-9)
    gi, gj = cKDTree(points).query_pairs(cutoff, output_type="ndarray").T
    diff = points[gi] - points[gj]
    dist = np.sqrt((diff * diff).sum(axis=1))
    w = kernels.eval(profile, dist / eps) / eps ** d
    keep = w > 0
    gi, gj, w = gi[keep], gj[keep], w[keep]
    order = np.argsort(gi * n + gj)
    gi, gj, w = gi[order], gj[order], w[order]
    deg = (np.bincount(gi, weights=w, minlength=n)
           + np.bincount(gj, weights=w, minlength=n)).astype(float)
    deg += 1.0 / eps ** d   # diagonal term eta_eps(0), eta(0) = 1
    return NeighborGraph(n, eps, gi, gj, w, deg)


def gtv(graph, u):
    """Graph total variation (1/(n^2 eps^(d+1))) sum_ij eta(|x_i-x_j|/eps)|u_i-u_j|,
    computed as (2/(n^2 eps)) sum over stored edges of w_ij |u_i - u_j|."""
    u = np.asarray(u, dtype=float)
    if u.shape != (graph.n,):
        raise ValidationError("node function has wrong length")
    if graph.m == 0:
        return 0.0
    return 2.0 / (graph.n ** 2 * graph.eps) * float(
        np.sum(graph.w * np.abs(u[graph.ei] - u[graph.ej])))


def divergence(graph, p):
    """div(p)_i = sum_j eta_eps(x_i - x_j)(p_ji - p_ij) for an (m, 2) field p:
    p[e, 0] is the i->j slot and p[e, 1] the j->i slot of edge e = (i, j)."""
    vals = np.asarray(p, dtype=float)
    if vals.shape != (graph.m, 2):
        raise ValidationError("edge field does not match the graph")
    a = graph.w * (vals[:, 1] - vals[:, 0])
    return (np.bincount(graph.ei, weights=a, minlength=graph.n)
            - np.bincount(graph.ej, weights=a, minlength=graph.n))


def num_components(graph):
    adj = coo_matrix((np.ones(graph.m), (graph.ei, graph.ej)),
                     shape=(graph.n, graph.n))
    ncomp, _ = connected_components(adj, directed=False)
    return int(ncomp)
