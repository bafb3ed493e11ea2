"""eps-neighborhood graphs over point clouds: construction via a k-d tree
pair search, graph total variation, and connected components.

Weight convention: stored weights are w_ij = eta_eps(x_i - x_j) =
eps^-d eta(|x_i - x_j|/eps), kept once per undirected pair i < j. The
ordered double sums of the energy are recovered by a factor 2 in gtv and
in the primal-dual solver's edge operator, which stores its antisymmetric
dual as one value per edge.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from . import ValidationError, check_number, check_points, check_values
from . import kernels


class NeighborGraph:
    # ei, ej: (m,) int32 with ei < ej, sorted by ei then ej; node numbers
    # are the input order of the points, so n < 2^31
    # w: (m,) eta_eps weights, all positive; every pair with a positive
    # weight is an edge; d is the dimension of the points
    def __init__(self, n, d, eps, ei, ej, w):
        self.n, self.d, self.eps = int(n), int(d), float(eps)
        self.ei = np.asarray(ei, dtype=np.int32)
        self.ej = np.asarray(ej, dtype=np.int32)
        self.w = np.asarray(w, dtype=float)

    @property
    def m(self):
        return self.ei.size


def build(cloud, eps, profile):
    """Build the eps-neighborhood graph of a LabeledCloud or an (n, d) array."""
    points = check_points(cloud.points if hasattr(cloud, "points") else cloud)
    if points.size == 0:
        raise ValidationError("need a nonempty (n, d) array of points")
    eps = check_number(eps, "eps", 0)
    n, d = points.shape
    # the k-d tree rounds distances its own way; the margin only widens the
    # candidate set, and w > 0 below decides which pairs become edges
    cutoff = profile.support_radius * eps * (1.0 + 1e-9)
    pairs = cKDTree(points).query_pairs(cutoff, output_type="ndarray")
    # the pairs come with i < j in no set order; sorting their keys i*n + j
    # costs less than an argsort and the gathers it needs
    gi, gj = np.divmod(np.sort(pairs[:, 0] * n + pairs[:, 1]), n)
    del pairs
    # squared distances summed one axis at a time, without an (m, d)
    # difference array: for d < 8 these are the additions of numpy's axis-1
    # sum in the same order, so the weights are bit for bit those of that sum
    sq = np.zeros(gi.size)
    for x in points.T:
        t = x[gi] - x[gj]
        sq += t * t
    w = kernels.eval(profile, np.sqrt(sq) / eps) / eps ** d
    keep = w > 0
    gi, gj, w = gi[keep], gj[keep], w[keep]
    # NeighborGraph narrows gi, gj to int32 only now: numpy casts int32
    # indices to intp on every gather, so the gathers above stay int64
    return NeighborGraph(n, d, eps, gi, gj, w)


def gtv(graph, u):
    """Graph total variation (1/(n^2 eps^(d+1))) sum_ij eta(|x_i-x_j|/eps)|u_i-u_j|,
    computed as (2/(n^2 eps)) sum over stored edges of w_ij |u_i - u_j|."""
    u = check_values(u, graph.n)
    return 2.0 / (graph.n ** 2 * graph.eps) * float(
        np.sum(graph.w * np.abs(u[graph.ei] - u[graph.ej])))


def _adjacency(graph):
    """The graph's edges as an n x n CSR matrix of ones, one entry per edge
    i < j. They are sorted by (ei, ej) and unique, so they are already the
    rows of a canonical CSR matrix: row i holds the ej of its edges."""
    indptr = np.zeros(graph.n + 1, np.int32)
    np.cumsum(np.bincount(graph.ei, minlength=graph.n), out=indptr[1:])
    return csr_matrix((np.ones(graph.m, np.int8), graph.ej, indptr),
                      shape=(graph.n, graph.n))


def num_components(graph):
    ncomp, _ = connected_components(_adjacency(graph), directed=False)
    return int(ncomp)
