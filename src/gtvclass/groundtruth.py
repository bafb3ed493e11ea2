"""Synthetic ground truth on a box: piecewise-constant density rho and
conditional mean mu over rectangular partitions, i.i.d. sampling, and the
exactly computable Bayes quantities (risk, classifier, constant risks, and
the rho^2-weighted total variation of the Bayes classifier).

Cell conventions: cells are half-open [lo, hi) along each axis except at
the domain's upper face, which is closed, so every point of the domain
belongs to exactly one cell. Partitions are checked to 1e-12 of slack, so
cells may leave gaps, overlap or pass the domain's faces by that much.
Lookups follow the cells as given: a point in no cell is refused, a point
in two goes to the lowest cell id, and a point more than 1e-12 outside the
domain is refused. Boundary ties mu = 1/2 classify as 1.
"""

import io
from functools import cached_property

import numpy as np

from . import (ValidationError, check_int, check_labels, check_number, check_points,
               json_value, read_json, read_object, read_text)


class Cells:
    """A rectangular partition of the box [box_lo, box_hi], given as a list of
    (lo, hi, value), held as (k, d) arrays lo, hi and (k,) arrays value, volume
    and mass = value * volume. what names the partition in error messages."""

    def __init__(self, cells, box_lo, box_hi, what):
        if not cells:
            raise ValidationError("empty %s partition" % what)
        self.box_lo, self.box_hi = box_lo, box_hi
        # read as objects, so that a scalar, short or long corner is a dimension mismatch
        corners = np.array([c[0] for c in cells] + [c[1] for c in cells], dtype=object)
        if corners.shape[1:] != box_lo.shape:
            raise ValidationError("%s cell dimension mismatch" % what)
        corners = check_points(corners.tolist(), what="%s cell corners" % what)
        self.lo, self.hi = corners.reshape(2, -1, box_lo.size)
        self.value = np.array([check_number(c[2], "%s value" % what) for c in cells])
        if not np.all(self.hi > self.lo):
            raise ValidationError("%s cells must have positive extent" % what)
        if np.any(self.lo < box_lo - 1e-12) or np.any(self.hi > box_hi + 1e-12):
            raise ValidationError("%s cells must lie inside the domain" % what)
        self.volume = np.prod(self.hi - self.lo, axis=1)
        box_vol = float(np.prod(box_hi - box_lo))
        if abs(self.volume.sum() - box_vol) > 1e-12 * box_vol:
            raise ValidationError("%s cells do not tile the domain" % what)
        # pairwise disjointness (partitions are small, O(k^2) is fine)
        meet = np.minimum(self.hi[:, None], self.hi) - np.maximum(self.lo[:, None], self.lo)
        if np.any(np.triu(np.all(meet > 1e-12, axis=2), 1)):
            raise ValidationError("%s cells overlap" % what)
        self.mass = self.value * self.volume

    @cached_property
    def _table(self):
        """Per-axis faces and a table of cell ids over the grid they span.

        The sorted distinct faces e of axis j cut it into len(e) - 1 bins
        [e_b, e_{b+1}), and every cell is a union of the grid boxes they span.
        Each axis gets two more bins: one for the closed top face
        x_j == box_hi_j, and one that no cell holds, for coordinates below
        the first face or at or past the last. The table holds the lowest id
        of a cell containing each grid box, -1 where none does. Built on
        first use and stored in one assignment, so threads sharing a
        partition at worst build it twice.
        """
        faces, member = [], []
        for j, top in enumerate(self.box_hi):
            e = np.unique(np.concatenate([self.lo[:, j], self.hi[:, j]]))
            lo, hi = self.lo[:, j, None], self.hi[:, j, None]
            member.append(np.hstack([(lo <= e[:-1]) & (e[1:] <= hi),
                                     (lo <= top) & (top <= hi),
                                     np.zeros_like(lo, dtype=bool)]))
            faces.append(e)
        table = np.full([m.shape[1] for m in member], -1, dtype=np.intp)
        for c in range(self.value.size - 1, -1, -1):
            table[np.ix_(*[m[c] for m in member])] = c
        return faces, table

    def index(self, x):
        """Id of the cell holding each row of the (n, d) array x, under the
        module's cell conventions; a point in no cell is a ValidationError."""
        x = check_points(x, self.box_lo.size, "points in the model's domain")
        if np.any(x < self.box_lo - 1e-12) or np.any(x > self.box_hi + 1e-12):
            raise ValidationError("point outside the domain")
        faces, ids = self._table
        key = []
        for j, e in enumerate(faces):
            b = np.searchsorted(e, x[:, j], side="right") - 1
            b[(b < 0) | (b == e.size - 1)] = e.size
            b[x[:, j] == self.box_hi[j]] = e.size - 1
            key.append(b)
        idx = ids[tuple(key)]
        if np.any(idx < 0):
            raise ValidationError("point not covered by the partition")
        return idx


class GroundTruthModel:
    """Axis-aligned box domain with piecewise-constant rho and mu.

    density_cells and mu_cells are independent rectangular partitions of the
    domain, each a list of (lo, hi, value) with lo/hi d-vectors, held as the
    Cells rho and mu. rho values are probability densities (they integrate
    to 1 over the domain and are strictly positive); mu values lie in [0, 1]
    and no cell sits exactly at 1/2, so {mu = 1/2} has zero Lebesgue measure.
    """

    def __init__(self, lo, hi, density_cells, mu_cells, name="model"):
        self.lo, self.hi = check_points([lo, hi], what="domain lo, hi")
        if not np.all(self.hi > self.lo):
            raise ValidationError("domain must have positive extent")
        self.d = self.lo.size
        self.name = json_value(str)(name, "name")
        self.rho = Cells(density_cells, self.lo, self.hi, "density")
        self.mu = Cells(mu_cells, self.lo, self.hi, "mu")
        if not np.all(self.rho.value > 0):
            raise ValidationError("density must be strictly positive on every cell")
        mass = float(np.sum(self.rho.mass))
        if not abs(mass - 1.0) <= 1e-12:
            raise ValidationError("density must integrate to 1, got %.17g" % mass)
        if not np.all((self.mu.value >= 0) & (self.mu.value <= 1)):
            raise ValidationError("mu values must lie in [0, 1]")
        if np.any(self.mu.value == 0.5):
            raise ValidationError("a mu cell at exactly 1/2 is rejected")

    def rho_at(self, x):
        """rho at each row of the (n, d) array x, as an (n,) array."""
        return self.rho.value[self.rho.index(x)]

    def mu_at(self, x):
        """mu = P(y = 1 | x) at each row of the (n, d) array x, as an (n,) array."""
        return self.mu.value[self.mu.index(x)]

    @cached_property
    def pieces(self):
        """The overlay of rho and mu, on whose pieces both are constant: the
        arrays (vol, rho, mu, lo, hi) of every nonempty meet of a rho cell and
        a mu cell, rho cell by rho cell. Built on first use."""
        lo = np.maximum(self.rho.lo[:, None], self.mu.lo[None, :])
        hi = np.minimum(self.rho.hi[:, None], self.mu.hi[None, :])
        i, j = np.nonzero(np.all(hi > lo, axis=2))
        lo, hi = lo[i, j], hi[i, j]
        return np.prod(hi - lo, axis=1), self.rho.value[i], self.mu.value[j], lo, hi


class LabeledCloud:
    """Sample points, an (n, d) array of finite coordinates, with binary labels."""

    def __init__(self, points, labels):
        self.points = check_points(points)
        self.labels = check_labels(labels, self.n).astype(np.int64)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


def sample(model, n, seed):
    """Draw n i.i.d. samples: x from rho (cell by mass, uniform within), then
    y = 1 with probability mu(x). Philox counter-based stream, so identical
    seeds reproduce the cloud bit for bit; seed is an int >= 0 or a tuple of
    them (tuples keep independent draws, e.g. test sets, on separate streams).
    """
    n = check_int(n, "n", 1)
    seed = (tuple(check_int(s, "seed", 0) for s in seed) if isinstance(seed, tuple)
            else check_int(seed, "seed", 0))
    rng = np.random.Generator(np.random.Philox(seed))
    cum = np.cumsum(model.rho.mass)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(n), side="right")
    idx = np.minimum(idx, len(cum) - 1)
    lo, hi = model.rho.lo[idx], model.rho.hi[idx]
    x = lo + rng.random((n, model.d)) * (hi - lo)
    y = (rng.random(n) < model.mu_at(x)).astype(np.int64)
    return LabeledCloud(x, y)


def bayes_classify(model, x):
    """The risk-minimizing label, 1 iff mu(x) >= 1/2, as an (n,) int64 array."""
    return (model.mu_at(x) >= 0.5).astype(np.int64)


def bayes_risk(model):
    """integral of min(mu, 1-mu) rho over the domain, exact cell-wise."""
    vol, rho, mu, _, _ = model.pieces
    # added piece by piece, left to right: np.sum adds pairwise from 8 terms on
    return np.add.accumulate(vol * rho * np.minimum(mu, 1.0 - mu))[-1]


def risk_of_constant(model, c):
    """Risk of the constant labeling c: integral of (|c-1| mu + |c| (1-mu)) rho."""
    vol, rho, mu, _, _ = model.pieces
    return np.add.accumulate(vol * rho * (abs(c - 1.0) * mu + abs(c) * (1.0 - mu)))[-1]


def bayes_tv(model):
    """TV_rho^2 of the Bayes classifier: the rho^2-weighted measure of its
    interface, exact cell-wise.

    Sums, over every pair of refined pieces (rho-cell meet mu-cell) on
    opposite sides of mu = 1/2 that share a face of positive (d-1)-measure,
    that measure times rho^2; in d = 1 a face has measure 1. Faces on the
    domain boundary have no neighbour and add nothing. The continuum limit
    of graph TV is stated for continuous rho, so a density jump across the
    Bayes interface is a ValidationError.
    """
    _, rho, mu, lo, hi = model.pieces
    split = (mu[:, None] > 0.5) != (mu[None, :] > 0.5)
    span = np.minimum(hi[:, None], hi[None, :]) - np.maximum(lo[:, None], lo[None, :])
    total = 0.0
    for j in range(model.d):
        # pieces a, b touch across the face x_j = hi_a[j] = lo_b[j]
        across = np.delete(span, j, axis=2)
        face = (split & (np.abs(hi[:, None, j] - lo[None, :, j]) <= 1e-12)
                & np.all(across > 1e-12, axis=2))
        if np.any(face & (rho[:, None] != rho[None, :])):
            raise ValidationError("density jumps across the Bayes interface of %s"
                                  % model.name)
        total += float((np.prod(across, axis=2) * rho[:, None] ** 2)[face].sum())
    return total


# -- built-in models --------------------------------------------------------

def quadrant_model():
    """Uniform density on the unit square; mu = 0.55 on the upper-left and
    lower-right quadrants and 0.45 on the other two. Exactly degenerate
    median: each Bayes class carries half the mass."""
    cells = [((0.0, 0.5), (0.5, 1.0), 0.55),   # upper left
             ((0.5, 0.0), (1.0, 0.5), 0.55),   # lower right
             ((0.5, 0.5), (1.0, 1.0), 0.45),   # upper right
             ((0.0, 0.0), (0.5, 0.5), 0.45)]   # lower left
    return GroundTruthModel((0, 0), (1, 1),
                            [((0, 0), (1, 1), 1.0)], cells, name="quadrant")


def asymmetric_model():
    """Uniform density; mu = 0.55 on the left 60 percent of mass, 0.45 on the
    rest. Median label 1, R(1) = 0.49, R(0) = 0.51, Bayes risk 0.45."""
    cells = [((0.0, 0.0), (0.6, 1.0), 0.55),
             ((0.6, 0.0), (1.0, 1.0), 0.45)]
    return GroundTruthModel((0, 0), (1, 1),
                            [((0, 0), (1, 1), 1.0)], cells, name="asymmetric")


def halfplane_model():
    """Uniform density on the unit square, mu = 1 on {x0 > 1/2} and 0 on the
    rest: the Bayes classifier is the noiseless half-plane indicator."""
    cells = [((0.0, 0.0), (0.5, 1.0), 0.0),
             ((0.5, 0.0), (1.0, 1.0), 1.0)]
    return GroundTruthModel((0, 0), (1, 1),
                            [((0, 0), (1, 1), 1.0)], cells, name="halfplane")


def noisy_halfplane_model():
    """Uniform density on the unit square, mu = 0.1 on {x0 < 1/2} and 0.9
    on the rest: Bayes risk 0.1, either constant risks 0.5."""
    cells = [((0.0, 0.0), (0.5, 1.0), 0.1),
             ((0.5, 0.0), (1.0, 1.0), 0.9)]
    return GroundTruthModel((0, 0), (1, 1), [((0, 0), (1, 1), 1.0)], cells,
                            name="noisy-halfplane")


BUILTIN_MODELS = {"quadrant": quadrant_model, "asymmetric": asymmetric_model,
                  "halfplane": halfplane_model,
                  "noisy-halfplane": noisy_halfplane_model}


# -- persistence ------------------------------------------------------------

def model_from_dict(obj):
    """The model a JSON object describes; the constructor checks its values."""
    def as_is(value, _):
        return value
    def fields(*keys):   # an object's values, in the order of keys
        return lambda v, key: tuple(read_object(v, dict.fromkeys(keys, as_is), key).values())
    def cells(value, key):
        return [fields("lo", "hi", "value")(c, key) for c in json_value(list)(value, key)]
    m = read_object(obj, {"name": as_is, "domain": fields("lo", "hi"), "density_cells": cells,
                          "mu_cells": cells}, "model", name="model")
    return GroundTruthModel(*m["domain"], m["density_cells"], m["mu_cells"], m["name"])


def load_model(path):
    return model_from_dict(read_json(path))


def save_cloud(cloud, path):
    """Dataset CSV: header x0,...,x{d-1},y, one row per sample, floats written
    with enough digits to round-trip exactly. Rows go out in blocks of a
    fixed size, formatted from Python floats (far cheaper than numpy
    scalars), so memory stays bounded at any n."""
    block = 4096
    # \r\n line ends, as the csv module's writer has always written them
    row = "%.17g," * cloud.d + "%d\r\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(["x%d" % k for k in range(cloud.d)] + ["y"]) + "\r\n")
        for lo in range(0, cloud.n, block):
            cols = cloud.points[lo:lo + block].T.tolist()
            f.writelines(map(row.__mod__, zip(*cols, cloud.labels[lo:lo + block].tolist())))


def load_cloud(path):
    """Read a dataset CSV written by save_cloud: header x0,...,x{d-1},y, then
    one row per point with exactly d finite coordinates and a label 0 or 1.
    Fields may be quoted and padded with spaces; anything else, a blank line
    included, is a ValidationError."""
    header, _, body = read_text(path).partition("\n")
    names = header.split(",")
    d = len(names) - 1
    if d < 1 or names != ["x%d" % k for k in range(d)] + ["y"]:
        raise ValidationError("dataset CSV must have header x0,...,y")
    if not body:
        raise ValidationError("dataset has no rows")
    # loadtxt skips blank lines instead of failing on them
    if body.startswith("\n") or "\n\n" in body:
        raise ValidationError("malformed dataset row: blank line")
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=[("x", float, (d,)), ("y", np.int64)],
                          delimiter=",", comments=None, quotechar='"', ndmin=1)
    except ValueError as e:
        raise ValidationError("malformed dataset row: %s" % e) from None
    return LabeledCloud(np.ascontiguousarray(rows["x"]), rows["y"])
