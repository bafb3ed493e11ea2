import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gtvclass import ValidationError
from gtvclass import groundtruth as gt


def constant_mu_model(mu):
    return gt.GroundTruthModel((0, 0), (1, 1), [((0, 0), (1, 1), 1.0)],
                               [((0, 0), (1, 1), mu)])


def random_grid_model(rng, d=2, kmax=3):
    # random rectangular-grid rho and mu partitions on the unit box
    def grid_cells(values):
        cuts = [np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, rng.integers(0, kmax))]))
                for _ in range(d)]
        cells = []
        it = np.ndindex(*[len(c) - 1 for c in cuts])
        for idx in it:
            lo = [cuts[a][i] for a, i in enumerate(idx)]
            hi = [cuts[a][i + 1] for a, i in enumerate(idx)]
            cells.append((lo, hi, next(values)))
        return cells

    def rho_vals():
        while True:
            yield float(rng.uniform(0.2, 3.0))

    def mu_vals():
        while True:
            v = float(rng.uniform(0, 1))
            yield v if abs(v - 0.5) > 1e-6 else 0.6

    dens = grid_cells(rho_vals())
    tot = sum(v * np.prod(np.subtract(h, l)) for l, h, v in dens)
    dens = [(l, h, v / tot) for l, h, v in dens]
    return gt.GroundTruthModel([0] * d, [1] * d, dens, grid_cells(mu_vals()))


def test_sample_mu_one_gives_all_ones():
    m = constant_mu_model(1.0)
    c = gt.sample(m, 500, 0)
    assert np.all(c.labels == 1)


def test_quadrant_label_frequency():
    # integral of mu rho = 0.5 by symmetry; 3 sigma binomial band at n = 1e5
    m = gt.quadrant_model()
    c = gt.sample(m, 100_000, 42)
    freq = c.labels.mean()
    assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 100_000)


def test_uniform_quadrant_counts():
    m = gt.quadrant_model()
    n = 10_000
    c = gt.sample(m, n, 7)
    sigma = np.sqrt(n * 0.25 * 0.75)
    for sx in (0, 1):
        for sy in (0, 1):
            cnt = np.sum((c.points[:, 0] >= 0.5 * sx) & (c.points[:, 0] < 0.5 * (sx + 1))
                         & (c.points[:, 1] >= 0.5 * sy) & (c.points[:, 1] < 0.5 * (sy + 1)))
            assert abs(cnt - n / 4) <= 4 * sigma


def test_points_inside_domain_and_labels_binary():
    m = gt.quadrant_model()
    c = gt.sample(m, 2000, 3)
    assert np.all(c.points >= 0) and np.all(c.points <= 1)
    assert set(np.unique(c.labels)) <= {0, 1}


def test_sample_reproducible_bit_for_bit():
    m = gt.quadrant_model()
    a = gt.sample(m, 1000, 11)
    b = gt.sample(m, 1000, 11)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)
    c = gt.sample(m, 1000, 12)
    assert not np.array_equal(a.points, c.points)
    # tuple seeds give distinct streams
    d = gt.sample(m, 1000, (11, 1))
    assert not np.array_equal(a.points, d.points)


def test_sample_rejects_n_zero():
    with pytest.raises(ValidationError):
        gt.sample(gt.quadrant_model(), 0, 0)


def test_bayes_classify_quadrants():
    m = gt.quadrant_model()
    # upper left, lower left, lower right, upper right
    x = np.array([[0.25, 0.75], [0.25, 0.25], [0.75, 0.25], [0.75, 0.75]])
    assert np.array_equal(gt.bayes_classify(m, x), [1, 0, 1, 0])
    m9 = constant_mu_model(0.9)
    x = np.random.Generator(np.random.Philox(1)).random((50, 2))
    assert np.all(gt.bayes_classify(m9, x) == 1)


def test_classify_outside_domain_rejected():
    with pytest.raises(ValidationError, match="outside the domain"):
        gt.bayes_classify(gt.quadrant_model(), np.array([[1.5, 0.5]]))


def test_bayes_risk_oracles():
    assert gt.bayes_risk(gt.quadrant_model()) == pytest.approx(0.45, abs=1e-12)
    assert gt.bayes_risk(constant_mu_model(1.0)) == pytest.approx(0.0, abs=1e-12)
    for delta in (0.05, 0.2):
        assert gt.bayes_risk(constant_mu_model(0.5 + delta)) == pytest.approx(0.5 - delta, abs=1e-12)


def test_risk_of_constant_oracles():
    q = gt.quadrant_model()
    assert gt.risk_of_constant(q, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert gt.risk_of_constant(q, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert gt.risk_of_constant(constant_mu_model(1.0), 1.0) == pytest.approx(0.0, abs=1e-12)
    a = gt.asymmetric_model()
    assert gt.risk_of_constant(a, 1.0) == pytest.approx(0.49, abs=1e-12)
    assert gt.risk_of_constant(a, 0.0) == pytest.approx(0.51, abs=1e-12)
    assert gt.bayes_risk(a) == pytest.approx(0.45, abs=1e-12)


def test_bayes_risk_below_constant_risks_on_random_models():
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(20):
        m = random_grid_model(rng)
        br = gt.bayes_risk(m)
        assert br <= gt.risk_of_constant(m, 0.0) + 1e-12
        assert br <= gt.risk_of_constant(m, 1.0) + 1e-12


def test_monte_carlo_bayes_risk_convergence():
    m = gt.quadrant_model()
    c = gt.sample(m, 100_000, 21)
    ub = gt.bayes_classify(m, c.points)
    est = np.abs(ub - c.labels).mean()
    assert abs(est - 0.45) <= 3 * np.sqrt(0.45 * 0.55 / 100_000)


def cell_index_oracle(model, los, his, x):
    # one full-array pass per cell: half-open [lo, hi), closed where a cell
    # reaches the domain's top face, the lowest cell id wins
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(x < model.lo - 1e-12) or np.any(x > model.hi + 1e-12):
        raise ValidationError("point outside the domain")
    idx = np.full(x.shape[0], -1, dtype=np.int64)
    for c in range(los.shape[0]):
        at_top = his[c] == model.hi
        inside = np.all(x >= los[c], axis=1) & np.all(
            (x < his[c]) | (at_top & (x <= his[c])), axis=1)
        idx[inside & (idx < 0)] = c
    if np.any(idx < 0):
        raise ValidationError("point not covered by the partition")
    return idx


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except ValidationError as e:
        return "error", str(e)


def assert_lookups_match_oracle(model, x):
    for cells, at in ((model.rho, model.rho_at), (model.mu, model.mu_at)):
        want = outcome(cell_index_oracle, model, cells.lo, cells.hi, x)
        got = outcome(cells.index, x)
        if want[0] == "error":
            assert got == want and outcome(at, x) == want
        else:
            assert got[0] == "ok" and np.array_equal(got[1], want[1])
            assert np.array_equal(at(x), cells.value[want[1]])
            assert np.array_equal(at(x[:1]), cells.value[want[1][:1]])
    # want now holds the mu lookup
    if want[0] == "error":
        assert outcome(gt.bayes_classify, model, x) == want
    else:
        assert np.array_equal(gt.bayes_classify(model, x),
                              (model.mu.value[want[1]] >= 0.5).astype(np.int64))


@st.composite
def split_partition(draw, lo, hi, depth):
    """Cells (lo, hi) of a box cut in two along a drawn axis, recursively."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return [(lo, hi)]
    j = draw(st.integers(0, len(lo) - 1))
    cut = lo[j] + draw(st.floats(0.05, 0.95)) * (hi[j] - lo[j])
    left_hi = hi[:j] + (cut,) + hi[j + 1:]
    right_lo = lo[:j] + (cut,) + lo[j + 1:]
    return (draw(split_partition(lo, left_hi, depth - 1))
            + draw(split_partition(right_lo, hi, depth - 1)))


@st.composite
def split_models(draw):
    d = draw(st.integers(1, 3))
    lo = tuple(draw(st.floats(-2, 2)) for _ in range(d))
    hi = tuple(a + draw(st.floats(0.1, 3)) for a in lo)
    dens = draw(split_partition(lo, hi, 4))
    w = [draw(st.floats(0.2, 3)) for _ in dens]
    mass = sum(wi * np.prod(np.subtract(h, l)) for wi, (l, h) in zip(w, dens))
    mu = draw(split_partition(lo, hi, 4))
    mu_vals = [draw(st.floats(0, 1).filter(lambda v: v != 0.5)) for _ in mu]
    return gt.GroundTruthModel(lo, hi, [(l, h, wi / mass) for wi, (l, h) in zip(w, dens)],
                               [(l, h, v) for v, (l, h) in zip(mu_vals, mu)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=split_models(), seed=st.integers(0, 2 ** 32 - 1))
def test_cell_index_matches_per_cell_oracle(model, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    lo, hi = model.lo, model.hi
    x = lo + rng.random((300, model.d)) * (hi - lo)
    # every face of either partition on each axis (interior faces, the
    # bottom and the closed top face), mixed into random coordinates
    for j in range(model.d):
        faces = np.unique(np.concatenate([model.rho.lo[:, j], model.rho.hi[:, j],
                                          model.mu.lo[:, j], model.mu.hi[:, j]]))
        on_face = rng.random(len(x)) < 0.5
        x[on_face, j] = rng.choice(faces, int(on_face.sum()))
    assert_lookups_match_oracle(model, x)
    # a coordinate up to 1e-12 outside the domain, then beyond it
    for delta in (rng.uniform(0, 1e-12), 1e-12, rng.uniform(1e-12, 1e-10), 0.5):
        for j in range(model.d):
            for side in (lo[j] - delta, hi[j] + delta):
                y = x[:5].copy()
                y[2, j] = side
                assert_lookups_match_oracle(model, y)


def refined_oracle(model):
    # the refined pieces (vol, rho, mu, lo, hi), one intersection per pair of
    # a rho cell and a mu cell, rho-major
    out = []
    for i in range(model.rho.value.size):
        for j in range(model.mu.value.size):
            lo = np.maximum(model.rho.lo[i], model.mu.lo[j])
            hi = np.minimum(model.rho.hi[i], model.mu.hi[j])
            if np.all(hi > lo):
                out.append((float(np.prod(hi - lo)), model.rho.value[i], model.mu.value[j],
                            lo, hi))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=split_models())
def test_bayes_quantities_match_piece_by_piece_oracle(model):
    # each integral is a left-to-right sum over the pieces, bit for bit, also
    # from 8 pieces on, where np.sum would add pairwise
    pieces = refined_oracle(model)

    def integral(f):
        total = 0
        for vol, rho, mu, _, _ in pieces:
            total += vol * rho * f(mu)
        return total

    assert gt.bayes_risk(model) == integral(lambda mu: min(mu, 1.0 - mu))
    for c in (0, 1):
        assert gt.risk_of_constant(model, c) == integral(
            lambda mu: abs(c - 1.0) * mu + abs(c) * (1.0 - mu))
    oracle = SimpleNamespace(d=model.d, name=model.name,
                             pieces=tuple(map(np.array, zip(*pieces))))
    for got, want in zip(model.pieces, oracle.pieces):
        assert np.array_equal(got, want)
    assert outcome(gt.bayes_tv, model) == outcome(gt.bayes_tv, oracle)


def test_cell_index_matches_oracle_on_slack_partitions():
    # the partition checks allow 1e-12 of slack: gaps no cell covers, thin
    # overlaps where the lowest id wins, and cells past the top face
    for cells in ([((0.0,), (0.5,)), ((0.5 + 1e-13,), (1.0,))],
                  [((0.0,), (0.5 + 1e-13,)), ((0.5,), (1.0,))],
                  [((0.5,), (1.0,)), ((0.0,), (0.5 + 1e-13,))],
                  [((0.0,), (0.5,)), ((0.5,), (1.0 + 5e-13,))],
                  [((0.0,), (0.5,)), ((0.5,), (1.0 - 5e-13,))]):
        model = gt.GroundTruthModel((0,), (1,), [(l, h, 1.0) for l, h in cells],
                                    [(l, h, 0.3) for l, h in cells])
        for v in (0.0, 0.5 - 1e-13, 0.5, 0.5 + 5e-14, 0.5 + 1e-13, 0.7,
                  1.0 - 5e-13, 1.0 - 1e-13, 1.0, 1.0 + 5e-13, 1.0 + 2e-12):
            assert_lookups_match_oracle(model, np.array([[v], [0.25]]))


def test_model_validation_errors():
    with pytest.raises(ValidationError):   # density does not integrate to 1
        gt.GroundTruthModel((0, 0), (1, 1), [((0, 0), (1, 1), 2.0)],
                            [((0, 0), (1, 1), 0.4)])
    with pytest.raises(ValidationError):   # mu exactly 1/2
        constant_mu_model(0.5)
    with pytest.raises(ValidationError):   # mu out of range
        constant_mu_model(1.2)
    with pytest.raises(ValidationError):   # nonpositive density
        gt.GroundTruthModel((0,), (1,), [((0,), (1,), 0.0)], [((0,), (1,), 0.4)])
    with pytest.raises(ValidationError):   # cells do not tile
        gt.GroundTruthModel((0, 0), (1, 1), [((0, 0), (0.5, 1), 2.0)],
                            [((0, 0), (1, 1), 0.4)])
    with pytest.raises(ValidationError):   # overlap
        gt.GroundTruthModel((0,), (1,),
                            [((0,), (0.7,), 1.0), ((0.3,), (1.0,), 0.42857142857142855)],
                            [((0,), (1,), 0.4)])


@pytest.mark.parametrize("cell", [((0, 0), (1,)), ((0,), (1, 1)), ((0, 0, 0), (1, 1, 1)),
                                  (0, 1), ((0, 0), 1)])
def test_cells_refuse_corners_of_another_dimension(cell):
    # a corner of the wrong length used to pass by broadcasting, then fail
    # the first lookup with an IndexError
    for dens, mu in (([(*cell, 1.0)], [((0, 0), (1, 1), 0.3)]),
                     ([((0, 0), (1, 1), 1.0)], [(*cell, 0.3)])):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            gt.GroundTruthModel((0, 0), (1, 1), dens, mu)


def one_d(lo=(0,), hi=(1,), rho=((0,), (1,), 1.0), mu=((0,), (1,), 0.3), name="m"):
    return gt.GroundTruthModel(lo, hi, [rho], [mu], name=name)


# a model built in code is held to the model JSON's rule: a bool or a string
# is never a number, and the constructor itself refuses each of these
BAD_MODELS = {
    "density value string": lambda: one_d(rho=((0,), (1,), "1")),
    "density value bool": lambda: one_d(rho=((0,), (1,), True)),
    "mu value string": lambda: one_d(mu=((0,), (1,), "0.3")),
    "mu value bool": lambda: one_d(mu=((0,), (1,), True)),
    "domain string": lambda: one_d(lo=("0",)),
    "domain bool": lambda: one_d(lo=(True,), hi=(2,), rho=((1,), (2,), 1.0), mu=((1,), (2,), 0.3)),
    "corner bool": lambda: one_d(mu=((False,), (1,), 0.3)),
    "corner string": lambda: one_d(rho=((0,), ("1",), 1.0)),
    "ragged mu partition": lambda: gt.GroundTruthModel(
        (0, 0), (1, 1), [((0, 0), (1, 1), 1.0)], [((0, 0), (0.5, 1), 0.3), ((0.5,), (1, 1), 0.6)]),
    "ragged mu corner": lambda: gt.GroundTruthModel(
        (0, 0), (1, 1), [((0, 0), (1, 1), 1.0)], [(((0, 0), (1,)), (1, 1), 0.3)]),
    "name": lambda: one_d(name=5),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_model_constructor_refuses_what_model_json_refuses(case):
    one_d()   # the unedited model builds
    with pytest.raises(ValidationError):
        BAD_MODELS[case]()


def test_sample_seed_is_an_int_or_a_tuple_of_ints():
    model = gt.quadrant_model()
    for seed in (None, True, -1, (1, -2), (1, True), 1.5, "a", [7, 1], ((7, 1), 2)):
        with pytest.raises(ValidationError):
            gt.sample(model, 2, seed)
    # the seeds taken draw the bits they always drew
    for seed, points in (
            (0, [[0.47156538101528966, 0.0914196711073687],
                 [0.9791345000654033, 0.25608390326933783]]),
            (np.int64(3), [[0.2098749737663479, 0.9616973920365175],
                           [0.9602116381055299, 0.7253784428643999]]),
            ((7, 1), [[0.7639735873046407, 0.6271176535208199],
                      [0.5424728624129731, 0.7814134189280717]])):
        assert gt.sample(model, 2, seed).points.tolist() == points


def test_model_json_round_trip(tmp_path):
    m = gt.asymmetric_model()
    p = tmp_path / "model.json"
    p.write_text(json.dumps({
        "name": "asymmetric", "domain": {"lo": [0, 0], "hi": [1, 1]},
        "density_cells": [{"lo": [0, 0], "hi": [1, 1], "value": 1.0}],
        "mu_cells": [{"lo": [0, 0], "hi": [0.6, 1], "value": 0.55},
                     {"lo": [0.6, 0], "hi": [1, 1], "value": 0.45}]}))
    m2 = gt.load_model(p)
    assert m2.name == "asymmetric"
    assert gt.bayes_risk(m2) == pytest.approx(gt.bayes_risk(m), abs=1e-15)
    x = np.array([[0.1, 0.9], [0.9, 0.9]])
    assert np.array_equal(gt.bayes_classify(m2, x), gt.bayes_classify(m, x))


def asymmetric_json():
    return {"name": "asymmetric", "domain": {"lo": [0, 0], "hi": [1, 1]},
            "density_cells": [{"lo": [0, 0], "hi": [1, 1], "value": 1.0}],
            "mu_cells": [{"lo": [0, 0], "hi": [0.6, 1], "value": 0.55},
                         {"lo": [0.6, 0], "hi": [1, 1], "value": 0.45}]}


@pytest.mark.parametrize("case", ["nan-mu", "nan-density", "top-key", "domain-key",
                                  "density-cell-key", "mu-cell-key"])
def test_model_json_rejects_nan_and_unknown_keys(tmp_path, case):
    obj = asymmetric_json()
    edit = {"nan-mu": lambda: obj["mu_cells"][1].update(value=float("nan")),
            "nan-density": lambda: obj["density_cells"][0].update(value=float("nan")),
            "top-key": lambda: obj.update(mu_typo=3),
            "domain-key": lambda: obj["domain"].update(lo_typo=[0, 0]),
            "density-cell-key": lambda: obj["density_cells"][0].update(weight=1),
            "mu-cell-key": lambda: obj["mu_cells"][0].update(values=0.55)}
    edit[case]()
    p = tmp_path / "model.json"
    p.write_text(json.dumps(obj))   # NaN is written as the bare token NaN
    with pytest.raises(ValidationError):
        gt.load_model(p)
    gt.model_from_dict(asymmetric_json())   # the unedited model loads


def test_model_checks_reject_nan_values():
    nan = float("nan")
    with pytest.raises(ValidationError):
        constant_mu_model(nan)
    with pytest.raises(ValidationError):
        gt.GroundTruthModel((0,), (1,), [((0,), (1,), nan)], [((0,), (1,), 0.4)])


def test_cloud_csv_round_trip(tmp_path):
    m = gt.quadrant_model()
    c = gt.sample(m, 200, 5)
    p = tmp_path / "cloud.csv"
    gt.save_cloud(c, p)
    c2 = gt.load_cloud(p)
    assert np.array_equal(c.points, c2.points)
    assert np.array_equal(c.labels, c2.labels)
    with open(p) as f:
        assert f.readline().strip() == "x0,x1,y"


def test_load_cloud_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError):
        gt.load_cloud(p)


def csv_module_load_cloud(path):
    # the reader load_cloud replaced: csv.reader, float() and int() per field
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or not rows[0] or rows[0][-1] != "y":
        raise ValidationError("dataset CSV must have header x0,...,y")
    d = len(rows[0]) - 1
    if [*rows[0][:d]] != ["x%d" % k for k in range(d)]:
        raise ValidationError("dataset CSV must have header x0,...,y")
    try:
        pts = np.array([[float(v) for v in r[:d]] for r in rows[1:]], dtype=float)
        labels = np.array([int(r[d]) for r in rows[1:]])
    except (ValueError, IndexError) as e:
        raise ValidationError("malformed dataset row: %s" % e) from None
    if pts.size == 0:
        raise ValidationError("dataset has no rows")
    return gt.LabeledCloud(pts, labels)


EDGE_VALUES = (0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-300, -1e300, 1.7976931348623157e308)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 40))
def test_load_cloud_matches_csv_module_oracle(tmp_path_factory, data, d, n):
    coords = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
    points = data.draw(arrays(float, (n, d), elements=coords))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    gt.save_cloud(gt.LabeledCloud(points, labels), path)
    got, want = gt.load_cloud(path), csv_module_load_cloud(path)
    for c in (got, want):
        assert c.points.shape == (n, d)
        assert np.array_equal(c.points.view(np.int64), points.view(np.int64))
        assert np.array_equal(c.labels, labels) and c.labels.dtype == np.int64


def csv_module_save_cloud(cloud, path):
    # the writer save_cloud replaced: csv.writer, one row per point
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x%d" % k for k in range(cloud.d)] + ["y"])
        for i in range(cloud.n):
            w.writerow(["%.17g" % v for v in cloud.points[i]] + [str(int(cloud.labels[i]))])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 40))
def test_save_cloud_matches_csv_module_oracle(tmp_path_factory, data, d, n):
    coords = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from(EDGE_VALUES + (-5e-324, -1e-300, 1e300)))
    cloud = gt.LabeledCloud(data.draw(arrays(float, (n, d), elements=coords)),
                            data.draw(arrays(np.int64, n, elements=st.integers(0, 1))))
    got, want = (tmp_path_factory.getbasetemp() / name for name in ("got.csv", "want.csv"))
    gt.save_cloud(cloud, got)
    csv_module_save_cloud(cloud, want)
    assert got.read_bytes() == want.read_bytes()


SAVE_BLOCK = 4096   # the number of rows save_cloud formats at a time


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [SAVE_BLOCK - 1, SAVE_BLOCK, SAVE_BLOCK + 1, 2 * SAVE_BLOCK + 3])
def test_save_cloud_block_boundaries_match_csv_module_oracle(tmp_path, n, d):
    rng = np.random.default_rng((n, d))
    points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
    edge = rng.random((n, d)) < 0.1
    points[edge] = rng.choice(EDGE_VALUES + (-5e-324, -1e-300, 1e300), edge.sum())
    cloud = gt.LabeledCloud(points, rng.integers(0, 2, n))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    gt.save_cloud(cloud, got)
    csv_module_save_cloud(cloud, want)
    assert got.read_bytes() == want.read_bytes()
    if n == 2 * SAVE_BLOCK + 3:
        back = gt.load_cloud(got)
        assert np.array_equal(back.points.view(np.int64), points.view(np.int64))
        assert np.array_equal(back.labels, cloud.labels)


# (file text, load_cloud accepts it, the csv-module oracle accepts it)
DATASET_CASES = {
    "blank-line": ("x0,y\n0.5,1\n\n0.25,0\n", False, False),
    "blank-last-line": ("x0,y\n0.5,1\n\n", False, False),
    "blank-first-row": ("x0,y\n\n0.5,1\n", False, False),
    "missing-label": ("x0,x1,y\n0.5,0.25,1\n0.5,0.25\n", False, False),
    "missing-field": ("x0,x1,y\n0.5,,1\n", False, False),
    "label-1.0": ("x0,y\n0.5,1.0\n", False, False),
    "label-2": ("x0,y\n0.5,2\n", False, False),
    "header-only": ("x0,x1,y\n", False, False),
    "header-no-newline": ("x0,x1,y", False, False),
    "empty-file": ("", False, False),
    "wrong-header": ("x0,x2,y\n0.5,0.25,1\n", False, False),
    "header-no-x": ("y\n1\n", False, False),
    "comment-row": ("x0,y\n0.5,1\n#0.25,0\n", False, False),
    "crlf": ("x0,x1,y\r\n0.5,0.25,1\r\n-3e-5,1e300,0\r\n", True, True),
    "spaces": ("x0,x1,y\n 0.5 , 0.25 , 1 \n-3e-5,1e300,0\n", True, True),
    "quoted": ('x0,x1,y\n"0.5","0.25","1"\n-3e-5,1e300,0\n', True, True),
    "nan": ("x0,x1,y\n0.5,nan,1\n", False, False),
    "inf": ("x0,x1,y\n-inf,0.25,1\n", False, False),
    "extra-field": ("x0,x1,y\n0.5,0.25,1,junk\n", False, True),
    "underscore": ("x0,x1,y\n1_0,0.25,1\n", False, True),
    "quoted-header": ('"x0","y"\n0.5,1\n', False, True),
}


@pytest.mark.parametrize("case", sorted(DATASET_CASES))
def test_load_cloud_malformed_table(tmp_path, case):
    text, accepted, oracle_accepted = DATASET_CASES[case]
    p = tmp_path / "case.csv"
    p.write_bytes(text.encode())

    def outcome(reader):
        try:
            return reader(p)
        except ValidationError:
            return None

    got, want = outcome(gt.load_cloud), outcome(csv_module_load_cloud)
    assert (got is not None, want is not None) == (accepted, oracle_accepted)
    if accepted:
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.labels, want.labels)
