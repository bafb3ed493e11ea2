"""Graph total variation regularized binary classification on point clouds.

Modules:
    kernels      radial kernel profiles, surface tension
    groundtruth  piecewise-constant data distributions, sampling, Bayes quantities
    graph        eps-neighborhood graphs, graph TV, connected components
    solver       the exact min-cut minimizer, overfit certificate
    metrics      risks, TL1 distances, infinity-transport distance, concentration diagnostic
    cli          command line driver for datasets, solves, and regime sweeps

Min-cut is the package's solver. Primal-dual (PD) is kept only as the subject of the
pd_relax benchmark (ROADMAP item 16); its _pd_operator and _dual_bound also serve min-cut's gap.
"""

import json
import sys

import numpy as np


class ValidationError(ValueError):
    """Invalid argument or malformed input data."""


def json_value(kind):
    """Checker, called as check(value, name), of one kind of JSON value: str a
    string, dict an object, list an array; numbers go through check_int and check_number."""
    def value_of(value, name):
        if not isinstance(value, kind):
            raise ValidationError("%s must be a JSON %s, got %r" % (name, kind.__name__, value))
        return value
    return value_of


def _numbers(x, what, bools=False):
    """x as a float array of finite ints or floats, or of bools if bools; a string or object
    array, ragged rows, NaN, inf and, unless bools, any bool are ValidationErrors."""
    try:
        a = np.asarray(x)
    except ValueError:
        raise ValidationError("%s must be rows of equal length" % what) from None
    if a.dtype.kind not in ("biuf" if bools else "iuf") or (not bools and a is not x and not {
            bool, np.bool_}.isdisjoint(map(type, np.array(x, dtype=object).flat))):
        raise ValidationError("%s must be numbers, not %sstrings or objects"
                              % (what, "" if bools else "bools, "))
    if not np.isfinite(a).all():
        raise ValidationError("%s must be finite" % what)
    return a.astype(float, copy=False)


def check_points(x, d=None, what="points"):
    """x as a float (n, d) array of finite int or float coordinates, one row
    per point; d None takes any d. Any other shape or dtype (bool, string,
    object), a list holding a bool, ragged rows, or a NaN or infinite
    coordinate is a ValidationError, whose message names what is checked."""
    x = _numbers(x, what)
    if x.ndim != 2:
        raise ValidationError("%s must be an (n, d) array, got shape %s" % (what, x.shape))
    if d is not None and x.shape[1] != d:
        raise ValidationError("%s must have d = %d, got d = %d" % (what, d, x.shape[1]))
    return x


def check_values(u, n):
    """u as a float (n,) array, one finite number per node, under check_points' number rule."""
    u = _numbers(u, "node values")
    if u.shape != (n,):
        raise ValidationError("node values must be an (n,) array, n = %d, got %s" % (n, u.shape))
    return u


def check_labels(y, n):
    """y as a new float (n,) array, once it holds one value 0 or 1 per point, given as
    int, float or bool. Any other shape or value (0.5, 2, NaN, the string "1", ragged
    rows) is a ValidationError: a string never passes for the number it spells."""
    y = _numbers(y, "labels", bools=True)
    if y.shape != (n,):
        raise ValidationError("labels must be an (n,) array with n = %d, got shape %s"
                              % (n, y.shape))
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    return y.copy()


def check_int(value, name, lo):
    """value as an int, once it is an integer (a numpy one included, a bool
    never) of at least lo; anything else is a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValidationError("%s must be an integer >= %d, got %r" % (name, lo, value))
    return int(value)


def check_number(value, name, lo=-np.inf, hi=np.inf):
    """value as a float, once it is an int or float (numpy scalars included;
    a bool or a string is never a number) that is finite and strictly
    between lo and hi. Anything else, NaN and an int too large for a float
    included, is a ValidationError. eps and lambda take lo = 0: outside
    (0, inf) they give false energies and certificates, not an error."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (lo < value < hi and abs(value) <= sys.float_info.max)):
        rule = {(-np.inf, np.inf): "a finite number", (0, np.inf): "positive and finite"}
        raise ValidationError("%s must be %s, got %r" % (
            name, rule.get((lo, hi), "a number in (%g, %g)" % (lo, hi)), value))
    return float(value)


def read_field(record, key, kind, where):
    """kind(record[key], key); a missing, null or malformed field is a ValidationError."""
    try:
        value = record[key]
        if value is None:   # JSON null, or csv's fill for the fields a short row lacks
            raise KeyError(key)
        return kind(value, key)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("%s: missing or malformed %r (%s)" % (where, key, exc)) from None


def read_object(obj, kinds, where, **defaults):
    """{key: kinds[key](obj[key], key)} for a JSON object obj, absent keys
    taking defaults; not an object, or an unknown or absent key, is a
    ValidationError. The one reader of JSON objects."""
    if not isinstance(obj, dict):
        raise ValidationError("%s must be a JSON object" % where)
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise ValidationError("%s has unknown keys %s" % (where, unknown))
    obj = {**defaults, **obj}
    return {key: read_field(obj, key, kind, where) for key, kind in kinds.items()}


def read_text(path):
    """The text of a UTF-8 file. Bytes that do not decode are malformed
    input: a ValidationError, not a UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text: %s" % (path, exc)) from None


def read_json(path):
    """The JSON value in a UTF-8 file; text that is not JSON is a
    ValidationError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError("malformed JSON in %s: %s" % (path, exc)) from None


__version__ = "0.1.0"
