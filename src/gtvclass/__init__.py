"""Graph total variation regularized binary classification on point clouds.

Modules:
    kernels      radial kernel profiles, surface tension
    groundtruth  piecewise-constant data distributions, sampling, Bayes quantities
    graph        eps-neighborhood graphs, graph TV, connected components
    solver       exact (min-cut) and relaxed (primal-dual) minimizers, certificate
    metrics      risks, TL1 distances, infinity-transport distance, concentration diagnostic
    cli          command line driver for datasets, solves, and regime sweeps
"""

import json
import sys

import numpy as np


class ValidationError(ValueError):
    """Invalid argument or malformed input data."""


def check_keys(obj, keys, where):
    """obj, once it is a JSON object with no key outside keys; anything else
    is a ValidationError."""
    if not isinstance(obj, dict):
        raise ValidationError("%s must be a JSON object" % where)
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValidationError("%s has unknown keys %s" % (where, unknown))
    return obj


def json_value(kind):
    """Checker, called as check(value, name), that takes only a JSON value of
    one kind: str a string, dict an object, list an array. Numbers go
    through check_int and check_number instead."""
    def value_of(value, name):
        if not isinstance(value, kind):
            raise ValidationError("%s must be a JSON %s, got %r" % (name, kind.__name__, value))
        return value
    return value_of


def check_points(x, d=None, owner=None):
    """x as a float (n, d) array of finite coordinates, one row per point;
    d None takes any d. Any other shape, or a NaN or infinite coordinate, is
    a ValidationError, whose message names owner for a wrong d."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError("points must be an (n, d) array, got shape %s" % (x.shape,))
    if d is not None and x.shape[1] != d:
        raise ValidationError("%s has d = %d, points have d = %d" % (owner, d, x.shape[1]))
    if not np.isfinite(x).all():
        raise ValidationError("points must have finite coordinates")
    return x


def check_labels(y, n):
    """y as a float (n,) array, once it holds one value 0 or 1 per point,
    given as int, float or bool. Any other shape or value (0.5, 2, NaN, the
    string "1") is a ValidationError: the values are checked as given, so a
    string never passes for the number it spells."""
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValidationError("labels must be an (n,) array with n = %d, got shape %s"
                              % (n, y.shape))
    if y.dtype.kind not in "biuf" or not np.isin(y, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    return y.astype(float)


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
