"""Graph total variation regularized binary classification on point clouds.

Modules:
    kernels      radial kernel profiles, surface tension
    groundtruth  piecewise-constant data distributions, sampling, Bayes quantities
    graph        eps-neighborhood graphs, graph TV, connected components
    solver       exact (min-cut) and relaxed (primal-dual) minimizers, certificate
    metrics      risks, TL1 distances, infinity-transport distance, concentration diagnostic
    cli          command line driver for datasets, solves, and regime sweeps
"""

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
    """Converter that takes only a JSON value of one kind: str a string, dict
    an object, list an array, float a finite number. A bool is none of them,
    and neither is the NaN, Infinity or overflowing 1e400 that Python's json
    reads."""
    types = (int, float) if kind is float else kind
    def value_of(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError("expected a JSON %s, got %r" % (kind.__name__, value))
        value = kind(value)
        if kind is float and not np.isfinite(value):
            raise ValueError("%r is not finite" % value)
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


def check_positive(value, name):
    """value as a float, once it is positive and finite; anything else, NaN
    included, is a ValidationError. A scale such as eps or lambda outside
    (0, inf) gives false energies and certificates, not an error."""
    if not (0 < value < np.inf):
        raise ValidationError("%s must be positive and finite" % name)
    return float(value)


def read_text(path):
    """The text of a UTF-8 file. Bytes that do not decode are malformed
    input: a ValidationError, not a UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text: %s" % (path, exc)) from None


__version__ = "0.1.0"
