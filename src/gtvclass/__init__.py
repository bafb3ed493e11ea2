"""Graph total variation regularized binary classification on point clouds.

Modules:
    kernels      radial kernel profiles, surface tension
    groundtruth  piecewise-constant data distributions, sampling, Bayes quantities
    graph        eps-neighborhood graphs, graph TV, connected components
    solver       exact (min-cut) and relaxed (primal-dual) minimizers, certificate
    metrics      risks, TL1 distances, infinity-transport distance, concentration diagnostic
    cli          command line driver for datasets, solves, and regime sweeps
"""


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


def read_text(path):
    """The text of a UTF-8 file. Bytes that do not decode are malformed
    input: a ValidationError, not a UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text: %s" % (path, exc)) from None


__version__ = "0.1.0"
