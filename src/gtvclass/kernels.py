"""Radial kernel profiles eta and their surface tension.

A profile is a non-increasing radial function eta(r) >= 0 with
integral_0^inf eta(r) r^d dr finite. Supported shapes:

    indicator(scale):    eta(r) = 1 for r <= scale, else 0
    exponential(scale):  eta(r) = exp(-r/scale)
    gaussian(scale):     eta(r) = exp(-r^2/(2 scale^2))

eta(0) = 1 for every shape; a constant factor on eta would only rescale lambda.

Profiles with unbounded support are truncated at a finite radius so that
neighbor queries stay finite: 40 scale lengths for the exponential and
8 standard deviations for the gaussian. The truncated tail is below double
precision relative to eta(0) for the exponential and ~1e-14 for the
gaussian; the truncation radius is recorded on the profile and reported
by the CLI.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from . import ValidationError

SHAPES = ("indicator", "exponential", "gaussian")

EXP_TRUNC = 40.0
GAUSS_TRUNC = 8.0


class KernelProfile:
    """Radial kernel profile with a finite support radius."""

    def __init__(self, shape, scale=1.0):
        if shape not in SHAPES:
            raise ValidationError("unknown kernel shape %r" % (shape,))
        if not (scale > 0):
            raise ValidationError("scale must be positive")
        self.shape = shape
        self.scale = float(scale)

    @property
    def support_radius(self):
        if self.shape == "indicator":
            return self.scale
        if self.shape == "exponential":
            return EXP_TRUNC * self.scale
        return GAUSS_TRUNC * self.scale


def eval(profile, r):
    """eta(r) for scalar or array r >= 0 (truncated profiles return 0 past support)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValidationError("kernel argument must be nonnegative")
    s = profile.scale
    if profile.shape == "indicator":
        v = np.where(r <= s, 1.0, 0.0)
    elif profile.shape == "exponential":
        v = np.exp(-r / s)
    else:
        v = np.exp(-r * r / (2.0 * s * s))
    v = np.where(r <= profile.support_radius, v, 0.0)
    return float(v) if v.ndim == 0 else v


def _angular_factor(d):
    # integral over the unit sphere S^{d-1} of |omega_1|, equal to twice the
    # volume of the unit ball in R^{d-1}
    return 2.0 * np.pi ** ((d - 1) / 2.0) / _gamma((d + 1) / 2.0)


def surface_tension(profile, d):
    """sigma_eta = integral over R^d of eta(|h|) |h_1| dh.

    In radial-angular form this is A_d * integral_0^inf eta(r) r^d dr with
    A_d the angular factor above. The indicator has the closed form
    A_d * scale^(d+1) / (d+1); other shapes use adaptive
    quadrature on [0, support_radius] with 1e-8 absolute tolerance.
    """
    if d < 1 or int(d) != d:
        raise ValidationError("dimension must be a positive integer")
    A = _angular_factor(d)
    if profile.shape == "indicator":
        return A * profile.scale ** (d + 1) / (d + 1)
    val, _ = quad(lambda r: eval(profile, r) * r ** d, 0.0,
                  profile.support_radius, epsabs=1e-8, limit=200)
    return A * val


_SHAPE_ALIASES = {"indicator": "indicator", "exp": "exponential",
                  "exponential": "exponential", "gauss": "gaussian",
                  "gaussian": "gaussian"}


def parse_kernel(text):
    """Parse a CLI kernel flag: indicator|exp|gauss with optional :scale=<float>."""
    name, _, rest = text.partition(":")
    if name not in _SHAPE_ALIASES:
        raise ValidationError("unknown kernel %r (use indicator|exp|gauss)" % (text,))
    scale = 1.0
    if rest:
        key, _, val = rest.partition("=")
        if key != "scale":
            raise ValidationError("unknown kernel option %r" % (rest,))
        try:
            scale = float(val)
        except ValueError:
            raise ValidationError("bad kernel scale %r" % (val,)) from None
    return KernelProfile(_SHAPE_ALIASES[name], scale=scale)
