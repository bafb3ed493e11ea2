"""Radial kernel profiles eta and their surface tension.

A profile is a non-increasing radial function eta(r) >= 0 with eta(0) = 1
and integral_0^inf eta(r) r^d dr finite. Shapes, with their CLI spellings:

    indicator (indicator):          eta(r) = 1 for r <= 1, else 0
    exponential (exp, exponential): eta(r) = exp(-r)
    gaussian (gauss, gaussian):     eta(r) = exp(-r^2/2)

The graph weighs pairs by eta_eps(x) = eps^-d eta(|x|/eps), so eps is the
only length scale: eta(r/s) at (eps, lambda) has the energy and certificate
of eta at (s eps, s^(d+1) lambda) and s^(d+1) times its surface tension, and
a constant factor on eta would only rescale lambda.

Profiles with unbounded support are truncated so that neighbor queries stay
finite, at 40 decay lengths for the exponential and 8 standard deviations
for the gaussian; the tail cut off is below double precision relative to
eta(0) for the exponential and ~1e-14 for the gaussian.
"""

import sys

import numpy as np
from scipy.special import gamma as _gamma, gammainc, gammaln

from . import ValidationError, _numbers, check_int

SUPPORT_RADIUS = {"indicator": 1.0, "exponential": 40.0, "gaussian": 8.0}
SHAPES = tuple(SUPPORT_RADIUS)

_SPELLINGS = {"indicator": "indicator", "exp": "exponential",
              "exponential": "exponential", "gauss": "gaussian",
              "gaussian": "gaussian"}


class KernelProfile:
    """Radial kernel profile named by a shape or its CLI spelling."""

    def __init__(self, shape):
        if shape not in _SPELLINGS:
            raise ValidationError(
                "unknown kernel %r (use indicator|exp|gauss; for the profile "
                "eta(r/s), scale eps by s and lambda by s^(d+1) instead)" % (shape,))
        self.shape = _SPELLINGS[shape]

    @property
    def support_radius(self):
        return SUPPORT_RADIUS[self.shape]


def eval(profile, r):
    """eta(r) for finite r >= 0, scalar or array (truncated profiles return 0 past support)."""
    r = _numbers(r, "kernel argument")
    if np.any(r < 0):
        raise ValidationError("kernel argument must be nonnegative")
    if profile.shape == "indicator":
        v = np.ones_like(r)
    elif profile.shape == "exponential":
        v = np.exp(-r)
    else:
        v = np.exp(-r * r / 2.0)
    v = np.where(r <= profile.support_radius, v, 0.0)
    return float(v) if v.ndim == 0 else v


def _angular_factor(d):
    # integral over the unit sphere S^{d-1} of |omega_1|, equal to twice the
    # volume of the unit ball in R^{d-1}
    return 2.0 * np.pi ** ((d - 1) / 2.0) / _gamma((d + 1) / 2.0)


# Gamma(d + 1), the largest factor of sigma_eta, is a float up to this d
_PRODUCT_MAX_D = 170


def surface_tension(profile, d):
    """sigma_eta = integral over R^d of eta(|h|) |h_1| dh.

    In radial-angular form this is A_d * integral_0^R eta(r) r^d dr with
    A_d the angular factor above and R the support radius. The radial
    integral of each truncated shape has a closed form, with P the
    regularized lower incomplete gamma function: 1/(d+1) for the indicator,
    Gamma(d+1) P(d+1, R) for the exponential and
    2^((d-1)/2) Gamma((d+1)/2) P((d+1)/2, R^2/2) for the gaussian.

    Up to d = 170 the product is taken as written. Past it Gamma(d+1)
    overflows, so the product is summed in logs (gammaln). There a sigma
    that over- or underflows a normal float, or whose factor P underflows,
    is a ValidationError naming d: from d = 345 for the exponential, 434
    for the indicator and 854 for the gaussian.
    """
    d = check_int(d, "d", 1)
    R = profile.support_radius
    if d <= _PRODUCT_MAX_D:
        A = _angular_factor(d)
        if profile.shape == "indicator":
            return A / (d + 1)
        if profile.shape == "exponential":
            return A * _gamma(d + 1) * gammainc(d + 1, R)
        k = (d + 1) / 2.0
        return A * 2.0 ** (k - 1.0) * _gamma(k) * gammainc(k, R * R / 2.0)
    try:
        sigma = _log_form(profile.shape, R, d)
    except OverflowError:   # d itself is beyond a float
        sigma = np.inf
    if not sys.float_info.min <= sigma < np.inf:
        raise ValidationError("sigma of the %s kernel at d = %d, or its incomplete-gamma "
                              "factor, leaves the float range" % (profile.shape, d))
    return float(sigma)


def _log_form(shape, R, d):
    # surface_tension's product as the exp of its summed logs: inf or below
    # the least normal float where it leaves the float range, 0 where P underflows
    k = (d + 1) / 2.0
    log_A = np.log(2.0) + (k - 1.0) * np.log(np.pi) - gammaln(k)
    if shape == "indicator":
        log_radial = -np.log(d + 1.0)
    else:
        a, x, log_c = ((d + 1.0, R, 0.0) if shape == "exponential"
                       else (k, R * R / 2.0, (k - 1.0) * np.log(2.0)))
        with np.errstate(divide="ignore"):
            log_radial = log_c + gammaln(a) + np.log(gammainc(a, x))
    with np.errstate(over="ignore"):
        return np.exp(log_A + log_radial)
