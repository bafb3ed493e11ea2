import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from gtvclass import ValidationError
from gtvclass import kernels
from gtvclass.kernels import KernelProfile


def angular(d):
    # independent form of the angular factor: 2 * vol of unit ball in R^(d-1)
    return 2.0 * np.pi ** ((d - 1) / 2.0) / gamma_fn((d + 1) / 2.0)


def test_eval_indicator_inside_outside():
    p = KernelProfile("indicator", scale=1.0)
    assert kernels.eval(p, 0.5) == 1.0
    assert kernels.eval(p, 1.5) == 0.0


def test_eval_exponential_at_zero_is_one():
    p = KernelProfile("exponential", scale=0.3)
    assert kernels.eval(p, 0.0) == 1.0


def test_eval_negative_r_rejected():
    p = KernelProfile("indicator")
    with pytest.raises(ValidationError):
        kernels.eval(p, -0.1)


def test_bad_profile_rejected():
    with pytest.raises(ValidationError):
        KernelProfile("triangle")
    with pytest.raises(ValidationError):
        KernelProfile("indicator", scale=0.0)
    with pytest.raises(ValidationError):
        KernelProfile("indicator", scale=float("nan"))


def test_surface_tension_indicator_closed_forms():
    p = KernelProfile("indicator")
    assert kernels.surface_tension(p, 1) == pytest.approx(1.0, rel=1e-6)
    assert kernels.surface_tension(p, 2) == pytest.approx(4.0 / 3.0, rel=1e-6)
    assert kernels.surface_tension(p, 3) == pytest.approx(np.pi / 2.0, rel=1e-6)


def test_surface_tension_quadrature_matches_indicator_closed_form():
    for scale in (1.0, 0.5, 1.9):
        p = KernelProfile("indicator", scale=scale)
        for d in (1, 2, 3):
            closed = angular(d) * scale ** (d + 1) / (d + 1)
            val, _ = quad(lambda r: kernels.eval(p, r) * r ** d, 0.0,
                          p.support_radius, epsabs=1e-10, limit=200)
            assert angular(d) * val == pytest.approx(closed, rel=1e-6)
            assert kernels.surface_tension(p, d) == pytest.approx(closed, rel=1e-12)


def test_surface_tension_exponential_analytic():
    # untruncated integral: A_d * s^(d+1) * Gamma(d+1); the tail past
    # 40 scale lengths is ~1e-16 relative
    for s in (0.25, 1.0):
        p = KernelProfile("exponential", scale=s)
        for d in (1, 2, 3):
            exact = angular(d) * s ** (d + 1) * gamma_fn(d + 1)
            assert kernels.surface_tension(p, d) == pytest.approx(exact, rel=1e-6)


def test_surface_tension_gaussian_analytic():
    # integral_0^inf exp(-r^2/(2 s^2)) r^d dr = 2^((d-1)/2) s^(d+1) Gamma((d+1)/2)
    for s in (0.5, 2.0):
        p = KernelProfile("gaussian", scale=s)
        for d in (1, 2, 3):
            exact = angular(d) * 2.0 ** ((d - 1) / 2.0) * s ** (d + 1) * gamma_fn((d + 1) / 2.0)
            assert kernels.surface_tension(p, d) == pytest.approx(exact, rel=1e-6)


def test_monotone_nonincreasing_on_grid():
    rng = np.random.Generator(np.random.Philox(5))
    r = np.linspace(0, 5, 400)
    for _ in range(20):
        shape = SHAPES_CYCLE[rng.integers(3)]
        p = KernelProfile(shape, scale=float(rng.uniform(0.1, 2.0)))
        # discarded draw: it keeps the stream, so the instances stay as recorded
        rng.uniform(0.1, 3.0)
        v = kernels.eval(p, r)
        assert np.all(np.diff(v) <= 1e-15)


SHAPES_CYCLE = ("indicator", "exponential", "gaussian")


def test_scaled_mass_independent_of_eps():
    # integral of eta_eps over R^d does not depend on eps
    sphere = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}
    for shape in SHAPES_CYCLE:
        p = KernelProfile(shape, scale=0.9)
        for d in (1, 2):
            vals = []
            for eps in (0.7, 1.3):
                f = lambda r: kernels.eval(p, r / eps) / eps ** d * r ** (d - 1)
                m, _ = quad(f, 0, p.support_radius * eps, epsabs=1e-10, limit=400)
                vals.append(sphere[d] * m)
            assert abs(vals[0] - vals[1]) <= 1e-4 * abs(vals[1])


def test_parse_kernel():
    p = kernels.parse_kernel("exp:scale=0.25")
    assert p.shape == "exponential" and p.scale == 0.25
    assert kernels.parse_kernel("indicator").shape == "indicator"
    assert kernels.parse_kernel("gauss").shape == "gaussian"
    with pytest.raises(ValidationError):
        kernels.parse_kernel("box")
    with pytest.raises(ValidationError):
        kernels.parse_kernel("exp:width=2")
    with pytest.raises(ValidationError):
        kernels.parse_kernel("exp:scale=abc")
