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
    p = KernelProfile("indicator")
    assert kernels.eval(p, 0.5) == 1.0
    assert kernels.eval(p, 1.5) == 0.0


def test_eval_exponential_at_zero_is_one():
    p = KernelProfile("exponential")
    assert kernels.eval(p, 0.0) == 1.0


def test_eval_negative_r_rejected():
    p = KernelProfile("indicator")
    with pytest.raises(ValidationError):
        kernels.eval(p, -0.1)


def test_bad_profile_rejected():
    with pytest.raises(ValidationError):
        KernelProfile("triangle")
    # a profile scale s is eps * s and lambda * s^(d+1); the message says so
    for text in ("gauss:scale=0.5", "exp:width=2", "indicator:"):
        with pytest.raises(ValidationError, match=r"scale eps by s and lambda by s\^\(d\+1\)"):
            KernelProfile(text)


def test_surface_tension_indicator_closed_forms():
    p = KernelProfile("indicator")
    assert kernels.surface_tension(p, 1) == pytest.approx(1.0, rel=1e-6)
    assert kernels.surface_tension(p, 2) == pytest.approx(4.0 / 3.0, rel=1e-6)
    assert kernels.surface_tension(p, 3) == pytest.approx(np.pi / 2.0, rel=1e-6)


# each truncated shape written out by hand, with its truncation radius
ETA = {"indicator": (lambda r: np.where(r <= 1.0, 1.0, 0.0), 1.0),
       "exponential": (lambda r: np.where(r <= 40.0, np.exp(-r), 0.0), 40.0),
       "gaussian": (lambda r: np.where(r <= 8.0, np.exp(-r * r / 2.0), 0.0), 8.0)}


def radial_quad(shape, d, s=1.0):
    # integral_0^(s R) eta(r/s) r^d dr by adaptive quadrature
    eta, R = ETA[shape]
    val, _ = quad(lambda r: eta(r / s) * r ** d, 0.0, s * R, epsabs=1e-14, limit=200)
    return val


def test_surface_tension_matches_quadrature_of_truncated_kernel():
    for shape in SHAPES_CYCLE:
        p = KernelProfile(shape)
        assert p.support_radius == ETA[shape][1]
        for d in (1, 2, 3):
            assert kernels.surface_tension(p, d) == pytest.approx(
                angular(d) * radial_quad(shape, d), rel=1e-13, abs=0.0)


def test_surface_tension_exponential_analytic():
    # untruncated integral: A_d * Gamma(d+1); the tail past 40 decay
    # lengths is below 1e-13 relative at d <= 3
    p = KernelProfile("exponential")
    for d in (1, 2, 3):
        exact = angular(d) * gamma_fn(d + 1)
        assert kernels.surface_tension(p, d) == pytest.approx(exact, rel=1e-12)


def test_surface_tension_gaussian_analytic():
    # integral_0^inf exp(-r^2/2) r^d dr = 2^((d-1)/2) Gamma((d+1)/2); the
    # tail past 8 standard deviations is below 1e-12 relative at d <= 3
    p = KernelProfile("gaussian")
    for d in (1, 2, 3):
        exact = angular(d) * 2.0 ** ((d - 1) / 2.0) * gamma_fn((d + 1) / 2.0)
        assert kernels.surface_tension(p, d) == pytest.approx(exact, rel=1e-12)


def test_monotone_nonincreasing_on_grid():
    rng = np.random.Generator(np.random.Philox(5))
    r = np.linspace(0, 5, 400)
    for _ in range(20):
        shape = SHAPES_CYCLE[rng.integers(3)]
        # eta(r/s): a profile scale is a rescaled argument
        p, s = KernelProfile(shape), float(rng.uniform(0.1, 2.0))
        # discarded draw: it keeps the stream, so the instances stay as recorded
        rng.uniform(0.1, 3.0)
        v = kernels.eval(p, r / s)
        assert np.all(np.diff(v) <= 1e-15)


SHAPES_CYCLE = ("indicator", "exponential", "gaussian")


def test_scaled_mass_independent_of_eps():
    # integral of eta_eps over R^d does not depend on eps
    sphere = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}
    for shape in SHAPES_CYCLE:
        p = KernelProfile(shape)
        for d in (1, 2):
            vals = []
            for eps in (0.9 * 0.7, 0.9 * 1.3):
                f = lambda r: kernels.eval(p, r / eps) / eps ** d * r ** (d - 1)
                m, _ = quad(f, 0, p.support_radius * eps, epsabs=1e-10, limit=400)
                vals.append(sphere[d] * m)
            assert abs(vals[0] - vals[1]) <= 1e-4 * abs(vals[1])


def test_kernel_spellings():
    for text, shape in (("indicator", "indicator"), ("exp", "exponential"),
                        ("exponential", "exponential"), ("gauss", "gaussian"),
                        ("gaussian", "gaussian")):
        assert KernelProfile(text).shape == shape
    for text in ("box", "Gauss", "exp:scale=abc", ""):
        with pytest.raises(ValidationError):
            KernelProfile(text)


def reference_energy_and_smax(pts, y, u, eps, lam, eta):
    # O(n^2) energy and overfit bound max_i s_i over every ordered pair,
    # diagonal included, for a kernel given as a function of |x_i - x_j|/eps
    n, d = pts.shape
    diff = pts[:, None, :] - pts[None, :, :]
    W = eta(np.sqrt((diff * diff).sum(axis=2)) / eps)
    c = lam / (n * eps ** (d + 1))
    e = c / n * float(np.sum(W * np.abs(u[:, None] - u[None, :]))) + float(np.abs(u - y).mean())
    return e, 2.0 * c * float(W.sum(axis=1).max())


def test_profile_scale_is_an_eps_and_lambda_map():
    # eta(r/s) at (eps, lambda) is eta at (s eps, s^(d+1) lambda): energy,
    # overfit bound and surface tension, for every shape
    from gtvclass.graph import build
    from gtvclass.solver import certify_overfit, energy

    rng = np.random.Generator(np.random.Philox(8))
    for shape in SHAPES_CYCLE:
        eta, _ = ETA[shape]
        for d in (1, 2, 3):
            for s in (0.3, 1.9):
                n = int(rng.integers(20, 60))
                pts = rng.random((n, d))
                y, u = rng.integers(0, 2, n), rng.random(n)
                eps = float(rng.uniform(0.1, 0.5))
                _, smax1 = reference_energy_and_smax(pts, y, u, eps, 1.0,
                                                     lambda r: eta(r / s))
                # lambda puts the overfit bound between 1/2 and 2
                lam = float(rng.uniform(0.5, 2.0)) / smax1
                e_ref, smax = reference_energy_and_smax(pts, y, u, eps, lam,
                                                        lambda r: eta(r / s))
                g = build(pts, s * eps, KernelProfile(shape))
                lam_s = s ** (d + 1) * lam
                assert energy(g, y, lam_s, u) == pytest.approx(e_ref, rel=1e-12, abs=0.0)
                ok, margin = certify_overfit(g, lam_s)
                assert 1.0 - margin == pytest.approx(smax, rel=1e-12, abs=0.0)
                assert ok == (smax < 1.0)
                assert s ** (d + 1) * kernels.surface_tension(KernelProfile(shape), d) \
                    == pytest.approx(angular(d) * radial_quad(shape, d, s), rel=1e-12, abs=0.0)
