import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelwave.specfun import (
    DomainTooSmallError,
    faddeeva,
    faddeeva_asymptotic,
    faddeeva_log_scaled,
    moshinsky,
)

# e * erfc(1), 50-digit series oracle, frozen
ERFCX_1 = 0.42758357615580700441075034192166661878239812379280


def w_reference(z, dps=50):
    """High-precision w(z) = exp(-z^2) erfc(-iz)."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        return complex(mp.exp(-zz * zz) * mp.erfc(-1j * zz))


def test_w_at_zero():
    assert faddeeva(0.0) == 1.0 + 0j


def test_w_at_i_matches_series_oracle():
    val = faddeeva(1j)
    assert abs(val - ERFCX_1) <= 1e-12
    assert abs(val.imag) <= 1e-15


def test_reflection_identity_spot():
    z = 1.0 + 1.0j
    lhs = faddeeva(z)
    rhs = 2.0 * cmath.exp(-z * z) - faddeeva(-z)
    assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("radius", [0.05, 0.5, 1.9, 2.5, 5.0, 6.9, 7.5, 10.0, 50.0, 500.0])
def test_accuracy_against_reference_upper_half_plane(radius):
    # contract: rel err <= 1e-12 for |z| <= 10, <= 1e-10 beyond
    tol = 1e-12 if radius <= 10.0 else 1e-10
    for theta in np.linspace(0.0, math.pi, 29):
        z = radius * cmath.exp(1j * theta)
        if z.imag < 0.0:
            z = complex(z.real, 0.0)
        ref = w_reference(z)
        assert abs(faddeeva(z) - ref) <= tol * abs(ref)


# radii across the rational region (7 to 80) and the lower radius of each
# continued-fraction depth tier (150, 1e3, 1e4)
_CF_TIER_RADII = [7.0, 15.0, 25.0, 40.0, 80.0, 150.0, 1e3, 1e4]


@pytest.mark.parametrize(
    "radius",
    [r for r0 in _CF_TIER_RADII for r in (r0, np.nextafter(r0, 0.0), r0 * (1.0 - 1e-9))],
)
def test_continued_fraction_tiers_at_full_precision(radius):
    # the rational fit holds 1e-14 out to |z| = 150, each continued-fraction
    # tier's depth from its lower radius outward, and the next deeper tier
    # (or the rational region below 150) just inside it
    thetas = np.concatenate([[1e-9, math.pi - 1e-9], np.linspace(0.0, math.pi, 25)])
    for theta in thetas:
        z = radius * cmath.exp(1j * theta)
        if z.imag < 0.0:
            z = complex(z.real, 0.0)
        ref = w_reference(z)
        assert abs(faddeeva(z) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("radius", [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)])
def test_series_and_rational_fit_meet_at_radius_two(radius):
    # the series ends and the rational fit starts at |z| = 2, the least
    # accurate seam of the upper half-plane (3.3e-14 measured)
    for theta in np.linspace(0.0, math.pi, 183):
        z = radius * cmath.exp(1j * theta)
        if z.imag < 0.0:
            z = complex(z.real, 0.0)
        ref = w_reference(z, dps=40)
        assert abs(faddeeva(z) - ref) <= 5e-14 * abs(ref)


def test_accuracy_lower_half_plane_where_representable():
    rng = np.random.default_rng(11)
    for _ in range(150):
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, -0.01))
        if (-(z * z)).real > 650.0:
            continue
        ref = w_reference(z)
        assert abs(faddeeva(z) - ref) <= 1e-10 * max(abs(ref), 1e-280)


def test_reflection_property_bulk():
    # 1e4 random draws with |z| <= 20 (subject to exp representability)
    rng = np.random.default_rng(3)
    z = rng.uniform(-20, 20, 10_000) + 1j * rng.uniform(-12, 12, 10_000)
    keep = (-(z * z)).real < 650.0
    z = z[keep]
    z = z[np.abs(z) <= 20.0]
    w_pos = faddeeva(z)
    w_neg = faddeeva(-z)
    resid = np.abs(w_pos + w_neg - 2.0 * np.exp(-z * z))
    assert np.all(resid <= 1e-10 * (1.0 + np.abs(w_pos)))


def test_real_axis_dawson_split():
    # Re w(x) = exp(-x^2) for real x; imaginary part is the Dawson integral
    with mp.workdps(50):
        for x in np.linspace(-5.0, 5.0, 41):
            val = faddeeva(float(x))
            assert abs(val.real - math.exp(-x * x)) <= 1e-12
            dawson = 2.0 / math.sqrt(math.pi) * float(mp.re(
                mp.exp(-mp.mpf(float(x)) ** 2) * mp.quad(
                    lambda t: mp.exp(t * t), [0, mp.mpf(float(x))])))
            assert abs(val.imag - dawson) <= 1e-11 * (1.0 + abs(dawson))


def test_overflow_raises_and_points_at_log_scaled():
    z = -1j * math.sqrt(800.0)
    with pytest.raises(OverflowError):
        faddeeva(z)


def test_vector_and_scalar_paths_agree():
    rng = np.random.default_rng(4)
    z = rng.uniform(-9, 9, 200) + 1j * rng.uniform(-6, 9, 200)
    # just below and at each region or tier boundary, in both half-planes
    radii = [r for r0 in (2.0, 150.0, 1e3, 1e4) for r in (np.nextafter(r0, 0.0), r0)]
    thetas = np.linspace(-math.pi, math.pi, 17)
    z = np.concatenate([z, (np.array(radii)[:, None] * np.exp(1j * thetas)).ravel()])
    fits = (-(z * z)).real < 650.0
    bulk = faddeeva(z[fits])
    single = np.array([faddeeva(complex(v)) for v in z[fits]])
    assert np.array_equal(bulk, single)
    # where 2 exp(-z^2) overflows, through the log-scaled form
    log_mag, phase = faddeeva_log_scaled(z)
    for i, v in enumerate(z):
        assert faddeeva_log_scaled(complex(v)) == (log_mag[i], phase[i])


class TestLogScaled:
    def test_zero(self):
        assert faddeeva_log_scaled(0.0) == (0.0, 0.0)

    def test_matches_plain_value(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(-8, 8), rng.uniform(-5, 8))
            if (-(z * z)).real > 600.0:
                continue
            mag, phase = faddeeva_log_scaled(z)
            rebuilt = math.exp(mag) * cmath.exp(1j * phase)
            ref = faddeeva(z)
            assert abs(rebuilt - ref) <= 1e-12 * abs(ref)

    def test_at_i(self):
        mag, phase = faddeeva_log_scaled(1j)
        assert abs(mag - math.log(ERFCX_1)) <= 1e-13
        assert abs(phase) <= 1e-15

    def test_deep_reflection_regime(self):
        # Re(-z^2) = 800: dominant branch gives log|w| = 800 + ln 2
        z = -1j * math.sqrt(800.0)
        mag, phase = faddeeva_log_scaled(z)
        assert math.isfinite(mag)
        assert abs(mag - (800.0 + math.log(2.0))) <= 1e-9
        assert abs(phase) <= 1e-12

    def test_underflowed_reflection_term_bit_equal(self):
        # where Re(-z^2) < -746, 2 exp(-z^2) is exactly zero in double
        # precision and the shortcut must not change a single bit
        rng = np.random.default_rng(12)
        mag = 10.0 ** rng.uniform(1.0, 6.0, 20_000)
        z = mag * np.exp(-1j * rng.uniform(0.0, math.pi, 20_000))
        a = -(z * z)
        keep = (a.real < -746.0) & (z.imag < 0.0)
        z, a = z[keep], a[keep]
        assert len(z) > 5_000
        with np.errstate(under="ignore"):
            want = np.log(2.0 * np.exp(a) - faddeeva(-z))
        log_mag, phase = faddeeva_log_scaled(z)
        assert np.array_equal(log_mag, want.real)
        assert np.array_equal(phase, want.imag)

    def test_vectorized(self):
        z = np.array([0.0, 1j, 2.0 - 30.0j])
        mag, phase = faddeeva_log_scaled(z)
        assert mag.shape == z.shape
        for i, v in enumerate(z):
            m_i, p_i = faddeeva_log_scaled(complex(v))
            assert m_i == mag[i] and p_i == phase[i]


class TestAsymptotic:
    def test_large_argument_second_quadrant(self):
        z = 10.0 * cmath.exp(0.75j * math.pi)
        approx = faddeeva_asymptotic(z, 2)
        exact = faddeeva(z)
        assert abs(approx - exact) <= 1e-4 * abs(exact)

    def test_very_large_argument_one_term(self):
        z = 100.0 * cmath.exp(0.75j * math.pi)
        approx = faddeeva_asymptotic(z, 1)
        exact = faddeeva(z)
        assert abs(approx - exact) <= 1e-4 * abs(exact)

    def test_term_count_validated(self):
        with pytest.raises(ValueError):
            faddeeva_asymptotic(10.0 + 1j, 0)
        with pytest.raises(ValueError):
            faddeeva_asymptotic(10.0 + 1j, 7)

    def test_small_argument_rejected(self):
        with pytest.raises(DomainTooSmallError):
            faddeeva_asymptotic(1.0 + 1j, 2)

    def test_match_over_upper_half_plane(self):
        for radius in (10.0, 20.0, 80.0):
            for theta in np.linspace(0.05, math.pi - 0.05, 15):
                z = radius * cmath.exp(1j * theta)
                approx = faddeeva_asymptotic(z, 3)
                exact = faddeeva(z)
                assert abs(approx - exact) <= 1e-4 * abs(exact)

    def test_lower_half_plane_includes_exponential_branch(self):
        z = 6.0 - 0.4j
        approx = faddeeva_asymptotic(z, 4)
        exact = faddeeva(z)
        assert abs(approx - exact) <= 1e-3 * abs(exact)


# mass and hbar in the nm/fs/eV system used throughout
_HBAR = 0.6582119569
_MASS = _HBAR**2 / (2.0 * (0.0380998 / 0.067))

_GL_N, _GL_W = np.polynomial.legendre.leggauss(16)


def moshinsky_quadrature(x, t, kappa, mass, hbar, half_width=14.0, panels=2500):
    """Direct momentum integral (i/2pi) int dk e^{ikx - i hbar k^2 t/2m}/(k-kappa)."""
    k_damp = math.sqrt(2.0 * mass / (hbar * (-t.imag)))
    edges = np.linspace(-half_width * k_damp, half_width * k_damp, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    ks = (mids[:, None] + half[:, None] * _GL_N[None, :]).ravel()
    ws = (half[:, None] * _GL_W[None, :]).ravel()
    f = np.exp(1j * ks * x - 0.5j * hbar * ks * ks * t / mass) / (ks - kappa)
    return 1j / (2.0 * math.pi) * complex(np.sum(ws * f))


class TestMoshinsky:
    def test_origin_value(self):
        assert moshinsky(0.0, 1.0, 0.0, _MASS, _HBAR) == pytest.approx(0.5)

    def test_matches_defining_integral(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(-3.0, 8.0)
            t = complex(rng.uniform(0.3, 4.0), -rng.uniform(0.4, 3.0))
            kappa = complex(rng.uniform(0.1, 1.5), -rng.uniform(0.05, 1.0))
            closed = moshinsky(x, t, kappa, _MASS, _HBAR)
            integral = moshinsky_quadrature(x, t, kappa, _MASS, _HBAR)
            assert abs(closed - integral) <= 1e-8 * abs(integral)

    def test_schwarz_reflection_pair(self):
        # conj M(x, t', kappa') = M(x, -conj t', -conj kappa'): the reflection
        # k -> -k of the defining integral.  (Conjugating t' alone flips the
        # sign of the quadratic phase and is not a symmetry.)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(-2.0, 5.0)
            t = complex(rng.uniform(0.3, 3.0), -rng.uniform(0.3, 2.0))
            kappa = complex(rng.uniform(0.1, 1.2), -rng.uniform(0.05, 0.8))
            lhs = moshinsky(x, -t.conjugate(), -kappa.conjugate(), _MASS, _HBAR)
            rhs = moshinsky(x, t, kappa, _MASS, _HBAR).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            moshinsky(1.0, complex(-1.0, 0.5), 0.2 - 0.1j, _MASS, _HBAR)

    def test_overflow_propagates(self):
        # deep upper-half-plane shift drives the exponential branch over range
        with pytest.raises(OverflowError):
            moshinsky(0.0, complex(10.0, -0.3), 60j, _MASS, _HBAR)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-15.0, 15.0),
    st.floats(0.0, 15.0),
)
def test_reflection_identity_property(re, im):
    z = complex(re, im)
    lhs = faddeeva(-z)
    rhs = 2.0 * cmath.exp(-z * z) - faddeeva(z)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
