import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelwave.specfun import faddeeva, faddeeva_log_scaled

# e * erfc(1), 50-digit series oracle, frozen
ERFCX_1 = 0.42758357615580700441075034192166661878239812379280


def w_reference(z, dps=50):
    """High-precision w(z) = exp(-z^2) erfc(-iz)."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        return complex(mp.exp(-zz * zz) * mp.erfc(-1j * zz))


def test_w_at_zero():
    # the rational fit gives w(0) = 1 - 2.2e-16, real to the last bit
    val = faddeeva(0.0)
    assert val.imag == 0.0
    assert abs(val - 1.0) <= 4e-15


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


@pytest.mark.parametrize(
    "radius", [0.0, 1e-6, 0.5, 1.0, 1.5, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]
)
def test_rational_fit_on_inner_disc(radius):
    # the rational fit serves |z| <= 2 too, z = 0 included (1.44e-15
    # measured, at |z| = 1e-6)
    for theta in np.linspace(0.0, math.pi, 183):
        z = radius * cmath.exp(1j * theta)
        if z.imag < 0.0:
            z = complex(z.real, 0.0)
        ref = w_reference(z, dps=40)
        assert abs(faddeeva(z) - ref) <= 4e-15 * abs(ref)


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


@pytest.mark.parametrize("func", [faddeeva, faddeeva_log_scaled])
@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_non_finite_argument_rejected(func, z):
    with pytest.raises(ValueError, match="requires finite arguments"):
        func(z)
    with pytest.raises(ValueError, match="requires finite arguments"):
        func(np.array([1.0, z]))


def test_vector_and_scalar_paths_agree():
    rng = np.random.default_rng(4)
    z = rng.uniform(-9, 9, 200) + 1j * rng.uniform(-6, 9, 200)
    # just below and at |z| = 2 and each region or tier boundary, in both
    # half-planes
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


def bits(values):
    """The raw bit patterns of float or complex values: equal bits, signed
    zeros included."""
    return np.ascontiguousarray(values).view(np.uint64)


def _ring(rng, n, r_lo, r_hi):
    # log-uniform radii, uniform angles in both half-planes
    radius = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n))
    return radius * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


# zero components with either sign, and the imaginary axis, where w is real
_SIGNED_ZEROS = np.array([
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(-0.0, 1.0), complex(-0.0, 5.0), complex(0.0, -5.0),
    complex(-0.0, 300.0), complex(0.0, 300.0), complex(-0.0, -30.0),
])


def _tier_arrays():
    rng = np.random.default_rng(21)
    far = _ring(rng, 300, 150.0, 1e5)
    rational = _ring(rng, 300, 2.0, 150.0)
    few_near = np.concatenate([_ring(rng, 3, 0.1, 2.0), _ring(rng, 3, 2.0, 150.0)])
    few_far = np.concatenate([_ring(rng, 3, 150.0, 1e5), [np.nextafter(150.0, 0.0), 150.0]])
    arrays = {
        "all-contfrac": far,
        "all-rational": rational,
        "mostly-contfrac": rng.permutation(np.concatenate([far, few_near, _SIGNED_ZEROS])),
        "mostly-rational": rng.permutation(np.concatenate([rational, few_far, _SIGNED_ZEROS])),
    }
    for name, z in list(arrays.items()):
        arrays[f"{name}-len1"] = z[:1]
        arrays[f"{name}-len2"] = z[:2]
    # two-element arrays with one element in each of two regions; "series"
    # lies in |z| <= 2, the inner disc of the rational region
    regions = {"series": 1.5j + 0.2, "rational": 20.0 - 40.0j, "contfrac": -300.0 + 2e3j}
    for a, b in [("contfrac", "series"), ("contfrac", "rational"), ("rational", "contfrac"),
                 ("series", "rational")]:
        arrays[f"{a}+{b}"] = np.array([regions[a], regions[b]])
    return arrays


_TIER_ARRAYS = _tier_arrays()


@pytest.mark.parametrize("z", _TIER_ARRAYS.values(), ids=_TIER_ARRAYS.keys())
def test_bulk_equals_one_element_calls_across_tiers(z):
    # the continued fraction runs in place over a whole array with the rest
    # gathered, or the rational fit runs over a whole array; either way every
    # element must come out as when it is evaluated alone, bit for bit
    log_mag, phase = faddeeva_log_scaled(z)
    singles = np.array([faddeeva_log_scaled(complex(v)) for v in z])
    assert np.array_equal(bits(log_mag), bits(singles[:, 0]))
    assert np.array_equal(bits(phase), bits(singles[:, 1]))
    fits = z[(-(z * z)).real < 650.0]
    single = np.array([faddeeva(complex(v)) for v in fits], dtype=complex)
    assert np.array_equal(bits(faddeeva(fits)), bits(single))


class TestLogScaled:
    def test_zero(self):
        mag, phase = faddeeva_log_scaled(0.0)
        assert phase == 0.0
        assert abs(mag) <= 4e-15

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
        # precision and the shortcut must not change a single bit, in the
        # linear and in the log-scaled form
        rng = np.random.default_rng(12)
        mag = 10.0 ** rng.uniform(1.0, 6.0, 20_000)
        z = mag * np.exp(-1j * rng.uniform(0.0, math.pi, 20_000))
        a = -(z * z)
        keep = (a.real < -746.0) & (z.imag < 0.0)
        z, a = z[keep], a[keep]
        assert len(z) > 5_000
        with np.errstate(under="ignore"):
            linear = 2.0 * np.exp(a) - faddeeva(-z)
        assert np.array_equal(faddeeva(z), linear)
        want = np.log(linear)
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
