"""Complex special functions used by the transient-transmission solver.

The central object is the Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``.
Evaluation is split by region: a Maclaurin series near the origin, a rational
approximation (Weideman-style, coefficients fitted at import time) on a middle
annulus, and the Laplace continued fraction far out.  The continued fraction
takes only as many levels as each argument's own ``|z|`` needs (16 at
``|z| = 7`` down to 1 beyond ``|z| = 1e4``), the tiered depth of Poppe &
Wijers (ACM TOMS 16, 1990) and Zaghloul & Ali (ACM TOMS 38, 2011), so a vector
call and scalar calls give the same values.  The lower half-plane is always
reached through a single application of the reflection identity
``w(z) = 2 exp(-z^2) - w(-z)``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "DomainTooSmallError",
    "faddeeva",
    "faddeeva_asymptotic",
    "faddeeva_log_scaled",
    "moshinsky",
]

_SQRT_PI = math.sqrt(math.pi)
_EXP_MAX = 709.0  # largest x with exp(x) finite in float64, with headroom


class DomainTooSmallError(ValueError):
    """Argument magnitude below the validity radius of the asymptotic series."""


# ---------------------------------------------------------------------------
# region evaluators (upper half-plane only)
# ---------------------------------------------------------------------------

_N_SERIES = 100
_INV_GAMMA = np.array([1.0 / math.gamma(0.5 * n + 1.0) for n in range(_N_SERIES)])

# Radii of the three evaluation regions.  Chosen so the relative error against
# a 50-digit reference stays below 1e-13 on the whole upper half-plane; see
# tests for the measured profile.  Beyond _R_CONTFRAC the continued fraction's
# depth falls with |z| by the tiers below.
_R_SERIES = 2.0
_R_CONTFRAC = 7.0

# Continued-fraction depth by radius tier: from |z| = radius outward, `depth`
# levels keep the relative error at or below 2e-16 for every arg z in
# [0, pi] against a 40-digit reference (12 levels give 9e-16 at |z| = 7).
_CF_TIERS = ((1e4, 1), (1e3, 2), (150.0, 3), (40.0, 5), (15.0, 8), (_R_CONTFRAC, 16))
# |z|^2 below which an element needs level m, at index m - 1
_CF_LEVEL_R2 = tuple(
    min((r for r, d in _CF_TIERS if d < m), default=math.inf) ** 2
    for m in range(1, max(d for _, d in _CF_TIERS) + 1)
)
# levels 1.._CF_SHALLOW run in place over the whole array; deeper levels run
# only on the gathered elements that need them (|z| < 150, rare far out)
_CF_SHALLOW = 3


def _w_series(z):
    """Maclaurin series sum_n (iz)^n / Gamma(n/2 + 1), for |z| <= _R_SERIES."""
    iz = 1j * z
    out = np.full(z.shape, _INV_GAMMA[0], dtype=complex)
    term = np.ones_like(z)
    for n in range(1, _N_SERIES):
        term = term * iz
        contrib = _INV_GAMMA[n] * term
        out += contrib
        if n % 10 == 0 and np.max(np.abs(contrib)) < 1e-18:
            break
    return out


def _weideman_coeffs(n_terms):
    # Rational fit on the real line mapped to the unit disk; the FFT recovers
    # the expansion coefficients (Weideman's construction).
    big_l = math.sqrt(n_terms / math.sqrt(2.0))
    m = 2 * n_terms
    theta = np.arange(-m + 1, m) * math.pi / m
    t = big_l * np.tan(0.5 * theta)
    f = np.exp(-t * t) * (big_l * big_l + t * t)
    f = np.concatenate(([0.0], f))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2.0 * m)
    return big_l, a[1 : n_terms + 1][::-1]


_WEIDEMAN_N = 48
_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coeffs(_WEIDEMAN_N)


def _w_weideman(z):
    """Rational approximation on the middle annulus, Im z >= 0."""
    big_l = _WEIDEMAN_L
    iz = 1j * z
    denom = big_l - iz
    zm = (big_l + iz) / denom
    p = np.zeros_like(z)
    for c in _WEIDEMAN_A:
        p = p * zm + c
    return 2.0 * p / (denom * denom) + (1.0 / _SQRT_PI) / denom


def _w_contfrac(z, r2):
    """Laplace continued fraction for |z| >= _R_CONTFRAC, Im z >= 0.

    ``r2 = |z|^2``.  Level m of the backward recurrence updates only the
    elements whose radius tier needs it, so each element's value depends on
    its own ``|z|`` alone.
    """
    g = np.zeros_like(z)
    deep = r2 < _CF_LEVEL_R2[_CF_SHALLOW]
    if deep.any():
        zd, rd = z[deep], r2[deep]
        gd = np.zeros_like(zd)
        for m in range(len(_CF_LEVEL_R2), _CF_SHALLOW, -1):
            np.divide(0.5 * m, zd - gd, out=gd, where=rd < _CF_LEVEL_R2[m - 1])
        g[deep] = gd
    for m in range(_CF_SHALLOW, 0, -1):
        np.divide(0.5 * m, z - g, out=g, where=r2 < _CF_LEVEL_R2[m - 1])
    return (1j / _SQRT_PI) / (z - g)


def _w_upper(z):
    """Dispatch over the three regions; assumes Im z >= 0 elementwise."""
    r2 = z.real * z.real + z.imag * z.imag
    out = np.empty_like(z)
    small = r2 <= _R_SERIES * _R_SERIES
    big = r2 >= _R_CONTFRAC * _R_CONTFRAC
    mid = ~(small | big)
    if small.any():
        out[small] = _w_series(z[small])
    if mid.any():
        out[mid] = _w_weideman(z[mid])
    if big.any():
        out[big] = _w_contfrac(z[big], r2[big])
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for scalar or array z.

    Raises
    ------
    OverflowError
        If the reflection term ``2 exp(-z^2)`` (needed for Im z < 0) exceeds
        the double range.  Use :func:`faddeeva_log_scaled` there.
    """
    z_in = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_in)):
        raise ValueError("faddeeva requires finite arguments")
    zf = np.atleast_1d(z_in)
    out = np.empty_like(zf)
    lower = zf.imag < 0.0
    upper = ~lower
    if upper.any():
        out[upper] = _w_upper(zf[upper])
    if lower.any():
        zl = zf[lower]
        a = -(zl * zl)
        if np.any(a.real > _EXP_MAX):
            raise OverflowError(
                "exp(-z**2) exceeds the floating range; use faddeeva_log_scaled"
            )
        with np.errstate(under="ignore"):
            out[lower] = 2.0 * np.exp(a) - _w_upper(-zl)
    if z_in.ndim == 0:
        return complex(out[0])
    return out.reshape(z_in.shape)


def faddeeva_log_scaled(z):
    """Overflow-safe evaluation: returns ``(log|w(z)|, arg w(z))``.

    ``w(z) = exp(log_magnitude) * exp(i * phase)`` holds for every finite z;
    in the deep lower half-plane the dominant ``2 exp(-z^2)`` branch is kept
    in exponent space so the result never overflows.  The phase is not
    wrapped to (-pi, pi] when the quadratic exponent dominates.
    """
    z_in = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_in)):
        raise ValueError("faddeeva_log_scaled requires finite arguments")
    zf = np.atleast_1d(z_in)
    lower = zf.imag < 0.0
    # w(-z) for Im z < 0, w(z) elsewhere: one upper-half-plane evaluation
    w = _w_upper(np.where(lower, -zf, zf))
    # below exp's subnormal floor the reflection term 2 exp(-z^2) is exactly
    # zero, so log(-w(-z)) is bit-identical there and skips a cos/sin of a
    # huge Im(z^2)
    logw = np.log(np.where(lower, -w, w))
    refl = lower & ((-(zf * zf)).real >= -746.0)
    if refl.any():
        zl, wref = zf[refl], w[refl]
        a = -(zl * zl)
        big = a.real > 650.0
        res = np.empty_like(zl)
        with np.errstate(under="ignore"):
            # log w = a + log(2 - exp(-a) w(-z)); exp(-a) underflows harmlessly
            res[big] = a[big] + np.log(2.0 - np.exp(-a[big]) * wref[big])
            res[~big] = np.log(2.0 * np.exp(a[~big]) - wref[~big])
        logw[refl] = res
    if z_in.ndim == 0:
        val = complex(logw[0])
        return val.real, val.imag
    shaped = logw.reshape(z_in.shape)
    return shaped.real, shaped.imag


def faddeeva_asymptotic(z, n_terms):
    """Truncated large-|z| expansion of w(z); test companion to faddeeva,
    used by ``TestAsymptotic`` in ``tests/test_specfun.py``.

    The non-exponential part is ``(i/sqrt(pi)) sum_m c_m / z^(2m+1)`` with
    ``c_m = (2m-1)!!/2^m``; for Im z < 0 the reflection term ``2 exp(-z^2)``
    is added.
    """
    if not 1 <= int(n_terms) <= 6:
        raise ValueError("n_terms must lie in 1..6")
    zc = complex(z)
    if abs(zc) < 5.0:
        raise DomainTooSmallError("asymptotic series requires |z| >= 5")
    coeff = 1.0
    acc = 0j
    zp = 1.0 / zc
    z2 = zp * zp
    for m in range(int(n_terms)):
        acc += coeff * zp
        zp *= z2
        coeff *= (2 * m + 1) / 2.0
    out = 1j * acc / _SQRT_PI
    if zc.imag < 0.0:
        a = -(zc * zc)
        if a.real > _EXP_MAX:
            raise OverflowError("reflection term overflows for this argument")
        out += 2.0 * cmath.exp(a)
    return out


def moshinsky(x_shift, t_complex, kappa_shift, mass, hbar):
    """Transient-diffraction kernel M = (1/2) exp(i m x'^2 / 2 hbar t') w(i y').

    ``y' = exp(-i pi/4) sqrt(m / (2 hbar t')) (x' - hbar kappa' t' / m)`` with
    the principal square root.  Valid for Re(t') > 0 or Im(t') < 0, where the
    defining momentum integral converges; the quadratic phase is combined with
    the Faddeeva factor in exponent space so deep arguments cannot overflow.
    The paper's kernel, kept as a cross-check: ``TestMoshinsky`` in
    ``tests/test_specfun.py`` compares it with its defining momentum integral.
    """
    t = complex(t_complex)
    if not (t.real > 0.0 or t.imag < 0.0):
        raise ValueError("moshinsky requires Re(t') > 0 or Im(t') < 0")
    kappa = complex(kappa_shift)
    root = cmath.exp(-0.25j * math.pi) * cmath.sqrt(mass / (2.0 * hbar * t))
    y = root * (x_shift - hbar * kappa * t / mass)
    log_mag, phase = faddeeva_log_scaled(1j * y)
    exponent = 1j * mass * x_shift * x_shift / (2.0 * hbar * t) + complex(log_mag, phase)
    if exponent.real > _EXP_MAX:
        raise OverflowError("Moshinsky kernel exceeds the floating range")
    return 0.5 * cmath.exp(exponent)
