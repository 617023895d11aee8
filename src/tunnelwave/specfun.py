"""Complex special functions used by the transient-transmission solver.

The central object is the Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``.
Evaluation is split by region: a Maclaurin series for ``|z| <= 2``,
Weideman's N = 48 rational approximation (SIAM J. Numer. Anal. 31, 1994;
coefficients fitted at import time) for ``2 < |z| < 150``, and the Laplace
continued fraction beyond.  The continued fraction takes only as many levels as
each argument's own ``|z|`` needs (3 at ``|z| = 150`` down to 1 beyond
``|z| = 1e4``), the tiered depth of Poppe & Wijers (ACM TOMS 16, 1990) and
Zaghloul & Ali (ACM TOMS 38, 2011), so a vector call and scalar calls give the
same values.  The lower half-plane is always reached through a single
application of the reflection identity ``w(z) = 2 exp(-z^2) - w(-z)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "faddeeva",
    "faddeeva_log_scaled",
]

_SQRT_PI = math.sqrt(math.pi)
_EXP_MAX = 709.0  # largest x with exp(x) finite in float64, with headroom
_EXP_FLOOR = -746.0  # below it exp(x) underflows to exactly 0 in float64


# ---------------------------------------------------------------------------
# region evaluators (upper half-plane only)
# ---------------------------------------------------------------------------

_N_SERIES = 100
_INV_GAMMA = np.array([1.0 / math.gamma(0.5 * n + 1.0) for n in range(_N_SERIES)])

# Radii of the three evaluation regions.  The series keeps w(0) exactly 1.
# Against a 40-digit reference the rational fit is within 1.7e-14 relative
# just outside |z| = 2 and 4e-16 from |z| = 7 to 150; from _R_CONTFRAC outward
# the continued fraction needs at most 3 levels.  See tests for the profile.
_R_SERIES = 2.0
_R_CONTFRAC = 150.0

# Continued-fraction depth by radius tier: from |z| = radius outward, `depth`
# levels keep the relative error within 3.5e-16 for every arg z in [0, pi]
# against a 40-digit reference.
_CF_TIERS = ((1e4, 1), (1e3, 2), (_R_CONTFRAC, 3))
# |z|^2 below which an element needs level m, at index m - 1
_CF_LEVEL_R2 = tuple(
    min((r for r, d in _CF_TIERS if d < m), default=math.inf) ** 2
    for m in range(1, max(d for _, d in _CF_TIERS) + 1)
)


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
    """Rational approximation for _R_SERIES < |z| < _R_CONTFRAC, Im z >= 0."""
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
    for m in range(len(_CF_LEVEL_R2), 0, -1):
        np.divide(0.5 * m, z - g, out=g, where=r2 < _CF_LEVEL_R2[m - 1])
    return (1j / _SQRT_PI) / (z - g)


def _w_upper(z, out=None):
    """Dispatch over the three regions; assumes Im z >= 0 elementwise.
    Writes into ``out`` when given."""
    r2 = z.real * z.real + z.imag * z.imag
    if out is None:
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


def _w_split(z, out=None):
    """w(z) for a 1-d array of finite z from one upper-half-plane evaluation,
    with the reflection term left out.  ``z`` is flipped into the upper
    half-plane in place, and ``w`` is written into ``out`` when given.

    Returns ``(w, refl, a)``.  ``w`` holds w(z) where Im z >= 0 and -w(-z)
    where Im z < 0.  ``refl`` holds the indices of the lower-half-plane
    elements whose reflection term ``2 exp(a)``, ``a = -z^2``, is not exactly
    zero, and ``a`` their exponents.  Adding ``2 exp(a)`` at ``refl`` gives
    w(z) everywhere.
    """
    lower = z.imag < 0.0
    np.negative(z, out=z, where=lower)
    w = _w_upper(z, out)
    np.negative(w, out=w, where=lower)
    # (-z)^2 is z^2 bit for bit.  Where Re(-z^2) < _EXP_FLOOR, 2 exp(-z^2) is
    # exactly zero, so skipping it changes no bit and takes no cos/sin of a
    # huge Im(z^2)
    sq = z * z
    refl = np.flatnonzero(lower & (sq.real <= -_EXP_FLOOR))
    return w, refl, -sq[refl]


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
    out, refl, a = _w_split(z_in.flatten())
    if np.any(a.real > _EXP_MAX):
        raise OverflowError(
            "exp(-z**2) exceeds the floating range; use faddeeva_log_scaled"
        )
    with np.errstate(under="ignore"):
        out[refl] += 2.0 * np.exp(a)
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
    w, refl, a = _w_split(z_in.flatten())
    logw = np.log(w)
    if len(refl):
        wref = w[refl]  # -w(-z)
        big = a.real > 650.0
        res = np.empty_like(a)
        with np.errstate(under="ignore"):
            # log w = a + log(2 - exp(-a) w(-z)); exp(-a) underflows harmlessly
            res[big] = a[big] + np.log(2.0 + np.exp(-a[big]) * wref[big])
            res[~big] = np.log(2.0 * np.exp(a[~big]) + wref[~big])
        logw[refl] = res
    if z_in.ndim == 0:
        val = complex(logw[0])
        return val.real, val.imag
    shaped = logw.reshape(z_in.shape)
    return shaped.real, shaped.imag
