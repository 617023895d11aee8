"""Complex special functions used by the transient-transmission solver.

The central object is the Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``.
Evaluation is split into two regions: Weideman's N = 48 rational
approximation (SIAM J. Numer. Anal. 31, 1994; its fitted coefficients are a
literal table) for ``|z| < 150``, and the Laplace continued fraction beyond.
The continued fraction takes only as many levels as each argument's own ``|z|``
needs (3 at ``|z| = 150`` down to 1 beyond ``|z| = 1e4``), the tiered depth of
Poppe & Wijers (ACM TOMS 16, 1990) and Zaghloul & Ali (ACM TOMS 38, 2011), so a
vector call and scalar calls give the same values.  The lower half-plane is
reached through the reflection identity ``w(z) = 2 exp(-z^2) - w(-z)``
(Abramowitz & Stegun 7.1.11), as ``-w(-z)`` plus the reflection term.  The
continued fraction is odd bit for bit, so it gives ``-w(-z)`` at z itself
and no argument is negated for it.  Only the arguments the rational fit
takes are negated, since the fit holds in the upper half-plane alone, and
those with a zero real part: there ``(-0) - (-0) = +0`` in the continued
fraction breaks the symmetry in the sign of a zero.

Dispatch works in place over the argument array plus one work array of its
size.  Where every argument lies below ``|z| = 150`` the rational
approximation runs over the whole array, with no gather.  Otherwise the
continued fraction runs over the whole array, one masked update per level,
and only the arguments below 150 are gathered and sent to the rational
approximation.  No complex product is written over one of its own inputs,
since numpy rounds such a product of a one-element array differently, and a
point must get the same bits alone as in a call.
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
# region evaluators
# ---------------------------------------------------------------------------

# Radius between the two evaluation regions.  Against a 40-digit reference
# the rational fit is within 1.5e-15 relative below |z| = 7 and 4e-16 from
# |z| = 7 to 150; from _R_CONTFRAC outward the continued fraction needs at
# most 3 levels.  See tests for the profile.
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


# Weideman's N = 48 fit: L = sqrt(N / sqrt(2)) and the expansion
# coefficients, highest degree first as the Horner loop takes them.  They are
# the values of his construction (the real line mapped to the unit disk, the
# coefficients recovered by an FFT), written with repr so every bit is kept;
# the tests rebuild them and check them bit for bit
_WEIDEMAN_N = 48
_WEIDEMAN_L = 5.825901260487881
# as 0-d complex arrays, each Horner step adds its coefficient without first
# converting a scalar to a complex array, as it does for a float or a Python
# complex: the same bits, since a float is added as c + 0j either way, at a
# fixed cost per step that a pass over a few dozen arguments feels
_WEIDEMAN_A = tuple(np.array(c, dtype=complex) for c in (
    -3.700743415417188e-17, 3.908097080905041e-17, 8.913045359641251e-17,
    4.336469876763116e-17, 2.10357809007448e-17, 7.068313479639792e-20,
    3.859105048166247e-16, 7.253797548522926e-16, -1.8792328220691556e-15,
    -5.239158595095343e-15, 9.527536360754516e-15, 4.2342555584235587e-14,
    -3.1933415962846563e-14, -3.227757310972546e-13, -9.65501738984251e-14,
    2.2154187772000165e-12, 3.4253340904418414e-12, -1.1935451266839411e-11,
    -4.386586767527037e-11, 2.162200234796574e-11, 3.8794220773032034e-10,
    5.775289855479109e-10, -2.015659927316155e-09, -9.596254713078844e-09,
    -6.3868099289015055e-09, 6.927000636026076e-08, 2.654949200687094e-07,
    1.949433746724146e-07, -1.9445657790098968e-06, -9.475638240450828e-06,
    -1.905446161911202e-05, 1.7506316371117585e-05, 0.0003078691364088904,
    0.0014864991251956183, 0.005125813548225686, 0.014546837792237402,
    0.03586136998337668, 0.07895589553470005, 0.1578633044338047,
    0.2897998907960481, 0.49225702391399057, 0.7780624191484228,
    1.149220464539778, 1.5913084691178003, 2.0707599716742915,
    2.5370484874446904, 2.9304498956237564, 3.194064589395071,
))


def _w_weideman(z):
    """Rational approximation for |z| < _R_CONTFRAC, Im z >= 0, written over
    ``z``.  The Horner loop writes each product into a second buffer."""
    big_l = _WEIDEMAN_L
    zm, denom, q = np.empty((3,) + z.shape, dtype=complex)
    np.multiply(1j, z, out=zm)
    np.subtract(big_l, zm, out=denom)
    np.add(big_l, zm, out=zm)
    np.divide(zm, denom, out=zm)
    z.fill(0.0)
    for c in _WEIDEMAN_A:
        np.multiply(z, zm, out=q)
        np.add(q, c, out=z)
    np.multiply(2.0, z, out=q)
    np.multiply(denom, denom, out=zm)
    np.divide(q, zm, out=z)
    np.divide(1.0 / _SQRT_PI, denom, out=q)
    return np.add(z, q, out=z)


def _w_contfrac(z, levels, g):
    """Laplace continued fraction for |z| >= _R_CONTFRAC, Im z >= 0, written
    over ``z`` with ``g`` as the work array.

    ``levels[m - 1]`` masks the elements whose radius tier needs level m, so
    each element's value depends on its own ``|z|`` alone.
    """
    # the deepest level divides z itself: z - 0 is z bit for bit
    g.fill(0.0)
    np.divide(0.5 * len(levels), z, out=g, where=levels[-1])
    for m in range(len(levels) - 1, 0, -1):
        np.subtract(z, g, out=g, where=levels[m - 1])
        np.divide(0.5 * m, g, out=g, where=levels[m - 1])
    np.subtract(z, g, out=g)
    return np.divide(1j / _SQRT_PI, g, out=z)


def _w_near(z):
    """The rational fit written over ``z``: w(z) where Im z >= 0 and -w(-z)
    where Im z < 0, since the fit holds in the upper half-plane alone."""
    lower = z.imag < 0.0
    # phi0's arguments all lie in the upper half-plane: no masked pass
    if not lower.any():
        return _w_weideman(z)
    np.negative(z, out=z, where=lower)
    _w_weideman(z)
    return np.negative(z, out=z, where=lower)


def _w_upper(z, work=None):
    """Dispatch over the two regions: w(z) where Im z >= 0 and -w(-z) where
    Im z < 0.

    Overwrites ``z`` with the values and returns it; ``work``, a complex
    array of ``z``'s shape, serves as scratch when given.  Where every
    element lies below |z| = _R_CONTFRAC, the rational approximation runs
    over the whole array.  Otherwise the continued fraction runs over the
    whole array at z itself, and the elements below _R_CONTFRAC are
    gathered before it and get the rational approximation after it.  The
    continued fraction is odd bit for bit except where Re z is zero: there
    a zero in the value may have the other sign than in -w(-z).
    """
    if work is None:
        work = np.empty_like(z)
    r2, im2 = work.view(float).reshape(2, -1)
    np.multiply(z.real, z.real, out=r2)
    np.multiply(z.imag, z.imag, out=im2)
    r2 += im2
    near = np.flatnonzero(r2 < _R_CONTFRAC * _R_CONTFRAC)
    if len(near) == len(z):
        return _w_near(z)
    z_near = z[near]
    levels = [True if b == math.inf else r2 < b for b in _CF_LEVEL_R2]
    # the near elements get values here too, overwritten below; parked at
    # |z| = _R_CONTFRAC they raise no division or overflow warnings
    z[near] = _R_CONTFRAC
    _w_contfrac(z, levels, work)
    if len(near):
        z[near] = _w_near(z_near)
    return z


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _w_split(z, work=None):
    """w(z) for a 1-d array of finite z, with the reflection term left out.
    ``w`` is written over ``z``, and ``work``, a complex array of ``z``'s
    shape, serves as scratch when given.

    Returns ``(w, refl, a)``.  ``w`` holds w(z) where Im z >= 0 and -w(-z)
    where Im z < 0.  ``refl`` holds the indices of the lower-half-plane
    elements whose reflection term ``2 exp(a)``, ``a = -z^2``, is not exactly
    zero, and ``a`` their exponents.  Adding ``2 exp(a)`` at ``refl`` gives
    w(z) everywhere.

    ``_w_upper`` gives -w(-z) at z itself, save the sign of a zero where
    Re z is zero.  Those lower-half-plane elements are all in ``refl``, with
    ``a.imag == 0``, so they are found without a pass over ``z``; the
    elements so found are evaluated again at -z and negated.
    """
    if work is None:
        work = np.empty_like(z)
    # (-z)^2 is z^2 bit for bit.  Where Re(-z^2) < _EXP_FLOOR, 2 exp(-z^2) is
    # exactly zero, so skipping it changes no bit and takes no cos/sin of a
    # huge Im(z^2)
    sq = np.multiply(z, z, out=work)
    refl = np.flatnonzero((z.imag < 0.0) & (sq.real <= -_EXP_FLOOR))
    a = sq[refl]
    np.negative(a, out=a)
    axis = refl[a.imag == 0.0]
    z_axis = np.negative(z[axis])
    w = _w_upper(z, work)
    if len(axis):
        w[axis] = np.negative(_w_upper(z_axis))
    return w, refl, a


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
