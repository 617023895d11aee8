"""Resonance (outgoing-wave) states, residues, and the pole expansion of t(k).

A state at pole kappa is grown from u(0)=1, u'(0)=-i kappa through the layer
stack, checked against the outgoing condition at x=L, then rescaled by the
square root of the non-Hermitian norm

    integral_0^L u^2 dx + i (u(0)^2 + u(L)^2) / (2 kappa) = 1.

In the local plane-wave basis that start is ``(a, b) = (0, 1)``, so the
state's layer amplitudes are the second column of the partial transfer
matrices: the same kernel that gives t22 grows every state.  One vector pass
over the layers builds the states at all catalog poles at once, with the
|t22| gate, the right-boundary check, the closed-form layer integrals of u^2
and the scaling; :func:`resonance_state` is that pass for one pole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poles import _DEDUP_TOL
from .potential import _VECTOR, PoleProximityError, _second_column, residual_gate

__all__ = [
    "NormalizationDegenerateError",
    "NotAPoleError",
    "ResidueSet",
    "ResonanceState",
    "coefficient_C",
    "expansion_t",
    "residues",
    "resonance_state",
]

_BC_RTOL = 1e-8
_NORM_MIN = 1e-14
_EPS = np.finfo(float).eps
# (points x poles) elements per expansion_t block: two complex buffers of
# 256 KiB each, which stay in cache between the passes over a block
_CHUNK = 2**14


class NotAPoleError(ValueError):
    """The supplied wavenumber does not satisfy the outgoing conditions."""


class NormalizationDegenerateError(ArithmeticError):
    """The non-Hermitian norm is numerically zero; state cannot be scaled."""


@dataclass(frozen=True)
class ResonanceState:
    """Normalized outgoing state: boundary values and per-layer coefficients."""

    kappa: complex
    u0: complex
    u_l: complex
    # (A_j, B_j) for u = A e^{i q xi} + B e^{-i q xi} per layer, with q the
    # principal root of kappa^2 - V_j/c, negated where Re kappa < 0
    coefficients: tuple
    norm_residual: float


def _states(profile, kappa, initial_scale=1.0):
    """Normalized outgoing states at every pole of the 1-d array ``kappa``.

    Returns ``(u0, u_l, coefficients, norm_residual)``: arrays over the poles,
    ``coefficients`` a list of per-layer ``(A_j, B_j)`` array pairs.  Raises
    for the first pole, in array order, that fails a check, with the error
    of the first check it fails.
    """
    length = profile.length
    entries = []
    _, m12, m22, _, _ = _second_column(profile, kappa, _VECTOR, entries=entries)
    t_abs = np.abs(np.exp(1j * kappa * length) * m22)
    gate = residual_gate(length, kappa)
    # u'(L) - i kappa u(L) = -2 i kappa b, so b is the incoming contamination
    b_end = initial_scale * m22
    u_end = initial_scale * m12 + b_end
    bc_gate = np.maximum(
        _BC_RTOL, 32.0 * _EPS * np.exp(np.minimum(-kappa.imag * length, 690.0))
    )
    coeffs = []
    norm = 0j
    for (a, b, q, ep), (width, _) in zip(entries, profile.layers):
        a, b = initial_scale * a, initial_scale * b
        coeffs.append((a, b))
        a_out, b_out = a * ep, b / ep
        norm = norm + (
            (a_out * a_out - a * a) / (2j * q)
            + 2.0 * a * b * width
            + (b * b - b_out * b_out) / (2j * q)
        )
    u_start = initial_scale
    norm = norm + 1j * (u_start * u_start + u_end * u_end) / (2.0 * kappa)

    bad_gate = t_abs > gate
    bad_bc = 2.0 * np.abs(b_end) > bc_gate * np.abs(u_end)
    bad_norm = np.abs(norm) < _NORM_MIN
    bad = bad_gate | bad_bc | bad_norm
    if np.any(bad):
        i = int(np.argmax(bad))
        kap = complex(kappa[i])
        if bad_gate[i]:
            raise NotAPoleError(
                f"|t22| = {t_abs[i]:.3e} exceeds gate {gate[i]:.3e} at {kap!r}"
            )
        if bad_bc[i]:
            raise NotAPoleError(
                f"right-boundary incoming amplitude {abs(b_end[i]):.3e} vs |u(L)| "
                f"{abs(u_end[i]):.3e} at {kap!r}"
            )
        raise NormalizationDegenerateError(f"|norm| = {abs(norm[i]):.3e} at {kap!r}")
    scale = 1.0 / np.sqrt(norm)
    norm_residual = np.abs(norm * scale * scale - 1.0)
    coeffs = [(a * scale, b * scale) for a, b in coeffs]
    return u_start * scale, u_end * scale, coeffs, norm_residual


def resonance_state(profile, kappa, initial_scale=1.0):
    """Construct the normalized resonance state at a validated pole.

    The state is grown in the local plane-wave basis, ``u = a e^{iq xi} +
    b e^{-i q xi}`` per layer, which keeps the growing and decaying
    components separated for arbitrarily deep poles; the (u, u') form loses
    exp(2 |Im kappa| L) digits there.  Layer integrals of u^2 use only the
    bounded entry/exit amplitudes.

    Raises :class:`NotAPoleError` when ``|t22(kappa)|`` exceeds the (depth
    aware) gate or the right boundary fails the outgoing condition, and
    :class:`NormalizationDegenerateError` when the norm integral vanishes.
    """
    kap = complex(kappa)
    if initial_scale == 0:
        raise ValueError("initial_scale must be nonzero")
    u0, u_l, coeffs, norm_residual = _states(
        profile, np.array([kap]), complex(initial_scale)
    )
    return ResonanceState(
        kappa=kap,
        u0=complex(u0[0]),
        u_l=complex(u_l[0]),
        coefficients=tuple((complex(a[0]), complex(b[0])) for a, b in coeffs),
        norm_residual=float(norm_residual[0]),
    )


@dataclass(frozen=True)
class ResidueSet:
    """Residues r_n = u_n(0) u_n(L) / kappa_n aligned with a PoleCatalog."""

    residues: np.ndarray
    u0: np.ndarray
    u_l: np.ndarray

    def __post_init__(self):
        for name in ("residues", "u0", "u_l"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.residues)


def residues(profile, catalog):
    """Residue set for every catalog pole, from normalized resonance states."""
    kappa = catalog.poles
    u0, u_l, _, _ = _states(profile, kappa)
    return ResidueSet(residues=u0 * u_l / kappa, u0=u0, u_l=u_l)


def _pair_arrays(profile, catalog, residue_set, n_poles=None):
    """Poles and z_n = r_n exp(-i kappa_n L), ascending |kappa|, first n_poles."""
    n_cat = len(catalog)
    if n_poles is None:
        n_poles = n_cat
    if not 1 <= n_poles <= n_cat:
        raise ValueError(f"n_poles must lie in 1..{n_cat}")
    order = np.argsort(np.abs(catalog.poles))[:n_poles]
    kap = catalog.poles[order]
    z = residue_set.residues[order] * np.exp(-1j * kap * profile.length)
    return kap, z


def _check_pole_proximity(k, kap, tol):
    """Raise :class:`PoleProximityError` when any ``k`` lies within ``tol``
    of a pole or of its mirror ``-conj(kappa)``.

    Only poles whose real part is near ``Re k`` can be that close, so the
    2N poles are sorted by real part and each k tests just the candidates in
    ``Re k +- 2 tol``; the window is twice ``tol`` so that the rounding of
    its ends never drops a pole the exact test would catch.
    """
    poles = np.concatenate([kap, -np.conj(kap)])
    poles = poles[np.argsort(poles.real)]
    lo = np.searchsorted(poles.real, k.real - 2.0 * tol, side="left")
    hi = np.searchsorted(poles.real, k.real + 2.0 * tol, side="right")
    counts = hi - lo
    if not counts.any():
        return
    which_k = np.repeat(np.arange(len(k)), counts)
    # position of each candidate within its own k's window
    offset = np.arange(len(which_k)) - np.repeat(np.cumsum(counts) - counts, counts)
    if np.any(np.abs(k[which_k] - poles[lo[which_k] + offset]) < tol):
        raise PoleProximityError("k is within dedup_tol of a pole")


def expansion_t(profile, k, catalog, residue_set, n_poles=None):
    """Pole expansion of the transmission amplitude, paired over (n, -n).

    ``t(k) = i k sum_n r_n exp(-i kappa_n L) / (k - kappa_n)`` with the mirror
    poles entering as ``kappa_{-n} = -conj(kappa_n)``, ``r_{-n} exp(...) =
    -conj(r_n exp(...))``; each (n, -n) pair is accumulated together in
    ascending |kappa| order, which keeps every truncation time-reversal clean.

    A pair costs one complex division:
    ``z/(k - kappa) - conj(z)/(k + conj(kappa)) = (2 Re(z conj(kappa)) +
    2i k Im z) / ((k - kappa)(k + conj(kappa)))``, the denominator kept as
    that product, which does not cancel as ``k^2 - 2ik Im kappa - |kappa|^2``
    can.  The (points x poles) block is evaluated ``_CHUNK`` elements at a
    time in two reused buffers.
    """
    kap, z = _pair_arrays(profile, catalog, residue_set, n_poles)
    k_arr = np.asarray(k, dtype=complex)
    flat = np.atleast_1d(k_arr).ravel()
    _check_pole_proximity(flat, kap, _DEDUP_TOL)
    kap_bar = np.conj(kap)
    a = 2.0 * (z * kap_bar).real
    b = 2j * z.imag
    rows = max(1, _CHUNK // max(len(kap), 1))
    den = np.empty((min(rows, len(flat)), len(kap)), dtype=complex)
    num = np.empty_like(den)
    out = np.empty_like(flat)
    for i in range(0, len(flat), rows):
        kk = flat[i : i + rows, None]
        d, n = den[: len(kk)], num[: len(kk)]
        np.subtract(kk, kap, out=d)
        np.add(kk, kap_bar, out=n)
        d *= n
        np.multiply(kk, b, out=n)
        n += a
        n /= d
        out[i : i + rows] = 1j * kk[:, 0] * np.sum(n, axis=1)
    if k_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(k_arr.shape)


def coefficient_C(profile, catalog, residue_set, n_poles=None):
    """Potential-only constant C = i sum_n r_n exp(-i kappa_n L) over +-n.

    Each (n, -n) pair contributes ``-2 Im z_n`` exactly, so C is real.
    """
    _, z = _pair_arrays(profile, catalog, residue_set, n_poles)
    return complex(-2.0 * float(np.sum(z.imag)), 0.0)
