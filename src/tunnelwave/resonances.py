"""Resonance (outgoing-wave) states, residues, and the pole expansion of t(k).

A state at pole kappa is grown from u(0)=1, u'(0)=-i kappa through the layer
stack and rescaled by the square root of its non-Hermitian norm
integral_0^L u^2 dx + i (u(0)^2 + u(L)^2) / (2 kappa), which at a zero of
t22 is N = i u(L) exp(-i kappa L) t22'(kappa) (Garcia-Calderon and Peierls,
Nucl. Phys. A 265 (1976) 443).  So the residue u(0) u(L)/kappa of
t(k) exp(ikL)/(ik) is 1/(i kappa exp(-i kappa L) t22'(kappa)).

In the local plane-wave basis that start is ``(a, b) = (0, 1)``: one kernel
pass gives t22, t22' and u(L) = m12 + m22, so the residues, at all catalog
poles at once; the per-layer amplitudes the kernel records on request are
read only by :func:`resonance_state`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poles import _DEDUP_TOL, _freeze_columns
from .potential import _VECTOR, PoleProximityError, _phase, _second_column, residual_gate

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

_NORM_MIN = 1e-14
# (points x poles) elements per expansion_t block: two complex buffers of
# 256 KiB each, which stay in cache between the passes over a block
_CHUNK = 2**14


class NotAPoleError(ValueError):
    """The supplied wavenumber is no zero of t22 within the sweep's gate."""


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


def _boundary_values(profile, kappa, entries=None):
    """``(u0, u_l)`` of the normalized states at the poles of the 1-d array
    ``kappa``, appending the kernel's unscaled per-layer ``(a, b)`` to
    ``entries`` when it is a list.  Raises for the first pole, in array
    order, that fails a check, with the error of the first check it fails.
    """
    length = profile.length
    _, m12, m22, _, d22 = _second_column(
        profile, kappa, _VECTOR, with_prime=True, entries=entries
    )
    t_abs = np.abs(_phase(profile, kappa, _VECTOR) * m22)
    gate = residual_gate(length, kappa)
    u_end = m12 + m22
    # N = i u(L) exp(-i kappa L) t22'(kappa), with t22 = exp(i kappa L) m22
    norm = 1j * u_end * (1j * length * m22 + d22)

    bad_gate = t_abs > gate
    bad = bad_gate | (np.abs(norm) < _NORM_MIN)
    if np.any(bad):
        i = int(np.argmax(bad))
        kap = complex(kappa[i])
        if bad_gate[i]:
            raise NotAPoleError(
                f"|t22| = {t_abs[i]:.3e} exceeds gate {gate[i]:.3e} at {kap!r}"
            )
        raise NormalizationDegenerateError(f"|norm| = {abs(norm[i]):.3e} at {kap!r}")
    scale = 1.0 / np.sqrt(norm)
    return scale, u_end * scale


def resonance_state(profile, kappa):
    """Construct the normalized resonance state at a validated pole.

    The state is grown in the local plane-wave basis, ``u = a e^{iq xi} +
    b e^{-i q xi}`` per layer, which keeps the growing and decaying
    components separated for arbitrarily deep poles; the (u, u') form loses
    exp(2 |Im kappa| L) digits there.  The norm is the module's
    ``i u(L) exp(-i kappa L) t22'(kappa)``.

    Raises :class:`NotAPoleError` when ``|t22(kappa)|`` exceeds the (depth
    aware) gate of the pole sweep, and :class:`NormalizationDegenerateError`
    when the norm vanishes, where u(L) or t22' does.
    """
    kap = complex(kappa)
    entries = []
    u0, u_l = _boundary_values(profile, np.array([kap]), entries)
    coeffs = [(a * u0, b * u0) for a, b in entries]
    return ResonanceState(
        kappa=kap,
        u0=complex(u0[0]),
        u_l=complex(u_l[0]),
        coefficients=tuple((complex(a[0]), complex(b[0])) for a, b in coeffs),
    )


@dataclass(frozen=True)
class ResidueSet:
    """Residues r_n = u_n(0) u_n(L) / kappa_n aligned with a PoleCatalog.

    Non-finite values and arrays of unequal length are refused."""

    residues: np.ndarray
    u0: np.ndarray
    u_l: np.ndarray

    def __post_init__(self):
        _freeze_columns(self, dict.fromkeys(("residues", "u0", "u_l"), complex))

    def __len__(self):
        return len(self.residues)


def residues(profile, catalog):
    """Residue set for every catalog pole, from its state's u(0) and u(L)."""
    kappa = catalog.poles
    u0, u_l = _boundary_values(profile, kappa)
    return ResidueSet(residues=u0 * u_l / kappa, u0=u0, u_l=u_l)


def _pair_arrays(profile, catalog, residue_set, n_poles=None):
    """Poles and z_n = r_n exp(-i kappa_n L), ascending |kappa|, first n_poles."""
    n_cat = len(catalog)
    if len(residue_set) != n_cat:
        raise ValueError(
            f"residue set has {len(residue_set)} entries, catalog has {n_cat}; "
            "a residue set must be built from its catalog"
        )
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


def _pole_terms(profile, catalog, residue_set):
    """``(C, poles, coefs)`` over the catalog's (n, -n) pairs in ascending
    |kappa|: the kappa_n then their mirrors ``-conj(kappa_n)``, and
    ``z_n kappa_n`` then their conjugates, ``z_n = r_n exp(-i kappa_n L)``.
    C = i sum over +-n of z_n; each pair gives ``-2 Im z_n`` exactly, so C
    is real."""
    kap, z = _pair_arrays(profile, catalog, residue_set)
    coef = z * kap
    c_const = complex(-2.0 * float(np.sum(z.imag)), 0.0)
    return c_const, np.concatenate([kap, -np.conj(kap)]), np.concatenate([coef, np.conj(coef)])


def coefficient_C(profile, catalog, residue_set):
    """Potential-only constant C = i sum_n r_n exp(-i kappa_n L) over +-n,
    which is real (see :func:`_pole_terms`)."""
    return _pole_terms(profile, catalog, residue_set)[0]
