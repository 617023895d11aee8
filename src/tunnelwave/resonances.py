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

A system's pole terms are built in one place, :func:`_pole_record`, and
kept for as long as its residue set lives: :func:`expansion_t`,
:func:`coefficient_C` and ``evolution`` read them.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """Residues r_n = u_n(0) u_n(L) / kappa_n aligned with a PoleCatalog.

    Non-finite values and arrays of unequal length are refused; a set
    equals and hashes as itself only (``eq=False``), so it can key a cache."""

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


def _check_pole_proximity(k, kap, tol):
    """Raise :class:`PoleProximityError`, naming the first such ``k`` and
    its pole, when any ``k`` lies within ``tol`` of a pole or of its mirror
    ``-conj(kappa)``.

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
    near = poles[lo[which_k] + offset]
    hit = np.abs(k[which_k] - near) < tol
    if hit.any():
        # which_k ascends, so the first hit is the first offending k; the
        # poles lie in the fourth quadrant, their mirrors in the third
        i = int(np.argmax(hit))
        kind = "mirror pole" if near[i].real < 0.0 else "pole"
        raise PoleProximityError(
            f"k = {complex(k[which_k[i]])!r} is within {tol:.3g} of the {kind} "
            f"{complex(near[i])!r}"
        )


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

    The poles and z_n are the first ``n_poles`` of the system's cached
    :func:`_pole_record`.  Raises ``ValueError`` for a non-finite ``k``, for
    an ``n_poles`` that is not an integer in 1..N and where the record does.
    """
    k_arr = np.asarray(k, dtype=complex)
    if not np.all(np.isfinite(k_arr)):
        raise ValueError("expansion_t requires a finite k")
    record = _pole_record(profile, catalog, residue_set)
    n_cat = len(catalog)
    try:
        n = n_cat if n_poles is None else operator.index(n_poles)
    except TypeError:
        n = 0  # not an integer: refused below
    if not 1 <= n <= n_cat:
        raise ValueError(f"n_poles must be an integer in 1..{n_cat}, got {n_poles!r}")
    kap, z = record.poles[:n], record.z[:n]
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


class _PoleRecord(NamedTuple):
    """One system's pole terms in ascending |kappa|: the kappa_n then their
    mirrors ``-conj(kappa_n)``, ``z_n = r_n exp(-i kappa_n L)``, ``z_n
    kappa_n`` then their conjugates, and the largest log-modulus of those
    coefficients.  C = i sum over +-n of z_n; each pair gives ``-2 Im z_n``
    exactly, so C is real."""

    c_const: complex
    poles: np.ndarray
    coefs: np.ndarray
    z: np.ndarray
    max_log_coef: float


# per residue set, the profile and catalog its record was built for, and the
# record; an entry goes when its residue set does
_records = weakref.WeakKeyDictionary()


def _pole_record(profile, catalog, residue_set):
    """The :class:`_PoleRecord` of a system, built on its first use and
    returned, with read-only arrays, to every later call with the same
    residue set object, an equal profile and the same catalog object.  The
    entry lives as long as its residue set, which it does not hold.  Raises
    ``ValueError``, and keeps nothing, unless the residue set has one entry
    per pole and the catalog was swept for ``profile``."""
    entry = _records.get(residue_set)
    if entry is not None and entry[1] is catalog and entry[0] == profile:
        return entry[2]
    if len(residue_set) != len(catalog):
        raise ValueError(
            f"residue set has {len(residue_set)} entries, catalog has {len(catalog)}; "
            "a residue set must be built from its catalog"
        )
    catalog.require_profile(profile)
    order = np.argsort(np.abs(catalog.poles))
    kap = catalog.poles[order]
    z = residue_set.residues[order] * np.exp(-1j * kap * profile.length)
    coef = z * kap
    poles = np.concatenate([kap, -np.conj(kap)])
    coefs = np.concatenate([coef, np.conj(coef)])
    for arr in (poles, coefs, z):
        arr.flags.writeable = False  # shared by every caller through the memo
    c_const = complex(-2.0 * float(np.sum(z.imag)), 0.0)
    record = _PoleRecord(c_const, poles, coefs, z, float(np.max(np.log(coef).real)))
    _records[residue_set] = (profile, catalog, record)
    return record


def coefficient_C(profile, catalog, residue_set):
    """Potential-only constant C = i sum_n r_n exp(-i kappa_n L) over +-n,
    which is real (see :class:`_PoleRecord`)."""
    return _pole_record(profile, catalog, residue_set).c_const
