"""Piecewise-constant 1-D potentials and their transfer matrices.

The profile lives on [0, L] as an ordered stack of constant layers.  The
transfer matrix relates plane-wave coefficients ``(A, B)`` of
``A exp(ikx) + B exp(-ikx)`` on the left to ``(F, G)`` on the right, in the
global phase convention, so the transmission amplitude is ``t(k) = 1/t22``.

Internally the matrix is composed from interface and in-layer propagation
factors in the local plane-wave basis, ``diag(exp(iqw), exp(-iqw))``.  That
keeps the growing and decaying exponentials separated, so ``t22`` stays
relatively accurate deep in the lower half k-plane where the resonance poles
sit (the (u, u') similarity-transform construction loses exp(2|Im k|L) digits
there).  The composed ``t22`` is independent of the branch chosen for each
layer wavevector; the principal root is used, negated where Re k < 0, so
that q follows k and two neighbouring wavevectors never nearly cancel in
``q_a + q_b``, which the interface coefficient
``g = (V_a - V_b) / (2c q_b (q_a + q_b))`` divides by.  That form of
``g = (1 - q_a/q_b)/2`` does not cancel at high energy.

At a layer branch point (E = V_j, q_j = 0) ``t22`` is analytic, but the
local basis degenerates: ``g`` divides by ``q_j``.  The kernel evaluates
every point where some ``|q_j| < _Q_MIN`` at ``k (1 + 1e-9)`` instead, the
phase ``exp(ikL)`` and the derivative included, and every other point as
given.  Only ``k ~ 0`` (below ``_K_MIN``, or still at the branch point of
a layer of height ~ 0, such as a well, after the move) and an overflowing
factor raise.

One kernel, ``_second_column``, runs the layer recursion for a single
complex k (cmath) and for arrays of k (numpy).  It propagates only the
second column ``(m12, m22)``, which is all that ``t22``, its derivative and
the resonance states read; the derivative is carried only when asked for.
Wavevectors, interface coefficients and propagation factors are evaluated
once per distinct height, neighbouring pair of heights and (height, width)
layer (``PotentialProfile.layer_plan``) and shared by the layers that use
them.
``transfer_matrix`` takes the first column from the second one at -k.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

__all__ = [
    "HBAR_EV_FS",
    "HBAR2_OVER_2ME_EV_NM2",
    "NegativeEnergyError",
    "PoleProximityError",
    "PotentialProfile",
    "TransferMatrix",
    "UnitSystem",
    "ZeroWavenumberError",
    "t22",
    "t22_with_prime",
    "transfer_matrix",
    "transmission_amplitude",
    "transmission_coefficient",
]

HBAR_EV_FS = 0.6582119569
HBAR2_OVER_2ME_EV_NM2 = 0.0380998

_Q_MIN = 1e-7  # nm^-1; smaller layer wavevectors make interface ratios ill-conditioned
_K_MIN = 1e-12
_EXP_MAX = 700.0
_EPS = np.finfo(float).eps
# the pole sweep's residual gate on |t22| for shallow poles (residual_gate)
_RESIDUAL_TOL = 1e-10


class NegativeEnergyError(ValueError):
    """Energy argument outside the E >= 0 domain."""


class ZeroWavenumberError(ValueError):
    """Transfer matrices are singular at k = 0."""


class PoleProximityError(ArithmeticError):
    """Evaluation point is too close to a transmission pole."""


@dataclass(frozen=True)
class UnitSystem:
    """nm / fs / eV unit bundle for a fixed effective-mass ratio."""

    mass_ratio: float
    # fixed, like the HBAR2_OVER_2ME_EV_NM2 behind inv_mass_coeff
    hbar: ClassVar[float] = HBAR_EV_FS

    def __post_init__(self):
        if not 0.0 < self.mass_ratio < math.inf:
            raise ValueError("mass_ratio must be finite and positive")

    @property
    def inv_mass_coeff(self):
        """hbar^2 / 2m in eV nm^2."""
        return HBAR2_OVER_2ME_EV_NM2 / self.mass_ratio

    @property
    def mass(self):
        """Effective mass in eV fs^2 / nm^2."""
        return self.hbar * self.hbar / (2.0 * self.inv_mass_coeff)

    def wavenumber_of_energy(self, energy):
        """k = sqrt(E / (hbar^2/2m)) for real E >= 0."""
        if energy < 0.0:
            raise NegativeEnergyError(f"energy must be >= 0, got {energy!r}")
        return math.sqrt(energy / self.inv_mass_coeff)

    def energy_of_wavenumber(self, k):
        """E = (hbar^2/2m) k^2; accepts real or complex k."""
        return self.inv_mass_coeff * k * k

    def velocity(self, k):
        """Group velocity hbar k / m in nm/fs."""
        return 2.0 * self.inv_mass_coeff * k / self.hbar


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered stack of (width_nm, height_eV) layers on [0, L]."""

    layers: tuple
    mass_ratio: float = 0.067
    units: UnitSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # + 0.0 stores a height of -0.0 as 0.0: equal profiles are one system
        layers = tuple((float(w), float(h) + 0.0) for (w, h) in self.layers)
        if not layers:
            raise ValueError("profile needs at least one layer")
        for w, h in layers:
            if not 0.0 < w < math.inf:
                raise ValueError(f"layer width must be finite and > 0, got {w!r}")
            if not 0.0 <= h < math.inf:
                raise ValueError(f"layer height must be finite and >= 0, got {h!r}")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "units", UnitSystem(self.mass_ratio))

    @cached_property
    def length(self):
        return sum(w for w, _ in self.layers)

    @cached_property
    def layer_plan(self):
        """Distinct factors of the layer recursion and where each layer takes them.

        ``(heights, faces, spans, steps)``.  ``heights`` are the distinct layer
        heights, one wavevector each (no height is -0.0, so equal heights have
        equal bits).  With ``qs = [k] + wavevectors``, ``faces`` are the distinct
        interfaces ``(a, b, (V_a - V_b)/2c, reused)`` from ``qs[a]`` to
        ``qs[b]`` and ``spans`` the distinct layers ``(b, width, reused)``
        propagating with ``qs[b]``; ``reused`` is true when more than one
        step takes it.  ``steps`` holds ``(face, span)`` per layer, then
        ``(face, None)`` for the exit interface.
        """
        c = self.units.inv_mass_coeff
        roots = {}  # height -> index into [k] + wavevectors
        for _, h in self.layers:
            roots.setdefault(h, len(roots) + 1)
        sides = [0] + [roots[h] for _, h in self.layers] + [0]
        heights = [0.0, *roots]
        faces, spans, steps = {}, {}, []
        for j, (a, b) in enumerate(zip(sides, sides[1:])):
            face = faces.setdefault((a, b), len(faces))
            span = spans.setdefault((b, self.layers[j][0]), len(spans)) if b else None
            steps.append((face, span))
        face_uses = Counter(f for f, _ in steps)
        span_uses = Counter(s for _, s in steps)
        return (
            tuple(heights[1:]),
            tuple(
                (a, b, (heights[a] - heights[b]) / (2.0 * c), face_uses[i] > 1)
                for i, (a, b) in enumerate(faces)
            ),
            tuple((b, w, span_uses[i] > 1) for i, (b, w) in enumerate(spans)),
            tuple(steps),
        )

    @cached_property
    def barrier_height(self):
        return max(h for _, h in self.layers)

    @property
    def has_barrier(self):
        return any(h > 0.0 for _, h in self.layers)

    def fingerprint_key(self):
        """Canonical string identifying the physical system."""
        parts = [f"{w!r}:{h!r}" for w, h in self.layers]
        return f"layers={','.join(parts)};mass_ratio={self.mass_ratio!r}"


@dataclass(frozen=True)
class TransferMatrix:
    t11: complex
    t12: complex
    t21: complex
    t22: complex

    @property
    def determinant(self):
        return self.t11 * self.t22 - self.t12 * self.t21


# ---------------------------------------------------------------------------
# the layer recursion: one kernel for a Python complex k and for arrays of k
# ---------------------------------------------------------------------------

# (sqrt, exp, reduction of a per-point test to one bool, choice by a
# per-point test) for each kind of k
_SCALAR = (cmath.sqrt, cmath.exp, bool, lambda test, a, b: a if test else b)
_VECTOR = (np.sqrt, np.exp, np.any, np.where)


def _second_column(profile, k, ops, with_prime=False, entries=None):
    """``(k, m12, m22, d12, d22)``: the second column of the local-basis
    matrix and its d/dk, at the ``k`` returned.

    ``ops`` is ``_SCALAR`` for a Python complex ``k`` and ``_VECTOR`` for an
    array.  The returned ``k`` is the one given, except that a point at a
    layer branch point is moved to ``k (1 + 1e-9)``.  The first column never
    feeds back into the second, so it is not composed.  The derivative
    ``(d12, d22)`` is carried only with ``with_prime`` and is ``(0j, 0j)``
    otherwise.  The column is the state
    grown from ``(a, b) = (0, 1)``, so when ``entries`` is a list the entry
    amplitudes ``(a, b)`` of every layer are appended to it, the record that
    ``resonances.resonance_state`` reads.

    Each distinct layer height, interface and (height, width) layer of the
    profile's ``layer_plan`` is evaluated once, at its first use, and kept
    only if a later layer takes it again; the results are the same
    operations on the same operands as a per-layer evaluation, bit for bit.
    """
    sqrt, exp, any_, where = ops
    if any_(abs(k) < _K_MIN):
        raise ZeroWavenumberError("transfer matrix undefined at k = 0")
    heights, faces, spans, steps = profile.layer_plan
    c = profile.units.inv_mass_coeff
    roots = [sqrt(k * k - h / c) for h in heights]
    near = False
    for q in roots:
        near = near | (abs(q) < _Q_MIN)
    if any_(near):
        k = where(near, k * (1.0 + 1e-9), k)
        roots = [sqrt(k * k - h / c) for h in heights]
        # still there only where a layer of height ~ 0 meets k ~ 0
        if any(any_(abs(q) < _Q_MIN) for q in roots):
            raise ZeroWavenumberError("layer wavevector ~ 0 at k ~ 0")
    # principal roots have Re q >= 0; negated where Re k < 0 they follow k
    behind = k.real < 0.0
    if any_(behind):
        sign = 1.0 - 2.0 * behind
        roots = [sign * q for q in roots]
    qs = [k] + roots

    # a factor that a later layer uses again is kept; one used once is
    # dropped after its step, so few arrays are alive at a time
    face_factors = [None] * len(faces)
    span_factors = [None] * len(spans)
    m12, m22 = 0j, 1.0 + 0j
    d12 = d22 = 0j
    for face, span in steps:
        factors = face_factors[face]
        if factors is None:
            a, b, dv, reused = faces[face]
            qa, qb = qs[a], qs[b]
            # qb^2 - qa^2 = (Va - Vb)/c turns (1 - qa/qb)/2 and the
            # k-derivative of (1 + qa/qb)/2 into forms without a difference
            # of nearby numbers
            g = dv / (qb * (qa + qb))
            jp = k * dv / (qa * (qb * qb * qb)) if with_prime else None
            factors = (g, 1.0 - g, jp)
            if reused:
                face_factors[face] = factors
        g, h, jp = factors
        if with_prime:
            jm = -jp
            d12, d22 = (
                jp * m12 + jm * m22 + h * d12 + g * d22,
                jm * m12 + jp * m22 + g * d12 + h * d22,
            )
        m12, m22 = h * m12 + g * m22, g * m12 + h * m22
        if span is None:
            break
        factors = span_factors[span]
        if factors is None:
            r, w, reused = spans[span]
            q = qs[r]
            arg = 1j * q * w
            if any_(abs(arg.real) > _EXP_MAX):
                raise OverflowError("propagation factor exceeds the floating range")
            ep = exp(arg)
            em = 1.0 / ep
            if with_prime:
                q_p = k / q
                factors = (ep, em, 1j * w * q_p * ep, -1j * w * q_p * em)
            else:
                factors = (ep, em, None, None)
            if reused:
                span_factors[span] = factors
        ep, em, dp, dm = factors
        if entries is not None:
            entries.append((m12, m22))
        if with_prime:
            d12, d22 = dp * m12 + ep * d12, dm * m22 + em * d22
        m12, m22 = ep * m12, em * m22
    return k, m12, m22, d12, d22


def _phase(profile, k, ops):
    """exp(ikL), the factor between the local and the global basis."""
    exp, any_ = ops[1:3]
    arg = 1j * k * profile.length
    if any_(abs(arg.real) > _EXP_MAX):
        raise OverflowError("exp(ikL) exceeds the floating range")
    return exp(arg)


def _ops(k):
    """(k as a Python complex or a complex array, the kernel ops for it)."""
    # np.ndim alone costs a few microseconds on a Python number
    if isinstance(k, (complex, float, int)) or np.ndim(k) == 0:
        return complex(k), _SCALAR
    return np.asarray(k, dtype=complex), _VECTOR


def t22(profile, k):
    """Denominator element of the transmission amplitude, t(k) = 1/t22(k)."""
    k, ops = _ops(k)
    k, _, m22, _, _ = _second_column(profile, k, ops)
    return _phase(profile, k, ops) * m22


def t22_with_prime(profile, k):
    """(t22, dt22/dk) at a complex k or an array of k, analytic derivative."""
    k, ops = _ops(k)
    k, _, m22, _, d22 = _second_column(profile, k, ops, with_prime=True)
    phase = _phase(profile, k, ops)
    t = phase * m22
    tp = 1j * profile.length * phase * m22 + phase * d22
    return t, tp


def _global_column(profile, k):
    k, m12, m22, _, _ = _second_column(profile, k, _SCALAR)
    phase = _phase(profile, k, _SCALAR)
    return m12 / phase, m22 * phase


def transfer_matrix(profile, k):
    """Full global-basis transfer matrix at scalar complex k.

    Flipping k maps the local-basis matrix to ``sx M sx`` (sx the Pauli
    swap; the interior wavevectors depend only on k^2), so the first column is
    the second one at -k: ``t11(k) = t22(-k)``, ``t21(k) = t12(-k)``.
    """
    kc = complex(k)
    t12, t22_k = _global_column(profile, kc)
    t21, t11 = _global_column(profile, -kc)
    return TransferMatrix(t11, t12, t21, t22_k)


def residual_gate(length, kappa):
    """Depth-aware acceptance threshold on |t22| at a candidate pole.

    Near a zero at depth beta = -Im(kappa), the evaluated |t22| cannot drop
    below ~eps * exp(beta L) in double precision (the value is a cancellation
    of O(1) contributions scaled back by exp(ikL)).  For shallow poles the
    gate is exactly ``_RESIDUAL_TOL``.  ``kappa`` is an array.
    """
    growth = np.exp(np.clip(-kappa.imag * length, 0.0, 690.0))
    return np.maximum(_RESIDUAL_TOL, 64.0 * _EPS * growth)


def transmission_amplitude(profile, k):
    """t(k) = 1/t22(k); scalar or array k away from poles.

    Raises :class:`PoleProximityError` where ``|t22(k)| <=
    residual_gate(L, k)``: the pole sweep's own acceptance test, so every
    pole the sweep accepts is refused.  On the real axis ``|t22| >= 1``, far
    above the gate, so no real k is.  (``expansion_t`` refuses by distance
    to the catalog instead, which needs no t22.)

    Test companion, used by ``TestTransmission`` and
    ``test_time_reversal_property`` in ``tests/test_potential.py`` and by
    ``TestResidues`` in ``tests/test_resonances.py``.
    """
    den = t22(profile, k)
    gate = residual_gate(profile.length, np.asarray(k, dtype=complex))
    if np.any(np.abs(den) <= gate):
        raise PoleProximityError(
            f"|t22| = {np.min(np.abs(den)):.3e} within the residual gate: "
            "k falls on a transmission pole"
        )
    return 1.0 / den


def transmission_coefficient(profile, energy):
    """T(E) = |t(k(E))|^2 for real E > 0; clipped into [0, 1]."""
    e_arr = np.asarray(energy, dtype=float)
    if np.any(e_arr <= 0.0):
        raise NegativeEnergyError("transmission coefficient requires E > 0")
    k = np.sqrt(e_arr / profile.units.inv_mass_coeff)
    t_co = 1.0 / np.abs(t22(profile, k)) ** 2
    return np.minimum(t_co, 1.0) if e_arr.ndim else min(float(t_co), 1.0)
