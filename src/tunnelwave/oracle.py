"""Brute-force momentum-integral evaluation of the transmitted amplitude.

This is the independent check on the closed-form path: the exact cutoff
Gaussian transform phi0(k) is integrated against the exact transfer-matrix
t(k) (never the pole expansion) with a phase-adaptive composite
Gauss-Legendre rule.  Node counts scale with the fastest local phase, so the
accuracy is uniform in (x, t) until the budget runs out, which is the
explicit :class:`NodeBudgetExceededError` boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _w_upper, faddeeva_log_scaled
from .potential import t22_off_branch

__all__ = [
    "NodeBudgetExceededError",
    "QuadratureConfig",
    "phi0",
    "psi_free_quadrature",
    "psi_quadrature",
]

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_NODE_BUDGET = 10**8
_CHUNK_NODES = 2**14  # integrand nodes evaluated at once, bounding the temporaries


class NodeBudgetExceededError(RuntimeError):
    """Phase-resolved node count exceeds the budget; use the analytic path."""


@dataclass(frozen=True)
class QuadratureConfig:
    window_half_width: float = 12.0  # in units of 1/sigma
    base_nodes: int = 2**14
    phase_oversampling: float = 4.0

    def __post_init__(self):
        if self.window_half_width < 8.0:
            raise ValueError("window_half_width must be >= 8 (units of 1/sigma)")
        if self.base_nodes < 2**10:
            raise ValueError("base_nodes must be >= 1024")
        if self.phase_oversampling <= 0.0:
            raise ValueError("phase_oversampling must be positive")


def phi0(packet, k):
    """Exact momentum transform of the cutoff Gaussian (no tail approximation).

    ``phi0(k) = (2 pi)^(-1/4) sqrt(sigma) w(iz) / sqrt(w(i z0))`` with
    ``z = x_c/(2 sigma) - i (k - k0) sigma`` and ``z0 = x_c / (sqrt(2) sigma)``.
    Both Faddeeva factors are huge while the transform is O(sqrt(sigma)), so
    the constant ``c0 = log((2 pi)^(-1/4) sqrt(sigma) / sqrt(w(i z0)))`` is
    taken in exponent space.  Because ``x_c < 0``, ``iz`` lies in the lower
    half-plane, where ``w(iz) = 2 exp(z^2) - w(-iz)`` holds exactly, so
    ``phi0 = 2 exp(c0 + z^2) - exp(c0) w(-iz)``: one complex exponential and
    one upper-half-plane Faddeeva value per k.  ``Re(c0 + z^2)`` is about
    ``-((k - k0) sigma)^2``, so nothing overflows, and ``exp(c0)`` underflows
    only where its term is negligible against the first.
    """
    k_arr = np.asarray(k, dtype=float)
    sigma = packet.sigma
    a = packet.x_c / (2.0 * sigma)  # Re z < 0
    u = (packet.k0 - np.atleast_1d(k_arr)) * sigma  # Im z
    l0_mag, l0_arg = faddeeva_log_scaled(1j * (packet.x_c / (math.sqrt(2.0) * sigma)))
    c0 = (
        0.5 * math.log(sigma)
        - 0.25 * math.log(2.0 * math.pi)
        - 0.5 * complex(l0_mag, l0_arg)
    )
    z = a + 1j * u
    with np.errstate(under="ignore"):
        out = 2.0 * np.exp(c0 + z * z) - cmath.exp(c0) * _w_upper(u - 1j * a)
    if k_arr.ndim == 0:
        return complex(out[0])
    return out


def _panel_nodes(packet, x, ts, config):
    """Composite GL nodes/weights over the momentum window, split at k = 0."""
    sigma = packet.sigma
    k0 = packet.k0
    half = config.window_half_width / sigma
    lo, hi = k0 - half, k0 + half
    c = packet.units.inv_mass_coeff
    hbar = packet.units.hbar
    # |d phase / dk| = |x - (2 c k / hbar) t|, extremal at window edges and time ends
    dphi = max(abs(x - 2.0 * c * k * t / hbar) for k in (lo, hi) for t in (ts.min(), ts.max()))
    needed = (hi - lo) * dphi * config.phase_oversampling / math.pi
    n_panels = max(math.ceil(config.base_nodes / _GL_ORDER), math.ceil(needed / _GL_ORDER))
    if n_panels * _GL_ORDER > _NODE_BUDGET:
        raise NodeBudgetExceededError(
            f"{n_panels * _GL_ORDER:.3g} nodes needed at x={x:.3g}, t <= {ts.max():.3g}; "
            "only the analytic path is feasible here"
        )
    edges = [np.linspace(lo, hi, n_panels + 1)]
    if lo < 0.0 < hi:
        frac = math.ceil(n_panels * (0.0 - lo) / (hi - lo))
        frac = min(max(frac, 1), n_panels - 1)
        edges = [np.linspace(lo, 0.0, frac + 1), np.linspace(0.0, hi, n_panels - frac + 1)]
    ks, ws = [], []
    for group in edges:
        mids = 0.5 * (group[1:] + group[:-1])
        halfw = 0.5 * (group[1:] - group[:-1])
        ks.append((mids[:, None] + halfw[:, None] * _GL_NODES[None, :]).ravel())
        ws.append((halfw[:, None] * _GL_WEIGHTS[None, :]).ravel())
    return np.concatenate(ks), np.concatenate(ws)


def _momentum_integral(packet, x, t, tfun, config):
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("t must be >= 0")
    ks, ws = _panel_nodes(packet, x, ts, config)
    c = packet.units.inv_mass_coeff
    hbar = packet.units.hbar
    acc = np.zeros(ts.size, dtype=complex)
    for lo in range(0, ks.size, _CHUNK_NODES):
        k = ks[lo : lo + _CHUNK_NODES]
        base = ws[lo : lo + _CHUNK_NODES] * phi0(packet, k) * tfun(k) / math.sqrt(2.0 * math.pi)
        kx, ck2 = k * x, c * k * k
        cis = np.empty(k.size, dtype=complex)
        for j, tj in enumerate(ts.flat):
            # exp(i phase) from cos and sin of the real phase: half the complex exp's cost
            phase = kx - ck2 * tj / hbar
            np.cos(phase, out=cis.real)
            np.sin(phase, out=cis.imag)
            acc[j] += np.dot(base, cis)
    return complex(acc[0]) if ts.ndim == 0 else acc.reshape(ts.shape)


def psi_quadrature(packet, profile, x, t, config=QuadratureConfig()):
    """Transmitted amplitude by direct quadrature with the exact t(k): a complex
    for a scalar ``t``; for an array, an array of its shape on one node grid."""
    if x < profile.length:
        raise ValueError("quadrature oracle evaluates the transmitted region x >= L")
    return _momentum_integral(
        packet, float(x), t, lambda ks: 1.0 / t22_off_branch(profile, ks), config
    )


def psi_free_quadrature(packet, x, t, config=QuadratureConfig()):
    """Free amplitude by the same quadrature engine (t(k) = 1)."""
    return _momentum_integral(packet, float(x), t, lambda ks: 1.0, config)
