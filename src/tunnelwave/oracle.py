"""Brute-force momentum-integral evaluation of the transmitted amplitude.

This is the independent check on the closed-form path: the exact cutoff
Gaussian transform phi0(k) is integrated against the exact transfer-matrix
t(k) (never the pole expansion) with a phase-adaptive composite
Gauss-Legendre rule.  Node counts scale with the fastest local phase, so the
accuracy is uniform in (x, t) until the budget runs out, which is the
explicit :class:`NodeBudgetExceededError` boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import faddeeva_log_scaled
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
_CHUNK_NODES = 2**16  # integrand nodes evaluated at once, bounding the temporaries


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
    ``z = x_c/(2 sigma) - i (k - k0) sigma`` and ``z0 = x_c / (sqrt(2) sigma)``;
    evaluated in exponent space because both Faddeeva factors are huge while
    the transform itself is O(sqrt(sigma)).
    """
    k_arr = np.asarray(k, dtype=float)
    sigma = packet.sigma
    z = packet.x_c / (2.0 * sigma) - 1j * (k_arr - packet.k0) * sigma
    z0 = packet.x_c / (math.sqrt(2.0) * sigma)
    lw_mag, lw_arg = faddeeva_log_scaled(1j * z)
    l0_mag, l0_arg = faddeeva_log_scaled(1j * complex(z0))
    log_out = (
        (lw_mag + 1j * lw_arg)
        - 0.5 * (l0_mag + 1j * l0_arg)
        + 0.5 * math.log(sigma)
        - 0.25 * math.log(2.0 * math.pi)
    )
    with np.errstate(under="ignore"):
        out = np.exp(log_out)
    if k_arr.ndim == 0:
        return complex(out)
    return out


def _panel_nodes(packet, x, t, config):
    """Composite GL nodes/weights over the momentum window, split at k = 0."""
    sigma = packet.sigma
    k0 = packet.k0
    half = config.window_half_width / sigma
    lo, hi = k0 - half, k0 + half
    c = packet.units.inv_mass_coeff
    hbar = packet.units.hbar
    # |d phase / dk| = |x - (2 c k / hbar) t|, extremal at the window edges
    dphi = max(abs(x - 2.0 * c * lo * t / hbar), abs(x - 2.0 * c * hi * t / hbar))
    needed = (hi - lo) * dphi * config.phase_oversampling / math.pi
    n_panels = max(math.ceil(config.base_nodes / _GL_ORDER), math.ceil(needed / _GL_ORDER))
    if n_panels * _GL_ORDER > _NODE_BUDGET:
        raise NodeBudgetExceededError(
            f"{n_panels * _GL_ORDER:.3g} nodes needed at (x={x:.3g}, t={t:.3g}); "
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
    ks, ws = _panel_nodes(packet, x, t, config)
    c = packet.units.inv_mass_coeff
    hbar = packet.units.hbar
    integrand = np.empty(ks.size, dtype=complex)
    for lo in range(0, ks.size, _CHUNK_NODES):
        k = ks[lo : lo + _CHUNK_NODES]
        phase = k * x - c * k * k * t / hbar
        integrand[lo : lo + _CHUNK_NODES] = phi0(packet, k) * tfun(k) * np.exp(1j * phase)
    return complex(np.sum(ws * integrand)) / math.sqrt(2.0 * math.pi)


def psi_quadrature(packet, profile, x, t, config=QuadratureConfig()):
    """Transmitted amplitude by direct quadrature with the exact t(k)."""
    if x < profile.length:
        raise ValueError("quadrature oracle evaluates the transmitted region x >= L")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return _momentum_integral(
        packet, float(x), float(t), lambda ks: 1.0 / t22_off_branch(profile, ks), config
    )


def psi_free_quadrature(packet, x, t, config=QuadratureConfig()):
    """Free amplitude by the same quadrature engine (t(k) = 1)."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return _momentum_integral(packet, float(x), float(t), lambda ks: 1.0, config)
