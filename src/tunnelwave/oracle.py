"""Brute-force momentum-integral evaluation of the transmitted amplitude.

This is the independent check on the closed-form path: the exact cutoff
Gaussian transform phi0(k) is integrated against the exact transfer-matrix
t(k) (never the pole expansion) with a composite 16-point Gauss-Legendre
rule.  The panels come in two steps.  Coarse panels are halved where a
panel-halving estimate of the t-independent integrand ``phi0(k) t(k)`` is
too large, so the grid follows the narrow resonances of the exact t(k).
Each leaf is then cut for the local phase rate ``|x - 2ckt/hbar|`` at its
ends and the extreme times; no uniform floor sits on top of the two rules.
The accuracy is therefore uniform in (x, t) until the node budget runs
out, which is the explicit :class:`NodeBudgetExceededError` boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _w_upper, faddeeva_log_scaled
from .potential import t22

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
_COARSE_PANELS = 128  # equal panels over the window where refinement starts
_REFINE_TOL = 1e-14  # halving estimate per panel, relative to the sum of |G16|


class NodeBudgetExceededError(RuntimeError):
    """Phase-resolved node count exceeds the budget; use the analytic path."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Node rule of the quadrature oracle.

    ``window_half_width`` bounds the momentum window ``k0 +- w / sigma``.
    128 equal panels over the window are first halved until the halving
    estimate of ``phi0(k) t(k)`` on each is below 1e-14 of the sum of
    ``|G16|``, which resolves t(k) wherever it needs it.  Each leaf then
    gets one panel for that integrand plus
    ``h * rate * phase_oversampling / (16 pi)`` for the phase, ``rate`` the
    largest ``|x - 2ckt/hbar|`` at its ends and the earliest and latest
    time: ``phase_oversampling / pi`` nodes per unit of phase rate and k.
    Both fields must be finite.
    """

    window_half_width: float = 12.0  # in units of 1/sigma
    phase_oversampling: float = 4.0

    def __post_init__(self):
        if not 8.0 <= self.window_half_width < math.inf:
            raise ValueError("window_half_width must be finite and >= 8 (units of 1/sigma)")
        if not 0.0 < self.phase_oversampling < math.inf:
            raise ValueError("phase_oversampling must be finite and positive")


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


def _gl_sums(f, a, b):
    """16-point Gauss-Legendre sums of ``f`` over the panels ``[a, b]``."""
    half = 0.5 * (b - a)
    k = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES[None, :]
    return half * (f(k.ravel()).reshape(k.shape) @ _GL_WEIGHTS)


def _refined_panels(f, edges):
    """Leaves of the halving refinement of the panels between ``edges``.

    A panel is halved while the GL16 halving estimate
    ``|G(panel) - G(left) - G(right)|`` exceeds ``_REFINE_TOL`` times the sum of
    ``|G|`` over all current panels.  Returns the leaves' ends in k order.
    """
    a, b = edges[:-1], edges[1:]
    whole = _gl_sums(f, a, b)
    leaves_a, leaves_b, leaves_abs = [], [], 0.0
    while a.size:
        m = 0.5 * (a + b)
        halves = _gl_sums(f, np.concatenate([a, m]), np.concatenate([m, b]))
        left, right = halves[: a.size], halves[a.size :]
        tol = _REFINE_TOL * (leaves_abs + np.abs(whole).sum())
        split = np.abs(whole - left - right) > tol
        leaves_a.append(a[~split])
        leaves_b.append(b[~split])
        leaves_abs += np.abs(whole[~split]).sum()
        a = np.concatenate([a[split], m[split]])
        b = np.concatenate([m[split], b[split]])
        whole = np.concatenate([left[split], right[split]])
    a, b = np.concatenate(leaves_a), np.concatenate(leaves_b)
    order = np.argsort(a)
    return a[order], b[order]


def _abs_rate_integral(x, beta, lo, hi):
    """Integral of the phase rate ``|x - beta k|`` over ``[lo, hi]``."""

    def signed(p, q):
        return x * (q - p) - 0.5 * beta * (q * q - p * p)

    if beta > 0.0 and lo < x / beta < hi:
        return abs(signed(lo, x / beta)) + abs(signed(x / beta, hi))
    return abs(signed(lo, hi))


def _check_budget(n_nodes, x, ts):
    if n_nodes > _NODE_BUDGET:
        raise NodeBudgetExceededError(
            f"{n_nodes:.3g} nodes needed at x={x:.3g}, t <= {ts.max():.3g}; "
            "only the analytic path is feasible here"
        )


def _panel_nodes(packet, x, ts, tfun, config):
    """Composite GL nodes/weights over the momentum window, split at k = 0.

    Coarse panels are refined on the t-independent integrand
    ``phi0(k) tfun(k)``; each leaf is then cut into one 16-node panel plus
    the local phase rule's share (see :class:`QuadratureConfig`).  The
    budget is checked on a closed-form lower bound before any work and on
    the exact count before any node is built.
    """
    sigma = packet.sigma
    k0 = packet.k0
    half = config.window_half_width / sigma
    lo, hi = k0 - half, k0 + half
    c = packet.units.inv_mass_coeff
    hbar = packet.units.hbar
    # |d phase / dk| = |x - beta k|, beta = 2 c t / hbar, is convex in k and t:
    # its largest value on a panel sits at the panel's ends and the extreme times
    betas = 2.0 * c * np.array([ts.min(), ts.max()]) / hbar
    density = config.phase_oversampling / (_GL_ORDER * math.pi)  # panels per (rate * dk)
    _check_budget(_GL_ORDER * density * _abs_rate_integral(x, betas[1], lo, hi), x, ts)
    n_coarse = _COARSE_PANELS
    edges = np.linspace(lo, hi, n_coarse + 1)
    if lo < 0.0 < hi:
        frac = math.ceil(n_coarse * -lo / (hi - lo))
        frac = min(max(frac, 1), n_coarse - 1)
        edges = np.concatenate(
            [np.linspace(lo, 0.0, frac + 1), np.linspace(0.0, hi, n_coarse - frac + 1)[1:]]
        )
    a, b = _refined_panels(lambda k: phi0(packet, k) * tfun(k), edges)
    h = b - a
    rate = np.max([np.abs(x - beta * end) for beta in betas for end in (a, b)], axis=0)
    # one panel resolves f on a leaf; the phase's oscillations come on top of it
    n_sub = np.ceil(1.0 + h * rate * density).astype(np.int64)
    _check_budget(_GL_ORDER * int(n_sub.sum()), x, ts)
    width = np.repeat(h / n_sub, n_sub)
    first = np.cumsum(n_sub) - n_sub
    index = np.arange(width.size) - np.repeat(first, n_sub)
    mids = np.repeat(a, n_sub) + (index + 0.5) * width
    ks = (mids[:, None] + 0.5 * width[:, None] * _GL_NODES[None, :]).ravel()
    ws = (0.5 * width[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return ks, ws


def _momentum_integral(packet, x, t, tfun, config):
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("t must be >= 0")
    ks, ws = _panel_nodes(packet, x, ts, tfun, config)
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
        packet, float(x), t, lambda ks: 1.0 / t22(profile, ks), config
    )


def psi_free_quadrature(packet, x, t, config=QuadratureConfig()):
    """Free amplitude by the same quadrature engine (t(k) = 1)."""
    return _momentum_integral(packet, float(x), t, lambda ks: 1.0, config)
