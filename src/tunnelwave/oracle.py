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

The refinement has already evaluated ``phi0(k) t(k)`` at each leaf's 16
nodes and at its two halves' 32.  A leaf is smooth when the degree-15
interpolant through the 16 values reproduces the 32 within ``_SMOOTH_TOL``
times the largest ``|phi0 t|`` seen; most of the nodes, in the cutoff tails
that the phase rule samples for its oscillation, lie on such leaves.  A
smooth leaf's sub-panel count is rounded up to the least ``m * 2**p`` with
``m <= 15`` (at most 12.5 % more nodes), and its integrand values come from
its 16 values by barycentric interpolation at the Legendre points (Berrut
and Trefethen, SIAM Rev. 46 (2004) 501): a fixed split-into-m matrix, then
``p`` applications of the fixed halving matrix, each one matmul over all
leaves of the same ``(m, p)``.  Every other leaf evaluates ``phi0`` and
``t(k)`` at its own nodes.  The nodes are built in bounded blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _w_upper
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
_CHUNK_NODES = 2**14  # integrand nodes built and evaluated at once, bounding the temporaries
_COARSE_PANELS = 128  # equal panels over the window where refinement starts
_REFINE_TOL = 1e-14  # halving estimate per panel, relative to the sum of |G16|
_SMOOTH_TOL = 1e-15  # interpolation residual on a leaf's halves, relative to max |f|
_MAX_SPLIT = 15  # a smooth leaf gets m * 2**p sub-panels with m <= _MAX_SPLIT


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
    On a leaf where ``phi0(k) t(k)`` is smooth (see the module docstring)
    that count is rounded up to ``m * 2**p`` panels with ``m <= 15`` and the
    integrand is interpolated from the leaf's refinement values.
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
    taken in exponent space; it is real, since ``z0 < 0`` gives
    ``log w(i z0) = z0^2 + log erfc(z0)`` with ``erfc(z0)`` in (1, 2).
    Because ``x_c < 0``, ``iz`` lies in the lower half-plane, where
    ``w(iz) = 2 exp(z^2) - w(-iz)`` holds exactly, so
    ``phi0 = 2 exp(c0 + z^2) - exp(c0) w(-iz)``: one complex exponential and
    one upper-half-plane Faddeeva value per k.  ``Re(c0 + z^2)`` is about
    ``-((k - k0) sigma)^2``, so nothing overflows, and ``exp(c0)`` underflows
    only where its term is negligible against the first.
    """
    k_arr = np.asarray(k, dtype=float)
    sigma = packet.sigma
    a = packet.x_c / (2.0 * sigma)  # Re z < 0
    u = (packet.k0 - np.atleast_1d(k_arr)) * sigma  # Im z
    z0 = packet.x_c / (math.sqrt(2.0) * sigma)
    c0 = (
        0.5 * math.log(sigma)
        - 0.25 * math.log(2.0 * math.pi)
        - 0.5 * (z0 * z0 + math.log(math.erfc(z0)))
    )
    z = a + 1j * u
    with np.errstate(under="ignore"):
        out = 2.0 * np.exp(c0 + z * z) - math.exp(c0) * _w_upper(u - 1j * a)
    if k_arr.ndim == 0:
        return complex(out[0])
    return out


def _interp_matrix(points):
    """Rows that evaluate, at ``points`` in [-1, 1], the degree-15 interpolant
    through values at the 16 GL nodes (barycentric form, Legendre weights).

    A point on a node gets that node's unit row, so nothing divides by zero.
    """
    lam = (-1.0) ** np.arange(_GL_ORDER) * np.sqrt((1.0 - _GL_NODES**2) * _GL_WEIGHTS)
    diff = points[:, None] - _GL_NODES[None, :]
    hit = diff == 0.0
    terms = lam / np.where(hit, 1.0, diff)
    rows = terms / terms.sum(axis=1, keepdims=True)
    return np.where(hit.any(axis=1, keepdims=True), hit, rows)


@functools.cache
def _split_t(m):
    """Maps a panel's 16 values to those at the GL nodes of its ``m`` equal
    sub-panels, in k order: ``(n, 16) @ _split_t(m) -> (n, 16 m)``."""
    mids = (2.0 * np.arange(m) + 1.0) / m - 1.0
    matrix = _interp_matrix((mids[:, None] + _GL_NODES / m).ravel()).T.copy()
    matrix.flags.writeable = False  # shared by every caller through the cache
    return matrix


def _gl_values(f, a, b):
    """``f`` at the 16 GL nodes of each panel ``[a, b]``, and the panels' GL sums."""
    half = 0.5 * (b - a)
    k = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(k.ravel()).reshape(k.shape)
    return vals, half * (vals @ _GL_WEIGHTS)


def _refined_panels(f, edges):
    """Leaves of the halving refinement of the panels between ``edges``.

    A panel is halved while the GL16 halving estimate
    ``|G(panel) - G(left) - G(right)|`` exceeds ``_REFINE_TOL`` times the sum of
    ``|G|`` over all current panels.  Returns, in k order, the leaves' ends,
    ``f`` at each leaf's 16 GL nodes, and whether each leaf is smooth: whether
    the degree-15 interpolant through those 16 values reproduces ``f`` at its
    halves' 32 GL nodes within ``_SMOOTH_TOL`` times the largest ``|f|`` seen.
    """
    a, b = edges[:-1], edges[1:]
    vals, whole = _gl_values(f, a, b)
    f_max = np.abs(vals).max()
    leaves_a, leaves_b, leaves_vals, leaves_resid, leaves_abs = [], [], [], [], 0.0
    while a.size:
        n = a.size
        m = 0.5 * (a + b)
        halves_vals, halves = _gl_values(f, np.concatenate([a, m]), np.concatenate([m, b]))
        f_max = max(f_max, np.abs(halves_vals).max())
        left, right = halves[:n], halves[n:]
        tol = _REFINE_TOL * (leaves_abs + np.abs(whole).sum())
        split = np.abs(whole - left - right) > tol
        keep = ~split
        leaves_a.append(a[keep])
        leaves_b.append(b[keep])
        leaves_vals.append(vals[keep])
        on_halves = np.concatenate([halves_vals[:n][keep], halves_vals[n:][keep]], axis=1)
        leaves_resid.append(np.abs(vals[keep] @ _split_t(2) - on_halves).max(axis=1, initial=0.0))
        leaves_abs += np.abs(whole[keep]).sum()
        a = np.concatenate([a[split], m[split]])
        b = np.concatenate([m[split], b[split]])
        vals = np.concatenate([halves_vals[:n][split], halves_vals[n:][split]])
        whole = np.concatenate([left[split], right[split]])
    a, b = np.concatenate(leaves_a), np.concatenate(leaves_b)
    smooth = np.concatenate(leaves_resid) <= _SMOOTH_TOL * f_max
    order = np.argsort(a)
    return a[order], b[order], np.concatenate(leaves_vals)[order], smooth[order]


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
    """Composite GL rule over the momentum window, split at k = 0.

    Coarse panels are refined on the t-independent integrand
    ``phi0(k) tfun(k)``; each leaf is then cut into one 16-node panel plus
    the local phase rule's share (see :class:`QuadratureConfig`), rounded up
    to ``m * 2**p`` sub-panels with ``m <= 15`` on a smooth leaf.  The budget
    is checked on a closed-form lower bound before any work and on the count
    of nodes to build before any node is built.  Returns that count and an
    iterator over blocks ``(k, w phi0(k) tfun(k))`` that builds the nodes.
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
    a, b, vals, smooth = _refined_panels(lambda k: phi0(packet, k) * tfun(k), edges)
    h = b - a
    rate = np.max([np.abs(x - beta * end) for beta in betas for end in (a, b)], axis=0)
    # one panel resolves f on a leaf; the phase's oscillations come on top of it
    n_sub = np.ceil(1.0 + h * rate * density).astype(np.int64)
    # least m * 2**p >= n_sub with m <= _MAX_SPLIT: p is the bit length of (n_sub - 1) // 15
    p = np.where(smooth, np.frexp((n_sub - 1) // _MAX_SPLIT)[1], 0)
    n_sub = np.where(smooth, ((n_sub - 1) >> p) + 1 << p, n_sub)
    n_nodes = _GL_ORDER * int(n_sub.sum())
    _check_budget(n_nodes, x, ts)
    return n_nodes, _node_blocks(packet, tfun, a, h / n_sub, n_sub, vals, smooth, p)


def _sub_panel_nodes(a, width, first, sub):
    """GL nodes and weights of the sub-panels ``sub`` of leaves that start at
    ``a`` and hold equal sub-panels of ``width``, numbered from ``first``."""
    leaf = np.searchsorted(first, sub, side="right") - 1
    width = width[leaf]
    mids = a[leaf] + (sub - first[leaf] + 0.5) * width
    ks = (mids[:, None] + 0.5 * width[:, None] * _GL_NODES[None, :]).ravel()
    ws = (0.5 * width[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return ks, ws


def _halvings(vals, p):
    """Values at the GL nodes of the ``2**p`` equal sub-panels of each panel,
    from ``vals`` at the panels' own nodes, in k order and in blocks of at
    most ``_CHUNK_NODES`` nodes."""
    step = _CHUNK_NODES >> (4 + p)
    if step == 0:
        for row in range(vals.shape[0]):
            yield from _halvings((vals[row : row + 1] @ _split_t(2)).reshape(-1, _GL_ORDER), p - 1)
        return
    for lo in range(0, vals.shape[0], step):
        block = vals[lo : lo + step]
        for _ in range(p):
            block = (block @ _split_t(2)).reshape(-1, _GL_ORDER)
        yield block


def _node_blocks(packet, tfun, a, width, n_sub, vals, smooth, p):
    """Blocks ``(k, w phi0(k) tfun(k))`` over every leaf's sub-panels.

    Other leaves get ``phi0`` and ``tfun`` evaluated at their nodes,
    ``_CHUNK_NODES`` at a time.  A smooth leaf's values come from its 16
    refinement values: the fixed split-into-m matrix, then ``p`` halvings,
    one matmul each over all leaves of the same ``(m, p)``.
    """
    direct = ~smooth
    a_d, width_d, n_d = a[direct], width[direct], n_sub[direct]
    first, n_direct = np.cumsum(n_d) - n_d, int(n_d.sum())
    per_chunk = _CHUNK_NODES // _GL_ORDER
    for lo in range(0, n_direct, per_chunk):
        sub = np.arange(lo, min(lo + per_chunk, n_direct))
        k, w = _sub_panel_nodes(a_d, width_d, first, sub)
        yield k, w * phi0(packet, k) * tfun(k)
    m = n_sub >> p
    for m_g, p_g in sorted(set(zip(m[smooth].tolist(), p[smooth].tolist()))):
        group = smooth & (m == m_g) & (p == p_g)
        a_g, width_g = a[group], width[group]
        first = np.arange(a_g.size) * (m_g << p_g)
        split = (vals[group] @ _split_t(m_g)).reshape(-1, _GL_ORDER)
        sub0 = 0
        for block in _halvings(split, p_g):
            sub = np.arange(sub0, sub0 + block.shape[0])
            sub0 += block.shape[0]
            k, w = _sub_panel_nodes(a_g, width_g, first, sub)
            yield k, w * block.ravel()


def _momentum_integral(packet, x, t, tfun, config):
    ts = np.asarray(t, dtype=float)
    if not (math.isfinite(x) and np.all(np.isfinite(ts))):
        raise ValueError("x and t must be finite")
    if np.any(ts < 0.0):
        raise ValueError("t must be >= 0")
    _, blocks = _panel_nodes(packet, x, ts, tfun, config)
    c = packet.units.inv_mass_coeff
    hbar = packet.units.hbar
    acc = np.zeros(ts.size, dtype=complex)
    for k, amps in blocks:
        base = amps / math.sqrt(2.0 * math.pi)
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
    if packet.units != profile.units:
        raise ValueError(
            f"packet mass ratio {packet.units.mass_ratio!r} is not the "
            f"profile's {profile.units.mass_ratio!r}"
        )
    return _momentum_integral(
        packet, float(x), t, lambda ks: 1.0 / t22(profile, ks), config
    )


def psi_free_quadrature(packet, x, t, config=QuadratureConfig()):
    """Free amplitude by the same quadrature engine (t(k) = 1)."""
    return _momentum_integral(packet, float(x), t, lambda ks: 1.0, config)
