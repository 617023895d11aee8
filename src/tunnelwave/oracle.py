"""Brute-force momentum-integral evaluation of the transmitted amplitude.

This is the independent check on the closed-form path: the exact cutoff
Gaussian transform phi0(k) is integrated against the exact transfer-matrix
t(k) (never the pole expansion) with a composite 16-point Gauss-Legendre
rule.  The panels come in two steps.  Coarse panels are halved where a
panel-halving estimate of the t-independent integrand ``phi0(k) t(k)`` is
too large, so the grid follows the narrow resonances of the exact t(k).
Each leaf is then cut for the local phase rate ``|x - 2ckt/hbar|`` at its
ends and the extreme times; no uniform floor sits on top of the two rules.
A leaf of the cutoff tails, whose largest ``|phi0 t|`` is at most 2**-32 of
the largest over all leaves, is cut for half its rate.  GL16's error on a
panel grows like the panel's phase to the 32nd power, so twice the phase
costs up to 2**32 relative to the leaf's amplitude, which that amplitude
makes up for.  The law is asymptotic and loose at panel phases of 4 pi to
8 pi; what holds is measured: about four in five nodes lie on such leaves,
so the grids have about 40 % fewer nodes, and their distance from a grid of
eight times the phase density is unchanged to two digits.  The accuracy is
therefore uniform in (x, t) until the node budget runs out, which is the
explicit :class:`NodeBudgetExceededError` boundary: the exact node count of
the call is checked against it after the refinement and before any node is
built.

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
``t(k)`` at its own nodes.

The phase factors take no ``cos`` or ``sin`` per node.  A leaf's equal
sub-panels of width w are cut into segments of up to 32 at the leaf-relative
offsets 0, 32, 64, ...; row r of a segment holds the nodes ``k0_j + r w``,
``k0_j`` the 16 nodes of its first sub-panel, so with ``C = c t / hbar``

    exp(i (k x - C k^2)) = exp(i phi(k0_j)) * D_j**r * exp(-i C w^2 r^2),
    D_j = exp(i w (x - 2 C k0_j)).

Per segment and time only the 16 anchors and the 16 ``D_j`` go through
``cos`` and ``sin``, and the r^2 factors once per width; ``D_j**r`` comes
from five doubling multiplies.  Each step is exact up to rounding and adds
at most a few 1e-14 rad; the anchors' own phase rounding, eps |phi|, is that
of any direct evaluation.  The GL weights and ``w / 2`` ride on the anchors.
Segments are gathered into blocks of at most ``_CHUNK_NODES`` nodes (at
least one segment) of one padded row count, a power of two, with zero
amplitudes in the padding rows.  A segment's sum has the same bits in any
block.  Each row count's sums are added one at a time in the order the
pieces bring its segments: the direct leaves' in k order, then the smooth
leaves' by ``(m, p)`` group, each group's halving blocks (sized by
``_HALVING_NODES``) in turn, a block's whole segments before its tails.  The
row counts' totals are added in increasing row count, so ``_CHUNK_NODES``
changes no bit of the result.

The refinement depends on the packet, the integrand and the window, not on x
or t, so its leaves are built once per process and reused by every later
call at any x and t (see :func:`_leaves`).
"""

from __future__ import annotations

import functools
import itertools
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
_WINDOW_HALF_WIDTH = 12.0  # momentum window k0 +- this / sigma
_PHASE_OVERSAMPLING = 4.0  # pi times the phase rule's nodes per unit of rate and k
_CHUNK_NODES = 2**14  # nodes per block of phase sums, bounding the temporaries
_HALVING_NODES = 2**14  # nodes per block of halvings: sets the smooth pieces and their order
_EVAL_NODES = 2**12  # nodes per phi0 tfun call: t22's temporaries stay in cache
_COARSE_PANELS = 128  # equal panels over the window where refinement starts
_REFINE_TOL = 1e-14  # halving estimate per panel, relative to the sum of |G16|
_SMOOTH_TOL = 1e-15  # interpolation residual on a leaf's halves, relative to max |f|
_TAIL = 2.0**-32  # a leaf whose largest |f| is at most this share of the largest is tail
_MAX_SPLIT = 15  # a smooth leaf gets m * 2**p sub-panels with m <= _MAX_SPLIT
_SEGMENT = 32  # sub-panels whose phase factors step from one anchor per GL node
_AMP_WEIGHTS = _GL_WEIGHTS / (2.0 * math.sqrt(2.0 * math.pi))  # times width: w/2, (2 pi)^(-1/2)
_LEAF_ENTRIES = 8  # refinements kept per process: transmitted and free for a few packets


class NodeBudgetExceededError(RuntimeError):
    """Phase-resolved node count exceeds the budget; use the analytic path."""


class QuadratureConfig:
    """The oracle's window and phase density, read by the benchmark's inputs."""

    window_half_width = _WINDOW_HALF_WIDTH
    phase_oversampling = _PHASE_OVERSAMPLING


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


@dataclass(frozen=True)
class _Transmission:
    """``tfun(k) = 1 / t22(profile, k)``, equal to another, and hashed, as
    its profile: equal profiles are one system, with the same layer plan and
    the same t22 bits, so they share one refinement in :func:`_leaves`."""

    profile: object

    def __call__(self, ks):
        return 1.0 / t22(self.profile, ks)


def _free_tfun(ks):
    return 1.0


@functools.lru_cache(maxsize=_LEAF_ENTRIES)
def _leaves(packet, tfun, half_width):
    """Leaves ``(a, b, vals, smooth)`` of :func:`_refined_panels` on
    ``phi0(k) tfun(k)`` over the window ``k0 +- half_width``, split at k = 0,
    and each leaf's largest ``|vals|``.

    They do not depend on x or t: the cache hands the same read-only arrays
    to every later call with an equal packet, integrand (a
    :class:`_Transmission`'s profile, or the function itself) and window.
    """
    lo, hi = packet.k0 - half_width, packet.k0 + half_width
    edges = np.linspace(lo, hi, _COARSE_PANELS + 1)
    if lo < 0.0 < hi:
        frac = math.ceil(_COARSE_PANELS * -lo / (hi - lo))
        frac = min(max(frac, 1), _COARSE_PANELS - 1)
        edges = np.concatenate(
            [np.linspace(lo, 0.0, frac + 1), np.linspace(0.0, hi, _COARSE_PANELS - frac + 1)[1:]]
        )
    leaves = _refined_panels(lambda k: phi0(packet, k) * tfun(k), edges)
    leaves = (*leaves, np.abs(leaves[2]).max(axis=1))
    for arr in leaves:
        arr.flags.writeable = False  # shared by every caller through the cache
    return leaves


def _panel_nodes(packet, x, ts, tfun):
    """Composite GL rule over the window ``k0 +- _WINDOW_HALF_WIDTH / sigma``,
    split at k = 0.

    128 equal panels are halved until the halving estimate of ``phi0 tfun``
    on each is below 1e-14 of the sum of ``|G16|``.  Each leaf then gets one
    16-node panel plus ``h * rate * _PHASE_OVERSAMPLING / (16 pi)``, ``rate``
    the largest ``|x - 2ckt/hbar|`` at its ends and the extreme times, halved
    on a tail leaf (largest ``|phi0 tfun|`` at most 2**-32 of the largest),
    and rounded up to ``m * 2**p`` with ``m <= 15`` on a smooth leaf.  The
    budget is checked on that exact node count, after the refinement (which
    :func:`_leaves` keeps) and before any node is built.  Returns the count
    and an iterator that builds the pieces of :func:`_node_pieces`.
    """
    c = packet.units.inv_mass_coeff
    hbar = packet.units.hbar
    density = _PHASE_OVERSAMPLING / (_GL_ORDER * math.pi)  # panels per (rate * dk)
    a, b, vals, smooth, leaf_max = _leaves(packet, tfun, _WINDOW_HALF_WIDTH / packet.sigma)
    h = b - a
    # |d phase / dk| = |x - beta k|, beta = 2 c t / hbar, is convex in k and t:
    # its largest value on a panel sits at the panel's ends and the extreme times.
    # An overflowing beta gives an infinite or nan rate, counted as the budget below
    with np.errstate(over="ignore", invalid="ignore"):
        betas = 2.0 * c * np.array([ts.min(), ts.max()]) / hbar
        rate = np.max([np.abs(x - beta * end) for beta in betas for end in (a, b)], axis=0)
    # GL16's error on a panel grows like its phase**32: at or below 2**-32 of
    # the largest |f|, a tail leaf's amplitude makes up for half the density
    rate[leaf_max <= _TAIL * leaf_max.max()] *= 0.5
    # one panel resolves f on a leaf; the phase's oscillations come on top of it.
    # A leaf past the budget alone counts as the budget, so the sum below is refused
    n_sub = np.fmin(np.ceil(1.0 + h * rate * density), _NODE_BUDGET).astype(np.int64)
    # least m * 2**p >= n_sub with m <= _MAX_SPLIT: p is the bit length of (n_sub - 1) // 15
    p = np.where(smooth, np.frexp((n_sub - 1) // _MAX_SPLIT)[1], 0)
    n_sub = np.where(smooth, ((n_sub - 1) >> p) + 1 << p, n_sub)
    n_nodes = _GL_ORDER * int(n_sub.sum())
    if n_nodes > _NODE_BUDGET:
        raise NodeBudgetExceededError(
            f"{n_nodes:.3g} nodes or more needed at x={x:.3g}, t <= {ts.max():.3g}, "
            f"over the budget of {_NODE_BUDGET:.3g}; only the analytic path is feasible here"
        )
    return n_nodes, _node_pieces(packet, tfun, a, h / n_sub, n_sub, vals, smooth, p)


def _sub_panel_nodes(a, width, first, sub):
    """GL nodes ``(len(sub), 16)`` and widths of the sub-panels ``sub`` of leaves
    that start at ``a`` and hold equal sub-panels of ``width``, numbered from
    ``first``."""
    leaf = np.searchsorted(first, sub, side="right") - 1
    width = width[leaf]
    mids = a[leaf] + (sub - first[leaf] + 0.5) * width
    return mids[:, None] + 0.5 * width[:, None] * _GL_NODES, width


def _split(vals, matrix):
    """``(..., n, 16)`` panel values to ``(..., n m, 16)`` sub-panel values by a
    ``(16, 16 m)`` matrix of ``_split_t``."""
    return (vals.reshape(-1, _GL_ORDER) @ matrix).reshape(*vals.shape[:-2], -1, _GL_ORDER)


def _halvings(vals, p, limit):
    """Values at the GL nodes of the ``2**p`` equal sub-panels of each panel,
    from ``vals`` ``(..., n, 16)`` at the panels' own nodes, in k order and in
    blocks of at most ``limit`` nodes."""
    step = limit >> (4 + p)
    if step == 0:
        for row in range(vals.shape[-2]):
            yield from _halvings(_split(vals[..., row : row + 1, :], _split_t(2)), p - 1, limit)
        return
    for lo in range(0, vals.shape[-2], step):
        block = vals[..., lo : lo + step, :]
        for _ in range(p):
            block = _split(block, _split_t(2))
        yield block


def _segments(n_sub):
    """Leaves of ``n_sub`` sub-panels, numbered on from one another: each
    leaf's first sub-panel and segment count, and each segment's first
    sub-panel.  A leaf's segments start at its sub-panels 0, 32, 64, ..."""
    first = np.cumsum(n_sub) - n_sub
    counts = -(-n_sub // _SEGMENT)
    seg_first = np.cumsum(counts) - counts
    starts = np.repeat(first - _SEGMENT * seg_first, counts) + _SEGMENT * np.arange(counts.sum())
    return first, counts, starts


def _direct_pieces(packet, tfun, a, width, n_sub):
    """Segments of the leaves that evaluate ``phi0 tfun`` at their own nodes.

    Whole segments, at most ``_EVAL_NODES`` nodes of them (at least one
    segment), are evaluated in one call; a piece holds those of one padded
    row count, a power of two, the padding rows zero.
    """
    first, counts, start = _segments(n_sub)
    leaf = np.repeat(np.arange(n_sub.size), counts)
    end = np.minimum(start + _SEGMENT, (first + n_sub)[leaf])  # sorted, as segments follow on
    padded = 1 << np.frexp(end - start - 1)[1]
    lo = 0
    while lo < leaf.size:
        s0 = start[lo]
        hi = max(lo + 1, int(np.searchsorted(end, s0 + _EVAL_NODES // _GL_ORDER, side="right")))
        k = _sub_panel_nodes(a, width, first, np.arange(s0, end[hi - 1]))[0]
        f = (phi0(packet, k.ravel()) * tfun(k.ravel())).reshape(k.shape)
        for rows in sorted(set(padded[lo:hi].tolist()), reverse=True):
            seg = lo + np.flatnonzero(padded[lo:hi] == rows)
            sub = start[seg, None] + np.arange(rows)
            real = sub < end[seg, None]
            vals = np.zeros((seg.size, rows, _GL_ORDER), dtype=complex)
            vals[real] = f[sub[real] - s0]
            parts = vals.view(float).reshape(*vals.shape, 2).transpose(3, 0, 1, 2)
            yield parts, k[start[seg] - s0], width[leaf[seg]]
        lo = hi


def _smooth_pieces(a, width, n_sub, vals, smooth, p):
    """Segments of the smooth leaves, interpolated from their 16 refinement values.

    Per ``(m, p)`` group: the fixed split-into-m matrix, then ``p`` halvings,
    each one matmul over the real and the imaginary parts as separate rows, so
    every product is a matrix-matrix one and a row's values do not depend on
    the block it is in.  A piece holds whole leaves, or whole segments of 32
    sub-panels when the leaves' count is a multiple of 32.
    """
    m = n_sub >> p
    leaves = np.flatnonzero(smooth)
    if not leaves.size:
        return
    leaves = leaves[np.lexsort((p[leaves], m[leaves]))]  # by (m, p), in k order within
    a, width, n_sub, m, p, vals = a[leaves], width[leaves], n_sub[leaves], m[leaves], p[leaves], vals[leaves]
    first, counts, starts = _segments(n_sub)
    anchors, widths = _sub_panel_nodes(a, width, first, starts)
    parts = np.stack((vals.real, vals.imag))
    bounds = [0, *(np.flatnonzero(np.diff(m) | np.diff(p)) + 1).tolist(), leaves.size]
    seg_bounds = np.cumsum([0, *counts.tolist()])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        m_g, p_g = int(m[lo]), int(p[lo])
        n_g = m_g << p_g
        # sub-panels after which the segment pattern repeats, its full segments and tail
        span = n_g if n_g % _SEGMENT else _SEGMENT
        full, tail = divmod(span, _SEGMENT)
        segs = slice(seg_bounds[lo], seg_bounds[hi])
        anchors_g = anchors[segs].reshape(-1, full + (tail > 0), _GL_ORDER)
        widths_g = widths[segs].reshape(-1, full + (tail > 0))
        # halving blocks of whole spans, so that no segment straddles two blocks
        nodes = _GL_ORDER * span * max(1, _HALVING_NODES // (_GL_ORDER * span))
        i = 0
        for block in _halvings(_split(parts[:, lo:hi], _split_t(m_g)), p_g, nodes):
            spans = block.reshape(2, -1, span, _GL_ORDER)
            j = i + spans.shape[1]
            if full:
                rows = spans[:, :, : full * _SEGMENT].reshape(2, -1, _SEGMENT, _GL_ORDER)
                yield rows, anchors_g[i:j, :full].reshape(-1, _GL_ORDER), widths_g[i:j, :full].ravel()
            if tail:
                yield spans[:, :, full * _SEGMENT :], anchors_g[i:j, full], widths_g[i:j, full]
            i = j


def _node_pieces(packet, tfun, a, width, n_sub, vals, smooth, p):
    """Pieces ``(parts, k0, width)`` of ``phi0 tfun`` over every leaf's
    segments: the real and imaginary parts ``(2, S, L, 16)`` at the nodes of
    S segments of L sub-panels, their anchors (the nodes of each segment's
    first sub-panel) and their sub-panel widths.  Other leaves evaluate
    ``phi0`` and ``tfun`` at their nodes, smooth ones interpolate from their
    16 refinement values."""
    direct = ~smooth
    return itertools.chain(
        _direct_pieces(packet, tfun, a[direct], width[direct], n_sub[direct]),
        _smooth_pieces(a, width, n_sub, vals, smooth, p),
    )


def _segment_sums(amps, k0, width, x, cs):
    """Per ``C`` in ``cs`` and per segment: the sum over the segment's nodes of
    ``amps`` times the GL weight, ``width / 2``, ``(2 pi)^(-1/2)`` and
    ``exp(i phi)``, ``phi(k) = k x - C k**2``.

    Row r of segment s holds the 16 nodes ``k0[s] + r width[s]``, where
    ``exp(i phi) = E D**r q_r`` with ``E = exp(i phi(k0))``,
    ``D = exp(i width (x - 2 C k0))`` and ``q_r = exp(-i C width**2 r**2)``.
    Only the 16 + 16 arguments of E and D per segment and the R of q per run
    of equal widths go through ``cos`` and ``sin``; the weights ride on E;
    rows ``[n, 2n)`` are rows ``[0, n)`` times ``D**n``, and ``D**n`` comes by
    squaring.  Every step is elementwise or a product or sum over one
    segment's own rows and columns, so a segment's sum does not depend on the
    block it is in.  Returns ``(len(cs), S)``.
    """
    n_rows, n_seg, _ = amps.shape
    run = np.empty(n_seg, dtype=bool)  # segments of one leaf share a width
    run[0] = True
    np.not_equal(width[1:], width[:-1], out=run[1:])
    leaf = np.cumsum(run) - 1
    widths = width[run]
    # phase arguments base + C * slope: E's and D's 16 per segment, then q's
    n_lin = (2 if n_rows > 1 else 1) * n_seg * _GL_ORDER  # D is used past row 0 only
    base = np.zeros(n_lin + widths.size * n_rows)
    slope = np.empty_like(base)
    lin_base = base[:n_lin].reshape(-1, n_seg, _GL_ORDER)
    lin_slope = slope[:n_lin].reshape(-1, n_seg, _GL_ORDER)
    np.multiply(k0, x, out=lin_base[0])
    np.multiply(k0, -k0, out=lin_slope[0])
    if n_rows > 1:
        np.multiply(width[:, None], x, out=lin_base[1])
        np.multiply(width[:, None], -2.0 * k0, out=lin_slope[1])
    r2 = np.arange(n_rows) ** 2
    np.multiply(-(widths * widths)[:, None], r2, out=slope[n_lin:].reshape(widths.size, n_rows))
    weights = width[:, None] * _AMP_WEIGHTS
    cis = np.empty(base.shape, dtype=complex)
    args = cis.real  # each argument is used before its cosine overwrites it
    lin = cis[:n_lin].reshape(-1, n_seg, _GL_ORDER)
    anchor, step = lin[0], lin[-1]
    quad_w = cis[n_lin:].reshape(widths.size, n_rows).T
    quad = np.empty((n_seg, 1, n_rows), dtype=complex)
    factors = np.empty(amps.shape, dtype=complex)
    out = np.empty((cs.size, n_seg), dtype=complex)
    for i, c in enumerate(cs):
        np.multiply(slope, c, out=args)
        args += base
        np.sin(args, out=cis.imag)
        np.cos(args, out=cis.real)
        np.multiply(anchor, weights, out=factors[0])
        n = 1
        while n < n_rows:
            m = min(n, n_rows - n)
            np.multiply(factors[:m], step, out=factors[n : n + m])
            n += m
            if n < n_rows:
                np.multiply(step, step, out=step)
        factors *= amps
        np.take(quad_w.T, leaf, axis=0, out=quad[:, 0])
        # per segment, q times its rows, one product; then its 16 columns
        np.sum(np.matmul(quad, factors.transpose(1, 0, 2)), axis=(1, 2), out=out[i])
    return out


def _momentum_integral(packet, x, t, tfun):
    """``(2 pi)^(-1/2)`` times the integral over k of
    ``phi0(k) tfun(k) exp(i (k x - c k**2 t / hbar))`` on the grid of
    :func:`_panel_nodes`, at every time of ``t``.

    Each piece's segments are copied into the buffer of their padded row
    count R, whose segments' sums (see :func:`_segment_sums`) are added to
    R's running sum in their order whenever it fills and at the end; the
    totals are added in increasing R.  Each time's value is the one a
    one-point call on the same grid gives, at any ``_CHUNK_NODES``.
    """
    ts = np.asarray(t, dtype=float)
    if not (math.isfinite(x) and np.all(np.isfinite(ts))):
        raise ValueError("x and t must be finite")
    if np.any(ts < 0.0):
        raise ValueError("t must be >= 0")
    if ts.size == 0:
        return np.empty(ts.shape, dtype=complex)
    _, pieces = _panel_nodes(packet, x, ts, tfun)
    cs = packet.units.inv_mass_coeff * ts.ravel() / packet.units.hbar
    bufs, held, sums = {}, {}, {}  # per padded row count R: buffers, segments held, running sum

    def add(rows):  # the held segments' sums, added to R's running sum in their order
        amps, k0, width = bufs[rows]
        n, held[rows] = held[rows], 0
        seg = _segment_sums(amps[:, :n], k0[:n], width[:n], x, cs)
        sums[rows] = np.cumsum(np.column_stack([sums[rows], seg]), axis=1)[:, -1]

    for parts, k0, width in pieces:
        n_seg, n_rows = parts.shape[1:3]
        rows = 1 << (n_rows - 1).bit_length()
        if rows not in bufs:
            cap = max(1, _CHUNK_NODES // (_GL_ORDER * rows))
            bufs[rows] = np.empty((rows, cap, _GL_ORDER), complex), np.empty((cap, _GL_ORDER)), np.empty(cap)
            held[rows], sums[rows] = 0, np.zeros(cs.size, dtype=complex)
        amps, anchors, widths = bufs[rows]
        s = 0
        while s < n_seg:
            n = held[rows]
            take = min(amps.shape[1] - n, n_seg - s)
            src, dst = slice(s, s + take), slice(n, n + take)
            amps.real[:n_rows, dst] = parts[0, src].transpose(1, 0, 2)
            amps.imag[:n_rows, dst] = parts[1, src].transpose(1, 0, 2)
            amps[n_rows:, dst] = 0.0
            anchors[dst], widths[dst] = k0[src], width[src]
            s, held[rows] = s + take, n + take
            if held[rows] == amps.shape[1]:
                add(rows)
    for rows in sorted(bufs):
        if held[rows]:
            add(rows)
    acc = np.zeros(cs.size, dtype=complex)
    for rows in sorted(sums):
        acc += sums[rows]
    return complex(acc[0]) if ts.ndim == 0 else acc.reshape(ts.shape)


def _scalar_x(x):
    """``float(x)``; ``ValueError`` unless ``x`` is one position."""
    if np.ndim(x) != 0:
        raise ValueError(f"x must be a scalar, got shape {np.shape(x)}; t may be an array")
    return float(x)


def psi_quadrature(packet, profile, x, t):
    """Transmitted amplitude by direct quadrature with the exact t(k) at one
    ``x``: a complex for a scalar ``t``; for an array, an array of its shape
    on one node grid."""
    x = _scalar_x(x)
    if x < profile.length:
        raise ValueError("quadrature oracle evaluates the transmitted region x >= L")
    packet.require_units(profile)
    return _momentum_integral(packet, x, t, _Transmission(profile))


def psi_free_quadrature(packet, x, t):
    """Free amplitude by the same quadrature engine (t(k) = 1)."""
    return _momentum_integral(packet, _scalar_x(x), t, _free_tfun)
