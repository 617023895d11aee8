"""Catalog of fourth-quadrant transmission poles of a layered potential.

Newton runs in lockstep on the vector kernel from the asymptotic seeds
n pi/L - 2i ln(n)/L of every index n up to the anchor ``n_seed``.  One
argument-principle count then certifies the catalog: the winding number of
t22 (analytic, as it does not depend on the branch of any layer wavevector)
around the box [pi/(40L), Re anchor + pi/(2L)] x [1.5 min Im kappa, 1e-3/L].
Every edge starts at two samples per pole spacing pi/L and is refined only
where the sampled phase step, or |dk t22'/t22| at either end of an
interval, reaches pi/4; the bottom edge samples t22 exp(-2ikL) and adds the
exact 2L dRe k back.  Where a cell's count exceeds the poles found in it, the
cell is halved, at the vertical cuts on which the bottom and top phases are
kept while it is at least pi/L wide and along its longer side after that,
and Newton starts from its centre once it is narrower than pi/L (Delves &
Lyness, Math. Comp. 21 (1967) 543; Kravanja & Van Barel, LNM 1727).

Before that fill, the kept phases estimate the zeros missing left of each
cut at no kernel cost: the bottom-minus-top phase over 2 pi less the index
of the poles found, interpolated linearly between them at the cut (a count
of the poles below it would alternate between neighbouring cuts).  Where the
estimate rises by more than ``_RIM_RISE`` across two pole spacings, Newton
runs in lockstep from one seed per half spacing, at the depth interpolated
between the poles found on either side.  Only if the count still exceeds the
poles found does the fill run.  Every pole the lockstep batch did not find
then takes ``_POLISH_STEPS`` more Newton steps, so that it does not depend
on the seed that reached it, unless they would move it out of the box or
onto another pole.  The sweep raises :class:`IncompleteCatalogError` unless
the poles found are exactly the count; nothing is drawn at random.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .potential import residual_gate, t22, t22_with_prime

__all__ = [
    "AnchorFailureError",
    "IncompleteCatalogError",
    "IndexTooSmallError",
    "PoleCatalog",
    "PoleSearchConfig",
    "SweepStats",
    "asymptotic_seed",
    "catalog_fingerprint",
    "load_catalog",
    "save_catalog",
    "sweep_poles",
]


class AnchorFailureError(RuntimeError):
    """The asymptotic anchor itself did not converge."""


class IndexTooSmallError(ValueError):
    """Asymptotic seed formula needs n >= 2."""


class IncompleteCatalogError(RuntimeError):
    """The poles found are not the zeros counted in the sweep box."""


# argument-principle count: starting samples per pole spacing pi/L, the
# largest phase step allowed between neighbouring samples (sampled, or
# |dk t22'/t22| at either end) and the most samples refinement may add to a path
_ARG_PER_SPACING = 2
_ARG_MAX_STEP = math.pi / 4.0
_ARG_MAX_POINTS = 2**16
# halvings along the longer side of a cell narrower than pi/L that is short
# of poles; 8 sufficed on every superlattice tried
_BISECT_DEPTH = 12
# below this many points one vector kernel call costs more than scalar ones;
# above this many the kernel's temporaries would raise the peak memory
_SCALAR_POINTS = 8
_VECTOR_POINTS = 4096
# a slab two pole spacings wide across which the rim phases count more than
# this many zeros over the poles found gets Newton seeds before any fill; a
# missed pole reads about 1 there, a slab with none up to 0.7 on the presets
_RIM_RISE = 0.75
# Newton steps over every pole the lockstep batch did not find, which leave
# it at the rounding level of the zero whatever seed reached it
_POLISH_STEPS = 2


# Newton's step tolerance, its iteration cap and the distance below which two
# poles are one: properties of the method, covered by _CATALOG_REVISION rather
# than by the config, as is the residual gate (``residual_gate`` and its floor
# ``_RESIDUAL_TOL``, kept in ``potential`` with ``transmission_amplitude``,
# which refuses by the same gate)
_NEWTON_TOL = 1e-12
_MAX_NEWTON_ITERS = 100
_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class PoleSearchConfig:
    """Pole-sweep parameters: the anchor index ``n_seed``, which sets how
    many resonances the catalog carries.  ``seed`` selects nothing, since the
    sweep is deterministic; it stays a field for callers that still pass it,
    but no fingerprint, file or comparison reads it."""

    n_seed: int
    seed: int = field(default=0, compare=False)
    # the distance below which two poles are one; only the benchmark's
    # catalog checks read it here (the tests read _DEDUP_TOL), so it goes at
    # the benchmark's next change
    dedup_tol: ClassVar[float] = _DEDUP_TOL

    def __post_init__(self):
        if self.n_seed < 2:
            raise ValueError("n_seed must be >= 2")

    def fingerprint_key(self):
        return f"n_seed={self.n_seed}"


# bumped whenever the sweep, its constants, t22 or the residues can move the
# bits of a cached catalog or its residue columns under an unchanged config,
# so that caches written before are rebuilt, not reused
_CATALOG_REVISION = 5


def catalog_fingerprint(profile, config):
    """Hash identifying (profile, search config, catalog revision) for cache
    lookups."""
    key = (
        f"{profile.fingerprint_key()}|{config.fingerprint_key()}"
        f"|revision={_CATALOG_REVISION}"
    )
    return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepStats:
    """What one :func:`sweep_poles` call did.

    ``box`` is ``(Re lo, Re hi, Im lo, Im hi)`` of the rectangle in which the
    argument principle counted ``count`` zeros of t22.  ``lockstep`` poles
    came from the lockstep batch, the anchor's seed included, ``targeted``
    poles from the seeds where the rim phases count zeros the batch missed,
    and ``fill`` poles from Newton runs started in cells whose count
    exceeded the poles found in them.  A catalog is returned, and so cached,
    only when their sum is ``count``.
    ``newton_iterations`` counts the Newton steps of the whole sweep, one
    ``t22_with_prime`` evaluation each.
    """

    box: tuple
    count: int
    lockstep: int
    targeted: int
    fill: int
    newton_iterations: int
    seconds: float

    def summary(self):
        re_lo, re_hi, im_lo, im_hi = self.box
        return (
            f"sweep: {self.count} zeros in box: {self.lockstep} lockstep + "
            f"{self.targeted} targeted + {self.fill} fill; "
            f"box Re [{re_lo:.6g}, {re_hi:.6g}] x Im [{im_lo:.6g}, {im_hi:.6g}] nm^-1, "
            f"{self.newton_iterations} Newton iterations, {self.seconds:.2f} s"
        )


def _freeze_columns(obj, dtypes):
    """Store each field named in ``dtypes`` of the frozen dataclass ``obj`` as
    a read-only copy of its dtype, so the caller's array stays writeable.
    Raises ``ValueError`` naming the field when it holds a non-finite value
    or is not as long as the first field."""
    kind = type(obj).__name__
    arrays = {name: np.array(getattr(obj, name), dtype=dtype) for name, dtype in dtypes.items()}
    first, n = next((name, len(arr)) for name, arr in arrays.items())
    for name, arr in arrays.items():
        if len(arr) != n:
            raise ValueError(f"{kind}.{name} has {len(arr)} entries, {first} has {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{kind}.{name} holds a non-finite value")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class PoleCatalog:
    """Validated, ordered fourth-quadrant poles with per-pole |t22| residuals.

    ``stats`` is set by :func:`sweep_poles` and None for a loaded catalog.
    Non-finite values and arrays of unequal length are refused.  A catalog
    equals and hashes as itself only (``eq=False``), so it can key a cache."""

    poles: np.ndarray
    residuals: np.ndarray
    profile_fingerprint: str
    length: float
    config: PoleSearchConfig
    stats: SweepStats | None = None

    def __post_init__(self):
        _freeze_columns(self, {"poles": complex, "residuals": float})

    def __len__(self):
        return len(self.poles)

    def energies(self, units):
        """Complex pole energies E_n = (hbar^2/2m) kappa_n^2."""
        return units.energy_of_wavenumber(self.poles)

    def widths(self, units):
        """Resonance widths Gamma_n = -2 Im E_n (eV)."""
        return -2.0 * np.imag(self.energies(units))

    def positions(self, units):
        """Resonance positions Re E_n (eV)."""
        return np.real(self.energies(units))

    def require_profile(self, profile):
        """Raise ``ValueError``, naming both fingerprints, unless the catalog
        was swept for ``profile``."""
        expected = catalog_fingerprint(profile, self.config)
        if self.profile_fingerprint != expected:
            raise ValueError(
                f"catalog fingerprint {self.profile_fingerprint} is not the profile's "
                f"{expected}; a catalog must be swept for its profile"
            )


def asymptotic_seed(n, length):
    """High-index pole estimates n pi/L - i (2/L) ln n for an index or an
    array of indices n >= 2: the sweep's Newton seeds."""
    n = np.asarray(n)
    if np.any(n < 2):
        raise IndexTooSmallError("asymptotic seed requires n >= 2")
    return n * (math.pi / length) - 2j * np.log(n) / length


def _t22_or_nan(profile, k):
    """``(t22, t22')`` over the array ``k``, NaN where the kernel raises (k
    at 0 or an overflowing factor; a layer branch point is evaluated, see
    :mod:`tunnelwave.potential`).  Such points, and runs longer than
    ``_VECTOR_POINTS``, are split off by halving; up to ``_SCALAR_POINTS``
    points go one by one through the scalar kernel."""
    if _SCALAR_POINTS < k.size <= _VECTOR_POINTS:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return t22_with_prime(profile, k)
        except (ArithmeticError, ValueError):
            pass
    if k.size > _SCALAR_POINTS:
        parts = [_t22_or_nan(profile, part) for part in np.array_split(k, 2)]
        return tuple(np.concatenate(pair) for pair in zip(*parts))
    pairs = np.full((k.size, 2), complex(np.nan, np.nan))
    for i, x in enumerate(k.tolist()):
        try:
            pairs[i] = t22_with_prime(profile, x)
        except (ArithmeticError, ValueError):
            pass
    return pairs[:, 0], pairs[:, 1]


def _newton_lockstep(seeds, profile, counts):
    """Newton-Raphson iteration on t22 from every seed at once, in lockstep.

    An element is accepted once |t22| is within a quarter of the depth-aware
    gate (below it the step just jitters), or within the gate after a step
    shorter than ``_NEWTON_TOL``; it is retired on its own, as NaN, when it
    diverges, leaves the fourth quadrant, meets a point where t22 cannot be
    evaluated or uses up ``_MAX_NEWTON_ITERS``.  Element-iterations are added
    to ``counts["newton"]``.
    """
    k = np.array(seeds, dtype=complex)
    poles = np.full(k.shape, complex(np.nan, np.nan))
    live = np.arange(k.size)
    length = profile.length
    for _ in range(_MAX_NEWTON_ITERS):
        if not live.size:
            break
        counts["newton"] += live.size
        kl = k[live]
        val, der = _t22_or_nan(profile, kl)
        ok = np.isfinite(val) & np.isfinite(der) & (der != 0)
        hit = ok & (np.abs(val) <= 0.25 * residual_gate(length, kl))
        poles[live[hit]] = kl[hit]
        go = ok & ~hit
        step = val[go] / der[go]
        kn = kl[go] - step
        stay = np.isfinite(kn) & (kn.imag <= 0.0)
        live, kn, step = live[go][stay], kn[stay], step[stay]
        k[live] = kn
        small = np.abs(step) < _NEWTON_TOL
        if np.any(small):
            vs, _ = _t22_or_nan(profile, kn[small])
            accept = np.abs(vs) < residual_gate(length, kn[small])
            poles[live[small][accept]] = kn[small][accept]
            drop = np.zeros(live.size, dtype=bool)
            drop[small] = accept | ~np.isfinite(vs)
            live = live[~drop]
    return poles


def _segment(start, end, length):
    """Both ends and ``_ARG_PER_SPACING`` samples per pi/L from start to end."""
    n = math.ceil(_ARG_PER_SPACING * abs(end - start) * length / math.pi)
    return np.linspace(start, end, max(n, 1) + 1)


def _edge_phases(profile, edges):
    """Phase of t22 along straight paths, refined until it is resolved.

    ``edges`` holds ``(samples, lower)`` pairs: the starting points of a path
    in order, and whether it samples t22 exp(-2ikL), whose phase does not wind
    with Re k deep in the lower half-plane, and adds the exact 2L dRe k back.
    An interval whose sampled phase step, or |dk t22'/t22| at either end,
    reaches ``_ARG_MAX_STEP`` is cut into pieces short enough for that bound;
    all paths share one vector ``t22_with_prime`` call per round.  Returns
    per path the phase of t22 at each starting sample from the first, or None
    where it is not resolved: a sample at k = 0 or overflowing, a non-finite
    or zero value, or over ``_ARG_MAX_POINTS`` added.  A sample at a layer
    branch point is evaluated like any other.
    """
    if not edges:
        return []
    length = profile.length
    sizes = [len(pts) for pts, _ in edges]
    k = np.concatenate([pts for pts, _ in edges]).astype(complex)
    edge = np.repeat(np.arange(len(edges)), sizes)
    lower = np.array([low for _, low in edges])
    failed = np.zeros(len(edges), dtype=bool)
    given = np.ones(k.size, dtype=bool)
    val = dlog = np.empty(0, dtype=complex)
    # the points to evaluate, their paths and where they go in val and dlog
    new, new_edge, at = k, edge, np.zeros(k.size, dtype=int)
    while new.size:
        v, d = _t22_or_nan(profile, new)
        low = lower[new_edge]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d = d / v
            v[low] *= np.exp(-2j * length * new[low])
            d[low] -= 2j * length
            val, dlog = np.insert(val, at, v), np.insert(dlog, at, d)
            failed[edge[~(np.isfinite(val) & (val != 0) & np.isfinite(dlog))]] = True
            steps = np.angle(val[1:] / val[:-1])
            dk = np.diff(k)
            slope = np.maximum(np.abs(dlog[1:]), np.abs(dlog[:-1])) * np.abs(dk)
            excess = np.maximum(np.abs(steps), slope) / _ARG_MAX_STEP
        inner = (edge[1:] == edge[:-1]) & ~failed[edge[1:]]
        wide = np.flatnonzero(inner & (excess >= 1.0))
        # int(excess) new points, so that many pieces + 1, in a wide interval
        cuts = np.minimum(excess[wide], _ARG_MAX_POINTS).astype(int)
        grown = np.bincount(edge[wide], weights=cuts, minlength=len(edges))
        grown += np.bincount(edge[~given], minlength=len(edges))
        failed |= grown > _ARG_MAX_POINTS
        wide, cuts = wide[~failed[edge[wide]]], cuts[~failed[edge[wide]]]
        piece = np.arange(1, cuts.sum() + 1) - np.repeat(np.cumsum(cuts) - cuts, cuts)
        at = np.repeat(wide + 1, cuts)
        new = k[at - 1] + np.repeat(dk[wide] / (cuts + 1), cuts) * piece
        new_edge = edge[at - 1]
        k, edge = np.insert(k, at, new), np.insert(edge, at, new_edge)
        given = np.insert(given, at, False)
    total = np.concatenate(([0.0], np.cumsum(np.where(inner, steps, 0.0))))
    start = np.searchsorted(edge, edge)
    phase = total - total[start]
    phase[lower[edge]] += 2.0 * length * (k - k[start]).real[lower[edge]]
    phases = np.split(phase[given], np.cumsum(sizes)[:-1])
    return [None if bad else p for p, bad in zip(phases, failed)]


def _boundary(rect, length):
    """The counter-clockwise boundary of ``rect = (re_lo, re_hi, im_lo,
    im_hi)`` as :func:`_edge_phases` paths, the bottom edge a lower one."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi)]
    corners += [complex(re_lo, im_hi), corners[0]]
    return [(_segment(a, b, length), a.imag == b.imag == im_lo)
            for a, b in zip(corners, corners[1:])]


def _winding(parts):
    """Zeros enclosed by the closed path of phase arrays ``parts``, or None."""
    if not any(p is None for p in parts):
        return round(sum(p[-1] for p in parts) / (2.0 * math.pi))


def _zero_count(profile, re_c, half_re, im_c, half_im):
    """Zeros of t22 inside the rectangle by the argument principle, None
    when an edge is not resolved; a test companion of :class:`_Box`."""
    rect = (re_c - half_re, re_c + half_re, im_c - half_im, im_c + half_im)
    return _winding(_edge_phases(profile, _boundary(rect, profile.length)))


class _Box:
    """Zero counts of the cells of the sweep box ``rect``.

    The bottom and top edges are sampled once, and their phases kept at
    vertical cuts ``_ARG_PER_SPACING`` per pole spacing pi/L, so the count of
    a full-height slab between two cuts costs only those two cuts.
    """

    def __init__(self, profile, rect):
        re_lo, re_hi, self.im_lo, self.im_hi = self.rect = rect
        self.profile = profile
        self.cuts = _segment(re_lo, re_hi, profile.length)
        bottom, top = _edge_phases(profile, [
            (self.cuts + 1j * self.im_lo, True), (self.cuts + 1j * self.im_hi, False)
        ])
        # phase of t22 rightwards along the bottom edge less that along the top
        self.rim = None if bottom is None or top is None else bottom - top

    def counts(self, cells):
        """Zeros of t22 in each ``(rect, span)`` of ``cells``, None where
        not resolved: the slab between cuts ``span = (i, j)``, or ``rect``
        where ``span`` is None.  All edges share one :func:`_edge_phases`
        call."""
        paths = []
        for rect, span in cells:
            if span is None:
                paths += _boundary(rect, self.profile.length)
                continue
            # up the right cut, then down the left one
            x0, x1 = self.cuts[span[0]], self.cuts[span[1]]
            for a, b in ((complex(x1, self.im_lo), complex(x1, self.im_hi)),
                         (complex(x0, self.im_hi), complex(x0, self.im_lo))):
                paths.append((_segment(a, b, self.profile.length), False))
        phases = iter(_edge_phases(self.profile, paths))
        out = []
        for _, span in cells:
            if span is None:
                out.append(_winding([next(phases) for _ in range(4)]))
                continue
            rim = None if self.rim is None else [self.rim[span[1]] - self.rim[span[0]]]
            out.append(_winding([next(phases), next(phases), rim]))
        return out


def _rim_slabs(box, found):
    """Spans ``(i, j)`` of cuts two pole spacings wide, merged where they
    meet, across which the rim phases of ``box`` count more than
    ``_RIM_RISE`` zeros over the poles ``found``, ordered by real part."""
    index = np.interp(box.cuts, found.real, np.arange(found.size))
    deficit = (box.rim - box.rim[0]) / (2.0 * math.pi) - index
    width = 2 * _ARG_PER_SPACING
    spans = []
    for i in np.flatnonzero(deficit[width:] - deficit[:-width] > _RIM_RISE).tolist():
        if spans and i <= spans[-1][1]:
            spans[-1] = (spans[-1][0], i + width)
        else:
            spans.append((i, i + width))
    return spans


def _rim_seeds(box, spans, found):
    """Newton seeds in ``spans``: one between each two neighbouring cuts, at
    the depth interpolated between the poles ``found``, ordered by real part,
    on either side."""
    mids = [(box.cuts[i] + box.cuts[i + 1]) / 2 for a, b in spans for i in range(a, b)]
    return np.array(mids) + 1j * np.interp(mids, found.real, found.imag)


def _is_new(found, k, rect):
    """Whether ``k`` is finite, inside ``rect`` and more than ``_DEDUP_TOL``
    from every pole ``found``."""
    re_lo, re_hi, im_lo, _ = rect
    return bool(np.isfinite(k) and re_lo <= k.real <= re_hi and k.imag >= im_lo
                and np.all(np.abs(found - k) >= _DEDUP_TOL))


def _keep_new(found, ks, rect):
    """``found`` with each ``k`` of ``ks`` that :func:`_is_new` keeps."""
    for k in ks:
        if _is_new(found, k, rect):
            found = np.append(found, k)
    return found


def _fill(profile, box, count, found, counts):
    """``found`` completed where the zero count exceeds the poles in it.

    The box is the first cell.  A cell short of poles, or whose count is not
    resolved, is halved at its middle cut while it is at least pi/L wide,
    then along its longer side, ``_BISECT_DEPTH`` times.  Once it is
    narrower than pi/L, Newton first starts from its centre, in lockstep
    with the other such cells, and it is halved only if still short.  A pole
    is kept when it lies in the box and more than ``_DEDUP_TOL`` from every
    pole found; Newton iterations are added to ``counts["newton"]``.
    """
    spacing = math.pi / profile.length

    def short(cell):
        (x0, x1, y0, y1), n, _, _ = cell
        inside = (found.real >= x0) & (found.real <= x1)
        inside &= (found.imag >= y0) & (found.imag <= y1)
        return n is None or n > np.count_nonzero(inside)

    cells = [(box.rect, count, (0, len(box.cuts) - 1), _BISECT_DEPTH)]
    while cells:
        cells = list(filter(short, cells))
        seeds = [complex(x0 + x1, y0 + y1) / 2 for (x0, x1, y0, y1), *_ in cells
                 if x1 - x0 < spacing]
        found = _keep_new(found, _newton_lockstep(seeds, profile, counts), box.rect)
        halves = []
        for (x0, x1, y0, y1), _, span, depth in filter(short, cells):
            if span is not None and x1 - x0 >= spacing:
                i, j = span
                m = (i + j) // 2
                halves.append(((x0, box.cuts[m], y0, y1), (i, m), depth))
                halves.append(((box.cuts[m], x1, y0, y1), (m, j), depth))
            elif depth and x1 - x0 >= y1 - y0:
                halves.append((((x0 + x1) / 2, x1, y0, y1), None, depth - 1))
                halves.append(((x0, (x0 + x1) / 2, y0, y1), None, depth - 1))
            elif depth:
                halves.append(((x0, x1, (y0 + y1) / 2, y1), None, depth - 1))
                halves.append(((x0, x1, y0, (y0 + y1) / 2), None, depth - 1))
        counted = box.counts([(rect, span) for rect, span, _ in halves])
        cells = [(r, n, s, depth) for (r, s, depth), n in zip(halves, counted)]
    return found


def _polish(found, start, profile, counts, rect):
    """``found`` with ``_POLISH_STEPS`` Newton steps, taken at once, from
    every pole at ``start`` on.  A pole stays where it is if a step cannot be
    taken, or if the steps would leave it outside ``rect`` or within
    ``_DEDUP_TOL`` of another pole."""
    k = found[start:]
    for _ in range(_POLISH_STEPS):
        counts["newton"] += k.size
        val, der = _t22_or_nan(profile, k)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = val / der
        k = np.where(np.isfinite(step), k - step, k)
    found = found.copy()
    for i, polished in enumerate(k, start):
        if _is_new(np.delete(found, i), polished, rect):
            found[i] = polished
    return found


def sweep_poles(profile, config):
    """Lockstep Newton, one zero count of the sweep box, the rim seeds and
    the fill (see the module docstring); returns a validated
    :class:`PoleCatalog` whose ``stats`` record what the sweep did.  Raises
    :class:`IncompleteCatalogError` unless it holds exactly the count."""
    if not profile.has_barrier:
        raise ValueError("profile has no barrier; t22 has no zeros")
    started = time.perf_counter()
    iterations = Counter()
    length = profile.length
    seeds = asymptotic_seed(np.arange(2, config.n_seed + 1), length)
    poles = _newton_lockstep(seeds, profile, iterations)
    anchor = poles[-1]
    re_lo = math.pi / (40.0 * length)
    if not (anchor.real > re_lo and anchor.imag < 0.0):
        raise AnchorFailureError("asymptotic anchor did not converge")
    re_hi = anchor.real + math.pi / (2.0 * length)
    poles = poles[(poles.real >= re_lo) & (poles.real <= re_hi)]  # NaN drops out
    box = (re_lo, re_hi, 1.5 * float(np.min(poles.imag)), 1e-3 / length)
    counter = _Box(profile, box)
    (count,) = counter.counts([(box, (0, len(counter.cuts) - 1))])
    if count is None:
        raise IncompleteCatalogError("the zero count of the sweep box is not resolved")
    found = np.sort_complex(poles)
    found = found[np.append(True, np.abs(np.diff(found)) >= _DEDUP_TOL)]
    lockstep = found.size
    spans = _rim_slabs(counter, found) if lockstep < count else []
    if spans:
        seeds = _rim_seeds(counter, spans, found)
        found = _keep_new(found, _newton_lockstep(seeds, profile, iterations), box)
    targeted = found.size - lockstep
    if found.size < count:
        found = _fill(profile, counter, count, found, iterations)
    found = _polish(found, lockstep, profile, iterations, box)

    # the distinct poles found, ordered by real part, each within its gate
    found = np.sort_complex(found)
    residuals = np.abs(t22(profile, found))
    kept = residuals <= residual_gate(length, found)
    stats = SweepStats(box, count, lockstep, targeted, found.size - lockstep - targeted,
                       iterations["newton"], time.perf_counter() - started)
    if np.count_nonzero(kept) != count:
        raise IncompleteCatalogError(
            f"{np.count_nonzero(kept)} poles found; {stats.summary()}"
        )
    return PoleCatalog(
        poles=found[kept],
        residuals=residuals[kept],
        profile_fingerprint=catalog_fingerprint(profile, config),
        length=length,
        config=config,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# serialization: versioned columnar text, bit-exact round trip
# ---------------------------------------------------------------------------

_FORMAT_TAG = "polecatalog v1"
_COLUMNS = (
    "n", "re_kappa", "im_kappa", "residual",
    "re_r", "im_r", "re_u0", "im_u0", "re_uL", "im_uL",
)


_CHECKSUM = "# sha256: "


def _checksum(data):
    """SHA-256 of the bytes ``data`` with its checksum line taken out (no
    copy is made).  Without that line the header has no checksum to match."""
    view = memoryview(data)
    start = data.find(b"\n" + _CHECKSUM.encode()) + 1
    end = data.find(b"\n", start) + 1
    digest = hashlib.sha256(view[:start])
    digest.update(view[end:])
    return digest.hexdigest()


def save_catalog(catalog, path, *, residues, u0, u_l):
    """Write the catalog with its residue columns as '#'-headed CSV.  The
    last header line is the SHA-256 of all the others."""
    cfg = catalog.config
    lines = [
        f"# {_FORMAT_TAG}",
        f"# fingerprint: {catalog.profile_fingerprint}",
        "# units: nm fs eV",
        f"# length_nm: {catalog.length!r}",
        f"# config: {cfg.fingerprint_key()}",
        f"# columns: {','.join(_COLUMNS)}",
        f"# rows: {len(catalog)}",
    ]
    data = [catalog.poles.real, catalog.poles.imag, catalog.residuals]
    for x in (residues, u0, u_l):
        x = np.asarray(x, dtype=complex)
        data += [x.real, x.imag]
    row = "%d," + ",".join(["%.17e"] * len(data)) + "\n"
    table = np.column_stack(data).tolist()
    body = "".join(row % (i, *values) for i, values in enumerate(table, start=1))
    head = "\n".join(lines) + "\n"
    digest = hashlib.sha256(head.encode())
    digest.update(body.encode())
    write_text_atomic(path, f"{head}{_CHECKSUM}{digest.hexdigest()}\n{body}")


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and ``os.replace``, so no reader ever sees a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_config(text):
    """The config whose ``fingerprint_key`` is ``text``; ``ValueError`` when a
    key is unknown or missing, as in a cache written with other options."""
    items = dict(item.split("=", 1) for item in text.split(";"))
    if items.keys() != {"n_seed"}:
        raise ValueError(f"config keys {sorted(items)} are not ['n_seed']")
    return PoleSearchConfig(n_seed=int(items["n_seed"]))


def load_catalog(path):
    """Read a catalog written by :func:`save_catalog`.

    Returns ``(catalog, extras)`` where ``extras`` is a dict with
    ``residues``, ``u0`` and ``u_l`` complex arrays.  Raises ``ValueError``
    naming the file when the ``rows`` header is missing or disagrees with the
    rows read, as in a file cut at a row boundary, when there is no row, when
    the columns are not the ten :func:`save_catalog` writes, when another
    header line is missing, when a row is not one number per column or the
    file does not end with a newline, as in a file cut inside a row, and when
    the checksum does not match the other lines, as in a changed digit; that
    is checked before the values are, so a value changed to ``nan`` gets it
    too.  The checksum is of the bytes as read: no newline translation may
    hide a changed byte.
    """
    data = Path(path).read_bytes()
    digest = _checksum(data)
    text = data.decode("utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != f"# {_FORMAT_TAG}":
        raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
    # every line is written whole, so a missing final newline is a file cut
    # inside its last line, possibly inside a number that still parses
    if not text.endswith("\n"):
        raise ValueError(f"{path}: cut inside its last line")
    header = {}
    rows = []
    for line in lines[1:]:
        line = line.strip()
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            header[key.strip()] = val.strip()
        elif line:
            rows.append(line)
    # np.loadtxt only warns on no rows
    if header.get("rows") != str(len(rows)) or not rows:
        raise ValueError(f"{path}: {len(rows)} rows read, header says {header.get('rows')}")
    if tuple(header.get("columns", "").split(",")) != _COLUMNS:
        raise ValueError(f"{path}: columns are not {','.join(_COLUMNS)}")
    missing = [key for key in ("fingerprint", "length_nm", "config") if key not in header]
    if missing:
        raise ValueError(f"{path}: no header line for {', '.join(missing)}")
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if table.shape[1] != len(_COLUMNS):
        raise ValueError(f"{path}: rows have {table.shape[1]} fields, not {len(_COLUMNS)}")
    config = _parse_config(header["config"])
    # before the catalog is built, which would refuse a changed value that is
    # not finite without naming the file
    if header.get("sha256") != digest:
        raise ValueError(f"{path}: checksum does not match its lines")
    catalog = PoleCatalog(
        poles=table[:, 1] + 1j * table[:, 2],
        residuals=table[:, 3],
        profile_fingerprint=header["fingerprint"],
        length=float(header["length_nm"]),
        config=config,
    )
    return catalog, {
        "residues": table[:, 4] + 1j * table[:, 5],
        "u0": table[:, 6] + 1j * table[:, 7],
        "u_l": table[:, 8] + 1j * table[:, 9],
    }
