"""Catalog of fourth-quadrant transmission poles of a layered potential.

The sweep anchors on the large-index asymptotic seed, Newton-converges it,
then walks inward one pole spacing (pi/L) at a time, looking for each pole
inside a confinement rectangle around its predicted location.  Before the
walk, Newton runs once in lockstep on the vector kernel from the asymptotic
seeds n pi/L - 2i ln(n)/L of every index n below the anchor, each element
under the scalar iteration's acceptance rules and retired on its own when it
diverges or meets a point where t22 cannot be evaluated.  Until the walk
leaves its first regime, the rectangle of index n takes the lockstep pole of
seed n when that pole lies inside it, never a neighbour's pole; every other
rectangle gets a deterministic Newton seed of its own.  When that seed
misses, the zeros of t22 inside the rectangle are counted by the argument
principle: the winding number of t22 around the counter-clockwise boundary,
sampled with the vector kernel (all four edges in one call per refinement)
and refined until every phase step is below pi/4 (t22 is analytic there,
since it does not depend on the branch chosen for each layer wavevector).  A
count of zero proves the rectangle empty.  Where the count is nonzero or the
certificate inconclusive (branch point on the boundary, overflow, a zero of
t22 on the boundary, or the refinement cap reached), the rectangle is halved
along its longer side and each half whose count is not zero gets a Newton
seed at its centre or is halved again, down to a fixed depth (Kravanja & Van
Barel, LNM 1727), so the catalog depends only on the profile and the config.
After the first rectangle that yields no pole the walk switches permanently
to thin rectangles (pi / (subdivision L) wide, twice as tall) that are
allowed to be empty, which is what resolves sharp and overlapping resonances
near and below the barrier top.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .potential import (
    BranchPointProximityError,
    ZeroWavenumberError,
    t22,
    t22_with_prime,
    transmission_coefficient,
)

__all__ = [
    "AnchorFailureError",
    "DivergenceError",
    "IndexTooSmallError",
    "PoleCatalog",
    "PoleSearchConfig",
    "SweepStats",
    "asymptotic_seed",
    "breit_wigner_seeds",
    "catalog_fingerprint",
    "load_catalog",
    "mirror_poles",
    "newton_step_sequence",
    "residual_gate",
    "save_catalog",
    "sweep_poles",
]


class DivergenceError(RuntimeError):
    """Newton iteration failed; the sweep falls back to the zero count."""


class AnchorFailureError(RuntimeError):
    """The asymptotic anchor itself did not converge."""


class IndexTooSmallError(ValueError):
    """Asymptotic seed formula needs n >= 2."""


_EPS = np.finfo(float).eps

# argument-principle certificate: samples per rectangle edge and the largest
# phase step between neighbouring samples
_ARG_START_POINTS = 64
_ARG_REFINE = 4
_ARG_MAX_POINTS = 2**16
_ARG_MAX_STEP = math.pi / 4.0
# halvings of a rectangle whose zero count is nonzero or inconclusive; one
# sufficed on every superlattice tried, and where every half stays
# inconclusive (overflow) the work grows as 2**depth Newton starts
_BISECT_DEPTH = 6


def residual_gate(config, length, kappa):
    """Depth-aware acceptance threshold on |t22| at a candidate pole.

    Near a zero at depth beta = -Im(kappa), the evaluated |t22| cannot drop
    below ~eps * exp(beta L) in double precision (the value is a cancellation
    of O(1) contributions scaled back by exp(ikL)).  For shallow poles the
    gate is exactly ``config.residual_tol``.
    """
    return _residual_gate(config.residual_tol, length, kappa)


def _residual_gate(residual_tol, length, kappa):
    """:func:`residual_gate` for a complex ``kappa`` or an array of them."""
    if isinstance(kappa, np.ndarray):
        growth = np.exp(np.clip(-kappa.imag * length, 0.0, 690.0))
        return np.maximum(residual_tol, 64.0 * _EPS * growth)
    growth = math.exp(min(-kappa.imag * length, 690.0)) if kappa.imag < 0.0 else 1.0
    return max(residual_tol, 64.0 * _EPS * growth)


@dataclass(frozen=True)
class PoleSearchConfig:
    """Pole-sweep parameters.  ``seed`` selects nothing, since the sweep is
    deterministic; it stays a field, and in the fingerprint, for callers that
    still pass it."""

    n_seed: int = 4000
    newton_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_newton_iters: int = 100
    regime2_subdivision: int = 20
    dedup_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_seed < 2:
            raise ValueError("n_seed must be >= 2")
        for name in ("newton_tol", "residual_tol", "dedup_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")
        if self.regime2_subdivision < 2:
            raise ValueError("regime2_subdivision must be >= 2")

    def fingerprint_key(self):
        return (
            f"n_seed={self.n_seed};newton_tol={self.newton_tol!r};"
            f"residual_tol={self.residual_tol!r};max_newton_iters={self.max_newton_iters};"
            f"regime2_subdivision={self.regime2_subdivision};"
            f"dedup_tol={self.dedup_tol!r};seed={self.seed}"
        )


# bumped whenever the sweep or t22 can move the bits of a catalog under an
# unchanged config, so that caches written before are rebuilt, not reused
_CATALOG_REVISION = 2


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
    """What one :func:`sweep_poles` call did, rectangle by rectangle.

    Every rectangle either yields a pole to a deterministic Newton seed
    (``seed_hits``), is certified empty by its winding number, yields a pole
    to the winding-number bisection (``bisected``), or has a nonzero or
    inconclusive zero count that the bisection could not resolve to a pole
    (``unresolved``).  ``lockstep_hits`` are the seed hits taken from the
    lockstep batch rather than from a Newton walk of their own.
    ``newton_iterations`` counts the Newton steps of the whole sweep, one
    ``t22_with_prime`` evaluation each: every element-iteration of the
    lockstep batch, the anchor, and the walk's seeds and bisection.
    """

    rectangles: int
    seed_hits: int
    lockstep_hits: int
    certified_empty: int
    bisected: int
    unresolved: int
    newton_iterations: int
    seconds: float

    def summary(self):
        return (
            f"sweep: {self.rectangles} rectangles, {self.seed_hits} seed hits "
            f"({self.lockstep_hits} lockstep), "
            f"{self.certified_empty} certified empty, {self.bisected} bisected, "
            f"{self.unresolved} unresolved, "
            f"{self.newton_iterations} Newton iterations, {self.seconds:.2f} s"
        )


@dataclass(frozen=True)
class PoleCatalog:
    """Validated, ordered fourth-quadrant poles with per-pole |t22| residuals.

    ``stats`` is set by :func:`sweep_poles` and None for a loaded catalog.
    """

    poles: np.ndarray
    residuals: np.ndarray
    profile_fingerprint: str
    length: float
    config: PoleSearchConfig
    stats: SweepStats | None = field(default=None, compare=False)

    def __post_init__(self):
        poles = np.asarray(self.poles, dtype=complex)
        residuals = np.asarray(self.residuals, dtype=float)
        poles.setflags(write=False)
        residuals.setflags(write=False)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residuals", residuals)

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


def asymptotic_seed(n, length):
    """High-index pole estimate n*pi/L - i (2/L) ln n."""
    if n < 2:
        raise IndexTooSmallError("asymptotic seed requires n >= 2")
    return n * math.pi / length - 2j * math.log(n) / length


def newton_step_sequence(seed, profile, config=PoleSearchConfig()):
    """Newton-Raphson iteration on t22 from a single seed.

    Returns the converged pole, or raises :class:`DivergenceError` when the
    iterate leaves the lower half-plane, stops being finite, or the budget is
    exhausted.  Used by ``TestNewton`` and ``TestBreitWignerSeeds``.
    """
    return _newton(seed, profile, config, Counter())


def _newton(seed, profile, config, counts):
    """:func:`newton_step_sequence`, adding its iterations to ``counts["newton"]``."""
    k = complex(seed)
    if k == 0:
        raise ValueError("seed must be nonzero")
    length = profile.length
    for _ in range(config.max_newton_iters):
        counts["newton"] += 1
        try:
            val, der = t22_with_prime(profile, k)
        except (ArithmeticError, OverflowError, ValueError):
            raise DivergenceError(f"t22 not evaluable at {k!r}")
        if der == 0 or not (cmath.isfinite(val) and cmath.isfinite(der)):
            raise DivergenceError("degenerate derivative")
        # The residual cannot fall below its depth-aware floor, and once it is
        # there the Newton step just jitters; accept at a quarter of the gate.
        if abs(val) <= 0.25 * residual_gate(config, length, k):
            return k
        step = val / der
        k = k - step
        if not cmath.isfinite(k) or k.imag > 0.0:
            raise DivergenceError("iterate left the fourth-quadrant search domain")
        if abs(step) < config.newton_tol:
            try:
                if abs(t22(profile, k)) < residual_gate(config, length, k):
                    return k
            except (ArithmeticError, OverflowError, ValueError):
                raise DivergenceError(f"t22 not evaluable at {k!r}")
    raise DivergenceError("newton iteration budget exhausted")


def _t22_or_nan(profile, k, with_prime):
    """``(t22, t22')`` over the array ``k`` (``t22'`` None without
    ``with_prime``), NaN at each point where the kernel raises: a layer
    branch point or overflow.  Such points are isolated by halving."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if with_prime:
                return t22_with_prime(profile, k)
            return t22(profile, k), None
    except (ArithmeticError, ValueError):
        if k.size == 1:
            nan = np.full(1, complex(np.nan, np.nan))
            return nan, nan if with_prime else None
        half = k.size // 2
        (v_lo, d_lo), (v_hi, d_hi) = (
            _t22_or_nan(profile, part, with_prime) for part in (k[:half], k[half:])
        )
        der = np.concatenate([d_lo, d_hi]) if with_prime else None
        return np.concatenate([v_lo, v_hi]), der


def _newton_lockstep(seeds, profile, config, counts):
    """:func:`_newton` from every seed of the array at once, in lockstep.

    Each element follows ``_newton``'s acceptance and divergence rules and is
    retired on its own when it diverges, leaves the fourth-quadrant domain or
    meets a point where t22 cannot be evaluated.  Returns the converged
    poles, NaN where ``_newton`` would raise; element-iterations are added to
    ``counts["newton"]``.
    """
    k = np.array(seeds, dtype=complex)
    poles = np.full(k.shape, complex(np.nan, np.nan))
    live = np.arange(k.size)
    length = profile.length
    residual_tol = config.residual_tol
    for _ in range(config.max_newton_iters):
        if not live.size:
            break
        counts["newton"] += live.size
        kl = k[live]
        val, der = _t22_or_nan(profile, kl, with_prime=True)
        ok = np.isfinite(val) & np.isfinite(der) & (der != 0)
        hit = ok & (np.abs(val) <= 0.25 * _residual_gate(residual_tol, length, kl))
        poles[live[hit]] = kl[hit]
        go = ok & ~hit
        step = val[go] / der[go]
        kn = kl[go] - step
        stay = np.isfinite(kn) & (kn.imag <= 0.0)
        live, kn, step = live[go][stay], kn[stay], step[stay]
        k[live] = kn
        small = np.abs(step) < config.newton_tol
        if np.any(small):
            vs, _ = _t22_or_nan(profile, kn[small], with_prime=False)
            accept = np.abs(vs) < _residual_gate(residual_tol, length, kn[small])
            poles[live[small][accept]] = kn[small][accept]
            drop = np.zeros(live.size, dtype=bool)
            drop[small] = accept | ~np.isfinite(vs)
            live = live[~drop]
    return poles


def _inside(k, re_c, half_re, im_c, half_im):
    return (
        abs(k.real - re_c) <= half_re * (1.0 + 1e-9)
        and abs(k.imag - im_c) <= half_im * (1.0 + 1e-9)
    )


def _zero_count(profile, re_c, half_re, im_c, half_im):
    """Zeros of t22 inside the rectangle by the argument principle.

    Sums the phase steps of t22 around the counter-clockwise boundary; each
    edge is resampled (``_ARG_REFINE`` times denser) until every step is below
    ``_ARG_MAX_STEP``, and the edges still to resolve share one vector ``t22``
    call per round.  Returns None when the count is inconclusive: a sample
    at a layer branch point or at k = 0, overflow, a non-finite or zero value,
    or an edge still under-resolved at ``_ARG_MAX_POINTS`` samples.
    """
    re_lo, re_hi = re_c - half_re, re_c + half_re
    im_lo, im_hi = im_c - half_im, im_c + half_im
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]
    edges = list(zip(corners, corners[1:] + corners[:1]))
    points = dict.fromkeys(range(len(edges)), _ARG_START_POINTS)
    winding = 0.0
    while points:
        samples = [np.linspace(*edges[e], n) for e, n in points.items()]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                vals = t22(profile, np.concatenate(samples))
        except (BranchPointProximityError, OverflowError, ZeroWavenumberError):
            return None
        if not np.all(np.isfinite(vals)) or np.any(vals == 0):
            return None
        ends = np.cumsum([len(x) for x in samples])
        for e, edge_vals in zip(list(points), np.split(vals, ends[:-1])):
            steps = np.angle(edge_vals[1:] / edge_vals[:-1])
            if np.max(np.abs(steps)) < _ARG_MAX_STEP:
                winding += float(np.sum(steps))
                del points[e]
                continue
            points[e] *= _ARG_REFINE
            if points[e] > _ARG_MAX_POINTS:
                return None
    return round(winding / (2.0 * math.pi))


def _try_rectangle(profile, config, re_c, half_re, im_c, half_im, first_seed, counts):
    """Find a pole inside the rectangle; ``(pole or None, outcome)``.

    ``outcome`` is ``"seed"`` (the deterministic Newton seed landed inside),
    ``"empty"`` (certified by a zero count of 0), ``"bisected"`` (a Newton
    seed at the centre of a sub-rectangle with a nonzero or inconclusive
    count landed inside) or ``"unresolved"`` (the count is not 0 but no
    sub-rectangle down to ``_BISECT_DEPTH`` halvings yielded a pole).  Newton
    iterations are added to ``counts["newton"]``.
    """

    def newton_inside(seed):
        try:
            k = _newton(seed, profile, config, counts)
        except DivergenceError:
            return None
        return k if _inside(k, re_c, half_re, im_c, half_im) else None

    def bisect(x, hx, y, hy, depth):
        # the halves of (x +- hx, y +- hy) along its longer side, right or
        # upper half first
        if hx >= hy:
            hx *= 0.5
            halves = [(x + hx, y), (x - hx, y)]
        else:
            hy *= 0.5
            halves = [(x, y + hy), (x, y - hy)]
        for cx, cy in halves:
            if _zero_count(profile, cx, hx, cy, hy) == 0:
                continue
            k = newton_inside(complex(cx, cy))
            if k is None and depth > 1:
                k = bisect(cx, hx, cy, hy, depth - 1)
            if k is not None:
                return k
        return None

    k = newton_inside(first_seed)
    if k is not None:
        return k, "seed"
    if _zero_count(profile, re_c, half_re, im_c, half_im) == 0:
        return None, "empty"
    k = bisect(re_c, half_re, im_c, half_im, _BISECT_DEPTH)
    return k, "unresolved" if k is None else "bisected"


def sweep_poles(profile, config=PoleSearchConfig()):
    """Full inward pole sweep; returns a validated :class:`PoleCatalog`.

    Newton runs first in lockstep from the asymptotic seeds of every index
    below the anchor; a regime-1 rectangle at index n takes the lockstep pole
    of seed n when it lies inside, and every other rectangle runs
    :func:`_try_rectangle`.  The catalog's ``stats`` record what the sweep did.
    """
    if not profile.has_barrier:
        raise ValueError("profile has no barrier; t22 has no zeros")
    started = time.perf_counter()
    outcomes = Counter()
    iterations = Counter()
    length = profile.length
    dr = math.pi / length
    dr_thin = dr / config.regime2_subdivision

    try:
        anchor = _newton(
            asymptotic_seed(config.n_seed, length), profile, config, iterations
        )
    except DivergenceError as exc:
        raise AnchorFailureError(f"asymptotic anchor did not converge: {exc}")
    if not (anchor.real > 0.0 and anchor.imag < 0.0):
        raise AnchorFailureError("anchor converged outside the fourth quadrant")
    n = np.arange(2, config.n_seed)
    lockstep = _newton_lockstep(
        n * (math.pi / length) - 2j * np.log(n) / length, profile, config, iterations
    )

    found = [anchor]
    ref = anchor
    regime2 = False
    re_next = anchor.real - dr
    while True:
        width = dr_thin if regime2 else dr
        if re_next <= 0.5 * width:
            break
        beta = -ref.imag
        height = 2.0 * beta if regime2 else beta
        im_c = ref.imag
        # in regime 1 this rectangle holds pole n = n_seed - len(found), the
        # pole of lockstep seed n at lockstep[n - 2]
        index = config.n_seed - len(found) - 2
        pole = None if regime2 or index < 0 else complex(lockstep[index])
        if pole is not None and _inside(pole, re_next, 0.5 * width, im_c, 0.5 * height):
            outcome = "lockstep"
        else:
            pole, outcome = _try_rectangle(
                profile,
                config,
                re_c=re_next,
                half_re=0.5 * width,
                im_c=im_c,
                half_im=0.5 * height,
                first_seed=complex(re_next, im_c),
                counts=iterations,
            )
        outcomes[outcome] += 1
        if pole is not None and pole.real > 0.0 and pole.imag < 0.0:
            found.append(pole)
            ref = pole
            re_next = pole.real - (dr_thin if regime2 else dr)
        elif not regime2:
            regime2 = True
            re_next = ref.real - dr_thin
        else:
            re_next -= dr_thin

    catalog = _build_catalog(profile, config, found)
    stats = SweepStats(
        rectangles=sum(outcomes.values()),
        seed_hits=outcomes["seed"] + outcomes["lockstep"],
        lockstep_hits=outcomes["lockstep"],
        certified_empty=outcomes["empty"],
        bisected=outcomes["bisected"],
        unresolved=outcomes["unresolved"],
        newton_iterations=iterations["newton"],
        seconds=time.perf_counter() - started,
    )
    return dataclasses.replace(catalog, stats=stats)


def _build_catalog(profile, config, found):
    poles = sorted((k for k in found if k.real > 0.0 and k.imag < 0.0), key=lambda k: k.real)
    residuals = np.abs(t22(profile, np.array(poles, dtype=complex))).tolist()
    kept = []
    length = profile.length
    for k, res in zip(poles, residuals):
        if res > residual_gate(config, length, k):
            continue
        if kept and abs(k - kept[-1][0]) < config.dedup_tol:
            if res < kept[-1][1]:
                kept[-1] = (k, res)
            continue
        kept.append((k, res))
    return PoleCatalog(
        poles=np.array([k for k, _ in kept], dtype=complex),
        residuals=np.array([r for _, r in kept], dtype=float),
        profile_fingerprint=catalog_fingerprint(profile, config),
        length=profile.length,
        config=config,
    )


def mirror_poles(catalog):
    """Third-quadrant partners -conj(kappa_n), never stored; see ``TestMirrorPoles``."""
    return -np.conj(catalog.poles)


def breit_wigner_seeds(profile, e_max, grid_points=2000, prominence=0.05):
    """Half-width-at-half-maximum seeds from peaks of T(E).

    Independent regime-I cross-check of the sweep: each returned seed is
    ``k(E_peak) - i * (k-space half-width)`` for a transmission peak whose
    prominence exceeds ``prominence * max(T)``.  Used by ``TestBreitWignerSeeds``.
    """
    if e_max <= 0.0:
        raise ValueError("e_max must be positive")
    energies = np.linspace(e_max / grid_points, e_max, grid_points)
    t_co = transmission_coefficient(profile, energies)
    c = profile.units.inv_mass_coeff
    seeds = []
    t_scale = float(np.max(t_co))
    if t_scale <= 0.0:
        return seeds
    for i in range(1, grid_points - 1):
        if not (t_co[i] > t_co[i - 1] and t_co[i] >= t_co[i + 1]):
            continue
        j = i
        while j > 0 and t_co[j - 1] < t_co[j]:
            j -= 1
        left_min = t_co[j]
        j = i
        while j < grid_points - 1 and t_co[j + 1] < t_co[j]:
            j += 1
        right_min = t_co[j]
        prom = t_co[i] - max(left_min, right_min)
        if prom < prominence * t_scale:
            continue
        level = t_co[i] - 0.5 * prom
        e_lo = _cross(energies, t_co, i, level, -1)
        e_hi = _cross(energies, t_co, i, level, +1)
        k_half = 0.5 * (math.sqrt(e_hi / c) - math.sqrt(e_lo / c))
        seeds.append(complex(math.sqrt(energies[i] / c), -k_half))
    return seeds


def _cross(energies, t_co, i_peak, level, direction):
    """Energy where T first crosses ``level`` moving away from the peak."""
    i = i_peak
    n = len(t_co)
    while 0 < i < n - 1:
        j = i + direction
        if t_co[j] <= level:
            frac = (t_co[i] - level) / (t_co[i] - t_co[j])
            return energies[i] + frac * (energies[j] - energies[i])
        if t_co[j] > t_co[i]:
            break
        i = j
    return energies[i]


# ---------------------------------------------------------------------------
# serialization: versioned columnar text, bit-exact round trip
# ---------------------------------------------------------------------------

_FORMAT_TAG = "polecatalog v1"


def save_catalog(catalog, path, *, residues=None, u0=None, u_l=None):
    """Write the catalog (and optional residue columns) as '#'-headed CSV."""
    cols = ["n", "re_kappa", "im_kappa", "residual"]
    extras = []
    if residues is not None:
        cols += ["re_r", "im_r", "re_u0", "im_u0", "re_uL", "im_uL"]
        extras = [residues, u0, u_l]
        if any(x is None for x in extras):
            raise ValueError("residues, u0 and u_l must be given together")
    cfg = catalog.config
    lines = [
        f"# {_FORMAT_TAG}",
        f"# fingerprint: {catalog.profile_fingerprint}",
        "# units: nm fs eV",
        f"# length_nm: {catalog.length!r}",
        f"# config: {cfg.fingerprint_key()}",
        f"# columns: {','.join(cols)}",
        f"# rows: {len(catalog)}",
    ]
    data = [catalog.poles.real, catalog.poles.imag, catalog.residuals]
    for x in extras:
        x = np.asarray(x, dtype=complex)
        data += [x.real, x.imag]
    row = "%d," + ",".join(["%.17e"] * len(data))
    table = np.column_stack(data).tolist()
    lines += [row % (i, *values) for i, values in enumerate(table, start=1)]
    write_text_atomic(path, "\n".join(lines) + "\n")


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
    kinds = {f.name: type(f.default) for f in dataclasses.fields(PoleSearchConfig)}
    if items.keys() != kinds.keys():
        raise ValueError(f"config keys {sorted(items)} are not {sorted(kinds)}")
    return PoleSearchConfig(**{key: kinds[key](val) for key, val in items.items()})


def load_catalog(path):
    """Read a catalog written by :func:`save_catalog`.

    Returns ``(catalog, extras)`` where ``extras`` is None or a dict with
    ``residues``, ``u0`` and ``u_l`` complex arrays.  Raises ``ValueError``
    when the ``rows`` header is missing or disagrees with the rows read, as
    in a file cut at a row boundary, and when a row is not one number per
    column or the file does not end with a newline, as in a file cut inside
    a row.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
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
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            header[key.strip()] = val.strip()
        else:
            rows.append(line.split(","))
    if header.get("rows") != str(len(rows)):
        raise ValueError(
            f"{path}: {len(rows)} rows read, header says {header.get('rows')}"
        )
    cols = header["columns"].split(",")
    for i, fields in enumerate(rows, start=1):
        if len(fields) != len(cols):
            raise ValueError(f"{path}: row {i} has {len(fields)} fields, not {len(cols)}")
    data = np.array(rows, dtype=float).reshape(len(rows), len(cols))
    poles = data[:, 1] + 1j * data[:, 2]
    catalog = PoleCatalog(
        poles=poles,
        residuals=data[:, 3],
        profile_fingerprint=header["fingerprint"],
        length=float(header["length_nm"]),
        config=_parse_config(header["config"]),
    )
    extras = None
    if "re_r" in cols:
        extras = {
            "residues": data[:, 4] + 1j * data[:, 5],
            "u0": data[:, 6] + 1j * data[:, 7],
            "u_l": data[:, 8] + 1j * data[:, 9],
        }
    return catalog, extras
