"""Catalog of fourth-quadrant transmission poles of a layered potential.

The sweep anchors on the large-index asymptotic seed, Newton-converges it,
then walks inward one pole spacing (pi/L) at a time, looking for each pole
inside a confinement rectangle around its predicted location.  When the
deterministic Newton seed of a rectangle misses, the zeros of t22 inside the
rectangle are counted by the argument principle: the winding number of t22
around the counter-clockwise boundary, sampled with the vector kernel and
refined until every phase step is below pi/4 (t22 is analytic there, since it
does not depend on the branch chosen for each layer wavevector).  A count of
zero proves the rectangle empty without any random draw.  Gated random
restarts run only where the count is nonzero or the certificate is
inconclusive (branch point on the boundary, overflow, a zero of t22 on the
boundary, or the refinement cap reached).  After the first rectangle that
yields no pole the walk switches permanently to thin rectangles
(pi / (subdivision L) wide, twice as tall) that are allowed to be empty, which
is what resolves sharp and overlapping resonances near and below the barrier
top.
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
    """Newton iteration failed; signals the restart machinery."""


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
    n_seed: int = 4000
    newton_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_newton_iters: int = 100
    max_random_attempts: int = 1000
    regime2_subdivision: int = 20
    dedup_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_seed < 2:
            raise ValueError("n_seed must be >= 2")
        for name in ("newton_tol", "residual_tol", "dedup_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_newton_iters < 1 or self.max_random_attempts < 1:
            raise ValueError("iteration budgets must be >= 1")
        if self.regime2_subdivision < 2:
            raise ValueError("regime2_subdivision must be >= 2")

    def fingerprint_key(self):
        return (
            f"n_seed={self.n_seed};newton_tol={self.newton_tol!r};"
            f"residual_tol={self.residual_tol!r};max_newton_iters={self.max_newton_iters};"
            f"max_random_attempts={self.max_random_attempts};"
            f"regime2_subdivision={self.regime2_subdivision};"
            f"dedup_tol={self.dedup_tol!r};seed={self.seed}"
        )


def catalog_fingerprint(profile, config):
    """Hash identifying (profile, search config) for cache lookups."""
    key = profile.fingerprint_key() + "|" + config.fingerprint_key()
    return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepStats:
    """What one :func:`sweep_poles` call did, rectangle by rectangle.

    Every rectangle either yields a pole to its deterministic Newton seed, is
    certified empty by its winding number, or is sent to the gated random
    draws because its zero count is nonzero or the certificate inconclusive.
    ``newton_iterations`` counts the Newton steps of the whole sweep, anchor
    and draws included: one scalar ``t22_with_prime`` evaluation each.
    """

    rectangles: int
    seed_hits: int
    certified_empty: int
    drawn_nonzero: int
    drawn_inconclusive: int
    random_draws: int
    newton_iterations: int
    seconds: float

    @property
    def sent_to_draws(self):
        return self.drawn_nonzero + self.drawn_inconclusive

    def summary(self):
        return (
            f"sweep: {self.rectangles} rectangles, {self.seed_hits} seed hits, "
            f"{self.certified_empty} certified empty, {self.sent_to_draws} sent to "
            f"draws ({self.drawn_nonzero} count>0, {self.drawn_inconclusive} "
            f"inconclusive), {self.random_draws} random draws, "
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
    exhausted.
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


def _zero_count(profile, re_c, half_re, im_c, half_im):
    """Zeros of t22 inside the rectangle by the argument principle.

    Sums the phase steps of t22 around the counter-clockwise boundary; each
    edge is resampled (``_ARG_REFINE`` times denser) until every step is below
    ``_ARG_MAX_STEP``.  Returns None when the count is inconclusive: a sample
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
    winding = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = _ARG_START_POINTS
        while True:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    vals = t22(profile, np.linspace(a, b, n))
            except (BranchPointProximityError, OverflowError, ZeroWavenumberError):
                return None
            if not np.all(np.isfinite(vals)) or np.any(vals == 0):
                return None
            steps = np.angle(vals[1:] / vals[:-1])
            if np.max(np.abs(steps)) < _ARG_MAX_STEP:
                break
            n *= _ARG_REFINE
            if n > _ARG_MAX_POINTS:
                return None
        winding += float(np.sum(steps))
    return round(winding / (2.0 * math.pi))


def _try_rectangle(
    profile, config, rng, re_c, half_re, im_c, half_im, first_seed, counts=None
):
    """Find a pole inside the rectangle; ``(pole or None, outcome, draws)``.

    ``outcome`` is ``"seed"`` (the deterministic Newton seed landed inside),
    ``"empty"`` (certified by a zero count of 0), ``"nonzero"`` or
    ``"inconclusive"`` (the gated random restarts ran, ``draws`` of them).  A
    certified rectangle advances ``rng`` exactly as the skipped draws would
    have, so later rectangles see the same random stream.  Newton iterations
    are added to ``counts["newton"]`` when a counter is given.
    """
    counts = Counter() if counts is None else counts

    def inside(k):
        return (
            abs(k.real - re_c) <= half_re * (1.0 + 1e-9)
            and abs(k.imag - im_c) <= half_im * (1.0 + 1e-9)
        )

    try:
        k = _newton(first_seed, profile, config, counts)
        if inside(k):
            return k, "seed", 0
    except DivergenceError:
        pass
    count = _zero_count(profile, re_c, half_re, im_c, half_im)
    if count == 0:
        rng.uniform(-0.5, 0.5, size=2 * config.max_random_attempts)
        return None, "empty", 0
    outcome = "inconclusive" if count is None else "nonzero"
    for draw in range(1, config.max_random_attempts + 1):
        gr = rng.uniform(-0.5, 0.5)
        gi = rng.uniform(-0.5, 0.5)
        s = complex(re_c + 2.0 * gr * half_re, im_c + 2.0 * gi * half_im)
        try:
            if abs(t22(profile, s)) >= 1.0:
                continue
            k = _newton(s, profile, config, counts)
        except (DivergenceError, ArithmeticError, OverflowError, ValueError):
            continue
        if inside(k):
            return k, outcome, draw
    return None, outcome, config.max_random_attempts


def sweep_poles(profile, config=PoleSearchConfig(), n_above=0):
    """Full inward pole sweep; returns a validated :class:`PoleCatalog`.

    ``n_above`` optionally extends the walk outward past the anchor index.
    The catalog's ``stats`` record what the sweep did.
    """
    if not profile.has_barrier:
        raise ValueError("profile has no barrier; t22 has no zeros")
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    outcomes = Counter()
    iterations = Counter()
    draws = 0
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
        pole, outcome, spent = _try_rectangle(
            profile,
            config,
            rng,
            re_c=re_next,
            half_re=0.5 * width,
            im_c=im_c,
            half_im=0.5 * height,
            first_seed=complex(re_next, im_c),
            counts=iterations,
        )
        outcomes[outcome] += 1
        draws += spent
        if pole is not None and pole.real > 0.0 and pole.imag < 0.0:
            found.append(pole)
            ref = pole
            re_next = pole.real - (dr_thin if regime2 else dr)
        elif not regime2:
            regime2 = True
            re_next = ref.real - dr_thin
        else:
            re_next -= dr_thin

    ref = anchor
    for _ in range(n_above):
        beta = -ref.imag
        pole, outcome, spent = _try_rectangle(
            profile,
            config,
            rng,
            re_c=ref.real + dr,
            half_re=0.5 * dr,
            im_c=ref.imag,
            half_im=0.5 * beta,
            first_seed=ref + dr,
            counts=iterations,
        )
        outcomes[outcome] += 1
        draws += spent
        if pole is None:
            break
        found.append(pole)
        ref = pole

    catalog = _build_catalog(profile, config, found)
    stats = SweepStats(
        rectangles=sum(outcomes.values()),
        seed_hits=outcomes["seed"],
        certified_empty=outcomes["empty"],
        drawn_nonzero=outcomes["nonzero"],
        drawn_inconclusive=outcomes["inconclusive"],
        random_draws=draws,
        newton_iterations=iterations["newton"],
        seconds=time.perf_counter() - started,
    )
    return dataclasses.replace(catalog, stats=stats)


def _build_catalog(profile, config, found):
    poles = sorted((k for k in found if k.real > 0.0 and k.imag < 0.0), key=lambda k: k.real)
    kept = []
    length = profile.length
    for k in poles:
        res = abs(t22(profile, k))
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
    """Third-quadrant partners -conj(kappa_n); derived, never stored."""
    return -np.conj(catalog.poles)


def breit_wigner_seeds(profile, e_max, grid_points=2000, prominence=0.05):
    """Half-width-at-half-maximum seeds from peaks of T(E).

    Independent regime-I cross-check of the sweep: each returned seed is
    ``k(E_peak) - i * (k-space half-width)`` for a transmission peak whose
    prominence exceeds ``prominence * max(T)``.
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
    for i, (kappa, res) in enumerate(zip(catalog.poles, catalog.residuals), start=1):
        row = [str(i), _fmt(kappa.real), _fmt(kappa.imag), _fmt(res)]
        if extras:
            r_i, u0_i, ul_i = (np.asarray(x)[i - 1] for x in extras)
            row += [
                _fmt(r_i.real), _fmt(r_i.imag),
                _fmt(u0_i.real), _fmt(u0_i.imag),
                _fmt(ul_i.real), _fmt(ul_i.imag),
            ]
        lines.append(",".join(row))
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


def _fmt(x):
    return format(float(x), ".17e")


def _parse_config(text):
    kwargs = {}
    for item in text.split(";"):
        key, val = item.split("=", 1)
        if key in ("n_seed", "max_newton_iters", "max_random_attempts",
                   "regime2_subdivision", "seed"):
            kwargs[key] = int(val)
        else:
            kwargs[key] = float(val)
    return PoleSearchConfig(**kwargs)


def load_catalog(path):
    """Read a catalog written by :func:`save_catalog`.

    Returns ``(catalog, extras)`` where ``extras`` is None or a dict with
    ``residues``, ``u0`` and ``u_l`` complex arrays.  Raises ``ValueError``
    when the ``rows`` header is missing or disagrees with the rows read, as
    in a file cut at a row boundary.
    """
    header = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != f"# {_FORMAT_TAG}":
            raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
            else:
                rows.append([float(x) for x in line.split(",")])
    if header.get("rows") != str(len(rows)):
        raise ValueError(
            f"{path}: {len(rows)} rows read, header says {header.get('rows')}"
        )
    cols = header["columns"].split(",")
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(cols))
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
