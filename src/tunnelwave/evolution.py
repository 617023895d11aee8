"""Closed-form time evolution of the transmitted cutoff Gaussian packet.

The transmitted amplitude factorizes as ``psi(x, t) = psi_free(x, t) * B(x, t)``
where the bracket

    B = C + sqrt(pi) sigma sqrt(1 + i t / tau)
          * sum_n r_n kappa_n exp(-i kappa_n L) w(i y'_n)

runs over the catalog poles and their third-quadrant mirrors in (n, -n)
pairs.  The free factor is carried in exponent space, since it underflows
far from the packet centre.  The bracket is summed in linear space, where its
terms stay far inside the double range for every preset packet.  A point
whose reflection terms ``2 exp(-z^2)`` could overflow there has its row of
terms scaled down by ``exp(-shift)`` before the sum and ``shift`` added back
to its log: in transient regimes the bracket grows exactly where the free
envelope underflows, and only the product is guaranteed representable.

The sum runs in chunks of points, one Faddeeva pass per chunk: the continued
fraction over the whole chunk and the rational approximation over the few
arguments below |z| = 150, whose fixed cost the chunk size amortizes.  The
set-up is paid once per system and once per call, not once per chunk: the
pole terms come from ``resonances._pole_record``, which ``expansion_t``
shares, built on a system's first call and kept, read-only and without the
packet, for as long as its residue set lives, reused for an equal profile
and the same catalog; each call builds its points' factors of y' once and
slices them per chunk; and a chunk with no reflection term skips the
scaling's run bookkeeping.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import _w_split
from .potential import UnitSystem
from .resonances import _pole_record, expansion_t

__all__ = [
    "FreeDensityUnderflowError",
    "GaussianPacket",
    "NonAsymptoticError",
    "PacketValidityWarning",
    "TruncationWarning",
    "UnreliableRegimeError",
    "asymptotic_cancellation",
    "eta",
    "free_packet",
    "free_packet_log",
    "longtime_exponent",
    "tau_system",
    "transmitted_packet",
    "transmitted_packet_log",
    "zeta",
]

_QUARTER_LOG_2PI = 0.25 * math.log(2.0 * math.pi)
# (points x poles) elements per bracket chunk: one Faddeeva pass per chunk in
# two buffers that every chunk of a call reuses, 1 MB together.  Smaller chunks
# pay the fixed numpy cost of a pass, and the rational approximation's 48-step
# Horner loop, more often: qb's 8000 terms fill four rows of a chunk.  Larger
# chunks cost memory: 2**16 raised the transient benchmark's peak RSS by about
# 1 MB and saved it a few per cent of its round time
_CHUNK = 2**15
# a point's terms are scaled so that the largest stays below
# exp(_LINEAR_LOG_MAX): 59 e-folds under exp's overflow at 709.78, room for
# any catalog's pair count
_LINEAR_LOG_MAX = 650.0


class UnreliableRegimeError(ValueError):
    """Packet too close to the interaction region for the analytic path."""


class PacketValidityWarning(UserWarning):
    """Analytic path valid but below acceptance-grade cutoff separation."""


class TruncationWarning(UserWarning):
    """Raised by nothing: the pole terms cancel, so no pair's share of the
    bracket measures truncation.  Kept for the benchmark, which filters it,
    until its next change (as ``faddeeva_log_scaled``)."""


class FreeDensityUnderflowError(FloatingPointError):
    """Free density below the representable floor at the requested point."""


class NonAsymptoticError(RuntimeError):
    """Requested window is not in the power-law regime."""


@dataclass(frozen=True)
class GaussianPacket:
    """Initial cutoff Gaussian: center x_c < 0, width sigma, wavenumber k0."""

    x_c: float
    sigma: float
    k0: float
    units: UnitSystem

    def __post_init__(self):
        if not -math.inf < self.x_c < 0.0:
            raise ValueError("x_c must be finite and negative")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and positive")
        if not 0.0 < self.k0 < math.inf:
            raise ValueError("k0 must be finite and positive")

    @property
    def tau(self):
        """Spreading time 2 m sigma^2 / hbar (fs)."""
        return self.units.hbar * self.sigma**2 / self.units.inv_mass_coeff

    @property
    def validity_ratio(self):
        """|x_c| / (2 sigma); >= 3 for the analytic path, >= 5 acceptance grade."""
        return abs(self.x_c) / (2.0 * self.sigma)

    def require_analytic(self):
        """Raise :class:`UnreliableRegimeError` unless the packet is far
        enough from the origin (validity ratio >= 3) for the analytic path."""
        if self.validity_ratio < 3.0:
            raise UnreliableRegimeError(
                f"validity ratio {self.validity_ratio:.2f} < 3; "
                "the analytic path needs the packet far from the origin"
            )

    def require_units(self, profile):
        """Raise ``ValueError`` unless the packet's units are ``profile``'s."""
        if self.units != profile.units:
            raise ValueError(
                f"packet mass ratio {self.units.mass_ratio!r} is not the "
                f"profile's {profile.units.mass_ratio!r}"
            )

    @property
    def energy(self):
        """Nominal incidence energy (eV)."""
        return self.units.energy_of_wavenumber(self.k0)

    @property
    def velocity(self):
        """Nominal group velocity hbar k0 / m (nm/fs)."""
        return self.units.velocity(self.k0)


def free_packet_log(packet, x, t):
    """Complex log of the freely evolving packet (principal branches)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("free packet requires t >= 0")
    tau = packet.tau
    spread = 1.0 + 1j * t / tau
    xp = x - packet.x_c - packet.velocity * t
    rate = packet.energy / packet.units.hbar
    return (
        -_QUARTER_LOG_2PI
        - 0.5 * math.log(packet.sigma)
        - 0.5 * np.log(spread)
        + 1j * (packet.k0 * x - rate * t)
        - xp * xp / (4.0 * packet.sigma**2 * spread)
    )


def free_packet(packet, x, t):
    """Freely evolving cutoff-Gaussian amplitude (extended-Gaussian form)."""
    with np.errstate(under="ignore"):
        out = np.exp(free_packet_log(packet, x, t))
    if np.ndim(x) == 0 and np.ndim(t) == 0:
        return complex(out)
    return out


def tau_system(profile, catalog):
    """Longest lifetime hbar / Gamma_min over poles below the barrier top.

    Falls back to the first (lowest) pole when no pole sits below the top.
    Raises ``ValueError`` unless the catalog was swept for ``profile``.
    """
    catalog.require_profile(profile)
    units = profile.units
    widths = catalog.widths(units)
    positions = catalog.positions(units)
    below = widths[positions < profile.barrier_height]
    gamma = float(np.min(below)) if below.size else float(widths[0])
    return units.hbar / gamma


# ---------------------------------------------------------------------------
# bracket evaluation (scaled pair sum over the pole catalog)
# ---------------------------------------------------------------------------


class _BracketEvaluator:
    """Precomputed pole/coefficient arrays for repeated bracket evaluation."""

    def __init__(self, packet, profile, catalog, residue_set):
        packet.require_units(profile)
        packet.require_analytic()
        if packet.validity_ratio < 5.0:
            warnings.warn(
                f"validity ratio {packet.validity_ratio:.2f} < 5: below "
                "acceptance grade, cutoff corrections may be visible",
                PacketValidityWarning,
                stacklevel=3,
            )
        self.packet = packet
        # C, the poles and the coefficients of w(i y'_n), the mirrors' after
        # the poles', built once per system (a mirror's coefficient is the
        # conjugate, of equal modulus)
        record = _pole_record(profile, catalog, residue_set)
        self.c_const, self.coefs = record.c_const, record.coefs
        self.max_log_coef = record.max_log_coef
        self.kp = record.poles - packet.k0  # shifted wavenumbers kappa'
        self.hbar = packet.units.hbar
        self.mass = packet.units.mass

    def _row_factors(self, x, t):
        """The per-point factors of y' as columns of shape ``x.shape + (1,)``:
        the offset ``x - x_c - v t``, the root and the velocity of t'."""
        packet = self.packet
        tp = t - 1j * packet.tau
        # complex already: a float column would be cast to complex, through
        # numpy's buffered cast, for every (point x pole) element it meets
        xp = (x - packet.x_c - packet.velocity * t).astype(complex)[..., None]
        rot = cmath.exp(-0.25j * math.pi)
        root = (rot * np.sqrt(self.mass / (2.0 * self.hbar * tp)))[..., None]
        vel = (self.hbar * tp / self.mass)[..., None]
        return xp, root, vel

    def _y_args(self, x, t):
        """y' of the poles, then of their mirrors: shape ``x.shape + (2N,)``."""
        return self._y_from(self._row_factors(x, t))

    def _y_from(self, factors, out=None):
        """y' from the points' :meth:`_row_factors`; written into ``out`` when given."""
        xp, root, vel = factors
        y = np.multiply(vel, self.kp, out=out)
        np.subtract(xp, y, out=y)
        # root first: complex products are not commutative bit for bit
        return np.multiply(root, y, out=y)

    def log_bracket(self, x, t):
        """Complex log of the bracket at the points ``(x[i], t[i])`` of two
        equal-length 1-d arrays; overflow-safe.

        Works in chunks of about ``_CHUNK`` (points x poles) elements with one
        Faddeeva pass per chunk, summed in linear space row by row, so every
        point gets the bits it gets alone.  The per-point factors are built
        once for the call and sliced for each chunk.  Raises ``ValueError``
        where the sum is not finite.
        """
        n_terms = len(self.coefs)
        rows = max(1, min(len(x), _CHUNK // n_terms))
        # the chunk's arguments (then its Faddeeva values) and scratch (then
        # its terms), reused by every chunk
        bufs = np.empty((2, rows, n_terms), dtype=complex)
        out = np.empty(len(x), dtype=complex)
        # an argument whose square overflows makes its row's Faddeeva values
        # and exponents non-finite without a warning, and its sum is refused
        # below, naming the point
        with np.errstate(over="ignore", invalid="ignore"):
            factors = self._row_factors(x, t)
            prefac = self._prefactor(t)
            # 2 exp(a) itself must stay below exp(_LINEAR_LOG_MAX) too
            limit = _LINEAR_LOG_MAX - np.maximum(
                0.0, self.max_log_coef + np.log(np.abs(prefac))
            )
            for s in range(0, len(x), rows):
                part = slice(s, s + rows)
                n = min(rows, len(x) - s)
                out[part] = self._chunk(
                    [f[part] for f in factors], prefac[part], limit[part], *bufs[:, :n]
                )
        # a zero bracket has log -inf; nan or +inf means a non-finite sum
        bad = np.flatnonzero(np.isnan(out) | (out.real == math.inf))
        if len(bad):
            i = bad[0]
            raise ValueError(
                f"bracket sum is not finite at x = {x[i]:.6g}, t = {t[i]:.6g}: "
                "the closed form's arguments overflow there"
            )
        return out

    def _prefactor(self, t):
        """sqrt(pi) sigma sqrt(1 + i t / tau) at the times ``t``."""
        return (math.sqrt(math.pi) * self.packet.sigma) * np.sqrt(
            1.0 + 1j * t / self.packet.tau
        )

    def _chunk(self, factors, prefac, limit, z_buf, work):
        """Log bracket for one chunk of points, given their :meth:`_row_factors`,
        prefactors and overflow limits, summed in linear space in the
        ``(points, 2N)`` buffers ``z_buf`` and ``work``.

        A row whose largest reflection exponent passes its ``limit`` by
        ``shift`` has its ``w`` values, its reflection terms ``2 exp(a)`` and
        C scaled by ``exp(-shift)``; ``shift`` is added back to its log.  The
        limit is ``_LINEAR_LOG_MAX`` less the log of the largest coefficient
        times the prefactor, where that exceeds 1.  Every other row is summed
        unscaled, and a chunk with no reflection term skips the bookkeeping.
        """
        z = self._y_from(factors, z_buf)
        z *= 1j
        # w overwrites the arguments
        w, refl, a = _w_split(z.reshape(-1), work.reshape(-1))
        w_rows = w.reshape(z.shape)
        shift = np.zeros(len(z))
        c_const = self.c_const
        if len(refl):
            # refl is sorted, so row i's reflection terms are the run
            # a[ends[i - 1]:ends[i]]; rounding is monotone, so the largest
            # exponent of a run less its row's limit is the largest difference
            ends = np.searchsorted(refl, np.arange(1, len(z) + 1) * z.shape[1])
            runs = np.diff(ends, prepend=0)
            hit = np.flatnonzero(runs)
            run_max = np.maximum.reduceat(a.real, ends[hit] - runs[hit])
            shift[hit] = np.maximum(0.0, run_max - limit[hit])
            scale = np.exp(-shift)
            c_const = c_const * scale
            if shift.any():
                np.multiply(w_rows, scale[:, None], out=w_rows, where=shift[:, None] > 0.0)
                a -= np.repeat(shift, runs)
            with np.errstate(under="ignore"):
                np.exp(a, out=a)
                a *= 2.0
                w[refl] += a
        # pairwise row sums: one row's bits do not depend on the chunk, and
        # where the sum cancels they keep 20x less error than einsum's
        terms = np.multiply(w_rows, self.coefs, out=work)
        total = c_const + prefac * np.sum(terms, axis=1)
        # a zero bracket has log -inf
        with np.errstate(divide="ignore"):
            return np.log(total) + shift


def _require_finite(packet, x, t):
    """Raise ``ValueError`` unless every x, t, t / tau and the free packet's
    squared offset ``(x - x_c - v t)^2`` is finite; the closed form is not
    finite anywhere else."""
    x, t = np.asarray(x, float), np.asarray(t, float)
    with np.errstate(over="ignore", invalid="ignore"):
        t_over_tau = t / packet.tau
        offset = x - packet.x_c - packet.velocity * t
        offset_sq = offset * offset
    for name, v in (
        ("x", x), ("t", t), ("t / tau", t_over_tau), ("(x - x_c - v t)^2", offset_sq)
    ):
        if not np.all(np.isfinite(v)):
            raise ValueError(
                f"{name} is not finite; the closed form needs finite x, t, "
                "t / tau and (x - x_c - v t)^2"
            )


def _require_scalar(**args):
    """Raise ``ValueError`` naming the first of ``args`` that is not one number."""
    for name, value in args.items():
        if np.ndim(value) != 0:
            raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")


def _require_transmitted(packet, profile, x, t):
    """Raise ``ValueError`` unless every (x, t) is a finite point of the
    closed form's domain x >= L, t > 0 (see :func:`_require_finite`)."""
    _require_finite(packet, x, t)
    if np.any(np.asarray(x, float) < profile.length):
        raise ValueError("transmitted amplitude is defined for x >= L only")
    if np.any(np.asarray(t, float) <= 0.0):
        raise ValueError("transmitted amplitude requires t > 0")


def transmitted_packet_log(packet, profile, catalog, residue_set, x, t):
    """Complex log of the transmitted amplitude; never overflows."""
    _require_transmitted(packet, profile, x, t)
    ev = _BracketEvaluator(packet, profile, catalog, residue_set)
    xs, ts = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
    flat_x, flat_t = xs.ravel(), ts.ravel()
    out = ev.log_bracket(flat_x, flat_t) + free_packet_log(packet, flat_x, flat_t)
    return out.reshape(xs.shape) if xs.ndim else complex(out[0])


def transmitted_packet(packet, profile, catalog, residue_set, x, t):
    """Transmitted amplitude psi(x, t) for x >= L, t > 0.

    Underflows to 0 where the true amplitude is below the double range.
    """
    logs = transmitted_packet_log(packet, profile, catalog, residue_set, x, t)
    with np.errstate(under="ignore"):
        out = np.exp(logs)
    return complex(out) if np.ndim(out) == 0 else out


def zeta(packet, profile, catalog, residue_set, x, t0):
    """Density ratio |psi|^2 / |psi_free|^2 at fixed time t0.

    Equals |bracket|^2 identically, so it stays finite deep in the packet
    tails; an underflowing free density still raises, per contract.  ``x``
    may be an array, ``t0`` is one time.
    """
    _require_scalar(t0=t0)
    _require_finite(packet, x, t0)
    if np.any(np.asarray(x, float) <= profile.length):
        raise ValueError("zeta requires x > L")
    if t0 <= 0.0:
        raise ValueError("zeta requires t0 > 0")
    free_log = free_packet_log(packet, x, t0)
    if np.any(2.0 * np.asarray(free_log).real < math.log(1e-300)):
        raise FreeDensityUnderflowError("free density below 1e-300")
    ev = _BracketEvaluator(packet, profile, catalog, residue_set)
    flat = np.asarray(x, dtype=float).ravel()
    out = np.exp(2.0 * ev.log_bracket(flat, np.full(flat.shape, float(t0))).real)
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


def eta(x, x0, length):
    """Squared free-flight distance ratio mapping position to energy units.

    Test companion, used by ``TestZetaEta`` in ``tests/test_evolution.py``.
    """
    if x <= length or x0 <= length:
        raise ValueError("eta requires x > L and x0 > L")
    return ((x - length) / (x0 - length)) ** 2


def longtime_exponent(packet, profile, catalog, residue_set, x_d, t_range, samples=40):
    """Fitted power of the density decay at fixed x_d over a log-uniform grid.

    Raises :class:`NonAsymptoticError` when the local slope still varies by
    more than 0.5 across the window, and ``ValueError`` unless
    ``t_max > t_min`` and ``samples`` is an integer >= 4, so that each half's
    fit has two points.
    """
    t_min, t_max = t_range
    try:
        n = operator.index(samples)
    except TypeError:
        n = 0  # not an integer: refused below
    if not (t_max > t_min and n >= 4):
        raise ValueError(
            f"the slope fit needs t_max > t_min and samples >= 4, an integer, got "
            f"({t_min:.3g}, {t_max:.3g}) fs with {samples} samples"
        )
    floor = 50.0 * tau_system(profile, catalog)
    if t_min < floor * (1.0 - 1e-9):
        raise ValueError(
            f"t_min = {t_min:.3g} fs is below the asymptotic floor {floor:.3g} fs"
        )
    ts = np.geomspace(t_min, t_max, n)
    logs = transmitted_packet_log(packet, profile, catalog, residue_set, x_d, ts)
    log_rho = np.log(packet.sigma) + 2.0 * np.asarray(logs).real
    half = n // 2
    lt = np.log(ts)
    slope_lo = _plain_slope(lt[:half], log_rho[:half])
    slope_hi = _plain_slope(lt[half:], log_rho[half:])
    if abs(slope_lo - slope_hi) > 0.5:
        raise NonAsymptoticError(
            f"local slope drifts from {slope_lo:.2f} to {slope_hi:.2f}"
        )
    return _plain_slope(lt, log_rho)


def _plain_slope(lx, ly):
    # least-squares slope in closed form, about the mean of lx
    dx = lx - lx.mean()
    return float(dx @ (ly - ly.mean()) / (dx @ dx))


def asymptotic_cancellation(packet, profile, catalog, residue_set, x_d, t):
    """Residual of C against the leading-asymptotic bracket sum.

    The bracket's leading large-argument form replaces each w(i y'_n) by its
    1/(sqrt(pi) y'_n) term, plus the reflection term 2 exp(y'_n^2) where the
    argument sits in the lower half-plane.  Since y'_n is proportional to
    s - kappa_n at the complex momentum

        s = (m / hbar) (x_d - x_c - i v tau) / (t - i tau),

    C plus the 1/y' terms is exactly the pole expansion t_N(s) of
    :func:`~tunnelwave.resonances.expansion_t`, which raises where s lies
    within the sweep's deduplication tolerance of a pole.  Returns
    ``(residual, scale)``: ``residual`` is the modulus of t_N(s) plus the
    reflection terms and ``scale`` the magnitude sum of the next-order
    1/y'^3 terms.  At long times the leading sum cancels C up to that
    scale, at the one point ``(x_d, t)``.
    """
    _require_scalar(x_d=x_d, t=t)
    _require_transmitted(packet, profile, x_d, t)
    ev = _BracketEvaluator(packet, profile, catalog, residue_set)
    y = ev._y_args(np.asarray(x_d, float), np.asarray(t, float))
    lhp = y.real < 0.0
    args = y[lhp] ** 2
    if not np.all(args.real < 700.0):
        raise OverflowError("exponential branch overflows at this point")
    with np.errstate(under="ignore"):
        refl = np.sum(ev.coefs[lhp] * 2.0 * np.exp(args))
    tau = packet.tau
    s = (ev.mass / ev.hbar) * (x_d - packet.x_c - 1j * packet.velocity * tau) / (t - 1j * tau)
    prefac = ev._prefactor(t)
    residual = abs(expansion_t(profile, s, catalog, residue_set) + prefac * refl)
    scale = np.sum(np.abs(ev.coefs) * 0.5 / (math.sqrt(math.pi) * np.abs(y) ** 3))
    return float(residual), float(abs(prefac) * scale)
