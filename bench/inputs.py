"""Inputs and checks shared by the workloads: presets, grids, y' arguments.

Everything random is drawn from the generator seeded with ``--seed``; the
program only ever sees the generated inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tunnelwave import (
    GaussianPacket,
    PoleSearchConfig,
    QuadratureConfig,
    faddeeva_log_scaled,
    residues,
    sweep_poles,
    tau_system,
    transmitted_packet,
)
from tunnelwave.potential import t22_with_prime
from tunnelwave.presets import default_n_seed, default_packet_energy, preset_profile

from reference import faddeeva_rel_error, newton_correction_mp, t22_mp

PRESETS = ("sb", "db", "qb")
X_C, SIGMA = -5.0, 0.5  # the CLI's default packet
EXPANSION_N = {"sb": 300, "db": 1000, "qb": 4000}
ORACLE_TOL = 2e-2
FREE_TOL = 1e-8
# Reference resonances from the paper (eV): first positions and widths with
# the tolerances they are pinned to.
PAPER_POLES = {
    "sb": {"positions": [(0.2885, 1e-3)], "widths": [(0.1045, 1e-3)]},
    "db": {"positions": [(0.0800, 1e-3)], "widths": [(1.0278e-3, 0.02e-3)]},
    "qb": {
        "positions": [(0.1199, 1e-3), (0.1309, 1e-3), (0.1450, 1e-3)],
        "widths": [(4.6270e-3, 0.05e-3), (11.9652e-3, 0.05e-3), (8.4472e-3, 0.05e-3)],
    },
}


# Host-speed calibration.  On a shared host the speed of numpy vector code
# switches between phases tens of percent apart, for seconds at a time.  A
# fixed kernel, written apart from the program (scalar and vector complex
# arithmetic), is timed just before and just after a vector-bound section;
# the section's time is scaled by CALIBRATION_REF_S / (mean kernel time), so
# it reads as seconds on a host where the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.020
_CAL_Z = np.linspace(0.1, 10.0, 2**14) - 0.3j


def _calibration_kernel():
    acc = 1.0 + 0j
    for i in range(20000):
        q = cmath.sqrt(complex(i * 1e-3, -0.3) - 0.2)
        acc = (acc * cmath.exp(0.5j * q) + q) / (1.0 + abs(acc))
    for _ in range(12):
        w = np.exp(1j * _CAL_Z) * np.sqrt(_CAL_Z * _CAL_Z - 0.5)
        acc += np.sum(w / (_CAL_Z + 1.0))
    return acc


class Run:
    """Operation counts, correctness checks, calibration and tracer of one run."""

    def __init__(self, tracer, seed):
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.failures = []
        self.report = {}
        self.calibration_s = []

    def timed(self, section, calibrated):
        """Run ``section`` (it returns its own timed seconds) and return
        (reported, raw) seconds; reported is calibrated when asked."""
        if not calibrated:
            raw = section()
            return raw, raw
        before = self._calibrate()
        raw = section()
        after = self._calibrate()
        return raw * 2.0 * CALIBRATION_REF_S / (before + after), raw

    def _calibrate(self):
        t0 = perf_counter()
        _calibration_kernel()
        self.calibration_s.append(perf_counter() - t0)
        return self.calibration_s[-1]

    def op(self, n, fn, *args, **kwargs):
        """Call into the program as ``n`` operations; a raise counts them failed."""
        self.attempted += n
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += n
            msg = f"{fn.__name__}: {type(exc).__name__}: {exc}"
            if msg not in self.errors:
                self.errors.append(msg)
            return None

    def check(self, name, ok, detail):
        self.report[name] = ("PASS" if ok else "FAIL", detail)
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @property
    def correct(self):
        return not self.failures


@dataclass
class PresetInputs:
    name: str
    profile: object
    catalog: object
    rset: object
    packet: GaussianPacket
    tau_sys: float


def make_packet(name, profile, catalog):
    units = profile.units
    e0 = default_packet_energy(name, profile, catalog)
    return GaussianPacket(x_c=X_C, sigma=SIGMA, k0=units.wavenumber_of_energy(e0),
                          units=units)


def preset_inputs(name, profile, catalog, rset):
    return PresetInputs(name, profile, catalog, rset, make_packet(name, profile, catalog),
                        tau_system(profile, catalog))


def search_config(name, seed):
    return PoleSearchConfig(n_seed=default_n_seed(name), seed=seed)


def traced_sweep(tracer, name, profile, config):
    with tracer.span("poles.sweep_poles", preset=name, n=1) as attrs:
        catalog = sweep_poles(profile, config)
        attrs["size"] = len(catalog)
    return catalog


def traced_residues(tracer, name, profile, catalog):
    with tracer.span("resonances.residues", preset=name, n=1):
        return residues(profile, catalog)


def build_presets(tracer, seed):
    """Catalogs, residues and packets of all presets: the transient/oracle set-up."""
    out = {}
    for name in PRESETS:
        profile = preset_profile(name)
        catalog = traced_sweep(tracer, name, profile, search_config(name, seed))
        rset = traced_residues(tracer, name, profile, catalog)
        out[name] = preset_inputs(name, profile, catalog, rset)
    return out


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

DISTANCES = (("2L", 2.0), ("200L", 200.0), ("2e5L", 2e5))


def strata(n, rng):
    """One uniform draw in each of n equal strata of [0, 1), in order."""
    return (np.arange(n) + rng.uniform(size=n)) / n


def time_grid(inp, mult, n, rng):
    """Seeded times, one per stratum: over [1e-3, 20] tau_sys at 2L, and
    log-uniform over [t_f/4, 4 t_f] beyond, t_f the free flight time.

    The cost of a point depends on t (the Faddeeva region mix changes), so
    stratifying keeps the work of a grid nearly the same for every seed.
    """
    if mult <= 2.0:
        return (1e-3 + (20.0 - 1e-3) * strata(n, rng)) * inp.tau_sys
    pk = inp.packet
    t_flight = (mult * inp.profile.length - pk.x_c) / pk.velocity
    return t_flight * 4.0 ** (2.0 * strata(n, rng) - 1.0)


def faddeeva_args(inp, x, ts):
    """i y'_n for every pole and mirror pole at (x, t), from the paper's formula.

    ``y' = exp(-i pi/4) sqrt(m / 2 hbar t') (x' - hbar kappa' t' / m)`` with
    ``t' = t - i tau``, ``x' = x - x_c - v0 t`` and ``kappa' = kappa - k0``.
    """
    pk = inp.packet
    units = pk.units
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    tp = ts - 1j * pk.tau
    xp = x - pk.x_c - pk.velocity * ts
    root = cmath.exp(-0.25j * math.pi) * np.sqrt(units.mass / (2.0 * units.hbar * tp))
    kap = np.concatenate([inp.catalog.poles, -np.conj(inp.catalog.poles)]) - pk.k0
    y = root[:, None] * (xp[:, None] - (units.hbar * tp / units.mass)[:, None] * kap[None, :])
    return (1j * y).ravel()


def oracle_window(inp, t_end_sys):
    return 1e-3 * inp.tau_sys, t_end_sys * inp.tau_sys


def momentum_window(packet):
    """The quadrature's momentum window k0 +- window_half_width / sigma."""
    half = QuadratureConfig().window_half_width / packet.sigma
    return packet.k0 - half, packet.k0 + half


def phase_rate(inp, x, t):
    """Largest |d phase/dk| = |x - 2ckt/hbar| over the oracle's momentum window.

    The quadrature's node count grows with it; it increases with t.
    """
    pk = inp.packet
    coef = 2.0 * pk.units.inv_mass_coeff * t / pk.units.hbar
    return max(abs(x - coef * k) for k in momentum_window(pk))


def balanced_pair(inp, x, t_lo, t_hi, u):
    """Two times whose phase rates sum to that of the window ends.

    Draws the first phase rate at fraction ``u`` of its range and mirrors it,
    so the pair's total node count barely moves from seed to seed.
    """
    p_lo, p_hi = phase_rate(inp, x, t_lo), phase_rate(inp, x, t_hi)
    times = []
    for target in (p_lo + u * (p_hi - p_lo), p_hi - u * (p_hi - p_lo)):
        a, b = t_lo, t_hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if phase_rate(inp, x, mid) < target else (a, mid)
        times.append(0.5 * (a + b))
    return times


# ---------------------------------------------------------------------------
# checks against the independent references
# ---------------------------------------------------------------------------


def mp_zero_check(profile, poles, tol):
    """Largest 50-digit Newton correction |t22/t22'| over the given poles."""
    c = profile.units.inv_mass_coeff
    worst = max(newton_correction_mp(profile.layers, c, k) for k in poles)
    return worst, worst < tol


def double_newton_corrections(tracer, inp):
    """Largest |t22/t22'| over every catalog pole, from the scalar kernel."""
    poles = [complex(k) for k in inp.catalog.poles]
    with tracer.span("potential.t22_with_prime", preset=inp.name, n=len(poles)):
        vals = [t22_with_prime(inp.profile, k) for k in poles]
    return max(abs(v / d) for v, d in vals)


def mp_spectrum_error(profile, energies, t_program):
    """Largest relative deviation of the program's T(E) from the 50-digit one."""
    c = profile.units.inv_mass_coeff
    worst = 0.0
    for e, t_p in zip(energies, t_program):
        a = complex(t22_mp(profile.layers, c, math.sqrt(e / c)))
        t_ref = 1.0 / abs(a) ** 2
        worst = max(worst, abs(t_p - t_ref) / t_ref)
    return worst


def faddeeva_check(args):
    """Worst error/bound ratio of faddeeva_log_scaled against mpmath."""
    log_mag, phase = faddeeva_log_scaled(np.asarray(args))
    worst = 0.0
    for z, lm, ph in zip(args, log_mag, phase):
        err, tol = faddeeva_rel_error(complex(z), float(lm), float(ph))
        worst = max(worst, err / tol)
    return worst


def oracle_deviation(inp, rset, x, ts, psi_quad, peak):
    """Linf/peak of the closed-form density against quadrature amplitudes."""
    psi_a = transmitted_packet(inp.packet, inp.profile, inp.catalog, rset, x, np.asarray(ts))
    sigma = inp.packet.sigma
    dev = np.abs(sigma * np.abs(psi_a) ** 2 - sigma * np.abs(np.asarray(psi_quad)) ** 2)
    return float(np.max(dev)) / peak
