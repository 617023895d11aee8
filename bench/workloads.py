"""The three workloads.

Each builds its inputs (timed as set-up), then runs whole rounds of the same
operations until ``seconds`` have passed.  Only the calls into the program
are timed; the checks around them are not.  A workload returns a
:class:`Measured` with the set-up time, the timed seconds of every round and
the per-preset inputs the traced run probes afterwards.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np

from tunnelwave import (
    PoleSearchConfig,
    ResidueSet,
    coefficient_C,
    expansion_t,
    free_packet,
    load_catalog,
    longtime_exponent,
    psi_free_quadrature,
    psi_quadrature,
    save_catalog,
    transfer_matrix,
    transmission_coefficient,
    zeta,
)
from tunnelwave.cli import RunConfig, obtain_catalog
from tunnelwave.evolution import asymptotic_cancellation, transmitted_packet_log
from tunnelwave.presets import preset_profile
from tunnelwave.validation import ORACLE_WINDOWS

from inputs import (
    DISTANCES,
    EXPANSION_N,
    FREE_TOL,
    ORACLE_TOL,
    PAPER_POLES,
    PRESETS,
    balanced_pair,
    build_presets,
    double_newton_corrections,
    faddeeva_args,
    faddeeva_check,
    momentum_window,
    mp_spectrum_error,
    mp_zero_check,
    oracle_deviation,
    oracle_window,
    preset_inputs,
    search_config,
    strata,
    time_grid,
    traced_residues,
    traced_sweep,
)

SPECTRUM_POINTS = 2000
RECOVERY_N_SEED = 20  # a small sb sweep is enough to exercise the cache path
N_TIMES = 8  # closed-form times per preset and distance in a transient round
N_ETA_UNIFORM, N_ETA_WINDOW = 12, 16
T0_SCALES = (0.05, 0.25, 1.0)  # the acceptance suite's reconstruction scales
RECONSTRUCT_DISTANCE = 2e5
RECONSTRUCT_TOL = 2e-2
SLOPE_SAMPLES = 40
SLOPE_TOL = 0.1


@dataclass
class Measured:
    setup_s: float  # as reported: calibrated where the set-up is vector-bound
    round_s: list  # as reported, per round
    raw_round_s: list
    raw_setup_s: float
    inputs: dict  # preset name -> PresetInputs, for the traced run's probes


def repeat_setup(run, build, samples, per_sample=1, calibrated=False):
    """Build the inputs ``samples * per_sample`` times; set-up is the median
    over samples of the mean build time within a sample."""
    built = []

    def sample():
        t0 = perf_counter()
        for _ in range(per_sample):
            built[:] = [build()]
        return (perf_counter() - t0) / per_sample

    times = [run.timed(sample, calibrated) for _ in range(samples)]
    return built[0], median(t for t, _ in times), median(raw for _, raw in times)


def measure(run, seconds, one_round, calibrated):
    """Whole rounds until ``seconds`` have passed; returns the rounds' timed
    seconds, as reported and raw."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        run.tracer.trace_id = f"round{len(times)}"
        with run.tracer.span("round", n=1):
            times.append(run.timed(one_round, calibrated))
    return [t for t, _ in times], [raw for _, raw in times]


# ---------------------------------------------------------------------------
# catalog: cold sweep -> residues -> cache round trip -> spectrum, per preset
# ---------------------------------------------------------------------------


def _catalog_steps(tracer, name, profile, config, path, k, t_exact):
    catalog = traced_sweep(tracer, name, profile, config)
    rset = traced_residues(tracer, name, profile, catalog)
    with tracer.span("poles.save_catalog", preset=name, n=1):
        save_catalog(catalog, path, residues=rset.residues, u0=rset.u0, u_l=rset.u_l)
    with tracer.span("poles.load_catalog", preset=name, n=1):
        loaded, extras = load_catalog(path)
    rset_loaded = ResidueSet(**extras)
    n = min(EXPANSION_N[name], len(loaded))
    with tracer.span("resonances.expansion_t", preset=name, n=len(k) * n):
        amp = expansion_t(profile, k, loaded, rset_loaded, n)
    err = float(np.max(np.abs(np.abs(amp) ** 2 - t_exact)))
    return catalog, rset, loaded, rset_loaded, n, err


def _same_bits(pairs):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in pairs)


def _catalog_checks(run, inp, catalog, rset, n, err, energies, t_exact):
    name, profile, loaded, rset_loaded = inp.name, inp.profile, inp.catalog, inp.rset
    units = profile.units
    pos, wid = loaded.positions(units), loaded.widths(units)
    ref = PAPER_POLES[name]
    parts, ok = [], len(loaded) >= len(ref["positions"])
    for i, ((p_ref, p_tol), (w_ref, w_tol)) in enumerate(zip(ref["positions"], ref["widths"])):
        ok = ok and abs(pos[i] - p_ref) <= p_tol and abs(wid[i] - w_ref) <= w_tol
        parts.append(f"E{i + 1}={pos[i]:.5f} G{i + 1}={wid[i]:.6f}")
    run.check(f"paper-poles-{name}", ok, " ".join(parts))

    same = _same_bits([
        (catalog.poles, loaded.poles), (catalog.residuals, loaded.residuals),
        (rset.residues, rset_loaded.residues), (rset.u0, rset_loaded.u0),
        (rset.u_l, rset_loaded.u_l),
    ]) and (loaded.config, loaded.profile_fingerprint) == (
        catalog.config, catalog.profile_fingerprint)
    run.check(f"cache-roundtrip-{name}", same, f"{len(loaded)} poles bit-exact={same}")
    run.check(f"expansion-{name}", err <= 1e-2, f"N={n}: max|T_N - T| = {err:.2e} (tol 1e-2)")

    tol = loaded.config.dedup_tol
    worst = double_newton_corrections(run.tracer, inp)
    run.check(f"newton-all-poles-{name}", worst < tol,
              f"max |t22/t22'| over {len(loaded)} poles = {worst:.1e} (tol {tol:g})")
    rng = run.rng
    sample = [0] + sorted(rng.choice(np.arange(1, len(loaded)), 5, replace=False).tolist())
    worst_mp, ok = mp_zero_check(profile, loaded.poles[sample], tol)
    run.check(f"mp-zero-{name}", ok,
              f"50-digit |t22/t22'| at poles {sample} <= {worst_mp:.1e} (tol {tol:g})")

    idx = rng.choice(len(energies), 4, replace=False)
    e_err = mp_spectrum_error(profile, energies[idx], t_exact[idx])
    run.check(f"mp-spectrum-{name}", e_err <= 1e-10, f"rel err of T(E) = {e_err:.1e} (tol 1e-10)")

    flux = 0.0
    for k in rng.uniform(0.05, 3.0, 8):
        m = transfer_matrix(profile, k)
        flux = max(flux, abs(abs(1.0 / m.t22) ** 2 + abs(m.t21 / m.t22) ** 2 - 1.0))
    run.check(f"flux-{name}", flux <= 1e-10, f"max ||t|^2+|r|^2-1| = {flux:.1e} (tol 1e-10)")


def _recover_truncated_cache(cfg):
    """Fresh cache, cut mid-row, then ask obtain_catalog for the catalog again."""
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    fresh = obtain_catalog(cfg, quiet=True)
    (cache,) = (cfg.out_dir / "cache").glob("poles_*.csv")
    text = cache.read_text(encoding="utf-8")
    cache.write_text(text[: text.index("\n", len(text) // 2) + 16], encoding="utf-8")
    return fresh, obtain_catalog(cfg, quiet=True)


def catalog(run, seconds, work):
    """Cold start for sb, db and qb at their default sweep depths."""
    offset = 1.0 - run.rng.uniform()  # seeded shift of the energy grid, in (0, 1]

    def build():
        out = {}
        for name in PRESETS:
            profile = preset_profile(name)
            step = 5.0 * profile.barrier_height / SPECTRUM_POINTS
            energies = (np.arange(SPECTRUM_POINTS) + offset) * step
            k = np.sqrt(energies / profile.units.inv_mass_coeff)
            out[name] = (profile, search_config(name, run.seed), energies, k,
                         transmission_coefficient(profile, energies))
        return out

    # a build takes a few ms, so each sample averages 100 builds; the build is
    # numpy vector work (the exact T(E)), so it is calibrated
    grids, setup_s, raw_setup_s = repeat_setup(run, build, 9, per_sample=100,
                                               calibrated=True)
    work.mkdir(parents=True, exist_ok=True)
    recovery_cfg = RunConfig(
        profile=preset_profile("sb"), preset="sb", out_dir=work / "recovery",
        search=PoleSearchConfig(n_seed=RECOVERY_N_SEED),
    )
    last = {}

    def one_round():
        timed = 0.0
        for name in PRESETS:
            profile, config, energies, k, t_exact = grids[name]
            t0 = perf_counter()
            out = run.op(4, _catalog_steps, run.tracer, name, profile, config,
                         work / f"catalog_{name}.csv", k, t_exact)
            timed += perf_counter() - t0
            if out is None:
                continue
            catalog, rset, loaded, rset_loaded, n, err = out
            inp = preset_inputs(name, profile, loaded, rset_loaded)
            _catalog_checks(run, inp, catalog, rset, n, err, energies, t_exact)
            last[name] = inp
        # kept out of the timed part, so a rebuild does not count against catalog_s
        got = run.op(1, _recover_truncated_cache, recovery_cfg)
        if got is not None:
            (fresh, fresh_rset), (cat, rset) = got
            same = _same_bits([(fresh.poles, cat.poles), (fresh_rset.residues, rset.residues)])
            run.check("cache-recovery", same, f"rebuilt {len(cat)} poles, bit-exact={same}")
        return timed

    # the round is interpreter-bound sweeps, which the host phases move far
    # less than the calibration kernel: it stays raw
    return Measured(setup_s, *measure(run, seconds, one_round, calibrated=False),
                    raw_setup_s=raw_setup_s, inputs=last)


# ---------------------------------------------------------------------------
# transient: closed form at 2L, 200L and 2e5L, zeta sweep, slope fit
# ---------------------------------------------------------------------------


def _eta_grid(inp, rng):
    """Reconstruction grid: both ends, one draw per stratum of [0.2, 3], and a
    randomly shifted even comb over each resonance window E_n +- 4 Gamma_n."""
    e0 = inp.packet.energy
    units = inp.profile.units
    pos, wid = inp.catalog.positions(units), inp.catalog.widths(units)
    parts = [np.array([0.2, 3.0]), 0.2 + 2.8 * strata(N_ETA_UNIFORM, rng)]
    below = pos < inp.profile.barrier_height
    for p, w in zip(pos[below], wid[below]):
        lo, hi = max((p - 4 * w) / e0, 0.2), min((p + 4 * w) / e0, 3.0)
        if hi > lo:
            parts.append(lo + (hi - lo) * (np.arange(N_ETA_WINDOW) + rng.uniform()) / N_ETA_WINDOW)
    return np.sort(np.concatenate(parts))


def _transient_preset(run, inp):
    """One round's closed-form work on one preset; returns its timed seconds."""
    tr, rng = run.tracer, run.rng
    name, profile, cat, rset, pk = inp.name, inp.profile, inp.catalog, inp.rset, inp.packet
    length = profile.length
    terms = 2 * len(cat)
    timed = 0.0
    fad_args = []
    for label, mult in DISTANCES:
        ts = time_grid(inp, mult, N_TIMES, rng)
        t0 = perf_counter()
        with tr.span("evolution.transmitted_packet_log", preset=name, distance=label,
                     n=len(ts) * terms):
            logs = run.op(len(ts), transmitted_packet_log, pk, profile, cat, rset,
                          mult * length, ts)
        timed += perf_counter() - t0
        if logs is not None:
            finite = bool(np.all(np.isfinite(np.asarray(logs).real)))
            run.check(f"density-finite-{name}-{label}", finite,
                      f"log density in [{2 * np.min(logs.real):.1f}, {2 * np.max(logs.real):.1f}]")
        args = faddeeva_args(inp, mult * length, ts[rng.integers(len(ts))])
        fad_args.append(rng.choice(args, 4))

    etas = _eta_grid(inp, rng)
    t_ref = transmission_coefficient(profile, etas * pk.energy)
    t_flight = (RECONSTRUCT_DISTANCE * length - length) / pk.velocity
    devs = []
    for scale in T0_SCALES:
        t0s = scale * t_flight
        xs = length + np.sqrt(etas) * pk.velocity * t0s
        t0 = perf_counter()
        with tr.span("evolution.zeta", preset=name, n=len(etas) * terms):
            zs = run.op(len(etas), zeta, pk, profile, cat, rset, xs, t0s)
        timed += perf_counter() - t0
        if zs is not None:
            devs.append(float(np.max(np.abs(zs - t_ref))))
    if len(devs) == len(T0_SCALES):
        monotone = all(a > b for a, b in zip(devs, devs[1:]))
        gated = name != "db"  # db converges like 1/t0: reported, not gated
        ok = monotone and (devs[-1] <= RECONSTRUCT_TOL or not gated)
        run.check(f"reconstruction-{name}", ok,
                  f"max|zeta-T| at t0 scales {T0_SCALES} = "
                  + ", ".join(f"{d:.4f}" for d in devs)
                  + f" over {len(etas)} eta; monotone={monotone}"
                  + ("" if gated else "; final value reported, not gated"))

    t_lo = 50.0 * inp.tau_sys * (1.0 + 0.2 * rng.uniform())
    t0 = perf_counter()
    with tr.span("evolution.longtime_exponent", preset=name, n=1):
        slope = run.op(SLOPE_SAMPLES, longtime_exponent, pk, profile, cat, rset,
                       2.0 * length, (t_lo, 10.0 * t_lo), samples=SLOPE_SAMPLES)
    timed += perf_counter() - t0
    if slope is not None:
        run.check(f"longtime-slope-{name}", abs(slope + 3.0) <= SLOPE_TOL,
                  f"slope = {slope:.3f} vs -3 +- {SLOPE_TOL}")

    residual, scale = asymptotic_cancellation(pk, profile, cat, rset, 2.0 * length,
                                              1e3 * inp.tau_sys)
    c_mag = abs(coefficient_C(profile, cat, rset))
    run.check(f"cancellation-{name}", residual <= 10.0 * scale and residual <= 1e-2 * c_mag,
              f"|C + leading sum| = {residual:.2e}, 1/y'^3 scale = {scale:.2e}, |C| = {c_mag:.3f}")

    worst = faddeeva_check(np.concatenate(fad_args))
    run.check(f"faddeeva-mp-{name}", worst <= 1.0, f"worst err/bound = {worst:.2e}")
    idx = rng.choice(len(etas), 2, replace=False)
    e_err = mp_spectrum_error(profile, etas[idx] * pk.energy, t_ref[idx])
    run.check(f"mp-spectrum-eta-{name}", e_err <= 1e-10, f"rel err of T = {e_err:.1e}")
    return timed


def transient(run, seconds, work):
    """Catalogs in set-up; closed-form densities, zeta and slope fits timed."""
    # set-up is interpreter-bound sweeps (raw); rounds are vector-bound
    inputs, setup_s, raw_setup_s = repeat_setup(
        run, lambda: build_presets(run.tracer, run.seed), 2)

    def one_round():
        return sum(_transient_preset(run, inp) for inp in inputs.values())

    return Measured(setup_s, *measure(run, seconds, one_round, calibrated=True),
                    raw_setup_s=raw_setup_s, inputs=inputs)


# ---------------------------------------------------------------------------
# oracle: quadrature at node-balanced seeded times inside each oracle window
# ---------------------------------------------------------------------------


def _oracle_refs(run, inp):
    """Closed-form density peak and free-amplitude peak over the oracle window.

    Also checks the quadrature once at the window end, where its node count
    and memory are largest, so the run's peak memory does not depend on the
    seeded times.
    """
    t_end, n_pts = ORACLE_WINDOWS[inp.name]
    x = 2.0 * inp.profile.length
    window = oracle_window(inp, t_end)
    ts = np.linspace(*window, n_pts)
    logs = transmitted_packet_log(inp.packet, inp.profile, inp.catalog, inp.rset, x, ts)
    peak = inp.packet.sigma * float(np.max(np.exp(2.0 * np.asarray(logs).real)))
    free_peak = float(np.max(np.abs(free_packet(inp.packet, x, ts))))
    psi_end = psi_quadrature(inp.packet, inp.profile, x, window[1])
    dev = oracle_deviation(inp, inp.rset, x, [window[1]], [psi_end], peak)
    run.check(f"oracle-window-end-{inp.name}", dev <= ORACLE_TOL,
              f"t = {t_end} tau_sys: Linf/peak = {dev:.2e} (tol {ORACLE_TOL:g})")
    return x, window, peak, free_peak


def _oracle_preset(run, inp, refs):
    tr, rng = run.tracer, run.rng
    name, profile, pk = inp.name, inp.profile, inp.packet
    x, (t_lo, t_hi), peak, free_peak = refs
    ts = balanced_pair(inp, x, t_lo, t_hi, rng.uniform())
    quad, free = [], []
    timed = 0.0
    for t in ts:
        t0 = perf_counter()
        with tr.span("oracle.psi_quadrature", preset=name, n=1):
            quad.append(run.op(1, psi_quadrature, pk, profile, x, t))
        with tr.span("oracle.psi_free_quadrature", preset=name, n=1):
            free.append(run.op(1, psi_free_quadrature, pk, x, t))
        timed += perf_counter() - t0
    if None not in quad:
        dev = oracle_deviation(inp, inp.rset, x, ts, quad, peak)
        run.check(f"oracle-{name}", dev <= ORACLE_TOL,
                  f"x=2L, t/tau_sys = {ts[0] / inp.tau_sys:.3f}, {ts[1] / inp.tau_sys:.3f}: "
                  f"Linf/peak = {dev:.2e} (tol {ORACLE_TOL:g})")
    if None not in free:
        fdev = max(abs(f - free_packet(pk, x, t)) for f, t in zip(free, ts)) / free_peak
        run.check(f"free-quadrature-{name}", fdev <= FREE_TOL,
                  f"|psi_free_quad - free_packet|/peak = {fdev:.1e} (tol {FREE_TOL:g})")
    ks = rng.uniform(*momentum_window(pk), 3)
    phi0_args = 1j * (pk.x_c / (2.0 * pk.sigma) - 1j * (ks - pk.k0) * pk.sigma)
    args = np.concatenate([phi0_args, rng.choice(faddeeva_args(inp, x, ts), 3)])
    worst = faddeeva_check(args)
    run.check(f"faddeeva-mp-oracle-{name}", worst <= 1.0, f"worst err/bound = {worst:.2e}")
    return timed


def oracle(run, seconds, work):
    """Catalogs in set-up; quadrature cross-checks at 2L timed."""
    # set-up is interpreter-bound sweeps (raw); rounds are vector-bound
    inputs, setup_s, raw_setup_s = repeat_setup(
        run, lambda: build_presets(run.tracer, run.seed), 2)
    refs = {name: _oracle_refs(run, inp) for name, inp in inputs.items()}

    def one_round():
        return sum(_oracle_preset(run, inp, refs[name]) for name, inp in inputs.items())

    return Measured(setup_s, *measure(run, seconds, one_round, calibrated=True),
                    raw_setup_s=raw_setup_s, inputs=inputs)


WORKLOADS = {"catalog": catalog, "transient": transient, "oracle": oracle}
# What one counted operation is, for the human-readable summary.
THROUGHPUT = {"transient": "transient_points_per_s", "oracle": "oracle_points_per_s"}
