"""Per-layer metrics of a traced run, derived from its spans.

A metric comes from the spans the workload itself recorded when it calls that
layer.  Layers the workload does not call (``catalog`` never reaches
``evolution``, for instance) are filled by small probes run after the timed
rounds, on the same presets, so every traced run reports every metric.  The
``specfun`` regions and the vector kernel are always probed: no workload
calls them directly, only through ``evolution`` and ``oracle``.
"""

from __future__ import annotations

import numpy as np

from tunnelwave import (
    expansion_t,
    faddeeva_log_scaled,
    load_catalog,
    longtime_exponent,
    phi0,
    psi_quadrature,
    save_catalog,
    zeta,
)
from tunnelwave.evolution import transmitted_packet_log
from tunnelwave.potential import t22
from tunnelwave.validation import ORACLE_WINDOWS

from inputs import (
    DISTANCES,
    EXPANSION_N,
    PRESETS,
    double_newton_corrections,
    faddeeva_args,
    momentum_window,
    oracle_window,
    time_grid,
)

REGIONS = ("contfrac", "weideman", "series", "lower")
PROBE_NODES = 2**17
PROBE_ARGS = 2**15


def _names(prefix, keys):
    return tuple(f"{prefix}.{k}" for k in keys)


# name -> (unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = {
    "potential.t22_scalar_us": ("us", "lower"),
    "potential.t22_vector_ns_per_k": ("ns", "lower"),
    **{n: ("s", "lower") for n in _names("poles.sweep_s", PRESETS)},
    **{n: ("count", "higher") for n in _names("poles.catalog_size", PRESETS)},
    "poles.save_catalog_ms": ("ms", "lower"),
    "poles.load_catalog_ms": ("ms", "lower"),
    **{n: ("s", "lower") for n in _names("resonances.residues_s", PRESETS)},
    "resonances.expansion_ns_per_pole_k": ("ns", "lower"),
    **{n: ("ns", "lower") for n in _names("specfun.w_log_ns", REGIONS)},
    **{n: ("ns", "lower") for n in _names("evolution.bracket_ns_per_pole_point",
                                         [d for d, _ in DISTANCES])},
    "evolution.zeta_ns_per_pole_point": ("ns", "lower"),
    "evolution.longtime_exponent_ms": ("ms", "lower"),
    **{n: ("ms", "lower") for n in _names("oracle.psi_quadrature_ms_per_point", PRESETS)},
    "oracle.phi0_ns_per_k": ("ns", "lower"),
}


def _rate(tracer, span, scale, **match):
    """scale * (total span time) / (total work ``n``) over matching spans."""
    rows = [(d, a) for d, a in tracer.leaf(span)
            if all(a.get(k) == v for k, v in match.items())]
    work = sum(a["n"] for _, a in rows)
    return scale * sum(d for d, _ in rows) / work if work else None


def derive(tracer):
    m = {
        "potential.t22_scalar_us": _rate(tracer, "potential.t22_with_prime", 1e6),
        "potential.t22_vector_ns_per_k": _rate(tracer, "potential.t22", 1e9),
        "poles.save_catalog_ms": _rate(tracer, "poles.save_catalog", 1e3),
        "poles.load_catalog_ms": _rate(tracer, "poles.load_catalog", 1e3),
        "resonances.expansion_ns_per_pole_k": _rate(tracer, "resonances.expansion_t", 1e9),
        "evolution.zeta_ns_per_pole_point": _rate(tracer, "evolution.zeta", 1e9),
        "evolution.longtime_exponent_ms": _rate(tracer, "evolution.longtime_exponent", 1e3),
        "oracle.phi0_ns_per_k": _rate(tracer, "oracle.phi0", 1e9),
    }
    for p in PRESETS:
        m[f"poles.sweep_s.{p}"] = _rate(tracer, "poles.sweep_poles", 1.0, preset=p)
        sizes = [a["size"] for _, a in tracer.leaf("poles.sweep_poles") if a["preset"] == p]
        m[f"poles.catalog_size.{p}"] = float(sizes[-1]) if sizes else None
        m[f"resonances.residues_s.{p}"] = _rate(tracer, "resonances.residues", 1.0, preset=p)
        m[f"oracle.psi_quadrature_ms_per_point.{p}"] = _rate(
            tracer, "oracle.psi_quadrature", 1e3, preset=p)
    for r in REGIONS:
        m[f"specfun.w_log_ns.{r}"] = _rate(tracer, "specfun.faddeeva_log_scaled", 1e9, region=r)
    for label, _ in DISTANCES:
        m[f"evolution.bracket_ns_per_pole_point.{label}"] = _rate(
            tracer, "evolution.transmitted_packet_log", 1e9, distance=label)
    return m


# ---------------------------------------------------------------------------
# probes for the layers a workload does not reach
# ---------------------------------------------------------------------------


def _probe_t22_scalar(tracer, inputs, rng, work):
    for inp in inputs.values():
        double_newton_corrections(tracer, inp)


def _probe_momentum_grid(tracer, inputs, rng, work):
    """Vector kernel and phi0 over the oracle's momentum window."""
    for inp in inputs.values():
        pk = inp.packet
        ks = np.linspace(*momentum_window(pk), PROBE_NODES)
        with tracer.span("potential.t22", preset=inp.name, n=len(ks)):
            t22(inp.profile, ks)
        with tracer.span("oracle.phi0", preset=inp.name, n=len(ks)):
            phi0(pk, ks)


def _probe_save_load(tracer, inputs, rng, work):
    work.mkdir(parents=True, exist_ok=True)
    for inp in inputs.values():
        path = work / f"probe_{inp.name}.csv"
        rs = inp.rset
        with tracer.span("poles.save_catalog", preset=inp.name, n=1):
            save_catalog(inp.catalog, path, residues=rs.residues, u0=rs.u0, u_l=rs.u_l)
        with tracer.span("poles.load_catalog", preset=inp.name, n=1):
            load_catalog(path)


def _probe_expansion(tracer, inputs, rng, work):
    for inp in inputs.values():
        v = inp.profile.barrier_height
        k = np.sqrt(np.linspace(5.0 * v / 2000, 5.0 * v, 2000) / inp.profile.units.inv_mass_coeff)
        n = min(EXPANSION_N[inp.name], len(inp.catalog))
        with tracer.span("resonances.expansion_t", preset=inp.name, n=len(k) * n):
            expansion_t(inp.profile, k, inp.catalog, inp.rset, n)


def _probe_specfun(tracer, inputs, rng, work):
    """Faddeeva regions on arguments i y'_n from the paper's formula.

    Series and Weideman arguments come from 2L inside the oracle windows,
    continued-fraction and lower-half-plane ones from the transient's 200L
    and 2e5L time grids, so each region keeps its own workload's mix.
    """
    near, far = [], []
    for inp in inputs.values():
        x = 2.0 * inp.profile.length
        near.append(faddeeva_args(inp, x, np.linspace(
            *oracle_window(inp, ORACLE_WINDOWS[inp.name][0]), 64)))
        for _, mult in DISTANCES[1:]:
            far.append(faddeeva_args(inp, mult * inp.profile.length,
                                     time_grid(inp, mult, 4, rng)))
    near, far = np.concatenate(near), np.concatenate(far)
    r_near, r_far = np.abs(near), np.abs(far)
    pools = {
        "contfrac": far[(far.imag >= 0) & (r_far >= 7.0)],
        "weideman": near[(near.imag >= 0) & (r_near > 2.0) & (r_near < 7.0)],
        "series": near[(near.imag >= 0) & (r_near <= 2.0)],
        "lower": far[far.imag < 0],
    }
    for region, pool in pools.items():
        if len(pool) == 0:
            continue
        sample = rng.choice(pool, PROBE_ARGS)
        with tracer.span("specfun.faddeeva_log_scaled", region=region, n=len(sample)):
            faddeeva_log_scaled(sample)


def _probe_bracket(tracer, inputs, rng, work):
    for inp in inputs.values():
        terms = 2 * len(inp.catalog)
        for label, mult in DISTANCES:
            ts = time_grid(inp, mult, 4, rng)
            with tracer.span("evolution.transmitted_packet_log", preset=inp.name,
                             distance=label, n=len(ts) * terms):
                transmitted_packet_log(inp.packet, inp.profile, inp.catalog, inp.rset,
                                       mult * inp.profile.length, ts)


def _probe_zeta(tracer, inputs, rng, work):
    for inp in inputs.values():
        pk, length = inp.packet, inp.profile.length
        etas = rng.uniform(0.2, 3.0, 8)
        t0 = (2e5 * length - length) / pk.velocity
        xs = length + np.sqrt(etas) * pk.velocity * t0
        with tracer.span("evolution.zeta", preset=inp.name, n=len(etas) * 2 * len(inp.catalog)):
            zeta(pk, inp.profile, inp.catalog, inp.rset, xs, t0)


def _probe_longtime(tracer, inputs, rng, work):
    for inp in inputs.values():
        with tracer.span("evolution.longtime_exponent", preset=inp.name, n=1):
            longtime_exponent(inp.packet, inp.profile, inp.catalog, inp.rset,
                              2.0 * inp.profile.length,
                              (50.0 * inp.tau_sys, 500.0 * inp.tau_sys))


def _probe_quadrature(tracer, inputs, rng, work):
    for inp in inputs.values():
        t = 0.5 * sum(oracle_window(inp, ORACLE_WINDOWS[inp.name][0]))
        with tracer.span("oracle.psi_quadrature", preset=inp.name, n=1):
            psi_quadrature(inp.packet, inp.profile, 2.0 * inp.profile.length, t)


PROBES = (
    (_probe_t22_scalar, ("potential.t22_scalar_us",)),
    (_probe_momentum_grid, ("potential.t22_vector_ns_per_k", "oracle.phi0_ns_per_k")),
    (_probe_save_load, ("poles.save_catalog_ms", "poles.load_catalog_ms")),
    (_probe_expansion, ("resonances.expansion_ns_per_pole_k",)),
    (_probe_specfun, _names("specfun.w_log_ns", REGIONS)),
    (_probe_bracket, _names("evolution.bracket_ns_per_pole_point",
                            [d for d, _ in DISTANCES])),
    (_probe_zeta, ("evolution.zeta_ns_per_pole_point",)),
    (_probe_longtime, ("evolution.longtime_exponent_ms",)),
    (_probe_quadrature, _names("oracle.psi_quadrature_ms_per_point", PRESETS)),
)


def layer_metrics(tracer, inputs, rng, work):
    """Every per-layer metric; probes fill the layers the workload left out."""
    tracer.trace_id = "probes"
    have = derive(tracer)
    for probe, names in PROBES:
        if any(have[n] is None for n in names):
            probe(tracer, inputs, rng, work)
    return derive(tracer)
