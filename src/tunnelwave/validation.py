"""Acceptance checks shared by ``tunnelwave validate`` and the test suite.

Each check returns a :class:`CriterionRecord` with the measured numbers in
``detail`` so failures are diagnosable from the one-line report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    asymptotic_cancellation,
    longtime_exponent,
    tau_system,
    transmitted_packet,
    zeta,
)
from .oracle import NodeBudgetExceededError, psi_quadrature
from .potential import residual_gate, t22, transfer_matrix, transmission_coefficient
from .resonances import coefficient_C, expansion_t, resonance_state
from .specfun import faddeeva

__all__ = ["CriterionRecord", "run_validation"]

# Reference resonance parameters (eV) with acceptance tolerances.
REFERENCE_POLES = {
    "sb": {"positions": [(0.2885, 1e-3)], "widths": [(0.1045, 1e-3)]},
    "db": {"positions": [(0.0800, 1e-3)], "widths": [(1.0278e-3, 0.02e-3)]},
    "qb": {
        "positions": [(0.1199, 1e-3), (0.1309, 1e-3), (0.1450, 1e-3)],
        "widths": [(4.6270e-3, 0.05e-3), (11.9652e-3, 0.05e-3), (8.4472e-3, 0.05e-3)],
    },
}
REFERENCE_LIFETIMES_PS = {"db": (0.64, 0.01), "qb": (0.14, 0.005)}
EXPANSION_SIZES = {"sb": 300, "db": 1000, "qb": 4000}
ORACLE_WINDOWS = {"sb": (20.0, 80), "db": (0.75, 48), "qb": (1.0, 60)}
SWEEP_TIME_LIMIT_S = 300.0
RECONSTRUCT_DISTANCE = 2e5
RECONSTRUCT_TOL = 2e-2
ORACLE_TOL = 2e-2
SLOPE_TOL = 0.1


@dataclass
class CriterionRecord:
    name: str
    passed: bool
    detail: str


def _record(name, passed, detail):
    return CriterionRecord(name=name, passed=bool(passed), detail=detail)


def check_pole_values(name, profile, catalog):
    units = profile.units
    pos = catalog.positions(units)
    wid = catalog.widths(units)
    ref = REFERENCE_POLES[name]
    parts, ok = [], True
    for i, ((p_ref, p_tol), (w_ref, w_tol)) in enumerate(
        zip(ref["positions"], ref["widths"])
    ):
        dp, dw = abs(pos[i] - p_ref), abs(wid[i] - w_ref)
        ok &= dp <= p_tol and dw <= w_tol
        parts.append(f"E{i + 1}={pos[i]:.4f}({dp:.1e}) G{i + 1}={wid[i]:.6f}({dw:.1e})")
    parts.append(f"count={catalog.stats.count if catalog.stats else len(catalog)}")
    if catalog.stats is None:
        parts.append("catalog from cache (sweep not timed)")
    else:
        fast = catalog.stats.seconds < SWEEP_TIME_LIMIT_S
        ok &= fast
        # the seconds only on a FAIL, so that passing runs print the same lines
        parts.append(f"sweep<{SWEEP_TIME_LIMIT_S:.0f}s" if fast else
                     f"sweep {catalog.stats.seconds:.1f}s>={SWEEP_TIME_LIMIT_S:.0f}s")
    return _record(f"1-pole-values-{name}", ok, " ".join(parts))


def check_lifetime(name, profile, catalog):
    if name not in REFERENCE_LIFETIMES_PS:
        return None
    units = profile.units
    tau_ps = units.hbar / catalog.widths(units)[0] * 1e-3
    ref, tol = REFERENCE_LIFETIMES_PS[name]
    return _record(
        f"2-lifetime-{name}",
        abs(tau_ps - ref) <= tol,
        f"hbar/Gamma1 = {tau_ps:.4f} ps vs {ref} +- {tol}",
    )


def check_expansion(name, profile, catalog, residue_set):
    v_top = profile.barrier_height
    energies = np.linspace(5.0 * v_top / 2000, 5.0 * v_top, 2000)
    k = np.sqrt(energies / profile.units.inv_mass_coeff)
    t_exact = transmission_coefficient(profile, energies)
    n_req = min(EXPANSION_SIZES[name], len(catalog))
    amp = expansion_t(profile, k, catalog, residue_set, n_req)
    err = float(np.max(np.abs(np.abs(amp) ** 2 - t_exact)))
    ok = err <= 1e-2
    detail = f"N={n_req}: max|T_N - T| = {err:.2e} (tol 1e-2)"
    if name == "qb" and len(catalog) >= 4000:
        # n_req is 4000 here: the window's N = 4000 values are amp's
        window = (energies >= 4.0 * v_top) & (energies <= 5.0 * v_top)
        t_w = t_exact[window]
        amp_1000 = expansion_t(profile, k[window], catalog, residue_set, 1000)
        err_1000 = float(np.max(np.abs(np.abs(amp_1000) ** 2 - t_w)))
        err_4000 = float(np.max(np.abs(np.abs(amp[window]) ** 2 - t_w)))
        ok &= err_1000 > err_4000
        detail += f"; 4-5V window err(1000)={err_1000:.2e} > err(4000)={err_4000:.2e}"
    return _record(f"3-expansion-{name}", ok, detail)


def check_oracle_equivalence(name, profile, catalog, residue_set, packet):
    t_end, n_pts = ORACLE_WINDOWS[name]
    tau_sys = tau_system(profile, catalog)
    x_d = 2.0 * profile.length
    ts = np.linspace(1e-3 * tau_sys, t_end * tau_sys, n_pts)
    psi_a = transmitted_packet(packet, profile, catalog, residue_set, x_d, ts)
    try:
        psi_o = psi_quadrature(packet, profile, x_d, ts)
    except NodeBudgetExceededError as exc:
        return _record(f"4-oracle-equivalence-{name}", False, f"budget: {exc}")
    rho_a = packet.sigma * np.abs(psi_a) ** 2
    rho_o = packet.sigma * np.abs(psi_o) ** 2
    peak = float(np.max(rho_o))
    dev = float(np.max(np.abs(rho_a - rho_o))) / peak
    return _record(
        f"4-oracle-equivalence-{name}",
        dev <= ORACLE_TOL,
        f"x_d=2L, {n_pts} pts over {t_end} tau_sys: Linf/peak = {dev:.2e} (tol 2e-2)",
    )


def check_longtime_slope(name, profile, catalog, residue_set, packet):
    tau_sys = tau_system(profile, catalog)
    slope = longtime_exponent(
        packet, profile, catalog, residue_set,
        2.0 * profile.length, (50.0 * tau_sys, 500.0 * tau_sys),
    )
    return _record(
        f"5-longtime-slope-{name}",
        abs(slope + 3.0) <= SLOPE_TOL,
        f"slope = {slope:.3f} vs -3.0 +- {SLOPE_TOL}",
    )


def _reconstruction_grid(profile, packet, catalog):
    """Feature-resolving eta grid: uniform base plus refined resonance windows."""
    etas = [np.linspace(0.2, 3.0, 481)]
    e0 = packet.energy
    units = profile.units
    pos = catalog.positions(units)
    wid = catalog.widths(units)
    below = pos < profile.barrier_height
    for p, w in zip(pos[below], wid[below]):
        lo, hi = (p - 4 * w) / e0, (p + 4 * w) / e0
        if hi > 0.2 and lo < 3.0:
            etas.append(np.linspace(max(lo, 0.2), min(hi, 3.0), 120))
    return np.unique(np.concatenate(etas))


def check_reconstruction(name, profile, catalog, residue_set, packet):
    length = profile.length
    x0 = RECONSTRUCT_DISTANCE * length
    t_flight = (x0 - length) / packet.velocity
    etas = _reconstruction_grid(profile, packet, catalog)
    t_ref = transmission_coefficient(profile, etas * packet.energy)
    units = profile.units
    beta_1 = catalog.poles[0].imag
    devs, params = [], []
    for scale in (0.05, 0.25, 1.0):
        t0 = scale * t_flight
        xs = length + np.sqrt(etas) * packet.velocity * t0
        zs = zeta(packet, profile, catalog, residue_set, xs, t0)
        devs.append(float(np.max(np.abs(zs - t_ref))))
        # ungated: the needle at eta ~ 1 converges to T only once this
        # parameter, its expected deviation, is small
        params.append(0.517 / (units.inv_mass_coeff * t0 / units.hbar * beta_1**2))
    monotone = devs[0] > devs[1] > devs[2]
    ok = devs[-1] <= RECONSTRUCT_TOL and monotone
    return _record(
        f"6-reconstruction-{name}",
        ok,
        f"x_d=2e5 L: max|zeta-T| over t0 scales (.05,.25,1) = "
        f"({devs[0]:.4f}, {devs[1]:.4f}, {devs[2]:.4f}); final tol 2e-2, "
        f"monotone={monotone}; 0.517/((hbar t0/2m) beta_1^2) = "
        f"({params[0]:.3g}, {params[1]:.3g}, {params[2]:.3g})",
    )


def check_properties(name, profile, catalog):
    """Criterion-7 spot checks; the full property suites live in the tests."""
    rng = np.random.default_rng(7)
    msgs, ok = [], True

    zs = rng.uniform(-6, 6, 200) + 1j * rng.uniform(-2, 6, 200)
    w_all = faddeeva(zs)
    refl = np.abs(w_all + faddeeva(-zs) - 2.0 * np.exp(-zs * zs))
    refl_ok = bool(np.all(refl <= 1e-10 * (1.0 + np.abs(w_all))))
    ok &= refl_ok
    msgs.append(f"reflection<=1e-10:{refl_ok}")

    worst_det, worst_flux = 0.0, 0.0
    for _ in range(100):
        k = complex(rng.uniform(0.8, 3.0), rng.uniform(-0.1, 0.1))
        m = transfer_matrix(profile, k)
        worst_det = max(worst_det, abs(m.determinant - 1.0))
        kr = rng.uniform(0.05, 3.0)
        mr = transfer_matrix(profile, kr)
        t_amp = 1.0 / mr.t22
        r_amp = -mr.t21 / mr.t22
        worst_flux = max(worst_flux, abs(abs(t_amp) ** 2 + abs(r_amp) ** 2 - 1.0))
    det_ok, flux_ok = worst_det <= 1e-10, worst_flux <= 1e-10
    ok &= det_ok and flux_ok
    msgs.append(f"det dev {worst_det:.1e}, flux dev {worst_flux:.1e}")

    try:
        for kappa in catalog.poles[: min(5, len(catalog))]:
            resonance_state(profile, kappa)
    except (ValueError, ArithmeticError) as exc:
        ok = False
        msgs.append(f"resonance state rejected: {exc}")

    fresh = np.abs(t22(profile, catalog.poles))
    gates = residual_gate(catalog.length, catalog.poles)
    gate_ok = bool(np.all(fresh <= gates))
    ok &= gate_ok
    msgs.append(
        f"catalog residuals re-verified:{gate_ok} (worst {np.max(fresh / gates):.2e} of gate)"
    )
    return _record(f"7-properties-{name}", ok, "; ".join(msgs))


def check_cancellation(name, profile, catalog, residue_set, packet):
    tau_sys = tau_system(profile, catalog)
    residual, scale = asymptotic_cancellation(
        packet, profile, catalog, residue_set,
        2.0 * profile.length, 1e3 * tau_sys,
    )
    c_mag = abs(coefficient_C(profile, catalog, residue_set))
    ok = residual <= 10.0 * scale and residual <= 1e-2 * c_mag
    return _record(
        f"8-cancellation-{name}",
        ok,
        f"|C + leading sum| = {residual:.2e}, 1/y'^3 scale = {scale:.2e}, "
        f"|C| = {c_mag:.3f}",
    )


def run_validation(name, profile, catalog, residue_set, packet):
    """All applicable acceptance checks for the built-in system ``name``."""
    records = [check_pole_values(name, profile, catalog)]
    lifetime = check_lifetime(name, profile, catalog)
    if lifetime is not None:
        records.append(lifetime)
    records.append(check_expansion(name, profile, catalog, residue_set))
    records.append(check_oracle_equivalence(name, profile, catalog, residue_set, packet))
    records.append(check_longtime_slope(name, profile, catalog, residue_set, packet))
    records.append(check_reconstruction(name, profile, catalog, residue_set, packet))
    records.append(check_properties(name, profile, catalog))
    records.append(check_cancellation(name, profile, catalog, residue_set, packet))
    return records
