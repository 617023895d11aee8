"""Command-line front end: pole tables, spectra, transients, reconstruction.

Every command writes '#'-headed CSV with full-precision values and a header
block (tool version, profile fingerprint, units, config echo) so runs are
reproducible byte for byte.  Pole catalogs are cached under the output
directory keyed by a fingerprint of (layers, mass ratio, search config) and
rebuilt whenever the fingerprint does not match.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    GaussianPacket,
    NonAsymptoticError,
    free_packet_log,
    tau_system,
    transmitted_packet_log,
    zeta,
)
from .oracle import NodeBudgetExceededError, psi_quadrature
from .poles import (
    AnchorFailureError,
    IncompleteCatalogError,
    PoleSearchConfig,
    catalog_fingerprint,
    load_catalog,
    save_catalog,
    sweep_poles,
    write_text_atomic,
)
from .potential import PotentialProfile, t22, transmission_coefficient
from .presets import PRESET_NAMES, default_n_seed, default_packet_energy, preset_profile
from .resonances import NotAPoleError, ResidueSet, expansion_t, residues
from .validation import REFERENCE_POLES, run_validation

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by all subcommands."""

    profile: PotentialProfile
    preset: str | None
    out_dir: Path
    search: PoleSearchConfig
    x_c: float = -5.0
    sigma: float = 0.5
    energy: float | None = None  # None: preset rule / V/2 fallback


class ConfigError(ValueError):
    pass


def finite_float(value, what="number"):
    """``float(value)``; a :class:`ConfigError` naming ``what`` unless it is
    finite.  The float options' argparse type :func:`above` is built on it."""
    val = float(value)
    if not math.isfinite(val):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return val


def at_least(low):
    """argparse type of an integer of at least ``low``: 1 for a grid size or
    a pole count, 2 for the sweep's anchor index."""

    def integer(text):
        val = int(text)
        if val < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {val}")
        return val

    return integer


count = at_least(1)


T_START = 1e-3  # evolve's first time, in tau_sys: --tmax must lie past it


def above(low):
    """argparse type of a finite float above ``low``: 0 for a time or energy
    ratio, ``T_START`` for ``evolve --tmax``."""

    def number(text):
        val = finite_float(text)
        if not val > low:
            raise argparse.ArgumentTypeError(f"must be above {low:g}, got {text!r}")
        return val

    return number


positive = above(0.0)


def increasing(item):
    """argparse type of a comma list of ``item`` values, strictly increasing."""

    def comma_list(text):
        values = [item(s) for s in text.split(",")]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise argparse.ArgumentTypeError(f"must be strictly increasing, got {text!r}")
        return values

    return comma_list


def parse_profile_file(path):
    """Flat key-value config: repeated ``layer = width height`` lines plus
    ``mass_ratio``; optional ``x_c``, ``sigma``, ``e0`` packet overrides.
    Every number must be finite, and every key but ``layer`` given once."""
    layers = []
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: cannot parse line {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "layer":
            parts = val.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}: layer needs 'width height', got {val!r}")
            layers.append(tuple(finite_float(v, f"{path}: {key}") for v in parts))
        elif key in ("mass_ratio", "x_c", "sigma", "e0"):
            number = finite_float(val, f"{path}: {key}")
            if key in values:
                raise ConfigError(f"{path}: {key} given more than once")
            values[key] = number
        else:
            raise ConfigError(f"{path}: unknown key {key!r}")
    if not layers:
        raise ConfigError(f"{path}: no layer lines found")
    profile = PotentialProfile(
        layers=tuple(layers), mass_ratio=values.pop("mass_ratio", 0.067)
    )
    return profile, values


def parse_distance(text, length):
    """Distance in nm, or a multiple of the system length like '2L', '2e5L';
    it must be finite."""
    text = text.strip()
    if text.lower().endswith("l"):
        return finite_float(float(text[:-1]) * length, f"distance {text!r}")
    return finite_float(text, "distance")


def _resolve_config(args):
    if args.preset:
        profile, extras = preset_profile(args.preset), {}
    else:
        profile, extras = parse_profile_file(args.config)
    n_seed = args.nseed or (default_n_seed(args.preset) if args.preset else 1000)
    if any(p.exists() and not p.is_dir() for p in (Path(args.out), *Path(args.out).parents)):
        raise ConfigError(f"--out {args.out} is, or lies under, an existing non-directory")
    return RunConfig(
        profile=profile,
        preset=args.preset,
        out_dir=Path(args.out),
        search=PoleSearchConfig(n_seed=n_seed),
        **{"energy" if key == "e0" else key: val for key, val in extras.items()},
    )


def _catalog_cache_path(cfg):
    fp = catalog_fingerprint(cfg.profile, cfg.search)
    return cfg.out_dir / "cache" / f"poles_{fp}.csv", fp


def obtain_catalog(cfg, quiet=False):
    """Load the cached catalog when the fingerprint matches, else sweep.

    A cache that cannot be read (truncated or corrupt) counts as a miss and
    is rebuilt.  A swept catalog carries its ``stats``; a loaded one
    has none.
    """
    path, fp = _catalog_cache_path(cfg)
    try:
        catalog, extras = load_catalog(path)
    except (ValueError, OSError):
        pass  # missing or unreadable: rebuild below
    else:
        if catalog.profile_fingerprint == fp:
            return catalog, ResidueSet(**extras)
    catalog = sweep_poles(cfg.profile, cfg.search)
    rset = residues(cfg.profile, catalog)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_catalog(catalog, path, residues=rset.residues, u0=rset.u0, u_l=rset.u_l)
    if not quiet:
        print(f"catalog: {len(catalog)} poles -> {path}")
    return catalog, rset


def _packet(cfg, catalog=None):
    """The run's packet, checked for the analytic path.  Only a preset's
    energy comes from ``catalog``."""
    units = cfg.profile.units
    if cfg.energy is not None:
        e0 = cfg.energy
    elif cfg.preset is not None:
        e0 = default_packet_energy(cfg.preset, cfg.profile, catalog)
    else:
        e0 = 0.5 * cfg.profile.barrier_height
    packet = GaussianPacket(
        x_c=cfg.x_c, sigma=cfg.sigma, k0=units.wavenumber_of_energy(e0), units=units
    )
    packet.require_analytic()
    return packet


def _catalog_and_packet(cfg, quiet=False):
    """The catalog, its residues and the run's packet.  A config run's packet
    (``e0``, or V/2) needs no catalog, so a bad one fails before the sweep."""
    packet = None if cfg.preset else _packet(cfg)
    catalog, rset = obtain_catalog(cfg, quiet)
    if packet is None:
        packet = _packet(cfg, catalog)
    return catalog, rset, packet


def _write_csv(cfg, stem, columns, rows, extra=None, xd=None):
    """Write ``rows`` under the run header to ``<out>/<stem>_<system>.csv``,
    or ``<stem>_<system>_<xd>.csv`` for a run at the ``--xd`` text ``xd``;
    returns the path."""
    name = f"{stem}_{cfg.preset or 'custom'}" + (f"_{xd.strip()}" if xd else "")
    path = cfg.out_dir / f"{name}.csv"
    lines = [
        f"# tunnelwave {__version__}",
        f"# fingerprint: {catalog_fingerprint(cfg.profile, cfg.search)}",
        "# units: nm fs eV",
        f"# system: {cfg.profile.fingerprint_key()}",
        f"# search: {cfg.search.fingerprint_key()}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"# {key}: {val}")
    lines.append("# columns: " + ",".join(columns))
    lines += [",".join(format(v, ".17e") for v in row) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, "\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_poles(args):
    cfg = _resolve_config(args)
    catalog, _ = obtain_catalog(cfg)
    if catalog.stats is not None:
        print(catalog.stats.summary())
    units = cfg.profile.units
    pos = catalog.positions(units)
    wid = catalog.widths(units)
    out = _write_csv(
        cfg, "poles",
        ["n", "re_kappa", "im_kappa", "position_eV", "width_eV", "residual"],
        zip(np.arange(1.0, len(catalog) + 1), catalog.poles.real, catalog.poles.imag,
            pos, wid, catalog.residuals),
    )
    print(f"wrote {out}")
    print("  n      E_n (eV)    Gamma_n (eV)")
    for n in range(min(10, len(catalog))):
        print(f"{n + 1:3d}  {pos[n]:.6f}  {wid[n]:.6e}")
    return 0


def cmd_spectrum(args):
    cfg = _resolve_config(args)
    catalog, rset = obtain_catalog(cfg)
    profile = cfg.profile
    if max(args.poles, default=0) > len(catalog):
        raise ConfigError(f"pole count {max(args.poles)} outside 1..{len(catalog)}")
    n_list = args.poles or [len(catalog)]
    v_top = profile.barrier_height
    energies = np.linspace(5.0 * v_top / args.points, 5.0 * v_top, args.points)
    k = np.sqrt(energies / profile.units.inv_mass_coeff)
    t_exact = transmission_coefficient(profile, energies)
    amp_exact = 1.0 / t22(profile, k)
    columns = ["E_over_V", "E_eV", "T_exact", "re_t_exact", "im_t_exact"]
    data = [energies / v_top, energies, t_exact, amp_exact.real, amp_exact.imag]
    devs = []
    for n in n_list:
        amp = expansion_t(profile, k, catalog, rset, n)
        t_n = np.abs(amp) ** 2
        columns += [f"T_expansion_N{n}", f"re_t_N{n}", f"im_t_N{n}"]
        data += [t_n, amp.real, amp.imag]
        devs.append(np.max(np.abs(t_n - t_exact)))
    out = _write_csv(cfg, "spectrum", columns, zip(*data), {
        "pole_counts": ",".join(map(str, n_list)),
    })
    for n, dev in zip(n_list, devs):
        print(f"N={n:5d}: max |T_expansion - T_exact| = {dev:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_evolve(args):
    cfg = _resolve_config(args)
    profile = cfg.profile
    x_d = parse_distance(args.xd, profile.length)
    if x_d < profile.length:
        raise ConfigError("--xd must be at least L (the transmitted region)")
    catalog, rset, packet = _catalog_and_packet(cfg)
    tau_sys = tau_system(profile, catalog)
    t_end = args.tmax * tau_sys
    if not math.isfinite(t_end):
        raise ConfigError(f"--tmax {args.tmax!r} times tau_sys {tau_sys!r} fs overflows")
    ts = np.linspace(T_START * tau_sys, t_end, args.tpoints)
    logs = transmitted_packet_log(packet, profile, catalog, rset, x_d, ts)
    with np.errstate(under="ignore"):
        rho = packet.sigma * np.exp(2.0 * np.asarray(logs).real)
        rho_free = packet.sigma * np.exp(
            2.0 * np.asarray(free_packet_log(packet, x_d, ts)).real
        )
    columns = ["t_over_tau", "t_fs", "rho_analytic", "rho_free"]
    data = [ts / tau_sys, ts, rho, rho_free]
    if args.oracle:
        try:
            rho_oracle = packet.sigma * np.abs(psi_quadrature(packet, profile, x_d, ts)) ** 2
        except NodeBudgetExceededError:
            rho_oracle = np.full_like(ts, np.nan)
            print("warning: oracle node budget exceeded; oracle column left blank",
                  file=sys.stderr)
        columns.append("rho_oracle")
        data.append(rho_oracle)
    out = _write_csv(cfg, "evolve", columns, zip(*data), {
        "x_d_nm": repr(x_d),
        "tau_sys_fs": repr(tau_sys),
        "packet": f"x_c={packet.x_c!r} sigma={packet.sigma!r} k0={packet.k0!r}",
    }, xd=args.xd)
    print(f"wrote {out}")
    return 0


def cmd_reconstruct(args):
    cfg = _resolve_config(args)
    scales = args.t0_scales
    profile = cfg.profile
    length = profile.length
    x_d = parse_distance(args.xd, length)
    if x_d <= length:
        raise ConfigError("--xd must lie beyond L")
    if args.eta_min > args.eta_max:
        raise ConfigError("need --eta-min <= --eta-max")
    catalog, rset, packet = _catalog_and_packet(cfg)
    t_flight = (x_d - length) / packet.velocity
    etas = np.linspace(args.eta_min, args.eta_max, args.eta_points)
    t0s = [scale * t_flight for scale in scales]
    grids = [length + np.sqrt(etas) * packet.velocity * t0 for t0 in t0s]
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.all(np.isfinite(free_packet_log(packet, xs, t0)))
                   for xs, t0 in zip(grids, t0s)):
            raise ConfigError(
                f"--xd {args.xd} is too far: the free packet's exponent "
                "overflows at the reconstruction points"
            )
    e0 = packet.energy
    t_ref = transmission_coefficient(profile, etas * e0)
    columns = ["eta", "E_eV", "T_exact"]
    data = [etas, etas * e0, t_ref]
    for scale, t0, xs in zip(scales, t0s, grids):
        columns.append(f"zeta_t0_{scale:g}")
        data.append(zeta(packet, profile, catalog, rset, xs, t0))
    out = _write_csv(cfg, "reconstruct", columns, zip(*data), {
        "x_d_nm": repr(x_d),
        "t0_fs": ",".join(repr(s * t_flight) for s in scales),
    }, xd=args.xd)
    for scale, col in zip(scales, data[3:]):
        print(f"t0 scale {scale:g}: max |zeta - T| = {np.max(np.abs(col - t_ref)):.4f}")
    print(f"wrote {out}")
    return 0


def cmd_validate(args):
    cfg = _resolve_config(args)
    if cfg.preset not in REFERENCE_POLES:
        raise ConfigError("validation needs one of the built-in presets")
    catalog, rset, packet = _catalog_and_packet(cfg, quiet=True)
    records = run_validation(cfg.preset, cfg.profile, catalog, rset, packet)
    n_fail = 0
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {rec.name}: {rec.detail}")
        n_fail += 0 if rec.passed else 1
    print(f"{len(records) - n_fail}/{len(records)} criteria passed")
    return 0 if n_fail == 0 else NUMERICAL_ERROR


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub):
    system = sub.add_mutually_exclusive_group(required=True)
    system.add_argument("--preset", choices=PRESET_NAMES, help="built-in system")
    system.add_argument("--config", help="system config file (layer/mass_ratio lines)")
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    sub.add_argument("--nseed", type=at_least(2),
                     help="anchor index of the pole sweep, which sets the catalog "
                     "size (default: per preset, else 1000)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tunnelwave",
        description="Resonance poles and transmitted wave-packet transients "
        "for layered 1-D potentials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poles", help="compute and cache the pole catalog")
    _add_common(p)
    p.set_defaults(func=cmd_poles)

    p = subs.add_parser("spectrum", help="transmission spectrum, exact vs expansion")
    _add_common(p)
    p.add_argument("--poles", type=increasing(count), default=[],
                   help="increasing comma list of expansion sizes (default: every pole)")
    p.add_argument("--points", type=count, default=2000, help="energy grid points")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("evolve", help="transmitted density over time at fixed x")
    _add_common(p)
    p.add_argument("--xd", required=True, help="detector position, e.g. '2L' or nm")
    p.add_argument("--tmax", type=above(T_START), default=20.0, help="end time in tau_sys units")
    p.add_argument("--tpoints", type=count, default=400)
    p.add_argument("--oracle", action="store_true",
                   help="add the quadrature-oracle column when affordable")
    p.set_defaults(func=cmd_evolve)

    p = subs.add_parser("reconstruct", help="spectral reconstruction zeta(eta)")
    _add_common(p)
    p.add_argument("--xd", required=True, help="free-flight anchor, e.g. '2e5L'")
    p.add_argument("--t0-scales", type=increasing(positive), default="0.25,0.5,1.0",
                   help="increasing fractions of the flight time")
    p.add_argument("--eta-min", type=positive, default=0.2)
    p.add_argument("--eta-max", type=positive, default=3.0)
    p.add_argument("--eta-points", type=count, default=481)
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("validate", help="run the acceptance checks for a system")
    _add_common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # 0 after --help or --version; argparse exits 2 on a usage error
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (
        AnchorFailureError, ArithmeticError, IncompleteCatalogError,
        NodeBudgetExceededError, NonAsymptoticError, NotAPoleError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
