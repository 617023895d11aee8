"""Built-in AlGaAs-style layered systems used throughout the test suite.

sb: single 8 nm barrier; db: symmetric double barrier with a 5 nm well;
qb: quadruple barrier with three 3 nm wells.  All barriers are 0.23 eV and
the effective-mass ratio is 0.067.
"""

from __future__ import annotations

from .potential import PotentialProfile

__all__ = [
    "PRESET_NAMES",
    "default_n_seed",
    "default_packet_energy",
    "preset_profile",
]

_PRESETS = {
    "sb": ((8.0, 0.23),),
    "db": ((5.0, 0.23), (5.0, 0.0), (5.0, 0.23)),
    "qb": (
        (3.0, 0.23),
        (3.0, 0.0),
        (5.0, 0.23),
        (3.0, 0.0),
        (5.0, 0.23),
        (3.0, 0.0),
        (3.0, 0.23),
    ),
}

_N_SEED = {"sb": 1000, "db": 1000, "qb": 4000}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_profile(name):
    try:
        layers = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return PotentialProfile(layers=layers, mass_ratio=0.067)


def default_n_seed(name):
    """Sweep depth that reproduces the reference tables for each preset."""
    return _N_SEED[name]


def default_packet_energy(name, profile, catalog):
    """Packet incidence energy: V/2 (sb), first resonance (db), second (qb)."""
    if name == "sb":
        return 0.5 * profile.barrier_height
    positions = catalog.positions(profile.units)
    return float(positions[0] if name == "db" else positions[1])

