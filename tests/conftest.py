import pytest

from tunnelwave.evolution import GaussianPacket

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
from tunnelwave.poles import PoleSearchConfig, sweep_poles
from tunnelwave.presets import default_n_seed, default_packet_energy, preset_profile
from tunnelwave.resonances import residues

PRESETS = ("sb", "db", "qb")


class PresetData:
    """Profile, catalog, residues and default packet for one built-in system."""

    def __init__(self, name):
        self.name = name
        self.profile = preset_profile(name)
        config = PoleSearchConfig(n_seed=default_n_seed(name))
        self.catalog = sweep_poles(self.profile, config)
        self.residues = residues(self.profile, self.catalog)
        units = self.profile.units
        self.energy = default_packet_energy(name, self.profile, self.catalog)
        self.packet = GaussianPacket(
            x_c=-5.0,
            sigma=0.5,
            k0=units.wavenumber_of_energy(self.energy),
            units=units,
        )


@pytest.fixture(scope="session")
def sb_data():
    return PresetData("sb")


@pytest.fixture(scope="session")
def db_data():
    return PresetData("db")


@pytest.fixture(scope="session")
def qb_data():
    return PresetData("qb")


@pytest.fixture(scope="session")
def preset_data(sb_data, db_data, qb_data):
    return {"sb": sb_data, "db": db_data, "qb": qb_data}
