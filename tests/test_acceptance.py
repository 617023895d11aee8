"""Acceptance suite: every release gate at its pinned tolerance.

One test per (criterion, system); each prints a PASS/FAIL line with the
measured values so the whole gate status is readable from the log.

Known red: 6-reconstruction-db.  The double-barrier resonance is 1.03 meV
wide, and the density-ratio needle at eta ~ 1 converges to the spectrum only
like 1/t0: the deviation is 0.517/((hbar t0 / 2m) beta_1^2) ~ 0.09 at the
gated distance of 2e5 L and falls below the 2e-2 tolerance only beyond
~1e6 L.  Verified against the closed form at three distances; the same check
passes for the single- and quadruple-barrier systems and the monotone
improvement with t0 holds for all three.
"""

import pytest

from conftest import ACCEPTANCE_LINES
from tunnelwave.validation import (
    check_cancellation,
    check_expansion,
    check_lifetime,
    check_longtime_slope,
    check_oracle_equivalence,
    check_pole_values,
    check_properties,
    check_reconstruction,
)

PRESETS = ("sb", "db", "qb")


def report(record):
    status = "PASS" if record.passed else "FAIL"
    line = f"{status} {record.name}: {record.detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert record.passed, f"{record.name}: {record.detail}"


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_1_pole_values(name, preset_data):
    data = preset_data[name]
    report(check_pole_values(name, data.profile, data.catalog))


@pytest.mark.parametrize("name", ("db", "qb"))
def test_criterion_2_lifetimes(name, preset_data):
    data = preset_data[name]
    report(check_lifetime(name, data.profile, data.catalog))


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_3_expansion_convergence(name, preset_data):
    data = preset_data[name]
    report(check_expansion(name, data.profile, data.catalog, data.residues))


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_4_oracle_equivalence(name, preset_data):
    data = preset_data[name]
    report(
        check_oracle_equivalence(
            name, data.profile, data.catalog, data.residues, data.packet
        )
    )


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_5_longtime_law(name, preset_data):
    data = preset_data[name]
    report(
        check_longtime_slope(
            name, data.profile, data.catalog, data.residues, data.packet
        )
    )


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_6_spectral_reconstruction(name, preset_data):
    data = preset_data[name]
    report(
        check_reconstruction(
            name, data.profile, data.catalog, data.residues, data.packet
        )
    )


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_7_property_suites(name, preset_data):
    data = preset_data[name]
    report(check_properties(name, data.profile, data.catalog))


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_8_cancellation(name, preset_data):
    data = preset_data[name]
    report(
        check_cancellation(
            name, data.profile, data.catalog, data.residues, data.packet
        )
    )
