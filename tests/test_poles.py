import dataclasses
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelwave import cli, poles
from tunnelwave.poles import (
    AnchorFailureError,
    IncompleteCatalogError,
    IndexTooSmallError,
    PoleSearchConfig,
    asymptotic_seed,
    catalog_fingerprint,
    load_catalog,
    save_catalog,
    sweep_poles,
    write_text_atomic,
)
from tunnelwave.poles import _DEDUP_TOL, _Box, _newton_lockstep, _zero_count
from tunnelwave.potential import (
    _RESIDUAL_TOL,
    PotentialProfile,
    residual_gate,
    t22,
    t22_with_prime,
    transmission_coefficient,
)
from tunnelwave.presets import preset_profile
from tunnelwave.resonances import expansion_t, residues

SB = preset_profile("sb")
DB = preset_profile("db")
QB = preset_profile("qb")
FREE = PotentialProfile(((8.0, 0.0),))
# ten and eight 3 nm barriers of 0.23 eV with 3 nm wells
LATTICE_10X3 = PotentialProfile(tuple([(3.0, 0.23), (3.0, 0.0)] * 9 + [(3.0, 0.23)]))
LATTICE_8X3 = PotentialProfile(tuple([(3.0, 0.23), (3.0, 0.0)] * 7 + [(3.0, 0.23)]))


@pytest.fixture(scope="module")
def lattice_10x3():
    return sweep_poles(LATTICE_10X3, PoleSearchConfig(n_seed=1000))


@pytest.fixture(scope="module")
def lattice_8x3():
    return sweep_poles(LATTICE_8X3, PoleSearchConfig(n_seed=1000))


def drop_from_lockstep(monkeypatch, index, n_seed, fill_finds=True):
    """Make the lockstep batch of an ``n_seed`` sweep lose the pole of seed
    ``index + 2``, and with ``fill_finds`` false every Newton run of the fill
    find nothing."""
    lockstep = poles._newton_lockstep

    def dropping(seeds, profile, counts):
        found = lockstep(seeds, profile, counts)
        if len(seeds) == n_seed - 1:  # the batch from seeds 2 to n_seed
            found[index] = np.nan
        elif not fill_finds:
            found[:] = np.nan
        return found

    monkeypatch.setattr(poles, "_newton_lockstep", dropping)


class TestAsymptoticSeed:
    def test_reference_values(self):
        s = asymptotic_seed(4000, 25.0)
        assert s.real == pytest.approx(502.65, abs=0.01)
        assert s.imag == pytest.approx(-0.6635, abs=1e-4)
        s = asymptotic_seed(2, 8.0)
        assert s.real == pytest.approx(0.7854, abs=1e-4)
        assert s.imag == pytest.approx(-0.1733, abs=1e-4)

    def test_rejects_small_index(self):
        with pytest.raises(IndexTooSmallError):
            asymptotic_seed(1, 8.0)
        with pytest.raises(IndexTooSmallError):
            asymptotic_seed(np.array([3, 1, 4]), 8.0)

    def test_array_matches_one_index_at_a_time(self):
        n = np.arange(2, 200)
        seeds = asymptotic_seed(n, SB.length)
        assert seeds.shape == n.shape
        singles = [complex(asymptotic_seed(int(i), SB.length)) for i in n]
        assert np.array_equal(seeds, singles)


class TestNewton:
    def test_fixed_point_at_exact_pole(self):
        kappa = 0.7151328825520719 - 0.06423768440198004j
        out = _newton_lockstep([kappa], SB, Counter())[0]
        assert abs(out - kappa) <= 1e-12

    def test_converges_to_sb_reference_resonance(self):
        out = _newton_lockstep([0.71 - 0.13j], SB, Counter())[0]
        units = SB.units
        energy = units.energy_of_wavenumber(out)
        assert energy.real == pytest.approx(0.2885, abs=1e-3)
        assert -2.0 * energy.imag == pytest.approx(0.1045, abs=1e-3)

    def test_upper_half_plane_diverges(self):
        assert np.isnan(_newton_lockstep([0.5 + 2.0j], SB, Counter())[0])


class TestSweep:
    def test_db_first_pole(self, db_data):
        units = DB.units
        pos = db_data.catalog.positions(units)
        wid = db_data.catalog.widths(units)
        assert pos[0] == pytest.approx(0.0800, abs=1e-3)
        assert wid[0] * 1e3 == pytest.approx(1.0278, abs=0.01)

    def test_qb_triplet(self, qb_data):
        units = QB.units
        pos = qb_data.catalog.positions(units)
        wid = qb_data.catalog.widths(units)
        for i, (e_ref, g_ref) in enumerate(
            [(0.1199, 4.6270e-3), (0.1309, 11.9652e-3), (0.1450, 8.4472e-3)]
        ):
            assert pos[i] == pytest.approx(e_ref, abs=1e-3)
            assert wid[i] == pytest.approx(g_ref, abs=0.05e-3)

    def test_zero_barrier_rejected(self):
        with pytest.raises(ValueError):
            sweep_poles(FREE, PoleSearchConfig(n_seed=10))

    def test_fourth_quadrant_and_ordering(self, preset_data):
        for data in preset_data.values():
            poles = data.catalog.poles
            assert np.all(poles.real > 0.0)
            assert np.all(poles.imag < 0.0)
            assert np.all(np.diff(poles.real) > 0.0)
            assert np.min(np.abs(np.diff(poles))) >= _DEDUP_TOL

    def test_residuals_reverified_against_gate(self, preset_data):
        for data in preset_data.values():
            catalog = data.catalog
            kappas = catalog.poles[:: max(1, len(catalog) // 50)]
            gates = residual_gate(catalog.length, kappas)
            for kappa, gate in zip(kappas, gates):
                assert abs(t22(data.profile, complex(kappa))) <= gate

    def test_shallow_pole_residuals_meet_plain_tolerance(self, preset_data):
        # the depth-aware gate reduces to residual_tol for beta L <= ~8.8,
        # which covers every pole that shapes T(E) below a few barrier heights
        for data in preset_data.values():
            catalog = data.catalog
            shallow = -catalog.poles.imag * catalog.length <= 8.8
            assert np.count_nonzero(shallow) >= 10
            assert np.all(
                catalog.residuals[shallow] <= _RESIDUAL_TOL
            )

    def test_asymptotic_spacing(self, preset_data):
        for data in preset_data.values():
            alphas = data.catalog.poles.real
            spacing = np.diff(alphas)
            tail = spacing[int(0.8 * len(spacing)) :]
            step = math.pi / data.profile.length
            assert np.max(np.abs(tail - step)) <= 0.05 * step

    def test_determinism(self):
        cfg = PoleSearchConfig(n_seed=40, seed=123)
        a = sweep_poles(DB, cfg)
        b = sweep_poles(DB, cfg)
        assert np.array_equal(a.poles, b.poles)
        assert np.array_equal(a.residuals, b.residuals)

    def test_logarithmic_depth_growth(self, preset_data):
        # scaled pole sets: imaginary parts deepen ~ 2 ln(n) / L at high n
        for data in preset_data.values():
            catalog = data.catalog
            n = np.arange(1, len(catalog) + 1)
            high = n >= len(catalog) // 2
            betas = -catalog.poles.imag[high] * catalog.length
            coeffs = np.polyfit(np.log(n[high]), betas, 1)
            assert 1.0 <= coeffs[0] <= 3.0

    def test_anchor_failure_surfaces(self, monkeypatch):
        monkeypatch.setattr(poles, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(AnchorFailureError):
            sweep_poles(SB, PoleSearchConfig(n_seed=5000))

    def test_lockstep_retires_unevaluable_seeds_alone(self):
        # a seed on the layer branch point k = sqrt(V/c) is evaluated at
        # k (1 + 1e-9); only the overflowing seed is retired
        k_branch = math.sqrt(0.23 / SB.units.inv_mass_coeff)
        k_overflow = 5.0 - 100.0j
        with pytest.raises(OverflowError):
            t22_with_prime(SB, k_overflow)
        good = [asymptotic_seed(n, SB.length) for n in range(2, 12)] + [k_branch]
        seeds = good[:4] + [k_overflow] + good[4:]
        counts = Counter()
        poles = _newton_lockstep(np.array(seeds), SB, counts)
        assert np.isnan(poles[4])
        for got, seed in zip(np.delete(poles, 4), good):
            want = _newton_lockstep([seed], SB, Counter())[0]
            if np.isnan(want):  # n = 2 leaves the fourth quadrant
                assert np.isnan(got)
            else:
                assert abs(got - want) <= 1e-12 * abs(want)
        assert not np.isnan(poles[-1])
        assert counts["newton"] >= len(seeds)


class TestZeroCountCertificate:
    SB_FIRST = 0.7151328825520719 - 0.06423768440198004j

    def test_one_zero_around_first_sb_pole(self):
        k = self.SB_FIRST
        assert _zero_count(SB, k.real, 0.05, k.imag, 0.03) == 1

    def test_three_zeros_around_qb_triplet(self):
        # the 0.1199 / 0.1309 / 0.1450 eV triplet sits at Re k 0.459-0.505
        assert _zero_count(QB, 0.482, 0.032, -0.01, 0.01) == 3

    def test_thin_rectangle_below_first_sb_pole_is_empty(self):
        # pi / (20 L) wide, just below the lowest sb pole, from the real axis
        # down to twice its depth
        width = math.pi / SB.length / 20
        k = self.SB_FIRST
        assert _zero_count(SB, k.real - width, 0.5 * width, k.imag, -k.imag) == 0

    def test_branch_point_on_boundary_is_counted(self):
        k_branch = math.sqrt(0.23 / SB.units.inv_mass_coeff)
        # top-left corner at the branch point k = sqrt(V/c), then moved off it
        assert _zero_count(SB, k_branch + 0.01, 0.01, -0.01, 0.01) == 0
        assert _zero_count(SB, k_branch + 0.011, 0.01, -0.011, 0.01) == 0

    def test_box_count_is_the_sum_of_its_halves(self, sb_data):
        catalog = sb_data.catalog
        re_lo, re_hi, im_lo, im_hi = box = catalog.stats.box
        counter = _Box(SB, box)
        last = len(counter.cuts) - 1
        mid = last // 2
        (total,) = counter.counts([(box, (0, last))])
        x = counter.cuts[mid]
        halves = [
            _zero_count(SB, 0.5 * (a + b), 0.5 * (b - a), 0.5 * (im_lo + im_hi),
                        0.5 * (im_hi - im_lo))
            for a, b in ((re_lo, x), (x, re_hi))
        ]
        slabs = counter.counts([(None, (0, mid)), (None, (mid, last))])
        assert total == len(catalog) == sum(halves) == sum(slabs)
        assert halves == slabs
        assert halves[0] == np.count_nonzero(catalog.poles.real < x)

    def test_count_independent_of_the_left_edge(self, lattice_10x3):
        # a sampler testing only the sampled phase step, from 2 samples per
        # pi/L, read the top edge one turn high here with the left edge at
        # pi/(40 L)
        _, re_hi, im_lo, im_hi = lattice_10x3.stats.box
        counts = []
        for left in (4.0, 40.0):
            box = (math.pi / (left * LATTICE_10X3.length), re_hi, im_lo, im_hi)
            counter = _Box(LATTICE_10X3, box)
            counts += counter.counts([(box, (0, len(counter.cuts) - 1))])
        assert counts == [1000, 1000]

    def test_box_edges_longer_than_the_refinement_cap(self):
        # 80002 starting samples per horizontal edge of the box, more than
        # the cap, which bounds only the samples that refinement adds
        catalog = sweep_poles(SB, PoleSearchConfig(n_seed=40000))
        assert len(catalog) == catalog.stats.count == 40000

    def test_fill_restores_a_pole_the_lockstep_dropped(self, monkeypatch):
        config = PoleSearchConfig(n_seed=200)
        full = sweep_poles(SB, config)
        kappa = full.poles[99]
        drop_from_lockstep(monkeypatch, 98, config.n_seed)
        catalog = sweep_poles(SB, config)
        assert catalog.stats.fill == full.stats.fill + 1
        assert catalog.stats.lockstep == full.stats.lockstep - 1
        assert np.min(np.abs(catalog.poles - kappa)) <= 1e-12 * abs(kappa)
        assert len(catalog) == len(full) == catalog.stats.count

    def test_count_above_the_poles_found_raises(self, monkeypatch, tmp_path, capsys):
        drop_from_lockstep(monkeypatch, 98, 200, fill_finds=False)
        # the lockstep batch already misses the two lowest sb poles
        message = "197 poles found; sweep: 200 zeros in box: 197 lockstep + 0 fill"
        with pytest.raises(IncompleteCatalogError, match=re.escape(message)):
            sweep_poles(SB, PoleSearchConfig(n_seed=200))
        out = tmp_path / "incomplete"
        args = ["poles", "--preset", "sb", "--nseed", "200", "--out", str(out)]
        assert cli.main(args) == 2
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert not (out / "cache").exists()

    def test_default_sweep_newton_iterations(self, preset_data):
        for name, count, lockstep in (
            ("sb", 1000, 998), ("db", 1000, 996), ("qb", 4000, 3991),
        ):
            stats = preset_data[name].catalog.stats
            fill = count - lockstep
            assert (stats.count, stats.lockstep, stats.fill) == (count, lockstep, fill)
            assert stats.newton_iterations > 0
            summary = stats.summary()
            assert f"{count} zeros in box: {lockstep} lockstep + {fill} fill" in summary
            assert f"{stats.newton_iterations} Newton iterations" in summary

    def test_superlattice_catalog_independent_of_seed(self, lattice_10x3):
        # the lockstep batch misses 44 poles, the fill finds each the same way
        # every time
        for catalog in [lattice_10x3] + [
            sweep_poles(LATTICE_10X3, PoleSearchConfig(n_seed=1000, seed=seed))
            for seed in (1, 7)
        ]:
            assert len(catalog) == catalog.stats.count == 1000
            assert np.array_equal(catalog.poles, lattice_10x3.poles)
            assert np.array_equal(catalog.residuals, lattice_10x3.residuals)
            assert catalog.profile_fingerprint == lattice_10x3.profile_fingerprint

    def test_superlattice_keeps_pole_the_lockstep_misses(self, lattice_10x3):
        kappa = 0.8735761254422701 - 0.020968582046550166j
        assert len(lattice_10x3) == 1000
        assert np.min(np.abs(lattice_10x3.poles - kappa)) <= 1e-12 * abs(kappa)

    @pytest.mark.parametrize("name, zeros", [("lattice_10x3", 5), ("lattice_8x3", 4)])
    def test_superlattice_keeps_its_sub_barrier_miniband(self, name, zeros, request):
        # the miniband at 0.12-0.18 eV, a few meV wide, which a sweep walking
        # one pole spacing at a time stepped over
        catalog = request.getfixturevalue(name)
        profile = LATTICE_10X3 if name == "lattice_10x3" else LATTICE_8X3
        poles = catalog.poles
        inside = (np.abs(poles.real - 0.51) <= 0.06) & (poles.imag >= -0.008)
        counted = _zero_count(profile, 0.51, 0.06, -0.004, 0.004)
        assert np.count_nonzero(inside) == counted == zeros
        v_top = profile.barrier_height
        energies = np.linspace(v_top / 2000, v_top, 2000)
        k = np.sqrt(energies / profile.units.inv_mass_coeff)
        amp = expansion_t(profile, k, catalog, residues(profile, catalog), len(catalog))
        exact = transmission_coefficient(profile, energies)
        assert np.max(np.abs(np.abs(amp) ** 2 - exact)) <= 1e-2


class TestMirrorPoles:
    def test_mirrors_are_zeros_of_t22(self, preset_data):
        for data in preset_data.values():
            catalog = data.catalog
            kappas = -np.conj(catalog.poles)[:10]
            gates = residual_gate(catalog.length, kappas)
            for kappa, gate in zip(kappas, gates):
                assert abs(t22(data.profile, complex(kappa))) <= gate


def breit_wigner_seeds(profile, e_max, grid_points=2000, prominence=0.05):
    """Half-width-at-half-maximum seeds from peaks of T(E).

    Independent regime-I cross-check of the sweep: each returned seed is
    ``k(E_peak) - i * (k-space half-width)`` for a transmission peak whose
    prominence exceeds ``prominence * max(T)``.  Used by ``TestBreitWignerSeeds``.
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


class TestBreitWignerSeeds:
    def test_db_single_seed_matches_sweep(self, db_data):
        seeds = breit_wigner_seeds(DB, 0.23)
        assert len(seeds) == 1
        refined = _newton_lockstep([seeds[0]], DB, Counter())[0]
        assert np.min(np.abs(db_data.catalog.poles - refined)) <= 1e-6

    def test_qb_triplet_seeds(self, qb_data):
        seeds = breit_wigner_seeds(QB, 0.23)
        assert len(seeds) == 3
        for seed in seeds:
            refined = _newton_lockstep([seed], QB, Counter())[0]
            assert np.min(np.abs(qb_data.catalog.poles - refined)) <= 1e-6

    def test_zero_potential_empty(self):
        assert breit_wigner_seeds(FREE, 0.23) == []


def _save(data, path):
    rset = data.residues
    save_catalog(data.catalog, path, residues=rset.residues, u0=rset.u0, u_l=rset.u_l)


class TestCatalogData:
    """A catalog refuses what no sweep writes."""

    @pytest.mark.parametrize("field", ["poles", "residuals"])
    def test_non_finite_value_rejected(self, sb_data, field):
        values = np.array(getattr(sb_data.catalog, field))
        values[3] = math.nan if field == "residuals" else complex(0.5, math.inf)
        with pytest.raises(ValueError, match=f"PoleCatalog.{field} holds a non-finite value"):
            dataclasses.replace(sb_data.catalog, **{field: values})

    def test_unequal_lengths_rejected(self, sb_data):
        catalog = sb_data.catalog
        with pytest.raises(ValueError, match=rf"residuals has {len(catalog) - 1} entries, "
                                             rf"poles has {len(catalog)}"):
            dataclasses.replace(catalog, residuals=catalog.residuals[:-1])


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, db_data):
        path = tmp_path / "cat.csv"
        _save(db_data, path)
        loaded, _ = load_catalog(path)
        assert np.array_equal(loaded.poles, db_data.catalog.poles)
        assert np.array_equal(loaded.residuals, db_data.catalog.residuals)
        assert loaded.profile_fingerprint == db_data.catalog.profile_fingerprint
        assert loaded.config == db_data.catalog.config
        assert loaded.length == db_data.catalog.length
        assert loaded.stats is None and db_data.catalog.stats is not None

    def test_round_trip_with_residues(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        loaded, extras = load_catalog(path)
        assert np.array_equal(loaded.poles, sb_data.catalog.poles)
        rset = sb_data.residues
        assert np.array_equal(extras["residues"], rset.residues)
        assert np.array_equal(extras["u0"], rset.u0)
        assert np.array_equal(extras["u_l"], rset.u_l)

    def test_rejects_row_count_mismatch(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="rows"):
            load_catalog(path)
        path.write_text("".join(line for line in lines if not line.startswith("# rows")))
        with pytest.raises(ValueError, match="rows"):
            load_catalog(path)

    def test_rejects_file_cut_inside_a_row(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        text = path.read_text()
        # cut inside the last number, which alone would parse to another value
        path.write_text(text[: text.rindex("e") - 3])
        with pytest.raises(ValueError, match="cut inside"):
            load_catalog(path)
        lines = text.splitlines(keepends=True)
        lines[-2] = lines[-2][: lines[-2].rindex(",")] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*columns changed"):
            load_catalog(path)

    def test_rejects_rows_all_short(self, tmp_path, sb_data):
        # every row one field short, so no row differs from the first
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(
            line if line.startswith("#") else line[: line.rindex(",")] + "\n"
            for line in lines
        ))
        with pytest.raises(ValueError, match="rows have 9 fields, not 10"):
            load_catalog(path)

    def test_rejects_catalog_without_rows(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        head = [l for l in path.read_text().splitlines(keepends=True) if l.startswith("#")]
        path.write_text("".join(l.replace(f"# rows: {len(sb_data.catalog)}", "# rows: 0")
                                for l in head))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="0 rows read, header says 0"):
                load_catalog(path)

    @pytest.mark.parametrize("key", ["fingerprint", "length_nm", "config"])
    def test_rejects_missing_header_line_naming_the_file(self, tmp_path, sb_data, key):
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith(f"# {key}:")))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no header line for {key}$"):
            load_catalog(path)

    def test_rejects_unknown_or_missing_config_key(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        text = path.read_text()
        config_line = next(l for l in text.splitlines() if l.startswith("# config:"))
        for changed in (
            config_line + ";bogus=1",
            config_line + ";max_random_attempts=1000",
            config_line + ";regime2_subdivision=20",
            # the seed an earlier format wrote is unknown now
            config_line + ";seed=0",
            config_line.replace("n_seed", "seed"),
        ):
            path.write_text(text.replace(config_line, changed))
            with pytest.raises(ValueError, match="config keys"):
                load_catalog(path)

    @pytest.mark.parametrize("column", [1, 4], ids=["pole", "residue"])
    def test_nan_value_gets_the_checksum_message(self, tmp_path, sb_data, column):
        # the checksum is compared before the catalog refuses the value
        path = tmp_path / "cat.csv"
        _save(sb_data, path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[-1].split(",")
        fields[column] = "nan"
        lines[-1] = ",".join(fields)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checksum does not match"):
            load_catalog(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("# not a catalog\n1,2,3\n")
        with pytest.raises(ValueError):
            load_catalog(path)


def test_n_seed_below_2_rejected():
    with pytest.raises(ValueError, match="n_seed must be >= 2"):
        PoleSearchConfig(n_seed=1)


def test_failed_atomic_write_leaves_target_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(poles.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_text_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_unresolved_box_count_refused(monkeypatch):
    monkeypatch.setattr(poles, "_ARG_MAX_POINTS", 1)
    with pytest.raises(IncompleteCatalogError, match="zero count of the sweep box is not resolved"):
        sweep_poles(SB, PoleSearchConfig(n_seed=60))


def test_fingerprint_sensitivity():
    cfg = PoleSearchConfig(n_seed=100)
    base = catalog_fingerprint(SB, cfg)
    assert catalog_fingerprint(DB, cfg) != base
    assert catalog_fingerprint(SB, PoleSearchConfig(n_seed=101)) != base
    assert catalog_fingerprint(SB, cfg) == base
    # a height of -0.0 is 0.0: equal profiles share one fingerprint
    assert catalog_fingerprint(PotentialProfile(((8.0, 0.23), (1.0, -0.0))), cfg) == (
        catalog_fingerprint(PotentialProfile(((8.0, 0.23), (1.0, 0.0))), cfg)
    )
    # the sweep is deterministic: the seed is in no fingerprint, file or equality
    for seed in (0, 1, 7):
        seeded = PoleSearchConfig(n_seed=100, seed=seed)
        assert catalog_fingerprint(SB, seeded) == base
        assert seeded.fingerprint_key() == "n_seed=100"
        assert seeded == cfg


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10_000), st.floats(2.0, 50.0))
def test_asymptotic_seed_formula(n, length):
    s = asymptotic_seed(n, length)
    assert s.real == pytest.approx(n * math.pi / length)
    assert s.imag == pytest.approx(-2.0 * math.log(n) / length)
