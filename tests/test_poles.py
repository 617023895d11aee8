import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelwave.poles import (
    AnchorFailureError,
    DivergenceError,
    IndexTooSmallError,
    PoleSearchConfig,
    asymptotic_seed,
    breit_wigner_seeds,
    catalog_fingerprint,
    load_catalog,
    mirror_poles,
    newton_step_sequence,
    residual_gate,
    save_catalog,
    sweep_poles,
)
from tunnelwave.poles import _newton_lockstep, _try_rectangle, _zero_count
from tunnelwave.potential import PotentialProfile, t22, t22_with_prime
from tunnelwave.presets import preset_profile

SB = preset_profile("sb")
DB = preset_profile("db")
QB = preset_profile("qb")
FREE = PotentialProfile(((8.0, 0.0),))
# ten 3 nm barriers of 0.23 eV with 3 nm wells
LATTICE_10X3 = PotentialProfile(tuple([(3.0, 0.23), (3.0, 0.0)] * 9 + [(3.0, 0.23)]))


@pytest.fixture(scope="module")
def lattice_10x3():
    return sweep_poles(LATTICE_10X3, PoleSearchConfig(n_seed=1000))


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


class TestNewton:
    def test_fixed_point_at_exact_pole(self):
        kappa = 0.7151328825520719 - 0.06423768440198004j
        out = newton_step_sequence(kappa, SB)
        assert abs(out - kappa) <= 1e-12

    def test_converges_to_sb_reference_resonance(self):
        out = newton_step_sequence(0.71 - 0.13j, SB)
        units = SB.units
        energy = units.energy_of_wavenumber(out)
        assert energy.real == pytest.approx(0.2885, abs=1e-3)
        assert -2.0 * energy.imag == pytest.approx(0.1045, abs=1e-3)

    def test_upper_half_plane_diverges(self):
        with pytest.raises(DivergenceError):
            newton_step_sequence(0.5 + 2.0j, SB, PoleSearchConfig(max_newton_iters=40))

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            newton_step_sequence(0.0, SB)


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
            assert np.min(np.abs(np.diff(poles))) >= data.catalog.config.dedup_tol

    def test_residuals_reverified_against_gate(self, preset_data):
        for data in preset_data.values():
            catalog = data.catalog
            for kappa in catalog.poles[:: max(1, len(catalog) // 50)]:
                gate = residual_gate(catalog.config, catalog.length, complex(kappa))
                assert abs(t22(data.profile, complex(kappa))) <= gate

    def test_shallow_pole_residuals_meet_plain_tolerance(self, preset_data):
        # the depth-aware gate reduces to residual_tol for beta L <= ~8.8,
        # which covers every pole that shapes T(E) below a few barrier heights
        for data in preset_data.values():
            catalog = data.catalog
            shallow = -catalog.poles.imag * catalog.length <= 8.8
            assert np.count_nonzero(shallow) >= 10
            assert np.all(
                catalog.residuals[shallow] <= catalog.config.residual_tol
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

    def test_anchor_failure_surfaces(self):
        bad = PoleSearchConfig(n_seed=5000, max_newton_iters=1)
        with pytest.raises(AnchorFailureError):
            sweep_poles(SB, bad)

    def test_lockstep_retires_unevaluable_seeds_alone(self):
        k_branch = math.sqrt(0.23 / SB.units.inv_mass_coeff)
        k_overflow = 5.0 - 100.0j
        for bad in (k_branch, k_overflow):
            with pytest.raises(ArithmeticError):
                t22_with_prime(SB, bad)
        good = [asymptotic_seed(n, SB.length) for n in range(2, 12)]
        seeds = good[:4] + [k_branch] + good[4:8] + [k_overflow] + good[8:]
        counts = Counter()
        poles = _newton_lockstep(np.array(seeds), SB, PoleSearchConfig(), counts)
        assert np.isnan(poles[4]) and np.isnan(poles[9])
        for got, seed in zip(np.delete(poles, [4, 9]), good):
            try:
                want = newton_step_sequence(seed, SB)
            except DivergenceError:  # n = 2 leaves the fourth quadrant
                assert np.isnan(got)
            else:
                assert abs(got - want) <= 1e-12 * abs(want)
        assert counts["newton"] >= len(seeds)


class TestZeroCountCertificate:
    SB_FIRST = 0.7151328825520719 - 0.06423768440198004j

    def thin_rectangle(self):
        # the first regime-2 rectangle the sb sweep tries, just below its
        # lowest pole: pi / (20 L) wide, from the real axis down to 2 beta
        width = math.pi / SB.length / PoleSearchConfig().regime2_subdivision
        k = self.SB_FIRST
        return dict(re_c=k.real - width, half_re=0.5 * width, im_c=k.imag, half_im=-k.imag)

    def test_one_zero_around_first_sb_pole(self):
        k = self.SB_FIRST
        assert _zero_count(SB, k.real, 0.05, k.imag, 0.03) == 1

    def test_three_zeros_around_qb_triplet(self):
        # the 0.1199 / 0.1309 / 0.1450 eV triplet sits at Re k 0.459-0.505
        assert _zero_count(QB, 0.482, 0.032, -0.01, 0.01) == 3

    def test_thin_regime2_rectangle_certified_empty(self):
        assert _zero_count(SB, **self.thin_rectangle()) == 0

    def test_branch_point_on_boundary_is_inconclusive(self):
        k_branch = math.sqrt(0.23 / SB.units.inv_mass_coeff)
        # top-left corner at the branch point k = sqrt(V/c); the bisection keeps
        # the inconclusive corner half at every depth and finds no pole
        rect = dict(re_c=k_branch + 0.01, half_re=0.01, im_c=-0.01, half_im=0.01)
        assert _zero_count(SB, **rect) is None
        seed = complex(rect["re_c"], rect["im_c"])
        counts = Counter()
        assert _try_rectangle(
            SB, PoleSearchConfig(), **rect, first_seed=seed, counts=counts
        ) == (None, "unresolved")
        assert counts["newton"] > 0

    def test_certified_rectangle_is_empty(self):
        rect = self.thin_rectangle()
        seed = complex(rect["re_c"], rect["im_c"])
        assert _try_rectangle(
            SB, PoleSearchConfig(), **rect, first_seed=seed, counts=Counter()
        ) == (None, "empty")

    def test_diverging_seed_bisected_to_its_pole(self, sb_data):
        seed = 0.5 + 2.0j
        with pytest.raises(DivergenceError):
            newton_step_sequence(seed, SB)
        # the pole lies in the left half, away from the shared edge
        k = self.SB_FIRST
        rect = dict(re_c=k.real + 0.01, half_re=0.05, im_c=k.imag, half_im=0.03)
        pole, outcome = _try_rectangle(
            SB, PoleSearchConfig(), **rect, first_seed=seed, counts=Counter()
        )
        assert outcome == "bisected"
        assert abs(pole - sb_data.catalog.poles[0]) <= 1e-12 * abs(pole)

    def test_default_sweeps_need_no_bisection(self, preset_data):
        for name, rectangles, hits, empty in (
            ("sb", 1046, 999, 47), ("db", 1077, 999, 78), ("qb", 4126, 3999, 127),
        ):
            stats = preset_data[name].catalog.stats
            assert (stats.rectangles, stats.seed_hits) == (rectangles, hits)
            assert stats.certified_empty == empty
            assert stats.bisected == stats.unresolved == 0

    def test_superlattice_catalog_independent_of_seed(self, lattice_10x3):
        # three rectangles hold a pole that neither the lockstep batch nor the
        # rectangle's own Newton seed reaches, and the bisection finds each the
        # same way every time
        for catalog in [lattice_10x3] + [
            sweep_poles(LATTICE_10X3, PoleSearchConfig(n_seed=1000, seed=seed))
            for seed in (1, 7)
        ]:
            assert len(catalog) == 995
            assert (catalog.stats.bisected, catalog.stats.unresolved) == (3, 0)
            assert np.array_equal(catalog.poles, lattice_10x3.poles)
            assert np.array_equal(catalog.residuals, lattice_10x3.residuals)

    def test_superlattice_keeps_pole_the_lockstep_misses(self, lattice_10x3):
        # the lockstep batch misses this pole while a neighbouring seed's pole
        # lies in its rectangle; only the pole of the rectangle's own index
        # may be taken from the batch
        kappa = 0.8735761254422701 - 0.020968582046550166j
        assert len(lattice_10x3) == 995
        assert np.min(np.abs(lattice_10x3.poles - kappa)) <= 1e-12 * abs(kappa)

    def test_default_sweep_newton_iterations(self, preset_data):
        for name, iterations, lockstep in (
            ("sb", 6323, 997), ("db", 7251, 993), ("qb", 36720, 3982),
        ):
            stats = preset_data[name].catalog.stats
            assert stats.newton_iterations == iterations
            assert stats.lockstep_hits == lockstep <= stats.seed_hits
            assert f"{iterations} Newton iterations" in stats.summary()
            assert f"({lockstep} lockstep)" in stats.summary()


class TestMirrorPoles:
    def test_definition(self, sb_data):
        mirrors = mirror_poles(sb_data.catalog)
        assert np.allclose(mirrors, -np.conj(sb_data.catalog.poles))

    def test_mirrors_are_zeros_of_t22(self, preset_data):
        for data in preset_data.values():
            catalog = data.catalog
            for kappa in mirror_poles(catalog)[:10]:
                gate = residual_gate(catalog.config, catalog.length, complex(kappa))
                assert abs(t22(data.profile, complex(kappa))) <= gate

    def test_empty_catalog(self, sb_data):
        import dataclasses

        empty = dataclasses.replace(
            sb_data.catalog,
            poles=np.array([], dtype=complex),
            residuals=np.array([], dtype=float),
        )
        assert len(mirror_poles(empty)) == 0


class TestBreitWignerSeeds:
    def test_db_single_seed_matches_sweep(self, db_data):
        seeds = breit_wigner_seeds(DB, 0.23)
        assert len(seeds) == 1
        refined = newton_step_sequence(seeds[0], DB, db_data.catalog.config)
        assert np.min(np.abs(db_data.catalog.poles - refined)) <= 1e-6

    def test_qb_triplet_seeds(self, qb_data):
        seeds = breit_wigner_seeds(QB, 0.23)
        assert len(seeds) == 3
        for seed in seeds:
            refined = newton_step_sequence(seed, QB, qb_data.catalog.config)
            assert np.min(np.abs(qb_data.catalog.poles - refined)) <= 1e-6

    def test_zero_potential_empty(self):
        assert breit_wigner_seeds(FREE, 0.23) == []


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, db_data):
        path = tmp_path / "cat.csv"
        save_catalog(db_data.catalog, path)
        loaded, extras = load_catalog(path)
        assert extras is None
        assert np.array_equal(loaded.poles, db_data.catalog.poles)
        assert np.array_equal(loaded.residuals, db_data.catalog.residuals)
        assert loaded.profile_fingerprint == db_data.catalog.profile_fingerprint
        assert loaded.config == db_data.catalog.config
        assert loaded.length == db_data.catalog.length
        assert loaded.stats is None and db_data.catalog.stats is not None

    def test_round_trip_with_residues(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        rset = sb_data.residues
        save_catalog(
            sb_data.catalog, path, residues=rset.residues, u0=rset.u0, u_l=rset.u_l
        )
        loaded, extras = load_catalog(path)
        assert np.array_equal(loaded.poles, sb_data.catalog.poles)
        assert np.array_equal(extras["residues"], rset.residues)
        assert np.array_equal(extras["u0"], rset.u0)
        assert np.array_equal(extras["u_l"], rset.u_l)

    def test_rejects_row_count_mismatch(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        save_catalog(sb_data.catalog, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="rows"):
            load_catalog(path)
        path.write_text("".join(line for line in lines if not line.startswith("# rows")))
        with pytest.raises(ValueError, match="rows"):
            load_catalog(path)

    def test_rejects_file_cut_inside_a_row(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        save_catalog(sb_data.catalog, path)
        text = path.read_text()
        # cut inside the last number, which alone would parse to another value
        path.write_text(text[: text.rindex("e") - 3])
        with pytest.raises(ValueError, match="cut inside"):
            load_catalog(path)
        lines = text.splitlines(keepends=True)
        lines[-2] = lines[-2][: lines[-2].rindex(",")] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="fields"):
            load_catalog(path)

    def test_rejects_unknown_or_missing_config_key(self, tmp_path, sb_data):
        path = tmp_path / "cat.csv"
        save_catalog(sb_data.catalog, path)
        text = path.read_text()
        config_line = next(l for l in text.splitlines() if l.startswith("# config:"))
        for changed in (
            config_line + ";bogus=1",
            config_line + ";max_random_attempts=1000",
            config_line.replace(";seed=0", ""),
        ):
            path.write_text(text.replace(config_line, changed))
            with pytest.raises(ValueError, match="config keys"):
                load_catalog(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("# not a catalog\n1,2,3\n")
        with pytest.raises(ValueError):
            load_catalog(path)


def test_fingerprint_sensitivity():
    cfg = PoleSearchConfig(n_seed=100)
    base = catalog_fingerprint(SB, cfg)
    assert catalog_fingerprint(DB, cfg) != base
    assert catalog_fingerprint(SB, PoleSearchConfig(n_seed=101)) != base
    assert catalog_fingerprint(SB, PoleSearchConfig(n_seed=100, seed=1)) != base
    assert catalog_fingerprint(SB, cfg) == base


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10_000), st.floats(2.0, 50.0))
def test_asymptotic_seed_formula(n, length):
    s = asymptotic_seed(n, length)
    assert s.real == pytest.approx(n * math.pi / length)
    assert s.imag == pytest.approx(-2.0 * math.log(n) / length)
