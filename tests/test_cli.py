import dataclasses
import hashlib
import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelwave import cli
from tunnelwave.cli import main, parse_distance, parse_profile_file
from tunnelwave.evolution import NonAsymptoticError


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    header, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            header[key.strip()] = val.strip()
        elif line:
            rows.append([float(v) for v in line.split(",")])
    cols = header["columns"].split(",")
    data = np.asarray(rows)
    return header, {c: data[:, i] for i, c in enumerate(cols)}


def assert_nothing_written(out):
    assert not (out / "cache").exists()
    assert not list(out.glob("*.csv"))


def no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


@pytest.fixture(scope="module")
def sb_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sbrun")
    assert run(["poles", "--preset", "sb", "--nseed", "120", "--out", out]) == 0
    return out


class TestParsing:
    def test_distance_multiples(self):
        assert parse_distance("2L", 8.0) == 16.0
        assert parse_distance("2e5L", 8.0) == 2e5 * 8.0
        assert parse_distance("12.5", 8.0) == 12.5

    def test_profile_file(self, tmp_path):
        cfg = tmp_path / "db.cfg"
        cfg.write_text(
            "# double barrier\n"
            "mass_ratio = 0.067\n"
            "layer = 5.0 0.23\n"
            "layer = 5.0 0.0\n"
            "layer = 5.0 0.23\n"
            "e0 = 0.08\n"
        )
        profile, extras = parse_profile_file(cfg)
        assert profile.layers == ((5.0, 0.23), (5.0, 0.0), (5.0, 0.23))
        assert extras["e0"] == 0.08

    def test_bad_profile_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("layer 5.0\n")
        with pytest.raises(ValueError):
            parse_profile_file(cfg)
        cfg.write_text("layer = 8.0 0.23\nsigmaa = 0.9\n")
        with pytest.raises(ValueError, match="sigmaa"):
            parse_profile_file(cfg)
        assert run(["poles", "--config", cfg, "--out", tmp_path / "typo"]) == 1

    @pytest.mark.parametrize("layer", ["8.0", "8.0 0.23 1.0"])
    def test_layer_needs_width_and_height(self, layer, tmp_path, capsys):
        cfg = tmp_path / "arity.cfg"
        cfg.write_text(f"mass_ratio = 0.067\nlayer = {layer}\n")
        out = tmp_path / "arity"
        assert run(["poles", "--config", cfg, "--nseed", "60", "--out", out]) == 1
        assert "layer needs 'width height'" in capsys.readouterr().err
        assert not out.exists()


class TestPolesCommand:
    def test_reference_first_row(self, sb_run, capsys):
        header, cols = read_csv(sb_run / "poles_sb.csv")
        assert header["units"] == "nm fs eV"
        assert "fingerprint" in header
        assert cols["position_eV"][0] == pytest.approx(0.2885, abs=1e-3)
        assert cols["width_eV"][0] == pytest.approx(0.1045, abs=1e-3)

    def test_cache_created_and_reused(self, sb_run):
        cache = list((sb_run / "cache").glob("poles_*.csv"))
        assert len(cache) == 1
        before = cache[0].read_bytes()
        assert run(["poles", "--preset", "sb", "--nseed", "120", "--out", sb_run]) == 0
        assert cache[0].read_bytes() == before

    def test_stale_cache_rebuilt_not_reused(self, tmp_path):
        out = tmp_path / "stale"
        assert run(["poles", "--preset", "sb", "--nseed", "60", "--out", out]) == 0
        assert len(list((out / "cache").glob("poles_*.csv"))) == 1
        # different anchor index -> different fingerprint -> fresh catalog file
        assert run(["poles", "--preset", "sb", "--nseed", "61", "--out", out]) == 0
        assert len(list((out / "cache").glob("poles_*.csv"))) == 2

    def test_truncated_cache_rebuilt(self, tmp_path, capsys):
        out = tmp_path / "cut"
        args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
        assert run(args) == 0
        (cache,) = (out / "cache").glob("poles_*.csv")
        fresh = cache.read_bytes()
        text = fresh.decode()
        cache.write_text(text[: text.index("\n", len(text) // 2) + 16])
        capsys.readouterr()
        assert run(args) == 0
        assert "zeros in box" in capsys.readouterr().out
        assert cache.read_bytes() == fresh

    def test_cache_with_one_changed_digit_rebuilt(self, tmp_path, capsys):
        out = tmp_path / "digit"
        args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
        assert run(args) == 0
        (cache,) = (out / "cache").glob("poles_*.csv")
        fresh = cache.read_bytes()
        # Re kappa_2 0.947693... -> 0.947613...: still a well-formed catalog
        changed = fresh.replace(b"\n2,9.476935", b"\n2,9.476135", 1)
        assert changed != fresh
        cache.write_bytes(changed)
        with pytest.raises(ValueError, match="checksum"):
            cli.load_catalog(cache)
        capsys.readouterr()
        assert run(args) == 0
        assert "zeros in box" in capsys.readouterr().out
        assert cache.read_bytes() == fresh

    def test_cache_cut_at_row_boundary_rebuilt(self, tmp_path, capsys):
        out = tmp_path / "rowcut"
        args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
        assert run(args) == 0
        (cache,) = (out / "cache").glob("poles_*.csv")
        fresh = cache.read_bytes()
        lines = fresh.decode().splitlines(keepends=True)
        n_header = sum(line.startswith("#") for line in lines)
        cache.write_text("".join(lines[: n_header + 30]))
        capsys.readouterr()
        assert run(args) == 0
        assert "zeros in box" in capsys.readouterr().out
        assert cache.read_bytes() == fresh

    def test_cache_from_an_earlier_catalog_revision_not_opened(
        self, tmp_path, capsys, monkeypatch
    ):
        import hashlib

        from tunnelwave.presets import preset_profile

        out = tmp_path / "revision"
        args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
        assert run(args) == 0
        (cache,) = (out / "cache").glob("poles_*.csv")
        fresh = cache.read_bytes()
        text = fresh.decode()
        config_key = next(
            line for line in text.splitlines() if line.startswith("# config:")
        ).partition(":")[2].strip()
        # the fingerprint of the same profile and config before the catalog
        # revision entered the hash: a valid cache of that era sits under it
        key = preset_profile("sb").fingerprint_key() + "|" + config_key
        old_fp = hashlib.sha256(key.encode()).hexdigest()[:16]
        new_fp = cache.name[len("poles_") : -len(".csv")]
        assert old_fp != new_fp
        old = cache.with_name(f"poles_{old_fp}.csv")
        old.write_text(text.replace(f"# fingerprint: {new_fp}", f"# fingerprint: {old_fp}"))
        cache.unlink()
        opened, load_catalog = [], cli.load_catalog
        monkeypatch.setattr(
            cli, "load_catalog", lambda path: opened.append(path) or load_catalog(path)
        )
        capsys.readouterr()
        assert run(args) == 0
        assert "zeros in box" in capsys.readouterr().out
        assert old not in opened and opened == [cache]
        assert cache.read_bytes() == fresh

    def test_cache_with_unknown_config_key_rebuilt(self, tmp_path, capsys):
        out = tmp_path / "badkey"
        args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
        assert run(args) == 0
        (cache,) = (out / "cache").glob("poles_*.csv")
        fresh = cache.read_bytes()
        lines = fresh.decode().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith("# config:"))
        lines[i] = lines[i].rstrip("\n") + ";bogus=1\n"
        cache.write_text("".join(lines))
        capsys.readouterr()
        assert run(args) == 0
        assert "zeros in box" in capsys.readouterr().out
        assert cache.read_bytes() == fresh

    def test_cache_without_residue_columns_rebuilt(self, tmp_path, capsys):
        out = tmp_path / "noresidues"
        args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
        assert run(args) == 0
        (cache,) = (out / "cache").glob("poles_*.csv")
        fresh = cache.read_bytes()
        cache.write_text("".join(
            line.replace(",re_r,im_r,re_u0,im_u0,re_uL,im_uL", "")
            if line.startswith("#") else ",".join(line.split(",")[:4]) + "\n"
            for line in fresh.decode().splitlines(keepends=True)
        ))
        with pytest.raises(ValueError, match="columns"):
            cli.load_catalog(cache)
        capsys.readouterr()
        assert run(args) == 0
        assert "zeros in box" in capsys.readouterr().out
        assert cache.read_bytes() == fresh

    @staticmethod
    def old_cache_rebuilt(out, capsys, old_key, revision):
        """Write the ``--nseed 60`` sb catalog as a cache of an earlier format
        would hold it, with config line ``old_key`` and the fingerprint of
        ``revision``, under both that fingerprint's name and the current one;
        the CLI must rebuild the current cache byte-identical and leave the
        old one alone."""
        from tunnelwave.presets import preset_profile

        args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
        assert run(args) == 0
        (cache,) = (out / "cache").glob("poles_*.csv")
        fresh = cache.read_bytes()
        text = fresh.decode()
        config_key = next(
            line for line in text.splitlines() if line.startswith("# config:")
        ).partition(":")[2].strip()
        key = f"{preset_profile('sb').fingerprint_key()}|{old_key}|revision={revision}"
        old_fp = hashlib.sha256(key.encode()).hexdigest()[:16]
        new_fp = cache.name[len("poles_") : -len(".csv")]
        assert old_fp != new_fp
        old_text = text.replace(f"# fingerprint: {new_fp}", f"# fingerprint: {old_fp}")
        old_text = old_text.replace(f"# config: {config_key}", f"# config: {old_key}")
        assert old_text.count(old_key) == 1
        old = cache.with_name(f"poles_{old_fp}.csv")
        old.write_text(old_text)
        # also under the current name, where its config cannot be read
        cache.write_text(old_text)
        capsys.readouterr()
        assert run(args) == 0
        assert "zeros in box" in capsys.readouterr().out
        assert cache.read_bytes() == fresh
        assert old.read_text() == old_text

    def test_cache_written_at_catalog_revision_2_rebuilt(self, tmp_path, capsys):
        # the config as revision 2 wrote it, with the subdivision of its
        # second sweep regime and the Newton and dedup tolerances
        old_key = (
            "n_seed=60;newton_tol=1e-12;residual_tol=1e-10;max_newton_iters=100;"
            "regime2_subdivision=20;dedup_tol=1e-06;seed=0"
        )
        self.old_cache_rebuilt(tmp_path / "revision2", capsys, old_key, 2)

    def test_cache_written_with_tolerances_in_the_config_rebuilt(self, tmp_path, capsys):
        # revision 3 as it was written while the tolerances were config fields
        old_key = (
            "n_seed=60;newton_tol=1e-12;residual_tol=1e-10;max_newton_iters=100;"
            "dedup_tol=1e-06;seed=0"
        )
        self.old_cache_rebuilt(tmp_path / "tolerances", capsys, old_key, 3)

    def test_cache_written_with_seed_in_the_config_rebuilt(self, tmp_path, capsys):
        # revision 3 as it was written while the inert seed keyed the cache
        self.old_cache_rebuilt(tmp_path / "seed", capsys, "n_seed=60;seed=0", 3)

    def test_cache_of_catalog_revision_3_rebuilt(self, tmp_path, capsys):
        # revision 3's residue columns came from the layer integrals of u^2
        self.old_cache_rebuilt(tmp_path / "revision3", capsys, "n_seed=60", 3)

    def test_preset_definitions_match_reference_systems(self):
        from tunnelwave.presets import preset_profile

        assert preset_profile("sb").layers == ((8.0, 0.23),)
        assert preset_profile("db").layers == ((5.0, 0.23), (5.0, 0.0), (5.0, 0.23))
        assert preset_profile("qb").layers == (
            (3.0, 0.23), (3.0, 0.0), (5.0, 0.23), (3.0, 0.0),
            (5.0, 0.23), (3.0, 0.0), (3.0, 0.23),
        )
        for name in ("sb", "db", "qb"):
            assert preset_profile(name).mass_ratio == 0.067

    def test_unknown_preset_name_refused(self):
        from tunnelwave.presets import preset_profile

        with pytest.raises(KeyError, match="unknown preset 'xx'"):
            preset_profile("xx")

    def test_invalid_preset_exits_1_without_files(self, tmp_path):
        out = tmp_path / "never"
        assert run(["poles", "--preset", "zz", "--out", out]) == 1
        assert not out.exists()

    def test_db_reference_row(self, tmp_path):
        out = tmp_path / "db"
        assert run(["poles", "--preset", "db", "--nseed", "60", "--out", out]) == 0
        _, cols = read_csv(out / "poles_db.csv")
        assert cols["position_eV"][0] == pytest.approx(0.0800, abs=1e-3)
        assert cols["width_eV"][0] * 1e3 == pytest.approx(1.028, abs=0.01)

    def test_config_file_equivalent_to_preset(self, tmp_path):
        cfg = tmp_path / "sb.cfg"
        cfg.write_text("mass_ratio = 0.067\nlayer = 8.0 0.23\n")
        out = tmp_path / "out"
        assert run(["poles", "--config", cfg, "--nseed", "80", "--out", out]) == 0
        _, cols = read_csv(out / "poles_custom.csv")
        assert cols["position_eV"][0] == pytest.approx(0.2885, abs=1e-3)

    def test_stack_whose_first_state_ends_small(self, tmp_path):
        # the first resonance's state, grown from u(0) = 1, ends at |u(L)| =
        # 2.5e-4; every pole the sweep certifies gets its residue
        cfg = tmp_path / "thin_thick.cfg"
        cfg.write_text("layer = 1.0 0.4\nlayer = 3.0 0.0\nlayer = 14.0 0.4\nmass_ratio = 0.067\n")
        out = tmp_path / "out"
        assert run(["poles", "--config", cfg, "--nseed", "300", "--out", out]) == 0
        _, cols = read_csv(out / "poles_custom.csv")
        assert len(cols["position_eV"]) == 300


class TestExitCodes:
    def test_unknown_flag_and_missing_command_exit_1(self, capsys):
        assert run(["poles", "--preset", "sb", "--bogus"]) == 1
        assert run([]) == 1

    @pytest.mark.parametrize("args", [
        ["spectrum", "--points", "0"],
        ["evolve", "--xd", "2L", "--tpoints", "0"],
        ["reconstruct", "--xd", "2e5L", "--eta-points", "0"],
    ])
    def test_empty_grid_exits_1_before_any_sweep(self, args, tmp_path, capsys):
        out = tmp_path / "empty"
        assert run(args + ["--preset", "sb", "--nseed", "60", "--out", out]) == 1
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["evolve", "--xd", "2L", "--tmax", "0"],
        ["evolve", "--xd", "2L", "--tmax", "-1"],
        ["evolve", "--xd", "0.5L"],
        ["reconstruct", "--xd", "1L"],
        ["reconstruct", "--xd", "0.5L"],
        ["reconstruct", "--xd", "2e5L", "--eta-min", "0"],
        ["reconstruct", "--xd", "2e5L", "--eta-min", "3", "--eta-max", "1"],
        ["reconstruct", "--xd", "2e5L", "--t0-scales", "0,1"],
        ["reconstruct", "--xd", "2e5L", "--t0-scales=-0.5,1"],
        ["evolve", "--xd", "abc"],
        ["evolve", "--xd", "2L", "--tmax", "abc"],
        ["spectrum", "--poles", "10,0"],
        ["reconstruct", "--xd", "2eL"],
        ["reconstruct", "--xd", "2e5L", "--t0-scales", "1,0.5"],
        ["reconstruct", "--xd", "2e5L", "--eta-points", "1.5"],
        ["spectrum", "--poles", "10,10"],
        ["spectrum", "--poles", "30,10"],
        # the time grid starts at 1e-3 tau_sys
        ["evolve", "--xd", "2L", "--tmax", "1e-3"],
        ["evolve", "--xd", "2L", "--tmax", "1e-300"],
    ])
    def test_bad_times_and_distances_exit_1_before_any_sweep(self, args, tmp_path, capsys):
        out = tmp_path / "bad"
        assert run(args + ["--preset", "sb", "--nseed", "60", "--out", out]) == 1
        assert "error:" in capsys.readouterr().err
        assert_nothing_written(out)

    @pytest.mark.parametrize("value", ["0", "1", "-3", "abc"])
    def test_nseed_below_2_exits_1_before_any_sweep(self, value, tmp_path, capsys):
        out = tmp_path / "nseed"
        assert run(["poles", "--preset", "sb", "--nseed", value, "--out", out]) == 1
        assert "argument --nseed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, option", [
        (["evolve", "--xd", "2L", "--poles", "300"], "--poles"),
        (["reconstruct", "--xd", "2e5L", "--poles", "300"], "--poles"),
        (["validate", "--skip-oracle"], "--skip-oracle"),
    ])
    def test_removed_options_are_unknown(self, args, option, tmp_path, capsys):
        # --nseed sets the catalog the closed form sums; validate runs every
        # criterion
        out = tmp_path / "removed"
        assert run(args + ["--preset", "sb", "--nseed", "60", "--out", out]) == 1
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "layer = inf 0.23",
        "layer = 5.0 inf",
        "layer = nan 0.23",
        "mass_ratio = inf",
        "sigma = inf",
        "x_c = nan",
        "e0 = -inf",
    ])
    def test_non_finite_config_exits_1_before_any_sweep(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"mass_ratio = 0.067\nlayer = 8.0 0.23\n{line}\n")
        out = tmp_path / "nonfinite"
        assert run(["evolve", "--xd", "2L", "--config", cfg, "--out", out]) == 1
        key = line.split("=")[0].strip()
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, first, second", [
        ("mass_ratio", "0.067", "0.5"),
        ("x_c", "-5.0", "-6.0"),
        ("sigma", "0.5", "0.6"),
        ("e0", "0.1", "0.12"),
    ])
    def test_repeated_config_key_exits_1_before_any_sweep(
        self, key, first, second, tmp_path, monkeypatch, capsys
    ):
        # the last value used to win silently
        monkeypatch.setattr(cli, "sweep_poles", no_sweep)
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"layer = 8.0 0.23\n{key} = {first}\n{key} = {second}\n")
        out = tmp_path / "twice"
        assert run(["poles", "--config", cfg, "--nseed", "60", "--out", out]) == 1
        assert f"{cfg}: {key} given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_out_on_a_file_exits_1_before_any_sweep(self, below, tmp_path, monkeypatch, capsys):
        # the sweep ran, then the cache's mkdir raised NotADirectoryError
        monkeypatch.setattr(cli, "sweep_poles", no_sweep)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below if below else afile
        assert run(["poles", "--preset", "sb", "--nseed", "60", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is, or lies under, an existing non-directory" in err
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("args, line", [
        (["evolve", "--xd", "2L", "--tmax", "nan"], ""),
        (["evolve", "--xd", "inf"], ""),
        (["reconstruct", "--xd", "2e5L", "--eta-max", "inf"], ""),
        (["evolve", "--xd", "2L"], "x_c = 5.0"),
        (["evolve", "--xd", "2L"], "x_c = -1.0"),  # validity ratio 1 < 3
        (["evolve", "--xd", "2L"], "e0 = -1.0"),
    ], ids=["tmax-nan", "xd-inf", "eta-max-inf", "x_c-positive", "ratio-1", "e0-negative"])
    def test_bad_number_or_packet_exits_1_before_any_sweep(self, args, line, tmp_path):
        cfg = tmp_path / "sb.cfg"
        cfg.write_text(f"mass_ratio = 0.067\nlayer = 8.0 0.23\n{line}\n")
        out = tmp_path / "bad"
        assert run(args + ["--config", cfg, "--nseed", "60", "--out", out]) == 1
        assert_nothing_written(out)

    @pytest.mark.parametrize("args, flag", [
        (["evolve", "--xd", "2L", "--tmax", "1e308"], "--tmax"),
        (["spectrum", "--poles", "10,99999", "--points", "10"], "pole count 99999"),
        (["reconstruct", "--xd", "1e300L"], "--xd 1e300L"),
    ])
    def test_bound_from_the_catalog_exits_1_after_the_sweep(
        self, args, flag, tmp_path, capsys, recwarn
    ):
        out = tmp_path / "bound"
        assert run(args + ["--preset", "sb", "--nseed", "60", "--out", out]) == 1
        assert flag in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not list(out.glob("*.csv"))

    def test_help_and_version_exit_0(self, capsys):
        assert run(["--version"]) == 0
        assert run(["poles", "--help"]) == 0

    def test_non_pole_in_catalog_exits_2(self, tmp_path, monkeypatch, capsys):
        sweep = cli.sweep_poles

        def sweep_with_a_non_pole(profile, config):
            catalog = sweep(profile, config)
            return dataclasses.replace(
                catalog,
                poles=np.append(catalog.poles, 0.5 - 0.05j),
                residuals=np.append(catalog.residuals, 0.0),
            )

        monkeypatch.setattr(cli, "sweep_poles", sweep_with_a_non_pole)
        out = tmp_path / "nonpole"
        assert run(["poles", "--preset", "sb", "--nseed", "60", "--out", out]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "cache").exists()

    def test_non_asymptotic_slope_exits_2(self, tmp_path, monkeypatch, capsys):
        from tunnelwave import validation

        def not_asymptotic(*args, **kwargs):
            raise NonAsymptoticError("local slope still varies")

        monkeypatch.setattr(validation, "longtime_exponent", not_asymptotic)
        code = run([
            "validate", "--preset", "sb", "--nseed", "400",
            "--out", tmp_path / "slope",
        ])
        assert code == 2
        assert "local slope still varies" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_columns_and_bounds(self, sb_run):
        assert run([
            "spectrum", "--preset", "sb", "--nseed", "120",
            "--poles", "10,100", "--points", "400", "--out", sb_run,
        ]) == 0
        _, cols = read_csv(sb_run / "spectrum_sb.csv")
        assert {"E_over_V", "T_exact", "T_expansion_N10", "re_t_N100"} <= cols.keys()
        assert np.all(cols["T_exact"] >= 0.0) and np.all(cols["T_exact"] <= 1.0)
        err10 = np.max(np.abs(cols["T_expansion_N10"] - cols["T_exact"]))
        err100 = np.max(np.abs(cols["T_expansion_N100"] - cols["T_exact"]))
        assert err100 < err10

    def test_exact_columns_at_the_same_energies(self, tmp_path):
        # the grid holds E = V, a layer branch point
        out = tmp_path / "sbspec"
        assert run([
            "spectrum", "--preset", "sb", "--nseed", "60",
            "--poles", "10", "--points", "50", "--out", out,
        ]) == 0
        _, cols = read_csv(out / "spectrum_sb.csv")
        assert np.any(cols["E_over_V"] == 1.0)
        t_abs2 = cols["re_t_exact"] ** 2 + cols["im_t_exact"] ** 2
        assert np.allclose(np.minimum(t_abs2, 1.0), cols["T_exact"], rtol=1e-13, atol=0)

    def test_header_names_the_pole_counts_without_poles_option(self, tmp_path):
        # without --poles the whole catalog is used, and the header says so
        out = tmp_path / "sbwhole"
        assert run([
            "spectrum", "--preset", "sb", "--nseed", "60", "--points", "10",
            "--out", out,
        ]) == 0
        header, cols = read_csv(out / "spectrum_sb.csv")
        n = int(header["pole_counts"])
        assert n > 0 and f"T_expansion_N{n}" in cols

    def test_deviation_shrinks_with_pole_count(self, tmp_path):
        out = tmp_path / "qbspec"
        assert run([
            "spectrum", "--preset", "qb", "--nseed", "600",
            "--poles", "10,100,600", "--points", "300", "--out", out,
        ]) == 0
        _, cols = read_csv(out / "spectrum_qb.csv")
        errs = [
            np.max(np.abs(cols[f"T_expansion_N{n}"] - cols["T_exact"]))
            for n in (10, 100, 600)
        ]
        assert errs[0] > errs[1] > errs[2]


class TestEvolveCommand:
    def test_oracle_column_matches_analytic(self, sb_run):
        assert run([
            "evolve", "--preset", "sb", "--nseed", "120", "--xd", "2L",
            "--tmax", "5", "--tpoints", "40", "--oracle", "--out", sb_run,
        ]) == 0
        _, cols = read_csv(sb_run / "evolve_sb_2L.csv")
        peak = np.max(cols["rho_oracle"])
        assert np.max(np.abs(cols["rho_analytic"] - cols["rho_oracle"])) <= 2e-2 * peak
        assert np.all(np.abs(cols["t_over_tau"] * 6.299 - cols["t_fs"]) < 0.1)

    def test_oracle_budget_leaves_whole_column_blank(self, tmp_path, capsys):
        # the latest time needs more nodes than the budget, so no point is
        # computed, the base-grid first point included
        out = tmp_path / "budget"
        assert run([
            "evolve", "--preset", "sb", "--nseed", "60", "--xd", "2L",
            "--tmax", "4e5", "--tpoints", "3", "--oracle", "--out", out,
        ]) == 0
        assert "oracle node budget exceeded" in capsys.readouterr().err
        _, cols = read_csv(out / "evolve_sb_2L.csv")
        assert np.all(np.isnan(cols["rho_oracle"]))
        assert np.all(np.isfinite(cols["rho_analytic"]))


class TestReconstructCommand:
    def test_eta_monotone_and_limits(self, sb_run):
        assert run([
            "reconstruct", "--preset", "sb", "--nseed", "120", "--xd", "2e5L",
            "--eta-points", "61", "--t0-scales", "0.05,0.25,1.0", "--out", sb_run,
        ]) == 0
        _, cols = read_csv(sb_run / "reconstruct_sb_2e5L.csv")
        assert np.all(np.diff(cols["eta"]) > 0.0)
        final = np.max(np.abs(cols["zeta_t0_1"] - cols["T_exact"]))
        first = np.max(np.abs(cols["zeta_t0_0.05"] - cols["T_exact"]))
        assert final <= 2e-2
        assert first > final

    def test_repeated_t0_scale_exits_1(self, tmp_path, capsys):
        out = tmp_path / "repeat"
        assert run([
            "reconstruct", "--preset", "sb", "--nseed", "60", "--xd", "2e5L",
            "--eta-points", "11", "--t0-scales", "0.5,0.5", "--out", out,
        ]) == 1
        assert "--t0-scales" in capsys.readouterr().err
        assert not list(out.glob("reconstruct_*.csv"))


class TestOutputNames:
    def test_runs_at_two_distances_keep_both_files(self, tmp_path):
        out = tmp_path / "one"
        for xd in ("2L", "20L"):
            assert run([
                "evolve", "--preset", "sb", "--nseed", "60", "--xd", xd,
                "--tpoints", "5", "--out", out,
            ]) == 0
        for xd in ("2e4L", "2e5L"):
            assert run([
                "reconstruct", "--preset", "sb", "--nseed", "60", "--xd", xd,
                "--eta-points", "11", "--out", out,
            ]) == 0
        names = ["evolve_sb_2L", "evolve_sb_20L", "reconstruct_sb_2e4L", "reconstruct_sb_2e5L"]
        assert sorted(p.stem for p in out.glob("*.csv")) == sorted(names)
        for name in names:
            header, _ = read_csv(out / f"{name}.csv")
            multiple = name.rsplit("_", 1)[1][:-1]
            assert header["x_d_nm"] == repr(float(multiple) * 8.0)

    def test_reproduce_runs_write_distinct_files(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_datasets.py"
        spec = importlib.util.spec_from_file_location("reproduce_datasets", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parser = cli.build_parser()
        names = set()
        for args in module.RUNS:
            parsed = parser.parse_args(args)
            xd = getattr(parsed, "xd", None)
            names.add((parsed.command, parsed.preset, xd and xd.strip()))
        assert len(names) == len(module.RUNS)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run([
                "spectrum", "--preset", "sb", "--nseed", "60",
                "--poles", "10", "--points", "50", "--out", out,
            ]) == 0
        assert (a / "spectrum_sb.csv").read_bytes() == (b / "spectrum_sb.csv").read_bytes()


class TestValidateCommand:
    def test_sb_validation_passes(self, tmp_path, capsys):
        out = tmp_path / "val"
        code = run([
            "validate", "--preset", "sb", "--nseed", "400",
            "--out", out,
        ])
        text = capsys.readouterr().out
        assert "1-pole-values-sb" in text
        assert code == 0, text

    def test_config_file_exits_1_before_any_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "sb.cfg"
        cfg.write_text("mass_ratio = 0.067\nlayer = 8.0 0.23\n")
        out = tmp_path / "valcfg"
        assert run(["validate", "--config", cfg, "--out", out]) == 1
        assert "built-in presets" in capsys.readouterr().err
        assert not out.exists()

    def test_second_run_reads_the_cache(self, tmp_path, capsys):
        args = [
            "validate", "--preset", "sb", "--nseed", "400",
            "--out", tmp_path / "rerun",
        ]
        lines = []
        for _ in range(2):
            assert run(args) == 0
            text = capsys.readouterr().out
            lines.append(next(s for s in text.splitlines() if "1-pole-values-sb" in s))
        assert "sweep not timed" not in lines[0]
        assert lines[1].endswith("catalog from cache (sweep not timed)")

    def test_sweep_seconds_printed_only_over_the_limit(self, sb_data):
        from tunnelwave.validation import SWEEP_TIME_LIMIT_S, check_pole_values

        def check(seconds):
            stats = dataclasses.replace(sb_data.catalog.stats, seconds=seconds)
            catalog = dataclasses.replace(sb_data.catalog, stats=stats)
            return check_pole_values("sb", sb_data.profile, catalog)

        fast, faster = check(12.3), check(0.1)
        assert fast.passed and fast.detail.endswith(" sweep<300s")
        assert faster.detail == fast.detail
        slow = check(SWEEP_TIME_LIMIT_S + 12.3)
        assert not slow.passed
        assert slow.detail.endswith(" sweep 312.3s>=300s")

    def test_oracle_over_its_budget_recorded_as_a_failure(self, sb_data, monkeypatch):
        from tunnelwave import oracle
        from tunnelwave.validation import check_oracle_equivalence

        monkeypatch.setattr(oracle, "_NODE_BUDGET", 1000)
        d = sb_data
        record = check_oracle_equivalence("sb", d.profile, d.catalog, d.residues, d.packet)
        assert record.name == "4-oracle-equivalence-sb" and not record.passed
        assert record.detail.startswith("budget: ")

    def test_db_run_includes_the_lifetime(self, db_data):
        from tunnelwave.validation import run_validation

        d = db_data
        records = run_validation("db", d.profile, d.catalog, d.residues, d.packet)
        assert [r.name for r in records] == [
            f"{c}-db" for c in (
                "1-pole-values", "2-lifetime", "3-expansion", "4-oracle-equivalence",
                "5-longtime-slope", "6-reconstruction", "7-properties", "8-cancellation",
            )
        ]

    def test_tampered_catalog_fails_residual_check(self, tmp_path, capsys):
        out = tmp_path / "tamper"
        assert run([
            "validate", "--preset", "sb", "--nseed", "400",
            "--out", out,
        ]) == 0
        capsys.readouterr()
        cache = next((out / "cache").glob("poles_*.csv"))
        # a wrong pole in a cache whose checksum matches, so that it loads
        lines = [l for l in cache.read_text().splitlines() if not l.startswith("# sha256:")]
        first_row = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        fields = lines[first_row].split(",")
        fields[1] = format(float(fields[1]) + 1e-3, ".17e")
        lines[first_row] = ",".join(fields)
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
        lines.insert(first_row, f"# sha256: {digest}")
        cache.write_text("\n".join(lines) + "\n")
        code = run([
            "validate", "--preset", "sb", "--nseed", "400",
            "--out", out,
        ])
        text = capsys.readouterr().out
        assert code == 2
        assert "FAIL 7-properties-sb" in text


# ordinary values of every number the fuzz draws (None: the key is left
# out); up to two of them are replaced by a non-finite, zero, negative or
# malformed one
ORDINARY = {
    "width": ["8.0", "3.0"],
    "height": ["0.23"],
    "mass_ratio": ["0.067", None],
    "x_c": ["-5.0", "-3.0", None],
    "sigma": ["0.5", None],
    "e0": ["0.08", "0.115", None],
    "xd": ["2L", "2e5L", "30"],
    "tmax": ["2", "20"],
    "eta_min": ["0.2", "1.0"],
    "eta_max": ["3.0"],
}
BAD = ["nan", "inf", "-inf", "0", "-1.0", "-1.0L"]


@pytest.mark.filterwarnings("ignore::tunnelwave.evolution.PacketValidityWarning")
@settings(max_examples=30, deadline=None)
@given(
    command=st.sampled_from(["evolve", "reconstruct"]),
    values=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in ORDINARY.items()}),
    bad=st.dictionaries(st.sampled_from(sorted(ORDINARY)), st.sampled_from(BAD), max_size=2),
    n_layers=st.integers(0, 2),
    unknown_key=st.booleans(),
)
def test_fuzzed_input_exits_0_1_or_2_and_usage_errors_write_nothing(
    command, values, bad, n_layers, unknown_key
):
    v = {**values, **bad}
    lines = [f"layer = {v['width']} {v['height']}"] * n_layers
    lines += [f"{key} = {v[key]}" for key in ("mass_ratio", "x_c", "sigma", "e0")
              if v[key] is not None]
    lines += ["bogus = 1.0"] * unknown_key
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        cfg.write_text("\n".join(lines) + "\n")
        args = [command, "--config", cfg, "--nseed", "60", "--out", out, f"--xd={v['xd']}"]
        if command == "evolve":
            args += [f"--tmax={v['tmax']}", "--tpoints", "20"]
        else:
            args += [f"--eta-min={v['eta_min']}", f"--eta-max={v['eta_max']}",
                     "--eta-points", "11"]
        code = run(args)
        assert code in (0, 1, 2)
        if code == 1:
            assert_nothing_written(out)


@pytest.fixture(scope="module")
def sb60_cache(tmp_path_factory):
    out = tmp_path_factory.mktemp("sb60")
    args = ["poles", "--preset", "sb", "--nseed", "60", "--out", out]
    assert run(args) == 0
    (cache,) = (out / "cache").glob("poles_*.csv")
    return args, cache, cache.read_bytes()


@settings(max_examples=25, deadline=None)
@given(cut=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True),
       byte=st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255)))
def test_cut_or_changed_cache_rebuilt_byte_identical(sb60_cache, cut, where, byte):
    # half the changes write a digit, which often still parses as a number
    args, cache, fresh = sb60_cache
    at = int(where * len(fresh))
    if cut:
        cache.write_bytes(fresh[:at])
    else:
        byte = byte if byte != fresh[at] else (byte + 1) % 256
        cache.write_bytes(fresh[:at] + bytes([byte]) + fresh[at + 1 :])
    assert run(args) == 0
    assert cache.read_bytes() == fresh
