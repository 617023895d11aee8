import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from tunnelwave import oracle
from tunnelwave.evolution import GaussianPacket, free_packet, tau_system, transmitted_packet
from tunnelwave.oracle import (
    NodeBudgetExceededError,
    QuadratureConfig,
    phi0,
    psi_free_quadrature,
    psi_quadrature,
)
from tunnelwave.potential import PotentialProfile, UnitSystem, t22
from tunnelwave.presets import preset_profile
from tunnelwave.validation import ORACLE_WINDOWS

SB = preset_profile("sb")
FREE = PotentialProfile(((8.0, 0.0),))
# 9 nm barriers around a 5 nm well: Gamma_1 ~ 1.7e-5 eV, 60 times narrower than db's
NARROW = PotentialProfile(((9.0, 0.23), (5.0, 0.0), (9.0, 0.23)))
CONVERGED = {"_PHASE_OVERSAMPLING": 32.0}  # eight times the phase density


def on_grid(rule, engine, *args):
    """``engine(*args)`` with the oracle's node-rule constants set as in
    ``rule``: a denser or wider reference grid than its own."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in rule.items():
            patch.setattr(oracle, name, value)
        return engine(*args)


def make_packet(units=SB.units, energy=0.115):
    return GaussianPacket(-5.0, 0.5, units.wavenumber_of_energy(energy), units)


@pytest.fixture(autouse=True)
def cold_leaves():
    # no test depends on which leaves an earlier one memoized
    oracle._leaves.cache_clear()


class TestConfig:
    def test_defaults_valid(self):
        # the node rule is the module's constants; the class only reads them
        cfg = QuadratureConfig()
        assert cfg.window_half_width == oracle._WINDOW_HALF_WIDTH == 12.0
        assert cfg.phase_oversampling == oracle._PHASE_OVERSAMPLING == 4.0
        with pytest.raises(TypeError):
            QuadratureConfig(phase_oversampling=8.0)


class TestPhi0:
    def test_peaked_at_k0(self):
        pk = make_packet()
        ks = np.linspace(pk.k0 - 8 / pk.sigma, pk.k0 + 8 / pk.sigma, 4001)
        mags = np.abs(phi0(pk, ks))
        assert abs(ks[np.argmax(mags)] - pk.k0) <= ks[1] - ks[0]

    def test_parseval(self):
        pk = make_packet()
        ks = np.linspace(pk.k0 - 14 / pk.sigma, pk.k0 + 14 / pk.sigma, 120_001)
        norm = np.trapezoid(np.abs(phi0(pk, ks)) ** 2, ks)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_tail_approximation(self):
        # phi0 = A0 w(iz) with w(iz) ~ 2 exp(z^2) up to the cutoff-tail scale
        pk = make_packet()
        sigma = pk.sigma
        a0 = (2 * math.pi) ** -0.25 * math.sqrt(sigma) / math.sqrt(
            2.0 * math.exp(pk.x_c**2 / (2 * sigma**2))
            * math.sqrt(1.0)  # w(i z0) ~ 2 exp(z0^2) at this validity ratio
        )
        for k in np.linspace(0.0, 2 * pk.k0, 9):
            z = pk.x_c / (2 * sigma) - 1j * (k - pk.k0) * sigma
            target = a0 * 2.0 * np.exp(z * z)
            exact = phi0(pk, k)
            assert abs(exact - target) <= 1.5e-11 * abs(exact)

    @pytest.mark.parametrize("x_c, sigma", [(-2.0, 1.0), (-3.0, 0.5), (-5.0, 0.5), (-20.0, 0.4)])
    def test_against_mpmath(self, x_c, sigma):
        # validity ratios 1, 3, 5 and 25; w(z) = exp(-z^2) erfc(-iz) at 40 digits
        pk = GaussianPacket(x_c, sigma, SB.units.wavenumber_of_energy(0.115), SB.units)
        rng = np.random.default_rng(12)
        ks = np.concatenate(([pk.k0], pk.k0 + rng.uniform(-12.0, 12.0, 40) / sigma))
        got = phi0(pk, ks)
        with mp.workdps(40):
            s, xc = mp.mpf(sigma), mp.mpf(x_c)

            def w(z):
                return mp.exp(-z * z) * mp.erfc(-1j * z)

            norm = (2 * mp.pi) ** -0.25 * mp.sqrt(s) / mp.sqrt(w(1j * xc / (mp.sqrt(2) * s)))
            for k, val in zip(ks.tolist(), got):
                z = xc / (2 * s) - 1j * (mp.mpf(k) - mp.mpf(pk.k0)) * s
                want = complex(norm * w(1j * z))
                assert abs(val - want) <= 1e-12 * abs(want)
                assert phi0(pk, k) == val


class TestFreeQuadrature:
    def test_initial_condition_recovered(self):
        pk = make_packet()
        val = psi_free_quadrature(pk, pk.x_c, 0.0)
        want = (2 * math.pi) ** -0.25 / math.sqrt(pk.sigma) * np.exp(1j * pk.k0 * pk.x_c)
        # the cutoff normalization differs from the plain Gaussian by the
        # erfc(z0)/2 factor, invisible at this validity ratio
        assert abs(val - want) <= 1e-9 * abs(want)

    def test_matches_analytic_free_packet(self):
        pk = make_packet()
        rng = np.random.default_rng(9)
        bound = 1.39e-11 * 1e2  # cutoff-error scale with two-decade headroom
        for _ in range(50):
            t = rng.uniform(0.2, 80.0)
            width = pk.sigma * abs(1 + 1j * t / pk.tau)
            x = pk.x_c + pk.velocity * t + rng.uniform(-2.0, 2.0) * width
            quad = psi_free_quadrature(pk, x, t)
            closed = free_packet(pk, x, t)
            assert abs(quad - closed) <= max(bound * abs(quad), 1e-13)

    def test_forbidden_region_empty_at_t0(self):
        pk = make_packet()
        peak = abs(psi_free_quadrature(pk, pk.x_c, 0.0))
        assert abs(psi_free_quadrature(pk, 5.0, 0.0)) <= 1e-9 * peak

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            psi_free_quadrature(make_packet(), 0.0, -1.0)


class TestTransmittedQuadrature:
    def test_self_convergence_under_node_doubling(self):
        pk = make_packet()
        x, t = 2 * SB.length, 5 * 6.299
        base = psi_quadrature(pk, SB, x, t)
        fine = on_grid({"_PHASE_OVERSAMPLING": 8.0}, psi_quadrature, pk, SB, x, t)
        assert abs(base - fine) <= 1e-9 * abs(fine)

    def test_window_sufficiency(self):
        pk = make_packet()
        x, t = 2 * SB.length, 3 * 6.299
        base = psi_quadrature(pk, SB, x, t)
        wide = on_grid({"_WINDOW_HALF_WIDTH": 16.0}, psi_quadrature, pk, SB, x, t)
        assert abs(base - wide) <= 1e-9 * abs(base)

    def test_zero_potential_reduces_to_free_engine(self):
        pk = make_packet()
        for t in (0.0, 3.0, 30.0):
            x = FREE.length + 5.0
            assert psi_quadrature(pk, FREE, x, t) == pytest.approx(
                psi_free_quadrature(pk, x, t), rel=1e-13
            )

    def test_short_time_profile_is_free_like(self):
        # the early transient is carried by fast over-barrier components with
        # T ~ 1, so well before the nominal arrival the transmitted and free
        # densities nearly coincide (and then separate)
        pk = make_packet()
        x = 2 * SB.length
        t_arrival = (x - pk.x_c) / pk.velocity
        early = abs(psi_quadrature(pk, SB, x, 0.25 * t_arrival)) ** 2
        early_f = abs(psi_free_quadrature(pk, x, 0.25 * t_arrival)) ** 2
        assert 0.75 <= early / early_f <= 1.1
        late = abs(psi_quadrature(pk, SB, x, t_arrival)) ** 2
        late_f = abs(psi_free_quadrature(pk, x, t_arrival)) ** 2
        assert late / late_f < 0.5

    def test_conjugation_path_symmetry(self):
        # substituting k -> -k in the momentum integral and using the
        # time-reversal identity t(-k) = conj(t(k)) for real k must leave the
        # amplitude unchanged
        from tunnelwave.oracle import _momentum_integral, phi0 as _phi0

        pk = make_packet()
        x, t = 2 * SB.length, 4 * 6.299
        direct = psi_quadrature(pk, SB, x, t)

        def reflected(ks):
            return np.conj(1.0 / t22(SB, -ks))

        mirrored = _momentum_integral(pk, x, t, reflected)
        assert abs(mirrored - direct) <= 1e-10 * abs(direct)

    def test_node_budget_boundary(self):
        pk = make_packet()
        with pytest.raises(NodeBudgetExceededError):
            psi_quadrature(pk, SB, 2e5 * SB.length, 1e7)
        # a leaf's own count past the int64 range, refused before any warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NodeBudgetExceededError):
                psi_quadrature(pk, SB, 2 * SB.length, 1e300)
            with pytest.raises(NodeBudgetExceededError):
                psi_free_quadrature(pk, 2 * SB.length, 1e300)
            # 2ct/hbar times the window's ends overflows at 1e308, and 2ct
            # itself at 1.7e308: an infinite rate counts as the budget
            for t in (1e308, 1.7e308):
                with pytest.raises(NodeBudgetExceededError):
                    psi_quadrature(pk, SB, 2 * SB.length, t)
                with pytest.raises(NodeBudgetExceededError):
                    psi_free_quadrature(pk, 2 * SB.length, t)

    def test_domain_validation(self):
        pk = make_packet()
        with pytest.raises(ValueError):
            psi_quadrature(pk, SB, 0.5 * SB.length, 1.0)

    def test_packet_in_other_units_rejected(self):
        pk = make_packet(UnitSystem(mass_ratio=0.1))
        with pytest.raises(ValueError, match="mass ratio 0.1 is not the profile's 0.067"):
            psi_quadrature(pk, SB, 2.0 * SB.length, 5.0)


class TestTimeArrays:
    """An array of t shares one node grid sized for its earliest and latest time."""

    def test_last_element_bit_equal_to_one_point_call(self):
        pk = make_packet()
        x = 2 * SB.length
        ts = np.linspace(0.5, 20 * 6.299, 7)
        many = psi_quadrature(pk, SB, x, ts)
        one = psi_quadrature(pk, SB, x, ts[-1])
        assert many.shape == ts.shape
        assert isinstance(one, complex)
        assert many[-1] == one

    def test_db_window_matches_converged_grid(self, db_data):
        pk, profile = db_data.packet, db_data.profile
        t_end, n_pts = ORACLE_WINDOWS["db"]
        tau_sys = tau_system(profile, db_data.catalog)
        ts = np.linspace(1e-3 * tau_sys, t_end * tau_sys, n_pts)
        x = 2.0 * profile.length
        window = psi_quadrature(pk, profile, x, ts)
        assert ts[1:3] == pytest.approx([10.8, 21.0], abs=0.1)
        fine = on_grid(CONVERGED, psi_quadrature, pk, profile, x, ts[1:3])
        peak = np.max(np.abs(window))
        assert np.max(np.abs(window[1:3] - fine)) <= 1e-10 * peak

    @pytest.mark.parametrize("name, points", [("db", [1, 2]), ("qb", [1])])
    def test_one_point_calls_converge_at_criterion_4_times(self, request, name, points):
        # refinement on phi0 t(k) resolves db's 1 meV resonance on a one-point
        # grid too, where the phase rule alone missed it by 4e-4 of the peak
        data = request.getfixturevalue(f"{name}_data")
        pk, profile = data.packet, data.profile
        t_end, n_pts = ORACLE_WINDOWS[name]
        tau_sys = tau_system(profile, data.catalog)
        ts = np.linspace(1e-3 * tau_sys, t_end * tau_sys, n_pts)
        x = 2.0 * profile.length
        peak = np.max(np.abs(psi_quadrature(pk, profile, x, ts)))
        fine = on_grid(CONVERGED, psi_quadrature, pk, profile, x, ts[points])
        for t, want in zip(ts[points], fine):
            assert abs(psi_quadrature(pk, profile, x, t) - want) <= 1e-10 * peak

    def test_one_point_calls_resolve_a_narrower_resonance(self):
        # NARROW's first resonance is found by the refinement alone at every time
        profile = NARROW
        pk = make_packet(profile.units, energy=0.08)
        x = 2.0 * profile.length
        ts = np.array([0.05, 0.5, 5.0, 50.0])
        fine = [on_grid(CONVERGED, psi_quadrature, pk, profile, x, t) for t in ts]
        peak = np.max(np.abs(fine))
        for t, want in zip(ts, fine):
            assert abs(psi_quadrature(pk, profile, x, t) - want) <= 1e-10 * peak

    def test_local_phase_rule_halves_uniform_rule(self, db_data):
        # the phase rate |x - 2ckt/hbar| is a V in k: sizing every panel for
        # its own largest rate needs about half the nodes of sizing all of
        # them for the window's largest
        pk, profile = db_data.packet, db_data.profile
        x = 2.0 * profile.length
        t = 0.5 * tau_system(profile, db_data.catalog)
        n_nodes, _ = oracle._panel_nodes(pk, x, np.asarray(t), lambda k: 1.0 / t22(profile, k))
        half = oracle._WINDOW_HALF_WIDTH / pk.sigma
        beta = 2.0 * pk.units.inv_mass_coeff * t / pk.units.hbar
        rate = max(abs(x - beta * k) for k in (pk.k0 - half, pk.k0 + half))
        uniform = math.ceil(2.0 * half * rate * oracle._PHASE_OVERSAMPLING / math.pi)
        assert n_nodes <= 0.6 * uniform

    def test_free_engine_matches_free_packet(self):
        pk = make_packet()
        x = 2 * SB.length
        ts = np.linspace(0.2, 80.0, 25)
        quad = psi_free_quadrature(pk, x, ts)
        closed = free_packet(pk, x, ts)
        assert np.max(np.abs(quad - closed)) <= 1e-8 * np.max(np.abs(closed))

    def test_negative_time_anywhere_rejected(self):
        pk = make_packet()
        with pytest.raises(ValueError):
            psi_quadrature(pk, SB, 2 * SB.length, np.array([1.0, -1.0, 2.0]))
        with pytest.raises(ValueError):
            psi_free_quadrature(pk, 0.0, np.array([[0.0, 3.0], [-1e-9, 4.0]]))

    @pytest.mark.parametrize("free", [False, True], ids=["transmitted", "free"])
    @pytest.mark.parametrize(
        "x_over_l, t",
        [(math.nan, 1.0), (2.0, math.nan), (2.0, np.array([1.0, math.nan])),
         (math.inf, 1.0), (2.0, math.inf)],
        ids=["x-nan", "t-nan", "t-array-nan", "x-inf", "t-inf"],
    )
    def test_non_finite_x_or_t_rejected_before_any_warning(self, free, x_over_l, t):
        pk = make_packet()
        x = x_over_l * SB.length
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                if free:
                    psi_free_quadrature(pk, x, t)
                else:
                    psi_quadrature(pk, SB, x, t)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_times_give_an_empty_array_and_build_no_leaves(self, monkeypatch, shape):
        def no_leaves(*args, **kwargs):
            raise AssertionError("leaves built for no time")

        # numpy's reduction over zero times raised here before
        monkeypatch.setattr(oracle, "_leaves", no_leaves)
        pk, t = make_packet(), np.empty(shape)
        for got in (psi_quadrature(pk, SB, 2 * SB.length, t), psi_free_quadrature(pk, 0.0, t)):
            assert got.shape == shape and got.dtype == complex

    def test_budget_from_latest_time_before_any_node(self, monkeypatch):
        def no_nodes(*args, **kwargs):
            raise AssertionError("nodes built past the budget")

        oracle._leaves.cache_clear()  # the refinement runs; no sub-panel node is built
        monkeypatch.setattr(oracle, "_sub_panel_nodes", no_nodes)
        with pytest.raises(NodeBudgetExceededError):
            psi_quadrature(make_packet(), SB, 2e5 * SB.length, np.array([0.0, 1e7]))


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(oracle._GL_ORDER)
    for table, want in ((oracle._GL_NODES, nodes), (oracle._GL_WEIGHTS, weights)):
        assert table.dtype == np.float64
        assert np.array_equal(table.view(np.uint64), want.view(np.uint64))


class TestInterpolatedLeaves:
    """Smooth leaves take phi0 t(k) from their 16 refinement values."""

    def test_split_matrices_and_halvings_interpolate_in_k_order(self):
        def f(u):
            return np.exp(1j * u)  # degree 15 resolves it to rounding on [-1, 1]

        vals = f(oracle._GL_NODES)[None, :]
        for m in range(1, oracle._MAX_SPLIT + 1):
            for p in range(4):
                n = m << p
                split = (vals @ oracle._split_t(m)).reshape(-1, 16)
                got = np.concatenate(list(oracle._halvings(split, p, oracle._HALVING_NODES))).ravel()
                mids = (2.0 * np.arange(n) + 1.0) / n - 1.0
                want = f((mids[:, None] + oracle._GL_NODES / n).ravel())
                assert np.max(np.abs(got - want)) <= 5e-15

    def test_one_sub_panel_is_the_identity_without_a_division_by_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(oracle._interp_matrix(oracle._GL_NODES), np.eye(16))
        assert np.array_equal(oracle._split_t(1), np.eye(16))

    def test_halvings_split_a_panel_larger_than_a_chunk(self):
        vals = np.random.default_rng(3).normal(size=(3, 16)) + 0j
        whole = np.concatenate(list(oracle._halvings(vals, 4, oracle._HALVING_NODES)))
        blocks = list(oracle._halvings(vals, 4, 64))
        assert max(b.size for b in blocks) <= 64
        assert np.max(np.abs(np.concatenate(blocks) - whole)) <= 1e-15 * np.max(np.abs(whole))

    @staticmethod
    def _check_against_direct(monkeypatch, pk, profile, x, ts):
        def node_counts():
            return [oracle._panel_nodes(pk, x, ts, tfun)[0]
                    for tfun in (oracle._Transmission(profile), oracle._free_tfun)]

        quad, free = psi_quadrature(pk, profile, x, ts), psi_free_quadrature(pk, x, ts)
        rounded = node_counts()
        monkeypatch.setattr(oracle, "_SMOOTH_TOL", -1.0)  # no leaf is smooth
        oracle._leaves.cache_clear()  # so the patched rule builds its own leaves
        # with no sub-panel count rounded up, both engines need fewer nodes
        assert all(d < r for d, r in zip(node_counts(), rounded))
        quad_d, free_d = psi_quadrature(pk, profile, x, ts), psi_free_quadrature(pk, x, ts)
        assert np.max(np.abs(quad - quad_d)) <= 2e-15 * np.max(np.abs(quad_d))
        # the free engine's grid is itself within only 1.5-2e-14 of the peak of
        # a converged one at db's latest times, and rounding the sub-panel
        # counts up moves its value by up to 1.3e-14 there; interpolating on
        # the rounded grid adds no more than 2.5e-16
        assert np.max(np.abs(free - free_d)) <= 2e-14 * np.max(np.abs(free_d))

    @pytest.mark.parametrize("name", ["sb", "db", "qb"])
    def test_criterion_4_windows_match_direct_evaluation(self, request, monkeypatch, name):
        data = request.getfixturevalue(f"{name}_data")
        pk, profile = data.packet, data.profile
        t_end, _ = ORACLE_WINDOWS[name]
        tau_sys = tau_system(profile, data.catalog)
        # the window's extreme times, so criterion 4's grid, at fewer points
        ts = np.linspace(1e-3 * tau_sys, t_end * tau_sys, 9)
        self._check_against_direct(monkeypatch, pk, profile, 2.0 * profile.length, ts)

    def test_narrow_resonance_matches_direct_evaluation(self, monkeypatch):
        pk = make_packet(NARROW.units, energy=0.08)
        ts = np.array([0.05, 0.5, 5.0, 50.0])
        self._check_against_direct(monkeypatch, pk, NARROW, 2.0 * NARROW.length, ts)

    def test_budget_counts_rounded_nodes_before_building_any(self, monkeypatch):
        pk = make_packet()
        x, t = 2 * SB.length, np.asarray(20 * 6.299)
        args = pk, x, t, lambda k: 1.0 / t22(SB, k)
        rounded, _ = oracle._panel_nodes(*args)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_SMOOTH_TOL", -1.0)
            oracle._leaves.cache_clear()  # so the patched rule builds its own leaves
            direct, _ = oracle._panel_nodes(*args)
        assert direct < rounded

        def no_nodes(*args, **kwargs):
            raise AssertionError("nodes built past the budget")

        monkeypatch.setattr(oracle, "_NODE_BUDGET", direct)
        monkeypatch.setattr(oracle, "_sub_panel_nodes", no_nodes)
        with pytest.raises(NodeBudgetExceededError):
            psi_quadrature(pk, SB, x, t)


class TestCutoffTailLeaves:
    """Leaves at or below 2**-32 of the largest |phi0 t| get half the phase rate."""

    @pytest.mark.parametrize("mult", [2.0, 20.0], ids=["2L", "20L"])
    @pytest.mark.parametrize("name", ["sb", "db", "qb"])
    def test_one_point_calls_stay_within_1e_13_of_converged_grid(self, request, name, mult):
        # 3.9e-14 (db, 2L) and 4.1e-14 (db, 20L) of the peak at worst with
        # every leaf at full phase density; the 1e-10 bounds above would
        # not see a thousandfold loss
        data = request.getfixturevalue(f"{name}_data")
        pk, profile = data.packet, data.profile
        x = mult * profile.length
        if mult == 2.0:  # criterion 4's window
            t_end, _ = ORACLE_WINDOWS[name]
            tau_sys = tau_system(profile, data.catalog)
            ts = np.linspace(1e-3 * tau_sys, t_end * tau_sys, 11)
        else:
            t_flight = (x - pk.x_c) / pk.velocity
            ts = np.linspace(0.5 * t_flight, 2.0 * t_flight, 8)
        for run in (functools.partial(psi_quadrature, pk, profile, x),
                    functools.partial(psi_free_quadrature, pk, x)):
            fine = on_grid(CONVERGED, run, ts)
            got = np.array([run(t) for t in ts])
            assert np.max(np.abs(got - fine)) <= 1e-13 * np.max(np.abs(fine))

    @staticmethod
    def _counts(monkeypatch, pk, x, ts, tfun):
        """Per leaf: the call's sub-panel count, the count of the tail rule and
        that of full density everywhere (both rounded up on smooth leaves),
        and whether the leaf is tail."""
        seen = {}

        def capture(packet, tfun, a, width, n_sub, vals, smooth, p):
            seen["n_sub"] = n_sub
            return iter(())

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_node_pieces", capture)
            n_nodes, _ = oracle._panel_nodes(pk, x, np.asarray(ts), tfun)
        a, b, vals, smooth = oracle._leaves(pk, tfun, oracle._WINDOW_HALF_WIDTH / pk.sigma)[:4]
        leaf_max = np.abs(vals).max(axis=1)
        tail = leaf_max <= 2.0**-32 * leaf_max.max()
        betas = 2.0 * pk.units.inv_mass_coeff * np.array([np.min(ts), np.max(ts)]) / pk.units.hbar
        rate = np.max([np.abs(x - beta * end) for beta in betas for end in (a, b)], axis=0)
        density = oracle._PHASE_OVERSAMPLING / (16 * math.pi)
        full = np.ceil(1.0 + (b - a) * rate * density).astype(np.int64)
        halved = np.ceil(1.0 + (b - a) * (rate / 2) * density).astype(np.int64)

        def rounded(n):
            # least m * 2**p >= n with m <= 15 on smooth leaves
            out = n.copy()
            for i in np.flatnonzero(smooth):
                p = 0
                while 15 << p < n[i]:
                    p += 1
                out[i] = -(-n[i] // (1 << p)) << p
            return out

        assert n_nodes == 16 * seen["n_sub"].sum()
        return seen["n_sub"], rounded(np.where(tail, halved, full)), rounded(full), tail

    @pytest.mark.parametrize("name", ["sb", "db", "qb"])
    def test_tail_leaves_and_only_they_get_the_halved_count(self, request, monkeypatch, name):
        data = request.getfixturevalue(f"{name}_data")
        pk, profile = data.packet, data.profile
        x = 2.0 * profile.length
        t_end, _ = ORACLE_WINDOWS[name]
        tau_sys = tau_system(profile, data.catalog)
        for ts in ([1e-3 * tau_sys, t_end * tau_sys], 0.5 * t_end * tau_sys):
            for tfun in (oracle._Transmission(profile), oracle._free_tfun):
                got, want, full, tail = self._counts(monkeypatch, pk, x, ts, tfun)
                assert np.array_equal(got, want)
                # both kinds of leaf are there, and halving changes some counts
                assert tail.any() and not tail.all() and not np.array_equal(got, full)

    def test_db_mid_window_needs_at_most_0_65_of_the_full_density_nodes(self, monkeypatch, db_data):
        pk, profile = db_data.packet, db_data.profile
        t_end, _ = ORACLE_WINDOWS["db"]
        t = 0.5 * t_end * tau_system(profile, db_data.catalog)
        got, _, full, _ = self._counts(
            monkeypatch, pk, 2.0 * profile.length, t, oracle._Transmission(profile)
        )
        assert got.sum() <= 0.65 * full.sum()


class TestSteppedPhases:
    """exp(i phi) at a segment's nodes comes from 16 anchors, 16 steps and the
    quadratic factors of its width, not from cos and sin at every node."""

    @staticmethod
    def _block():
        # two leaves of two consecutive segments each: a leaf boundary inside
        # the block; the second leaf's phases reach |phi| ~ 1e5 at C = 500
        mids, widths = [], []
        for start, width in ((2.0, 1.1e-2), (14.0, 1.0e-3)):
            for seg in range(2):
                mids.append(start + (oracle._SEGMENT * seg + 0.5) * width)
                widths.append(width)
        mids, widths = np.array(mids), np.array(widths)
        return mids[:, None] + 0.5 * widths[:, None] * oracle._GL_NODES, widths

    @pytest.mark.parametrize("rows", [1, 2, 15, 30, 32])
    def test_stepped_factors_within_the_error_bound_of_direct_cos_sin(self, rows):
        # direct evaluation rounds k x, C k and C k^2 and their difference, so
        # |fl(phi) - phi| <= u (|k x| + 2 |C k^2| + |phi|); cos, sin and the
        # weights that ride on the anchors add a few u more
        x, c, u = 400.0, 500.0, 2.0**-53
        k0, width = self._block()
        n_seg = width.size
        stepped = np.empty((rows, n_seg, oracle._GL_ORDER), dtype=complex)
        for r in range(rows):
            for j in range(oracle._GL_ORDER):
                amps = np.zeros((rows, n_seg, oracle._GL_ORDER), dtype=complex)
                amps[r, :, j] = 1.0  # one node per segment: the sum is its weighted factor
                sums = oracle._segment_sums(amps, k0, width, x, np.array([c]))[0]
                stepped[r, :, j] = sums / (width * oracle._AMP_WEIGHTS[j])
        worst = phi_max = 0.0
        with mp.workdps(40):
            for s in range(n_seg):
                for r in range(rows):
                    for j in range(oracle._GL_ORDER):
                        k = mp.mpf(k0[s, j]) + r * mp.mpf(width[s])
                        phi = k * x - c * k * k
                        bound = u * float(abs(k * x) + 2 * abs(c * k * k) + abs(phi)) + 8 * u
                        worst = max(worst, abs(stepped[r, s, j] - complex(mp.exp(1j * phi))) / bound)
                        phi_max = max(phi_max, abs(float(phi)))
        assert phi_max > 9e4
        assert worst <= 1.0

    @pytest.mark.parametrize("name", ["sb", "db", "qb"])
    def test_results_do_not_depend_on_block_size(self, request, monkeypatch, name):
        data = request.getfixturevalue(f"{name}_data")
        pk, profile = data.packet, data.profile
        t_end, n_pts = ORACLE_WINDOWS[name]
        tau_sys = tau_system(profile, data.catalog)
        # the window's first, latest and a few early times: criterion 4's grid
        ts = np.linspace(1e-3 * tau_sys, t_end * tau_sys, n_pts)[[0, 1, 2, n_pts // 2, -1]]
        far = 5.0 * profile.length
        for x, t in ((2.0 * profile.length, ts), (far, (far - pk.x_c) / pk.velocity)):
            runs = []
            for chunk in (2**8, 2**10, 2**12, 2**14, 2**15):
                monkeypatch.setattr(oracle, "_CHUNK_NODES", chunk)
                runs.append((psi_quadrature(pk, profile, x, t), psi_free_quadrature(pk, x, t)))
            for quad, free in runs[1:]:
                assert np.array_equal(quad, runs[0][0])
                assert np.array_equal(free, runs[0][1])


class TestLeafMemo:
    """The refinement's leaves are built once per packet, integrand and window."""

    def test_warm_calls_bit_identical_to_cold_ones(self):
        pk = make_packet()
        engines = (lambda x, t: psi_quadrature(pk, SB, x, t),
                   lambda x, t: psi_free_quadrature(pk, x, t))
        calls = [(run, x, t) for run in engines for x in (2.0 * SB.length, 5.0 * SB.length)
                 for t in (7.5, np.linspace(0.5, 40.0, 5))]
        oracle._leaves.cache_clear()
        for run in engines:
            run(3.0 * SB.length, 20.0)  # builds the entry the calls below reuse
        warm = [run(x, t) for run, x, t in calls]
        assert oracle._leaves.cache_info().hits == len(calls)
        for (run, x, t), want in zip(calls, warm):
            oracle._leaves.cache_clear()
            assert np.array_equal(run(x, t), want)

    def test_equal_profiles_share_one_fingerprint_and_leaves(self):
        plus = PotentialProfile(((4.0, 0.23), (3.0, 0.0), (4.0, 0.23)))
        minus = PotentialProfile(((4.0, 0.23), (3.0, -0.0), (4.0, 0.23)))
        assert plus == minus and plus.fingerprint_key() == minus.fingerprint_key()
        pk = make_packet(plus.units, energy=0.1)
        x, ts = 2.0 * plus.length, np.linspace(0.5, 30.0, 4)
        cold = []
        for profile in (plus, minus):
            oracle._leaves.cache_clear()
            cold.append(psi_quadrature(pk, profile, x, ts))
        assert np.array_equal(cold[0], cold[1])
        oracle._leaves.cache_clear()
        for profile, want in zip((plus, minus), cold):
            assert np.array_equal(psi_quadrature(pk, profile, x, ts), want)
        assert oracle._leaves.cache_info().currsize == 1

    def test_cached_leaves_are_read_only(self):
        pk = make_packet()
        half = oracle._WINDOW_HALF_WIDTH / pk.sigma
        psi_quadrature(pk, SB, 2.0 * SB.length, 5.0)
        hits = oracle._leaves.cache_info().hits
        leaves = oracle._leaves(pk, oracle._Transmission(SB), half)
        assert oracle._leaves.cache_info().hits == hits + 1
        for arr in leaves:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]

    def test_entries_stay_at_their_bound(self):
        oracle._leaves.cache_clear()
        for i in range(oracle._LEAF_ENTRIES + 3):
            psi_free_quadrature(make_packet(energy=0.05 + 0.01 * i), 0.0, 1.0)
        info = oracle._leaves.cache_info()
        assert info.misses == oracle._LEAF_ENTRIES + 3
        assert info.currsize == info.maxsize == oracle._LEAF_ENTRIES


@pytest.mark.parametrize("name, mult", [("sb", 20.0), ("db", 20.0), ("qb", 20.0), ("sb", 200.0)])
def test_closed_form_matches_oracle_beyond_criterion_4(request, name, mult):
    # criterion 4 compares at 2L only; the far-field claims (free evolution
    # times t(k), the t^-3 law) are checked here at 20L and 200L.  The
    # deviation is the pole truncation's, as at 2L: 1.334e-3 / 1.595e-3 /
    # 9.595e-4 (sb / db / qb) at 20L and 1.302e-3 (sb) at 200L, so the
    # 3e-3 bound leaves 1.9 times the worst of them
    data = request.getfixturevalue(f"{name}_data")
    pk, profile = data.packet, data.profile
    x = mult * profile.length
    t_flight = (x - pk.x_c) / pk.velocity
    ts = np.linspace(0.5 * t_flight, 2.0 * t_flight, 40)
    rho_o = pk.sigma * np.abs(psi_quadrature(pk, profile, x, ts)) ** 2
    psi_a = transmitted_packet(pk, profile, data.catalog, data.residues, x, ts)
    rho_a = pk.sigma * np.abs(psi_a) ** 2
    assert np.max(np.abs(rho_a - rho_o)) <= 3e-3 * np.max(rho_o)
