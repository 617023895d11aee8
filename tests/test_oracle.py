import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from tunnelwave import oracle
from tunnelwave.evolution import GaussianPacket, free_packet, tau_system
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
CONVERGED = QuadratureConfig(phase_oversampling=32)


def make_packet(units=SB.units, energy=0.115):
    return GaussianPacket(-5.0, 0.5, units.wavenumber_of_energy(energy), units)


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.window_half_width == 12.0
        assert cfg.phase_oversampling == 4.0

    def test_validation(self):
        for kwargs in (
            {"window_half_width": 4.0},
            {"window_half_width": math.nan},
            {"window_half_width": math.inf},
            {"phase_oversampling": 0.0},
            {"phase_oversampling": math.nan},
            {"phase_oversampling": math.inf},
        ):
            with pytest.raises(ValueError):
                QuadratureConfig(**kwargs)


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
        base = psi_quadrature(pk, SB, x, t, QuadratureConfig())
        fine = psi_quadrature(pk, SB, x, t, QuadratureConfig(phase_oversampling=8.0))
        assert abs(base - fine) <= 1e-9 * abs(fine)

    def test_window_sufficiency(self):
        pk = make_packet()
        x, t = 2 * SB.length, 3 * 6.299
        base = psi_quadrature(pk, SB, x, t, QuadratureConfig())
        wide = psi_quadrature(pk, SB, x, t, QuadratureConfig(window_half_width=16.0))
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

        mirrored = _momentum_integral(pk, x, t, reflected, QuadratureConfig())
        assert abs(mirrored - direct) <= 1e-10 * abs(direct)

    def test_node_budget_boundary(self):
        pk = make_packet()
        with pytest.raises(NodeBudgetExceededError):
            psi_quadrature(pk, SB, 2e5 * SB.length, 1e7)

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
        fine = psi_quadrature(pk, profile, x, ts[1:3], CONVERGED)
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
        fine = psi_quadrature(pk, profile, x, ts[points], CONVERGED)
        for t, want in zip(ts[points], fine):
            assert abs(psi_quadrature(pk, profile, x, t) - want) <= 1e-10 * peak

    def test_one_point_calls_resolve_a_narrower_resonance(self):
        # 9 nm barriers around the 5 nm well: Gamma_1 ~ 1.7e-5 eV, 60 times
        # narrower than db's, found by the refinement alone at every time
        profile = PotentialProfile(((9.0, 0.23), (5.0, 0.0), (9.0, 0.23)))
        pk = make_packet(profile.units, energy=0.08)
        x = 2.0 * profile.length
        ts = np.array([0.05, 0.5, 5.0, 50.0])
        fine = [psi_quadrature(pk, profile, x, t, CONVERGED) for t in ts]
        peak = np.max(np.abs(fine))
        for t, want in zip(ts, fine):
            assert abs(psi_quadrature(pk, profile, x, t) - want) <= 1e-10 * peak

    def test_local_phase_rule_halves_uniform_rule(self, db_data):
        # the phase rate |x - 2ckt/hbar| is a V in k: sizing every panel for
        # its own largest rate needs about half the nodes of sizing all of
        # them for the window's largest
        pk, profile = db_data.packet, db_data.profile
        config = QuadratureConfig()
        x = 2.0 * profile.length
        t = 0.5 * tau_system(profile, db_data.catalog)
        ks, _ = oracle._panel_nodes(
            pk, x, np.asarray(t), lambda k: 1.0 / t22(profile, k), config
        )
        half = config.window_half_width / pk.sigma
        beta = 2.0 * pk.units.inv_mass_coeff * t / pk.units.hbar
        rate = max(abs(x - beta * k) for k in (pk.k0 - half, pk.k0 + half))
        uniform = math.ceil(2.0 * half * rate * config.phase_oversampling / math.pi)
        assert ks.size <= 0.6 * uniform

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

    def test_budget_from_latest_time_before_any_node(self, monkeypatch):
        def no_nodes(*args, **kwargs):
            raise AssertionError("nodes built past the budget")

        monkeypatch.setattr(oracle.np, "linspace", no_nodes)
        with pytest.raises(NodeBudgetExceededError):
            psi_quadrature(make_packet(), SB, 2e5 * SB.length, np.array([0.0, 1e7]))
