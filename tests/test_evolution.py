import cmath
import dataclasses
import gc
import math
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunnelwave import resonances
from tunnelwave.evolution import (
    _BracketEvaluator,
    FreeDensityUnderflowError,
    GaussianPacket,
    NonAsymptoticError,
    PacketValidityWarning,
    UnreliableRegimeError,
    asymptotic_cancellation,
    eta,
    fit_loglog_slope,
    free_packet,
    free_packet_log,
    longtime_exponent,
    tau_system,
    transmitted_packet,
    transmitted_packet_log,
    zeta,
)
from tunnelwave.poles import PoleSearchConfig, catalog_fingerprint, sweep_poles
from tunnelwave.potential import UnitSystem, transmission_coefficient
from tunnelwave.presets import default_packet_energy, preset_profile
from tunnelwave.resonances import ResidueSet, coefficient_C, expansion_t, residues
from tunnelwave.specfun import faddeeva, faddeeva_log_scaled

SB = preset_profile("sb")
DB = preset_profile("db")
QB = preset_profile("qb")


def make_packet(units, energy=0.115, x_c=-5.0, sigma=0.5):
    return GaussianPacket(x_c, sigma, units.wavenumber_of_energy(energy), units)


class TestGaussianPacket:
    def test_derived_quantities(self):
        pk = make_packet(SB.units)
        assert pk.tau == pytest.approx(0.28937, abs=1e-4)
        assert pk.validity_ratio == pytest.approx(5.0)

    def test_validation(self):
        u = SB.units
        with pytest.raises(ValueError):
            GaussianPacket(5.0, 0.5, 0.4, u)
        with pytest.raises(ValueError):
            GaussianPacket(-5.0, -0.5, 0.4, u)
        with pytest.raises(ValueError):
            GaussianPacket(-5.0, 0.5, 0.0, u)
        for bad in (-math.inf, math.inf, math.nan):
            with pytest.raises(ValueError):
                GaussianPacket(bad, 0.5, 0.4, u)
            with pytest.raises(ValueError):
                GaussianPacket(-5.0, bad, 0.4, u)
            with pytest.raises(ValueError):
                GaussianPacket(-5.0, 0.5, bad, u)


class TestFreePacket:
    def test_peak_value_at_t0(self):
        pk = make_packet(SB.units)
        want = (2 * math.pi) ** -0.25 / math.sqrt(pk.sigma) * cmath.exp(
            1j * pk.k0 * pk.x_c
        )
        assert free_packet(pk, pk.x_c, 0.0) == pytest.approx(want)

    def test_norm_conserved(self):
        pk = make_packet(SB.units)
        for t in (0.0, 10 * pk.tau, 100 * pk.tau):
            width = pk.sigma * abs(1 + 1j * t / pk.tau)
            center = pk.x_c + pk.velocity * t
            xs = np.linspace(center - 9 * width, center + 9 * width, 40001)
            norm = np.trapezoid(np.abs(free_packet(pk, xs, t)) ** 2, xs)
            assert norm == pytest.approx(1.0, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            free_packet(make_packet(SB.units), 0.0, -1.0)


class TestTransmittedPacket:
    def test_matches_oracle_sb_short_distance(self, sb_data):
        from tunnelwave.oracle import psi_quadrature

        pk = sb_data.packet
        tau_sys = tau_system(SB, sb_data.catalog)
        ts = np.linspace(0.05 * tau_sys, 12 * tau_sys, 25)
        x_d = 2 * SB.length
        psi_a = transmitted_packet(pk, SB, sb_data.catalog, sb_data.residues, x_d, ts)
        psi_o = psi_quadrature(pk, SB, x_d, ts)
        rho_a = pk.sigma * np.abs(psi_a) ** 2
        rho_o = pk.sigma * np.abs(psi_o) ** 2
        assert np.max(np.abs(rho_a - rho_o)) <= 2e-2 * np.max(rho_o)

    def test_domain_validation(self, sb_data):
        pk = sb_data.packet
        with pytest.raises(ValueError):
            transmitted_packet(pk, SB, sb_data.catalog, sb_data.residues, 1.0, 5.0)
        with pytest.raises(ValueError):
            transmitted_packet(pk, SB, sb_data.catalog, sb_data.residues, 20.0, 0.0)

    @pytest.mark.parametrize("func, x, t", [
        ("psi", math.nan, 5.0),
        ("psi", math.inf, 5.0),
        ("psi", 2.0, math.nan),
        ("psi", 2.0, math.inf),
        ("psi", 2.0, 1e308),
        ("psi", 2.0, 1e155),
        ("psi", 2.0, 1e307),
        ("zeta", math.nan, 5.0),
        ("zeta", 2.0, math.nan),
        ("zeta", 2.0, 1e308),
        ("zeta", 2.0, 1e155),
        ("zeta", 2.0, 1e307),
    ])
    def test_non_finite_bracket_rejected(self, sb_data, func, x, t):
        # nan or inf x or t, a t whose t / tau overflows, and a t (1e155 up)
        # whose free-packet offset (x - x_c - v t)^2 overflows would leave
        # the closed form non-finite: a ValueError on entry, before any
        # warning, never a NaN or -inf+inf*j result
        args = (sb_data.packet, SB, sb_data.catalog, sb_data.residues, x * SB.length, t)
        call = transmitted_packet_log if func == "psi" else zeta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                call(*args)

    def test_nan_residue_rejected_without_a_warning(self, sb_data):
        # refused where it enters, not by the bracket, which would blame x and t
        rset = sb_data.residues
        bad = rset.residues.copy()
        bad[0] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ResidueSet.residues holds a non-finite value"):
                ResidueSet(bad, rset.u0, rset.u_l)

    def test_overflowing_arguments_refused_naming_the_point(self, sb_data):
        # finite pole data, x and t, but at k0 = 1e-300 and t = 1e306 fs the
        # squares of the arguments y' overflow: the bracket's own refusal
        pk = GaussianPacket(-5.0, 0.5, 1e-300, SB.units)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the refusal, not a warning
            with pytest.raises(ValueError, match=r"^bracket sum is not finite at x = 16, "
                                                 r"t = 1e\+306: the closed form's arguments "
                                                 r"overflow there$"):
                transmitted_packet_log(pk, SB, sb_data.catalog, sb_data.residues,
                                       2.0 * SB.length, 1e306)

    @pytest.mark.parametrize("call", [
        transmitted_packet_log, zeta, longtime_exponent, asymptotic_cancellation,
    ], ids=lambda call: call.__name__)
    def test_packet_in_other_units_rejected(self, sb_data, call):
        pk = make_packet(UnitSystem(mass_ratio=0.1))
        tau_sys = tau_system(SB, sb_data.catalog)
        t = {
            longtime_exponent: (100.0 * tau_sys, 1e3 * tau_sys),
            asymptotic_cancellation: 1e3 * tau_sys,
        }.get(call, 5.0)
        with pytest.raises(ValueError, match="mass ratio 0.1 is not the profile's 0.067"):
            call(pk, SB, sb_data.catalog, sb_data.residues, 2.0 * SB.length, t)

    def test_unreliable_packet_rejected(self, sb_data):
        close = GaussianPacket(-2.0, 0.5, 0.45, SB.units)
        with pytest.raises(UnreliableRegimeError):
            transmitted_packet(close, SB, sb_data.catalog, sb_data.residues, 20.0, 5.0)

    def test_warning_tier_packet(self, sb_data):
        mid = GaussianPacket(-3.5, 0.5, 0.45, SB.units)
        with pytest.warns(PacketValidityWarning):
            transmitted_packet(mid, SB, sb_data.catalog, sb_data.residues, 20.0, 5.0)

    def test_chunked_points_equal_one_point_calls(self, preset_data):
        # one call over many times chunks (points x poles); every point must
        # come out bit for bit as when it is evaluated alone
        for data in preset_data.values():
            pk, profile = data.packet, data.profile
            tau_sys = tau_system(profile, data.catalog)
            ts = np.geomspace(1e-2 * tau_sys, 30.0 * tau_sys, 40)
            x_d = 2 * profile.length
            bulk = transmitted_packet_log(pk, profile, data.catalog, data.residues, x_d, ts)
            single = np.array([
                transmitted_packet_log(pk, profile, data.catalog, data.residues, x_d, t)
                for t in ts
            ])
            assert np.array_equal(bulk, single)

    @pytest.mark.parametrize("mult", [2.0, 2e5])
    def test_chunk_size_changes_no_bit(self, preset_data, mult, monkeypatch):
        # qb's 8000 terms fill one row of a 2**12 or 2**13 chunk, two of a
        # 2**14, four of a 2**15 and eight of a 2**16 one; sb and db fill
        # several rows of each
        for data in preset_data.values():
            pk, profile = data.packet, data.profile
            tau_sys = tau_system(profile, data.catalog)
            x_d = mult * profile.length
            ts = np.geomspace(1e-2 * tau_sys, 30.0 * tau_sys, 40)
            if mult != 2.0:
                ts = (x_d - pk.x_c) / pk.velocity * 4.0 ** np.linspace(-1.0, 1.0, 40)
            got = []
            for chunk in (2**12, 2**13, 2**14, 2**15, 2**16):
                monkeypatch.setattr("tunnelwave.evolution._CHUNK", chunk)
                got.append(transmitted_packet_log(
                    pk, profile, data.catalog, data.residues, x_d, ts
                ))
            for other in got[1:]:
                assert np.array_equal(got[0].view(np.uint64), other.view(np.uint64))

    def test_early_time_residual_bounded(self, preset_data):
        # t -> 0+ leaves |psi| <= 2|C| |psi_free| (measured factor <= ~0.95)
        for data in preset_data.values():
            pk = data.packet
            profile = data.profile
            c_mag = abs(coefficient_C(profile, data.catalog, data.residues))
            t_tiny = 1e-3 * pk.tau
            for x in (profile.length + 0.1, profile.length + 1.0):
                log_psi = transmitted_packet_log(
                    pk, profile, data.catalog, data.residues, x, t_tiny
                )
                from tunnelwave.evolution import free_packet_log

                log_free = complex(free_packet_log(pk, x, t_tiny))
                bracket = math.exp((log_psi - log_free).real)
                assert bracket <= 2.0 * c_mag

    def test_qb_rabi_oscillations_short_distance(self, qb_data):
        # transitions among the closely spaced triplet levels show up as
        # multiple interior density peaks within the first few lifetimes
        pk = qb_data.packet
        tau_sys = tau_system(QB, qb_data.catalog)
        ts = np.linspace(0.02 * tau_sys, 3.0 * tau_sys, 400)
        logs = transmitted_packet_log(
            pk, QB, qb_data.catalog, qb_data.residues, 2 * QB.length, ts
        )
        rho = pk.sigma * np.exp(2.0 * np.asarray(logs).real)
        interior_peaks = [
            i
            for i in range(1, len(ts) - 1)
            if rho[i] > rho[i - 1] and rho[i] >= rho[i + 1] and rho[i] > 0.01 * rho.max()
        ]
        assert len(interior_peaks) >= 3

    def test_db_resonance_decay_shoulder(self, db_data):
        # at x_d = 200 L the decay of the sharp resonance leaves a small
        # interior peak near t/tau ~ 8 on the otherwise falling density
        pk = db_data.packet
        tau_sys = tau_system(DB, db_data.catalog)
        x_d = 200 * DB.length
        ts = np.linspace(5.5 * tau_sys, 10.5 * tau_sys, 101)
        logs = transmitted_packet_log(pk, DB, db_data.catalog, db_data.residues, x_d, ts)
        rho = pk.sigma * np.exp(2.0 * np.asarray(logs).real)
        peak = int(np.argmax(rho))
        assert 0 < peak < len(ts) - 1
        assert 7.0 <= ts[peak] / tau_sys <= 9.0


def exponent_space_bracket(ev, x, t):
    """Log bracket of ``ev`` summed term by term in exponent space: the
    reference for the linear sum."""
    log_mag, phase = faddeeva_log_scaled(1j * ev._y_args(x, t))
    contributions = np.empty((len(x), len(ev.coefs) + 1), dtype=complex)
    contributions[:, 0] = np.log(ev.c_const)
    contributions[:, 1:] = (np.log(ev._prefactor(t))[:, None] + np.log(ev.coefs)) + (
        log_mag + 1j * phase
    )
    scale = np.max(contributions.real, axis=1)
    mantissas = np.exp(contributions - scale[:, None])
    return scale + np.log(np.sum(mantissas, axis=1))


def mp_log_bracket(ev, x, t, dps=40):
    """Log bracket of ``ev`` at one point: the same double-precision terms,
    with w(z) = exp(-z^2) erfc(-iz) and the sum in ``dps``-digit mpmath."""
    z = 1j * ev._y_args(np.array([x]), np.array([t]))[0]
    with mp.workdps(dps):
        total = mp.mpf(0)
        for coef, zz in zip(ev.coefs, z):
            zz = mp.mpc(complex(zz))
            total += mp.mpc(complex(coef)) * mp.exp(-zz * zz) * mp.erfc(-1j * zz)
        prefac = mp.mpc(complex(ev._prefactor(t)))
        return complex(mp.log(mp.mpc(complex(ev.c_const)) + prefac * total))


class TestLinearBracket:
    """The bracket is summed in linear space; a point whose reflection terms
    could overflow there has its row scaled by exp(-shift) first."""

    @pytest.fixture(scope="class")
    def wide_db(self):
        # a packet 10x wider than the default, observed near x = L after 10
        # of its own spreading times: the largest reflection exponent
        # Re(-z^2) there is about 1267, far past exp's range
        catalog = sweep_poles(DB, PoleSearchConfig(n_seed=300))
        rset = residues(DB, catalog)
        k0 = DB.units.wavenumber_of_energy(default_packet_energy("db", DB, catalog))
        packet = GaussianPacket(-1000.0, 100.0, k0, DB.units)
        return packet, catalog, rset

    @staticmethod
    def scaled(ev, xs, ts):
        """Whether each point's largest term could pass exp(650) unscaled."""
        z = 1j * ev._y_args(xs, ts)
        refl = np.where(z.imag < 0.0, (-(z * z)).real, -np.inf)
        room = np.maximum(0.0, ev.max_log_coef + np.log(np.abs(ev._prefactor(ts))))
        return np.max(refl, axis=1) + room > 650.0

    def test_overflow_points_match_mpmath(self, wide_db):
        packet, catalog, rset = wide_db
        ev = _BracketEvaluator(packet, DB, catalog, rset)
        xs = np.array([DB.length, 2.0 * DB.length])
        ts = np.full(2, 10.0 * packet.tau)
        z = 1j * ev._y_args(xs, ts)
        assert np.max((-(z * z)).real[z.imag < 0.0]) > 1200.0
        assert self.scaled(ev, xs, ts).all()
        got = ev.log_bracket(xs, ts)
        for x, t, log_b in zip(xs, ts, got):
            assert abs(log_b - mp_log_bracket(ev, x, t)) <= 5e-12
        log_psi = transmitted_packet_log(packet, DB, catalog, rset, xs, ts)
        assert np.all(np.isfinite(log_psi))

    def test_shifted_row_scales_its_w_values(self, wide_db):
        # a synthetic coefficient pair on an overflow-range row: a pole
        # column whose reflection exponent a passes the linear range by a few
        # dozen e-folds, its coefficient cut by exp(-a) so that its reflection
        # term is the size of the mirror column's w term; left unscaled, that
        # w term would outweigh it by exp(shift)
        packet, catalog, rset = wide_db
        ev = _BracketEvaluator(packet, DB, catalog, rset)
        xs, ts = np.array([DB.length]), np.array([1.3 * packet.tau])
        z = 1j * ev._y_args(xs, ts)[0]
        n = len(ev.coefs) // 2
        a = np.where(z[:n].imag < 0.0, (-(z[:n] * z[:n])).real, -np.inf)
        p = int(np.argmax(a))
        assert 680.0 < a[p] < 710.0 and z[n + p].imag > 0.0
        ev.kp = ev.kp[[p, n + p]]
        ev.coefs = np.array([ev.coefs[p] * math.exp(-a[p]), ev.coefs[n + p]])
        ev.max_log_coef = float(np.max(np.log(np.abs(ev.coefs))))
        assert self.scaled(ev, xs, ts).all()
        terms = np.abs(ev.coefs * np.array([2.0 * math.exp(a[p]), faddeeva(z[n + p])]))
        assert 1e-3 < terms[0] / terms[1] < 1e3
        (got,) = ev.log_bracket(xs, ts)
        assert abs(got - mp_log_bracket(ev, xs[0], ts[0])) <= 5e-12

    def test_cancellation_refuses_an_overflowing_branch(self, wide_db):
        # the leading form's exp(y'^2) at the overflow-range points above
        packet, catalog, rset = wide_db
        with pytest.raises(OverflowError, match="exponential branch overflows"):
            asymptotic_cancellation(packet, DB, catalog, rset, DB.length, 10.0 * packet.tau)

    def test_mixed_call_equals_one_point_calls(self, wide_db):
        packet, catalog, rset = wide_db
        tau = packet.tau
        xs = np.array([DB.length, DB.length, 1000.0, 3000.0, 2.0 * DB.length])
        ts = np.array([0.5, 10.0, 0.5, 1.0, 10.0]) * tau
        ev = _BracketEvaluator(packet, DB, catalog, rset)
        assert self.scaled(ev, xs, ts).tolist() == [False, True, False, False, True]
        bulk = transmitted_packet_log(packet, DB, catalog, rset, xs, ts)
        single = np.array([
            transmitted_packet_log(packet, DB, catalog, rset, x, t)
            for x, t in zip(xs, ts)
        ])
        assert np.array_equal(bulk, single)
        assert np.all(np.isfinite(bulk[[1, 4]]))

    def test_rows_without_reflection_terms_equal_mixed_chunks(self, sb_data):
        # sb at 2L: the two earliest times have no reflection term, so their
        # one-point calls skip the run bookkeeping; the bulk call sums them
        # in one chunk with rows that have reflection terms
        pk, catalog, rset = sb_data.packet, sb_data.catalog, sb_data.residues
        ts = np.geomspace(1e-2, 30.0, 8) * tau_system(SB, catalog)
        xs = np.full(ts.shape, 2.0 * SB.length)
        ev = _BracketEvaluator(pk, SB, catalog, rset)
        assert has_reflection_terms(ev, xs, ts).tolist() == [False] * 2 + [True] * 6
        bulk = transmitted_packet_log(pk, SB, catalog, rset, xs, ts)
        single = np.array([
            transmitted_packet_log(pk, SB, catalog, rset, x, t) for x, t in zip(xs, ts)
        ])
        assert np.array_equal(bulk.view(np.uint64), single.view(np.uint64))

    def test_chunk_size_changes_no_bit(self, wide_db, monkeypatch):
        # shifted and unshifted rows side by side: each row's shift is the
        # largest exponent of its own run of reflection terms, wherever the
        # chunk boundaries fall
        packet, catalog, rset = wide_db
        xs = np.tile([DB.length, DB.length, 1000.0, 3000.0, 2.0 * DB.length], 8)
        ts = np.tile([0.5, 10.0, 0.5, 1.0, 10.0], 8) * packet.tau
        ts *= 1.0 + 0.01 * np.repeat(np.arange(8), 5)
        ev = _BracketEvaluator(packet, DB, catalog, rset)
        scaled = self.scaled(ev, xs, ts)
        assert 0 < np.count_nonzero(scaled) < len(xs)
        got = []
        for chunk in (2**12, 2**13, 2**14, 2**15, 2**16):
            monkeypatch.setattr("tunnelwave.evolution._CHUNK", chunk)
            got.append(transmitted_packet_log(packet, DB, catalog, rset, xs, ts))
        assert np.all(np.isfinite(got[0]))
        for other in got[1:]:
            assert np.array_equal(got[0].view(np.uint64), other.view(np.uint64))

    @pytest.mark.parametrize("mult", [2.0, 200.0, 2e5])
    def test_linear_and_log_paths_agree_on_presets(self, preset_data, mult):
        # 40 times over the window each distance is evaluated on: [1e-3, 20]
        # tau_sys at 2L, [t_f/4, 4 t_f] beyond (t_f the free flight time)
        for data in preset_data.values():
            pk, profile = data.packet, data.profile
            x_d = mult * profile.length
            if mult == 2.0:
                ts = np.linspace(1e-3, 20.0, 40) * tau_system(profile, data.catalog)
            else:
                ts = (x_d - pk.x_c) / pk.velocity * 4.0 ** np.linspace(-1.0, 1.0, 40)
            xs = np.full(ts.shape, x_d)
            ev = _BracketEvaluator(pk, profile, data.catalog, data.residues)
            assert not self.scaled(ev, xs, ts).any()
            lin = ev.log_bracket(xs, ts)
            log = exponent_space_bracket(ev, xs, ts)
            free = free_packet_log(pk, xs, ts)
            psi_lin, psi_log = np.exp(lin + free), np.exp(log + free)
            peak = np.max(np.abs(psi_log))
            assert np.max(np.abs(psi_lin - psi_log)) <= 1e-13 * peak


def has_reflection_terms(ev, xs, ts):
    """Whether each point's row has a reflection term ``2 exp(-z^2)`` that
    ``_w_split`` does not drop as exactly zero."""
    z = 1j * ev._y_args(xs, ts)
    return ((z.imag < 0.0) & ((z * z).real <= 746.0)).any(axis=1)


def spectrum_k(profile, n):
    """``n`` real wavenumbers of energies from 0.01 to 5 barrier heights."""
    energies = np.linspace(0.01, 5.0, n) * profile.barrier_height
    return np.sqrt(energies / profile.units.inv_mass_coeff)


def closed_form_calls(data, catalog=None, rset=None):
    """Every entry point that reads the pole record, the expansion and the
    closed form, on one preset, as a list of results; on ``catalog`` and
    ``rset`` in place of the preset's when given."""
    pk, profile = data.packet, data.profile
    catalog = data.catalog if catalog is None else catalog
    rset = data.residues if rset is None else rset
    tau_sys = tau_system(profile, catalog)
    x_far = 2e5 * profile.length
    t_flight = (x_far - pk.x_c) / pk.velocity
    ts = np.geomspace(1e-2 * tau_sys, 30.0 * tau_sys, 8)
    return [
        expansion_t(profile, spectrum_k(profile, 16), catalog, rset),
        transmitted_packet_log(pk, profile, catalog, rset, 2.0 * profile.length, ts),
        zeta(pk, profile, catalog, rset, x_far * np.linspace(0.9, 1.1, 5), t_flight),
        longtime_exponent(pk, profile, catalog, rset, 2.0 * profile.length,
                          (100.0 * tau_sys, 1e3 * tau_sys)),
        asymptotic_cancellation(pk, profile, catalog, rset, 2.0 * profile.length,
                                1e3 * tau_sys),
        coefficient_C(profile, catalog, rset),
    ]


def same_bits(got, want):
    return all(
        np.array_equal(np.atleast_1d(g).view(np.uint8), np.atleast_1d(w).view(np.uint8))
        for g, w in zip(got, want, strict=True)
    )


def per_call_expansion(profile, k, catalog, residue_set, n):
    """``expansion_t`` over the first ``n`` poles with its pair arrays built
    per call, an argsort of |kappa| and an ``exp``, and the same blocked pair
    sum: the route the pole record replaced."""
    order = np.argsort(np.abs(catalog.poles))[:n]
    kap = catalog.poles[order]
    z = residue_set.residues[order] * np.exp(-1j * kap * profile.length)
    flat = np.atleast_1d(np.asarray(k, dtype=complex)).ravel()
    kap_bar = np.conj(kap)
    a = 2.0 * (z * kap_bar).real
    b = 2j * z.imag
    rows = max(1, resonances._CHUNK // len(kap))
    den = np.empty((min(rows, len(flat)), len(kap)), dtype=complex)
    num = np.empty_like(den)
    out = np.empty_like(flat)
    for i in range(0, len(flat), rows):
        kk = flat[i : i + rows, None]
        d, m = den[: len(kk)], num[: len(kk)]
        np.subtract(kk, kap, out=d)
        np.add(kk, kap_bar, out=m)
        d *= m
        np.multiply(kk, b, out=m)
        m += a
        m /= d
        out[i : i + rows] = 1j * kk[:, 0] * np.sum(m, axis=1)
    return out


class TestPoleRecordMemo:
    """A system's pole terms are built on its first expansion or closed-form
    call and reused, read-only, by later calls with the same residue set
    object, an equal profile and the same catalog object, for as long as the
    residue set lives.  Each test builds its own residue sets, so its first
    call is a cold one."""

    memo = resonances._records

    def record_of(self, rset):
        """The record the memo holds for ``rset``."""
        return self.memo[rset][2]

    def test_warm_calls_equal_cold_calls(self, preset_data):
        for data in preset_data.values():
            rset = residues(data.profile, data.catalog)
            assert rset not in self.memo
            cold = closed_form_calls(data, data.catalog, rset)
            record = self.record_of(rset)
            warm = closed_form_calls(data, data.catalog, rset)
            assert self.record_of(rset) is record  # no entry was rebuilt
            assert same_bits(warm, cold)
            # a new residue set of the same system is a cold call again
            assert same_bits(closed_form_calls(data, data.catalog,
                                               residues(data.profile, data.catalog)), warm)

    @pytest.mark.parametrize("name", ["sb", "db", "qb"])
    def test_one_record_serves_every_truncation(self, preset_data, name):
        data = preset_data[name]
        profile, catalog = data.profile, data.catalog
        rset = residues(profile, catalog)
        # a complex k as well, where the pair sum's numerators do not cancel
        k = np.append(spectrum_k(profile, 200), 0.7 - 0.01j)
        records = []
        for n in (1, 2, 10, 300, len(catalog)):
            got = expansion_t(profile, k, catalog, rset, n)
            assert same_bits([got], [per_call_expansion(profile, k, catalog, rset, n)])
            records.append(self.record_of(rset))
        assert all(record is records[0] for record in records)

    def test_two_catalogs_of_one_profile_keep_their_own_terms(self, sb_data):
        small = sweep_poles(SB, PoleSearchConfig(n_seed=60))
        other = (small, residues(SB, small))
        full = (sb_data.catalog, residues(SB, sb_data.catalog))
        cold_small = closed_form_calls(sb_data, *other)
        cold_full = closed_form_calls(sb_data, *full)
        assert not same_bits(closed_form_calls(sb_data, *other), cold_full)
        assert same_bits(closed_form_calls(sb_data, *other), cold_small)
        assert same_bits(closed_form_calls(sb_data, *full), cold_full)
        assert self.memo[other[1]][1] is small
        assert self.memo[full[1]][1] is sb_data.catalog

    def test_entry_reused_only_for_its_own_catalog(self, sb_data):
        # an equal copy of the catalog is another object: its call rebuilds
        # the entry, with the same bits
        catalog = sb_data.catalog
        rset = residues(SB, catalog)
        cold = closed_form_calls(sb_data, catalog, rset)
        record = self.record_of(rset)
        copy = dataclasses.replace(catalog)
        assert same_bits(closed_form_calls(sb_data, copy, rset), cold)
        assert self.memo[rset][1] is copy
        assert self.record_of(rset) is not record

    def test_residue_set_of_another_catalog_refused_every_call(self, sb_data):
        small = sweep_poles(SB, PoleSearchConfig(n_seed=60))
        rset = residues(SB, small)
        for _ in range(2):
            with pytest.raises(ValueError, match="residue set has"):
                transmitted_packet_log(sb_data.packet, SB, sb_data.catalog, rset,
                                       2.0 * SB.length, 5.0)
            with pytest.raises(ValueError, match="residue set has"):
                coefficient_C(SB, sb_data.catalog, rset)
            with pytest.raises(ValueError, match="residue set has"):
                expansion_t(SB, 0.5, sb_data.catalog, rset)
        assert rset not in self.memo

    def test_catalog_of_another_profile_refused_by_every_entry_point(self, db_data):
        # an sb catalog with its own residues, on the db profile and packet:
        # both fingerprints are named
        catalog = sweep_poles(SB, PoleSearchConfig(n_seed=60))
        rset = residues(SB, catalog)
        match = (f"catalog fingerprint {catalog.profile_fingerprint} is not the "
                 f"profile's {catalog_fingerprint(DB, catalog.config)}")
        pk, x = db_data.packet, 2.0 * DB.length
        tau_sys = tau_system(DB, db_data.catalog)
        calls = [
            lambda: expansion_t(DB, 0.5, catalog, rset),
            lambda: coefficient_C(DB, catalog, rset),
            lambda: transmitted_packet_log(pk, DB, catalog, rset, x, 5.0),
            lambda: transmitted_packet(pk, DB, catalog, rset, x, 5.0),
            lambda: zeta(pk, DB, catalog, rset, 1e3 * DB.length, 1e3),
            lambda: longtime_exponent(pk, DB, catalog, rset, x,
                                      (100.0 * tau_sys, 1e3 * tau_sys)),
            # below the floor the foreign catalog's lifetime would set
            lambda: longtime_exponent(pk, DB, catalog, rset, x, (1.0, 10.0)),
            lambda: asymptotic_cancellation(pk, DB, catalog, rset, x, 1e3 * tau_sys),
            lambda: tau_system(DB, catalog),
        ]
        for _ in range(2):
            for call in calls:
                with pytest.raises(ValueError, match=match):
                    call()
        assert rset not in self.memo

    def test_validity_warning_on_every_call(self, sb_data):
        mid = GaussianPacket(-3.5, 0.5, 0.45, SB.units)
        for _ in range(2):
            with pytest.warns(PacketValidityWarning):
                transmitted_packet(mid, SB, sb_data.catalog, sb_data.residues, 20.0, 5.0)

    def test_entry_lives_as_long_as_its_residue_set(self):
        catalog = sweep_poles(SB, PoleSearchConfig(n_seed=60))
        rset = residues(SB, catalog)
        record = resonances._pole_record(SB, catalog, rset)
        assert not any(a.flags.writeable for a in (record.poles, record.coefs, record.z))
        assert self.record_of(rset) is record
        entries = len(self.memo)
        # sets built and dropped leave no entry behind
        for _ in range(3):
            resonances._pole_record(SB, catalog, residues(SB, catalog))
        gc.collect()
        assert len(self.memo) == entries
        # the entry holds neither its residue set nor, once the set is gone,
        # its catalog: both die with no cache clear, and the entry goes
        held_set, held_catalog = weakref.ref(rset), weakref.ref(catalog)
        del rset, catalog
        gc.collect()
        assert held_set() is None and held_catalog() is None
        assert len(self.memo) == entries - 1


# x = L (2e5)^fx: fx of the distance 2L
_FX_2L = math.log(2.0) / math.log(2e5)


class TestNearField:
    """The bracket's arguments below |z| = 150 get the rational approximation
    in their chunk's Faddeeva pass: over the whole chunk where every argument
    lies there, gathered after the continued fraction otherwise."""

    @pytest.fixture(scope="class")
    def systems(self, preset_data):
        # the presets, and sb with a 300-pole catalog, whose every argument
        # lies below |z| = 150 at 2L early on
        out = {name: (d.packet, d.profile, d.catalog, d.residues)
               for name, d in preset_data.items()}
        small = sweep_poles(SB, PoleSearchConfig(n_seed=300))
        out["sb300"] = (preset_data["sb"].packet, SB, small, residues(SB, small))
        return out

    @staticmethod
    def points(packet, profile, catalog, fracs):
        """Points x = L (2e5)^fx at t from 1e-3 tau_sys (ft = 0) to 4 flight
        times (ft = 1), log-uniform in both."""
        fx, ft = np.array(fracs, dtype=float).reshape(-1, 2).T
        xs = profile.length * 2e5**fx
        t_lo = 1e-3 * tau_system(profile, catalog)
        t_hi = 4.0 * (xs - packet.x_c) / packet.velocity
        return xs, t_lo * (t_hi / t_lo) ** ft

    @staticmethod
    def near_count(ev, xs, ts):
        """How many arguments ``i y'`` lie below |z| = 150, as ``_w_upper``
        tests it."""
        z = ev._y_args(xs, ts) * 1j
        return np.count_nonzero(z.real * z.real + z.imag * z.imag < 150.0**2)

    @settings(max_examples=40, deadline=None)
    @given(
        system=st.sampled_from(["sb", "db", "qb", "sb300"]),
        fracs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=32),
    )
    # every argument near, in one chunk; none near; and one near argument,
    # whose aliased one-element product would round differently
    @example(system="sb300", fracs=[(_FX_2L, 0.0)] * 30)
    @example(system="sb", fracs=[(1.0, 0.0)])
    @example(system="sb", fracs=[(0.72, 0.95)])
    def test_bulk_call_equals_one_point_calls_bit_for_bit(self, systems, system, fracs):
        # all-near chunks, mixed chunks and no-near chunks give each point
        # the bits its own one-point call gives
        packet, profile, catalog, rset = systems[system]
        xs, ts = self.points(packet, profile, catalog, fracs)
        bulk = transmitted_packet_log(packet, profile, catalog, rset, xs, ts)
        single = np.array([
            transmitted_packet_log(packet, profile, catalog, rset, x, t)
            for x, t in zip(xs, ts)
        ])
        assert np.array_equal(bulk.view(np.uint64), single.view(np.uint64))

    def test_all_near_and_no_near_rows_exist(self, systems):
        # the property's first two examples cover both ends of the dispatch
        for system, fracs, share in (("sb300", (_FX_2L, 0.0), 1.0), ("sb", (1.0, 0.0), 0.0)):
            packet, profile, catalog, rset = systems[system]
            ev = _BracketEvaluator(packet, profile, catalog, rset)
            xs, ts = self.points(packet, profile, catalog, [fracs])
            assert self.near_count(ev, xs, ts) == share * len(ev.kp)


class TestZetaEta:
    def test_eta_algebra(self):
        assert eta(10.0, 10.0, 5.0) == 1.0
        assert eta(15.0, 10.0, 5.0) == 4.0
        with pytest.raises(ValueError):
            eta(4.0, 10.0, 5.0)

    def test_eta_energy_map_exact(self):
        u = SB.units
        k0 = u.wavenumber_of_energy(0.115)
        k = 1.3 * k0
        t0 = 1e5
        length = SB.length
        x = u.velocity(k) * t0 + length
        x0 = u.velocity(k0) * t0 + length
        e_mapped = eta(x, x0, length) * u.energy_of_wavenumber(k0)
        assert e_mapped == pytest.approx(u.energy_of_wavenumber(k), rel=1e-12)

    def test_zeta_nonnegative_and_matches_spectrum_at_large_t(self, sb_data):
        pk = sb_data.packet
        length = SB.length
        x0 = 2e5 * length
        t0 = (x0 - length) / pk.velocity
        etas = np.linspace(0.2, 3.0, 101)
        xs = length + np.sqrt(etas) * (x0 - length)
        zs = zeta(pk, SB, sb_data.catalog, sb_data.residues, xs, t0)
        assert np.all(zs >= 0.0)
        t_ref = transmission_coefficient(SB, etas * pk.energy)
        assert np.max(np.abs(zs - t_ref)) <= 2e-2

    def test_monotone_improvement_with_t0(self, sb_data):
        pk = sb_data.packet
        length = SB.length
        t_flight = (2e5 * length - length) / pk.velocity
        etas = np.linspace(0.2, 3.0, 101)
        t_ref = transmission_coefficient(SB, etas * pk.energy)
        devs = []
        for scale in (0.05, 0.25, 1.0):
            t0 = scale * t_flight
            xs = length + np.sqrt(etas) * pk.velocity * t0
            zs = zeta(pk, SB, sb_data.catalog, sb_data.residues, xs, t0)
            devs.append(np.max(np.abs(zs - t_ref)))
        assert devs[0] > devs[1] > devs[2]

    def test_small_t0_reproduces_only_fast_components(self, db_data):
        # early snapshots carry the fast part of the spectrum; the slow, sharp
        # resonance at eta = 1 is not reconstructed yet
        pk = db_data.packet
        length = DB.length
        t0 = 0.05 * (2e5 * length - length) / pk.velocity
        etas = np.linspace(0.2, 3.0, 281)
        xs = length + np.sqrt(etas) * pk.velocity * t0
        zs = zeta(pk, DB, db_data.catalog, db_data.residues, xs, t0)
        dev = np.abs(zs - transmission_coefficient(DB, etas * pk.energy))
        needle = np.abs(etas - 1.0) < 0.1
        fast = etas > 2.0
        assert np.max(dev[needle]) > 0.3
        assert np.max(dev[fast]) < 0.05

    def test_domain_checks(self, sb_data):
        pk = sb_data.packet
        with pytest.raises(ValueError):
            zeta(pk, SB, sb_data.catalog, sb_data.residues, SB.length, 10.0)
        with pytest.raises(ValueError):
            zeta(pk, SB, sb_data.catalog, sb_data.residues, 20.0, 0.0)

    @pytest.mark.parametrize("shape", [(2,), (1,)])
    def test_array_t0_refused_by_name(self, sb_data, shape):
        # an ambiguous truth value for (2,) and a TypeError for (1,) before
        pk = sb_data.packet
        with pytest.raises(ValueError, match=rf"t0 must be a scalar, got shape \({shape[0]},\)"):
            zeta(pk, SB, sb_data.catalog, sb_data.residues, 2 * SB.length, np.full(shape, 10.0))

    def test_free_density_underflow(self, sb_data):
        pk = sb_data.packet
        with pytest.raises(FreeDensityUnderflowError):
            zeta(pk, SB, sb_data.catalog, sb_data.residues, 5e4, 1.0)


class TestLongtime:
    def test_synthetic_pure_power_law(self):
        ts = np.geomspace(10.0, 1e4, 60)
        assert fit_loglog_slope(ts, ts**-3.0) == pytest.approx(-3.0, abs=1e-12)

    def test_minus_three_all_presets(self, preset_data):
        for data in preset_data.values():
            profile = data.profile
            tau_sys = tau_system(profile, data.catalog)
            slope = longtime_exponent(
                data.packet,
                profile,
                data.catalog,
                data.residues,
                2 * profile.length,
                (50 * tau_sys, 500 * tau_sys),
            )
            assert slope == pytest.approx(-3.0, abs=0.1)

    def test_window_floor_enforced(self, sb_data):
        tau_sys = tau_system(SB, sb_data.catalog)
        with pytest.raises(ValueError):
            longtime_exponent(
                sb_data.packet, SB, sb_data.catalog, sb_data.residues,
                2 * SB.length, (tau_sys, 500 * tau_sys),
            )

    def test_nonasymptotic_regime_detected(self, db_data):
        # a far detector whose packet arrival postdates the whole window is
        # still filling: the local slope drifts and the fit must refuse
        tau_sys = tau_system(DB, db_data.catalog)
        with pytest.raises(NonAsymptoticError):
            longtime_exponent(
                db_data.packet, DB, db_data.catalog, db_data.residues,
                2e5 * DB.length, (50 * tau_sys, 500 * tau_sys),
            )

    def test_window_halves_agree_in_asymptotic_regime(self, db_data):
        # complement of the NonAsymptoticError trigger: past the 50 hbar/Gamma
        # floor the local slope is stable across the window
        tau_sys = tau_system(DB, db_data.catalog)
        slope = longtime_exponent(
            db_data.packet, DB, db_data.catalog, db_data.residues,
            2 * DB.length, (50 * tau_sys, 120 * tau_sys), samples=16,
        )
        assert slope == pytest.approx(-3.0, abs=0.15)
        # a numpy integer is an integer count of samples
        assert slope == longtime_exponent(
            db_data.packet, DB, db_data.catalog, db_data.residues,
            2 * DB.length, (50 * tau_sys, 120 * tau_sys), samples=np.int64(16),
        )

    @pytest.mark.parametrize("t_range, samples", [
        ((50.0, 50.0), 40),
        ((500.0, 50.0), 40),
        ((50.0, math.nan), 40),
        ((50.0, 500.0), 2),
        ((50.0, 500.0), 3),
        ((50.0, 500.0), 4.5),  # np.geomspace raised a TypeError of its own
    ])
    def test_degenerate_window_rejected(self, sb_data, t_range, samples):
        # an empty window leaves every sample at one time, so the slope fit
        # divides by zero, and fewer than four samples leave a half's fit
        # with one point; both returned a slope before
        tau_sys = tau_system(SB, sb_data.catalog)
        lo, hi = (v * tau_sys for v in t_range)
        with pytest.raises(ValueError, match="t_max > t_min and samples >= 4"):
            longtime_exponent(
                sb_data.packet, SB, sb_data.catalog, sb_data.residues,
                2 * SB.length, (lo, hi), samples=samples,
            )


class TestCancellation:
    def test_leading_asymptotics_cancel_constant(self, preset_data):
        for data in preset_data.values():
            profile = data.profile
            tau_sys = tau_system(profile, data.catalog)
            residual, scale = asymptotic_cancellation(
                data.packet, profile, data.catalog, data.residues,
                2 * profile.length, 1e3 * tau_sys,
            )
            c_mag = abs(coefficient_C(profile, data.catalog, data.residues))
            assert type(residual) is float and type(scale) is float
            assert residual <= 10.0 * scale
            assert residual <= 1e-2 * c_mag

    @pytest.mark.parametrize("name", ["x_d", "t"])
    def test_array_point_refused_by_name(self, sb_data, name):
        # an array x_d met a non-broadcastable output operand deep in the sum before
        point = {"x_d": 2.0 * SB.length, "t": 1e3}
        point[name] = np.linspace(1.0, 1.5, 120) * point[name]
        with pytest.raises(ValueError, match=rf"{name} must be a scalar, got shape \(120,\)"):
            asymptotic_cancellation(
                sb_data.packet, SB, sb_data.catalog, sb_data.residues, point["x_d"], point["t"]
            )

    @pytest.mark.parametrize("x, t", [
        (0.5, 1e3),
        (-20.0, 1e3),
        (2.0, -5.0),
        (2.0, 0.0),
        (2.0, math.nan),
        (math.inf, 1e3),
        (math.nan, 1e3),
        (2.0, 1e308),
    ])
    def test_outside_domain_rejected(self, sb_data, x, t):
        # x in units of L, t in fs: a point left of L, a non-positive or
        # non-finite time and a non-finite x all returned numbers (or NaN
        # after RuntimeWarnings) before; now a ValueError comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                asymptotic_cancellation(
                    sb_data.packet, SB, sb_data.catalog, sb_data.residues,
                    x * SB.length, t,
                )


class TestTauSystem:
    def test_sb_uses_first_pole(self, sb_data):
        widths = sb_data.catalog.widths(SB.units)
        assert tau_system(SB, sb_data.catalog) == pytest.approx(
            SB.units.hbar / widths[0]
        )

    def test_db_and_qb_pick_smallest_below_barrier(self, db_data, qb_data):
        assert tau_system(DB, db_data.catalog) == pytest.approx(640.4, abs=1.0)
        assert tau_system(QB, qb_data.catalog) == pytest.approx(142.2, abs=1.0)
