import cmath
import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from tunnelwave import resonances
from tunnelwave.poles import _DEDUP_TOL, PoleSearchConfig, sweep_poles
from tunnelwave.potential import (
    PoleProximityError,
    PotentialProfile,
    t22_with_prime,
    transmission_amplitude,
    transmission_coefficient,
)
from tunnelwave.presets import preset_profile
from tunnelwave.resonances import (
    NormalizationDegenerateError,
    NotAPoleError,
    _pair_arrays,
    _pole_terms,
    coefficient_C,
    expansion_t,
    resonance_state,
    residues,
)

SB = preset_profile("sb")
DB = preset_profile("db")
QB = preset_profile("qb")
# a thin and a thick barrier around a well, at the default mass ratio 0.067:
# the states of their first resonances, grown from u(0) = 1, end small at
# x = L (|u(L)| = 2.5e-4, 7.0e-5 and 7.4e-5)
THIN_THICK = {
    "1-3-14nm": PotentialProfile(((1.0, 0.4), (3.0, 0.0), (14.0, 0.4))),
    "1-3-16nm": PotentialProfile(((1.0, 0.4), (3.0, 0.0), (16.0, 0.4))),
    "0.5-4-12nm": PotentialProfile(((0.5, 0.5), (4.0, 0.0), (12.0, 0.5))),
}

_GL_N, _GL_W = np.polynomial.legendre.leggauss(10)


def quadrature_norm(profile, state):
    """Independent composite-GL evaluation of the non-Hermitian norm."""
    c = profile.units.inv_mass_coeff
    total = 0j
    for (width, height), (a, b) in zip(profile.layers, state.coefficients):
        q = cmath.sqrt(state.kappa**2 - height / c)
        edges = np.linspace(0.0, width, 1001)
        mids = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        xi = (mids[:, None] + half[:, None] * _GL_N[None, :]).ravel()
        ws = (half[:, None] * _GL_W[None, :]).ravel()
        u = a * np.exp(1j * q * xi) + b * np.exp(-1j * q * xi)
        total += complex(np.sum(ws * u * u))
    return total + 1j * (state.u0**2 + state.u_l**2) / (2.0 * state.kappa)


def truncated_c(profile, catalog, residue_set, n):
    """C_N over the first ``n`` pole pairs: each pair gives ``-2 Im z_n``."""
    return -2.0 * float(np.sum(_pair_arrays(profile, catalog, residue_set, n)[1].imag))


def mp_expansion(k, kap, z):
    """``i k sum_n [z_n/(k - kappa_n) - conj(z_n)/(k + conj(kappa_n))]`` at
    50 digits, term by term as the expansion is defined."""
    with mp.workdps(50):
        kk = mp.mpc(k)
        total = mp.mpc(0)
        for kp, zz in zip(kap, z):
            kp, zz = mp.mpc(kp), mp.mpc(zz)
            total += zz / (kk - kp) - mp.conj(zz) / (kk + mp.conj(kp))
        return complex(1j * kk * total)


def mp_end(profile, k):
    """``(u(L), m22)`` at the mpc ``k`` and the working precision, for the
    state grown from u(0) = 1, u'(0) = -ik by the local-basis recursion;
    m22 is its incoming amplitude at x = L, and t22 = exp(ikL) m22."""
    layers = profile.layers
    c = mp.mpf(profile.units.inv_mass_coeff)
    qs = [k] + [mp.sqrt(k * k - mp.mpf(h) / c) for _, h in layers] + [k]
    a, b = mp.mpc(0), mp.mpc(1)
    for j in range(len(layers) + 1):
        ratio = qs[j] / qs[j + 1]
        a, b = (
            ((1 + ratio) * a + (1 - ratio) * b) / 2,
            ((1 - ratio) * a + (1 + ratio) * b) / 2,
        )
        if j == len(layers):
            break
        ep = mp.exp(1j * qs[j + 1] * mp.mpf(layers[j][0]))
        a, b = a * ep, b / ep
    return a + b, b


def mp_prime(profile, k):
    """``exp(-ikL) t22'(k)`` at the working precision, t22' by a central
    difference of step 1e-20."""
    length = sum(mp.mpf(w) for w, _ in profile.layers)
    h = mp.mpf(10) ** -20

    def t22(kk):
        return mp.exp(1j * kk * length) * mp_end(profile, kk)[1]

    return mp.exp(-1j * k * length) * (t22(k + h) - t22(k - h)) / (2 * h)


def mp_boundary_values(profile, kappa):
    """(u0, uL, r) of the normalized state at ``kappa`` at 50 digits, its
    norm ``i u(L) exp(-i kappa L) t22'(kappa)``."""
    with mp.workdps(50):
        k = mp.mpc(kappa)
        u_l, _ = mp_end(profile, k)
        scale = 1 / mp.sqrt(1j * u_l * mp_prime(profile, k))
        return complex(scale), complex(u_l * scale), complex(scale * u_l * scale / k)


def mp_pole_residue(profile, kappa):
    """``1/(i kappa exp(-i kappa L) t22'(kappa))`` at the 50-digit zero of
    t22 that Newton's method reaches from ``kappa``."""
    with mp.workdps(50):
        k = mp.mpc(kappa)
        for _ in range(10):
            step = mp_end(profile, k)[1] / mp_prime(profile, k)  # t22 / t22'
            k -= step
            if abs(step) < mp.mpf(10) ** -40:
                break
        return complex(1 / (1j * k * mp_prime(profile, k)))


class TestResonanceState:
    def test_boundary_conditions_all_presets(self, preset_data):
        for data in preset_data.values():
            for kappa in data.catalog.poles[:8]:
                st = resonance_state(data.profile, kappa)
                # left boundary outgoing by construction; right checked inside;
                # verify u(L) from the stored layer coefficients matches
                a_l, b_l = st.coefficients[-1]
                width, height = data.profile.layers[-1]
                q = cmath.sqrt(kappa**2 - height / data.profile.units.inv_mass_coeff)
                u_left_of_l = a_l * cmath.exp(1j * q * width) + b_l * cmath.exp(
                    -1j * q * width
                )
                assert abs(u_left_of_l - st.u_l) <= 1e-10 * abs(st.u_l)

    def test_normalization_against_quadrature(self, preset_data):
        for data in preset_data.values():
            for kappa in data.catalog.poles[:5]:
                st = resonance_state(data.profile, kappa)
                norm = quadrature_norm(data.profile, st)
                assert abs(norm - 1.0) <= 1e-8

    def test_not_a_pole_rejected(self):
        with pytest.raises(NotAPoleError):
            resonance_state(SB, 0.5 - 0.05j)

    @pytest.mark.parametrize("profile", THIN_THICK.values(), ids=THIN_THICK.keys())
    def test_every_certified_pole_gets_a_residue(self, profile):
        # the residue does not depend on u(L), so a state that ends small
        # costs it no digits
        catalog = sweep_poles(profile, PoleSearchConfig(n_seed=300))
        rset = residues(profile, catalog)
        assert len(catalog) == len(rset) == 300
        for kappa, r_n in zip(catalog.poles[:5], rset.residues[:5]):
            want = mp_pole_residue(profile, kappa)
            assert abs(r_n - want) <= 1e-12 * abs(want)

    def test_degenerate_norm_rejected(self, sb_data, monkeypatch):
        monkeypatch.setattr(resonances, "_NORM_MIN", 1e300)
        with pytest.raises(NormalizationDegenerateError, match=r"\|norm\| = "):
            residues(SB, sb_data.catalog)

    def test_parity_of_symmetric_profile(self, db_data):
        # DB is mirror symmetric, so |u(0)| = |u(L)| for every state
        for kappa in db_data.catalog.poles[:10]:
            st = resonance_state(DB, kappa)
            assert abs(abs(st.u0) - abs(st.u_l)) <= 1e-8 * abs(st.u0)


class TestResidues:
    def test_against_contour_integral(self, preset_data):
        # residue of t(k) e^{ikL} / (ik) at kappa_n equals r_n
        for data in preset_data.values():
            profile = data.profile
            length = profile.length
            nodes = np.exp(2j * math.pi * np.arange(64) / 64)
            for kappa, r_n in zip(data.catalog.poles[:5], data.residues.residues[:5]):
                ring = kappa + 1e-4 * nodes
                t_vals = np.array(
                    [transmission_amplitude(profile, complex(k)) for k in ring]
                )
                f_vals = t_vals * np.exp(1j * ring * length) / (1j * ring)
                contour = np.mean(f_vals * (ring - kappa))
                assert abs(contour - r_n) <= 1e-4 * abs(r_n)

    def test_against_derivative_identity(self, preset_data):
        # independent check: residue of 1/t22 is 1/t22'(kappa)
        for data in preset_data.values():
            length = data.profile.length
            for kappa, r_n in zip(data.catalog.poles[:20], data.residues.residues[:20]):
                lhs = 1.0 / t22_with_prime(data.profile, kappa)[1]
                rhs = 1j * kappa * r_n * cmath.exp(-1j * kappa * length)
                assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_derivative_identity_every_pole(self, preset_data):
        for data in preset_data.values():
            kappa = data.catalog.poles
            r_n = data.residues.residues
            rhs = 1j * kappa * r_n * np.exp(-1j * kappa * data.profile.length)
            lhs = np.array([1.0 / t22_with_prime(data.profile, k)[1] for k in kappa])
            assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-8

    def test_batch_equals_single_pole_states(self, preset_data):
        for data in preset_data.values():
            rset = data.residues
            for i in range(0, len(data.catalog), 7):
                st = resonance_state(data.profile, data.catalog.poles[i])
                assert abs(st.u0 - rset.u0[i]) <= 1e-12 * abs(st.u0)
                assert abs(st.u_l - rset.u_l[i]) <= 1e-12 * abs(st.u_l)
                r_single = st.u0 * st.u_l / st.kappa
                assert abs(r_single - rset.residues[i]) <= 1e-12 * abs(r_single)

    def test_only_resonance_state_records_layers(self, preset_data, monkeypatch):
        # residues reads u(0) and u(L) alone; the kernel's per-layer record,
        # two arrays per layer, is asked for by resonance_state only
        records = []
        kernel = resonances._second_column

        def spy(*args, entries=None, **kwargs):
            records.append(entries)
            return kernel(*args, entries=entries, **kwargs)

        monkeypatch.setattr(resonances, "_second_column", spy)
        for data in preset_data.values():
            residues(data.profile, data.catalog)
        assert records == [None] * 3
        for data in preset_data.values():
            records.clear()
            resonance_state(data.profile, data.catalog.poles[0])
            [record] = records
            assert len(record) == len(data.profile.layers)
            assert all(len(entry) == 2 for entry in record)

    def test_top_qb_states_against_50_digits(self, qb_data):
        # the interface coefficient must not cancel at high energy.  u(L)
        # carries the phase of about exp(i kappa L) relative to u(0), and
        # rounding kappa w in each layer moves it by up to ~eps |kappa| L / 2
        # (1.4e-12 at the top qb poles), so uL and r get that much more
        length = qb_data.profile.length
        rset = qb_data.residues
        for i in range(len(qb_data.catalog) - 20, len(qb_data.catalog)):
            kappa = complex(qb_data.catalog.poles[i])
            phase_tol = 1e-12 + 2.0**-52 * abs(kappa) * length
            got = (rset.u0[i], rset.u_l[i], rset.residues[i])
            for value, want, tol in zip(
                got, mp_boundary_values(QB, kappa), (1e-12, phase_tol, phase_tol)
            ):
                assert abs(value - want) <= tol * abs(want)

    def test_non_pole_in_catalog_rejected(self, db_data):
        poles = np.insert(db_data.catalog.poles, 3, 0.5 - 0.05j)
        tampered = dataclasses.replace(
            db_data.catalog, poles=poles, residuals=np.zeros(len(poles))
        )
        with pytest.raises(NotAPoleError, match=r"at \(0\.5-0\.05j\)"):
            residues(DB, tampered)

    def test_db_single_pole_breit_wigner_window(self, db_data):
        units = DB.units
        e_1 = db_data.catalog.positions(units)[0]
        g_1 = db_data.catalog.widths(units)[0]
        energies = np.linspace(e_1 - 3 * g_1, e_1 + 3 * g_1, 200)
        k = np.sqrt(energies / units.inv_mass_coeff)
        t_exact = transmission_coefficient(DB, energies)
        t_single = np.abs(expansion_t(DB, k, db_data.catalog, db_data.residues, 1)) ** 2
        assert np.max(np.abs(t_single - t_exact)) <= 5e-2


class TestResidueSetData:
    def test_non_finite_or_unequal_arrays_rejected(self, sb_data):
        rset = sb_data.residues
        for field in ("residues", "u0", "u_l"):
            bad = dict(residues=rset.residues, u0=rset.u0, u_l=rset.u_l)
            bad[field] = np.array(bad[field])
            bad[field][5] = complex(math.nan, 0.0)
            with pytest.raises(ValueError, match=f"ResidueSet.{field} holds a non-finite value"):
                resonances.ResidueSet(**bad)
        with pytest.raises(ValueError, match=rf"u_l has {len(rset) - 1} entries, "
                                             rf"residues has {len(rset)}"):
            resonances.ResidueSet(rset.residues, rset.u0, rset.u_l[:-1])

    def test_caller_array_stays_writeable(self):
        r = np.ones(3, complex)
        rset = resonances.ResidueSet(r, r.copy(), r.copy())
        assert r.flags.writeable
        assert not rset.residues.flags.writeable
        r[0] = 2.0
        assert rset.residues[0] == 1.0

    def test_set_of_another_catalog_rejected(self):
        # sb's residues at n_seed 80 on its n_seed 60 catalog, and back:
        # neither is used by its first entries or indexed past its end, in
        # the expansion or in the closed form's pole terms
        small = sweep_poles(SB, PoleSearchConfig(n_seed=60))
        large = sweep_poles(SB, PoleSearchConfig(n_seed=80))
        for catalog, other in ((small, large), (large, small)):
            rset = residues(SB, other)
            match = rf"residue set has {len(other)} entries, catalog has {len(catalog)}"
            with pytest.raises(ValueError, match=match):
                expansion_t(SB, 0.5, catalog, rset)
            with pytest.raises(ValueError, match=match):
                _pole_terms(SB, catalog, rset)


class TestExpansion:
    def test_zero_momentum_limit(self, sb_data):
        val = expansion_t(SB, 1e-12 + 0j, sb_data.catalog, sb_data.residues, 50)
        assert abs(val) <= 1e-10

    def test_sb_300_poles_reproduce_spectrum(self, sb_data):
        v = SB.barrier_height
        energies = np.linspace(5 * v / 1000, 5 * v, 1000)
        k = np.sqrt(energies / SB.units.inv_mass_coeff)
        t_exact = transmission_coefficient(SB, energies)
        amp = expansion_t(SB, k, sb_data.catalog, sb_data.residues, 300)
        assert np.max(np.abs(np.abs(amp) ** 2 - t_exact)) <= 1e-2

    def test_qb_truncation_ladder(self, qb_data):
        v = QB.barrier_height
        energies = np.linspace(5 * v / 500, 5 * v, 500)
        below = energies <= v
        k = np.sqrt(energies / QB.units.inv_mass_coeff)
        t_exact = transmission_coefficient(QB, energies)
        errs = {}
        for n in (10, 1000, 4000):
            amp = expansion_t(QB, k, qb_data.catalog, qb_data.residues, n)
            errs[n] = np.abs(np.abs(amp) ** 2 - t_exact)
        # 10 poles: tunneling region reproduced, above-barrier not yet
        assert np.max(errs[10][below]) <= 0.15
        assert np.max(errs[10][~below]) > 0.15
        # high window keeps improving between 1000 and 4000 poles
        window = energies >= 4 * v
        assert np.max(errs[1000][window]) > np.max(errs[4000][window])

    def test_error_monotone_in_truncation(self, preset_data):
        for data in preset_data.values():
            profile = data.profile
            v = profile.barrier_height
            energies = np.linspace(5 * v / 400, 5 * v, 400)
            k = np.sqrt(energies / profile.units.inv_mass_coeff)
            t_exact = transmission_coefficient(profile, energies)
            sizes = [n for n in (10, 30, 100, 300, 1000) if n <= len(data.catalog)]
            errors = []
            for n in sizes:
                amp = expansion_t(profile, k, data.catalog, data.residues, n)
                errors.append(np.max(np.abs(np.abs(amp) ** 2 - t_exact)))
            for a, b in zip(errors, errors[1:]):
                assert b <= a * 1.01

    def test_time_reversal_at_every_truncation(self, db_data):
        rng = np.random.default_rng(8)
        for n in (1, 7, 50):
            for _ in range(20):
                k = complex(rng.uniform(0.1, 2.0), rng.uniform(-0.4, 0.4))
                lhs = expansion_t(DB, -k.conjugate(), db_data.catalog, db_data.residues, n)
                rhs = expansion_t(DB, k, db_data.catalog, db_data.residues, n)
                assert abs(lhs - rhs.conjugate()) <= 1e-10 * max(abs(rhs), 1.0)

    def test_pole_proximity_rejected(self, sb_data):
        with pytest.raises(PoleProximityError):
            expansion_t(SB, sb_data.catalog.poles[0], sb_data.catalog, sb_data.residues)

    def test_oversized_truncation_rejected(self, sb_data):
        catalog, rset = sb_data.catalog, sb_data.residues
        for n in (0, len(catalog) + 1):
            with pytest.raises(ValueError, match=rf"1\.\.{len(catalog)}"):
                expansion_t(SB, 0.5, catalog, rset, n)


class TestExpansionKernel:
    @pytest.mark.parametrize("name,n", [("sb", 300), ("db", 1000), ("qb", 4000)])
    def test_against_50_digit_pair_sum(self, preset_data, name, n):
        data = preset_data[name]
        profile = data.profile
        kap, z = _pair_arrays(profile, data.catalog, data.residues, n)
        rng = np.random.default_rng(11)
        energies = rng.uniform(0.005, 5.0, 8) * profile.barrier_height
        k = np.concatenate([
            np.sqrt(energies / profile.units.inv_mass_coeff),
            kap[:4].real + 1e-7,
        ])
        amp = expansion_t(profile, k, data.catalog, data.residues, n)
        ref = np.array([mp_expansion(x, kap, z) for x in k])
        assert np.max(np.abs(amp - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("mirror", [False, True])
    def test_pole_proximity_complex_k(self, sb_data, mirror):
        catalog, rs = sb_data.catalog, sb_data.residues
        tol = _DEDUP_TOL
        step = np.exp(1j * np.pi / 3)
        grid = np.linspace(0.2, 2.0, 7) + 0j
        for kappa in catalog.poles[[0, 5, -1]]:
            pole = -kappa.conjugate() if mirror else kappa
            with pytest.raises(PoleProximityError):
                expansion_t(SB, pole + 0.5 * tol * step, catalog, rs)
            with pytest.raises(PoleProximityError):
                expansion_t(SB, np.append(grid, pole + 0.5 * tol * step), catalog, rs)
            far = expansion_t(SB, np.append(grid, pole + 2.0 * tol * step), catalog, rs)
            assert np.all(np.isfinite(far))

    @pytest.mark.parametrize("mirror", [False, True])
    def test_pole_proximity_real_k(self, db_data, mirror, monkeypatch):
        # a tolerance of 2 |Im kappa_1| puts the real axis at tol/2 from the
        # narrow db resonance
        kappa = db_data.catalog.poles[0]
        tol = 2.0 * abs(kappa.imag)
        monkeypatch.setattr(resonances, "_DEDUP_TOL", tol)
        catalog, rs = db_data.catalog, db_data.residues
        k_re = -kappa.real if mirror else kappa.real
        with pytest.raises(PoleProximityError):
            expansion_t(DB, k_re, catalog, rs)
        with pytest.raises(PoleProximityError):
            expansion_t(DB, np.array([0.3, k_re, 0.9]), catalog, rs)
        sign = -1.0 if mirror else 1.0
        far = expansion_t(DB, np.array([k_re + sign * 2.0 * tol, k_re - sign * 2.0 * tol]),
                          catalog, rs)
        assert np.all(np.isfinite(far))

    def test_scalar_and_shape(self, sb_data):
        catalog, rs = sb_data.catalog, sb_data.residues
        val = expansion_t(SB, 0.7, catalog, rs, 100)
        assert type(val) is complex
        k = np.linspace(0.1, 3.0, 12).reshape(3, 4) - 0.01j
        amp = expansion_t(SB, k, catalog, rs, 100)
        assert amp.shape == (3, 4)
        flat = expansion_t(SB, k.ravel(), catalog, rs, 100)
        assert np.array_equal(amp.ravel(), flat)
        assert expansion_t(SB, k[1, 2], catalog, rs, 100) == flat[6]

    def test_working_set_stays_small(self, qb_data):
        # 2000 energies x 4000 pole pairs; the block is evaluated in cache-sized
        # chunks, so the peak stays far below the 8e6-element block
        k = np.sqrt(np.linspace(0.01, 5.0, 2000) * QB.barrier_height / QB.units.inv_mass_coeff)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            expansion_t(QB, k, qb_data.catalog, qb_data.residues, 4000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestCoefficientC:
    def test_pole_terms_list_each_pole_then_its_mirror(self, db_data):
        kap, z = _pair_arrays(DB, db_data.catalog, db_data.residues)
        c, poles, coefs = _pole_terms(DB, db_data.catalog, db_data.residues)
        # C = i sum over +-n of z_n, with z_{-n} = -conj(z_n)
        assert c.imag == 0.0 and abs(c - 1j * np.sum(np.concatenate([z, -np.conj(z)]))) <= 1e-14
        assert np.array_equal(poles, np.concatenate([kap, -np.conj(kap)]))
        assert np.array_equal(coefs, np.concatenate([z * kap, np.conj(z * kap)]))

    def test_real_valued(self, preset_data):
        for data in preset_data.values():
            c = coefficient_C(data.profile, data.catalog, data.residues)
            assert c.imag == 0.0

    def test_converges_to_one_half(self, preset_data):
        # The pair sum converges to ~1/2, not to t(k -> infinity) = 1: the
        # expansion's large-k limit cannot be taken term by term.  Verified
        # against the residue/derivative identity and the spectra tests.
        for data in preset_data.values():
            assert abs(truncated_c(data.profile, data.catalog, data.residues, 300) - 0.5) <= 0.05
            c_full = coefficient_C(data.profile, data.catalog, data.residues)
            assert abs(c_full.real - 0.5) <= 0.01

    def test_matches_far_momentum_limit_of_truncated_expansion(self, sb_data):
        # algebraic limit of the truncated sum: expansion(k >> all kappa) -> C_N
        k_far = 1e3 * math.pi / SB.length
        for n in (50, 150):
            c_n = truncated_c(SB, sb_data.catalog, sb_data.residues, n)
            val = expansion_t(SB, k_far, sb_data.catalog, sb_data.residues, n)
            assert abs(val - c_n) <= 0.05
