import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelwave.potential import (
    NegativeEnergyError,
    PoleProximityError,
    PotentialProfile,
    UnitSystem,
    ZeroWavenumberError,
    t22,
    t22_with_prime,
    transfer_matrix,
    transmission_amplitude,
    transmission_coefficient,
)
from tunnelwave.presets import preset_profile

SB = preset_profile("sb")
DB = preset_profile("db")
QB = preset_profile("qb")
FREE = PotentialProfile(((8.0, 0.0),))
_RNG = np.random.default_rng(7)
RANDOM = PotentialProfile(tuple(zip(_RNG.uniform(0.5, 6.0, 4), _RNG.uniform(0.0, 0.4, 4))))
# repeats heights at other widths, repeats (height, width) layers apart, and
# has both signs of a zero height: every kind of factor the kernel shares
SHARED = PotentialProfile(
    ((2.0, 0.23), (1.0, 0.0), (3.0, 0.23), (2.5, -0.0))
    + ((2.0, 0.23), (1.0, 0.0), (1.5, 0.1), (1.0, -0.0))
)


def reference_t22(profile, k, sqrt, exp):
    """(t22, dt22/dk) from the full 4-entry local-basis product and its
    derivative, M <- F M and M' <- G M + F M' per factor; ``sqrt``/``exp``
    from cmath for a complex k, from numpy for an array."""
    c = profile.units.inv_mass_coeff
    sign = 1.0 - 2.0 * (k.real < 0.0)
    qs = [k] + [sign * sqrt(k * k - h / c) for _, h in profile.layers] + [k]
    dqs = [1.0] + [k / q for q in qs[1:-1]] + [1.0]
    heights = [0.0] + [h for _, h in profile.layers] + [0.0]
    m = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    d = (0j, 0j, 0j, 0j)

    def apply(f, g):
        (f11, f12, f21, f22), (g11, g12, g21, g22) = f, g
        (m11, m12, m21, m22), (d11, d12, d21, d22) = m, d
        return (
            (
                f11 * m11 + f12 * m21,
                f11 * m12 + f12 * m22,
                f21 * m11 + f22 * m21,
                f21 * m12 + f22 * m22,
            ),
            (
                g11 * m11 + g12 * m21 + f11 * d11 + f12 * d21,
                g11 * m12 + g12 * m22 + f11 * d12 + f12 * d22,
                g21 * m11 + g22 * m21 + f21 * d11 + f22 * d21,
                g21 * m12 + g22 * m22 + f21 * d12 + f22 * d22,
            ),
        )

    for j in range(len(profile.layers) + 1):
        qa, qb = qs[j], qs[j + 1]
        dv = (heights[j] - heights[j + 1]) / (2.0 * c)
        g = dv / (qb * (qa + qb))
        h = 1.0 - g
        jp = k * dv / (qa * (qb * qb * qb))
        m, d = apply((h, g, g, h), (jp, -jp, -jp, jp))
        if j < len(profile.layers):
            w = profile.layers[j][0]
            ep = exp(1j * qb * w)
            em = 1.0 / ep
            dp = 1j * w * dqs[j + 1] * ep
            dm = -1j * w * dqs[j + 1] * em
            m, d = apply((ep, 0j, 0j, em), (dp, 0j, 0j, dm))
    length = profile.length
    phase = exp(1j * k * length)
    return phase * m[3], 1j * length * phase * m[3] + phase * d[3]


def mp_transfer_matrix(profile, k):
    """(t11, t12, t21, t22) at 50 digits by matching psi and psi' at every
    interface in global coordinates, one left unit state per column."""
    with mp.workdps(50):
        k = mp.mpc(k)
        c = mp.mpf(profile.units.inv_mass_coeff)
        qs = [k] + [mp.sqrt(k * k - mp.mpf(h) / c) for _, h in profile.layers] + [k]
        xs = [mp.mpf(0)]
        for w, _ in profile.layers:
            xs.append(xs[-1] + mp.mpf(w))
        cols = []
        for a, b in ((mp.mpc(1), mp.mpc(0)), (mp.mpc(0), mp.mpc(1))):
            for j, x in enumerate(xs):
                ql, qr = qs[j], qs[j + 1]
                p, m = a * mp.exp(1j * ql * x), b * mp.exp(-1j * ql * x)
                s, d = p + m, (ql / qr) * (p - m)
                a = (s + d) / 2 * mp.exp(-1j * qr * x)
                b = (s - d) / 2 * mp.exp(1j * qr * x)
            cols.append((complex(a), complex(b)))
        return cols[0][0], cols[1][0], cols[0][1], cols[1][1]


class TestUnits:
    def test_constants(self):
        u = UnitSystem(mass_ratio=1.0)
        assert u.hbar == pytest.approx(0.6582119569)
        assert u.inv_mass_coeff == pytest.approx(0.0380998)

    def test_wavenumber_of_energy(self):
        u = UnitSystem(mass_ratio=0.067)
        assert u.wavenumber_of_energy(0.0) == 0.0
        assert u.wavenumber_of_energy(0.23) == pytest.approx(0.6360, abs=1e-4)

    def test_round_trip(self):
        u = UnitSystem(mass_ratio=0.067)
        e = 0.115
        back = u.energy_of_wavenumber(u.wavenumber_of_energy(e))
        assert abs(back - e) <= 1e-13

    def test_negative_energy_rejected(self):
        with pytest.raises(NegativeEnergyError):
            UnitSystem(mass_ratio=0.067).wavenumber_of_energy(-0.1)

    @pytest.mark.parametrize("mass_ratio", [0.0, -0.067, math.inf, math.nan])
    def test_mass_ratio_finite_and_positive(self, mass_ratio):
        # PotentialProfile's rule: inf would give inv_mass_coeff = 0
        with pytest.raises(ValueError, match="finite and positive"):
            UnitSystem(mass_ratio=mass_ratio)


class TestProfileValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PotentialProfile(())

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            PotentialProfile(((0.0, 0.1),))

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            PotentialProfile(((1.0, -0.1),))

    def test_rejects_non_finite(self):
        for layers, mass_ratio in (
            (((math.inf, 0.23),), 0.067),
            (((math.nan, 0.23),), 0.067),
            (((5.0, math.inf),), 0.067),
            (((5.0, math.nan),), 0.067),
            (((5.0, 0.23),), math.inf),
            (((5.0, 0.23),), math.nan),
        ):
            with pytest.raises(ValueError, match="finite"):
                PotentialProfile(layers, mass_ratio)

    def test_length_and_barrier(self):
        assert QB.length == pytest.approx(25.0)
        assert DB.length == pytest.approx(15.0)
        assert SB.barrier_height == 0.23
        assert not FREE.has_barrier


class TestTransferMatrix:
    def test_zero_potential_is_identity(self):
        m = transfer_matrix(FREE, 0.7 + 0.1j)
        for got, want in [(m.t11, 1), (m.t12, 0), (m.t21, 0), (m.t22, 1)]:
            assert abs(got - want) <= 1e-12

    def test_zero_wavenumber_rejected(self):
        with pytest.raises(ZeroWavenumberError):
            transfer_matrix(SB, 0.0)
        # db's well: the moved point is still at its branch point k = 0
        with pytest.raises(ZeroWavenumberError):
            t22(DB, np.array([0.3, 1e-8]))

    def test_pseudo_unitarity_below_barrier(self):
        m = transfer_matrix(SB, SB.units.wavenumber_of_energy(0.115))
        assert abs(abs(m.t11) ** 2 - abs(m.t21) ** 2 - 1.0) <= 1e-10

    def test_determinant_random_complex(self):
        # Exact det = 1; in floating point the extraction degrades like
        # exp(2 sum |Im q_j| w_j), so the check runs where that factor is
        # representable at 1e-10 (propagating regime, |Im k| <= 0.1).
        rng = np.random.default_rng(0)
        for profile in (SB, DB, QB):
            k_top = profile.units.wavenumber_of_energy(profile.barrier_height)
            for _ in range(1000):
                k = complex(rng.uniform(1.2 * k_top, 3.0), rng.uniform(-0.1, 0.1))
                m = transfer_matrix(profile, k)
                assert abs(m.determinant - 1.0) <= 1e-10

    def test_flux_conservation_real_axis(self):
        rng = np.random.default_rng(1)
        for profile in (SB, DB, QB):
            for _ in range(300):
                k = rng.uniform(0.02, 3.0)
                m = transfer_matrix(profile, k)
                t_amp = 1.0 / m.t22
                r_amp = -m.t21 / m.t22
                assert abs(abs(t_amp) ** 2 + abs(r_amp) ** 2 - 1.0) <= 1e-10

    def test_entries_against_mpmath_product(self):
        rng = np.random.default_rng(9)
        for profile in (SB, DB, QB, RANDOM):
            for _ in range(25):
                k = complex(rng.uniform(0.05, 3.0), rng.uniform(-0.6, 0.3))
                m = transfer_matrix(profile, k)
                got = (m.t11, m.t12, m.t21, m.t22)
                for g, want in zip(got, mp_transfer_matrix(profile, k)):
                    assert abs(g - want) <= 1e-12 * abs(want)

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = complex(rng.uniform(0.05, 3.0), rng.uniform(-0.6, 0.6))
            lhs = t22(QB, -k.conjugate())
            rhs = t22(QB, k).conjugate()
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestT22:
    def test_free_t22_and_derivative(self):
        for k in (0.3, 1.0 - 0.2j, 2.5 + 0.4j):
            val, der = t22_with_prime(FREE, k)
            assert abs(val - 1.0) <= 1e-12
            assert abs(der) <= 1e-10

    def test_derivative_against_finite_difference(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(100):
            k = complex(rng.uniform(0.1, 2.5), rng.uniform(-0.5, 0.2))
            der = t22_with_prime(DB, k)[1]
            fd = (t22(DB, k + h) - t22(DB, k - h)) / (2.0 * h)
            assert abs(der - fd) <= 1e-6 * abs(fd)

    def test_sb_pole_location_from_reference_table(self):
        # zero of t22 at the first single-barrier resonance (E1 = 0.2885 eV,
        # Gamma1 = 0.1045 eV); converged coordinates frozen by the sweep
        kappa = 0.7151328825520719 - 0.06423768440198004j
        assert abs(t22(SB, kappa)) <= 1e-10

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(4)
        ks = rng.uniform(0.1, 3.0, 64) + 1j * rng.uniform(-0.6, 0.1, 64)
        bulk = t22(QB, ks)
        single = np.array([t22(QB, complex(v)) for v in ks])
        assert np.max(np.abs(bulk - single) / np.abs(single)) <= 1e-13

    @pytest.mark.parametrize(
        "profile", [SB, DB, QB, RANDOM, SHARED], ids=["sb", "db", "qb", "random", "shared"]
    )
    def test_bit_equal_to_four_entry_composition(self, profile):
        rng = np.random.default_rng(10)
        ks = rng.uniform(0.05, 3.0, 500) + 1j * rng.uniform(-0.8, 0.3, 500)
        want_val, want_prime = reference_t22(profile, ks, np.sqrt, np.exp)
        assert np.array_equal(t22(profile, ks), want_val)
        got_val, got_prime = t22_with_prime(profile, ks)
        assert np.array_equal(got_val, want_val)
        assert np.array_equal(got_prime, want_prime)
        for k in ks.tolist():
            want = reference_t22(profile, k, cmath.sqrt, cmath.exp)
            assert t22_with_prime(profile, k) == want
            assert t22(profile, k) == want[0]

    def test_layer_plan_shares_distinct_factors(self):
        # qb: 2 wavevectors, 4 interfaces and 3 propagation factors for 7 layers
        heights, faces, spans, steps = QB.layer_plan
        assert (len(heights), len(faces), len(spans), len(steps)) == (2, 4, 3, 8)
        # 0.0 and -0.0 are kept apart, so shared factors cannot change a bit
        heights, faces, spans, _ = SHARED.layer_plan
        assert [math.copysign(1.0, h) for h in heights if h == 0.0] == [1.0, -1.0]
        assert (len(heights), len(faces), len(spans)) == (4, 8, 6)

    def test_branch_point_evaluated_at_moved_k(self):
        # E = V: the layer wavevector is 0 and the point moves to k (1 + 1e-9)
        k_branch = SB.units.wavenumber_of_energy(SB.barrier_height)
        moved = k_branch * (1.0 + 1e-9)
        assert t22(SB, k_branch) == t22(SB, moved)
        assert t22_with_prime(SB, k_branch) == t22_with_prime(SB, moved)
        assert transfer_matrix(SB, k_branch) == transfer_matrix(SB, moved)
        ks = np.array([k_branch, -k_branch])
        for got, want in zip(t22_with_prime(SB, ks), t22_with_prime(SB, ks * (1.0 + 1e-9))):
            assert np.array_equal(got, want)
        assert np.array_equal(t22(SB, ks), t22(SB, ks * (1.0 + 1e-9)))

    def test_off_branch_moves_only_the_branch_point(self):
        k_branch = SB.units.wavenumber_of_energy(SB.barrier_height)
        ks = np.array([0.3, k_branch, 1.1 - 0.2j, -0.7])
        ordinary = ks[[0, 2, 3]]
        vals = t22(SB, ks)
        assert vals[1] == t22(SB, np.array([k_branch * (1.0 + 1e-9)]))[0]
        assert np.array_equal(vals[[0, 2, 3]], t22(SB, ordinary))
        got, want = t22_with_prime(SB, ks), t22_with_prime(SB, ordinary)
        for g, w in zip(got, want):
            assert np.array_equal(g[[0, 2, 3]], w)


class TestTransmission:
    def test_free_transmission_is_unity(self):
        assert transmission_amplitude(FREE, 0.8) == pytest.approx(1.0)
        assert transmission_coefficient(FREE, 0.1) == pytest.approx(1.0)

    def test_sb_closed_form_at_half_barrier(self):
        v, b = 0.23, 8.0
        e = v / 2.0
        c = SB.units.inv_mass_coeff
        kappa = math.sqrt((v - e) / c)
        closed = 1.0 / (1.0 + v**2 * math.sinh(kappa * b) ** 2 / (4.0 * e * (v - e)))
        assert transmission_coefficient(SB, e) == pytest.approx(closed, rel=1e-10)

    def test_db_resonance_peak(self):
        assert transmission_coefficient(DB, 0.080054) >= 0.99

    def test_sb_high_energy_transparent(self):
        assert transmission_coefficient(SB, 10 * 0.23) >= 0.98

    def test_bounded_grid(self):
        for profile in (SB, DB, QB):
            v = profile.barrier_height
            energies = np.linspace(5 * v / 10_000, 5 * v, 10_000)
            t_co = transmission_coefficient(profile, energies)
            assert np.all(t_co >= 0.0) and np.all(t_co <= 1.0)

    def test_continuous_across_barrier_top(self):
        # branch-point crossing must not introduce a jump
        v = SB.barrier_height
        energies = np.array([v - 1e-6, v - 1e-9, v + 1e-9, v + 1e-6])
        t_co = transmission_coefficient(SB, energies)
        assert np.max(np.abs(np.diff(t_co))) <= 1e-5

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(NegativeEnergyError):
            transmission_coefficient(SB, 0.0)

    def test_array_matches_scalars_and_rejects_a_pole(self, sb_data):
        ks = np.array([0.3, 0.8 - 0.05j, 2.0])
        amp = transmission_amplitude(SB, ks)
        single = np.array([transmission_amplitude(SB, k) for k in ks])
        assert amp.shape == ks.shape
        assert np.max(np.abs(amp - single) / np.abs(single)) <= 1e-13
        # the catalog's first pole itself, as the sweep accepted it
        pole = complex(sb_data.catalog.poles[0])
        for k in (pole, np.append(ks, pole)):
            with pytest.raises(PoleProximityError, match="transmission pole"):
                transmission_amplitude(SB, k)


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.floats(0.5, 6.0), min_size=1, max_size=4),
    heights=st.lists(st.floats(0.0, 0.4), min_size=4, max_size=4),
    k_re=st.floats(0.1, 2.5),
    k_im=st.floats(-0.3, 0.1),
    split=st.integers(0, 3),
)
def test_layer_splitting_leaves_t22_unchanged(widths, heights, k_re, k_im, split):
    layers = tuple((w, h) for w, h in zip(widths, heights))
    profile = PotentialProfile(layers)
    split = split % len(layers)
    w, h = layers[split]
    split_layers = layers[:split] + ((w / 2, h), (w / 2, h)) + layers[split + 1 :]
    profile_split = PotentialProfile(split_layers)
    k = complex(k_re, k_im)
    a = t22(profile, k)
    b = t22(profile_split, k)
    assert abs(a - b) <= 1e-12 * abs(a)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(-0.6, 0.6))
def test_time_reversal_property(k_re, k_im):
    k = complex(k_re, k_im)
    try:
        lhs = transmission_amplitude(DB, -k.conjugate())
        rhs = transmission_amplitude(DB, k).conjugate()
    except ArithmeticError:
        return
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
