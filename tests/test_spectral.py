import math
from fractions import Fraction

import numpy as np
import pytest

from quasilevy import (
    DiscreteLaw,
    FrequencyBasis,
    NonpositiveTau,
    NotSeparated,
    QuasiTriplet,
    StepTooCoarse,
    TripletParams,
    ZeroOnPath,
    cf_eval,
    cf_from_triplet,
    distinguished_log,
    gamma_tau,
    levy_spectral_function,
    mean_motion,
    module_generator,
    triplet_lattice,
    triplet_multibasis,
    truncate_renormalize,
    tv_distance,
    winding_number,
)
from oracles import (
    geometric_cf,
    geometric_lambdas,
    law_values_masses,
    mercator_lambdas,
    random_lattice_law,
    truncated_geometric,
)

B1 = FrequencyBasis((1,))
B2 = FrequencyBasis((1, math.sqrt(2)))
B3 = FrequencyBasis((1, math.sqrt(2), math.sqrt(3)))
# mass 0.7 at the origin, 0.3 over 11 points of [-2, 2]^2 with weights 11, 10, ..., 1
TWELVE_ATOM_LAW = DiscreteLaw.from_pairs(B2, [((0, 0), 0.7)] + [
    (c, 0.3 * (11 - i) / 66) for i, c in enumerate(
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (2, 0), (0, 2), (1, -2), (-2, 1), (2, 2)])
])


def geometric_law(p: Fraction = Fraction(1, 2), n_atoms: int = 61) -> DiscreteLaw:
    return truncated_geometric(p, n_atoms)[0]


class TestDistinguishedLog:
    def test_constant_path(self):
        out = distinguished_log(np.ones(50, dtype=complex))
        assert np.allclose(out, 0.0)

    def test_winding_forces_branch_continuation(self):
        theta = np.linspace(0.0, 2 * math.pi, 400)
        out = distinguished_log(np.exp(1j * theta))
        assert out[-1] == pytest.approx(2j * math.pi, abs=1e-10)

    def test_no_winding_in_right_half_plane(self):
        theta = np.linspace(0.0, 2 * math.pi, 400)
        vals = 0.8 + 0.2 * np.exp(1j * theta)
        vals = vals / vals[0]
        out = distinguished_log(vals)
        assert out[-1] == pytest.approx(0.0, abs=1e-10)

    def test_exp_inverts(self):
        theta = np.linspace(0.0, 11.0, 900)
        vals = np.exp(1j * 2.3 * theta) * (1.0 + 0.4 * np.sin(theta) * 1j)
        vals = vals / vals[0]
        out = distinguished_log(vals)
        assert np.max(np.abs(np.exp(out) - vals)) < 1e-12

    def test_zero_on_path(self):
        with pytest.raises(ZeroOnPath):
            distinguished_log(np.array([1.0, 1e-15, 1.0]))

    def test_step_too_coarse(self):
        with pytest.raises(StepTooCoarse):
            distinguished_log(np.array([1.0, np.exp(2.9j), np.exp(5.8j)]))

    def test_winding_number(self):
        theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        assert winding_number(np.exp(3j * theta)) == 3
        assert winding_number(0.9 + 0.1 * np.exp(1j * theta)) == 0


class TestTripletLattice:
    def test_point_mass(self):
        trip = triplet_lattice(DiscreteLaw.from_values([(3, 1.0)]))
        assert trip.gamma_value() == 3
        assert not trip.lambdas

    def test_geometric_matches_series_oracle(self):
        trip = triplet_lattice(geometric_law())
        oracle = geometric_lambdas(0.5, 20)
        for k, lam in oracle.items():
            assert trip.lambdas[(k,)] == pytest.approx(lam, abs=1e-9)
        assert trip.gamma_coords == (0,)
        # frozen spot values
        assert trip.lambdas[(1,)] == pytest.approx(0.5, abs=1e-9)
        assert trip.lambdas[(2,)] == pytest.approx(0.125, abs=1e-9)
        assert trip.lambdas[(3,)] == pytest.approx(0.041666666666666664, abs=1e-9)

    def test_bernoulli_negative_weight(self):
        trip = triplet_lattice(DiscreteLaw.from_lattice({0: 0.8, 1: 0.2}))
        oracle = mercator_lambdas(0.25, 12)
        for k, lam in oracle.items():
            assert trip.lambdas[(k,)] == pytest.approx(lam, abs=1e-9)
        assert trip.lambdas[(1,)] == pytest.approx(0.25, abs=1e-9)
        assert trip.lambdas[(2,)] == pytest.approx(-0.03125, abs=1e-9)
        assert trip.gamma_coords == (0,)

    def test_not_separated_zero(self):
        with pytest.raises(NotSeparated):
            triplet_lattice(DiscreteLaw.from_lattice({0: 0.5, 1: 0.5}))

    def test_gamma_exact_in_module(self):
        law = DiscreteLaw.from_lattice(
            {0: 0.6, 1: 0.25, 2: 0.15}, offset=Fraction(1, 2), span=Fraction(2, 3)
        )
        trip = triplet_lattice(law)
        assert all(isinstance(c, int) for c in trip.gamma_coords)
        assert module_generator(law).contains(trip.gamma_value())
        for coords in trip.lambdas:
            assert module_generator(law).contains(trip.frequency_value(coords))

    def test_shifted_geometric_gamma(self):
        masses = {k + 2: m for (k,), m in geometric_law(n_atoms=40).atoms.items()}
        law = DiscreteLaw.from_lattice(masses)
        trip = triplet_lattice(law)
        assert trip.gamma_value() == 2

    def test_winding_shifts_gamma(self):
        # dominant mass at 1: q(z) = 0.2 + 0.8 z has its root inside the disk,
        # so the phase winds once and gamma = 1
        trip = triplet_lattice(DiscreteLaw.from_lattice({0: 0.2, 1: 0.8}))
        assert trip.gamma_value() == 1
        oracle = mercator_lambdas(0.25, 12)  # 0.8 z (1 + 0.25/z)
        for k, lam in oracle.items():
            assert trip.lambdas[(-k,)] == pytest.approx(lam, abs=1e-9)

    def test_uniqueness_across_grid_sizes(self):
        law = geometric_law()
        t1 = triplet_lattice(law, TripletParams(n_init=1024))
        t2 = triplet_lattice(law, TripletParams(n_init=2048))
        keys = set(t1.lambdas) | set(t2.lambdas)
        for k in keys:
            assert t1.lambdas.get(k, 0.0) == pytest.approx(t2.lambdas.get(k, 0.0), abs=1e-9)
        assert t1.gamma_coords == t2.gamma_coords

    def test_real_valuedness_diagnostic(self):
        trip = triplet_lattice(geometric_law())
        assert trip.diagnostics["max_imag"] < 1e-10

    def test_rejected_passes_recorded(self):
        law = DiscreteLaw.from_lattice({0: 0.52, 1: 0.48})
        trip = triplet_lattice(law, TripletParams(n_init=64))
        passes = trip.diagnostics["passes"]
        assert len(passes) >= 2
        assert [p["n"] for p in passes] == [64 << j for j in range(len(passes))]
        assert trip.diagnostics["grid_n"] == 2 * passes[-1]["n"]
        for p in passes:
            assert p["guard"] in ("phase_jump", "imag", "alias", "residual")
            assert p["value"] > 1e-10
        assert triplet_lattice(law).diagnostics["passes"] == []

    def test_roundtrip_residual_small(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            law = random_lattice_law(rng)
            trip = triplet_lattice(law)
            assert trip.diagnostics["residual"] <= 1e-10
            assert trip.tail_bound < 1e-9


class TestTripletMultibasis:
    def test_d1_consistency(self):
        law = DiscreteLaw.from_lattice(
            {0: 0.6, 1: 0.25, 2: 0.15}, offset=Fraction(1, 2), span=Fraction(2, 3)
        )
        # the same values over a basis half as fine: every coord doubles, the reduced law does not
        (alpha,) = law.basis.alphas
        finer = DiscreteLaw.from_pairs(FrequencyBasis((alpha / 2,)),
                                       [((2 * c,), m) for (c,), m in law.atoms.items()])
        t_lat = triplet_lattice(law)
        t_mb = triplet_multibasis(finer)
        assert t_mb.gamma_value() == t_lat.gamma_value()
        assert {t_mb.frequency_value(k): v for k, v in t_mb.lambdas.items()} == {
            t_lat.frequency_value(k): v for k, v in t_lat.lambdas.items()}
        assert t_mb.diagnostics["lattice"] == ((2 * t_lat.diagnostics["lattice"][0][0],), ((8,),))

    def test_irrational_basis_roundtrip(self):
        from quasilevy import reconstruct_law

        basis = FrequencyBasis((1, math.sqrt(2)))
        law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.7), ((1, 0), 0.2), ((0, 1), 0.1)])
        trip = triplet_multibasis(law)
        assert trip.gamma_coords == (0, 0)
        rec, _ = reconstruct_law(trip)
        assert tv_distance(rec, law) <= 1e-8

    @pytest.mark.parametrize("law", [
        *(DiscreteLaw.from_pairs(B2, [((0, 0), 0.5 + e), ((1, 0), 0.25 - e / 2), ((0, 1), 0.25 - e / 2)])
          for e in (0.2, 0.1, 0.05)),
        TWELVE_ATOM_LAW,
        DiscreteLaw.from_pairs(B3, [((0, 0, 0), 0.7), ((1, 0, 0), 0.1), ((0, 1, 0), 0.1), ((-1, 0, 1), 0.1)]),
    ], ids=["gap0.2", "gap0.1", "gap0.05", "twelve_atoms", "d3"])
    def test_small_start_grid_agrees_with_large(self, law):
        # the default d >= 2 start grows by the guards; a start of 1024 (128 in d = 3,
        # the largest start within the grid budget) must read the same triplet
        small = triplet_multibasis(law)
        large = triplet_multibasis(law, TripletParams(n_init=1024 if law.basis.d == 2 else 128))
        assert small.diagnostics["grid_n"] < large.diagnostics["grid_n"]
        assert small.gamma_coords == large.gamma_coords
        keys = set(small.lambdas) | set(large.lambdas)
        ell1 = sum(abs(small.lambdas.get(k, 0.0) - large.lambdas.get(k, 0.0)) for k in keys)
        assert ell1 <= small.tail_bound + large.tail_bound

    def test_h_law_not_separated(self):
        basis = FrequencyBasis((math.sqrt(2) - 1, 1))
        law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.5), ((1, 0), 0.25), ((0, 1), 0.25)])
        with pytest.raises(NotSeparated) as err:
            triplet_multibasis(law)
        assert err.value.certificate.torus_infimum_only


class TestMeanMotion:
    def test_point_mass_exact(self):
        law = DiscreteLaw.from_values([(3, 1.0)])
        trip = triplet_lattice(law)
        mm = mean_motion(law, trip, t_schedule=(5.0, 20.0))
        assert mm.exact == 3.0
        for _, est in mm.estimates:
            assert est == pytest.approx(3.0, abs=1e-9)

    def test_poisson_deviation_bound(self):
        lam = 0.7
        masses = {k: math.exp(-lam) * lam**k / math.factorial(k) for k in range(20)}
        tot = sum(masses.values())
        law = DiscreteLaw.from_lattice({k: m / tot for k, m in masses.items()})
        trip = triplet_lattice(law)
        mm = mean_motion(law, trip, t_schedule=(8.0, 32.0, 128.0))
        assert mm.exact == pytest.approx(0.0, abs=1e-12)
        for t_end, est in mm.estimates:
            assert abs(est - mm.exact) <= mm.deviation_bound / t_end + 1e-9
            assert abs(est) <= 2 * lam / t_end + 1e-9

    def test_offset_propagates(self):
        masses = {k + 2: m for (k,), m in geometric_law(n_atoms=40).atoms.items()}
        law = DiscreteLaw.from_lattice(masses)
        trip = triplet_lattice(law)
        mm = mean_motion(law, trip, t_schedule=(64.0,))
        assert mm.exact == 2.0
        assert mm.estimates[-1][1] == pytest.approx(2.0, abs=mm.deviation_bound / 64.0 + 1e-9)


class TestGammaTau:
    def test_empty_lambdas(self):
        trip = QuasiTriplet(B1, (4,), {})
        for tau in (0.5, 1.0, 7.3):
            assert gamma_tau(trip, tau) == pytest.approx(4.0)

    def test_sine_vanishes(self):
        trip = QuasiTriplet(B1, (0,), {(1,): 1.0})
        assert gamma_tau(trip, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_period(self):
        trip = QuasiTriplet(B1, (0,), {(1,): 1.0})
        assert gamma_tau(trip, math.pi / 2) == pytest.approx(2 / math.pi, abs=1e-15)

    def test_nonpositive_tau(self):
        trip = QuasiTriplet(B1, (0,), {(1,): 1.0})
        with pytest.raises(NonpositiveTau):
            gamma_tau(trip, 0.0)

    def test_matches_path_argument(self):
        law = geometric_law()
        trip = triplet_lattice(law)
        for tau in (0.9, 2.4, 5.5):
            ts = np.linspace(0.0, tau, 4000)
            arg_tau = distinguished_log(cf_eval(law, ts))[-1].imag
            assert gamma_tau(trip, tau) == pytest.approx(
                arg_tau / tau, abs=trip.tail_bound / tau + 1e-9
            )


class TestSpectralFunction:
    def test_single_jump(self):
        sf = levy_spectral_function(QuasiTriplet(B1, (0,), {(1,): 0.7}))
        assert sf(0.5) == pytest.approx(-0.7)
        assert sf(1.5) == 0.0

    def test_empty(self):
        sf = levy_spectral_function(QuasiTriplet(B1, (0,), {}))
        assert sf(-3.0) == 0.0 and sf(2.0) == 0.0

    def test_two_sided_convention(self):
        trip = QuasiTriplet(B1, (0,), {(-1,): 0.3, (1,): 0.4})
        sf = levy_spectral_function(trip)
        assert sf(-0.5) == pytest.approx(0.3)  # mass at frequencies <= -0.5
        assert sf(0.5) == pytest.approx(-0.4)  # minus mass strictly above 0.5
        assert sf(-1.5) == 0.0 and sf(1.5) == 0.0

    def test_vanishes_at_infinity_exactly(self):
        trip = triplet_lattice(DiscreteLaw.from_lattice({0: 0.8, 1: 0.2}))
        sf = levy_spectral_function(trip)
        top = max(u for u, _ in sf.jumps)
        bottom = min(u for u, _ in sf.jumps)
        assert sf(top + 1.0) == 0.0
        assert sf(min(bottom, 0.0) - 1.0) == 0.0

    def test_variation_outside_finite(self):
        trip = triplet_lattice(geometric_law())
        sf = levy_spectral_function(trip)
        assert sf.variation_outside(0.5) == pytest.approx(trip.ell1(), abs=1e-12)
        assert sf.variation_outside(3.5) < sf.variation_outside(0.5)

    def test_rejects_zero(self):
        sf = levy_spectral_function(QuasiTriplet(B1, (0,), {(1,): 0.7}))
        with pytest.raises(ValueError):
            sf(0.0)


class TestCenteringConsistency:
    def test_triplet_reproduces_cf_through_gamma_tau(self):
        rng = np.random.default_rng(29)
        laws = [geometric_law(), DiscreteLaw.from_lattice({0: 0.8, 1: 0.2})]
        laws += [random_lattice_law(rng) for _ in range(3)]
        for law in laws:
            trip = triplet_lattice(law)
            us = np.array([float(trip.frequency_value(c)) for c in trip.lambdas])
            lams = np.array(list(trip.lambdas.values()))
            for tau in rng.uniform(0.05, 12.0, size=30):
                gt = gamma_tau(trip, float(tau))
                expo = 1j * tau * gt
                if us.size:
                    expo += np.sum(lams * (np.exp(1j * tau * us) - 1 - 1j * np.sin(tau * us)))
                assert np.exp(expo) == pytest.approx(cf_eval(law, float(tau)), abs=1e-9)

    def test_plain_form_matches(self):
        law = geometric_law()
        trip = triplet_lattice(law)
        ts = np.linspace(0.1, 9.0, 40)
        assert np.max(np.abs(cf_from_triplet(trip, ts) - cf_eval(law, ts))) < 1e-9


class TestTruncation:
    def test_sup_error_bounded_by_twice_dropped_mass(self):
        # the truncation inequality, checked against the closed-form CF
        for n in (5, 10, 20):
            law_n, dropped = truncated_geometric(Fraction(1, 2), n)
            ts = np.linspace(0.0, 4 * math.pi, 20001)
            f_full = geometric_cf(0.5, ts)
            f_n = cf_eval(law_n, ts)
            sup = float(np.max(np.abs(f_full - f_n)))
            assert sup <= 2 * float(dropped) + 1e-12
            assert dropped == Fraction(1, 2) ** n

    def test_truncate_renormalize_helper(self):
        full, _ = truncated_geometric(Fraction(1, 2), 120)
        law5, bound = truncate_renormalize(full, 5)
        assert len(law5.atoms) == 5
        assert bound == pytest.approx(2.0 * (0.5**5), rel=1e-6)
        vals, masses = law_values_masses(law5)
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_bound_lands_in_tail(self):
        full, _ = truncated_geometric(Fraction(1, 2), 120)
        law20, bound = truncate_renormalize(full, 20)
        trip = triplet_lattice(law20, input_tv_error=bound)
        assert trip.tail_bound >= bound * 0.9  # the log bound dominates the raw TV error
        trip0 = triplet_lattice(law20)
        assert trip0.tail_bound < trip.tail_bound
