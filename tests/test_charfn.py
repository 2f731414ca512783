import math
from fractions import Fraction

import numpy as np
import pytest

from quasilevy import (
    DiscreteLaw,
    FrequencyBasis,
    InvalidArgument,
    SeparationParams,
    certify_separation,
    cf_eval,
    dominant_mass_bound,
    reduce_support,
    torus_lift,
)
from quasilevy import charfn
from oracles import dense_min_abs_cf, law_values_masses, random_lattice_law, random_planar_law

B1 = FrequencyBasis((1,))
B2 = FrequencyBasis((1, math.sqrt(2)))
B3 = FrequencyBasis((1, math.sqrt(2), math.sqrt(3)))


def bernoulli(p0: float, p1: float) -> DiscreteLaw:
    return DiscreteLaw.from_lattice({0: p0, 1: p1})


def h_law(p_alpha: float, p_one: float, alpha: float = math.sqrt(2) - 1) -> DiscreteLaw:
    basis = FrequencyBasis((alpha, 1))
    return DiscreteLaw.from_pairs(
        basis, [((0, 0), 0.5), ((1, 0), p_alpha), ((0, 1), p_one)]
    )


def planar_gap_law(e: float) -> DiscreteLaw:
    """(0.5+e, 0.25-e/2, 0.25-e/2) on (1, sqrt 2): inf |f| = 2e, reached at theta = (pi, pi)."""
    return DiscreteLaw.from_pairs(B2, [((0, 0), 0.5 + e), ((1, 0), 0.25 - e / 2), ((0, 1), 0.25 - e / 2)])


def spatial_gap_law(e: float) -> DiscreteLaw:
    """(0.5+e, and (0.5-e)/3 three times) on (1, sqrt 2, sqrt 3): inf |f| = 2e."""
    other = (0.5 - e) / 3
    return DiscreteLaw.from_pairs(
        B3, [((0, 0, 0), 0.5 + e), ((1, 0, 0), other), ((0, 1, 0), other), ((0, 0, 1), other)]
    )


class TestCfEval:
    def test_point_mass(self):
        law = DiscreteLaw.from_values([(3, 1.0)])
        for t in (0.0, 0.7, 2.5):
            assert cf_eval(law, t) == pytest.approx(np.exp(3j * t), abs=1e-14)

    def test_bernoulli_half_zero_at_pi(self):
        assert abs(cf_eval(bernoulli(0.5, 0.5), math.pi)) < 1e-15

    def test_normalization_at_zero(self):
        law = DiscreteLaw.from_lattice({k: math.exp(-0.7) * 0.7**k / math.factorial(k)
                                        for k in range(18)},)
        # masses renormalized on input; f(0) = 1 exactly up to float sum
        law = DiscreteLaw.from_lattice({k: float(m) / float(sum(law.atoms.values()))
                                        for (k,), m in law.atoms.items()})
        assert cf_eval(law, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_bounded_many_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            law = random_lattice_law(rng, rational_fraction=0.0)
            t = float(rng.uniform(-50, 50))
            v = cf_eval(law, t)
            assert abs(v) <= 1 + 1e-12
        assert cf_eval(law, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestTorusLift:
    def test_d1_lattice(self):
        law = bernoulli(0.3, 0.7)
        phi = torus_lift(law)
        theta = 1.234
        assert phi([theta]) == pytest.approx(0.3 + 0.7 * np.exp(1j * theta), abs=1e-14)

    def test_h_law_form(self):
        law = h_law(0.25, 0.25)
        phi = torus_lift(law)
        t1, t2 = 0.9, 2.2
        expected = 0.5 + 0.25 * np.exp(1j * t1) + 0.25 * np.exp(1j * t2)
        assert phi([t1, t2]) == pytest.approx(expected, abs=1e-14)

    def test_diagonal_identity(self):
        alpha = math.sqrt(2) - 1
        law = h_law(0.2, 0.3, alpha)
        phi = torus_lift(law)
        for t in (0.3, 1.7, 9.1):
            assert phi.diagonal(t) == pytest.approx(cf_eval(law, t), abs=1e-10)

    def test_diagonal_identity_random(self):
        rng = np.random.default_rng(17)
        law = random_lattice_law(rng)
        phi = torus_lift(law)
        alphas = np.array([float(a) for a in law.basis.alphas])
        for t in rng.uniform(-20, 20, size=25):
            assert phi(np.mod(t * alphas, 2 * math.pi)) == pytest.approx(
                cf_eval(law, float(t)), abs=1e-10
            )


class TestDominantMassBound:
    def test_three_examples(self):
        assert dominant_mass_bound(bernoulli(0.6, 0.4)) == pytest.approx(0.2)
        assert dominant_mass_bound(bernoulli(0.5, 0.5)) is None
        law = DiscreteLaw.from_lattice({0: 0.9, 1: 0.05, 2: 0.05})
        assert dominant_mass_bound(law) == pytest.approx(0.8)

    def test_bound_below_sampled_modulus(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            law = random_lattice_law(rng)
            bound = dominant_mass_bound(law)
            if bound is None:
                continue
            vals, masses = law_values_masses(law)
            assert bound <= dense_min_abs_cf(vals, masses, 80.0, 40_000) + 1e-12


class TestCertifySeparation:
    def test_bernoulli_half_zero_at_pi(self):
        cert = certify_separation(bernoulli(0.5, 0.5))
        assert cert.verdict == "zero_found"
        assert cert.zero_theta[0] == pytest.approx(math.pi, abs=1e-6)
        assert cert.zero_t == pytest.approx(math.pi, abs=1e-6)
        assert not cert.torus_infimum_only

    def test_h_law_infimum_zero_on_torus(self):
        cert = certify_separation(h_law(0.25, 0.25))
        assert cert.verdict == "zero_found"
        assert cert.torus_infimum_only
        assert cert.zero_theta == pytest.approx((math.pi, math.pi), abs=1e-6)

    def test_poisson_truncated_certified(self):
        lam = 0.7
        masses = {k: math.exp(-lam) * lam**k / math.factorial(k) for k in range(21)}
        tot = sum(masses.values())
        law = DiscreteLaw.from_lattice({k: m / tot for k, m in masses.items()})
        cert = certify_separation(law, SeparationParams(target_gap=0.999, max_depth=60))
        assert cert.verdict == "certified"
        assert cert.mu >= math.exp(-2 * lam) - 1e-3

    def test_certified_is_sound_against_dense_sampling(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            law = random_lattice_law(rng)
            cert = certify_separation(law)
            assert cert.verdict == "certified"
            vals, masses = law_values_masses(law)
            sampled = dense_min_abs_cf(vals, masses, 120.0, 60_000)
            assert sampled >= cert.mu - 1e-9

    def test_undecided_when_depth_exhausted(self):
        law = DiscreteLaw.from_lattice({0: 0.5 + 1e-9, 1: 0.5 - 1e-9})
        cert = certify_separation(law, SeparationParams(max_depth=6))
        assert cert.verdict == "undecided"
        assert cert.best_inf_estimate > 0

    def test_lattice_period_minimum_matches_torus_infimum(self):
        # |f| is (2*pi/b)-periodic; its one-period minimum must agree with the
        # bracket [mu, best_inf_estimate] that the torus search certifies.
        rng = np.random.default_rng(41)
        for _ in range(6):
            law = random_lattice_law(rng, max_width=8, rational_fraction=0.5)
            cert = certify_separation(law, SeparationParams(target_gap=0.9999, max_depth=60))
            assert cert.verdict == "certified"
            _, columns, _ = reduce_support(law.atoms)
            period = 2 * math.pi / float(law.basis.value(columns[0]))
            vals, masses = law_values_masses(law)
            pmin = dense_min_abs_cf(vals, masses, period, 4_000_000)
            assert pmin >= cert.mu - 1e-9
            assert pmin <= cert.best_inf_estimate + 1e-7


    def test_second_order_bound_cell_counts(self):
        # the first-order Lipschitz bound needed 12,954 and 30,244 cells here
        for law, gap, infimum, most in [(planar_gap_law(0.03), 0.999, 0.06, 1_000),
                                        (spatial_gap_law(0.05), 0.99, 0.1, 2_000)]:
            cert = certify_separation(law, SeparationParams(target_gap=gap))
            assert cert.verdict == "certified"
            assert cert.search_log["cells"] <= most
            assert gap * infimum <= cert.mu <= infimum

    def test_search_log_reports_margin_and_slack(self):
        cert = certify_separation(planar_gap_law(0.05), SeparationParams(target_gap=0.99))
        log = cert.search_log
        assert 0 < log["rounding_margin"] < 1e-12
        assert log["slack"] == cert.best_inf_estimate - cert.mu
        refuted = certify_separation(bernoulli(0.5, 0.5))
        assert refuted.search_log["rounding_margin"] > 0 and "slack" not in refuted.search_log

    def test_rounding_margin_covers_float_evaluation(self, monkeypatch):
        """Every centre the search evaluates (the leaves among them), re-evaluated with
        exact arguments and math.fsum, differs in modulus by at most rounding_margin."""
        seen = []
        evaluate = charfn._evaluate

        def spy(weights, coords, theta):
            out = evaluate(weights, coords, theta)
            seen.append((coords.astype(int).tolist(), weights[0].tolist(), theta.copy(), out[0].copy()))
            return out

        monkeypatch.setattr(charfn, "_evaluate", spy)
        wide = DiscreteLaw.from_lattice({0: 0.97, 311: 0.02, 724: 0.01})
        planar = random_planar_law(np.random.default_rng(7), B2, radius=3, max_extra=9)
        worst = 0.0
        for law, gap in [(planar_gap_law(0.03), 0.999), (wide, 0.99), (planar, 0.999)]:
            seen.clear()
            cert = certify_separation(law, SeparationParams(target_gap=gap))
            assert cert.verdict == "certified"
            margin = cert.search_log["rounding_margin"]
            # the search evaluates the reduced coords it was given, not the law's own
            for coords, masses, theta, values in seen:
                for centre, value in zip(theta.T.tolist(), values.tolist()):
                    args = [float(sum(c * Fraction(t) for c, t in zip(ck, centre))) for ck in coords]
                    exact = complex(math.fsum(p * math.cos(x) for p, x in zip(masses, args)),
                                    math.fsum(p * math.sin(x) for p, x in zip(masses, args)))
                    gap_here = abs(abs(value) - abs(exact))
                    assert gap_here <= margin
                    worst = max(worst, gap_here)
        assert worst > 0  # the check sees real rounding, not identical evaluations

    def test_two_atom_d2_law_certifies_on_its_rank1_lattice(self):
        # {(3, 1), (-2, -3)} is (-2, -3) + (5, 4) {0, 1}: the search runs on one axis, not on
        # the plane, where it took 59,936 cells; inf |f| = 2 p - 1 = 0.24
        law = DiscreteLaw.from_pairs(B2, [((3, 1), 0.62), ((-2, -3), 0.38)])
        cert = certify_separation(law, SeparationParams(target_gap=0.999))
        assert cert.verdict == "certified"
        assert cert.search_log["rank"] == 1
        assert cert.search_log["cells"] <= 64
        assert 0.999 * 0.24 <= cert.mu <= 0.24 * (1 + 1e-12)

    def test_rank1_zero_lies_on_the_line(self):
        # (e^(it) + e^(i sqrt2 t)) / 2 vanishes where (sqrt 2 - 1) t is an odd multiple of pi
        law = DiscreteLaw.from_pairs(B2, [((1, 0), 0.5), ((0, 1), 0.5)])
        cert = certify_separation(law)
        tol = SeparationParams().zero_tol
        assert cert.verdict == "zero_found"
        assert not cert.torus_infimum_only
        assert cert.search_log["rank"] == 1
        assert abs(cf_eval(law, cert.zero_t)) <= tol
        assert abs(torus_lift(law)(cert.zero_theta)) <= tol

    def test_zero_theta_is_a_preimage_of_the_reduced_zero(self):
        law = DiscreteLaw.from_pairs(B1, [((1,), 0.5), ((4,), 0.5)])  # 1 + 3 {0, 1}
        cert = certify_separation(law)
        tol = SeparationParams().zero_tol
        assert cert.verdict == "zero_found"
        assert abs(torus_lift(law)(cert.zero_theta)) <= tol
        assert abs(cf_eval(law, cert.zero_t)) <= tol

    def test_point_mass_has_rank_zero(self):
        cert = certify_separation(DiscreteLaw.from_pairs(B2, [((2, -1), 1.0)]))
        assert (cert.verdict, cert.mu, cert.search_log["rank"]) == ("certified", 1.0, 0)

    def test_dependent_basis_certifies_on_the_reduced_coords(self):
        # B^T alpha = (2, 2) repeats, so the reduced law has no FrequencyBasis of its own
        basis = FrequencyBasis((1, 2), declared_independent=False)
        law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.7), ((2, 0), 0.15), ((0, 1), 0.15)])
        cert = certify_separation(law)
        assert cert.verdict == "certified"
        assert cert.independence_assumed is False
        assert cert.search_log["rank"] == 2
        axis = 2 * math.pi * np.arange(256) / 256
        phi = torus_lift(law)
        assert min(abs(phi((a, b))) for a in axis[::4] for b in axis[::4]) >= cert.mu

    def test_search_stops_at_max_cells(self):
        law = DiscreteLaw.from_lattice({0: 0.5 + 1e-9, 1: 0.5 - 1e-9})
        cert = certify_separation(law, SeparationParams(max_cells=50))
        assert cert.verdict == "undecided"
        assert cert.search_log["cells"] == 50

    def test_depth_exhausted_names_the_budget_that_stopped(self):
        law = DiscreteLaw.from_lattice({0: 0.5 + 1e-9, 1: 0.5 - 1e-9})
        by_cells = certify_separation(law, SeparationParams(max_cells=10))
        assert by_cells.verdict == "undecided"
        assert by_cells.search_log["max_depth"] < SeparationParams().max_depth
        assert by_cells.search_log["depth_exhausted"] is False
        by_depth = certify_separation(law, SeparationParams(max_depth=6))
        assert by_depth.verdict == "undecided"
        assert by_depth.search_log["max_depth"] == 6
        assert by_depth.search_log["depth_exhausted"] is True

    @pytest.mark.parametrize("bad", [
        {"target_gap": 0.0}, {"target_gap": 2.0}, {"target_gap": math.nan}, {"max_depth": -1},
        {"max_cells": 0}, {"zero_tol": -1e-10}, {"zero_tol": math.nan},
    ])
    def test_params_validated(self, bad):
        with pytest.raises(InvalidArgument):
            SeparationParams(**bad)


class TestCertificateSemantics:
    def test_zero_found_never_reported_as_certified(self):
        cert = certify_separation(h_law(0.1, 0.4))
        # 0.5 - 0.1 - 0.4 = 0 at (pi, pi): infimum zero on the torus
        assert cert.verdict == "zero_found"
        assert cert.mu is None

    def test_independence_assumption_recorded(self):
        basis = FrequencyBasis((1, math.sqrt(2)), declared_independent=False)
        law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.6), ((1, 0), 0.2), ((0, 1), 0.2)])
        cert = certify_separation(law)
        assert cert.independence_assumed is False
