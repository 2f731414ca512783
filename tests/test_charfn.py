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
    torus_lift,
)
from quasilevy import charfn
import oracles
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


def product_law(basis: FrequencyBasis, *factors: dict) -> DiscreteLaw:
    """The law of independent d = 1 factors, one per basis element: inf |f| is the product of theirs."""
    atoms = {(): 1.0}
    for factor in factors:
        atoms = {(*c, k): m * p for c, m in atoms.items() for k, p in factor.items()}
    return DiscreteLaw.from_pairs(basis, list(atoms.items()))


# no atom carries half the mass, so the search, not the one-atom floor, decides these
PLANAR_PRODUCT = product_law(B2, {0: 0.6, 1: 0.4}, {0: 0.6, 1: 0.4})  # inf |f| = 0.2^2
SPATIAL_PRODUCT = product_law(B3, *[{0: 0.7, 1: 0.3}] * 3)  # inf |f| = 0.4^3


def random_planar_product(rng) -> DiscreteLaw:
    """Product of two random laws on 2 to 4 points of [-3, 3], each with an atom of mass in [0.55, 0.7)."""
    factors = []
    for _ in range(2):
        points = rng.choice(np.arange(-3, 4), size=int(rng.integers(2, 5)), replace=False).tolist()
        p_star = float(rng.uniform(0.55, 0.7))
        factors.append(dict(zip(points, [p_star, *(rng.dirichlet(np.ones(len(points) - 1)) * (1 - p_star)).tolist()])))
    return product_law(B2, *factors)


def near_zero_law() -> DiscreteLaw:
    """{0: 1, 1: r, 2: r^2} / (1 + r + r^2), r = 1 - 1e-9: its zeros lie at radius 1/r, so inf |f| is about 1e-9."""
    r = 1 - 1e-9
    total = 1 + r + r * r
    return DiscreteLaw.from_lattice({0: 1 / total, 1: r / total, 2: r * r / total})


def exact_gap(law: DiscreteLaw) -> Fraction:
    """p* less the other masses, in exact arithmetic: inf |f| of the gap laws, reached at the root centre."""
    masses = [Fraction(m) for m in law.atoms.values()]
    return 2 * max(masses) - sum(masses)


def assert_floor_certifies(law: DiscreteLaw, infimum, gap: float = 0.9) -> None:
    """The one-atom floor certifies law at the root, with mu at most its infimum."""
    cert = certify_separation(law, SeparationParams(target_gap=gap))
    assert (cert.verdict, cert.search_log["bound"], cert.search_log["cells"]) == ("certified", "dominant", 1)
    assert 0 < Fraction(cert.mu) <= infimum


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

    def test_masses_that_miss_one_are_not_taken_as_summing_to_one(self):
        # p* less the other masses, not 2 p* - 1: here the masses sum to 1 + 5e-13
        law = DiscreteLaw.from_lattice({0: 0.6 + 5e-13, 1: 0.4})
        bound = dominant_mass_bound(law)
        assert Fraction(bound) <= Fraction(0.6 + 5e-13) - Fraction(0.4) < Fraction(2 * (0.6 + 5e-13) - 1)
        bound = dominant_mass_bound(DiscreteLaw.from_lattice({0: Fraction(3, 5), 1: Fraction(2, 5)}))
        assert Fraction(bound) <= Fraction(1, 5) < Fraction(math.nextafter(bound, 1))  # exact, rounded down once

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
        cert = certify_separation(near_zero_law(), SeparationParams(max_depth=6))
        assert cert.verdict == "undecided"
        assert cert.best_inf_estimate > 0
        old = DiscreteLaw.from_lattice({0: 0.5 + 1e-9, 1: 0.5 - 1e-9})
        assert_floor_certifies(old, exact_gap(old))

    def test_lattice_period_minimum_matches_torus_infimum(self):
        # |f| is (2*pi/b)-periodic; its one-period minimum must agree with the
        # bracket [mu, best_inf_estimate] that the torus search certifies.
        rng = np.random.default_rng(41)
        for _ in range(6):
            law = random_lattice_law(rng, max_width=8, rational_fraction=0.5)
            cert = certify_separation(law, SeparationParams(target_gap=0.9999, max_depth=60))
            assert cert.verdict == "certified"
            columns = law.reduction()[1]
            period = 2 * math.pi / float(law.basis.value(columns[0]))
            vals, masses = law_values_masses(law)
            pmin = dense_min_abs_cf(vals, masses, period, 4_000_000)
            assert pmin >= cert.mu - 1e-9
            assert pmin <= cert.best_inf_estimate + 1e-7


    def test_second_order_bound_cell_counts(self):
        # the first-order Lipschitz bound alone needed 159,742 cells on the planar law and left the
        # spatial one undecided after 500,000; with the second-order bound they take 218 and 2,074
        for law, gap, infimum, most in [(PLANAR_PRODUCT, 0.999, 0.2**2, 1_000),
                                        (SPATIAL_PRODUCT, 0.99, 0.4**3, 3_000)]:
            cert = certify_separation(law, SeparationParams(target_gap=gap))
            assert cert.verdict == "certified"
            assert cert.search_log["cells"] <= most
            assert gap * infimum <= cert.mu <= infimum
        for law in (planar_gap_law(0.03), spatial_gap_law(0.05)):
            assert_floor_certifies(law, exact_gap(law), gap=0.99)

    def test_search_log_reports_margin_and_slack(self):
        cert = certify_separation(planar_gap_law(0.05), SeparationParams(target_gap=0.99))
        log = cert.search_log
        assert 0 < log["rounding_margin"] < 1e-12
        assert log["slack"] == cert.best_inf_estimate - cert.mu
        refuted = certify_separation(bernoulli(0.5, 0.5))
        assert refuted.search_log["rounding_margin"] > 0 and "slack" not in refuted.search_log

    def test_search_log_reports_rounds(self):
        # each round after the frontier splits every open cell at the head of the heap at once
        cert = certify_separation(SPATIAL_PRODUCT, SeparationParams(target_gap=0.99))
        log = cert.search_log
        assert 1 <= log["rounds"] < log["cells"] - 1 - log["frontier"]["cells"]
        assert_floor_certifies(spatial_gap_law(0.05), exact_gap(spatial_gap_law(0.05)), gap=0.99)
        assert certify_separation(DiscreteLaw.from_pairs(B2, [((2, -1), 1.0)])).search_log["rounds"] == 0

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
        wide = DiscreteLaw.from_lattice({0: 0.36, 311: 0.24, 413: 0.24, 724: 0.16})  # (.6 + .4 z^311)(.6 + .4 z^413)
        planar = random_planar_product(np.random.default_rng(7))
        spatial = SPATIAL_PRODUCT
        worst = 0.0
        for law, gap in [(PLANAR_PRODUCT, 0.999), (wide, 0.99), (planar, 0.999), (spatial, 0.99)]:
            seen.clear()
            cert = certify_separation(law, SeparationParams(target_gap=gap))
            assert cert.verdict == "certified"
            # no points x atoms matrix passes the terms budget
            assert all(len(masses) * theta.shape[1] <= charfn.TERMS_BUDGET for _, masses, theta, _ in seen)
            if law is wide:  # the frontier's centres are among those checked
                assert any(theta.shape[1] > 2 for _, _, theta, _ in seen)
            if law is spatial:  # and those of rounds that split many cells at once, after the root and frontier
                assert cert.search_log["frontier"]["depth"] > 0
                assert any(theta.shape[1] > 2 for _, _, theta, _ in seen[2:])
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
        old = DiscreteLaw.from_lattice({0: 0.97, 311: 0.02, 724: 0.01})  # its root centre samples 0.96, its floor 0.94
        cert = certify_separation(old, SeparationParams(target_gap=0.99))
        vals, masses = law_values_masses(old)
        assert (cert.search_log["bound"], cert.search_log["rounds"]) == ("dominant", 0)
        assert cert.mu <= dense_min_abs_cf(vals, masses, 2 * math.pi, 400_000)
        assert_floor_certifies(planar_gap_law(0.03), exact_gap(planar_gap_law(0.03)), gap=0.999)

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

    def test_rational_basis_certifies_on_the_exact_values(self):
        # (2, -1) over (1, 2) is the point 0: a point mass, not the Bernoulli law a coords lift sees
        point = DiscreteLaw(FrequencyBasis((1, 2)), {(0, 0): 0.5, (2, -1): 0.5})
        cert = certify_separation(point)
        assert (cert.verdict, cert.mu, cert.search_log["rank"]) == ("certified", 1.0, 0)
        # the f of {0: .5, 1: .3, 2: .2}, certified as that law is, not refuted on the 2-torus
        law = DiscreteLaw(FrequencyBasis((1, 2)), {(0, 0): 0.5, (1, 0): 0.3, (0, 1): 0.2})
        cert, flat = certify_separation(law), certify_separation(DiscreteLaw.from_lattice({0: 0.5, 1: 0.3, 2: 0.2}))
        assert cert.verdict == "certified" and cert.search_log["rank"] == 1
        assert cert.mu == flat.mu and 0.2 <= cert.mu <= 0.24

    def test_dependent_basis_certifies_on_the_reduced_coords(self):
        # B^T alpha = (2, 2) repeats: on the exact values the law is {0: 0.7, 2: 0.3}, of rank 1
        basis = FrequencyBasis((1, 2), declared_independent=False)
        law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.7), ((2, 0), 0.15), ((0, 1), 0.15)])
        cert = certify_separation(law)
        assert cert.verdict == "certified"
        assert cert.independence_assumed is False
        assert cert.search_log["rank"] == 1
        axis = 2 * math.pi * np.arange(256) / 256
        phi = torus_lift(law)
        assert min(abs(phi((a, b))) for a in axis[::4] for b in axis[::4]) >= cert.mu

    def test_frontier_certifies_a_wide_law_in_one_pass(self):
        # 0.999 (1 + 0.45 z)^2 / 1.45^2 + 0.001 z^724: no atom carries half the mass, inf |f| >= 0.142
        a = 0.999 / 1.45**2
        law = DiscreteLaw.from_lattice({0: a, 1: 0.9 * a, 2: 0.2025 * a, 724: 0.001})
        cert = certify_separation(law, SeparationParams(target_gap=0.9))
        assert cert.verdict == "certified"
        log = cert.search_log
        # pi/(4 * 725) asks for 4096 cells; 4 atoms x 1024 cells fill the terms budget
        assert log["frontier"] == {"depth": 10, "cells": 1024}
        assert 1024 * 4 <= charfn.TERMS_BUDGET < 2048 * 4
        assert log["cells"] - 1 - log["frontier"]["cells"] <= 8
        vals, masses = law_values_masses(law)
        assert 0.9 * cert.best_inf_estimate <= cert.mu <= dense_min_abs_cf(vals, masses, 2 * math.pi, 400_000)
        old = DiscreteLaw.from_lattice({0: 0.97, 311: 0.02, 724: 0.01})
        vals, masses = law_values_masses(old)
        assert_floor_certifies(old, Fraction(dense_min_abs_cf(vals, masses, 2 * math.pi, 400_000)))

    def test_frontier_bound_is_the_split_bound_bit_for_bit(self, monkeypatch):
        """The array bound, on the frontier and on every later round, gives the floats of the
        scalar reference taken one cell at a time, at the centres (2m + 1) r, with each cell's
        own radii, L.r and quadratic term."""
        calls = []
        evaluate, frontier_bounds = charfn._evaluate, charfn._frontier_bounds

        def spy_evaluate(weights, coords, theta):
            calls.append(theta.copy())
            return evaluate(weights, coords, theta)

        def spy_bounds(values, radii, lip_r, quad, margin):
            out = frontier_bounds(values, radii, lip_r, quad, margin)
            n = values.shape[1]
            per_column = [np.broadcast_to(x, shape) for x, shape in
                          [(radii, (len(values) - 1, n)), (lip_r, (n,)), (quad, (n,))]]
            calls[-1] = (calls[-1], values, *per_column, margin, out)
            return out

        monkeypatch.setattr(charfn, "_evaluate", spy_evaluate)
        monkeypatch.setattr(charfn, "_frontier_bounds", spy_bounds)
        rng = np.random.default_rng(5)
        laws = [DiscreteLaw.from_lattice({0: 0.55, 3: 0.2, 7: 0.15, 16: 0.1}), PLANAR_PRODUCT,
                random_planar_product(rng), SPATIAL_PRODUCT]
        budgets = [charfn.TERMS_BUDGET] * len(laws) + [256]
        laws.append(SPATIAL_PRODUCT)  # with 256 terms a round splits at most 16 cells, so rounds mix depths
        for law, budget in zip(laws, budgets):
            monkeypatch.setattr(charfn, "TERMS_BUDGET", budget)
            calls.clear()
            cert = certify_separation(law, SeparationParams(target_gap=0.99))
            assert cert.verdict == "certified"
            root, first, *rounds = calls
            assert root[0].shape[1] == 1
            assert cert.search_log["frontier"]["cells"] == first[0].shape[1] > 2
            assert len(rounds) == cert.search_log["rounds"] >= 1
            mixed = [c for c in rounds if len({tuple(col) for col in c[2].T.tolist()}) > 1]
            if budget < charfn.TERMS_BUDGET:
                assert mixed and len(mixed[0][0].T) > 2
            for theta, values, radii, lip_r, quad, margin, (bounds, moduli) in [first, *rounds[-1:], *mixed[:1]]:
                picks = rng.choice(theta.shape[1], size=min(64, theta.shape[1]), replace=False).tolist()
                index = np.round((theta[:, picks] / radii[:, picks] - 1) / 2).astype(int)
                centres = [[(2 * m + 1) * r for m, r in zip(idx, rs)]
                           for idx, rs in zip(index.T.tolist(), radii[:, picks].T.tolist())]
                assert theta[:, picks].T.tolist() == centres
                expected = oracles.cell_bounds(values[:, picks].T.tolist(), radii[:, picks].T.tolist(),
                                               lip_r[picks].tolist(), quad[picks].tolist(), margin)
                assert (bounds[picks].tolist(), moduli[picks].tolist()) == expected
        monkeypatch.undo()
        for old in (planar_gap_law(0.03), spatial_gap_law(0.05)):
            assert_floor_certifies(old, exact_gap(old), gap=0.99)

    def test_frontier_stays_within_max_cells(self):
        law = near_zero_law()
        full = certify_separation(law, SeparationParams(max_cells=50)).search_log["frontier"]
        assert full == {"depth": 4, "cells": 16}  # radius pi/16 <= pi/(4 * 3)
        small = certify_separation(law, SeparationParams(max_cells=5))
        assert small.search_log["frontier"]["depth"] < full["depth"]
        assert small.search_log["cells"] == 5
        by_depth = certify_separation(law, SeparationParams(max_depth=6))
        assert by_depth.search_log["frontier"]["depth"] > 0
        assert by_depth.search_log["depth_exhausted"] is True
        old = DiscreteLaw.from_lattice({0: 0.5 + 1e-9, 1: 0.5 - 1e-9})
        assert_floor_certifies(old, exact_gap(old))
        assert certify_separation(old, SeparationParams(max_cells=5)).search_log["frontier"]["depth"] == 0

    def test_search_stops_at_max_cells(self, monkeypatch):
        cert = certify_separation(near_zero_law(), SeparationParams(max_cells=50))
        assert cert.verdict == "undecided"
        assert cert.search_log["cells"] == 50
        # the spatial law's rounds split many cells each; a max_cells that falls inside the second
        # round stops at that very cell, not at the round's end
        columns = []
        evaluate = charfn._evaluate

        def spy(weights, coords, theta):
            columns.append(theta.shape[1])
            return evaluate(weights, coords, theta)

        monkeypatch.setattr(charfn, "_evaluate", spy)
        spatial = SPATIAL_PRODUCT
        full = certify_separation(spatial, SeparationParams(target_gap=0.99))
        _, frontier, first, second, *_ = columns
        assert full.verdict == "certified" and second >= 4
        max_cells = 1 + frontier + first // 2 + second // 4
        cut = certify_separation(spatial, SeparationParams(target_gap=0.99, max_cells=max_cells))
        assert cut.verdict == "undecided"
        assert cut.search_log["cells"] == max_cells
        assert cut.search_log["depth_exhausted"] is False
        old = DiscreteLaw.from_lattice({0: 0.5 + 1e-9, 1: 0.5 - 1e-9})
        assert_floor_certifies(old, exact_gap(old))
        assert_floor_certifies(spatial_gap_law(0.05), exact_gap(spatial_gap_law(0.05)), gap=0.99)

    def test_depth_exhausted_names_the_budget_that_stopped(self):
        law = near_zero_law()
        by_cells = certify_separation(law, SeparationParams(max_cells=10))
        assert by_cells.verdict == "undecided"
        assert by_cells.search_log["max_depth"] < SeparationParams().max_depth
        assert by_cells.search_log["depth_exhausted"] is False
        by_depth = certify_separation(law, SeparationParams(max_depth=6))
        assert by_depth.verdict == "undecided"
        assert by_depth.search_log["max_depth"] == 6
        assert by_depth.search_log["depth_exhausted"] is True
        # {0: .3, 1: .4, 2: .3} vanishes near t = 2.3005; with zero_tol 0 the search dives there until the
        # cells along the axis reach 2^62, the most its int64 indices hold, and stops short of max_depth
        refuted = DiscreteLaw.from_lattice({0: 0.3, 1: 0.4, 2: 0.3})
        by_indices = certify_separation(refuted, SeparationParams(max_depth=100, zero_tol=0.0, max_cells=50_000))
        assert by_indices.verdict == "undecided"
        assert by_indices.search_log["depth_exhausted"] is True
        assert by_indices.search_log["max_depth"] == 62
        old = DiscreteLaw.from_lattice({0: 0.5 + 1e-9, 1: 0.5 - 1e-9})
        for params in (SeparationParams(max_cells=10), SeparationParams(max_depth=6)):
            cert = certify_separation(old, params)
            assert (cert.verdict, cert.search_log["bound"]) == ("certified", "dominant")
            assert Fraction(cert.mu) <= exact_gap(old)

    def test_one_atom_floor_certifies_a_wide_law_at_the_root(self):
        # |f| >= 0.6 - 0.4 = 0.2, which the root centre samples: the search took 500,000 cells and gave up
        law = DiscreteLaw.from_lattice({0: 0.6, 1: 0.25, 10**6 + 3: 0.15})
        cert = certify_separation(law)
        assert (cert.verdict, cert.search_log["bound"], cert.search_log["cells"]) == ("certified", "dominant", 1)
        assert cert.search_log["frontier"] == {"depth": 0, "cells": 0}
        assert 0.9 * cert.best_inf_estimate <= cert.mu <= exact_gap(law)

    def test_heavy_core_certifies_a_wide_law_without_a_dominant_atom(self):
        # no atom above 1/2; the core {0, 1, 2} has inf |f_S| = 0.1856, so |f| >= 0.1856 - 0.05
        law = DiscreteLaw.from_lattice({0: 0.45, 1: 0.25, 2: 0.25, 10**6 + 3: 0.05})
        cert = certify_separation(law)
        log = cert.search_log
        assert (cert.verdict, log["bound"]) == ("certified", "core")
        assert log["frontier"] == {"depth": 10, "cells": 1024}  # 4 atoms fill the terms budget at 1024 cells
        assert log["cells"] <= 1 + 1024 + 100  # the core's search is a small one
        assert 0.9 * cert.best_inf_estimate <= cert.mu <= cert.best_inf_estimate
        core = DiscreteLaw.from_lattice({0: 0.45 / 0.95, 1: 0.25 / 0.95, 2: 0.25 / 0.95})
        vals, masses = law_values_masses(core)
        assert cert.mu <= 0.95 * dense_min_abs_cf(vals, masses, 2 * math.pi, 100_000) - 0.05
        # a core that cannot close the gap is dropped: the product law's heaviest atoms weigh less than the rest
        wide = DiscreteLaw.from_lattice({0: 0.36, 311: 0.24, 413: 0.24, 724: 0.16})
        assert certify_separation(wide, SeparationParams(target_gap=0.99)).search_log["bound"] == "search"

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
