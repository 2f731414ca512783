from fractions import Fraction

import numpy as np
import pytest

from quasilevy import (
    BasisMismatch,
    DiscreteLaw,
    FrequencyBasis,
    LawSequence,
    LimitNotSeparated,
    QuasiTriplet,
    Thresholds,
    cf_eval,
    check_convergence,
    check_relative_compactness,
    check_stochastic_compactness,
    ell1_triplet_distance,
    eventually_in_DS_probe,
    frequency_universe,
    reconstruct_law,
    triplet_lattice,
    tv_distance,
)
from quasilevy.charfn import SeparationParams
from oracles import random_lattice_law, truncated_geometric

B1 = FrequencyBasis((1,))


def g_member(n: int) -> DiscreteLaw:
    return DiscreteLaw.from_lattice(
        {0: Fraction(1, 2) + Fraction(1, 2 + n), 1: Fraction(1, 2) - Fraction(1, 2 + n)}
    )


def poisson_like(v: float) -> DiscreteLaw:
    law, _ = reconstruct_law(QuasiTriplet(B1, (0,), {(1,): v}))
    return law


GEOMETRIC = truncated_geometric(Fraction(1, 2), 50)[0]


class TestTvDistance:
    def test_identical(self):
        assert tv_distance(GEOMETRIC, GEOMETRIC) == 0.0

    def test_disjoint_supports(self):
        a = DiscreteLaw.from_pairs(B1, [((0,), 1.0)])
        b = DiscreteLaw.from_pairs(B1, [((1,), 1.0)])
        assert tv_distance(a, b) == 2.0

    def test_g_family_distance(self):
        g = DiscreteLaw.from_lattice({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert tv_distance(g_member(2), g) == pytest.approx(0.5, abs=1e-15)
        for n in (1, 5, 10, 33):
            assert tv_distance(g_member(n), g) == pytest.approx(2.0 / (2 + n), abs=1e-15)

    def test_basis_mismatch(self):
        other = DiscreteLaw.from_values([(Fraction(1, 2), 1.0)])
        with pytest.raises(BasisMismatch):
            tv_distance(GEOMETRIC, other)

    def test_metric_properties(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            laws = [random_lattice_law(rng, basis=B1) for _ in range(3)]
            a, b, c = laws
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-15)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
            assert tv_distance(a, a) <= 1e-12


class TestCheckConvergence:
    def test_constant_sequence_holds(self):
        seq = LawSequence(tuple([GEOMETRIC] * 6), limit=GEOMETRIC)
        verdict = check_convergence(seq)
        assert verdict.verdict == "holds"
        assert verdict.gamma_stable_from == 1
        assert all(d == 0.0 for d in verdict.ell1_distances)
        assert all(d == 0.0 for d in verdict.tv_distances)

    def test_shrinking_perturbation_holds(self):
        limit = poisson_like(0.5)
        members = tuple(poisson_like(0.5 + 1.0 / (i + 20)) for i in range(1, 41))
        seq = LawSequence(members, limit=limit)
        verdict = check_convergence(seq, Thresholds(final_tol=0.05))
        assert verdict.verdict == "holds"
        # the l1 distance of member i is the lambda_1 gap 1/(i+20)
        for i, d in enumerate(verdict.ell1_distances, start=1):
            assert d == pytest.approx(1.0 / (i + 20), abs=1e-8)
        assert verdict.tv_trend_ok

    def test_g_family_fails_against_any_separated_limit(self):
        members = tuple(g_member(n) for n in range(1, 31))
        seq = LawSequence(members, limit=GEOMETRIC)
        verdict = check_convergence(seq)
        assert verdict.verdict == "fails"
        # the weight mass of G_n blows up while gamma stays matched
        assert verdict.gamma_stable_from == 1
        assert verdict.ell1_distances[-1] > verdict.ell1_distances[0]

    def test_limit_must_be_separated(self):
        bern_half = DiscreteLaw.from_lattice({0: Fraction(1, 2), 1: Fraction(1, 2)})
        seq = LawSequence(tuple(g_member(n) for n in range(1, 6)), limit=bern_half)
        with pytest.raises(LimitNotSeparated):
            check_convergence(seq)

    def test_limit_certified_once(self, monkeypatch):
        from quasilevy import charfn, limits

        calls = []
        certify = charfn.certify_separation

        def counting(law, params=None):
            calls.append((law, params))
            return certify(law, params)

        monkeypatch.setattr(charfn, "certify_separation", counting)  # reached through require_separated
        monkeypatch.setattr(limits, "certify_separation", counting)
        members = tuple(g_member(n) for n in (1, 4, 9))
        separation = SeparationParams(target_gap=0.95)
        check_convergence(LawSequence(members, limit=GEOMETRIC), separation=separation)
        assert len(calls) == 4
        assert [params for law, params in calls if law is GEOMETRIC] == [separation]
        # an undecided limit certificate is still refused, under the parameters given for it
        with pytest.raises(LimitNotSeparated, match="undecided"):
            check_convergence(LawSequence(members, limit=GEOMETRIC), separation=SeparationParams(max_cells=1))

    def test_gamma_mismatch_fails(self):
        shifted = DiscreteLaw.from_lattice(
            {k + 1: m for (k,), m in GEOMETRIC.atoms.items()}
        )
        seq = LawSequence(tuple([shifted] * 5), limit=GEOMETRIC)
        verdict = check_convergence(seq)
        assert verdict.verdict == "fails"
        assert verdict.gamma_stable_from is None


class TestRelativeCompactness:
    def test_poisson_family_passes(self):
        members = tuple(poisson_like(v / 10.0) for v in range(1, 11))
        report = check_relative_compactness(LawSequence(members))
        assert report.all_pass
        assert report.gamma_values == [(0,)]
        assert report.sup_ell1 == pytest.approx(1.0, abs=1e-9)
        assert report.sup_tails[-1] < 1e-6

    def test_g_family_norm_condition_fails(self):
        members = tuple(g_member(n) for n in range(1, 51))
        report = check_relative_compactness(LawSequence(members))
        assert not report.pass_norm_condition
        assert report.growth_ratio >= 2.0
        assert not report.all_pass

    def test_single_member_vacuous(self):
        report = check_relative_compactness(LawSequence((GEOMETRIC,)))
        assert report.all_pass


class TestStochasticCompactness:
    def test_poisson_family_passes(self):
        members = tuple(poisson_like(v / 10.0) for v in range(1, 11))
        report = check_stochastic_compactness(LawSequence(members))
        assert report.passes
        assert report.min_ell1 == pytest.approx(0.1, abs=1e-9)
        assert report.relative is not None  # the relative conditions were consulted

    def test_degenerating_family_flagged(self):
        members = tuple(poisson_like(1.0 / n) for n in range(1, 31))
        report = check_stochastic_compactness(LawSequence(members))
        assert report.degenerate_trend
        assert not report.passes

    def test_constant_family_passes(self):
        members = tuple([GEOMETRIC] * 8)
        report = check_stochastic_compactness(LawSequence(members))
        assert report.passes


class TestEventuallyInDS:
    def test_first_member_not_separated(self):
        bern_half = DiscreteLaw.from_lattice({0: Fraction(1, 2), 1: Fraction(1, 2)})
        members = (bern_half,) + tuple(poisson_like(0.4 + 0.01 * i) for i in range(5))
        report = eventually_in_DS_probe(LawSequence(members))
        assert report.all_certified_from == 2
        assert report.certificates[0].verdict == "zero_found"

    def test_g_family_certified_with_shrinking_mu(self):
        members = tuple(g_member(n) for n in range(1, 21))
        report = eventually_in_DS_probe(
            LawSequence(members), SeparationParams(target_gap=0.99)
        )
        assert report.all_certified_from == 1
        mus = [c.mu for c in report.certificates]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_constant_certified(self):
        report = eventually_in_DS_probe(LawSequence(tuple([GEOMETRIC] * 4)))
        assert report.all_certified_from == 1


class TestBookkeeping:
    def test_zero_extension_identity(self):
        limit_triplet = triplet_lattice(GEOMETRIC)
        triplets = [triplet_lattice(g_member(n)) for n in (1, 4, 9)]
        universe = frequency_universe(triplets + [limit_triplet])
        assert universe[0] == (0,)
        for t in triplets:
            direct = ell1_triplet_distance(t, limit_triplet)
            over_universe = sum(
                abs(t.lambdas.get(c, 0.0) - limit_triplet.lambdas.get(c, 0.0))
                for c in universe[1:]
            )
            assert direct == over_universe  # exact bookkeeping identity

    def test_universe_ordering_deterministic(self):
        t = QuasiTriplet(B1, (0,), {(2,): 0.1, (-2,): 0.2, (1,): 0.3, (-3,): 0.4})
        universe = frequency_universe([t])
        assert universe == [(0,), (1,), (-2,), (2,), (-3,)]

    def test_sup_norm_bounded_by_tv(self):
        rng = np.random.default_rng(67)
        ts = np.linspace(-40.0, 40.0, 3000)
        for _ in range(10):
            a = random_lattice_law(rng, basis=B1)
            b = random_lattice_law(rng, basis=B1)
            sup = float(np.max(np.abs(cf_eval(a, ts) - cf_eval(b, ts))))
            assert sup <= tv_distance(a, b) + 1e-12

    def test_sequence_requires_common_basis(self):
        other = DiscreteLaw.from_values([(Fraction(1, 3), 1.0)])
        with pytest.raises(BasisMismatch):
            LawSequence((GEOMETRIC, other))
