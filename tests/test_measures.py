import math
from fractions import Fraction

import numpy as np
import pytest

from quasilevy import (
    DiscreteLaw,
    DuplicateAtom,
    FrequencyBasis,
    IrrationalSupport,
    MassSumNotOne,
    NegativeMass,
    SignedAtomicMeasure,
    convolve,
    module_generator,
    reduce_support,
    total_variation,
    validate_law,
)
from quasilevy.measures import lattice_masses, lattice_points

B1 = FrequencyBasis((1,))


def law_on_z(masses: dict) -> DiscreteLaw:
    return DiscreteLaw.from_pairs(B1, [((k,), m) for k, m in masses.items()])


class TestValidateLaw:
    def test_degenerate_law_unchanged(self):
        law = DiscreteLaw.from_pairs(B1, [((0,), 1.0)])
        assert dict(law.atoms) == {(0,): 1.0}

    def test_zero_mass_atoms_dropped(self):
        law = law_on_z({0: 0.5, 1: 0.5, 2: 0.0})
        assert len(law.atoms) == 2
        assert (2,) not in law.atoms

    def test_mass_sum_not_one(self):
        with pytest.raises(MassSumNotOne):
            law_on_z({0: 0.6, 1: 0.5})

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            law_on_z({0: 1.2, 1: -0.2})

    def test_duplicate_atom(self):
        with pytest.raises(DuplicateAtom):
            DiscreteLaw.from_pairs(B1, [((0,), 0.5), ((0,), 0.5)])

    def test_idempotent(self):
        law = law_on_z({0: 0.25, 3: 0.75})
        again = validate_law(law)
        assert again == law and validate_law(again) == again


class TestTotalVariation:
    def test_zero_measure(self):
        assert total_variation(SignedAtomicMeasure(B1, {(0,): 0.0})) == 0.0

    def test_probability_law(self):
        assert total_variation(law_on_z({0: 0.3, 5: 0.7})) == 1.0

    def test_g2_minus_g(self):
        # masses (0.75, 0.25) vs (0.5, 0.5) on {0, 1}
        diff = SignedAtomicMeasure(B1, {(0,): 0.75 - 0.5, (1,): 0.25 - 0.5})
        assert total_variation(diff) == pytest.approx(0.5, abs=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m1 = SignedAtomicMeasure(B1, {(int(k),): float(w) for k, w in
                                          zip(rng.integers(-5, 6, 4), rng.normal(size=4))})
            m2 = SignedAtomicMeasure(B1, {(int(k),): float(w) for k, w in
                                          zip(rng.integers(-5, 6, 4), rng.normal(size=4))})
            assert total_variation(m1.plus(m2)) <= total_variation(m1) + total_variation(m2) + 1e-12


class TestConvolve:
    def test_delta_identity(self):
        m = SignedAtomicMeasure(B1, {(1,): 0.4, (3,): -0.2})
        delta0 = SignedAtomicMeasure(B1, {(0,): 1.0})
        assert convolve(delta0, m) == m

    def test_point_masses(self):
        da = SignedAtomicMeasure(B1, {(2,): 1.0})
        db = SignedAtomicMeasure(B1, {(5,): 1.0})
        assert dict(convolve(da, db).atoms) == {(7,): 1.0}

    def test_bernoulli_square(self):
        b = law_on_z({0: 0.5, 1: 0.5})
        sq = convolve(b, b)
        assert dict(sq.atoms) == {(0,): 0.25, (1,): 0.5, (2,): 0.25}

    def test_submultiplicative_commutative_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            def rand_measure():
                ks = rng.integers(-4, 5, 3)
                ws = [Fraction(int(n), int(d)) for n, d in
                      zip(rng.integers(-8, 9, 3), rng.integers(1, 7, 3))]
                atoms = {}
                for k, w in zip(ks, ws):
                    atoms[(int(k),)] = atoms.get((int(k),), Fraction(0)) + w
                return SignedAtomicMeasure(B1, atoms)

            m1, m2, m3 = rand_measure(), rand_measure(), rand_measure()
            c12 = convolve(m1, m2)
            assert total_variation(c12) <= total_variation(m1) * total_variation(m2) + 1e-12
            assert c12 == convolve(m2, m1)
            # exact rational weights make associativity an identity, not an approximation
            assert convolve(c12, m3) == convolve(m1, convolve(m2, m3))


class TestModuleGenerator:
    def test_degenerate(self):
        law = DiscreteLaw.from_values([(Fraction(0), 1.0)])
        assert module_generator(law).generator == 0

    def test_coprime_integers(self):
        law = DiscreteLaw.from_values([(3, 0.5), (5, 0.5)])
        assert module_generator(law).generator == 1

    def test_rationals(self):
        law = DiscreteLaw.from_values([(Fraction(2, 3), 0.5), (Fraction(1, 2), 0.5)])
        assert module_generator(law).generator == Fraction(1, 6)

    def test_generator_divides_support_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            vals = set()
            while len(vals) < 3:
                vals.add(Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 13))))
            law = DiscreteLaw.from_values([(v, Fraction(1, 3)) for v in vals])
            desc = module_generator(law)
            for v in law.support_values():
                assert desc.contains(v)

    def test_irrational_guard(self):
        basis = FrequencyBasis((math.sqrt(2),))
        law = DiscreteLaw.from_pairs(basis, [((0,), 0.5), ((1,), 0.5)])
        with pytest.raises(IrrationalSupport):
            module_generator(law)


class TestLatticeForm:
    """The support written as c0 + B Z^r by reduce_support."""

    def test_unit_lattice(self):
        law = law_on_z({0: 0.5, 1: 0.5})
        assert reduce_support(law.atoms) == ((0,), ((1,),), {(0,): 0.5, (1,): 0.5})
        assert lattice_masses(law) == {0: 0.5, 1: 0.5}

    def test_difference_gcd(self):
        law = DiscreteLaw.from_values([(Fraction(1, 2), 0.5), (Fraction(7, 6), 0.5)])
        c0, columns, masses = reduce_support(law.atoms)
        assert law.basis.value(c0) == Fraction(1, 2)
        assert law.basis.value(columns[0]) == Fraction(2, 3)
        assert sorted(masses) == [(0,), (1,)]

    def test_d2_reduction(self):
        basis = FrequencyBasis((1, math.sqrt(2)))
        # two atoms span a rank-1 lattice
        law = DiscreteLaw.from_pairs(basis, [((3, 1), 0.62), ((-2, -3), 0.38)])
        assert reduce_support(law.atoms) == ((-2, -3), ((5, 4),), {(0,): 0.38, (1,): 0.62})
        # a rank-2 sublattice of index 2: (1, 1) and (1, -1) span {a + b even}
        law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.5), ((1, 1), 0.25), ((1, -1), 0.25)])
        c0, columns, masses = reduce_support(law.atoms)
        assert c0 == (0, 0) and columns == ((1, 1), (0, 2))
        assert dict(zip(lattice_points(c0, columns, list(masses)), masses.values())) == dict(law.atoms)

    def test_irrational_d1_is_fine(self):
        basis = FrequencyBasis((math.sqrt(2),))
        law = DiscreteLaw.from_pairs(basis, [((0,), 0.5), ((2,), 0.5)])
        assert reduce_support(law.atoms)[1] == ((2,),)

    def test_lattice_consistency_checked(self):
        law = DiscreteLaw.from_values([(0, 0.25), (2, 0.25), (5, 0.5)])
        _, columns, masses = reduce_support(law.atoms)
        assert law.basis.value(columns[0]) == 1  # gcd(2, 5)
        assert sorted(masses) == [(0,), (2,), (5,)]
