import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasilevy import (
    DiscreteLaw,
    DuplicateAtom,
    FrequencyBasis,
    IrrationalSupport,
    MassSumNotOne,
    NegativeMass,
    QuasiTriplet,
    SignedAtomicMeasure,
    convolve,
    jsonio,
    module_generator,
    total_variation,
)
from quasilevy.measures import lattice_map, lattice_masses
import oracles

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
        again = DiscreteLaw(law.basis, law.atoms)
        assert again == law and DiscreteLaw(again.basis, again.atoms) == again

    def test_constructor_checks_law_invariants(self):
        with pytest.raises(NegativeMass):
            DiscreteLaw(B1, {(0,): 2.0, (1,): -1.0})
        with pytest.raises(MassSumNotOne):
            DiscreteLaw(B1, {(0,): 0.5})
        assert dict(DiscreteLaw(B1, {(0,): 1.0, (4,): 0.0}).atoms) == {(0,): 1.0}


class TestCoordinateCheck:
    """Laws, measures, triplet frequencies and gamma_coords share one coordinate check."""

    BUILDERS = {
        "law": lambda basis, c: DiscreteLaw(basis, {c: 1.0}).atoms,
        "measure": lambda basis, c: SignedAtomicMeasure(basis, {c: -0.5}).atoms,
        "triplet": lambda basis, c: QuasiTriplet(basis, (0,) * basis.d, {c: 0.5}).lambdas,
        "gamma": lambda basis, c: [QuasiTriplet(basis, c, {}).gamma_coords],
    }

    @pytest.mark.parametrize("kind", list(BUILDERS))
    @pytest.mark.parametrize(
        "basis, coords, stored",
        [(B1, (np.int64(2),), (2,)), (FrequencyBasis((1, 2)), (np.int32(1), np.uint8(3)), (1, 3)),
         (B1, (True,), (1,)), (B1, (1.5,), None), (B1, (Fraction(3, 2),), None), (B1, (np.float64(2.0),), None),
         (B1, ("1",), None), (B1, (1, 2), None), (FrequencyBasis((0,)), (5,), None)],
        ids=["numpy_int", "numpy_int_pair", "bool", "float", "fraction", "numpy_float", "string", "wrong_length",
             "off_origin_on_trivial_basis"],
    )
    def test_same_rule_everywhere(self, kind, basis, coords, stored):
        build = self.BUILDERS[kind]
        if stored is None:
            with pytest.raises(ValueError, match="coords"):
                build(basis, coords)
        else:
            (key,) = build(basis, coords)
            assert key == stored and all(type(c) is int for c in key)

    def test_trivial_basis_takes_origin_only(self):
        basis = FrequencyBasis((0,))
        assert dict(DiscreteLaw(basis, {(0,): 1.0}).atoms) == {(0,): 1.0}
        assert DiscreteLaw.from_values([(0, 0.5), (Fraction(0), 0.5)]).basis == basis
        with pytest.raises(ValueError, match="trivial basis"):
            DiscreteLaw(basis, {(0,): 0.5, (5,): 0.5})


class TestCarrier:
    def test_law_is_a_measure_never_equal_to_one(self):
        law = law_on_z({0: 0.25, 3: 0.75})
        measure = law.as_measure()
        assert isinstance(law, SignedAtomicMeasure) and type(measure) is SignedAtomicMeasure
        assert law != measure and measure != law
        assert dict(measure.atoms) == dict(law.atoms)
        assert law.weight(3) == 0.75 and measure.weight(3) == 0.75
        assert repr(law).startswith("DiscreteLaw(") and repr(measure).startswith("SignedAtomicMeasure(")

    def test_convolve_result_type(self):
        law = law_on_z({0: 0.5, 1: 0.5})
        measure = SignedAtomicMeasure(B1, {(0,): 1.5, (1,): -0.5})
        assert type(convolve(law, law)) is DiscreteLaw
        assert type(convolve(law, measure)) is SignedAtomicMeasure
        assert type(convolve(measure, law)) is SignedAtomicMeasure
        assert convolve(law, law).as_measure() == convolve(law.as_measure(), law)


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

    def test_matches_the_pairwise_loop_bit_for_bit(self):
        # the same floats, the same exact Fractions, in the order the pairs first reach each atom
        rng = np.random.default_rng(3)
        b2 = FrequencyBasis((1, math.sqrt(2)))
        for exact in (False, True):
            for _ in range(20):
                measures = []
                for _ in range(2):
                    keys = list({tuple(rng.integers(-4, 5, 2).tolist()) for _ in range(12)})
                    weights = ([Fraction(int(n), int(d)) for n, d in zip(rng.integers(-8, 9, len(keys)),
                                                                          rng.integers(1, 7, len(keys)))]
                               if exact else rng.normal(size=len(keys)).tolist())
                    measures.append(SignedAtomicMeasure(b2, dict(zip(keys, weights))))
                want = oracles.pairwise_convolve(*(dict(m.atoms) for m in measures))
                assert list(convolve(*measures).atoms.items()) == list(want.items())
        # coords whose sums pass int64 are added as Python ints
        wide = SignedAtomicMeasure(B1, {(2**62,): 0.5, (-(2**63),): 0.25, (3,): 0.25})
        want = oracles.pairwise_convolve(dict(wide.atoms), dict(wide.atoms))
        assert list(convolve(wide, wide).atoms.items()) == list(want.items())

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


def reduced(measure) -> tuple:
    """The stored reduction as (c0, columns of B, weights keyed by m)."""
    c0, columns, m, weights = measure.reduction()
    return c0, columns, dict(zip(map(tuple, m.tolist()), weights.tolist()))


class TestLatticeForm:
    """The support written as c0 + B Z^r by the carrier's stored reduction."""

    def test_unit_lattice(self):
        law = law_on_z({0: 0.5, 1: 0.5})
        assert reduced(law) == ((0,), ((1,),), {(0,): 0.5, (1,): 0.5})
        assert lattice_masses(law) == {0: 0.5, 1: 0.5}

    def test_difference_gcd(self):
        law = DiscreteLaw.from_values([(Fraction(1, 2), 0.5), (Fraction(7, 6), 0.5)])
        c0, columns, masses = reduced(law)
        assert law.basis.value(c0) == Fraction(1, 2)
        assert law.basis.value(columns[0]) == Fraction(2, 3)
        assert sorted(masses) == [(0,), (1,)]

    def test_d2_reduction(self):
        basis = FrequencyBasis((1, math.sqrt(2)))
        # two atoms span a rank-1 lattice
        law = DiscreteLaw.from_pairs(basis, [((3, 1), 0.62), ((-2, -3), 0.38)])
        assert reduced(law) == ((-2, -3), ((5, 4),), {(0,): 0.38, (1,): 0.62})
        # a rank-2 sublattice of index 2: (1, 1) and (1, -1) span {a + b even}
        law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.5), ((1, 1), 0.25), ((1, -1), 0.25)])
        c0, columns, m, weights = law.reduction()
        assert c0 == (0, 0) and columns == ((1, 1), (0, 2))
        assert dict(zip(map(tuple, lattice_map(c0, columns, m).tolist()), weights.tolist())) == dict(law.atoms)

    def test_irrational_d1_is_fine(self):
        basis = FrequencyBasis((math.sqrt(2),))
        law = DiscreteLaw.from_pairs(basis, [((0,), 0.5), ((2,), 0.5)])
        assert law.reduction()[1] == ((2,),)

    def test_lattice_consistency_checked(self):
        law = DiscreteLaw.from_values([(0, 0.25), (2, 0.25), (5, 0.5)])
        _, columns, masses = reduced(law)
        assert law.basis.value(columns[0]) == 1  # gcd(2, 5)
        assert sorted(masses) == [(0,), (2,), (5,)]

    def test_reduced_once_and_kept(self):
        law = law_on_z({0: 0.25, 3: 0.75})
        assert law.reduction() is law.reduction()
        with pytest.raises(ValueError):
            law.reduction()[2][0, 0] = 5  # the cached arrays are read-only

    def test_rational_basis_reduces_on_values(self):
        # on the basis (1, 2) the coords (2, -1) name the point 0: one atom of mass 1, rank 0
        point = DiscreteLaw(FrequencyBasis((1, 2)), {(0, 0): 0.5, (2, -1): 0.5})
        assert reduced(point) == ((0, 0), (), {(): 1.0})
        # values 0, 1, 2 on one column h of value 1, whatever coords name them
        law = DiscreteLaw(FrequencyBasis((1, 2)), {(0, 0): 0.5, (1, 0): 0.3, (0, 1): 0.2})
        c0, columns, masses = reduced(law)
        assert c0 == (0, 0) and len(columns) == 1 and law.basis.value(columns[0]) == 1
        assert masses == {(0,): 0.5, (1,): 0.3, (2,): 0.2}
        # atoms of one value add their masses; the float and irrational bases keep the coords
        law = DiscreteLaw(FrequencyBasis((Fraction(1, 2), 1)), {(0, 0): 0.5, (2, 0): 0.25, (0, 1): 0.25})
        assert reduced(law)[2] == {(0,): 0.5, (1,): 0.5}
        law = DiscreteLaw(FrequencyBasis((0.5, 1.0)), {(0, 0): 0.5, (2, 0): 0.25, (0, 1): 0.25})
        assert len(reduced(law)[2]) == 3

    def test_rational_basis_merges_exactly(self):
        # (2, 0), (0, 1) and (4, -1) all name 2 on (1, 2): their masses are added as exact
        # rationals and rounded once, where a float sum would give 0.6000000000000001
        law = DiscreteLaw(FrequencyBasis((1, 2)), {(0, 0): 0.4, (2, 0): 0.1, (0, 1): 0.2, (4, -1): 0.3})
        assert law.reduction()[3].tolist() == [0.4, 0.6]
        assert 0.1 + 0.2 + 0.3 == 0.6000000000000001


# -- the array carrier against the dict reference --------------------------------------

WIDE = st.integers(2**63, 2**66) | st.integers(-(2**66), -(2**63) - 1)  # beyond int64


@st.composite
def carrier_inputs(draw, law: bool, d: int):
    """(pairs, input, form): pairs as drawn, repeats included, and the same atoms as a mapping, pairs or arrays."""
    entry = st.integers(-50, 50) | WIDE if draw(st.booleans()) else st.integers(-50, 50)
    form = draw(st.sampled_from(["mapping", "pairs", "arrays"]))
    keys = draw(st.lists(st.tuples(*[entry] * d), min_size=int(law), max_size=12, unique=form == "mapping"))
    if keys and form != "mapping" and draw(st.booleans()):  # a key listed twice
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
    if draw(st.booleans()):
        scalar = st.fractions(-5, 5, max_denominator=12) | st.integers(-5, 5) if not law else \
            st.just(Fraction(0)) | st.fractions(Fraction(1, 12), 5, max_denominator=12)
    else:
        scalar = st.floats(-5, 5) if not law else st.just(0.0) | st.floats(0.01, 5)
    weights = draw(st.lists(scalar, min_size=len(keys), max_size=len(keys)))
    if law:
        total = sum(weights)
        if not total:
            weights[0], total = weights[0] + 1, 1
        weights = [w / total for w in weights]
    pairs = list(zip(keys, weights))
    if form == "mapping":
        return pairs, dict(pairs), form
    if form == "pairs":
        return pairs, pairs, form
    exact = any(not isinstance(w, float) for w in weights)
    coords = np.array(keys, dtype=object if any(abs(c) >= 2**63 for k in keys for c in k) else None)
    return pairs, (coords, np.array(weights, dtype=object if exact else float)), form


def build_or_error(kind, basis, atoms):
    try:
        return kind(basis, atoms)
    except DuplicateAtom as exc:
        return str(exc)


def reference_or_error(pairs, law: bool):
    try:
        return oracles.dict_atoms(pairs, law)
    except DuplicateAtom as exc:
        return str(exc)


def same_atoms(measure, ref: dict) -> None:
    """Atoms, their order and their types, the stored arrays and the float view all as the dict reference has them."""
    assert list(measure.atoms.items()) == list(ref.items())
    assert [type(w) for w in measure.atoms.values()] == [type(w) for w in ref.values()]
    assert measure.coords.tolist() == [list(c) for c in ref]
    assert measure.given_weights == tuple(ref.values())
    assert measure.weights.tolist() == [float(w) for w in ref.values()]


@st.composite
def two_carriers(draw):
    d, law = draw(st.integers(1, 3)), draw(st.booleans())
    basis = draw(st.sampled_from([FrequencyBasis((1, 2, 3)[:d]), FrequencyBasis((1, math.sqrt(2), math.sqrt(3))[:d])]))
    return law, basis, draw(carrier_inputs(law, d)), draw(carrier_inputs(law, d))


@settings(max_examples=200, deadline=None)
@given(two_carriers())
def test_array_carrier_matches_the_dict_reference(case):
    law, basis, *inputs = case
    kind = DiscreteLaw if law else SignedAtomicMeasure
    built, refs = [], []
    for pairs, atoms, _ in inputs:
        ref, measure = reference_or_error(pairs, law), build_or_error(kind, basis, atoms)
        if isinstance(ref, str):
            assert measure == ref  # the same DuplicateAtom message
            continue
        same_atoms(measure, ref)
        assert total_variation(measure) == float(sum(abs(w) for w in ref.values()))
        if ref:
            assert measure.reduction()[0] == min(ref)
        doc = jsonio.law_to_json(measure) if law else jsonio.measure_to_json(measure)
        value = "mass" if law else "weight"
        assert doc["atoms"] == [{"coords": list(c), value: jsonio.scalar_to_json(w)} for c, w in sorted(ref.items())]
        built.append(measure)
        refs.append(ref)
    if len(built) == 2:
        same_atoms(built[0].plus(built[1]), oracles.dict_plus(*refs))
        same_atoms(convolve(*built), oracles.pairwise_convolve(*refs))
