"""Property-based tests: the JSON loaders at the file boundary, the
support reduction c0 + B Z^r, a d = 1 law against its rank-1 lift into
d = 2, and certified separation against dense sampling."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from quasilevy import (  # noqa: E402
    DiscreteLaw,
    DuplicateAtom,
    FrequencyBasis,
    IrrationalSupport,
    MassSumNotOne,
    NegativeMass,
    ParseError,
    QuasiTriplet,
    SeparationParams,
    SignedAtomicMeasure,
    certify_separation,
    extract_triplet,
    jsonio,
    reduce_support,
)
from quasilevy.measures import hermite_basis, lattice_points  # noqa: E402

# The law invariants keep their own error classes (and CLI payload names);
# everything else that is wrong with a document is a ParseError.
LAW_INVARIANT_ERRORS = (MassSumNotOne, NegativeMass, DuplicateAtom, IrrationalSupport)

LOADER_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
numbers = (
    st.integers(-2, 3)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.5, 0.25, 1.0, -0.5])
    | st.fixed_dictionaries({"num": st.integers(-3, 3), "den": st.integers(-3, 3)})
)
coords = st.lists(st.integers(-3, 3), max_size=3)


def shaped(required: dict, optional: dict | None = None):
    """Documents with the expected keys, each value either plausible or arbitrary JSON."""
    return st.fixed_dictionaries(
        {k: v | json_values for k, v in required.items()},
        optional={k: v | json_values for k, v in (optional or {}).items()},
    )


bases = st.lists(numbers, min_size=1, max_size=3)
halves = st.sampled_from([1, 0.5, {"num": 1, "den": 2}, 0.25, 0.75, 0])
plausible_law_docs = st.fixed_dictionaries({
    "basis": st.sampled_from([[1], [{"num": 1, "den": 6}], [-2]]),
    "atoms": st.lists(
        st.fixed_dictionaries({"coords": st.integers(-3, 3).map(lambda c: [c]), "mass": halves}),
        min_size=1, max_size=3,
    ),
})
law_docs = (
    json_values
    | plausible_law_docs
    | shaped(
        {"basis": bases, "atoms": st.lists(shaped({"coords": coords, "mass": numbers}), max_size=4)},
        {"declared_independent": st.booleans()},
    )
    | shaped(
        {"masses": st.dictionaries(st.integers(-3, 3).map(str) | st.text(max_size=3), numbers, max_size=4)},
        {"offset": numbers, "span": numbers},
    )
)
measure_docs = json_values | shaped(
    {"basis": bases, "atoms": st.lists(shaped({"coords": coords, "weight": numbers}), max_size=4)}
)
triplet_docs = json_values | shaped(
    {
        "basis": bases,
        "gamma_coords": coords,
        "lambdas": st.lists(shaped({"freq": coords, "value": numbers}), max_size=4),
    },
    {"tail_bound": numbers},
)


@LOADER_SETTINGS
@given(law_docs)
def test_law_from_json_parses_or_reports(doc):
    try:
        law = jsonio.law_from_json(doc)
    except (ParseError, *LAW_INVARIANT_ERRORS):
        return
    assert isinstance(law, DiscreteLaw)
    masses = [float(m) for m in law.atoms.values()]
    assert masses and all(m >= 0 for m in masses)
    assert abs(math.fsum(masses) - 1.0) <= 1e-9
    assert all(len(c) == law.basis.d for c in law.atoms)


@LOADER_SETTINGS
@given(measure_docs)
def test_measure_from_json_parses_or_reports(doc):
    try:
        measure = jsonio.measure_from_json(doc)
    except (ParseError, DuplicateAtom):
        return
    assert isinstance(measure, SignedAtomicMeasure)


@LOADER_SETTINGS
@given(triplet_docs)
def test_triplet_from_json_parses_or_reports(doc):
    try:
        trip = jsonio.triplet_from_json(doc)
    except ParseError:
        return
    assert isinstance(trip, QuasiTriplet)


# generators of the differences: full rank, 2Z x Z, rank-deficient, and none at all
LATTICE_GENERATORS = {
    1: [[(1,)], [(3,)], []],
    2: [[(1, 0), (0, 1)], [(2, 0), (0, 1)], [(1, 1), (1, -1)], [(2, -3)], [(3, 1), (6, 2)], []],
    3: [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0), (0, 0, 3)], [(1, 2, 0), (0, 1, 1)],
        [(1, -1, 2)], []],
}


@st.composite
def integer_supports(draw):
    """Distinct integer points c0 + G n in d = 1..3, G from LATTICE_GENERATORS or random."""
    d = draw(st.integers(1, 3))
    entries = st.integers(-4, 4)
    gens = draw(st.sampled_from(LATTICE_GENERATORS[d])
                | st.lists(st.tuples(*[entries] * d), min_size=1, max_size=3))
    c0 = draw(st.tuples(*[st.integers(-10, 10)] * d))
    steps = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    ns = draw(st.lists(steps, min_size=1, max_size=6))
    points = {tuple(c + sum(n * g[j] for n, g in zip(ns_k, gens)) for j, c in enumerate(c0)) for ns_k in ns}
    return {p: Fraction(1, len(points)) for p in sorted(points)}


@settings(max_examples=300, deadline=None)
@given(integer_supports())
def test_reduction_reproduces_every_atom(atoms):
    c0, columns, masses = reduce_support(atoms)
    assert c0 == min(atoms)
    # c0 + B m gives back every atom exactly, with its mass
    assert dict(zip(lattice_points(c0, columns, list(masses)), masses.values())) == atoms
    # B has full column rank r, the rank of the differences
    diffs = np.array([[a - b for a, b in zip(c, c0)] for c in atoms], dtype=float)
    assert len(columns) == np.linalg.matrix_rank(diffs)
    # and spans no more than the differences do: the m themselves span all of Z^r
    identity = tuple(tuple(int(i == j) for j in range(len(columns))) for i in range(len(columns)))
    assert hermite_basis(masses) == identity


def lift(law: DiscreteLaw) -> DiscreteLaw:
    """The d = 1 law c over alpha as (c, 2c) over (alpha - 2 beta, beta), beta = sqrt 2: same values."""
    alpha, beta = float(law.basis.alphas[0]), math.sqrt(2)
    basis = FrequencyBasis((alpha - 2 * beta, beta))
    return DiscreteLaw.from_pairs(basis, [((c, 2 * c), m) for (c,), m in law.atoms.items()])


@st.composite
def dominant_lattice_laws(draw):
    """Law on offset + span*l whose heaviest atom carries more than half the mass."""
    width = draw(st.integers(1, 16))
    others = sorted(draw(st.sets(st.integers(1, width), min_size=1, max_size=6)))
    p_star = draw(st.floats(0.55, 0.95))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(others), max_size=len(others)))
    rest = [w / sum(weights) * (1 - p_star) for w in weights]
    where = draw(st.integers(0, len(rest)))
    masses = rest[:where] + [p_star] + rest[where:]
    offset = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-2, 3)]))
    span = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(3)]))
    return DiscreteLaw.from_lattice(dict(zip([0, *others], masses)), offset=offset, span=span)


@settings(max_examples=25, deadline=None)
@given(dominant_lattice_laws())
def test_multibasis_agrees_with_lattice(law):
    """A d = 1 law and its rank-1 lift into d = 2 reduce to the same law on Z."""
    lifted = lift(law)
    cert, cert2 = certify_separation(law), certify_separation(lifted)
    assert (cert2.verdict, cert2.mu) == (cert.verdict, cert.mu)
    trip, trip2 = extract_triplet(law), extract_triplet(lifted)
    (g,) = trip.gamma_coords
    assert trip2.gamma_coords == (g, 2 * g)
    weights = {(k, 2 * k): v for (k,), v in trip.lambdas.items()}
    keys = set(weights) | set(trip2.lambdas)
    gap = sum(abs(weights.get(k, 0.0) - trip2.lambdas.get(k, 0.0)) for k in keys)
    assert gap <= trip.tail_bound + trip2.tail_bound


@st.composite
def dominant_planar_laws(draw):
    """Law on (1, sqrt 2) with distinct support in [-3, 3]^2 and one atom of mass in [0.55, 0.95]."""
    support = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=7, unique=True))
    p_star = draw(st.floats(0.55, 0.95))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support) - 1, max_size=len(support) - 1))
    rest = [w / sum(weights) * (1 - p_star) for w in weights]
    return DiscreteLaw.from_pairs(FrequencyBasis((1, math.sqrt(2))), list(zip(support, [p_star, *rest])))


def sampled_torus_min(law: DiscreteLaw, per_axis: int) -> float:
    """min |sum_k p_k exp(i <c_k, theta>)| over a tensor grid of the torus, evaluated directly."""
    coords = np.array(list(law.atoms), dtype=float)
    masses = np.array([float(m) for m in law.atoms.values()])
    axis = 2.0 * math.pi * np.arange(per_axis) / per_axis
    thetas = np.stack(np.meshgrid(*([axis] * law.basis.d), indexing="ij"), -1).reshape(-1, law.basis.d)
    return float(np.min(np.abs(np.exp(1j * thetas @ coords.T) @ masses)))


@settings(max_examples=30, deadline=None)
@given(dominant_lattice_laws() | dominant_planar_laws(), st.sampled_from([0.9, 0.99, 0.999]))
def test_certified_never_contradicts_dense_sampling(law, gap):
    cert = certify_separation(law, SeparationParams(target_gap=gap))
    assert cert.verdict == "certified"  # a dominant atom keeps |f| >= 2 p_max - 1 > 0
    sampled = sampled_torus_min(law, 1 << 14 if law.basis.d == 1 else 256)
    assert sampled >= cert.mu - cert.search_log["rounding_margin"]
    assert cert.mu >= gap * cert.best_inf_estimate
