import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasilevy import (
    DiscreteLaw,
    FrequencyBasis,
    InvalidArgument,
    NonConvergent,
    NonpositiveTau,
    NotSeparated,
    QuasiLevyError,
    QuasiTriplet,
    SeparationParams,
    SignedAtomicMeasure,
    StepTooCoarse,
    TripletFailed,
    TripletParams,
    ZeroOnPath,
    cf_eval,
    cf_from_triplet,
    distinguished_log,
    extract_triplet,
    extract_triplets,
    gamma_tau,
    levy_spectral_function,
    mean_motion,
    module_generator,
    total_variation,
    triplet_lattice,
    triplet_multibasis,
    truncate_renormalize,
    tv_distance,
    winding_number,
)
from quasilevy import jsonio, limits
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

    def test_weights_are_a_read_only_measure(self):
        trip = triplet_lattice(DiscreteLaw.from_lattice({0: 0.8, 1: 0.2}))
        assert type(trip.levy_measure) is SignedAtomicMeasure and trip.lambdas is trip.levy_measure.atoms
        assert trip.ell1() == total_variation(trip.levy_measure) > 0
        with pytest.raises(TypeError):
            trip.lambdas[(1,)] = 0.0
        with pytest.raises(ValueError, match="coords must be integers"):
            QuasiTriplet(B1, (1.7,), {})
        with pytest.raises(ValueError, match="coords must be integers"):
            QuasiTriplet(B1, (1,), {(2.5,): 0.1})
        for weight in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                QuasiTriplet(B1, (1,), {(1,): weight})
        with pytest.raises(ValueError, match="zero frequency"):
            QuasiTriplet(B1, (1,), {(0,): 0.1})

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

    def test_rational_basis_gives_the_weights_of_its_values(self):
        law = DiscreteLaw(FrequencyBasis((1, 2)), {(0, 0): 0.5, (1, 0): 0.3, (0, 1): 0.2})
        trip, flat = triplet_multibasis(law), triplet_lattice(DiscreteLaw.from_lattice({0: 0.5, 1: 0.3, 2: 0.2}))
        values = [trip.frequency_value(k) for k in trip.lambdas]
        assert len(set(values)) == len(values)  # one key per real frequency
        assert dict(zip(values, trip.lambdas.values())) == {
            flat.frequency_value(k): v for k, v in flat.lambdas.items()}
        assert trip.gamma_value() == flat.gamma_value()

    def test_coords_beyond_int64_stay_exact(self):
        from quasilevy import certify_separation, reconstruct_law

        law = DiscreteLaw.from_lattice({10**20: 0.6, 10**20 + 1: 0.4})
        assert certify_separation(law).verdict == "certified"
        trip = triplet_lattice(law)
        assert trip.gamma_coords == (10**20,) and all(type(c) is int for c in trip.gamma_coords)
        rec, report = reconstruct_law(trip)
        assert tv_distance(rec, law) <= report.error_bound

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


class TestExtractionSeparation:
    # two laws with no atom above half the mass, which the search must decide, and a dominant-atom law
    LAWS = [
        DiscreteLaw.from_lattice({0: 0.36, 1: 0.24, 3: 0.24, 4: 0.16}),
        DiscreteLaw.from_lattice({0: 0.3, 1: 0.35, 2: 0.35}),
        DiscreteLaw.from_lattice({0: 0.7, 2: 0.2, 5: 0.1}),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=["no-dominant-4", "no-dominant-3", "dominant"])
    def test_proof_of_separation_gives_the_same_triplet(self, law, monkeypatch):
        from quasilevy import certify_separation, spectral

        proved, tight = extract_triplet(law), certify_separation(law)
        assert proved.diagnostics["certificate"].is_certified
        assert proved.diagnostics["certificate"].search_log["cells"] <= tight.search_log["cells"]
        # certified at the default gap instead, the law gets the same triplet and that tight certificate
        monkeypatch.setattr(spectral, "PROOF_OF_SEPARATION", SeparationParams())
        again = extract_triplet(law)
        assert jsonio.dumps(jsonio.triplet_to_json(again)) == jsonio.dumps(jsonio.triplet_to_json(proved))
        assert (jsonio.dumps(jsonio.certificate_to_json(again.diagnostics["certificate"]))
                == jsonio.dumps(jsonio.certificate_to_json(tight)))

    def test_dominant_atom_certifies_at_the_root(self):
        log = extract_triplet(self.LAWS[2]).diagnostics["certificate"].search_log
        assert (log["bound"], log["cells"]) == ("dominant", 1)


class TestShiftedLaws:
    @staticmethod
    def shifted(law, v):
        return DiscreteLaw.from_pairs(law.basis, [(tuple(c + s for c, s in zip(k, v)), m) for k, m in law.atoms.items()])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_an_integer_shift_moves_gamma_and_keeps_the_weights(self, data):
        # the heavy atom sits anywhere in the support, so the axis loops wind on every axis
        basis = data.draw(st.sampled_from([B2, B3]))
        point = st.tuples(*[st.integers(-2, 2)] * basis.d)
        support = data.draw(st.lists(point, min_size=2, max_size=5, unique=True))
        p_star = data.draw(st.floats(0.7, 0.95))
        law = DiscreteLaw.from_pairs(basis, list(zip(support, [p_star] + [(1 - p_star) / (len(support) - 1)]
                                                     * (len(support) - 1))))
        v = data.draw(st.tuples(*[st.integers(-9, 9)] * basis.d))
        moved = self.shifted(law, v)
        trip = extracted_alone(law, None)
        for found in (extracted_alone(moved, None), extract_triplets([law, moved])[1]):
            if isinstance(trip, QuasiLevyError):  # a law that does not extract fails the same way when moved
                assert seen_by_caller(found) == seen_by_caller(trip)
                continue
            assert found.gamma_coords == tuple(g + s for g, s in zip(trip.gamma_coords, v))
            assert found.lambdas == trip.lambdas and found.tail_bound == trip.tail_bound

    def test_a_law_past_the_grid_budget_fails_the_same_way_when_moved(self):
        law = DiscreteLaw.from_pairs(B3, [((0, 1, -2), 0.71875), ((0, 0, 0), 0.09375), ((0, 0, 1), 0.09375),
                                          ((1, 0, 0), 0.09375)])
        with pytest.raises(NonConvergent, match="grid budget"):
            extract_triplet(law)
        moved = self.shifted(law, (5, -3, 7))
        assert seen_by_caller(extract_triplets([law, moved])[1]) == seen_by_caller(extracted_alone(law, None))

    def test_windings_on_every_axis(self):
        # the reduced support is Z^3 from the least point (0, 0, 0), and the heavy atom (1, 2, 1) is gamma
        law = DiscreteLaw.from_pairs(B3, [((0, 0, 0), 0.05), ((1, 0, 0), 0.05), ((0, 1, 0), 0.05),
                                          ((0, 0, 1), 0.05), ((1, 2, 1), 0.8)])
        trip = extract_triplet(law)
        assert trip.diagnostics["winding"] == (1, 2, 1) and trip.gamma_coords == (1, 2, 1)
        moved = extract_triplets([law, self.shifted(law, (3, -4, 5))])[1]
        assert moved.gamma_coords == (4, -2, 6) and moved.lambdas == trip.lambdas


class TestTripletParams:
    @pytest.mark.parametrize("kwargs", [
        {"n_init": 0}, {"n_init": -64}, {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
        {"n_max": 0},
    ])
    def test_invalid_values_are_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            TripletParams(**kwargs)

    def test_smallest_valid_values(self):
        params = TripletParams(n_init=1, tol=5e-324, n_max=1)
        assert params.initial_n(1, 0) == 4  # raised by doubling to 4 (spread + 1)


# its floor, about 1e-14, is certified at PROOF_OF_SEPARATION, and its grid samples theta = pi, where |f| is as small
NEAR_ZERO_LAW = DiscreteLaw.from_lattice({0: 0.5 + 5e-15, 1: 0.5 - 5e-15})


@st.composite
def batch_laws(draw):
    """One member of a batch: a d = 1 law whose grid doubles 0 to 2 times from n = 64, a random
    dominant d = 1 or d = 2 law, a point mass, a law whose characteristic function has a zero, or
    one certified separated whose grid still samples |f| below 1e-13."""
    kind = draw(st.sampled_from(["doubling", "lattice", "planar", "point", "zero"]))
    if kind == "doubling":  # from n = 64: p in [0.7, 0.95] passes at once, [0.56, 0.6] after two doublings
        p = draw(st.floats(0.56, 0.95))
        return DiscreteLaw.from_lattice({0: p, 1: 1 - p})
    if kind == "point":
        return DiscreteLaw.from_values([(draw(st.integers(-5, 5)), 1.0)])
    if kind == "zero":
        return draw(st.sampled_from([DiscreteLaw.from_lattice({0: 0.5, 1: 0.5}),
                                     DiscreteLaw.from_lattice({0: 0.3, 1: 0.4, 2: 0.3}), NEAR_ZERO_LAW]))
    point = st.integers(-6, 6) if kind == "lattice" else st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    support = draw(st.lists(point, min_size=2, max_size=5, unique=True))
    p_star = draw(st.floats(0.65, 0.95))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support) - 1, max_size=len(support) - 1))
    masses = [p_star] + [w / sum(weights) * (1 - p_star) for w in weights]
    if kind == "lattice":
        return DiscreteLaw.from_lattice(dict(zip(support, masses)))
    return DiscreteLaw.from_pairs(B2, list(zip(support, masses)))


def seen_by_caller(found):
    """What a caller reads of one extraction: the triplet's JSON bytes, its diagnostics and its
    certificate's JSON bytes, or the exception's type and message; None for a law not extracted."""
    if found is None:
        return None
    if isinstance(found, QuasiLevyError):
        return type(found).__name__, str(found)
    diagnostics = {k: v for k, v in found.diagnostics.items() if k != "certificate"}
    return (jsonio.dumps(jsonio.triplet_to_json(found)), repr(diagnostics),
            jsonio.dumps(jsonio.certificate_to_json(found.diagnostics["certificate"])))


def extracted_alone(law, params):
    try:
        return extract_triplet(law, params)
    except QuasiLevyError as exc:
        return exc


class TestBatchedExtraction:
    # n_max = 128 turns the laws that double twice from n = 64 into NonConvergent members
    PARAMS = [None, TripletParams(n_init=64), TripletParams(n_init=64, n_max=128)]

    MIXED = [DiscreteLaw.from_lattice({0: 0.58, 1: 0.42}), DiscreteLaw.from_lattice({0: 0.3, 1: 0.4, 2: 0.3}),
             DiscreteLaw.from_lattice({0: 0.65, 1: 0.35}), DiscreteLaw.from_values([(2, 1.0)]),
             DiscreteLaw.from_pairs(B2, [((0, 0), 0.7), ((1, 0), 0.2), ((0, 1), 0.1)]),
             DiscreteLaw.from_lattice({0: 0.8, 2: 0.15, 5: 0.05})]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(batch_laws(), min_size=1, max_size=8), st.sampled_from(range(len(PARAMS))))
    @example(MIXED, 1)  # grids of 64, 128 and 256 in one batch, beside a zero, a point mass and a d = 2 law
    @example(MIXED, 2)  # the first law fails at n_max, before the zero of the second
    @example(MIXED[1:], 0)
    def test_batch_matches_each_law_alone(self, laws, which):
        params = self.PARAMS[which]
        alone = [seen_by_caller(extracted_alone(law, params)) for law in laws]
        # the first law that is not certified ends the batch; without such laws, every law is extracted
        cut = next((i for i, seen in enumerate(alone) if seen[0] == "NotSeparated"), len(laws) - 1)
        assert ([seen_by_caller(found) for found in extract_triplets(laws, params)]
                == alone[:cut + 1] + [None] * (len(laws) - cut - 1))
        kept = [(law, seen) for law, seen in zip(laws, alone) if seen[0] != "NotSeparated"]
        assert ([seen_by_caller(found) for found in extract_triplets([law for law, _ in kept], params)]
                == [seen for _, seen in kept])
        failing = [i for i, (law, seen) in enumerate(zip(laws, alone), start=1) if len(seen) == 2]
        if failing:
            with pytest.raises(TripletFailed) as caught:
                limits._extract_all(laws, params)
            assert caught.value.index == failing[0]
            assert (type(caught.value.cause).__name__, str(caught.value.cause)) == alone[failing[0] - 1]
        else:
            assert [seen_by_caller(t) for t in limits._extract_all(laws, params)] == alone

    def test_stacks_stay_within_the_grid_budget(self, monkeypatch):
        from quasilevy import spectral

        sizes = []
        extract_pass = spectral._extract_pass

        def spy(q, tol):
            sizes.append(q.shape)
            return extract_pass(q, tol)

        monkeypatch.setattr(spectral, "_extract_pass", spy)
        monkeypatch.setattr(spectral, "GRID_BUDGET", 3 * 1024)
        laws = [DiscreteLaw.from_lattice({0: 0.9 - 0.01 * i, 1: 0.1 + 0.01 * i}) for i in range(7)]
        assert all(isinstance(t, QuasiTriplet) for t in extract_triplets(laws))
        assert sizes == [(3, 1024), (3, 1024), (1, 1024)]
        sizes.clear()
        # nor beyond the largest grid a member may reach alone, n_max^r points
        monkeypatch.setattr(spectral, "GRID_BUDGET", 1 << 22)
        assert all(isinstance(t, QuasiTriplet) for t in extract_triplets(laws[:5], TripletParams(n_max=2048)))
        assert sizes == [(2, 1024), (2, 1024), (1, 1024)]

    def test_a_grid_that_samples_a_near_zero_is_zero_on_path(self):
        # certified, yet |f| falls below 1e-13 on the grid: no member of the stack is left for the phase
        from quasilevy import certify_separation
        from quasilevy.spectral import PROOF_OF_SEPARATION

        assert 0 < certify_separation(NEAR_ZERO_LAW, PROOF_OF_SEPARATION).mu < 1e-13
        with pytest.raises(ZeroOnPath, match="vanishes on the sampling grid"):
            extract_triplet(NEAR_ZERO_LAW)
        for laws, index in (([NEAR_ZERO_LAW], 1), ([self.MIXED[0], NEAR_ZERO_LAW, self.MIXED[2]], 2)):
            with pytest.raises(TripletFailed) as caught:
                limits._extract_all(laws, None)
            assert caught.value.index == index and isinstance(caught.value.cause, ZeroOnPath)

    def test_the_first_law_not_certified_ends_the_batch(self, monkeypatch):
        from quasilevy import spectral

        certified = []
        require_separated = spectral.require_separated

        def spy(law, params):
            certified.append(law)
            return require_separated(law, params)

        monkeypatch.setattr(spectral, "require_separated", spy)
        good, zero = self.MIXED[2], self.MIXED[1]
        first, failed, skipped = extract_triplets([good, zero, good])
        assert isinstance(first, QuasiTriplet) and isinstance(failed, NotSeparated) and skipped is None
        assert certified == [good, zero]


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

    @pytest.mark.parametrize("schedule", [[0.0], [], [-5.0], [4.0, math.inf], [math.nan]],
                             ids=["zero", "empty", "negative", "infinite", "nan"])
    def test_schedule_must_be_finite_and_positive(self, schedule):
        law = DiscreteLaw.from_lattice({0: 0.7, 1: 0.3})
        with pytest.raises(InvalidArgument, match="finite positive"):
            mean_motion(law, triplet_lattice(law), schedule)


class TestQuasiTriplet:
    @pytest.mark.parametrize("bound", [-1.0, -5e-324, math.nan, math.inf])
    def test_tail_bound_must_be_finite_and_nonnegative(self, bound):
        with pytest.raises(InvalidArgument, match="tail_bound"):
            QuasiTriplet(B1, (0,), {(1,): 0.25}, tail_bound=bound)


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

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(NonpositiveTau, match="finite and positive"):
            gamma_tau(QuasiTriplet(B1, (0,), {(1,): 1.0}), tau)

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
