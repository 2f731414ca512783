import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from quasilevy import (
    DiscreteLaw,
    ExpSeriesParams,
    FrequencyBasis,
    NegativeMassBeyondTolerance,
    QuasiTriplet,
    compound_exp,
    conv_power,
    convolve,
    convolve_powers,
    is_infinitely_divisible,
    reconstruct_law,
    total_variation,
    triplet_lattice,
    triplet_multibasis,
    tv_distance,
)
from oracles import (
    binomial_power_masses,
    brute_convolution_power,
    geometric_lambdas,
    random_lattice_law,
    truncated_geometric,
)

B1 = FrequencyBasis((1,))


def series_exp_oracle(lambdas: dict[int, float], terms: int = 60) -> dict[int, float]:
    """Brute compound-exponential series on plain dicts (independent route)."""
    out = {0: 1.0}
    term = {0: 1.0}
    for n in range(1, terms + 1):
        nxt: dict[int, float] = {}
        for k1, w1 in term.items():
            for k2, lam in lambdas.items():
                nxt[k1 + k2] = nxt.get(k1 + k2, 0.0) + w1 * lam / n
        term = nxt
        for k, w in term.items():
            out[k] = out.get(k, 0.0) + w
    scale = math.exp(-sum(lambdas.values()))
    return {k: scale * w for k, w in out.items()}


class TestCompoundExp:
    def test_pure_shift(self):
        measure, residual = compound_exp(QuasiTriplet(B1, (5,), {}))
        assert dict(measure.atoms) == {(5,): 1.0}
        assert residual == 0.0

    def test_poisson_masses(self):
        measure, residual = compound_exp(QuasiTriplet(B1, (0,), {(1,): 1.0}))
        assert measure.atoms[(0,)] == pytest.approx(math.exp(-1.0), abs=1e-12)
        for k in range(1, 12):
            assert measure.atoms[(k,)] == pytest.approx(
                math.exp(-1.0) / math.factorial(k), abs=1e-12
            )
        assert residual < 1e-12

    def test_signed_series_against_oracle(self):
        lambdas = {1: 1.0, 2: -0.1}
        measure, _ = compound_exp(QuasiTriplet(B1, (0,), {(k,): v for k, v in lambdas.items()}))
        oracle = series_exp_oracle(lambdas)
        for k in range(0, 20):
            assert measure.atoms.get((k,), 0.0) == pytest.approx(oracle.get(k, 0.0), abs=1e-12)
        assert any(w < 0 for w in measure.atoms.values())

    def test_total_integral_is_one(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            ks = rng.choice(np.arange(-4, 7), size=4, replace=False)
            lams = rng.normal(scale=0.4, size=4)
            trip = QuasiTriplet(
                B1, (int(rng.integers(-3, 4)),),
                {(int(k),): float(v) for k, v in zip(ks, lams) if k != 0},
            )
            measure, residual = compound_exp(trip)
            assert float(measure.total()) == pytest.approx(1.0, abs=residual + 1e-11)

    def test_d1_layout_matches_d2_embedding(self):
        # the same exponent as a d=1 triplet and as a d=2 one with its
        # frequencies embedded on the first axis
        lambdas = {1: 0.6, 3: -0.15}
        line, _ = compound_exp(QuasiTriplet(B1, (0,), {(k,): v for k, v in lambdas.items()}))
        basis2 = FrequencyBasis((1, math.sqrt(2)))
        planar, _ = compound_exp(
            QuasiTriplet(basis2, (0, 0), {(k, 0): v for k, v in lambdas.items()})
        )
        for (k,), w in line.atoms.items():
            assert planar.atoms.get((k, 0), 0.0) == pytest.approx(w, abs=1e-12)


def exact_series(lambdas: dict, terms: int) -> dict:
    """e^(-sum lambda) sum_{n<=terms} N^(*n)/n! in exact rationals, the factor to 50 digits."""
    zero = (0,) * len(next(iter(lambdas)))
    out = {zero: Fraction(1)}
    term = {zero: Fraction(1)}
    for n in range(1, terms + 1):
        nxt: dict = {}
        for c1, w1 in term.items():
            for c2, lam in lambdas.items():
                key = tuple(a + b for a, b in zip(c1, c2))
                nxt[key] = nxt.get(key, 0) + w1 * lam / n
        term = nxt
        for key, w in term.items():
            out[key] = out.get(key, 0) + w
    with localcontext() as ctx:
        ctx.prec = 50
        total = sum(lambdas.values())
        scale = Fraction((-Decimal(total.numerator) / Decimal(total.denominator)).exp())
    return {key: scale * w for key, w in out.items()}


class TestFourierSeries:
    @pytest.mark.parametrize("tol", [1e-12, 1e-30])
    @pytest.mark.parametrize("basis, lambdas, terms", [
        (B1, {(1,): Fraction(1, 4), (3,): Fraction(1, 8), (-2,): Fraction(-1, 16)}, 40),
        (FrequencyBasis((1, math.sqrt(2))),
         {(1, 0): Fraction(1, 4), (0, 1): Fraction(1, 8), (1, -1): Fraction(-1, 16)}, 40),
        (FrequencyBasis((1, math.sqrt(2), math.sqrt(3))),
         {(1, 0, 0): Fraction(1, 8), (0, 1, 0): Fraction(1, 16), (0, 0, -1): Fraction(1, 16),
          (1, 1, 0): Fraction(-1, 32)}, 28),
        # a far frequency with a small weight: both axes get a window
        # shorter than the series' reach, so the FFT folds mass over
        (FrequencyBasis((1, math.sqrt(2))),
         {(1, 0): Fraction(1, 4), (0, 1): Fraction(1, 8), (12, -9): Fraction(1, 512)}, 30),
    ], ids=["d1", "d2", "d3", "d2-windowed"])
    def test_within_residual_of_exact_series(self, basis, lambdas, terms, tol):
        # the exact series runs far past the float one's order, so the l1 gap
        # holds the series tail, the pruned atoms and the roundoff; at tol 1e-30
        # the a-priori roundoff term alone has to cover it
        measure, residual = compound_exp(
            QuasiTriplet(basis, (0,) * basis.d, {c: float(v) for c, v in lambdas.items()}),
            ExpSeriesParams(tol=tol),
        )
        exact = exact_series(lambdas, terms)
        keys = set(exact) | set(measure.atoms)
        gap = sum(abs(Fraction(measure.atoms.get(k, 0.0)) - exact.get(k, 0)) for k in keys)
        assert 0 < gap <= residual

    @pytest.mark.parametrize("sign", [1, -1])
    def test_window_bounds_the_mass_outside_it(self, sign):
        # the dominating measure exp(|N|) along one axis, summed to order M
        # on a dense array, against the window and the bound _axis_window returns
        from quasilevy.calculus import _axis_window

        axis, mags, order = tuple(sign * u for u in (1, -2, 7, 30)), np.array([0.3, 0.2, 0.02, 1e-4]), 24
        log_share = math.log(1e-12)
        lo, length, outside = _axis_window(axis, mags, order, log_share)
        low, high = min(axis), max(axis)
        assert length < order * (high - low) + 1
        jump = np.zeros(high - low + 1)
        jump[np.array(axis) - low] = mags
        series, term = np.zeros(order * (high - low) + 1), np.array([1.0])
        for n in range(order + 1):  # term n starts at coordinate n * low
            series[(order - n) * -low: (order - n) * -low + len(term)] += term
            term = np.convolve(term, jump) / (n + 1)
        coords = np.arange(len(series)) + order * low
        beyond = float(np.sum(series[(coords < lo) | (coords >= lo + length)]))
        assert 0.0 < beyond <= outside <= 2 * math.exp(log_share)

    def test_roundoff_level_atoms_are_pruned(self):
        # every term of the series is nonnegative here, so an atom that
        # clears the per-cell roundoff level cannot come out negative
        basis = FrequencyBasis((1, math.sqrt(2)))
        measure, _ = compound_exp(
            QuasiTriplet(basis, (0, 0), {(1, 0): 0.5, (0, 1): 0.25, (2, -1): 0.125}),
            ExpSeriesParams(tol=1e-30),
        )
        assert min(measure.atoms.values()) > 0

    def test_diverged_beyond_grid_budget(self):
        from quasilevy import Diverged

        basis = FrequencyBasis((1, math.sqrt(2)))
        # the frequencies span Z^2, so the series runs on these coords as they are
        for lambdas in ({(1000, 0): 0.2, (1001, 0): 0.1, (0, -1000): 0.2, (0, -1001): 0.1},
                        {(10**30, 0): 0.2, (10**30 + 1, 0): 0.1, (0, 1): 0.2}):
            with pytest.raises(Diverged, match="grid budget"):
                compound_exp(QuasiTriplet(basis, (0, 0), lambdas))

    def test_frequencies_reduce_to_their_lattice(self):
        # the frequencies span 1000 Z x 1000 Z: the series runs on Z^2 and its atoms land on
        # the product of two Poisson(0.2) laws at exact multiples of 1000
        basis = FrequencyBasis((1, math.sqrt(2)))
        measure, residual = compound_exp(QuasiTriplet(basis, (1, 2), {(1000, 0): 0.2, (0, -1000): 0.2}))
        assert residual <= 1e-12
        assert all((c[0] - 1) % 1000 == 0 and (c[1] - 2) % 1000 == 0 for c in measure.atoms)
        for a in range(4):
            for b in range(4):
                exact = math.exp(-0.4) * 0.2 ** (a + b) / (math.factorial(a) * math.factorial(b))
                assert measure.atoms[(1 + 1000 * a, 2 - 1000 * b)] == pytest.approx(exact, abs=1e-13)


class TestReconstructLaw:
    def test_point_mass(self):
        law, report = reconstruct_law(QuasiTriplet(B1, (3,), {}))
        assert dict(law.atoms) == {(3,): 1.0}
        assert report.error_bound == 0.0

    def test_geometric_roundtrip(self):
        law = truncated_geometric(Fraction(1, 2), 61)[0]
        trip = triplet_lattice(law)
        rec, report = reconstruct_law(trip)
        assert tv_distance(rec, law) <= 1e-8
        assert tv_distance(rec, law) <= report.error_bound + 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeMassBeyondTolerance):
            reconstruct_law(QuasiTriplet(B1, (0,), {(1,): -1.0}))

    def test_reconstruction_inequality(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            law = random_lattice_law(rng)
            trip = triplet_lattice(law)
            rec, report = reconstruct_law(trip)
            bound = math.expm1(trip.tail_bound + report.series_residual)
            assert tv_distance(rec, law) <= bound + 2 * (
                report.clamped_negative_mass + report.renormalization
            ) + 1e-12


class TestSlowDecayPlanar:
    # dominant mass 0.58: the weights decay like 0.72^k along (-1, -3), and
    # the order-M series reaches a 2048 x 4096 array, beyond the grid budget;
    # the series array is sized to where the mass is instead
    LAW = {(-1, 2): 0.58, (-2, -1): 0.42}

    def test_roundtrip(self):
        law = DiscreteLaw.from_pairs(FrequencyBasis((1, math.sqrt(2))), self.LAW.items())
        rec, report = reconstruct_law(triplet_multibasis(law))
        assert tv_distance(rec, law) <= min(1e-8, report.error_bound + 1e-12)

    def test_cube_power(self):
        law = DiscreteLaw.from_pairs(FrequencyBasis((1, math.sqrt(2))), self.LAW.items())
        cube = conv_power(triplet_multibasis(law), 3).shifted_measure()
        brute = convolve(convolve(law.as_measure(), law.as_measure()), law.as_measure())
        assert total_variation(cube.plus(brute.scaled(-1))) <= 1e-8


class TestConvPower:
    def test_identity_power(self):
        law = DiscreteLaw.from_lattice({0: 0.8, 1: 0.2})
        trip = triplet_lattice(law)
        r = conv_power(trip, 1)
        assert r.classification == "probability"
        m = r.shifted_measure()
        diff = m.plus(law.as_measure().scaled(-1))
        assert total_variation(diff) <= 1e-10

    def test_zero_power_is_delta(self):
        trip = triplet_lattice(DiscreteLaw.from_lattice({0: 0.8, 1: 0.2}))
        r = conv_power(trip, 0)
        assert dict(r.shifted_measure().atoms) == {(0,): 1.0}

    def test_bernoulli_half_power_signed(self):
        trip = triplet_lattice(DiscreteLaw.from_lattice({0: 0.8, 1: 0.2}))
        r = conv_power(trip, Fraction(1, 2))
        assert r.classification == "signed"
        oracle = binomial_power_masses(0.8, 0.25, 0.5, 10)
        assert r.measure.atoms[(2,)] == pytest.approx(oracle[2], abs=1e-7)
        assert oracle[2] == pytest.approx(-0.0069877, abs=1e-7)
        for j in range(8):
            assert r.measure.atoms.get((j,), 0.0) == pytest.approx(oracle[j], abs=1e-9)

    def test_irrational_power_leaves_module(self):
        law = DiscreteLaw.from_values([(2, 0.7), (3, 0.3)])
        trip = triplet_lattice(law)
        assert trip.gamma_value() == 2
        r = conv_power(trip, math.sqrt(2) / 2)
        assert not r.shift_in_module
        assert r.shift_value == pytest.approx(2 * math.sqrt(2) / 2, rel=1e-12)
        with pytest.raises(ValueError):
            r.shifted_measure()

    def test_semigroup_random(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            law = random_lattice_law(rng, rational_fraction=0.0)
            trip = triplet_lattice(law)
            s1 = Fraction(int(rng.integers(1, 8)), 8)
            s2 = Fraction(int(rng.integers(1, 8)), 8)
            combined = convolve_powers(conv_power(trip, s1), conv_power(trip, s2))
            direct = conv_power(trip, s1 + s2)
            assert combined.shift_coords == direct.shift_coords
            diff = combined.measure.plus(direct.measure.scaled(-1))
            assert total_variation(diff) <= 1e-8

    def test_integer_power_matches_brute_convolution(self):
        rng = np.random.default_rng(47)
        for _ in range(6):
            law = random_lattice_law(rng, max_width=8, rational_fraction=0.0)
            trip = triplet_lattice(law)
            masses = {c[0]: float(m) for c, m in law.atoms.items()}
            for n in range(1, 6):
                r = conv_power(trip, n)
                got = {c[0]: float(w) for c, w in r.shifted_measure().atoms.items()}
                want = brute_convolution_power(masses, n)
                keys = set(got) | set(want)
                err = sum(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys)
                assert err <= 1e-9


class TestInfinitelyDivisible:
    def test_poisson_true(self):
        assert is_infinitely_divisible(QuasiTriplet(B1, (0,), {(1,): 0.7}))

    def test_bernoulli_false(self):
        trip = triplet_lattice(DiscreteLaw.from_lattice({0: 0.8, 1: 0.2}))
        assert trip.lambdas[(2,)] < 0
        assert not is_infinitely_divisible(trip)

    def test_geometric_true(self):
        trip = triplet_lattice(truncated_geometric(Fraction(1, 2), 61)[0])
        assert is_infinitely_divisible(trip)
        oracle = geometric_lambdas(0.5, 10)
        assert all(lam > 0 for lam in oracle.values())


class TestExpLogInversion:
    def test_triplet_of_reconstruction_recovers_weights(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 12:
            ks = rng.choice(np.arange(1, 7), size=3, replace=False)
            lams = np.abs(rng.normal(scale=0.5, size=3))
            lams[rng.integers(0, 3)] *= -0.2  # mild negative part
            if np.sum(np.abs(lams)) > 2:
                continue
            trip = QuasiTriplet(
                B1, (int(rng.integers(0, 3)),),
                {(int(k),): float(v) for k, v in zip(ks, lams)},
            )
            try:
                law, report = reconstruct_law(trip)
            except NegativeMassBeyondTolerance:
                continue
            if report.clamped_negative_mass > 1e-12:
                continue  # genuinely signed up to roundoff: not a probability law
            back = triplet_lattice(law)
            assert back.gamma_coords == trip.gamma_coords
            keys = set(back.lambdas) | set(trip.lambdas)
            for k in keys:
                assert back.lambdas.get(k, 0.0) == pytest.approx(
                    trip.lambdas.get(k, 0.0), abs=1e-9
                )
            done += 1


class TestSeriesControls:
    def test_diverged_when_max_terms_too_small(self):
        from quasilevy import Diverged

        trip = QuasiTriplet(B1, (0,), {(1,): 3.0})
        with pytest.raises(Diverged):
            compound_exp(trip, ExpSeriesParams(tol=1e-12, max_terms=3))

    def test_d1_diverged_beyond_grid_budget(self):
        from quasilevy import Diverged

        # the frequencies have gcd 1, so none of them is reduced: the series of order M
        # spans M * 10**15 indices; the jump of the second spans 10**15
        for lambdas in ({(10**15,): 0.1, (10**15 + 1,): 0.1}, {(1,): 0.1, (-(10**15),): 1e-20},
                        {(10**6,): 0.5, (10**6 + 1,): 0.1}):
            with pytest.raises(Diverged, match="grid budget"):
                compound_exp(QuasiTriplet(B1, (0,), lambdas))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExpSeriesParams(tol=0.0)
        with pytest.raises(ValueError):
            ExpSeriesParams(max_terms=0)
