"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every expected value is pinned from an independent oracle (closed
forms, brute-force series) frozen in tests/oracles.py.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from quasilevy import (
    DiscreteLaw,
    FrequencyBasis,
    LawSequence,
    QuasiTriplet,
    SeparationParams,
    TripletParams,
    certify_separation,
    cf_eval,
    check_convergence,
    conv_power,
    convolve_powers,
    gamma_tau,
    is_infinitely_divisible,
    levy_spectral_function,
    reconstruct_law,
    total_variation,
    triplet_lattice,
    triplet_multibasis,
    tv_distance,
)
from oracles import (
    binomial_power_masses,
    brute_convolution_power,
    geometric_cf,
    geometric_lambdas,
    random_lattice_law,
    random_planar_law,
    truncated_geometric,
)

B1 = FrequencyBasis((1,))
B2 = FrequencyBasis((1, math.sqrt(2)))


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_roundtrip_200_random_laws():
    rng = np.random.default_rng(20250810)
    params = TripletParams(n_max=1 << 14)
    worst_tv = 0.0
    worst_time = 0.0
    for _ in range(200):
        law = random_lattice_law(rng, max_width=16, dominant_min=0.55)
        t0 = time.perf_counter()
        trip = triplet_lattice(law, params)
        rec, _ = reconstruct_law(trip)
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_tv = max(worst_tv, tv_distance(rec, law))
    report(
        1,
        "round-trip TV <= 1e-8 over 200 random lattice laws, each < 1 s",
        worst_tv <= 1e-8 and worst_time < 1.0,
        f"worst TV {worst_tv:.2e}, worst time {worst_time:.3f}s",
    )


def test_criterion_2_geometric_weights():
    law, _ = truncated_geometric(Fraction(1, 2), 61)
    trip = triplet_lattice(law)
    oracle = geometric_lambdas(0.5, 20)
    err = max(abs(trip.lambdas[(k,)] - lam) for k, lam in oracle.items())
    ok = err <= 1e-9 and trip.gamma_coords == (0,)
    report(2, "geometric(1/2) weights match p^k/k and gamma = 0 exactly", ok,
           f"max weight error {err:.2e}")


def test_criterion_3_bernoulli_signed_weights_and_half_power():
    law = DiscreteLaw.from_lattice({0: 0.8, 1: 0.2})
    trip = triplet_lattice(law)
    ok1 = abs(trip.lambdas[(1,)] - 0.25) <= 1e-9
    ok2 = abs(trip.lambdas[(2,)] - (-0.03125)) <= 1e-9
    ok3 = not is_infinitely_divisible(trip)
    half = conv_power(trip, Fraction(1, 2))
    oracle_atom = binomial_power_masses(0.8, 0.25, 0.5, 2)[2]
    ok4 = half.classification == "signed"
    ok5 = abs(half.measure.atoms[(2,)] - oracle_atom) <= 1e-7
    report(
        3,
        "Bernoulli(0.8,0.2): lambda_1 = 0.25, lambda_2 = -0.03125, not ID, "
        "half power signed with the binomial-series atom",
        ok1 and ok2 and ok3 and ok4 and ok5,
        f"atom {half.measure.atoms[(2,)]:.6e} vs oracle {oracle_atom:.6e}",
    )


def test_criterion_4_bernoulli_half_zero_location():
    cert = certify_separation(DiscreteLaw.from_lattice({0: 0.5, 1: 0.5}))
    ok = (
        cert.verdict == "zero_found"
        and abs(cert.zero_theta[0] - math.pi) <= 1e-6
        and abs(cert.zero_t - math.pi) <= 1e-6
    )
    report(4, "Bernoulli(1/2,1/2) has a zero within 1e-6 of pi", ok,
           f"zero at {cert.zero_t!r}")


def test_criterion_5_h_law_not_in_class():
    alpha = math.sqrt(2) - 1
    basis = FrequencyBasis((alpha, 1))
    law = DiscreteLaw.from_pairs(basis, [((0, 0), 0.5), ((1, 0), 0.25), ((0, 1), 0.25)])
    cert = certify_separation(law)
    ok = cert.verdict == "zero_found" and cert.torus_infimum_only
    from quasilevy import NotSeparated

    try:
        triplet_multibasis(law)
        refused = False
    except NotSeparated:
        refused = True
    report(5, "H-law: torus infimum zero, excluded from the separated class",
           ok and refused, f"verdict {cert.verdict}, torus-only {cert.torus_infimum_only}")


def test_criterion_6_semigroup_and_integer_powers():
    rng = np.random.default_rng(77)
    worst_split = 0.0
    worst_int = 0.0
    for _ in range(50):
        law = random_lattice_law(rng, rational_fraction=0.0)
        trip = triplet_lattice(law)
        for s in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            combined = convolve_powers(conv_power(trip, s), conv_power(trip, 1 - s))
            diff = combined.shifted_measure().plus(law.as_measure().scaled(-1))
            worst_split = max(worst_split, total_variation(diff))
        masses = {c[0]: float(m) for c, m in law.atoms.items()}
        for n in range(1, 6):
            got = {c[0]: float(w) for c, w in conv_power(trip, n).shifted_measure().atoms.items()}
            want = brute_convolution_power(masses, n)
            keys = set(got) | set(want)
            worst_int = max(worst_int, sum(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys))
    ok = worst_split <= 1e-8 and worst_int <= 1e-9
    report(6, "semigroup splits within 1e-8 and integer powers match brute "
              "convolution within 1e-9 over 50 laws", ok,
           f"worst split {worst_split:.2e}, worst integer-power {worst_int:.2e}")


def _converging_family(rng, members: int = 12):
    base = random_lattice_law(rng, max_width=10, rational_fraction=0.0, basis=B1)
    trip = triplet_lattice(base)
    n_dirs = int(rng.integers(1, 4))
    freqs = rng.choice(np.arange(1, 7), size=n_dirs, replace=False)
    weights = rng.dirichlet(np.ones(n_dirs)) * float(rng.uniform(0.03, 0.08))
    eta = {(int(k),): float(w) for k, w in zip(freqs, weights)}
    laws = []
    for i in range(1, members + 1):
        scale = 0.3**i
        lambdas = dict(trip.lambdas)
        for c, w in eta.items():
            lambdas[c] = lambdas.get(c, 0.0) + w * scale
        law_i, _ = reconstruct_law(QuasiTriplet(B1, trip.gamma_coords, lambdas))
        laws.append(law_i)
    return LawSequence(tuple(laws), limit=base)


def _shifted_family(rng, members: int = 12):
    base = random_lattice_law(rng, max_width=10, rational_fraction=0.0, basis=B1)
    shifted = DiscreteLaw.from_pairs(B1, [((c[0] + 1,), m) for c, m in base.atoms.items()])
    return LawSequence(tuple([shifted] * members), limit=base)


def _stuck_family(rng, members: int = 12):
    base = random_lattice_law(rng, max_width=10, rational_fraction=0.0, basis=B1)
    trip = triplet_lattice(base)
    lambdas = dict(trip.lambdas)
    lambdas[(1,)] = lambdas.get((1,), 0.0) + 0.3
    law, _ = reconstruct_law(QuasiTriplet(B1, trip.gamma_coords, lambdas))
    return LawSequence(tuple([law] * members), limit=base)


def test_criterion_7_convergence_verdict_agrees_with_tv_trend():
    rng = np.random.default_rng(101)
    disagreements = 0
    inconclusive = 0
    for i in range(100):
        if i % 5 < 3:
            seq = _converging_family(rng)
        elif i % 5 == 3:
            seq = _shifted_family(rng)
        else:
            seq = _stuck_family(rng)
        verdict = check_convergence(seq)
        if verdict.verdict == "inconclusive":
            inconclusive += 1
        elif (verdict.verdict == "holds") != verdict.tv_trend_ok:
            disagreements += 1
    ok = disagreements == 0 and inconclusive == 0
    report(7, "convergence verdict agrees with the TV trend on 100 families",
           ok, f"{disagreements} disagreements, {inconclusive} inconclusive")


def test_criterion_8_g_family_growth():
    sep = SeparationParams(target_gap=0.99)
    mus = []
    ell1 = {}
    for n in range(1, 51):
        law = DiscreteLaw.from_lattice(
            {0: Fraction(1, 2) + Fraction(1, 2 + n), 1: Fraction(1, 2) - Fraction(1, 2 + n)}
        )
        cert = certify_separation(law, sep)
        if cert.verdict != "certified":
            report(8, "G_n family: every member certified", False, f"n={n}")
        mus.append(cert.mu)
        if n in (10, 50):
            ell1[n] = triplet_lattice(law).ell1()
    decreasing = all(b < a for a, b in zip(mus, mus[1:]))
    ratio = ell1[50] / ell1[10]
    ok = decreasing and ratio >= 2.0
    report(8, "G_n: certified with shrinking mu, weight mass doubles from n=10 to n=50",
           ok, f"mu_50 {mus[-1]:.4f}, ratio {ratio:.3f}")


def test_criterion_9_centering_and_spectral_function():
    rng = np.random.default_rng(131)
    fixtures = [
        truncated_geometric(Fraction(1, 2), 61)[0],
        DiscreteLaw.from_lattice({0: 0.8, 1: 0.2}),
    ] + [random_lattice_law(rng) for _ in range(3)]
    worst = 0.0
    for law in fixtures:
        trip = triplet_lattice(law)
        us = np.array([float(trip.frequency_value(c)) for c in trip.lambdas])
        lams = np.array(list(trip.lambdas.values()))
        for tau in rng.uniform(0.05, 15.0, size=100):
            gt = gamma_tau(trip, float(tau))
            expo = 1j * tau * gt
            if us.size:
                expo += np.sum(lams * (np.exp(1j * tau * us) - 1 - 1j * np.sin(tau * us)))
            worst = max(worst, abs(np.exp(expo) - cf_eval(law, float(tau))))
    sparse = QuasiTriplet(B1, (0,), {(-2,): 0.25, (1,): 0.7, (5,): -0.1})
    sf = levy_spectral_function(sparse)
    tails_exact = sf(5.5) == 0.0 and sf(-2.5) == 0.0 and sf(4.5) == pytest.approx(0.1)
    ok = worst <= 1e-9 and tails_exact
    report(9, "gamma_tau/spectral-function form reproduces f(tau) within 1e-9; "
              "tails vanish exactly", ok, f"worst |error| {worst:.2e}")


def test_criterion_10_truncation_bound():
    worst_ratio = 0.0
    for n in (5, 10, 20):
        law_n, dropped = truncated_geometric(Fraction(1, 2), n)
        ts = np.linspace(0.0, 6 * math.pi, 30001)
        sup = float(np.max(np.abs(geometric_cf(0.5, ts) - cf_eval(law_n, ts))))
        bound = 2.0 * float(dropped)
        worst_ratio = max(worst_ratio, sup / bound)
        if sup > bound + 1e-12:
            report(10, "truncation bound", False, f"n={n}: sup {sup:.3e} > bound {bound:.3e}")
    report(10, "sup |f - f_n| <= twice the dropped mass for n in {5, 10, 20}",
           worst_ratio <= 1.0 + 1e-9, f"worst sup/bound ratio {worst_ratio:.3f}")


def test_criterion_11_planar_roundtrip_50_random_laws():
    rng = np.random.default_rng(20261018)
    worst_tv = 0.0
    for _ in range(50):
        law = random_planar_law(rng, B2)
        rec, _ = reconstruct_law(triplet_multibasis(law))
        worst_tv = max(worst_tv, tv_distance(rec, law))
    report(11, "d=2 round-trip TV <= 1e-8 over 50 random dominant-atom laws on (1, sqrt 2)",
           worst_tv <= 1e-8, f"worst TV {worst_tv:.2e}")


def test_criterion_12_planar_half_power_semigroup():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        law = random_planar_law(rng, B2)
        half = conv_power(triplet_multibasis(law), Fraction(1, 2))
        diff = convolve_powers(half, half).shifted_measure().plus(law.as_measure().scaled(-1))
        worst = max(worst, total_variation(diff))
    report(12, "d=2 half powers convolve back to the law within 1e-8 over 10 random laws",
           worst <= 1e-8, f"worst TV {worst:.2e}")
