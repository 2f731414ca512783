"""Measure-level exponential calculus: reconstruction and convolution powers.

The spectral pair (gamma, {lambda_u}) is inverted in measure space as

    delta_gamma * e^(-sum lambda) * sum_n N^(*n) / n!,    N = sum lambda_u delta_u,

a compound-exponential series whose tail is controlled by the factorial
bound.  This is the independent route back from a triplet to a law: it
never touches the DFT machinery that produced the triplet, so agreement
of the round trip is a genuine two-sided check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import Diverged, InvalidArgument, NegativeMassBeyondTolerance
from .measures import Coords, DiscreteLaw, SignedAtomicMeasure, convolve
from .spectral import QuasiTriplet

NEGATIVE_MASS_TOL = 1e-9  # per-atom: separates genuinely signed results from roundoff


@dataclass
class ExpSeriesParams:
    tol: float = 1e-12
    max_terms: int = 400

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidArgument("tol must be positive")
        if self.max_terms < 1:
            raise InvalidArgument("max_terms must be at least 1")


def _series_order(norm: float, prefactor: float, params: ExpSeriesParams) -> int:
    """Smallest M with prefactor * e^norm * norm^(M+1)/(M+1)! <= tol."""
    if norm == 0.0:
        return 0
    tail = prefactor * math.exp(norm)
    term = 1.0
    for m in range(params.max_terms + 1):
        term *= norm / (m + 1)
        if tail * term <= params.tol:
            return m
    raise Diverged(
        f"series tail bound did not close within max_terms={params.max_terms} (l1 norm {norm})"
    )


def _compound_exp_dense(ks, lams, params: ExpSeriesParams):
    """d = 1 series on a dense integer-index array; returns (weights, origin, residual)."""
    kmin, kmax = min(ks), max(ks)
    jump = np.zeros(kmax - kmin + 1)
    for k, lam in zip(ks, lams):
        jump[k - kmin] = lam
    norm = float(np.sum(np.abs(jump)))
    scale = math.exp(-float(np.sum(jump)))
    order = _series_order(norm, scale, params)
    prune = params.tol / (10.0 * max(order, 1))

    acc = np.array([1.0])
    acc_origin = 0
    term = np.array([1.0])
    term_origin = 0
    discarded = 0.0
    for n in range(1, order + 1):
        term = np.convolve(term, jump) / n
        term_origin += kmin
        small = (np.abs(term) < prune) & (term != 0.0)
        discarded += float(np.sum(np.abs(term[small])))
        term = np.where(small, 0.0, term)
        lo = min(acc_origin, term_origin)
        hi = max(acc_origin + len(acc), term_origin + len(term))
        merged = np.zeros(hi - lo)
        merged[acc_origin - lo : acc_origin - lo + len(acc)] = acc
        merged[term_origin - lo : term_origin - lo + len(term)] += term
        acc, acc_origin = merged, lo
    tail = scale * math.exp(norm)
    t = 1.0
    for m in range(order):
        t *= norm / (m + 1)
    series_tail = tail * t * norm / (order + 1) if norm > 0 else 0.0
    return scale * acc, acc_origin, series_tail + scale * discarded


def _compound_exp_sparse(lambdas: dict[Coords, float], d: int, params: ExpSeriesParams):
    """General-d series on coordinate dicts; returns (atoms, residual)."""
    norm = sum(abs(v) for v in lambdas.values())
    scale = math.exp(-sum(lambdas.values()))
    order = _series_order(norm, scale, params)
    prune = params.tol / (10.0 * max(order, 1))

    zero = (0,) * d
    acc = {zero: 1.0}
    term = {zero: 1.0}
    discarded = 0.0
    for n in range(1, order + 1):
        nxt: dict[Coords, float] = {}
        for c1, w1 in term.items():
            for c2, lam in lambdas.items():
                key = tuple(a + b for a, b in zip(c1, c2))
                nxt[key] = nxt.get(key, 0.0) + w1 * lam / n
        term = {}
        for c, w in nxt.items():
            if abs(w) < prune:
                discarded += abs(w)
            else:
                term[c] = w
        for c, w in term.items():
            acc[c] = acc.get(c, 0.0) + w
    tail = scale * math.exp(norm)
    t = 1.0
    for m in range(order):
        t *= norm / (m + 1)
    series_tail = tail * t * norm / (order + 1) if norm > 0 else 0.0
    return {c: scale * w for c, w in acc.items()}, series_tail + scale * discarded


def compound_exp(
    triplet: QuasiTriplet, params: Optional[ExpSeriesParams] = None
) -> tuple[SignedAtomicMeasure, float]:
    """Exponentiate a triplet into a signed atomic measure.

    Returns the measure and a certified bound on the total variation that
    was discarded (series tail plus pruned atoms).  The total integral is
    1 up to that bound, since the exponent vanishes at t = 0.
    """
    if params is None:
        params = ExpSeriesParams()
    d = triplet.d
    gamma = triplet.gamma_coords
    if not triplet.lambdas:
        return SignedAtomicMeasure(triplet.basis, {gamma: 1.0}), 0.0
    if d == 1:
        ks = [c[0] for c in triplet.lambdas]
        lams = list(triplet.lambdas.values())
        weights, origin, residual = _compound_exp_dense(ks, lams, params)
        atoms = {
            (origin + i + gamma[0],): float(w)
            for i, w in enumerate(weights)
            if w != 0.0
        }
    else:
        raw, residual = _compound_exp_sparse(dict(triplet.lambdas), d, params)
        atoms = {
            tuple(c + g for c, g in zip(coords, gamma)): w for coords, w in raw.items()
        }
    return SignedAtomicMeasure(triplet.basis, atoms), residual


@dataclass(frozen=True)
class ReconstructionReport:
    series_residual: float
    clamped_negative_mass: float
    renormalization: float
    error_bound: float  # e^(tail_bound + series residual) - 1, the log-to-law inequality


def reconstruct_law(
    triplet: QuasiTriplet, params: Optional[ExpSeriesParams] = None
) -> tuple[DiscreteLaw, ReconstructionReport]:
    """Invert a triplet into a probability law.

    The compound-exponential output must be nonnegative up to the per-atom
    tolerance; otherwise the triplet did not come from a probability law
    and NegativeMassBeyondTolerance is raised.  Tiny negatives are clamped
    and the masses renormalized; everything clamped is reported.
    """
    if params is None:
        params = ExpSeriesParams()
    measure, residual = compound_exp(triplet, params)
    weights = dict(measure.atoms)
    most_negative = min((float(w) for w in weights.values()), default=0.0)
    if most_negative < -NEGATIVE_MASS_TOL:
        raise NegativeMassBeyondTolerance(
            f"reconstruction is a signed measure (atom weight {most_negative}); "
            "the triplet does not correspond to a probability law"
        )
    clamped = -sum(float(w) for w in weights.values() if w < 0)
    kept = {c: float(w) for c, w in weights.items() if w > 0}
    total = sum(kept.values())
    law = DiscreteLaw.from_pairs(triplet.basis, ((c, w / total) for c, w in kept.items()))
    report = ReconstructionReport(
        series_residual=residual,
        clamped_negative_mass=clamped,
        renormalization=abs(1.0 - total),
        error_bound=math.expm1(triplet.tail_bound + residual) + 2.0 * (clamped + abs(1.0 - total)),
    )
    return law, report


@dataclass(frozen=True)
class ConvPowerResult:
    """Fractional convolution power: scaled spectral data, re-exponentiated.

    The shift s*gamma is kept separate as exact per-axis coordinates; it
    folds back into atom coordinates only when integral (shift_in_module),
    since leaving the support module is legal for powers but must be
    flagged rather than silently rounded.
    """

    measure: SignedAtomicMeasure  # the exponential part, not shifted
    shift_coords: tuple[Fraction, ...]
    shift_in_module: bool
    shift_value: float
    classification: str  # "probability" | "signed"
    series_residual: float
    scaled_tail: float

    def shifted_measure(self) -> SignedAtomicMeasure:
        if not self.shift_in_module:
            raise ValueError(
                "shift left the support module; carry shift_value as a real offset"
            )
        shift = tuple(int(c) for c in self.shift_coords)
        return SignedAtomicMeasure(
            self.measure.basis,
            {
                tuple(a + b for a, b in zip(coords, shift)): w
                for coords, w in self.measure.atoms.items()
            },
        )


def conv_power(
    triplet: QuasiTriplet, s, params: Optional[ExpSeriesParams] = None
) -> ConvPowerResult:
    """s-th convolution power through the triplet: gamma -> s*gamma, lambda -> s*lambda.

    Pass s as Fraction (or an exactly representable float) to keep the
    shift exact; an irrational s*gamma is reported with shift_in_module
    False.  Signed outputs are classified, never renormalized.
    """
    if s < 0:
        raise InvalidArgument("the power s must be nonnegative")
    if params is None:
        params = ExpSeriesParams()
    s_exact = Fraction(s) if not isinstance(s, Fraction) else s
    sf = float(s_exact)
    scaled = QuasiTriplet(
        triplet.basis,
        (0,) * triplet.d,
        {c: sf * lam for c, lam in triplet.lambdas.items()},
        tail_bound=sf * triplet.tail_bound,
    )
    measure, residual = compound_exp(scaled, params)
    shift_coords = tuple(s_exact * m for m in triplet.gamma_coords)
    in_module = all(c.denominator == 1 for c in shift_coords)
    shift_value = float(
        sum(float(c) * float(a) for c, a in zip(shift_coords, triplet.basis.alphas))
    )
    most_negative = min((float(w) for w in measure.atoms.values()), default=0.0)
    classification = "probability" if most_negative >= -NEGATIVE_MASS_TOL else "signed"
    return ConvPowerResult(
        measure=measure,
        shift_coords=shift_coords,
        shift_in_module=in_module,
        shift_value=shift_value,
        classification=classification,
        series_residual=residual,
        scaled_tail=sf * triplet.tail_bound,
    )


def convolve_powers(r1: ConvPowerResult, r2: ConvPowerResult) -> ConvPowerResult:
    """Convolve two fractional powers; shifts add exactly."""
    measure = convolve(r1.measure, r2.measure)
    shift_coords = tuple(a + b for a, b in zip(r1.shift_coords, r2.shift_coords))
    in_module = all(c.denominator == 1 for c in shift_coords)
    most_negative = min((float(w) for w in measure.atoms.values()), default=0.0)
    return ConvPowerResult(
        measure=measure,
        shift_coords=shift_coords,
        shift_in_module=in_module,
        shift_value=r1.shift_value + r2.shift_value,
        classification="probability" if most_negative >= -NEGATIVE_MASS_TOL else "signed",
        series_residual=r1.series_residual + r2.series_residual,
        scaled_tail=r1.scaled_tail + r2.scaled_tail,
    )


def is_infinitely_divisible(triplet: QuasiTriplet, tol: float = NEGATIVE_MASS_TOL) -> bool:
    """All spectral weights nonnegative (up to tol) and a negligible tail."""
    if triplet.tail_bound > tol:
        return False
    return all(lam >= -tol for lam in triplet.lambdas.values())
