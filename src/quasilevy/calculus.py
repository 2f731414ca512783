"""Measure-level exponential calculus: reconstruction and convolution powers.

The spectral pair (gamma, {lambda_u}) is inverted in measure space as

    delta_gamma * e^(-sum lambda) * sum_n N^(*n) / n!,    N = sum lambda_u delta_u,

a compound-exponential series truncated at the smallest order M whose
factorial tail bound meets the tolerance.  One routine sums it for every
d, in Fourier space: the weights sit on a real array, a power of two per
axis, whose window along each axis holds the series' mass by a Chernoff
bound (or spans every coordinate the order-M series reaches, when that
is no larger); an array beyond GRID_BUDGET points raises Diverged.
sum_{n<=M} J^n/n! is evaluated pointwise by Horner over rfftn(jump) and
inverted once.  The reported residual bounds the l1 distance to the
exact series: the tail, the pruned atoms, twice the mass bound outside
the window and an a-priori roundoff term.  This is the independent route
back from a triplet to a law: it never takes a logarithm or unwraps a
phase as the extractors do, so agreement of the round trip is a genuine
two-sided check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .charfn import UNIT_ROUNDOFF, _gamma
from .errors import Diverged, InvalidArgument, NegativeMassBeyondTolerance
from .measures import Coords, DiscreteLaw, SignedAtomicMeasure, convolve
from .measures import hermite_basis, lattice_coords, lattice_points
from .spectral import GRID_BUDGET, QuasiTriplet

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


def _series_order(norm: float, prefactor: float, params: ExpSeriesParams) -> tuple[int, float]:
    """Smallest M with tail(M) = prefactor * e^norm * norm^(M+1)/(M+1)! <= tol, and tail(M).

    tail(M) bounds the l1 mass of prefactor * sum_{n>M} N^(*n)/n! when the
    exponent N has l1 norm `norm`.
    """
    if norm == 0.0:
        return 0, 0.0
    tail = prefactor * math.exp(norm)
    term = 1.0
    for m in range(params.max_terms + 1):
        before = term
        term *= norm / (m + 1)
        if tail * term <= params.tol:
            return m, tail * before * norm / (m + 1)
    raise Diverged(
        f"series tail bound did not close within max_terms={params.max_terms} (l1 norm {norm})"
    )


def _axis_window(axis, mags: np.ndarray, order: int, log_share: float) -> tuple[int, int, float]:
    """Window (lo, length) of one axis of the series array, and the mass bound outside it.

    The series is supported in [M min(0, u), M max(0, u)]; that span,
    rounded up to a power of two, never wraps.  When most of that span
    holds negligible mass, a shorter window is taken from Chernoff bounds
    on the nonnegative measure exp(|N|) = sum_n |N|^(*n)/n!, which
    dominates every term of the series: for theta > 0 its mass at axis
    coordinates x >= R is at most exp(-theta R + sum_u |lambda_u| e^(theta u)),
    and likewise below.  Each side is sized so its bound is at most
    e^log_share, and the bound at the final edges is returned (0 when the
    window holds the whole span).
    """
    lo, hi = min(0, order * min(axis)), max(0, order * max(axis))
    length = 1 << (hi - lo).bit_length()
    reach = max(abs(c) for c in axis)
    if length <= 64 or reach > 2**52:  # too short to gain from, or beyond exact floats
        return lo, length, 0.0
    live = mags > 0
    u = np.array(axis, dtype=float)[live]
    theta = np.geomspace(1e-4, 64.0, 96) / reach
    with np.errstate(over="ignore"):
        cumulant = {side: np.exp(side * np.outer(theta, u)) @ mags[live] for side in (1, -1)}

    def edge(side: int, cap: int) -> int:
        # least R >= 1 with exp(-theta R + K(side theta)) <= e^log_share for some theta
        best = float(np.min((cumulant[side] - log_share) / theta))
        return max(1, int(best) + 1) if best < cap else cap

    up, down = edge(1, hi + 1), edge(-1, 1 - lo)
    short = 1 << (up + down - 2).bit_length()
    if short >= length:
        return lo, length, 0.0
    # centre the spare cells on the Chernoff window, then keep it inside the span
    w_lo = -(down - 1) - (short - (up + down - 1)) // 2
    w_lo = min(max(w_lo, lo), hi + 1 - short)
    w_hi = w_lo + short - 1

    def outside(side: int, edge_at: int) -> float:
        if (side > 0 and w_hi >= hi) or (side < 0 and w_lo <= lo):
            return 0.0
        with np.errstate(over="ignore"):
            return float(np.min(np.exp(cumulant[side] - theta * edge_at)))

    return w_lo, short, outside(1, w_hi + 1) + outside(-1, -(w_lo - 1))


def _compound_exp_fourier(lambdas: Mapping[Coords, float], params: ExpSeriesParams):
    """The series by the convolution theorem, for any d; returns (coords, weights, residual).

    The weights go on a real array whose window along each axis holds the
    series' mass (see _axis_window), a power of two per axis.  The cyclic
    convolution of the FFT folds each coordinate outside the window onto
    one inside, which moves at most twice the mass outside it in l1.
    sum_{n<=M} J^n/n! is evaluated pointwise by Horner over rfftn(jump)
    and inverted once.  The residual is the series tail, twice the mass
    bound outside the window, the l1 mass of output atoms pruned below
    tol/(10M) or the per-cell roundoff level, and an a-priori roundoff
    bound for the float evaluation (see _fourier_roundoff).
    """
    lams = np.array(list(lambdas.values()), dtype=float)
    norm = float(np.sum(np.abs(lams)))
    scale = math.exp(-float(np.sum(lams)))
    order, series_tail = _series_order(norm, scale, params)

    # sized in Python ints: a frequency from a triplet file may exceed int64
    axes = list(zip(*lambdas))
    # per side: scale * bound <= tol / (4d), so twice the 2d bounds add at most tol
    log_share = math.log(params.tol) - math.log(4 * len(axes)) + float(np.sum(lams))
    windows = [_axis_window(axis, np.abs(lams), order, log_share) for axis in axes]
    lo = [w[0] for w in windows]
    shape = tuple(w[1] for w in windows)
    size = math.prod(shape)
    if size > GRID_BUDGET:
        raise Diverged(
            f"series support needs a {'x'.join(map(str, shape))} array, "
            f"beyond the grid budget of {GRID_BUDGET} points"
        )
    wrapped = 2.0 * scale * sum(w[2] for w in windows)
    jump = np.zeros(shape)
    np.add.at(jump, tuple(np.array([c % n for c in axis]) for axis, n in zip(axes, shape)), lams)
    z = np.fft.rfftn(jump)
    acc = np.ones_like(z)
    for n in range(order, 0, -1):  # Horner: 1 + z (1 + z/2 (1 + ... (1 + z/M)))
        acc *= z
        acc /= n
        acc += 1.0
    series = np.fft.irfftn(acc, s=shape, axes=range(len(shape)))
    series *= scale

    cell_error, roundoff = _fourier_roundoff(size, order, len(lams), norm, float(np.linalg.norm(lams)), scale)
    mags = np.abs(series)
    keep = mags >= max(params.tol / (10.0 * max(order, 1)), cell_error)
    discarded = float(np.sum(mags[~keep]))
    cells = np.argwhere(keep)
    coords = lo + (cells - lo) % shape  # the representative of each residue class in the window
    return coords, series[keep], series_tail + wrapped + discarded + roundoff


def _fourier_roundoff(
    size: int, order: int, terms: int, norm: float, norm2: float, scale: float
) -> tuple[float, float]:
    """A-priori bounds on the float error of _compound_exp_fourier: per cell, and in l1.

    Model: radix-2 FFTs with accurately computed twiddle factors, whose
    computed transform y' of x satisfies ||y' - y||_2 <= eps_F ||y||_2 with
    eps_F = T eta / (1 - T eta), T = log2(size), eta = u + gamma_4 (sqrt 2 + u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 24.2).  With a = ||lambda||_1, every exact Fourier value |J^_k| <= a,
    and every computed one is within r = eps_F sqrt(size) ||lambda||_2 of
    it, so the degree-M Taylor polynomial P and P' are bounded by
    g = e^(a + r) wherever they are evaluated:
      forward FFT   ||dJ^||_2 <= eps_F sqrt(size) ||lambda||_2, moved through P by g;
      Horner        gamma_(5M+1) g per point, complex products counted as
                    sqrt 2 gamma_2 (Higham Sec. 3.6 and eq. 5.3), so sqrt(size)
                    gamma_(5M+1) g in 2-norm;
      inverse FFT   eps_F ||P(J^)||_2 / sqrt(size) <= eps_F g.
    The 2-norm error of the unscaled series is thus at most
    g (eps_F (||lambda||_2 + 1) + gamma_(5M+1)), at most sqrt(size) times
    that in l1; the 2-norm also bounds the error of any single cell.  The
    factor e^(-sum lambda) adds gamma_(K+2) (a + 1) relative error (a
    K-term sum, exp and the product) on an output of l1 mass at most
    scale g.  These are first-order terms; both bounds are raised by 1% to
    cover the products of two rounding errors.
    """
    u = UNIT_ROUNDOFF
    depth = max(size.bit_length() - 1, 1)
    eta = u + _gamma(4) * (math.sqrt(2.0) + u)
    eps_f = depth * eta / (1.0 - depth * eta)
    grow = math.exp(norm + eps_f * math.sqrt(size) * norm2)
    series_2 = grow * (eps_f * (norm2 + 1.0) + _gamma(5 * order + 1))
    factor = grow * _gamma(terms + 2) * (norm + 1.0)
    return 1.01 * scale * (series_2 + factor), 1.01 * scale * (math.sqrt(size) * series_2 + factor)


def compound_exp(
    triplet: QuasiTriplet, params: Optional[ExpSeriesParams] = None
) -> tuple[SignedAtomicMeasure, float]:
    """Exponentiate a triplet into a signed atomic measure.

    Returns the measure and a bound on its l1 distance to the exact
    exponential: the series tail, the pruned atoms, the mass folded over
    by the FFT and the roundoff bound of the Fourier-space evaluation.
    The total integral is 1 up to that bound, since the exponent vanishes
    at t = 0.  The series runs on Z^r: the frequencies span B Z^r
    (measures.hermite_basis), the weight at B k goes to k, and an output
    atom at m lands at gamma + B m.
    """
    if params is None:
        params = ExpSeriesParams()
    gamma = triplet.gamma_coords
    if not triplet.lambdas:
        return SignedAtomicMeasure(triplet.basis, {gamma: 1.0}), 0.0
    columns = hermite_basis(triplet.lambdas)
    reduced = dict(zip(lattice_coords(columns, list(triplet.lambdas)), triplet.lambdas.values()))
    coords, weights, residual = _compound_exp_fourier(reduced, params)
    atoms = dict(zip(lattice_points(gamma, columns, coords.tolist()), weights.tolist()))
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
