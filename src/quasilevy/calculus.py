"""Measure-level exponential calculus: reconstruction and convolution powers.

The spectral pair (gamma, {lambda_u}) is inverted in measure space as

    delta_gamma * e^(-sum lambda) * sum_n N^(*n) / n!,    N = sum lambda_u delta_u,

a compound-exponential series truncated at the smallest order M whose
factorial tail bound meets the tolerance.  One routine sums it for every
d, in Fourier space: the weights sit on a real array, a power of two per
axis, whose window along each axis holds the series' mass by a Chernoff
bound, or spans every coordinate the order-M series reaches when that is
no larger.  The bound takes the best of 32 exponents from two fixed
tables: a coarse one, and a fine one around the coarse best.  An array
beyond GRID_BUDGET points raises Diverged.
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
from typing import Optional

import numpy as np

from .charfn import UNIT_ROUNDOFF, _gamma, budget_slices
from .errors import Diverged, InvalidArgument, NegativeMassBeyondTolerance
from .measures import DiscreteLaw, SignedAtomicMeasure, _lattice, convolve, lattice_map
from .spectral import GRID_BUDGET, QuasiTriplet

NEGATIVE_MASS_TOL = 1e-9  # per-atom: separates genuinely signed results from roundoff
MAX_SERIES_TERMS = 400  # the highest series order tried before Diverged


@dataclass
class ExpSeriesParams:
    tol: float = 1e-12

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidArgument("tol must be positive")


def _series_order(norm: float, prefactor: float, params: ExpSeriesParams) -> tuple[int, float]:
    """Smallest M with tail(M) = prefactor * e^norm * norm^(M+1)/(M+1)! <= tol, and tail(M).

    tail(M) bounds the l1 mass of prefactor * sum_{n>M} N^(*n)/n! when the
    exponent N has l1 norm `norm`.
    """
    if norm == 0.0:
        return 0, 0.0
    try:
        tail = prefactor * math.exp(norm)
    except OverflowError:
        raise Diverged(f"series tail bound e^norm overflows the float range (l1 norm {norm})") from None
    term = 1.0
    for m in range(MAX_SERIES_TERMS + 1):
        before = term
        term *= norm / (m + 1)
        if tail * term <= params.tol:
            return m, tail * before * norm / (m + 1)
    raise Diverged(
        f"series tail bound did not close within {MAX_SERIES_TERMS} terms (l1 norm {norm})"
    )


# Chernoff exponents of _axis_window, in units of 1 / reach: a coarse scan, then
# factors that place the fine one strictly between the neighbours of the best coarse exponent
COARSE_THETA = np.geomspace(1e-4, 64.0, 16)
FINE_THETA = (COARSE_THETA[1] / COARSE_THETA[0]) ** np.linspace(-1.0, 1.0, 18)[1:-1]


def _cumulant(theta: np.ndarray, u: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """sum_u mags_u e^(theta u) for each theta, at most TERMS_BUDGET exponentials at a time.

    Every theta of _axis_window is below 160 / reach, so no exponential overflows.
    """
    return sum(np.exp(np.outer(theta, u[cols])) @ mags[cols] for cols in budget_slices(len(u), len(theta)))


def _axis_window(axis, mags: np.ndarray, order: int, log_share: float) -> tuple[int, int, float]:
    """Window (lo, length) of one axis of the series array, and the mass bound outside it.

    The series is supported in [M min(0, u), M max(0, u)]; that span,
    rounded up to a power of two, never wraps.  When most of that span
    holds negligible mass, a shorter window is taken from Chernoff bounds
    on the nonnegative measure exp(|N|) = sum_n |N|^(*n)/n!, which
    dominates every term of the series: for theta > 0 its mass at axis
    coordinates x >= R is at most exp(-theta R + sum_u |lambda_u| e^(theta u)),
    and likewise below.  Any theta > 0 gives a valid bound, so each side
    tries 32 from two fixed tables: the 16 exponents COARSE_THETA / reach,
    then 16 strictly between the two neighbours of the coarse one that
    gives the nearest edge (FINE_THETA times it).  Each side is sized so
    its best bound is at most e^log_share, and the best bound at the final
    edges is returned (0 when the window holds the whole span).
    """
    axis = np.asarray(axis)  # sized in Python ints below: a frequency from a triplet file may exceed int64
    lo, hi = min(0, order * int(axis.min())), max(0, order * int(axis.max()))
    length = 1 << (hi - lo).bit_length()
    reach = int(abs(axis).max())
    if length <= 64 or reach > 2**52:  # too short to gain from, or beyond exact floats
        return lo, length, 0.0
    live = mags > 0
    u, live_mags = axis.astype(float)[live], mags[live]
    coarse = COARSE_THETA / reach
    theta, cumulant = {}, {}
    for side in (1, -1):
        signed = side * u
        rough = _cumulant(coarse, signed, live_mags)
        fine = coarse[np.argmin((rough - log_share) / coarse)] * FINE_THETA
        theta[side] = np.concatenate([coarse, fine])
        cumulant[side] = np.concatenate([rough, _cumulant(fine, signed, live_mags)])

    def edge(side: int, cap: int) -> int:
        # least R >= 1 with exp(-theta R + K(side theta)) <= e^log_share for some theta
        best = float(np.min((cumulant[side] - log_share) / theta[side]))
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
            return float(np.min(np.exp(cumulant[side] - theta[side] * edge_at)))

    return w_lo, short, outside(1, w_hi + 1) + outside(-1, -(w_lo - 1))


def _compound_exp_fourier(keys: np.ndarray, lams: np.ndarray, params: ExpSeriesParams):
    """The series by the convolution theorem, for any d; returns (coords, weights, residual).

    The weights lams, at the integer coords keys (n, d), go on a real
    array whose window along each axis holds the series' mass (see
    _axis_window), a power of two per axis.  The cyclic
    convolution of the FFT folds each coordinate outside the window onto
    one inside, which moves at most twice the mass outside it in l1.
    sum_{n<=M} J^n/n! is evaluated pointwise by Horner over rfftn(jump)
    and inverted once.  The residual is the series tail, twice the mass
    bound outside the window, the l1 mass of output atoms pruned below
    tol/(10M) or the per-cell roundoff level, and an a-priori roundoff
    bound for the float evaluation (see _fourier_roundoff).
    """
    norm = float(np.sum(np.abs(lams)))
    scale = math.exp(-float(np.sum(lams)))
    order, series_tail = _series_order(norm, scale, params)

    axes = keys.T
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
    np.add.at(jump, tuple(axis % n for axis, n in zip(axes, shape)), lams)
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
    at t = 0.  The series runs on Z^r: the frequencies, stored as
    c0 + B' m' (SignedAtomicMeasure.reduction), span B Z^r, B the Hermite
    basis of c0 and the columns of B', so the weight at c0 + B' m' goes to
    k0 + m' @ K with c0 = B k0 and B' = B K, and an output atom at m lands
    at gamma + m @ B.
    """
    if params is None:
        params = ExpSeriesParams()
    gamma = triplet.gamma_coords
    if not len(triplet.levy_measure.coords):
        return SignedAtomicMeasure(triplet.basis, {gamma: 1.0}), 0.0
    c0, columns, m, lams = triplet.levy_measure.reduction()
    span, k = _lattice(np.array([c0, *columns], dtype=object), triplet.basis)
    if not span:  # every frequency has the value 0 on a rational basis, so the exponent vanishes
        return SignedAtomicMeasure(triplet.basis, {gamma: 1.0}), 0.0
    coords, weights, residual = _compound_exp_fourier(lattice_map(k[0], k[1:], m), lams, params)
    return SignedAtomicMeasure(triplet.basis, (lattice_map(gamma, span, coords), weights)), residual


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
    if _classification(measure) == "signed":
        raise NegativeMassBeyondTolerance(
            f"reconstruction is a signed measure (atom weight {_most_negative(measure)}); "
            "the triplet does not correspond to a probability law"
        )
    weights = measure.weights
    clamped = -sum(weights[weights < 0].tolist())
    kept = weights > 0
    total = sum(weights[kept].tolist())
    law = DiscreteLaw.from_pairs(triplet.basis, (measure.coords[kept], weights[kept] / total))
    try:
        log_bound = math.expm1(triplet.tail_bound + residual)
    except OverflowError:
        raise Diverged(f"error bound e^(tail_bound + residual) overflows, tail_bound {triplet.tail_bound}") from None
    report = ReconstructionReport(
        series_residual=residual,
        clamped_negative_mass=clamped,
        renormalization=abs(1.0 - total),
        error_bound=log_bound + 2.0 * (clamped + abs(1.0 - total)),
    )
    return law, report


def _most_negative(measure: SignedAtomicMeasure) -> float:
    return min(measure.weights.tolist(), default=0.0)


def _classification(measure: SignedAtomicMeasure) -> str:
    """"probability" unless some atom weight is below -NEGATIVE_MASS_TOL, then "signed"."""
    return "probability" if _most_negative(measure) >= -NEGATIVE_MASS_TOL else "signed"


def _in_module(shift_coords: tuple[Fraction, ...]) -> bool:
    return all(c.denominator == 1 for c in shift_coords)


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
        shift = np.array([int(c) for c in self.shift_coords], dtype=object)
        return SignedAtomicMeasure(self.measure.basis, (self.measure.coords + shift, self.measure.weights))


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
    try:
        s_exact = Fraction(s)
        sf = float(s_exact)
    except (OverflowError, ValueError):
        raise InvalidArgument("the power s must be a finite number within the float range") from None
    scaled_tail = sf * triplet.tail_bound
    if scaled_tail == math.inf:
        raise Diverged(f"scaled tail bound s * tail_bound overflows, tail_bound {triplet.tail_bound}")
    scaled = QuasiTriplet(triplet.basis, (0,) * triplet.d, triplet.levy_measure.scaled(sf), tail_bound=scaled_tail)
    measure, residual = compound_exp(scaled, params)
    shift_coords = tuple(s_exact * m for m in triplet.gamma_coords)
    shift_value = float(
        sum(float(c) * float(a) for c, a in zip(shift_coords, triplet.basis.alphas))
    )
    return ConvPowerResult(
        measure=measure,
        shift_coords=shift_coords,
        shift_in_module=_in_module(shift_coords),
        shift_value=shift_value,
        classification=_classification(measure),
        series_residual=residual,
        scaled_tail=scaled_tail,
    )


def convolve_powers(r1: ConvPowerResult, r2: ConvPowerResult) -> ConvPowerResult:
    """Convolve two fractional powers; shifts add exactly."""
    measure = convolve(r1.measure, r2.measure)
    shift_coords = tuple(a + b for a, b in zip(r1.shift_coords, r2.shift_coords))
    return ConvPowerResult(
        measure=measure,
        shift_coords=shift_coords,
        shift_in_module=_in_module(shift_coords),
        shift_value=r1.shift_value + r2.shift_value,
        classification=_classification(measure),
        series_residual=r1.series_residual + r2.series_residual,
        scaled_tail=r1.scaled_tail + r2.scaled_tail,
    )


def is_infinitely_divisible(triplet: QuasiTriplet, tol: float = NEGATIVE_MASS_TOL) -> bool:
    """All spectral weights nonnegative (up to tol) and a negligible tail."""
    if triplet.tail_bound > tol:
        return False
    return all(lam >= -tol for lam in triplet.levy_measure.given_weights)
