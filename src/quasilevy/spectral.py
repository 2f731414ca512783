"""Spectral triplets of separated discrete laws.

A discrete law whose characteristic function f is separated from zero has
a global distinguished logarithm, and Ln f is an almost periodic function
whose Fourier coefficients live on the support module.  Numerically this
becomes one extraction routine for every basis.  It reads the law's
stored reduction c0 + B Z^r (SignedAtomicMeasure.reduction), so a lattice
law, a law over an irrational basis and a rank-deficient support are all
laws on Z^r.  The reduced masses go to their coords mod n on an n^r
grid, f is lifted to the torus as the inverse DFT of that grid, the phase is
continued axis by axis, the integer winding numbers w of the axis loops
are peeled off, and the remaining coefficients are read from a DFT.  The
grid doubles until the phase-jump, imaginary-part, alias and
reconstruction-residual guards all pass.  The shift is gamma = c0 + B w,
an exact integer combination of the basis, and a reduced frequency k is
the frequency B k, with an l1 tail that is tracked explicitly.  Both are
handed to the triplet as arrays, c0 + w @ B and k @ B.

The core works on a batch.  extract_triplets takes a list of laws and
one TripletParams for all of them; the pending grids of one rank r and
one size n are stacked along a leading batch axis, (b, n, ..., n), and
one pass runs the FFTs and elementwise steps on the whole stack.  A
stack holds at most GRID_BUDGET points, the most one grid may have, and
at most n_max^r when that is less, so that it never outgrows the largest
grid one of its laws may reach alone.  Only the members whose pass
failed a guard go on, on grids of size 2n.  Sums stay per member, so
each law gets the bits it gets alone; extract_triplet is the batch of
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .charfn import SeparationParams, cf_eval, exp_sum, require_separated
from .errors import InvalidArgument, NonConvergent, NonpositiveTau, QuasiLevyError, StepTooCoarse, ZeroOnPath
from .measures import (Coords, DiscreteLaw, FrequencyBasis, Scalar, SignedAtomicMeasure, _normalize_coords,
                       is_exact, lattice_map, same_basis, total_variation)

TWO_PI = 2.0 * math.pi
DEFAULT_STEP_GUARD = 0.9 * math.pi
LAMBDA_DROP_TOL = 1e-13
REAL_PART_TOL = 1e-10
PATH_ZERO_TOL = 1e-10  # |f| below this on a continued path reads as a zero
GRID_BUDGET = 1 << 22  # most points of one grid: an extraction pass or a reconstruction series
# Extraction needs a proof that inf |f| > 0 and nothing more: the spectral pair
# exists exactly when it is positive, and extraction never reads mu.  At this
# gap any positive floor or cell bound closes the search.  A cell that holds a
# zero never has a positive bound, so a law with a zero is still refuted.
PROOF_OF_SEPARATION = SeparationParams(target_gap=2.0**-52)


# --- distinguished logarithm along sampled paths -----------------------------


def distinguished_log(values, zero_tol: float = 1e-12) -> np.ndarray:
    """Continuous branch of log along a sampled path starting at 1.

    The phase is integrated from the wrapped increments arg(v_{j+1}/v_j);
    that is only the true continuous branch if every increment stays below
    the guard, so an increment >= DEFAULT_STEP_GUARD raises StepTooCoarse
    and the caller must refine its sampling.
    """
    vals = np.asarray(values, dtype=complex)
    mods = np.abs(vals)
    if np.any(mods < zero_tol):
        raise ZeroOnPath(f"path modulus fell below {zero_tol}")
    if abs(vals[0] - 1.0) > 1e-9:
        raise ValueError("path must start at 1")
    dphi = np.angle(vals[1:] / vals[:-1])
    if dphi.size and float(np.max(np.abs(dphi))) >= DEFAULT_STEP_GUARD:
        raise StepTooCoarse(
            f"adjacent phase jump {float(np.max(np.abs(dphi))):.4f} >= guard {DEFAULT_STEP_GUARD:.4f}"
        )
    phase = np.empty(len(vals))
    phase[0] = 0.0
    np.cumsum(dphi, out=phase[1:])
    return np.log(mods) + 1j * phase


def winding_number(loop_values) -> int:
    """Integer phase increment (in turns) around a closed sampled loop."""
    vals = np.asarray(loop_values, dtype=complex)
    dphi = np.angle(np.roll(vals, -1) / vals)
    if float(np.max(np.abs(dphi))) >= DEFAULT_STEP_GUARD:
        raise StepTooCoarse("loop sampled too coarsely for a reliable winding number")
    total = float(np.sum(dphi))
    m = round(total / TWO_PI)
    if abs(total - TWO_PI * m) > 1e-6:
        raise StepTooCoarse(f"loop phase increment {total} is not close to a multiple of 2*pi")
    return m


def continued_arg(law: DiscreteLaw, ts) -> tuple[np.ndarray, np.ndarray]:
    """f and its continuous-phase Arg at the sorted points ts >= 0.

    The phase is continued from t = 0 along a uniform grid merged with ts.
    The step starts at min(0.05, 0.3 / sum p_k |x_k|) and halves until
    every adjacent phase increment passes the distinguished_log guard.
    ZeroOnPath is raised if |f| dips below PATH_ZERO_TOL on the grid, or if a
    refinement fails where |f| < 1e-6; StepTooCoarse after 16 halvings;
    InvalidArgument past GRID_BUDGET grid points or the float range.
    """
    ts = np.asarray(ts, dtype=float)
    amp = sum((law.weights * np.abs(law.support_floats())).tolist())
    step = min(0.05, 0.3 / max(amp, 1e-9))
    for _ in range(16):
        if ts[-1] / step + 1 + len(ts) > GRID_BUDGET:
            raise InvalidArgument(f"continuing the phase to t = {ts[-1]} needs more than {GRID_BUDGET} points")
        dense = np.unique(np.concatenate([np.arange(0.0, ts[-1] + step, step), ts]))
        vals = cf_eval(law, dense)
        if float(np.min(np.abs(vals))) < PATH_ZERO_TOL:
            raise ZeroOnPath("the characteristic function dips below the zero tolerance")
        try:
            logs = distinguished_log(vals, zero_tol=PATH_ZERO_TOL)
            break
        except StepTooCoarse:
            if float(np.min(np.abs(vals))) < 1e-6:
                raise ZeroOnPath(
                    "phase cannot be continued: the characteristic function "
                    "passes too close to zero"
                ) from None
            step *= 0.5
    else:
        raise StepTooCoarse("phase continuation did not stabilize")
    idx = np.searchsorted(dense, ts)
    return vals[idx], logs[idx].imag


# --- triplet container ---------------------------------------------------------


class QuasiTriplet:
    """The pair (gamma, {lambda_u}) over a frequency basis, plus a tail bound.

    gamma_coords are integers, so gamma = sum_j m_j alpha_j lies in the
    support module exactly.  The signed measure levy_measure maps nonzero
    frequency vectors l (u = sum_j l_j alpha_j) to finite float weights;
    lambdas is its read-only view.  lambdas may be given as a mapping, as
    the arrays (frequencies (n, d), weights (n,)), or as a measure on the
    same basis, which is kept as it is.  tail_bound is a certified bound on
    the l1 mass of everything not stored: finite and nonnegative, or
    InvalidArgument is raised.
    """

    __slots__ = ("basis", "gamma_coords", "levy_measure", "tail_bound", "diagnostics")

    def __init__(
        self,
        basis: FrequencyBasis,
        gamma_coords: Iterable[int],
        lambdas: Mapping[Coords, float] | tuple | SignedAtomicMeasure,
        tail_bound: float = 0.0,
        diagnostics: Optional[dict] = None,
    ):
        self.basis = basis
        self.gamma_coords = _normalize_coords(gamma_coords, basis)
        if isinstance(lambdas, Mapping):
            lambdas = (list(lambdas), np.array(list(lambdas.values()), dtype=float))
        self.levy_measure = lambdas if isinstance(lambdas, SignedAtomicMeasure) else SignedAtomicMeasure(basis, lambdas)
        same_basis(basis, self.levy_measure.basis, "triplet weights")
        if (self.levy_measure.coords == 0).all(axis=1).any():
            raise ValueError("zero frequency must not be stored; its weight is derived")
        self.tail_bound = float(tail_bound)
        if not 0.0 <= self.tail_bound < math.inf:
            raise InvalidArgument(f"tail_bound must be finite and nonnegative, got {tail_bound}")
        self.diagnostics = diagnostics or {}

    @property
    def lambdas(self) -> Mapping[Coords, float]:
        return self.levy_measure.atoms

    @property
    def d(self) -> int:
        return self.basis.d

    def gamma_value(self) -> Scalar:
        return self.basis.value(self.gamma_coords)

    def frequency_value(self, coords: Coords) -> Scalar:
        return self.basis.value(coords)

    def ell1(self) -> float:
        return total_variation(self.levy_measure)

    def __eq__(self, other):
        if not isinstance(other, QuasiTriplet):
            return NotImplemented
        return (self.levy_measure, self.gamma_coords, self.tail_bound) == (
            other.levy_measure, other.gamma_coords, other.tail_bound)

    def __repr__(self):
        return (
            f"QuasiTriplet(gamma={self.gamma_coords}, {len(self.levy_measure.coords)} frequencies, "
            f"tail<={self.tail_bound:.2e})"
        )


def cf_from_triplet(triplet: QuasiTriplet, t):
    """exp(i*t*gamma + sum lambda_u (e^(i*t*u) - 1)) for scalar or array t."""
    t_arr = np.asarray(t, dtype=float)
    gamma = float(triplet.gamma_value())
    us = triplet.levy_measure.support_floats()
    lams = triplet.levy_measure.weights
    expo = 1j * t_arr * gamma
    if us.size:
        expo = expo + exp_sum(t_arr, us, lams, less_one=True)
    out = np.exp(expo)
    return complex(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass
class TripletParams:
    """Grid and tolerance knobs for triplet extraction, one set for a whole batch.

    The grid is laid over the reduced support c0 + B Z^r, so d below is
    the rank r and spread the widest range of the reduced coords m on one
    axis.  n_init None picks 1024 samples per axis for d = 1 and 64 for
    d >= 2, raised by doubling to at least 4 * (spread + 1).  From there the
    grid doubles until the phase steps, the imaginary-part and aliasing
    guards, and the reconstruction residual all pass, or n_max is
    exceeded; a grid of more than GRID_BUDGET points raises NonConvergent.
    A d >= 2 start is small because a pass costs n^d: the alias guard
    doubles the grid for laws whose weights decay slowly.  tol must be
    finite and positive, n_init (when given) and n_max at least 1.
    """

    n_init: Optional[int] = None
    tol: float = 1e-10
    n_max: int = 1 << 17

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise InvalidArgument(f"tol must be finite and positive, got {self.tol}")
        if self.n_init is not None and self.n_init < 1:
            raise InvalidArgument(f"n_init must be positive, got {self.n_init}")
        if self.n_max < 1:
            raise InvalidArgument(f"n_max must be positive, got {self.n_max}")

    def initial_n(self, d: int, spread: int) -> int:
        n = self.n_init if self.n_init is not None else (1024 if d == 1 else 64)
        while n < 4 * (spread + 1):
            n *= 2
        return n


# --- one extraction core for every d, on a stack of grids --------------------------


def _grid_fft(transform, a: np.ndarray) -> np.ndarray:
    """fftn or ifftn of each grid of the stack a (b, n, ..., n), as `transform` along each grid axis.

    The axes go last first, the order np.fft.fftn takes, so every grid
    gets the bits of np.fft.fftn on it alone.
    """
    for axis in range(a.ndim - 1, 0, -1):
        a = transform(a, axis=axis)
    return a


def _extract_pass(q: np.ndarray, tol: float) -> list:
    """One extraction attempt on each grid of the stack q (b, n, ..., n) of masses placed at coords mod n.

    tol bounds the alias mass and the residual.  Returns one outcome per
    member: (None, result) when every guard passes, (guard, value) naming
    the check that forces its grid to double ("phase_jump", "imag",
    "alias" or "residual"), or ZeroOnPath.  A member leaves the stack at
    the guard it fails.  Elementwise steps and the FFTs along the grid axes
    run on the whole stack and give each member the bits of its grid
    alone; every sum but the windings', rounded to whole turns, is taken
    per member with the expression of a single grid, as a reduction along
    a stacked axis may add in another order.
    """
    d, n = q.ndim - 1, q.shape[1]
    out = [None] * len(q)
    rows = np.arange(len(q))  # the member of each stacked grid

    g = _grid_fft(np.fft.ifft, q)
    g *= n ** d  # g(theta) = sum_c q_c e^(i <c, theta>), exact on the grid
    mods = np.abs(g)
    live = ~(mods.reshape(len(q), -1).min(axis=1) < 1e-13)
    for r in rows[~live]:
        out[r] = ZeroOnPath("torus lift vanishes on the sampling grid")
    if not live.all():
        rows, q, g, mods = rows[live], q[live], g[live], mods[live]
    if not len(rows):
        return out
    dphis = []
    for j in range(d):
        step = np.roll(g, -1, axis=1 + j)
        dphis.append(np.angle(np.divide(step, g, out=step)))
    del g, step
    jump = np.max([np.abs(dphi).reshape(len(rows), -1).max(axis=1) for dphi in dphis], axis=0)
    live = ~(jump >= 0.5 * math.pi)
    for r, value in zip(rows[~live], jump[~live].tolist()):
        out[r] = ("phase_jump", value)
    if not live.all():
        rows, q, mods = rows[live], q[live], mods[live]
        dphis = [dphi[live] for dphi in dphis]
    if not len(rows):
        return out
    # windings of the axis loops through the origin; every step is below pi/2, so a loop sum is whole turns to n ulps
    loop_sums = [dphi[(slice(None),) + tuple(slice(None) if i == j else 0 for i in range(d))].sum(axis=1)
                 for j, dphi in enumerate(dphis)]
    windings = np.rint(np.stack(loop_sums, axis=1) / TWO_PI).astype(int)

    # The continuous phase runs from the origin along the last axis, then the one
    # before, and so on: an exclusive cumsum along axis j over the slab where axes < j sit at 0.
    shape = q.shape
    phase = np.zeros(shape)
    for j, dphi in enumerate(dphis):
        slab = dphi[(slice(None),) + (slice(0, 1),) * j]
        lead = (slice(None),) * (j + 1)
        run = np.zeros(slab.shape)
        np.cumsum(slab[lead + (slice(None, -1),)], axis=j + 1, out=run[lead + (slice(1, None),)])
        phase += run
    del dphis, slab, run
    theta_sum = None  # sum_j w_j theta_j; left out when every winding is 0, as its zeros change no bit of a result
    if windings.any():
        axis = TWO_PI * np.arange(n) / n
        theta_sum = np.zeros(shape)
        for j in range(d):
            theta_j = axis.reshape([n if i == j else 1 for i in range(d)])
            theta_sum += windings[:, j].reshape((-1,) + (1,) * d) * theta_j
        phase -= theta_sum
    h = 1j * phase
    h += np.log(mods)
    del mods, phase

    coeffs = _grid_fft(np.fft.fft, h)
    coeffs /= n ** d
    del h
    flat = coeffs.reshape(len(rows), -1)  # a view: the zero frequency of each grid is its first entry
    imag = np.abs(flat.imag)
    imag[:, 0] = 0.0
    max_imag = imag.max(axis=1).tolist()
    del imag
    freqs = np.arange(n)  # np.fft.fftfreq(n, 1 / n) as integers
    freqs[(n + 1) // 2:] -= n
    far = np.abs(freqs) > (3 * n) // 8
    outer = far  # a frequency vector with some |k_j| > 3n/8, of no zero frequency
    for _ in range(1, d):
        outer = np.logical_or.outer(outer, far)
    mags = np.abs(coeffs)
    keep = mags >= LAMBDA_DROP_TOL
    keep.reshape(len(rows), -1)[:, 0] = False
    drop = ~keep
    drop.reshape(len(rows), -1)[:, 0] = False
    masked = np.where(keep, coeffs.real, 0.0).astype(complex)
    live = np.ones(len(rows), dtype=bool)
    passed = []  # (tail, max_imag) of each member that clears the imag and alias guards
    for s, r in enumerate(rows):
        if max_imag[s] > REAL_PART_TOL:
            out[r], live[s] = ("imag", max_imag[s]), False  # phase-unwrap fault
            continue
        alias_mass = float(np.sum(mags[s][outer]))
        if alias_mass > tol:
            out[r], live[s] = ("alias", alias_mass), False
            continue
        passed.append((float(np.sum(mags[s][drop[s]])) + alias_mass, max_imag[s]))
        masked[(s,) + (0,) * d] = -float(np.sum(coeffs.real[s][keep[s]]))
    del mags, drop
    if not live.all():
        rows, q, windings, coeffs, keep, masked = (
            rows[live], q[live], windings[live], coeffs[live], keep[live], masked[live])
        theta_sum = None if theta_sum is None else theta_sum[live]
    if not len(rows):
        return out

    g_rec = _grid_fft(np.fft.ifft, masked)
    del masked
    g_rec *= n ** d
    if theta_sum is not None:
        g_rec += 1j * theta_sum
    del theta_sum
    np.exp(g_rec, out=g_rec)
    gap = _grid_fft(np.fft.fft, g_rec)
    del g_rec
    gap /= n ** d
    gap -= q
    gap = np.abs(gap)
    for s, (r, (tail, imag_max)) in enumerate(zip(rows, passed)):
        residual = float(np.sum(gap[s]))
        if residual > tol:
            out[r] = ("residual", residual)
        else:
            weights = (freqs[np.argwhere(keep[s])], coeffs.real[s][keep[s]])
            out[r] = (None, (tuple(windings[s].tolist()), weights, tail, residual, imag_max))
    return out


def _extract_grids(members: list, params: TripletParams) -> list:
    """Run every member's passes, a stack of grids at a time, until each clears every guard or fails.

    members holds each member's integer coords (K, r) and masses (K,); one
    params holds for all of them.  The pending members are grouped by
    (r, n); a group runs as stacks of at most min(GRID_BUDGET, n_max^r)
    points, so that no stack outgrows the largest grid one of its members
    may reach alone.  Only the members whose pass failed a guard go on,
    on grids twice as fine.  Returns per member (windings,
    (frequency vectors (k, r), their weights), tail, diagnostics), or the
    QuasiLevyError it raised; diagnostics["passes"] lists its rejected
    passes as {n, guard, value}.
    """
    out = [None] * len(members)
    passes = [[] for _ in members]
    grid_n = [params.initial_n(m.shape[1], int((m.max(axis=0) - m.min(axis=0)).max())) for m, _ in members]
    pending = range(len(members))
    while pending:
        groups: dict = {}
        for k in pending:
            n, d = grid_n[k], members[k][0].shape[1]
            if n > params.n_max:
                out[k] = NonConvergent(f"triplet extraction did not converge by n_max={params.n_max}")
            elif n ** d > GRID_BUDGET:
                out[k] = NonConvergent(f"grid {n}^{d} exceeds the grid budget of {GRID_BUDGET} points")
            else:
                groups.setdefault((d, n), []).append(k)
        pending = []
        for (d, n), group in groups.items():
            per_stack = min(GRID_BUDGET, params.n_max ** d) // n ** d
            for lo in range(0, len(group), per_stack):
                stack = group[lo:lo + per_stack]
                q = np.zeros((len(stack),) + (n,) * d)
                for s, k in enumerate(stack):
                    coords, masses = members[k]
                    np.add.at(q[s], tuple((coords % n).T), masses)
                for k, outcome in zip(stack, _extract_pass(q, params.tol)):
                    if isinstance(outcome, QuasiLevyError):
                        out[k] = outcome
                    elif outcome[0] is None:
                        windings, weights, tail, residual, max_imag = outcome[1]
                        out[k] = (windings, weights, tail,
                                  {"grid_n": n, "residual": residual, "max_imag": max_imag, "passes": passes[k]})
                    else:
                        passes[k].append({"n": n, "guard": outcome[0], "value": outcome[1]})
                        grid_n[k] = 2 * n
                        pending.append(k)
                del q
    return out


def _truncation_tail(input_tv_error: float, ell1: float) -> float:
    """l1 bound on spectral mass missed by truncating the input law.

    If the supplied law approximates a larger one within input_tv_error in
    total variation, the log of the ratio has Wiener norm at most
    -log(1 - input_tv_error * exp(2*ell1)).
    """
    if input_tv_error == 0.0:
        return 0.0
    qv = input_tv_error * math.exp(2.0 * ell1)
    if qv >= 1.0:
        raise NonConvergent(
            "input truncation too coarse: cannot bound the spectral tail "
            f"(tv_error={input_tv_error}, ell1={ell1})"
        )
    return -math.log1p(-qv)


def extract_triplets(
    laws: Sequence[DiscreteLaw],
    params: Optional[TripletParams] = None,
    input_tv_error: float = 0.0,
) -> list[QuasiTriplet | QuasiLevyError]:
    """Triplets of separated laws, over any basis, extracted together under one params (None: the defaults).

    Each law is certified first, in order, at PROOF_OF_SEPARATION: the
    certificate only proves inf |f| > 0, which is all the triplet needs.
    It is not tightened toward the sampled infimum, so its mu may lie far
    below it (certify_separation, or check-s, gives the tight one).  It is
    kept as diagnostics["certificate"].  The first law whose certification
    fails ends the batch: the laws after it are neither certified nor
    extracted.
    The extraction runs on each law's stored reduction c0 + B Z^r, the
    masses at m, so a grid tracks the spread of m and has r axes.  The
    grids of laws of one rank r and one grid size n are stacked along a
    leading batch axis, each stack within GRID_BUDGET points and within
    n_max^r, and pass through one extraction core together; only the laws
    whose pass failed a guard go on to the next size.  A law's triplet does
    not depend on the laws beside it: it is bit for bit the one it gets
    alone.  gamma = c0 + B w with w the winding numbers of the axis loops,
    and the weight of the reduced frequency k is lambda_(B k).
    input_tv_error is the total-variation error of an upstream support
    truncation, the same for every law; it enters tail_bound through the
    Wiener-norm log bound.  diagnostics["lattice"] holds (c0, columns of B).

    Returns one entry per law, in order: its QuasiTriplet, the
    QuasiLevyError its certification or extraction raised, or None after
    the first law whose certification failed.  A law whose extraction
    fails does not stop the others.
    """
    if params is None:
        params = TripletParams()
    out: list = [None] * len(laws)
    certs, grids = {}, {}  # by law index: its certificate; the laws of rank >= 1 to extract
    for k, law in enumerate(laws):
        try:
            certs[k] = require_separated(law, PROOF_OF_SEPARATION)
        except QuasiLevyError as exc:
            out[k] = exc
            break
        _, columns, m, masses = law.reduction()
        if columns:
            grids[k] = (m, masses)
    extracted = dict(zip(grids, _extract_grids(list(grids.values()), params)))
    for k, cert in certs.items():
        # a point mass has gamma = c0 and no weights, with no grid to lay
        found = extracted.get(k, ((), (np.zeros((0, 0), int), np.zeros(0)), 0.0,
                                  {"grid_n": 1, "residual": 0.0, "max_imag": 0.0, "passes": []}))
        if isinstance(found, QuasiLevyError):
            out[k] = found
            continue
        windings, (keys, values), tail, diagnostics = found
        try:
            tail += _truncation_tail(input_tv_error, float(np.abs(values).sum()))
        except NonConvergent as exc:
            out[k] = exc
            continue
        law = laws[k]
        c0, columns, _, _ = law.reduction()
        out[k] = QuasiTriplet(
            law.basis,
            lattice_map(c0, columns, np.array([windings], dtype=int))[0],
            (lattice_map((0,) * law.basis.d, columns, keys), values),
            tail_bound=tail,
            diagnostics={**diagnostics, "winding": windings, "certificate": cert, "lattice": (c0, columns)},
        )
    return out


def extract_triplet(
    law: DiscreteLaw,
    params: TripletParams | None = None,
    input_tv_error: float = 0.0,
) -> QuasiTriplet:
    """Triplet of one separated law, over any basis: extract_triplets on a batch of one.

    There is no other extraction path.  The law's grid is a stack of one
    along the batch axis of the core, (1, n, ..., n), within GRID_BUDGET
    points like every stack, and goes alone from one grid size n to 2n;
    laws extracted together are grouped by rank and grid size instead, and
    each gets the bits this gives it.  See extract_triplets for the
    certificate, the reduction and input_tv_error.  Raises the
    QuasiLevyError that its certification or extraction raised.
    """
    found, = extract_triplets([law], params, input_tv_error)
    if isinstance(found, QuasiLevyError):
        raise found
    return found


# The benchmark's tracer hooks these two names, in this module and in limits.
triplet_lattice = extract_triplet
triplet_multibasis = extract_triplet


# --- derived quantities --------------------------------------------------------


@dataclass(frozen=True)
class MeanMotion:
    """Exact shift from the triplet next to path-based Arg f(T)/T estimates."""

    exact: float
    estimates: tuple[tuple[float, float], ...]
    deviation_bound: float  # (ell1 + tail) / T majorizes |estimate - exact| at each T


def mean_motion(
    law: DiscreteLaw,
    triplet: QuasiTriplet,
    t_schedule: Iterable[float] = (16.0, 64.0, 256.0, 1024.0),
) -> MeanMotion:
    """Mean motion of Arg f: the exact gamma and its long-window estimates.

    The estimate reads the continued phase of f at each T of the schedule
    (see continued_arg), so it never consults the triplet's weights;
    agreement within (ell1 + tail)/T is a genuine cross-check of gamma.
    The schedule must be nonempty, of finite positive T (InvalidArgument).
    """
    schedule = sorted(float(t) for t in t_schedule)
    if not schedule or not all(0.0 < t < math.inf for t in schedule):
        raise InvalidArgument(f"the schedule needs one or more finite positive T, got {schedule}")
    _, args = continued_arg(law, schedule)
    return MeanMotion(
        exact=float(triplet.gamma_value()),
        estimates=tuple((t_end, float(a) / t_end) for t_end, a in zip(schedule, args)),
        deviation_bound=triplet.ell1() + triplet.tail_bound,
    )


def gamma_tau(triplet: QuasiTriplet, tau: float) -> float:
    """Mean motion on [0, tau]: gamma + (1/tau) sum lambda_u sin(tau*u)."""
    if not 0 < tau < math.inf:
        raise NonpositiveTau(f"tau must be finite and positive, got {tau}")
    total = float(triplet.gamma_value())
    for u, lam in zip(triplet.levy_measure.support_floats().tolist(), triplet.levy_measure.given_weights):
        total += lam * math.sin(tau * u) / tau
    return total


class SpectralFunction:
    """Two-sided step function built from the spectral jumps.

    For u < 0 it accumulates the weights at frequencies <= u; for u > 0 it
    is minus the weight mass strictly above u.  Both tails vanish exactly
    beyond the extreme jump.
    """

    def __init__(self, jumps: Iterable[tuple[float, float]]):
        self.jumps = tuple(sorted((float(u), float(lam)) for u, lam in jumps))
        if any(u == 0 for u, _ in self.jumps):
            raise ValueError("spectral jumps live on R \\ {0}")

    def __call__(self, u: float) -> float:
        if u == 0:
            raise ValueError("the spectral function is defined on R \\ {0}")
        if u < 0:
            return sum(lam for uk, lam in self.jumps if uk <= u)
        return -sum(lam for uk, lam in self.jumps if uk > u)

    def variation_outside(self, r: float) -> float:
        if not r > 0:
            raise ValueError("r must be positive")
        return sum(abs(lam) for uk, lam in self.jumps if abs(uk) >= r)


def levy_spectral_function(triplet: QuasiTriplet) -> SpectralFunction:
    return SpectralFunction(zip(triplet.levy_measure.support_floats().tolist(), triplet.levy_measure.given_weights))


# --- support truncation helper ----------------------------------------------------


def truncate_renormalize(law: DiscreteLaw, n_atoms: int) -> tuple[DiscreteLaw, float]:
    """Keep the n heaviest atoms, renormalize, and bound the CF error.

    Returns the truncated law and a sup-norm bound on |f - f_n| over all
    real t, namely twice the dropped mass; feed that bound to
    extract_triplet as input_tv_error so it lands in tail_bound.
    """
    if n_atoms < 1:
        raise ValueError("keep at least one atom")
    ranked = sorted(zip(law.coords.tolist(), law.given_weights), key=lambda kv: (-float(kv[1]), kv[0]))
    kept = ranked[:n_atoms]
    total = sum(m for _, m in kept)
    dropped = 1 - total if is_exact(total) else max(0.0, 1.0 - float(total))
    if is_exact(total):
        atoms = [(c, Fraction(m) / total) for c, m in kept]
    else:
        atoms = [(c, float(m) / float(total)) for c, m in kept]
    truncated = DiscreteLaw.from_pairs(law.basis, atoms)
    return truncated, 2.0 * float(dropped)
