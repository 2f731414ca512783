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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

import numpy as np

from .charfn import SeparationParams, cf_eval, exp_sum, require_separated
from .errors import InvalidArgument, NonConvergent, NonpositiveTau, StepTooCoarse, ZeroOnPath
from .measures import (Coords, DiscreteLaw, FrequencyBasis, Scalar, SignedAtomicMeasure, _normalize_coords,
                       is_exact, lattice_map, same_basis, total_variation)

TWO_PI = 2.0 * math.pi
DEFAULT_STEP_GUARD = 0.9 * math.pi
LAMBDA_DROP_TOL = 1e-13
REAL_PART_TOL = 1e-10
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
    return _turns(np.angle(np.roll(vals, -1) / vals))


def _turns(dphi: np.ndarray) -> int:
    """Winding number from the wrapped phase increments around a closed loop."""
    if float(np.max(np.abs(dphi))) >= DEFAULT_STEP_GUARD:
        raise StepTooCoarse("loop sampled too coarsely for a reliable winding number")
    total = float(np.sum(dphi))
    m = round(total / TWO_PI)
    if abs(total - TWO_PI * m) > 1e-6:
        raise StepTooCoarse(f"loop phase increment {total} is not close to a multiple of 2*pi")
    return m


def continued_arg(law: DiscreteLaw, ts, zero_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """f and its continuous-phase Arg at the sorted points ts >= 0.

    The phase is continued from t = 0 along a uniform grid merged with ts.
    The step starts at min(0.05, 0.3 / sum p_k |x_k|) and halves until
    every adjacent phase increment passes the distinguished_log guard.
    ZeroOnPath is raised if |f| dips below zero_tol on the grid, or if a
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
        if float(np.min(np.abs(vals))) < zero_tol:
            raise ZeroOnPath("the characteristic function dips below the zero tolerance")
        try:
            logs = distinguished_log(vals, zero_tol=zero_tol)
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
    the l1 mass of everything not stored.
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
    """Grid and tolerance knobs for triplet extraction.

    The grid is laid over the reduced support c0 + B Z^r, so d below is
    the rank r and spread the widest range of the reduced coords m on one
    axis.  n_init None picks 1024 samples per axis for d = 1 and 64 for
    d >= 2, raised by doubling to at least 4 * (spread + 1).  From there the
    grid doubles until the phase steps, the imaginary-part and aliasing
    guards, and the reconstruction residual all pass, or n_max is
    exceeded; a grid of more than GRID_BUDGET points raises NonConvergent.
    A d >= 2 start is small because a pass costs n^d: the alias guard
    doubles the grid for laws whose weights decay slowly.
    """

    n_init: Optional[int] = None
    tol: float = 1e-10
    n_max: int = 1 << 17
    separation: Optional[SeparationParams] = None

    def initial_n(self, d: int, spread: int) -> int:
        n = self.n_init if self.n_init is not None else (1024 if d == 1 else 64)
        if n < 1:
            raise InvalidArgument(f"n_init must be positive, got {n}")
        while n < 4 * (spread + 1):
            n *= 2
        return n


# --- one extraction core for every d ---------------------------------------------


def _extract_pass(q: np.ndarray, params: TripletParams):
    """One extraction attempt on the n^d grid q of masses placed at coords mod n.

    Returns (None, result) when every guard passes, else (guard, value)
    naming the check that forces the grid to double: "phase_jump", "imag",
    "alias" or "residual".
    """
    n, d = q.shape[0], q.ndim
    g = n ** d * np.fft.ifftn(q)  # g(theta) = sum_c q_c e^(i <c, theta>), exact on the grid
    mods = np.abs(g)
    if float(mods.min()) < 1e-13:
        raise ZeroOnPath("torus lift vanishes on the sampling grid")
    dphis = [np.angle(np.roll(g, -1, axis=j) / g) for j in range(d)]
    jump = max(float(np.max(np.abs(dphi))) for dphi in dphis)
    if jump >= 0.5 * math.pi:
        return "phase_jump", jump

    # Windings from the axis loops through the origin.  The continuous phase
    # runs from the origin along the last axis, then the one before, and so on:
    # an exclusive cumsum along axis j over the slab where axes < j sit at 0.
    axis = TWO_PI * np.arange(n) / n
    windings = []
    phase = np.zeros(q.shape)
    theta_sum = np.zeros(q.shape)
    for j, dphi in enumerate(dphis):
        windings.append(_turns(dphi[tuple(slice(None) if i == j else 0 for i in range(d))]))
        shape = [1] * d
        shape[j] = n
        theta_sum += windings[j] * axis.reshape(shape)
        slab = dphi[(slice(0, 1),) * j]
        lead = (slice(None),) * j
        run = np.zeros(slab.shape)
        np.cumsum(slab[lead + (slice(None, -1),)], axis=j, out=run[lead + (slice(1, None),)])
        phase += run
    h = np.log(mods) + 1j * (phase - theta_sum)

    coeffs = np.fft.fftn(h) / n ** d
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    zero = np.ones(q.shape, dtype=bool)
    outer = np.zeros(q.shape, dtype=bool)
    for k in np.meshgrid(*([freqs] * d), indexing="ij", sparse=True):
        zero &= k == 0
        outer |= np.abs(k) > (3 * n) // 8
    nonzero = ~zero

    max_imag = float(np.max(np.abs(coeffs.imag[nonzero]), initial=0.0))
    if max_imag > REAL_PART_TOL:
        return "imag", max_imag  # phase-unwrap fault
    alias_mass = float(np.sum(np.abs(coeffs[outer & nonzero])))
    if alias_mass > params.tol:
        return "alias", alias_mass

    keep = nonzero & (np.abs(coeffs) >= LAMBDA_DROP_TOL)
    dropped = float(np.sum(np.abs(coeffs[nonzero & ~keep])))
    masked = np.where(keep, coeffs.real, 0.0).astype(complex)
    masked[(0,) * d] = -float(np.sum(coeffs.real[keep]))
    g_rec = np.exp(n ** d * np.fft.ifftn(masked) + 1j * theta_sum)
    residual = float(np.sum(np.abs(np.fft.fftn(g_rec) / n ** d - q)))
    if residual > params.tol:
        return "residual", residual

    weights = (freqs[np.argwhere(keep)], coeffs.real[keep])
    return None, (tuple(windings), weights, dropped + alias_mass, residual, max_imag)


def _extract(coords: np.ndarray, masses: np.ndarray, params: TripletParams, input_tv_error: float):
    """Double the grid from initial_n until a pass clears every guard.

    The masses sit at the integer coords (n, d).  Returns the windings,
    the weights as an (n, d) array of integer frequency vectors and their
    values, the tail bound, and the diagnostics, whose "passes" lists
    every rejected pass as {n, guard, value}.
    """
    d = coords.shape[1]
    n = params.initial_n(d, int((coords.max(axis=0) - coords.min(axis=0)).max()))
    passes = []
    while n <= params.n_max:
        if n ** d > GRID_BUDGET:
            raise NonConvergent(f"grid {n}^{d} exceeds the grid budget of {GRID_BUDGET} points")
        q = np.zeros([n] * d)
        np.add.at(q, tuple((coords % n).T), masses)
        guard, value = _extract_pass(q, params)
        if guard is None:
            windings, weights, tail, residual, max_imag = value
            tail += _truncation_tail(input_tv_error, float(np.abs(weights[1]).sum()))
            diagnostics = {"grid_n": n, "residual": residual, "max_imag": max_imag, "passes": passes}
            return windings, weights, tail, diagnostics
        passes.append({"n": n, "guard": guard, "value": value})
        n *= 2
    raise NonConvergent(f"triplet extraction did not converge by n_max={params.n_max}")


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


def extract_triplet(
    law: DiscreteLaw,
    params: TripletParams | None = None,
    input_tv_error: float = 0.0,
) -> QuasiTriplet:
    """Triplet of a separated law, over any basis.

    Separation is certified first, under params.separation when it is
    given.  Otherwise the certificate only proves inf |f| > 0, at the tiny
    gap of PROOF_OF_SEPARATION: it is not tightened toward the sampled
    infimum, so its mu may lie far below it (certify_separation, or check-s,
    gives the tight one).  Either way it is kept as
    diagnostics["certificate"].  The extraction runs on the law's stored
    reduction c0 + B Z^r, the masses at m, so the grid tracks the spread of
    m and has r axes.  gamma = c0 + B w with w the winding
    numbers of the axis loops, and the weight of the reduced frequency k
    is lambda_(B k).  input_tv_error is the total-variation error of an
    upstream support truncation; it enters tail_bound through the
    Wiener-norm log bound.  diagnostics["lattice"] holds (c0, columns of B).
    """
    if params is None:
        params = TripletParams()
    cert = require_separated(law, PROOF_OF_SEPARATION if params.separation is None else params.separation)
    c0, columns, m, masses = law.reduction()
    if columns:
        windings, (keys, values), tail, diagnostics = _extract(m, masses, params, input_tv_error)
    else:  # a point mass: gamma = c0 and no weights, with no grid to lay
        windings, keys, values = (), np.zeros((0, 0), int), np.zeros(0)
        tail = _truncation_tail(input_tv_error, 0.0)
        diagnostics = {"grid_n": 1, "residual": 0.0, "max_imag": 0.0, "passes": []}
    return QuasiTriplet(
        law.basis,
        lattice_map(c0, columns, np.array([windings], dtype=int))[0],
        (lattice_map((0,) * law.basis.d, columns, keys), values),
        tail_bound=tail,
        diagnostics={**diagnostics, "winding": windings, "certificate": cert, "lattice": (c0, columns)},
    )


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

    def final_estimate(self) -> float:
        return self.estimates[-1][1]


def mean_motion(
    law: DiscreteLaw,
    triplet: QuasiTriplet,
    t_schedule: Iterable[float] = (16.0, 64.0, 256.0, 1024.0),
) -> MeanMotion:
    """Mean motion of Arg f: the exact gamma and its long-window estimates.

    The estimate reads the continued phase of f at each T of the schedule
    (see continued_arg), so it never consults the triplet's weights;
    agreement within (ell1 + tail)/T is a genuine cross-check of gamma.
    """
    schedule = sorted(float(t) for t in t_schedule)
    _, args = continued_arg(law, schedule)
    return MeanMotion(
        exact=float(triplet.gamma_value()),
        estimates=tuple((t_end, float(a) / t_end) for t_end, a in zip(schedule, args)),
        deviation_bound=triplet.ell1() + triplet.tail_bound,
    )


def gamma_tau(triplet: QuasiTriplet, tau: float) -> float:
    """Mean motion on [0, tau]: gamma + (1/tau) sum lambda_u sin(tau*u)."""
    if not tau > 0:
        raise NonpositiveTau(f"tau must be positive, got {tau}")
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
