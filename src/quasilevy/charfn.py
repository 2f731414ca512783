"""Characteristic functions, torus lifts, and the separation-from-zero check.

The characteristic function of a discrete law is almost periodic.  Writing
each support point through the declared basis turns it into the diagonal
restriction of a d-variable trigonometric polynomial on the torus; the
range of the diagonal is dense in the range of the lift, so the global
infimum of |f| over the real line can be bounded by certified global
minimization of the lift over one torus cell.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InvalidArgument, NotSeparated
from .measures import DiscreteLaw

TWO_PI = 2.0 * math.pi
UNIT_ROUNDOFF = 2.0**-53
TERMS_BUDGET = 1 << 12  # most entries of one points x atoms matrix, the certificate's frontier among them


def budget_slices(n: int, width: int) -> list[slice]:
    """Consecutive slices of range(n) whose rows of `width` entries make at most TERMS_BUDGET entries."""
    step = max(1, TERMS_BUDGET // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def exp_sum(t, xs: np.ndarray, weights: np.ndarray, less_one: bool = False):
    """sum_k w_k e^(i t x_k), or sum_k w_k (e^(i t x_k) - 1) when less_one, at scalar or array t.

    The points x atoms matrix is made at most TERMS_BUDGET entries at a time.
    """
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    for rows in budget_slices(len(flat), len(xs)):
        terms = np.exp(1j * np.multiply.outer(flat[rows], xs))
        if less_one:
            terms -= 1.0
        out[rows] = terms @ weights
    return complex(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def cf_eval(law: DiscreteLaw, t):
    """f(t) = sum of p_k * exp(i*t*x_k); t may be a scalar or ndarray."""
    return exp_sum(t, law.support_floats(), law.weights)


class TorusFunction:
    """The lift phi~(theta) = sum p_k exp(i <coords_k, theta>), theta in [0,2pi)^d.

    Its diagonal phi~(t*alpha_1, ..., t*alpha_d) equals f(t) for every t.
    """

    def __init__(self, law: DiscreteLaw):
        self.law = law
        self.d = law.basis.d
        self.coords = law.coords.astype(float)
        self.masses = law.weights

    def __call__(self, theta) -> complex:
        theta = np.asarray(theta, dtype=float)
        return complex(np.sum(self.masses * np.exp(1j * (self.coords @ theta))))

    def eval_grid(self, axes: list[np.ndarray]) -> np.ndarray:
        """Evaluate on a tensor grid; axes[j] holds the theta_j samples.

        No library code calls it; it stays because the benchmark times it.
        """
        shape = tuple(len(a) for a in axes)
        out = np.zeros(shape, dtype=complex)
        for ck, p in zip(self.coords, self.masses):
            term = p
            for j, ax in enumerate(axes):
                phase = np.exp(1j * ck[j] * ax)
                idx = [None] * len(axes)
                idx[j] = slice(None)
                term = term * phase[tuple(idx)]
            out = out + term
        return out

    def diagonal(self, t) -> complex:
        alphas = np.array([float(a) for a in self.law.basis.alphas])
        return self(np.mod(t * alphas, TWO_PI))


def torus_lift(law: DiscreteLaw) -> TorusFunction:
    return TorusFunction(law)


def dominant_mass_bound(law: DiscreteLaw) -> Optional[float]:
    """mu_0 = p* - (the sum of the other masses), rounded down, a lower bound of inf |f|; None unless positive.

    For every t, |f(t)| >= p* - sum_{k != *} p_k by the triangle
    inequality, p* the heaviest atom.  The masses of a law need not sum to
    exactly 1, so this is not 2 p* - 1.  With float masses the sum of the
    others (math.fsum, correctly rounded) is raised one ulp and the
    difference lowered one ulp, so each lies on the safe side of its exact
    value; exact masses give the bound exactly, rounded down once.  O(K),
    no search.
    """
    masses = law.given_weights
    top = max(masses)
    if all(isinstance(w, float) for w in masses):
        rest = math.nextafter(math.fsum([*masses, -top]), math.inf)
        mu = math.nextafter(top - rest, -math.inf)
    else:
        exact = 2 * Fraction(top) - sum(map(Fraction, masses))
        mu = float(exact)
        if Fraction(mu) > exact:
            mu = math.nextafter(mu, -math.inf)
    return mu if mu > 0 else None


@dataclass
class SeparationParams:
    max_depth: int = 40
    zero_tol: float = 1e-10
    target_gap: float = 0.9
    max_cells: int = 500_000

    def __post_init__(self):
        if not 0.0 < self.target_gap <= 1.0:
            raise InvalidArgument("target_gap must lie in (0, 1]")
        if self.max_depth < 0:
            raise InvalidArgument("max_depth must be at least 0")
        if self.max_cells < 1:
            raise InvalidArgument("max_cells must be at least 1")
        if not self.zero_tol >= 0.0:
            raise InvalidArgument("zero_tol must be nonnegative")


@dataclass
class SeparationCertificate:
    """Outcome of the condition-(S) check.

    verdict is one of:
      "certified":  inf over the torus (hence over all real t) >= mu > 0.
                    search_log["bound"] names the proof: "dominant", mu is
                    the one-atom floor p* - (the other masses), rounded
                    down (dominant_mass_bound); "core", mu is mu_S -
                    mass(rest), rounded down, mu_S certified by the search
                    on a heavy core S; "search", every leaf cell of the
                    search, centre c and half-widths r, satisfies
                    max(|phi~(c)| - L.r, |phi~(c)| - sum_j |Re(conj(u)
                    d_j phi~(c))| r_j - 1/2 sum_k p_k (|c_k|.r)^2) -
                    rounding_margin >= mu, u the phase of phi~(c).
                    search_log["slack"] is best_inf_estimate - mu.
                    best_inf_estimate is the smallest sampled modulus,
                    except for a "dominant" certificate taken before any
                    sample (mu_0 reached target_gap times the sum of the
                    masses, rounded up): it then reports the sum of the
                    masses, |phi~(0)|, and slack says how far mu lies
                    below it, not how tight mu is.
      "zero_found": a torus point zero_theta with |phi~| <= zero_tol was
                    exhibited.  When the support spans a rank-1 lattice
                    c0 + B Z (as every d = 1 law) and B^T alpha != 0, it is
                    a genuine zero of f, at zero_t on the line.
                    torus_infimum_only is set only when r >= 2: then it only
                    proves inf|f| <= zero_tol by density, even if f itself
                    never vanishes.
      "undecided":  depth/cell budget exhausted; best_inf_estimate reports
                    the smallest sampled |phi~|, and
                    search_log["depth_exhausted"] is True when max_depth
                    (or 2^62 cells along an axis, the most the int64 cell
                    indices hold), False when max_cells, ended the search.
                    Never to be read as a class-membership claim either way.
    search_log holds cells, the deepest depth reached, the rounding_margin
    taken off every cell bound, the rank r of the support lattice the search
    ran on, and frontier = {"depth": D, "cells": 2^D}, the uniform first
    level the best-first search started from (D = 0, 0 cells when it started
    from the root alone), and rounds, the number of split rounds after the
    frontier: each pops up to max(1, TERMS_BUDGET // (2K)) open cells, K the
    number of atoms, and evaluates all their children in one pass.  cells
    counts the root sample, the frontier cells and every cell popped after
    them, and never passes max_cells.  A certified mu of the search is the
    least bound of its leaves: the popped bound that ended it, or the floor
    of the frontier cells closed at once, if lower.  bound is "dominant",
    "core" or "search" as above; a verdict other than certified has
    "search".
    """

    verdict: str
    mu: Optional[float] = None
    zero_theta: Optional[tuple[float, ...]] = None
    zero_value: Optional[float] = None
    zero_t: Optional[float] = None
    best_inf_estimate: float = math.inf
    depth: int = 0
    torus_infimum_only: bool = False
    independence_assumed: bool = True
    search_log: dict = field(default_factory=dict)

    @property
    def is_certified(self) -> bool:
        return self.verdict == "certified"


def _gamma(k: float) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of binary64."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _round_up(x: float, roundings: int) -> float:
    """x, a nonnegative float result of at most `roundings` roundings, raised above its exact value."""
    return x * (1.0 + _gamma(2 * roundings + 4))


def rounding_margin(coords: np.ndarray, masses: np.ndarray) -> float:
    """A-priori bound on how far a float cell bound of certify_separation can exceed the exact one.

    With u = 2^-53, gamma_n = n u / (1 - n u), K atoms in d dimensions,
    P = sum_k p_k, M1 = sum_k p_k |c_k|_1 and M2 = sum_k p_k |c_k|_1^2:
      value   the centre (2m + 1) r, |theta_j| <= 2 pi, rounds twice and
              <c_k, theta> adds gamma_d; the cells miss less than 2 pi u of
              each axis; |e^(ix') - e^(ix)| <= |x' - x|: 2 pi gamma_(d+3) M1.
              The complex exp (16u), its product with p_k, the K-term sum,
              the modulus, the rounding of the masses and the three
              subtractions of the bound: gamma_(K+22) P.
      slope   sum_j |Re(conj(u) d_j phi~)| r_j with r_j <= pi: the same
              arguments, 2 pi^2 gamma_(d+3) M2, and the 2K-term gradient
              sums over the rounded products p_k c_kj, the projection, the
              division and the d-term sum, pi gamma_(2K+d+23) M1.
    L.r and the quadratic term are rounded up where they are computed
    (_round_up).  The total is raised by 1% for products of two rounding
    errors and the rounding of this sum.
    """
    k, d = coords.shape
    norms = np.abs(coords).sum(axis=1)
    m1 = float(masses @ norms)
    m2 = float(masses @ norms**2)
    value = TWO_PI * _gamma(d + 3) * m1 + _gamma(k + 22) * float(masses.sum())
    slope = math.pi * (TWO_PI * _gamma(d + 3) * m2 + _gamma(2 * k + d + 23) * m1)
    return 1.01 * (value + slope)


def _evaluate(weights: np.ndarray, coords: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """weights @ e^(i coords theta) for the columns of theta (d, n).

    With weights = [p; (p c)^T] of shape (d + 1, K), row 0 is phi~ and row
    1 + j is G_j, where d phi~/d theta_j = i G_j.
    """
    return weights @ np.exp(1j * (coords @ theta))


def _frontier_bounds(values: np.ndarray, radii: np.ndarray, lip_r, quad, margin: float):
    """Bounds and moduli of the cells whose [phi~, G_1, ..., G_d] columns are values (d + 1, n).

    radii (d, n), lip_r = L.r and quad are per column, or broadcast from one
    level's values.  Every float is that of the bound taken one cell at a
    time in Python: abs(complex) for the modulus and the slope summed over
    the axes in order.
    """
    value, grad = values[0], values[1:]
    v = np.hypot(value.real, value.imag)  # libm hypot, as abs(complex); np.abs differs in the last bit
    slope = (radii * np.abs(value.real * grad.imag - value.imag * grad.real)).sum(axis=0)  # row by row
    big = v > margin  # otherwise only the Lipschitz bound is taken, which keeps 0 out of the division
    bound = v - lip_r
    np.maximum(bound, v - np.divide(slope, v, out=slope, where=big) - quad, out=bound, where=big)
    return bound - margin, v


def certify_separation(law: DiscreteLaw, params: SeparationParams | None = None) -> SeparationCertificate:
    """Proof by a sound floor or by branch and bound, or refutation, of |f(t)| >= mu > 0 on the torus.

    The search runs on the law's stored reduction c0 + B Z^r
    (SignedAtomicMeasure.reduction): with P the lift of the masses keyed
    by m, |phi~(theta)| = |P(B^T theta)| and theta -> B^T theta maps the
    torus onto [0, 2pi]^r, so both have the same infimum.  The c_k below are the reduced coords m_k less those of
    the heaviest atom, which leaves |P| as it is; when that atom carries
    more than half the mass, each L_j = sum_k p_k |c_kj| is then least.
    A cell of [0, 2pi]^r with centre c and half-widths r carries the lower
    bound max(|phi~(c)| - L.r, |phi~(c)| - sum_j |Re(conj(u) d_j phi~(c))| r_j
    - 1/2 sum_k p_k (|c_k|.r)^2) - rounding_margin, u = phi~(c)/|phi~(c)|.
    The first term is the Lipschitz bound; the second follows from
    |phi~| >= Re(conj(u) phi~) and |e^(ix) - 1 - ix| <= x^2/2, and is second
    order near the minimum of |phi~|, where the first-order term vanishes
    (Horst and Tuy, Global Optimization).  When |phi~(c)| is at most the
    margin only the first is taken.  L.r and the quadratic term are rounded
    up, and rounding_margin bounds every other float error, so the bound
    holds for the exact law.  A cell at depth D is split along argmax L_j r_j
    of its level; cells start from r = pi, so their radii, L.r and quadratic
    term depend on the depth alone and are tabulated, and a cell is stored
    as its integer index m with centre (2m + 1) r.

    Beside the cells there is the one-atom floor: for any core S of atoms,
    |f(t)| >= |f_S(t)| - mass(rest) for every t, and with S the heaviest
    atom that is mu_0 = dominant_mass_bound(law), O(K) and rounded down.  Whenever
    mu_0 reaches target_gap times the best sampled modulus, the law is
    certified with mu = mu_0 (search_log["bound"] = "dominant"); this is
    tested after the root sample, after the frontier and after each round's
    samples, before the zero test, as a proof outranks a sample at most
    zero_tol.  Most laws with an atom above half the mass end at the root.
    It is tested first, before the root sample, against the sum of the
    masses, rounded up: |phi~| never exceeds that sum, so when mu_0
    reaches target_gap times it no sample could change the verdict, and
    the law is certified before any is taken.  best_inf_estimate is then
    the modulus at theta = 0, the sum of the masses, and the search_log is
    that of a certificate at the root (cells 1, bound "dominant").  At the
    gap 2^-52 of extraction's spectral.PROOF_OF_SEPARATION this covers
    every law whose floor passes about 2.2e-16 times its total mass.

    The root centre (pi, ..., pi) is sampled first, and a zero there is
    reported at once (the symmetric laws' zeros sit on it).  The search then
    starts from the frontier: every cell of the first depth D at which each
    r_j <= pi / (4 (spread_j + 1)), spread_j the range of the reduced coords
    on axis j, as in extraction's first grid.  D stops short of that when
    2^D K would pass TERMS_BUDGET, D would pass max_depth, or 1 + 2^D cells
    would reach max_cells; at D = 0 the root alone is the frontier.  The
    2^D cells are evaluated in one pass, their bounds taken as one array
    expression, and the best modulus of the root and frontier seeds the best
    sample.  Frontier cells whose bound already reaches target_gap times
    that sample are closed; the least of their bounds is kept as a floor,
    and the others go to a heap.

    Heavy core.  When TERMS_BUDGET cut a frontier short of the fine radius,
    mu_0 did not close the gap and a frontier cell stays open, S becomes the heaviest atoms whose own
    frontier reaches their fine radius within the budget (at least two).
    The same search runs on their lift alone, a cell closing once its bound
    reaches target_gap times the law's best sample plus mass(rest), rounded
    up, and giving up when a sample of f_S falls to that level.  It gets the
    cells max_cells leaves.  The step is kept only if mu = mu_S - mass(rest),
    rounded down, reaches target_gap times the best sample
    (search_log["bound"] = "core"; cells, rounds and max_depth then add the
    core's).  Otherwise it is dropped, its cells uncounted, and the search
    below runs as it would have.

    From there the search runs in rounds.  A round pops cells from the head
    of the heap, smallest bound first, while the head is open (its bound
    below target_gap times the best sampled modulus, or not positive), up
    to max(1, TERMS_BUDGET // (2K)) cells, so that the K x children matrix
    stays within one terms budget.  It splits them all, evaluates every
    child in one pass and bounds them in one array expression; the cells of
    a round may differ in depth, and each child takes the radii, L.r and
    quadratic term of its own level.  The least child modulus becomes the
    best sample if it is lower, and every child goes to the heap.  The
    search stops when the first pop of a round is closed: every open leaf
    is then in the heap, so the smallest outstanding bound reaches
    target_gap times the best sampled modulus (certified, mu the least of
    that bound and the floor, search_log["bound"] = "search").  It also
    stops when a sample drops to zero_tol (zero found), or when a pop
    reaches max_depth or is the max_cells-th cell (undecided); the children
    of the cells that round already popped are evaluated first, so a zero
    among them is still reported.  A split that would pass 2^62 cells along
    an axis counts as reaching max_depth: the cell indices are int64, and
    2m + 1 must fit.  The cells counted are the root, the frontier and each
    cell popped after it.
    """
    if params is None:
        params = SeparationParams()
    independent = law.basis.declared_independent
    _, columns, reduced, masses = law.reduction()
    rank = len(columns)
    if rank == 0:  # a point mass: |phi~| is 1 exactly
        return SeparationCertificate(
            verdict="certified", mu=1.0, best_inf_estimate=1.0,
            independence_assumed=independent,
            search_log={"cells": 1, "max_depth": 0, "rounding_margin": 0.0, "slack": 0.0, "rank": 0,
                        "frontier": {"depth": 0, "cells": 0}, "rounds": 0, "bound": "dominant"},
        )
    verdict, mu, best_ub, best_theta, log = _branch_and_bound(reduced.astype(float), masses, params,
                                                              dominant_mass_bound(law))
    log = dict(log, rank=rank)
    if verdict != "zero_found":
        return SeparationCertificate(verdict=verdict, mu=mu, best_inf_estimate=best_ub, depth=log["max_depth"],
                                     independence_assumed=independent, search_log=log)
    # a preimage of the point found, B^T theta = best_theta, nonzero on the pivots of B only:
    # row i of B^T is zero left of its pivot, so back substitution solves it
    theta = [0.0] * law.basis.d
    for b, phi in reversed(list(zip(columns, best_theta))):
        p = next(j for j, x in enumerate(b) if x)
        theta[p] = (phi - sum(x * t for x, t in zip(b, theta))) / b[p]
    beta = float(law.basis.value(columns[0])) if rank == 1 else 0.0  # |f(t)| = |P(t B^T alpha)|
    return SeparationCertificate(
        verdict="zero_found",
        zero_theta=tuple(t % TWO_PI for t in theta),
        zero_value=best_ub,
        zero_t=best_theta[0] / beta if beta else None,
        best_inf_estimate=best_ub,
        depth=log["max_depth"],
        torus_infimum_only=(rank >= 2),
        independence_assumed=independent,
        search_log=log,
    )


def _branch_and_bound(coords: np.ndarray, masses: np.ndarray, params: SeparationParams,
                      mu_0: Optional[float] = None, need: Optional[float] = None) -> tuple:
    """The search of certify_separation on sum_k p_k e^(i <c_k, theta>), coords (K, r) integers as floats.

    Returns (verdict, mu, the best sampled modulus, its centre, search_log
    without the rank).  mu_0, when given, certifies as soon as it reaches
    target_gap times the best sample, and before any sample when it
    reaches target_gap times the sum of the masses, rounded up; that sum
    is then the modulus returned, at no centre.  need, when given, is the
    bound that closes a cell in place of target_gap times the best sample,
    and a sample at or below it ends the search as a zero does: the
    heavy-core step searches its core so, and tries no core of its own.
    """
    shifted = coords - coords[np.argmax(masses)]  # moving the law leaves |P| alone and shrinks L.r
    margin = rounding_margin(shifted, masses)
    k, rank = coords.shape
    stop = params.zero_tol if need is None else max(params.zero_tol, need)

    cells_seen = 0
    max_depth_seen = 0
    rounds = 0
    frontier = {"depth": 0, "cells": 0}
    floor = math.inf
    best_ub, best_theta = math.inf, ()

    def log(**extra) -> dict:
        return dict(cells=cells_seen, max_depth=max_depth_seen, rounding_margin=margin,
                    frontier=dict(frontier), rounds=rounds, **extra)

    def take_best(theta: np.ndarray, moduli: np.ndarray) -> bool:
        """Keep the least sampled modulus and its centre; True when it ends the search (at most zero_tol, or need)."""
        nonlocal best_ub, best_theta
        j = int(moduli.argmin())
        if moduli[j] < best_ub:
            best_ub, best_theta = float(moduli[j]), tuple(theta[:, j].tolist())
        return best_ub <= stop

    def target() -> float:
        return params.target_gap * best_ub if need is None else need

    def dominated() -> bool:
        """True when the floor mu_0 closes the gap; a proof, so it wins over a sample at most zero_tol."""
        return mu_0 is not None and mu_0 >= params.target_gap * best_ub

    def zero() -> tuple:
        return "zero_found", None, best_ub, best_theta, log(bound="search")

    def certified(mu: float, bound: str) -> tuple:
        return "certified", mu, best_ub, best_theta, log(slack=best_ub - mu, bound=bound)

    if mu_0 is not None:
        # |phi~| never exceeds the sum of the masses, rounded up: a floor that closes the gap
        # against it would close it against any sample, so none is taken
        total = math.fsum(masses.tolist())
        best_ub = _round_up(total, k)
        if dominated():
            best_ub, cells_seen = total, 1  # the modulus at theta = 0
            return certified(mu_0, "dominant")
        best_ub = math.inf

    fine = (math.pi / (4 * (coords.max(axis=0) - coords.min(axis=0) + 1))).tolist()
    coords = shifted
    lip = np.abs(coords).T @ masses
    spans = np.abs(coords)

    def level(radii: np.ndarray) -> tuple:
        """(split axis, radii, L.r, 1/2 sum_k p_k (|c_k|.r)^2) for the cells of one depth."""
        return (
            int(np.argmax(lip * radii)),
            radii.tolist(),
            _round_up(float(lip @ radii), k + rank),
            _round_up(0.5 * float(masses @ (spans @ radii) ** 2), k + 2 * rank + 2),
        )

    levels = [level(np.full(rank, math.pi))]
    table = np.empty((0, rank + 2))  # the radii, L.r and quadratic term of each level as rows, for the rounds

    def tabulate(depth: int) -> None:
        """Tabulate the levels through `depth`, each halving the radii of the one above along its split axis."""
        while len(levels) <= depth:
            axis, radii = levels[-1][0], np.array(levels[-1][1])
            radii[axis] *= 0.5
            levels.append(level(radii))

    weights = np.vstack([masses, coords.T * masses])

    def sample(index: np.ndarray, radii: np.ndarray, lip_r, quad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centres, bounds and sampled moduli of the cells index (n, rank); radii (rank, n), L.r and the
        quadratic term per column, or one level's, broadcast."""
        theta = (2 * index.T + 1) * radii
        bounds, moduli = _frontier_bounds(_evaluate(weights, coords, theta), radii, lip_r, quad, margin)
        return theta, bounds, moduli

    def of_depth(depth: int) -> tuple:
        """The radii (rank, 1), L.r and quadratic term of the cells of one depth."""
        _, radii, lip_r, quad = levels[depth]
        return np.array(radii)[:, None], lip_r, quad

    index = np.zeros((1, rank), dtype=np.int64)  # row id: the integer index m of the cell with that id
    theta, bounds, moduli = sample(index, *of_depth(0))
    hit = take_best(theta, moduli)
    if dominated() or hit:
        cells_seen = 1
        return certified(mu_0, "dominant") if dominated() else zero()

    depth = 0
    while (any(r > f for r, f in zip(levels[depth][1], fine)) and depth < params.max_depth
           and (2 << depth) * k <= TERMS_BUDGET and (2 << depth) + 1 < params.max_cells):
        depth += 1
        tabulate(depth)
    if depth == 0:
        heap: list = [(float(bounds[0]), 0, 0)]  # (bound, id, depth); ids count up in order of evaluation
    else:
        index = np.indices([round(math.pi / r) for r in levels[depth][1]]).reshape(rank, -1).T  # r = pi / 2^s exactly
        theta, bounds, moduli = sample(index, *of_depth(depth))
        cells_seen = 1 + len(index)
        max_depth_seen = depth
        frontier = {"depth": depth, "cells": len(index)}
        hit = take_best(theta, moduli)
        if dominated():
            return certified(mu_0, "dominant")
        if hit:
            return zero()
        open_cells = bounds < target()
        if not open_cells.all():
            floor = float(bounds[~open_cells].min())
        heap = [(b, i, depth) for b, i in zip(bounds[open_cells].tolist(), np.flatnonzero(open_cells).tolist())]
        heapq.heapify(heap)
        if not heap:  # every frontier cell closed
            return certified(floor, "search")
        # TERMS_BUDGET cut the frontier short of the fine radius: a heavy core may still close the gap
        if (need is None and (2 << depth) * k > TERMS_BUDGET and any(r > f for r, f in zip(levels[depth][1], fine))
                and params.max_cells > cells_seen):
            found = _core_bound(coords, masses, replace(params, max_cells=params.max_cells - cells_seen), best_ub)
            if found is not None:
                mu, core_log = found
                cells_seen += core_log["cells"]
                rounds += core_log["rounds"]
                max_depth_seen = max(max_depth_seen, core_log["max_depth"])
                return certified(mu, "core")

    cap = max(1, TERMS_BUDGET // (2 * k))  # cells split per round: K x 2 cap children fill one terms budget
    size = len(index)
    depth_exhausted = stopped = False
    while heap and not stopped:
        close_at = target()
        ids, split, depths = [], [], []  # per child: its parent's id, where it splits in kids.flat, its depth
        while heap and len(ids) < 2 * cap:
            head = heap[0][0]
            closed = head >= close_at and head > 0
            if closed and ids:
                break  # the next round pops it, once these children are in the heap
            lb, i, depth = heapq.heappop(heap)
            cells_seen += 1
            max_depth_seen = max(max_depth_seen, depth)
            if closed:
                # heap is ordered by bound: every remaining leaf is >= lb, every closed one >= floor
                return certified(min(lb, floor), "search")
            axis = levels[depth][0]
            # a split past 2^62 cells along an axis would overflow the int64 centres 2m + 1
            deep = depth >= params.max_depth or levels[depth][1][axis] * 2**61 < math.pi
            if deep or cells_seen >= params.max_cells:
                depth_exhausted = deep
                stopped = True
                break
            split += (len(ids) * rank + axis, (len(ids) + 1) * rank + axis)
            ids += (i, i)
            depths += (depth + 1, depth + 1)
        if not ids:  # the round's first pop stopped the search
            break
        # evaluated also when a budget stopped the round, so that a zero among these children is reported
        rounds += 1
        tabulate(max(depths))
        if len(table) < len(levels):
            table = np.concatenate([table, [[*radii, lip_r, quad] for _, radii, lip_r, quad in levels[len(table):]]])
        kids = index.take(ids, axis=0)  # a new array: each child starts from its parent's index m
        split = np.array(split)
        flat = kids.reshape(-1)  # a view, as kids is contiguous
        flat[split] *= 2
        flat[split[1::2]] += 1  # the children take 2m and 2m + 1 along the split axis
        depths = np.array(depths)
        rows = table.take(depths, axis=0)
        theta, bounds, moduli = sample(kids, rows[:, :rank].T, rows[:, rank], rows[:, rank + 1])
        hit = take_best(theta, moduli)
        if dominated():
            return certified(mu_0, "dominant")
        if hit:
            return zero()
        if size + len(kids) > len(index):  # at least doubles, so the copies stay linear in the cells
            index = np.concatenate([index, np.empty((max(len(index), len(kids)), rank), dtype=index.dtype)])
        index[size:size + len(kids)] = kids
        for entry in zip(bounds.tolist(), range(size, size + len(kids)), depths.tolist()):
            heapq.heappush(heap, entry)
        size += len(kids)

    return "undecided", None, best_ub, best_theta, log(depth_exhausted=depth_exhausted, bound="search")


def _core_bound(coords: np.ndarray, masses: np.ndarray, params: SeparationParams,
                best_ub: float) -> Optional[tuple[float, dict]]:
    """The heavy-core step: (mu, the core search's log) when it closes the gap, else None.

    S is the heaviest atoms taken while 2^s_j >= 4 (spread_j + 1) cells
    along each axis j, as many as their fine radius pi / (4 (spread_j + 1))
    asks, times their number stay within TERMS_BUDGET; at least two.  The
    search on the lift of S alone closes a cell once its bound reaches
    target_gap * best_ub + mass(rest), rounded up, and a sample of f_S at
    that level ends it; as |f_S| <= mass(S), a core no heavier than that
    level is not searched.  mu = mu_S - mass(rest), rounded down, is kept
    only if it reaches target_gap * best_ub.
    """
    order = np.argsort(-masses, kind="stable")
    ranked = coords[order]
    spread = np.maximum.accumulate(ranked, axis=0) - np.minimum.accumulate(ranked, axis=0)
    cells = np.exp2(np.ceil(np.log2(4 * (spread + 1))).sum(axis=1))
    n = int(np.count_nonzero(cells * np.arange(1, len(masses) + 1) <= TERMS_BUDGET))  # a prefix: both grow
    if n < 2:  # the one-atom floor has been tried
        return None
    core = np.zeros(len(masses), dtype=bool)
    core[order[:n]] = True
    rest = _round_up(math.fsum(masses[~core].tolist()), 2)  # each float mass and their sum round once
    goal = _round_up(params.target_gap * best_ub + rest, 2)  # so that mu_S - rest, rounded down, still reaches the gap
    if goal >= math.fsum(masses[core].tolist()):
        return None
    verdict, mu_s, _, _, log = _branch_and_bound(coords[core], masses[core], params, need=goal)
    mu = math.nextafter(mu_s - rest, -math.inf) if verdict == "certified" else -math.inf
    return (mu, log) if mu >= params.target_gap * best_ub else None


def require_separated(law: DiscreteLaw, params: SeparationParams | None = None) -> SeparationCertificate:
    """Certificate, or NotSeparated carrying it (zero found / undecided)."""
    cert = certify_separation(law, params)
    if cert.is_certified:
        return cert
    if cert.verdict == "zero_found":
        where = "on the real line" if not cert.torus_infimum_only else "on the torus (infimum zero)"
        raise NotSeparated(f"characteristic function not separated from zero: zero {where}", cert)
    raise NotSeparated(
        "separation check undecided at the configured depth; this is not a membership claim",
        cert,
    )
