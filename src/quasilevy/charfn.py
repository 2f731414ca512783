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
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidArgument, NotSeparated
from .measures import DiscreteLaw, reduce_support

TWO_PI = 2.0 * math.pi
UNIT_ROUNDOFF = 2.0**-53


def cf_eval(law: DiscreteLaw, t):
    """f(t) = sum of p_k * exp(i*t*x_k); t may be a scalar or ndarray."""
    xs = np.array([float(law.basis.value(c)) for c in law.atoms])
    ps = np.array([float(m) for m in law.atoms.values()])
    t_arr = np.asarray(t, dtype=float)
    vals = np.exp(1j * np.multiply.outer(t_arr, xs)) @ ps
    return complex(vals) if np.isscalar(t) or t_arr.ndim == 0 else vals


class TorusFunction:
    """The lift phi~(theta) = sum p_k exp(i <coords_k, theta>), theta in [0,2pi)^d.

    Its diagonal phi~(t*alpha_1, ..., t*alpha_d) equals f(t) for every t.
    """

    def __init__(self, law: DiscreteLaw):
        self.law = law
        self.d = law.basis.d
        self.coords = np.array(list(law.atoms.keys()), dtype=float)
        self.masses = np.array([float(m) for m in law.atoms.values()])

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
    """Lower bound 2*p_max - 1 for inf|f| when one atom carries mass > 1/2."""
    p = law.max_mass()
    if p > 0.5:
        return 2.0 * p - 1.0
    return None


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
      "certified":  inf over the torus (hence over all real t) >= mu > 0;
                    every leaf cell of the search, centre c and half-widths
                    r, satisfies max(|phi~(c)| - L.r, |phi~(c)| -
                    sum_j |Re(conj(u) d_j phi~(c))| r_j - 1/2 sum_k p_k
                    (|c_k|.r)^2) - rounding_margin >= mu, u the phase of
                    phi~(c).  search_log["slack"] is best_inf_estimate - mu.
      "zero_found": a torus point zero_theta with |phi~| <= zero_tol was
                    exhibited.  When the support spans a rank-1 lattice
                    c0 + B Z (as every d = 1 law) and B^T alpha != 0, it is
                    a genuine zero of f, at zero_t on the line.
                    torus_infimum_only is set only when r >= 2: then it only
                    proves inf|f| <= zero_tol by density, even if f itself
                    never vanishes.
      "undecided":  depth/cell budget exhausted; best_inf_estimate reports
                    the smallest sampled |phi~|, and
                    search_log["depth_exhausted"] is True when max_depth,
                    False when max_cells, ended the search.  Never to be
                    read as a class-membership claim either way.
    search_log holds the cells popped, the deepest depth reached, the
    rounding_margin taken off every cell bound and the rank r of the
    support lattice the search ran on.
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


def certify_separation(law: DiscreteLaw, params: SeparationParams | None = None) -> SeparationCertificate:
    """Branch-and-bound proof or refutation of |f(t)| >= mu > 0 on the torus.

    The search runs on the reduced support c0 + B Z^r (reduce_support):
    with P the lift of the masses keyed by m, |phi~(theta)| = |P(B^T theta)|
    and theta -> B^T theta maps the torus onto [0, 2pi]^r, so both have the
    same infimum.  The c_k below are the reduced coords m_k less those of
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
    holds for the exact law.  The cell with the smallest bound is split
    first, along argmax L_j r_j; cells start from r = pi, so their radii,
    L.r and quadratic term depend on the depth alone and are tabulated, and
    a cell is stored as its integer index m with centre (2m + 1) r.  Both
    children of a split are evaluated in one pass.  The search stops when
    the smallest outstanding bound reaches target_gap times the best sampled
    modulus (certified), a sample drops to zero_tol (zero found), or
    max_depth or max_cells popped cells are reached (undecided).
    """
    if params is None:
        params = SeparationParams()
    independent = law.basis.declared_independent
    _, columns, reduced = reduce_support(law.atoms)
    rank = len(columns)
    if rank == 0:  # a point mass: |phi~| is 1 exactly
        return SeparationCertificate(
            verdict="certified", mu=1.0, best_inf_estimate=1.0,
            independence_assumed=independent,
            search_log={"cells": 1, "max_depth": 0, "rounding_margin": 0.0, "slack": 0.0, "rank": 0},
        )
    coords = np.array(list(reduced), dtype=float)
    masses = np.array([float(m) for m in reduced.values()])
    coords -= coords[np.argmax(masses)]  # moving the law leaves |P| alone and shrinks L.r
    lip = np.abs(coords).T @ masses
    margin = rounding_margin(coords, masses)
    spans = np.abs(coords)
    k = len(masses)

    def level(radii: np.ndarray) -> tuple:
        """(split axis, radii, L.r, 1/2 sum_k p_k (|c_k|.r)^2) for the cells of one depth."""
        return (
            int(np.argmax(lip * radii)),
            radii.tolist(),
            _round_up(float(lip @ radii), k + rank),
            _round_up(0.5 * float(masses @ (spans @ radii) ** 2), k + 2 * rank + 2),
        )

    levels = [level(np.full(rank, math.pi))]

    weights = np.vstack([masses, coords.T * masses])

    def cells(indices: list, depth: int) -> tuple[np.ndarray, list, list]:
        """Centres, bounds and sampled moduli of the cells with these indices at one depth."""
        _, radii, lip_r, quad = levels[depth]
        theta = np.array([[(2 * m + 1) * r for m, r in zip(idx, radii)] for idx in indices]).T
        bounds, moduli = [], []
        for value, *grad in _evaluate(weights, coords, theta).T.tolist():
            v = abs(value)
            bound = v - lip_r
            if v > margin:  # otherwise every bound is <= 0; this also keeps 0 out of the division
                slope = sum(r * abs(value.real * g.imag - value.imag * g.real) for r, g in zip(radii, grad))
                bound = max(bound, v - slope / v - quad)
            bounds.append(bound - margin)
            moduli.append(v)
        return theta, bounds, moduli

    cells_seen = 0
    max_depth_seen = 0
    counter = itertools.count()

    def log(**extra) -> dict:
        return dict(cells=cells_seen, max_depth=max_depth_seen, rounding_margin=margin, rank=rank, **extra)

    root = (0,) * rank
    theta, (lb0,), (best_ub,) = cells([root], 0)
    best_theta = tuple(theta[:, 0].tolist())
    heap: list = [(lb0, next(counter), 0, root)]

    def verdict_zero() -> SeparationCertificate:
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
            depth=max_depth_seen,
            torus_infimum_only=(rank >= 2),
            independence_assumed=independent,
            search_log=log(),
        )

    if best_ub <= params.zero_tol:
        cells_seen = 1
        return verdict_zero()

    depth_exhausted = False
    while heap:
        lb, _, depth, idx = heapq.heappop(heap)
        cells_seen += 1
        max_depth_seen = max(max_depth_seen, depth)
        if lb >= params.target_gap * best_ub and lb > 0:
            # heap is ordered by bound: every remaining leaf is >= lb
            return SeparationCertificate(
                verdict="certified",
                mu=lb,
                best_inf_estimate=best_ub,
                depth=max_depth_seen,
                independence_assumed=independent,
                search_log=log(slack=best_ub - lb),
            )
        if depth >= params.max_depth or cells_seen >= params.max_cells:
            depth_exhausted = depth >= params.max_depth
            break
        if len(levels) == depth + 1:
            axis, radii = levels[depth][0], np.array(levels[depth][1])
            radii[axis] *= 0.5
            levels.append(level(radii))
        axis = levels[depth][0]
        kids = [idx[:axis] + (2 * idx[axis] + side,) + idx[axis + 1:] for side in (0, 1)]
        theta, bounds, moduli = cells(kids, depth + 1)
        for j in (0, 1):
            if moduli[j] < best_ub:
                best_ub, best_theta = moduli[j], tuple(theta[:, j].tolist())
                if best_ub <= params.zero_tol:
                    return verdict_zero()
            heapq.heappush(heap, (bounds[j], next(counter), depth + 1, kids[j]))

    return SeparationCertificate(
        verdict="undecided",
        best_inf_estimate=best_ub,
        depth=max_depth_seen,
        independence_assumed=independent,
        search_log=log(depth_exhausted=depth_exhausted),
    )


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
