"""Executable convergence and compactness checkers for law sequences.

The underlying statements quantify over infinite sequences; these
checkers see a finite prefix and therefore emit *trend* verdicts under
declared finite-sample readings (configurable thresholds), never proofs
about the unseen tail.  Every report says so.

The members of a prefix, and the limit of a convergence check, are
extracted together under one TripletParams: spectral.extract_triplets
certifies each in turn that inf |f| > 0, stopping at the first that is
not certified, and then runs their grids as stacks, one extraction core
for all of them.  Each member's triplet is the one it gets alone.

Conventions: triplets of different members are aligned by extending each
weight map with zeros off its own frequency set; the shared frequency
universe is enumerated deterministically by (|u|, sign, coords) with
u_0 = 0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .charfn import SeparationCertificate, SeparationParams, certify_separation
from .errors import LimitNotSeparated, NotSeparated, QuasiLevyError, TripletFailed
from .measures import Coords, DiscreteLaw, same_basis
from .spectral import QuasiTriplet, TripletParams, extract_triplet, extract_triplets
from .spectral import triplet_lattice, triplet_multibasis  # noqa: F401  hooked here by the benchmark

FINITE_SAMPLE_NOTE = "finite-sample evidence over the given prefix, not a proof about the sequence"

WINDOW_FRAC = 1.0 / 3.0  # the trailing share of the prefix a trend is read over
REFERENCE_FRAC = 0.2  # where in the prefix the growth of the l1 norms is measured from
MIN_GROWTH_PREFIX = 20  # the fewest members for which a growth ratio means anything
TAIL_TOL = 1e-6  # the uniform tail the last schedule point must fall below
TAIL_SCHEDULE = (4, 8, 16, 32, 64, 128)  # frequencies kept before each uniform tail is read
DEGENERACY_FACTOR = 0.5  # norms that fell below this share of the reference read as degenerating
DEGENERACY_TOL = 1e-9  # norms already at most this read as degenerate


def triplet_of(law: DiscreteLaw, params: Optional[TripletParams] = None) -> QuasiTriplet:
    """The triplet of one member: extract_triplet, the same for every basis."""
    return extract_triplet(law, params)


@dataclass(frozen=True)
class LawSequence:
    """A finite prefix F_1..F_n of a law sequence, with an optional limit."""

    laws: tuple[DiscreteLaw, ...]
    limit: Optional[DiscreteLaw] = None

    def __post_init__(self):
        if not self.laws:
            raise ValueError("empty law sequence")
        object.__setattr__(self, "laws", tuple(self.laws))
        base = self.laws[0].basis
        for i, law in enumerate(self.laws[1:], start=2):
            same_basis(base, law.basis, f"sequence member {i}")
        if self.limit is not None:
            same_basis(base, self.limit.basis, "limit law")

    def __len__(self):
        return len(self.laws)


def _ell1_gap(what: str, basis1, map1: Mapping, basis2, map2: Mapping) -> float:
    """l1 distance of two keyed maps over the union of their keys, on an identical basis."""
    same_basis(basis1, basis2, what)
    return float(sum(abs(map1.get(k, 0) - map2.get(k, 0)) for k in set(map1) | set(map2)))


def tv_distance(f: DiscreteLaw, g: DiscreteLaw) -> float:
    """Total variation distance: l1 over the union support."""
    return _ell1_gap("tv distance", f.basis, f.atoms, g.basis, g.atoms)


def ell1_triplet_distance(t1: QuasiTriplet, t2: QuasiTriplet) -> float:
    """sum |lambda_{1,u} - lambda_{2,u}| over the union of frequency sets."""
    return _ell1_gap("triplet distance", t1.basis, t1.lambdas, t2.basis, t2.lambdas)


def frequency_universe(triplets: Sequence[QuasiTriplet]) -> list[Coords]:
    """Deterministic enumeration of all realized frequencies, zero first; each float value is read once."""
    values: dict[Coords, float] = {}
    for t in triplets:
        values.update(zip(map(tuple, t.levy_measure.coords.tolist()), t.levy_measure.support_floats().tolist()))
    ordered = sorted(values, key=lambda c: (abs(values[c]), 0 if values[c] < 0 else 1, c))
    return [(0,) * triplets[0].basis.d] + ordered


def _extract_all(laws: Sequence[DiscreteLaw], params: Optional[TripletParams], first: int = 1) -> list[QuasiTriplet]:
    """The triplets of laws, extracted in one batch.

    TripletFailed names the lowest failing index, counting from first.
    """
    found = extract_triplets(laws, params)
    for i, trip in enumerate(found, start=first):
        if isinstance(trip, QuasiLevyError):
            raise TripletFailed(i, trip) from trip
    return found


def _tail_window(values: Sequence[float]) -> list[float]:
    k = max(2, math.ceil(len(values) * WINDOW_FRAC))
    return list(values[-k:])


def _nonincreasing(window: Sequence[float], slack: float = 1e-15) -> bool:
    return all(b <= a + slack for a, b in zip(window, window[1:]))


def _nondecreasing(window: Sequence[float], slack: float = 1e-15) -> bool:
    return all(b >= a - slack for a, b in zip(window, window[1:]))


@dataclass
class Thresholds:
    """Finite-sample readings of the asymptotic conditions.

    "-> 0" is read as: final value below final_tol and nonincreasing over
    the trailing WINDOW_FRAC of the prefix.  "sup < infinity" is read as:
    no growth by growth_factor between the reference point (at
    REFERENCE_FRAC of the prefix) and the end; that signal needs at least
    MIN_GROWTH_PREFIX members to be meaningful at all.
    """

    final_tol: float = 1e-6
    growth_factor: float = 2.0


@dataclass
class ConvergenceVerdict:
    verdict: str  # "holds" | "fails" | "inconclusive"
    reason: str
    gamma_stable_from: Optional[int]
    ell1_distances: list[float]
    tv_distances: list[float]
    ell1_trend_ok: bool
    tv_trend_ok: bool
    ell1_norms: list[float] = field(default_factory=list)
    note: str = FINITE_SAMPLE_NOTE


def check_convergence(
    seq: LawSequence,
    thresholds: Optional[Thresholds] = None,
    params: Optional[TripletParams] = None,
) -> ConvergenceVerdict:
    """Finite-sample reading of the shift/weight convergence criterion.

    Evaluates (i) exact equality of the shift coordinates over the prefix
    tail and (ii) the aligned l1 distances of the weights, then
    cross-checks the direction against the raw TV distances; a definitive
    verdict is only emitted when both trends agree.  The limit is certified
    once, like every member only as far as inf |f| > 0, and extracted in
    one batch with the members; LimitNotSeparated is raised when that
    certificate is not given.
    """
    if thresholds is None:
        thresholds = Thresholds()
    if seq.limit is None:
        raise ValueError("check_convergence needs a limit law")
    try:
        limit_triplet, *triplets = _extract_all([seq.limit, *seq.laws], params, first=0)
    except TripletFailed as exc:
        if exc.index == 0 and isinstance(exc.cause, NotSeparated):
            raise LimitNotSeparated(
                f"limit law is not certified separated from zero (verdict {exc.cause.certificate.verdict})"
            ) from exc.cause
        raise

    gammas = [t.gamma_coords for t in triplets]
    target = limit_triplet.gamma_coords
    stable_from = None
    for i in range(len(gammas), 0, -1):
        if gammas[i - 1] != target:
            break
        stable_from = i
    ell1 = [ell1_triplet_distance(t, limit_triplet) for t in triplets]
    tv = [tv_distance(law, seq.limit) for law in seq.laws]

    win = _tail_window(ell1)
    ell1_ok = ell1[-1] < thresholds.final_tol and _nonincreasing(win)
    tv_win = _tail_window(tv)
    tv_ok = tv[-1] < thresholds.final_tol and _nonincreasing(tv_win)

    if stable_from is None:
        verdict, reason = "fails", "shift coordinates differ from the limit at the prefix end"
    elif ell1_ok:
        verdict, reason = "holds", "shift stable and weight distances vanish over the prefix"
    elif ell1[-1] >= thresholds.final_tol and _nondecreasing(win):
        verdict, reason = "fails", "weight distances are not shrinking over the prefix tail"
    else:
        verdict, reason = "inconclusive", "weight-distance trend is mixed over the prefix"

    if verdict == "holds" and not tv_ok:
        verdict, reason = "inconclusive", "criterion trend and TV trend disagree"
    if verdict == "fails" and tv_ok:
        verdict, reason = "inconclusive", "criterion trend and TV trend disagree"

    return ConvergenceVerdict(
        verdict=verdict,
        reason=reason,
        gamma_stable_from=stable_from,
        ell1_distances=ell1,
        tv_distances=tv,
        ell1_trend_ok=ell1_ok,
        tv_trend_ok=tv_ok,
        ell1_norms=[t.ell1() for t in triplets],
    )


@dataclass
class RelativeCompactnessReport:
    gamma_values: list[tuple[int, ...]]
    gamma_new_in_tail: bool
    pass_shift_condition: bool
    ell1_norms: list[float]
    sup_ell1: float
    growth_ratio: Optional[float]
    pass_norm_condition: bool
    tail_schedule: list[int]
    sup_tails: list[float]
    tails_decreasing: bool
    pass_tail_condition: bool
    note: str = FINITE_SAMPLE_NOTE

    @property
    def all_pass(self) -> bool:
        return self.pass_shift_condition and self.pass_norm_condition and self.pass_tail_condition


def check_relative_compactness(
    seq: LawSequence,
    thresholds: Optional[Thresholds] = None,
    params: Optional[TripletParams] = None,
) -> RelativeCompactnessReport:
    """Finite-sample evidence for the three relative-compactness conditions.

    (shift) the shifts take few values and none new appear in the tail,
    the same trailing WINDOW_FRAC of the prefix the trend checks read;
    (norm) the l1 norms do not blow up across the prefix;
    (tail) the shared-enumeration tails are uniformly small by the end of
    TAIL_SCHEDULE.
    """
    if thresholds is None:
        thresholds = Thresholds()
    triplets = _extract_all(seq.laws, params)

    gammas = [t.gamma_coords for t in triplets]
    distinct: list[tuple[int, ...]] = []
    first_seen = {}
    for i, g in enumerate(gammas, start=1):
        if g not in first_seen:
            first_seen[g] = i
            distinct.append(g)
    # first member (1-based) of the trailing window the trend checks read
    tail_start = _tail_window(range(1, len(gammas) + 1))[0]
    # the first member's shift is never new; any other first seen inside the window is
    new_in_tail = any(i >= max(tail_start, 2) for i in first_seen.values()) and len(gammas) > 2
    pass_i = not new_in_tail

    ell1 = [t.ell1() for t in triplets]
    sup_ell1 = max(ell1)
    growth_ratio = None
    pass_ii = True
    if len(ell1) >= MIN_GROWTH_PREFIX:
        ref = ell1[max(0, math.floor(len(ell1) * REFERENCE_FRAC) - 1)]
        if ref > 0:
            growth_ratio = ell1[-1] / ref
            pass_ii = growth_ratio < thresholds.growth_factor

    universe = frequency_universe(triplets)[1:]  # nonzero frequencies, enumerated
    # per member, tails[j] = the l1 mass of its weights at universe[j:], one reversed cumulative sum
    where = {c: j for j, c in enumerate(universe)}
    tails = np.zeros((len(triplets), len(universe) + 1))
    for row, t in zip(tails, triplets):
        row[[where[c] for c in map(tuple, t.levy_measure.coords.tolist())]] = np.abs(t.levy_measure.weights)
        row[::-1] = np.cumsum(row[::-1]) + t.tail_bound
    cut = [min(n_keep, len(universe)) for n_keep in TAIL_SCHEDULE]
    sup_tails = tails[:, cut].max(axis=0).tolist()
    tails_decreasing = _nonincreasing(sup_tails)
    pass_iii = tails_decreasing and (not sup_tails or sup_tails[-1] < TAIL_TOL)

    return RelativeCompactnessReport(
        gamma_values=distinct,
        gamma_new_in_tail=new_in_tail,
        pass_shift_condition=pass_i,
        ell1_norms=ell1,
        sup_ell1=sup_ell1,
        growth_ratio=growth_ratio,
        pass_norm_condition=pass_ii,
        tail_schedule=list(TAIL_SCHEDULE),
        sup_tails=sup_tails,
        tails_decreasing=tails_decreasing,
        pass_tail_condition=pass_iii,
    )


@dataclass
class StochasticCompactnessReport:
    relative: RelativeCompactnessReport
    min_ell1: float
    tail_min_ell1: float
    degenerate_trend: bool
    passes: bool
    note: str = FINITE_SAMPLE_NOTE


def check_stochastic_compactness(
    seq: LawSequence,
    thresholds: Optional[Thresholds] = None,
    params: Optional[TripletParams] = None,
) -> StochasticCompactnessReport:
    """Relative compactness plus a liminf-positivity proxy for the l1 norms.

    The degeneracy flag fires when the norms shrink persistently toward 0
    over the prefix tail (the degenerate-limit signature), or have already
    reached DEGENERACY_TOL.
    """
    if thresholds is None:
        thresholds = Thresholds()
    relative = check_relative_compactness(seq, thresholds=thresholds, params=params)
    ell1 = relative.ell1_norms
    tail = _tail_window(ell1)
    tail_min = min(tail)
    ref = ell1[max(0, math.floor(len(ell1) * REFERENCE_FRAC) - 1)]
    degenerate = tail_min <= DEGENERACY_TOL or (
        _nonincreasing(tail) and ell1[-1] <= DEGENERACY_FACTOR * ref and len(ell1) >= 3
    )
    return StochasticCompactnessReport(
        relative=relative,
        min_ell1=min(ell1),
        tail_min_ell1=tail_min,
        degenerate_trend=degenerate,
        passes=relative.all_pass and not degenerate,
    )


@dataclass
class SeparationProbeReport:
    certificates: list[SeparationCertificate]
    all_certified_from: Optional[int]  # 1-based index; None if the prefix end is not certified
    note: str = FINITE_SAMPLE_NOTE


def eventually_in_DS_probe(
    seq: LawSequence, separation: Optional[SeparationParams] = None
) -> SeparationProbeReport:
    """Per-member separation certificates and the first all-certified index."""
    certs = [certify_separation(law, separation) for law in seq.laws]
    start = None
    for i in range(len(certs), 0, -1):
        if not certs[i - 1].is_certified:
            break
        start = i
    return SeparationProbeReport(certificates=certs, all_certified_from=start)
