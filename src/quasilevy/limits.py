"""Executable convergence and compactness checkers for law sequences.

The underlying statements quantify over infinite sequences; these
checkers see a finite prefix and therefore emit *trend* verdicts under
declared finite-sample readings (configurable thresholds), never proofs
about the unseen tail.  Every report says so.

Conventions: triplets of different members are aligned by extending each
weight map with zeros off its own frequency set; the shared frequency
universe is enumerated deterministically by (|u|, sign, coords) with
u_0 = 0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .charfn import SeparationCertificate, SeparationParams, certify_separation
from .errors import LimitNotSeparated, NotSeparated, QuasiLevyError, TripletFailed
from .measures import Coords, DiscreteLaw, same_basis
from .spectral import QuasiTriplet, TripletParams, extract_triplet
from .spectral import triplet_lattice, triplet_multibasis  # noqa: F401  hooked here by the benchmark

FINITE_SAMPLE_NOTE = "finite-sample evidence over the given prefix, not a proof about the sequence"


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


def tv_distance(f: DiscreteLaw, g: DiscreteLaw) -> float:
    """Total variation distance: l1 over the union support."""
    same_basis(f.basis, g.basis, "tv distance")
    keys = set(f.atoms) | set(g.atoms)
    return float(sum(abs(f.atoms.get(k, 0) - g.atoms.get(k, 0)) for k in keys))


def ell1_triplet_distance(t1: QuasiTriplet, t2: QuasiTriplet) -> float:
    """sum |lambda_{1,u} - lambda_{2,u}| over the union of frequency sets."""
    keys = set(t1.lambdas) | set(t2.lambdas)
    return float(sum(abs(t1.lambdas.get(k, 0.0) - t2.lambdas.get(k, 0.0)) for k in keys))


def frequency_universe(triplets: Sequence[QuasiTriplet]) -> list[Coords]:
    """Deterministic enumeration of all realized frequencies, zero first."""
    basis = triplets[0].basis
    seen: set[Coords] = set()
    for t in triplets:
        seen.update(t.lambdas.keys())
    ordered = sorted(
        seen,
        key=lambda c: (abs(float(basis.value(c))), 0 if float(basis.value(c)) < 0 else 1, c),
    )
    return [(0,) * basis.d] + ordered


def _extract_all(seq: LawSequence, params: Optional[TripletParams]) -> list[QuasiTriplet]:
    out = []
    for i, law in enumerate(seq.laws, start=1):
        try:
            out.append(triplet_of(law, params))
        except QuasiLevyError as exc:
            raise TripletFailed(i, exc) from exc
    return out


def _tail_window(values: Sequence[float], frac: float) -> list[float]:
    k = max(2, math.ceil(len(values) * frac))
    return list(values[-k:])


def _nonincreasing(window: Sequence[float], slack: float = 1e-15) -> bool:
    return all(b <= a + slack for a, b in zip(window, window[1:]))


def _nondecreasing(window: Sequence[float], slack: float = 1e-15) -> bool:
    return all(b >= a - slack for a, b in zip(window, window[1:]))


@dataclass
class Thresholds:
    """Finite-sample readings of the asymptotic conditions.

    "-> 0" is read as: final value below final_tol and nonincreasing over
    the trailing window_frac of the prefix.  "sup < infinity" is read as:
    no growth by growth_factor between the reference point (at
    reference_frac of the prefix) and the end; that signal needs at least
    min_growth_prefix members to be meaningful at all.
    """

    final_tol: float = 1e-6
    window_frac: float = 1.0 / 3.0
    growth_factor: float = 2.0
    reference_frac: float = 0.2
    min_growth_prefix: int = 20
    tail_tol: float = 1e-6
    degeneracy_factor: float = 0.5
    degeneracy_tol: float = 1e-9


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
    separation: Optional[SeparationParams] = None,
) -> ConvergenceVerdict:
    """Finite-sample reading of the shift/weight convergence criterion.

    Evaluates (i) exact equality of the shift coordinates over the prefix
    tail and (ii) the aligned l1 distances of the weights, then
    cross-checks the direction against the raw TV distances; a definitive
    verdict is only emitted when both trends agree.  The limit is certified
    once, with the separation parameters given here, inside the
    extraction of its triplet.
    """
    if thresholds is None:
        thresholds = Thresholds()
    if seq.limit is None:
        raise ValueError("check_convergence needs a limit law")
    limit_params = replace(params or TripletParams(), separation=separation)
    try:
        limit_triplet = triplet_of(seq.limit, limit_params)
    except NotSeparated as exc:
        raise LimitNotSeparated(
            f"limit law is not certified separated from zero (verdict {exc.certificate.verdict})"
        ) from exc
    except QuasiLevyError as exc:
        raise TripletFailed(0, exc) from exc
    triplets = _extract_all(seq, params)

    gammas = [t.gamma_coords for t in triplets]
    target = limit_triplet.gamma_coords
    stable_from = None
    for i in range(len(gammas), 0, -1):
        if gammas[i - 1] != target:
            break
        stable_from = i
    ell1 = [ell1_triplet_distance(t, limit_triplet) for t in triplets]
    tv = [tv_distance(law, seq.limit) for law in seq.laws]

    win = _tail_window(ell1, thresholds.window_frac)
    ell1_ok = ell1[-1] < thresholds.final_tol and _nonincreasing(win)
    tv_win = _tail_window(tv, thresholds.window_frac)
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
    n_tail_schedule: Sequence[int] = (4, 8, 16, 32, 64, 128),
    thresholds: Optional[Thresholds] = None,
    params: Optional[TripletParams] = None,
    triplets: Optional[list[QuasiTriplet]] = None,
) -> RelativeCompactnessReport:
    """Finite-sample evidence for the three relative-compactness conditions.

    (shift) the shifts take few values and none new appear in the tail;
    (norm) the l1 norms do not blow up across the prefix;
    (tail) the shared-enumeration tails are uniformly small by the end of
    the schedule.
    """
    if thresholds is None:
        thresholds = Thresholds()
    if triplets is None:
        triplets = _extract_all(seq, params)

    gammas = [t.gamma_coords for t in triplets]
    distinct: list[tuple[int, ...]] = []
    first_seen = {}
    for i, g in enumerate(gammas, start=1):
        if g not in first_seen:
            first_seen[g] = i
            distinct.append(g)
    tail_start = len(gammas) - max(2, math.ceil(len(gammas) * thresholds.window_frac)) + 1
    new_in_tail = any(i > max(tail_start, 1) for i in first_seen.values()) and len(gammas) > 2
    pass_i = not new_in_tail

    ell1 = [t.ell1() for t in triplets]
    sup_ell1 = max(ell1)
    growth_ratio = None
    pass_ii = True
    if len(ell1) >= thresholds.min_growth_prefix:
        ref = ell1[max(0, math.floor(len(ell1) * thresholds.reference_frac) - 1)]
        if ref > 0:
            growth_ratio = ell1[-1] / ref
            pass_ii = growth_ratio < thresholds.growth_factor

    universe = frequency_universe(triplets)[1:]  # nonzero frequencies, enumerated
    schedule = sorted(set(int(n) for n in n_tail_schedule))
    sup_tails = []
    for n_keep in schedule:
        cut = universe[n_keep:]
        sup_tails.append(
            max(
                (sum(abs(t.lambdas.get(c, 0.0)) for c in cut) + t.tail_bound for t in triplets),
                default=0.0,
            )
        )
    tails_decreasing = _nonincreasing(sup_tails)
    pass_iii = tails_decreasing and (not sup_tails or sup_tails[-1] < thresholds.tail_tol)

    return RelativeCompactnessReport(
        gamma_values=distinct,
        gamma_new_in_tail=new_in_tail,
        pass_shift_condition=pass_i,
        ell1_norms=ell1,
        sup_ell1=sup_ell1,
        growth_ratio=growth_ratio,
        pass_norm_condition=pass_ii,
        tail_schedule=schedule,
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
    relative: Optional[RelativeCompactnessReport] = None,
    thresholds: Optional[Thresholds] = None,
    params: Optional[TripletParams] = None,
) -> StochasticCompactnessReport:
    """Relative compactness plus a liminf-positivity proxy for the l1 norms.

    The degeneracy flag fires when the norms shrink persistently toward 0
    over the prefix tail (the degenerate-limit signature), or have already
    reached degeneracy_tol.
    """
    if thresholds is None:
        thresholds = Thresholds()
    triplets = _extract_all(seq, params)
    if relative is None:
        relative = check_relative_compactness(seq, thresholds=thresholds, triplets=triplets)
    ell1 = relative.ell1_norms
    tail = _tail_window(ell1, thresholds.window_frac)
    tail_min = min(tail)
    ref = ell1[max(0, math.floor(len(ell1) * thresholds.reference_frac) - 1)]
    degenerate = tail_min <= thresholds.degeneracy_tol or (
        _nonincreasing(tail) and ell1[-1] <= thresholds.degeneracy_factor * ref and len(ell1) >= 3
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
