"""Seeded workloads: input generators, one operation per input, and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  Inputs come only from the seed.  They are
grouped in cycles, and each cycle draws its cost-driving parameters
(support width, dominant mass, gap to zero) from fixed strata, so that
two seeds give different laws whose total cost is close.  The checks
compare each output with an independent reference written here, never
with the code path under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from quasilevy import calculus, charfn, cli, spectral
from quasilevy.measures import DiscreteLaw, FrequencyBasis

B1 = FrequencyBasis((1,))
B2 = FrequencyBasis((1, math.sqrt(2)))
B3 = FrequencyBasis((1, math.sqrt(2), math.sqrt(3)))
ROUNDTRIP_TV = 1e-8
LATTICE_PARAMS = spectral.TripletParams(n_max=1 << 14)  # FFT grids stay <= 16384 points


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed


@dataclass
class Workload:
    name: str
    why: str
    build: Callable  # (rng, workdir) -> (cycles, warmup ops)
    trace_cycles: int  # cycles in the fixed-size traced pass


# --- independent references ------------------------------------------------------


def tv(a: dict, b: dict) -> float:
    return sum(abs(float(a.get(k, 0.0)) - float(b.get(k, 0.0))) for k in set(a) | set(b))


def sampled_min_abs(law: DiscreteLaw, per_axis: int) -> float:
    """min |sum_k p_k exp(i <c_k, theta>)| over a tensor grid of the torus."""
    coords = np.array(list(law.atoms), dtype=float)
    masses = np.array([float(m) for m in law.atoms.values()])
    axis = 2.0 * math.pi * np.arange(per_axis) / per_axis
    thetas = np.stack(np.meshgrid(*([axis] * law.basis.d), indexing="ij"), -1).reshape(-1, law.basis.d)
    return float(np.min(np.abs(np.exp(1j * thetas @ coords.T) @ masses)))


def check_certified_below_samples(cert, law: DiscreteLaw, per_axis: int) -> None:
    require(cert.verdict == "certified", f"verdict {cert.verdict} on a dominant-atom law")
    floor = sampled_min_abs(law, per_axis)
    require(0.0 < cert.mu <= floor * (1 + 1e-12), f"mu {cert.mu} not in (0, sampled min {floor}]")


def check_half_power(half, law: DiscreteLaw) -> None:
    """h * h must give back F (d = 1): a direct dense convolution of the half power's atoms."""
    shift = [2 * c for c in half.shift_coords]
    require(all(c.denominator == 1 for c in shift), "twice the half shift left the module")
    ks = [c[0] for c in half.measure.atoms]
    lo = min(ks)
    dense = np.zeros(max(ks) - lo + 1)
    for c, w in half.measure.atoms.items():
        dense[c[0] - lo] = w
    origin = 2 * lo + int(shift[0])
    both = {(origin + i,): w for i, w in enumerate(np.convolve(dense, dense).tolist()) if w != 0.0}
    err = tv(both, law.atoms)
    require(err <= ROUNDTRIP_TV, f"h*h differs from F by {err:.3e} in TV")


def stratified(rng, lo: float, hi: float, k: int) -> list[float]:
    """k values, one in each of k equal strata of [lo, hi), in random order."""
    return [lo + (hi - lo) * (j + rng.uniform()) / k for j in rng.permutation(k)]


# --- lattice_roundtrip ------------------------------------------------------------


def dominant_atom_law(rng, width: int, p_star: float) -> tuple[list[int], list[float], int]:
    """Support {0} plus 1 to 7 points of 1..width; mass p_star on a random atom.

    Returns the support, the masses and the index of the dominant atom.
    """
    n_extra = int(rng.integers(1, min(width, 7) + 1))
    support = [0] + sorted(rng.choice(np.arange(1, width + 1), size=n_extra, replace=False).tolist())
    rest = rng.dirichlet(np.ones(len(support) - 1)) * (1 - p_star)
    dominant = int(rng.integers(0, len(support)))
    return support, np.insert(rest, dominant, p_star).tolist(), dominant


def narrow_lattice_law(rng, p_star: float, rational: bool) -> DiscreteLaw:
    """Dominant-atom law of width <= 16, optionally on a half-integer offset and span."""
    support, masses, _ = dominant_atom_law(rng, int(rng.integers(1, 17)), p_star)
    indexed = dict(zip(support, masses))
    if rational:
        # denominators stay at 2: the d=1 series runs on basis coordinates, so its
        # cost grows with the square of the span in coordinates
        offset = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
        span = Fraction(int(rng.integers(1, 5)), 2)
        return DiscreteLaw.from_lattice(indexed, offset=offset, span=span)
    return DiscreteLaw.from_lattice(indexed)


WIDE_P = 0.97  # dominant mass of the wide laws; it moves their cost by a factor of 4 over [0.96, 0.98]


def wide_lattice_law(rng, width: int) -> DiscreteLaw:
    """Three atoms {0, a, W} with gcd(a, W) = 1 and the dominant mass at 0."""
    inner = int(rng.integers(1, width))
    while math.gcd(inner, width) != 1:
        inner = int(rng.integers(1, width))
    rest = rng.dirichlet([4.0, 4.0]) * (1 - WIDE_P)
    return DiscreteLaw.from_lattice({0: WIDE_P, inner: float(rest[0]), width: float(rest[1])})


def lattice_op(law: DiscreteLaw) -> Op:
    def run():
        cert = charfn.certify_separation(law)
        trip = spectral.triplet_lattice(law, LATTICE_PARAMS)
        rec, _ = calculus.reconstruct_law(trip)
        half = calculus.conv_power(trip, Fraction(1, 2))
        return cert, rec, half

    def check(out):
        cert, rec, half = out
        check_certified_below_samples(cert, law, 256)
        err = tv(rec.atoms, law.atoms)
        require(err <= ROUNDTRIP_TV, f"round-trip TV {err:.3e}")
        check_half_power(half, law)

    return Op("lattice", run, check)


LATTICE_CYCLE = 16  # 15 narrow laws, 4 of them on a rational lattice, and one wide law
LATTICE_RATIONAL = 4
# the wide law's width is the centre of one of four equal strata of log W over [64, 1024],
# each stratum once per block of four cycles.  Centres rather than random widths keep
# the slowest stratum, which sets the latency tail, to one width.
WIDE_WIDTHS = [round(64 * 16 ** ((j + 0.5) / 4)) for j in range(4)]


def build_lattice(rng, workdir):
    cycles = []
    for _ in range(32):
        for width in rng.permutation(WIDE_WIDTHS).tolist():
            narrow = LATTICE_CYCLE - 1
            rational = set(rng.choice(narrow, size=LATTICE_RATIONAL, replace=False).tolist())
            laws = [narrow_lattice_law(rng, p, i in rational)
                    for i, p in enumerate(stratified(rng, 0.55, 0.95, narrow))]
            laws.insert(int(rng.integers(0, LATTICE_CYCLE)), wide_lattice_law(rng, width))
            cycles.append([lattice_op(law) for law in laws])
    warmup = [lattice_op(DiscreteLaw.from_lattice({0: 0.7, 1: 0.2, 3: 0.1}))]
    return cycles, warmup


# --- planar_roundtrip --------------------------------------------------------------

NEIGHBOURS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]


def planar_law(rng, n_atoms: int, p_star: float) -> DiscreteLaw:
    """Dominant atom at the origin, the others on distinct unit neighbours spanning the plane."""
    while True:
        picks = [NEIGHBOURS[i] for i in rng.choice(len(NEIGHBOURS), size=n_atoms - 1, replace=False)]
        if any(a[0] * b[1] != a[1] * b[0] for a in picks for b in picks):
            break
    rest = rng.dirichlet(8.0 * np.ones(n_atoms - 1)) * (1 - p_star)
    return DiscreteLaw.from_pairs(B2, [((0, 0), p_star)] + [(c, float(m)) for c, m in zip(picks, rest)])


def planar_op(law: DiscreteLaw) -> Op:
    def run():
        cert = charfn.certify_separation(law)
        trip = spectral.triplet_multibasis(law)
        rec, _ = calculus.reconstruct_law(trip)
        return cert, rec

    def check(out):
        cert, rec = out
        check_certified_below_samples(cert, law, 64)
        err = tv(rec.atoms, law.atoms)
        require(err <= ROUNDTRIP_TV, f"round-trip TV {err:.3e}")

    return Op("planar", run, check)


PLANAR_P = (0.80, 0.86)  # dominant mass; lower masses make the d=2 series grow steeply


def build_planar(rng, workdir):
    cycles = []
    for _ in range(6):
        ops = [planar_op(planar_law(rng, n_atoms, p_star))
               for n_atoms in (3, 4) for p_star in stratified(rng, *PLANAR_P, 4)]
        cycles.append([ops[i] for i in rng.permutation(len(ops))])
    warmup = [planar_op(DiscreteLaw.from_pairs(B2, [((0, 0), 0.9), ((1, 0), 0.05), ((0, 1), 0.05)]))]
    return cycles, warmup


# --- separation_certify ---------------------------------------------------------------


def certify_op(kind: str, law: DiscreteLaw, gap: float, infimum: float) -> Op:
    params = charfn.SeparationParams(target_gap=gap)

    def run():
        return charfn.certify_separation(law, params)

    def check(cert):
        require(cert.verdict == "certified", f"{kind}: verdict {cert.verdict}")
        require(gap * infimum <= cert.mu <= infimum * (1 + 1e-12),
                f"{kind}: mu {cert.mu} outside [{gap} * {infimum}, {infimum}]")

    return Op(kind, run, check)


def refute_op(a: float) -> Op:
    """{0: a, 1: 1-2a, 2: a} has f(t) = e^(it) (1 - 2a + 2a cos t): a real zero when a > 1/4."""
    law = DiscreteLaw.from_lattice({0: a, 1: 1 - 2 * a, 2: a})
    params = charfn.SeparationParams()

    def run():
        return charfn.certify_separation(law, params)

    def check(cert):
        require(cert.verdict == "zero_found", f"refute: verdict {cert.verdict}")
        t = cert.zero_t
        value = abs(a + (1 - 2 * a) * complex(math.cos(t), math.sin(t)) + a * complex(math.cos(2 * t), math.sin(2 * t)))
        require(value <= params.zero_tol, f"refute: |f(zero_t)| = {value:.3e}")

    return Op("refute", run, check)


def planar_gap_law(e: float) -> DiscreteLaw:
    """(0.5+e, 0.25-e/2, 0.25-e/2) on (1, sqrt 2): inf |f| = 2e, reached at theta = (pi, pi)."""
    return DiscreteLaw.from_pairs(B2, [((0, 0), 0.5 + e), ((1, 0), 0.25 - e / 2), ((0, 1), 0.25 - e / 2)])


def spatial_gap_law(e: float) -> DiscreteLaw:
    """(0.5+e, and (0.5-e)/3 three times) on (1, sqrt 2, sqrt 3): inf |f| = 2e."""
    other = (0.5 - e) / 3
    return DiscreteLaw.from_pairs(
        B3, [((0, 0, 0), 0.5 + e), ((1, 0, 0), other), ((0, 1, 0), other), ((0, 0, 1), other)]
    )


def g_law(n: int) -> DiscreteLaw:
    """G_n = {0: 1/2 + 1/(n+2), 1: 1/2 - 1/(n+2)}: inf |f| = 2/(n+2)."""
    return DiscreteLaw.from_lattice({0: Fraction(1, 2) + Fraction(1, n + 2), 1: Fraction(1, 2) - Fraction(1, n + 2)})


def build_separation(rng, workdir):
    cycles = []
    for c in range(8):
        d2 = [certify_op("d2", planar_gap_law(e), 0.999, 2 * e) for e in stratified(rng, 0.03, 0.05, 3)]
        d3 = [certify_op("d3", spatial_gap_law(e), 0.99, 2 * e) for e in stratified(rng, 0.05, 0.1, 2)]
        gs = [certify_op("g_n", g_law(n), 0.9999, 2 / (n + 2)) for n in rng.integers(50, 401, size=2).tolist()]
        # the first cycle refutes the documented law {0: .3, 1: .4, 2: .3} (zero near t = 2.3005)
        refute = refute_op(0.3 if c == 0 else float(rng.uniform(0.28, 0.45)))
        cycles.append([d2[0], d3[0], gs[0], d2[1], d3[1], refute, d2[2], gs[1]])
    warmup = [certify_op("d2", planar_gap_law(0.25), 0.999, 0.5)]
    return cycles, warmup


# --- family_cli ----------------------------------------------------------------------------


def law_doc(law: DiscreteLaw) -> dict:
    return {"basis": [1], "atoms": [{"coords": [c[0]], "mass": float(m)} for c, m in sorted(law.atoms.items())]}


def base_law(rng, p_star: float, width: int) -> DiscreteLaw:
    """Dominant-atom law on the integer basis, the dominant atom at 0.

    Placing the dominant atom at the origin keeps the certificate's Lipschitz
    constant, and so the cost of a family, from depending on where it sits.
    """
    support, masses, dominant = dominant_atom_law(rng, width, p_star)
    return DiscreteLaw.from_pairs(B1, [((s - support[dominant],), m) for s, m in zip(support, masses)])


def from_weights(gamma, lambdas) -> DiscreteLaw:
    law, _ = calculus.reconstruct_law(spectral.QuasiTriplet(B1, gamma, lambdas))
    return law


def converging_family(rng, p_star: float, width: int, members: int):
    """F_i = exp-series of (lambda(F) + 0.3^i * eta): converges to F in variation."""
    base = base_law(rng, p_star, width)
    trip = spectral.triplet_lattice(base)
    n_dirs = int(rng.integers(1, 4))
    freqs = rng.choice(np.arange(1, 7), size=n_dirs, replace=False)
    weights = rng.dirichlet(np.ones(n_dirs)) * float(rng.uniform(0.03, 0.08))
    laws = []
    for i in range(1, members + 1):
        lambdas = dict(trip.lambdas)
        for k, w in zip(freqs, weights):
            lambdas[(int(k),)] = lambdas.get((int(k),), 0.0) + float(w) * 0.3 ** i
        laws.append(from_weights(trip.gamma_coords, lambdas))
    return laws, base


def shifted_family(rng, p_star: float, width: int, members: int):
    """Every member is F moved by one lattice step: the shift never converges."""
    base = base_law(rng, p_star, width)
    shifted = DiscreteLaw.from_pairs(B1, [((c[0] + 1,), m) for c, m in base.atoms.items()])
    return [shifted] * members, base


def stuck_family(rng, p_star: float, width: int, members: int):
    """Every member carries lambda_1 + 0.3: the weights never converge."""
    base = base_law(rng, p_star, width)
    trip = spectral.triplet_lattice(base)
    lambdas = dict(trip.lambdas)
    lambdas[(1,)] = lambdas.get((1,), 0.0) + 0.3
    return [from_weights(trip.gamma_coords, lambdas)] * members, base


def run_cli(argv: list[str]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def cli_op(kind: str, argv: list[str], check: Callable[[int], None]) -> Op:
    def check_run(out):
        code, err = out
        try:
            check(code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"{kind}: exit {code}, output unreadable ({exc}): {err[-200:]}") from None

    return Op(kind, lambda: run_cli(argv), check_run)


def family_ops(fdir: str, kind: str, member: int, members: list[DiscreteLaw]) -> list[Op]:
    files = [os.path.join(fdir, f"m{i}.json") for i in range(len(members))]
    limit = os.path.join(fdir, "limit.json")
    out = {name: os.path.join(fdir, f"out-{name}.json") for name in
           ("converge", "compact", "stoch", "triplet", "law", "power", "tv")}
    law_in = members[member]

    def expect(code: int, want: int, what: str):
        require(code == want, f"{what}: exit {code}, expected {want}")

    def converge_ok(code):
        verdict = read_json(out["converge"])["verdict"]
        want = "holds" if kind == "converging" else "fails"
        require(verdict == want, f"converge-check on a {kind} family: {verdict}")
        expect(code, 0 if want == "holds" else 1, "converge-check")

    def compact_parts_ok(doc, what):
        # every family has one shift and 12 members, fewer than the 20 the growth test needs
        require(doc["shift"]["pass"] and len(doc["shift"]["distinct_values"]) == 1, f"{what}: shift condition")
        require(doc["norm"]["pass"] and doc["norm"]["growth_ratio"] is None, f"{what}: norm condition")

    def compact_ok(code):
        doc = read_json(out["compact"])
        compact_parts_ok(doc, "compact-check")
        expect(code, 0 if doc["all_pass"] else 1, "compact-check")

    def stoch_ok(code):
        doc = read_json(out["stoch"])
        compact_parts_ok(doc["relative"], "stoch-check")
        expect(code, 0 if doc["passes"] else 1, "stoch-check")

    def triplet_ok(code):
        expect(code, 0, "triplet")
        require(isinstance(read_json(out["triplet"])["lambdas"], list), "triplet output has no lambdas")

    def law_ok(code):
        expect(code, 0, "reconstruct")
        atoms = {(a["coords"][0],): a["mass"] for a in read_json(out["law"])["atoms"]}
        err = tv(atoms, law_in.atoms)
        require(err <= ROUNDTRIP_TV, f"cli round-trip TV {err:.3e}")

    def power_ok(code):
        expect(code, 0, "power")
        require(read_json(out["power"])["classification"] in ("probability", "signed"), "power output")

    def tv_ok(code):
        expect(code, 0, "tv")
        with open(out["tv"]) as fh:
            value = float(fh.read())
        require(0.0 <= value <= ROUNDTRIP_TV, f"tv of the round trip {value:.3e}")

    member_file = files[member]
    return [
        cli_op("converge-check", ["converge-check", "--limit", limit, *files, "--out", out["converge"]],
               converge_ok),
        cli_op("compact-check", ["compact-check", *files, "--out", out["compact"]], compact_ok),
        cli_op("stoch-check", ["stoch-check", *files, "--out", out["stoch"]], stoch_ok),
        cli_op("triplet", ["triplet", member_file, "--out", out["triplet"]], triplet_ok),
        cli_op("reconstruct", ["reconstruct", out["triplet"], "--out", out["law"]], law_ok),
        cli_op("power", ["power", out["triplet"], "--s", "1/3", "--out", out["power"]], power_ok),
        cli_op("tv", ["tv", out["law"], member_file, "--out", out["tv"]], tv_ok),
    ]


# three converging families for each shifted and each stuck one, as in acceptance criterion 7
FAMILY_KINDS = (("converging", converging_family), ("shifted", shifted_family),
                ("converging", converging_family), ("stuck", stuck_family),
                ("converging", converging_family)) * 4
FAMILY_MEMBERS = 12
FAMILY_P = (0.65, 0.95)  # dominant mass; below it a single near-degenerate family dominates the cycle


def build_family(rng, workdir):
    families = []
    # the k-th lowest dominant mass goes with the k-th narrowest support, so no family
    # pairs the two costliest traits and the slowest family varies little by seed
    p_stars = sorted(stratified(rng, *FAMILY_P, len(FAMILY_KINDS)))
    widths = [1 + j * 10 // len(FAMILY_KINDS) for j in range(len(FAMILY_KINDS))]
    order = rng.permutation(len(FAMILY_KINDS))
    p_stars, widths = [p_stars[i] for i in order], [widths[i] for i in order]
    for j, ((kind, make), p_star, width) in enumerate(zip(FAMILY_KINDS, p_stars, widths)):
        members, limit = make(rng, p_star, width, FAMILY_MEMBERS)
        fdir = os.path.join(workdir, f"family{j}")
        os.makedirs(fdir, exist_ok=True)
        for i, law in enumerate(members):
            with open(os.path.join(fdir, f"m{i}.json"), "w") as fh:
                json.dump(law_doc(law), fh)
        with open(os.path.join(fdir, "limit.json"), "w") as fh:
            json.dump(law_doc(limit), fh)
        families.append((fdir, kind, members))
    cycles = [
        [op for fdir, kind, members in families for op in family_ops(fdir, kind, c % FAMILY_MEMBERS, members)]
        for c in range(FAMILY_MEMBERS)
    ]
    # One triplet command, writing to a file of its own: set-up is repeated during
    # the timed loop, and a warm-up writing a family's out-triplet.json would change
    # what that family's next reconstruct and tv commands read.
    fdir = families[0][0]
    warm_out = os.path.join(workdir, "warmup-triplet.json")
    warmup = [cli_op("triplet", ["triplet", os.path.join(fdir, "m0.json"), "--out", warm_out],
                     lambda code: require(code == 0 and isinstance(read_json(warm_out)["lambdas"], list),
                                          f"warm-up triplet: exit {code}"))]
    return cycles, warmup


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice_roundtrip",
            "common d=1 user path: certify, triplet_lattice, reconstruct and half power on distinct laws sharing no work",
            build_lattice, trace_cycles=16,
        ),
        Workload(
            "planar_roundtrip",
            "d=2 path where 1024^2 grids and the sparse series dominate; targets one FFT series and one extraction core",
            build_planar, trace_cycles=1,
        ),
        Workload(
            "separation_certify",
            "certify_separation alone on closed-form infima at tight gaps, so the branch-and-bound cell count does the work",
            build_separation, trace_cycles=1,
        ),
        Workload(
            "family_cli",
            "cli.main on JSON files: family checks and round trips, the only path through limits, jsonio and cli",
            build_family, trace_cycles=1,
        ),
    )
}
