"""Command-line front end over the library's stable file formats.

Exit codes: 0 for an affirmative definitive outcome, 1 for a definitive
negative outcome or any hard error, 2 for undecided/inconclusive
verdicts so scripts can branch on genuinely open cases.

The argument parser is built once per process and reused by every
`main` call.  The environment variables QUASILEVY_TOL,
QUASILEVY_ZERO_TOL and QUASILEVY_SERIES_TOL are read on every call,
in-process calls included, and fill the matching option when it is not
given on the command line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import jsonio
from .calculus import ExpSeriesParams, conv_power, is_infinitely_divisible, reconstruct_law
from .charfn import SeparationParams, certify_separation
from .errors import InvalidArgument, NotSeparated, ParseError, QuasiLevyError, StepTooCoarse, ZeroOnPath
from .limits import (
    LawSequence,
    Thresholds,
    check_convergence,
    check_relative_compactness,
    check_stochastic_compactness,
    triplet_of,
    tv_distance,
)
from .measures import DiscreteLaw
from .spectral import GRID_BUDGET, TripletParams, continued_arg

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDECIDED = 2


def _finite_float(text: str, name: str) -> float:
    """The finite float spelled by text; a ParseError naming `name` otherwise.

    Options and environment variables both parse through here, so NaN and
    infinities never reach a tolerance comparison, which they would pass.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"{name} expects a finite number, got {text!r}")
    return value


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return default if raw is None else _finite_float(raw, f"environment variable {name}")


# (option dest, environment variable, default) for the options the environment
# overrides.  main reads them on every call; the cached parser leaves them None.
_ENV_DEFAULTS = (
    ("tol", "QUASILEVY_TOL", 1e-10),
    ("zero_tol", "QUASILEVY_ZERO_TOL", 1e-10),
    ("series_tol", "QUASILEVY_SERIES_TOL", 1e-12),
)


def emit_curves(law: DiscreteLaw, t_min: float, t_max: float, samples: int):
    """Rows (t, Re f, Im f, |f|, Arg f) with the continuous-phase Arg.

    The phase is continued from t = 0 regardless of t_min, so the Arg
    column is the distinguished-log phase, not a principal value.
    """
    if not 2 <= samples <= GRID_BUDGET:
        raise InvalidArgument(f"need 2 to {GRID_BUDGET} samples, got {samples}")
    if not (0 <= t_min < t_max < math.inf):
        raise InvalidArgument("need 0 <= t_min < t_max < inf")
    ts_out = np.linspace(t_min, t_max, samples)
    vals, args = continued_arg(law, ts_out)
    return [
        (float(t), float(v.real), float(v.imag), float(abs(v)), float(a))
        for t, v, a in zip(ts_out, vals, args)
    ]


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, header, rows) -> None:
    def dump(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])

    if path is None:
        dump(sys.stdout)
    else:
        with open(path, "w") as fh:
            dump(fh)


def _load_law(path: str) -> DiscreteLaw:
    return jsonio.law_from_json(jsonio.load(path))


def _separation_params(args) -> SeparationParams:
    return SeparationParams(
        max_depth=args.max_depth,
        zero_tol=args.zero_tol,
        target_gap=args.target_gap,
    )


def _triplet_params(args) -> TripletParams:
    return TripletParams(n_init=args.n_init, tol=args.tol)


def _thresholds(args) -> Thresholds:
    return Thresholds(final_tol=args.final_tol, growth_factor=args.growth_factor)


# --- subcommand handlers ------------------------------------------------------


def _cmd_check_s(args) -> int:
    law = _load_law(args.law)
    cert = certify_separation(law, _separation_params(args))
    _write_text(args.out, jsonio.dumps(jsonio.certificate_to_json(cert)))
    if args.curves:
        try:
            rows = [(t, a, g) for t, _, _, a, g in emit_curves(law, 0.0, args.t_max, args.samples)]
            _write_csv(args.curves, ["t", "abs_f", "arg_f"], rows)
        except (ZeroOnPath, StepTooCoarse, InvalidArgument) as exc:
            print(f"curves skipped: {exc}", file=sys.stderr)
    if cert.verdict == "certified":
        return EXIT_OK
    if cert.verdict == "zero_found":
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def _cmd_triplet(args) -> int:
    law = _load_law(args.law)
    trip = triplet_of(law, _triplet_params(args))
    _write_text(args.out, jsonio.dumps(jsonio.triplet_to_json(trip)))
    if args.emit_curves:
        rows = [(t, re, im, g) for t, re, im, _, g in emit_curves(law, 0.0, args.t_max, args.samples)]
        _write_csv(args.emit_curves, ["t", "re_f", "im_f", "arg_f"], rows)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    trip = jsonio.triplet_from_json(jsonio.load(args.triplet))
    law, report = reconstruct_law(trip, ExpSeriesParams(tol=args.series_tol))
    _write_text(args.out, jsonio.dumps(jsonio.law_to_json(law)))
    print(
        f"reconstruction: series_residual={report.series_residual!r} "
        f"clamped={report.clamped_negative_mass!r} error_bound={report.error_bound!r}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_power(args) -> int:
    trip = jsonio.triplet_from_json(jsonio.load(args.triplet))
    try:
        s = Fraction(args.s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--s expects a number or fraction, got {args.s!r}") from None
    result = conv_power(trip, s, ExpSeriesParams(tol=args.series_tol))
    _write_text(args.out, jsonio.dumps(jsonio.power_result_to_json(result)))
    return EXIT_OK


def _cmd_classify_id(args) -> int:
    trip = jsonio.triplet_from_json(jsonio.load(args.triplet))
    verdict = is_infinitely_divisible(trip, args.id_tol)
    _write_text(args.out, jsonio.dumps({"infinitely_divisible": verdict, "tol": args.id_tol}))
    return EXIT_OK


def _cmd_tv(args) -> int:
    a = _load_law(args.a)
    b = _load_law(args.b)
    _write_text(args.out, repr(tv_distance(a, b)) + "\n")
    return EXIT_OK


def _trend_rows(verdict) -> list:
    return [
        (n + 1, d, t, e)
        for n, (d, t, e) in enumerate(
            zip(verdict.ell1_distances, verdict.tv_distances, verdict.ell1_norms)
        )
    ]


def _cmd_converge_check(args) -> int:
    limit = _load_law(args.limit)
    members = [_load_law(p) for p in args.members]
    seq = LawSequence(tuple(members), limit=limit)
    verdict = check_convergence(seq, _thresholds(args), _triplet_params(args))
    _write_text(args.out, jsonio.dumps(jsonio.convergence_to_json(verdict)))
    print(f"{'n':>4} {'l1 distance':>14} {'tv distance':>14}", file=sys.stderr)
    for n, (d, t) in enumerate(zip(verdict.ell1_distances, verdict.tv_distances), start=1):
        print(f"{n:>4} {d:>14.6e} {t:>14.6e}", file=sys.stderr)
    if args.emit_trends:
        _write_csv(
            args.emit_trends,
            ["n", "ell1_distance", "tv_distance", "ell1_norm"],
            _trend_rows(verdict),
        )
    return {"holds": EXIT_OK, "fails": EXIT_NEGATIVE}.get(verdict.verdict, EXIT_UNDECIDED)


def _cmd_compact_check(args) -> int:
    members = [_load_law(p) for p in args.members]
    seq = LawSequence(tuple(members))
    report = check_relative_compactness(seq, thresholds=_thresholds(args), params=_triplet_params(args))
    _write_text(args.out, jsonio.dumps(jsonio.relative_report_to_json(report)))
    print(f"{'n':>4} {'sum |lambda|':>14}", file=sys.stderr)
    for n, e in enumerate(report.ell1_norms, start=1):
        print(f"{n:>4} {e:>14.6e}", file=sys.stderr)
    if args.emit_trends:
        _write_csv(
            args.emit_trends,
            ["n", "ell1_norm"],
            [(n + 1, e) for n, e in enumerate(report.ell1_norms)],
        )
    return EXIT_OK if report.all_pass else EXIT_NEGATIVE


def _cmd_stoch_check(args) -> int:
    members = [_load_law(p) for p in args.members]
    seq = LawSequence(tuple(members))
    report = check_stochastic_compactness(seq, thresholds=_thresholds(args), params=_triplet_params(args))
    _write_text(args.out, jsonio.dumps(jsonio.stochastic_report_to_json(report)))
    return EXIT_OK if report.passes else EXIT_NEGATIVE


def _cmd_curves(args) -> int:
    law = _load_law(args.law)
    rows = emit_curves(law, args.t_min, args.t_max, args.samples)
    _write_csv(args.out, ["t", "re_f", "im_f", "abs_f", "arg_f"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilevy",
        description="Spectral representations of discrete probability laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    # --tol, --zero-tol and --series-tol default to None: main fills them from _ENV_DEFAULTS
    def add_float(p, flag, default):
        # a ParseError is not a ValueError, so argparse lets it reach main's JSON error path
        p.add_argument(flag, type=lambda text: _finite_float(text, flag), default=default)

    p = sub.add_parser("check-s", help="certify or refute separation from zero")
    p.add_argument("law")
    p.add_argument("--max-depth", type=int, default=40)
    add_float(p, "--zero-tol", None)
    add_float(p, "--target-gap", 0.9)
    p.add_argument("--curves", default=None, help="also write a (t, |f|, Arg f) CSV here")
    add_float(p, "--t-max", 2 * math.pi)
    p.add_argument("--samples", type=int, default=256)
    add_out(p)
    p.set_defaults(handler=_cmd_check_s)

    p = sub.add_parser("triplet", help="extract the spectral triplet of a law")
    p.add_argument("law")
    add_float(p, "--tol", None)
    p.add_argument("--n-init", type=int, default=None)
    p.add_argument("--emit-curves", default=None, help="write a (t, Re f, Im f, Arg f) CSV here")
    add_float(p, "--t-max", 2 * math.pi)
    p.add_argument("--samples", type=int, default=256)
    add_out(p)
    p.set_defaults(handler=_cmd_triplet)

    p = sub.add_parser("reconstruct", help="rebuild the law from a triplet")
    p.add_argument("triplet")
    add_float(p, "--series-tol", None)
    add_out(p)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("power", help="fractional convolution power through the triplet")
    p.add_argument("triplet")
    p.add_argument("--s", required=True, help="nonnegative power, e.g. 0.5 or 1/2")
    add_float(p, "--series-tol", None)
    add_out(p)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("classify-id", help="decide infinite divisibility from a triplet")
    p.add_argument("triplet")
    add_float(p, "--id-tol", 1e-9)
    add_out(p)
    p.set_defaults(handler=_cmd_classify_id)

    p = sub.add_parser("tv", help="total variation distance between two laws")
    p.add_argument("a")
    p.add_argument("b")
    add_out(p)
    p.set_defaults(handler=_cmd_tv)

    def add_family_opts(p):
        add_float(p, "--tol", None)
        p.add_argument("--n-init", type=int, default=None)
        add_float(p, "--final-tol", 1e-6)
        add_float(p, "--growth-factor", 2.0)
        p.add_argument("--emit-trends", default=None, help="write per-member trend CSV here")
        add_out(p)

    p = sub.add_parser("converge-check", help="convergence-in-variation criterion on a prefix")
    p.add_argument("--limit", required=True)
    p.add_argument("members", nargs="+")
    add_family_opts(p)
    p.set_defaults(handler=_cmd_converge_check)

    p = sub.add_parser("compact-check", help="relative-compactness conditions on a prefix")
    p.add_argument("members", nargs="+")
    add_family_opts(p)
    p.set_defaults(handler=_cmd_compact_check)

    p = sub.add_parser("stoch-check", help="stochastic-compactness condition on a prefix")
    p.add_argument("members", nargs="+")
    add_family_opts(p)
    p.set_defaults(handler=_cmd_stoch_check)

    p = sub.add_parser("curves", help="CSV of (t, Re f, Im f, |f|, Arg f)")
    p.add_argument("law")
    add_float(p, "--t-min", 0.0)
    add_float(p, "--t-max", 2 * math.pi)
    p.add_argument("--samples", type=int, default=256)
    add_out(p)
    p.set_defaults(handler=_cmd_curves)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process.

    build_parser() itself stays uncached, so a caller that changes the
    parser it returns cannot change main.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        # read before parsing, so an invalid variable fails every command, --help included
        env = [(dest, _env_float(name, default)) for dest, name, default in _ENV_DEFAULTS]
        args = _parser().parse_args(argv)
        for dest, value in env:
            if hasattr(args, dest) and getattr(args, dest) is None:
                setattr(args, dest, value)
        return args.handler(args)
    except NotSeparated as exc:
        doc = {"error": "NotSeparated", "message": str(exc)}
        if exc.certificate is not None:
            doc["certificate"] = jsonio.certificate_to_json(exc.certificate)
        print(jsonio.dumps(doc), file=sys.stderr, end="")
        if exc.certificate is not None and exc.certificate.verdict == "undecided":
            return EXIT_UNDECIDED
        return EXIT_NEGATIVE
    except QuasiLevyError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(jsonio.dumps(doc), file=sys.stderr, end="")
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
