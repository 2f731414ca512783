"""Stable JSON formats for laws, measures, triplets, certificates, reports.

Numbers: JSON integers stay exact ints, floats stay floats, and rationals
are written as {"num": n, "den": m} objects so exact support survives the
round trip.  Serialization is canonical (sorted keys, sorted atom order),
so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Any

from .calculus import ConvPowerResult
from .charfn import SeparationCertificate
from .errors import DuplicateAtom, ParseError
from .limits import (
    ConvergenceVerdict,
    RelativeCompactnessReport,
    StochasticCompactnessReport,
)
from .measures import DiscreteLaw, FrequencyBasis, SignedAtomicMeasure
from .spectral import QuasiTriplet


# --- scalars -----------------------------------------------------------------


def scalar_to_json(x) -> Any:
    if isinstance(x, bool):
        raise ParseError(f"not a numeric scalar: {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, float):
        return x
    raise ParseError(f"cannot serialize scalar {x!r}")


def scalar_from_json(obj, where: str):
    if isinstance(obj, bool):
        raise ParseError(f"{where}: expected a number, got {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ParseError(f"{where}: expected a finite number, got {obj!r}")
        return obj
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        num, den = obj["num"], obj["den"]
        if not (isinstance(num, int) and isinstance(den, int)) or den == 0:
            raise ParseError(f"{where}: malformed rational {obj!r}")
        return Fraction(num, den)
    raise ParseError(f"{where}: expected a number or {{num, den}}, got {obj!r}")


@contextmanager
def _building(where: str):
    """Report a ValueError or ArithmeticError raised while building an object as a ParseError."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _coords_from_json(obj, where: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or not all(isinstance(c, int) and not isinstance(c, bool) for c in obj):
        raise ParseError(f"{where}: coords must be a list of integers, got {obj!r}")
    return tuple(obj)


def _basis_from_json(doc: dict, where: str) -> FrequencyBasis:
    alphas = doc.get("basis")
    if not isinstance(alphas, list) or not alphas:
        raise ParseError(f"{where}: missing or empty 'basis' array")
    independent = doc.get("declared_independent", True)
    if not isinstance(independent, bool):
        raise ParseError(f"{where}: 'declared_independent' must be a boolean")
    alphas = tuple(scalar_from_json(a, f"{where}.basis[{i}]") for i, a in enumerate(alphas))
    with _building(f"{where}.basis"):
        return FrequencyBasis(alphas, declared_independent=independent)


def _basis_to_json(basis: FrequencyBasis, doc: dict) -> dict:
    doc["basis"] = [scalar_to_json(a) for a in basis.alphas]
    if not basis.declared_independent:
        doc["declared_independent"] = False
    return doc


# --- entries: [{<key>: coords, <value_key>: number}] -----------------------------


def _entries_to_json(m: SignedAtomicMeasure, key: str, value_key: str) -> list:
    return [{key: c, value_key: scalar_to_json(v)} for c, v in sorted(zip(m.coords.tolist(), m.given_weights))]


def _entries_from_json(entries, where: str, key: str, value_key: str) -> list:
    """(coords, number) pairs of an entries list, in order; where names the list."""
    pairs = []
    for i, entry in enumerate(entries):
        at = f"{where}[{i}]"
        if not isinstance(entry, dict) or key not in entry or value_key not in entry:
            raise ParseError(f"{at}: expected {{{key}, {value_key}}}")
        # the coords message names its field itself; any other key goes into the location
        pairs.append(
            (_coords_from_json(entry[key], at if key == "coords" else f"{at}.{key}"),
             scalar_from_json(entry[value_key], f"{at}.{value_key}"))
        )
    return pairs


# --- laws and measures ----------------------------------------------------------


def law_to_json(law: DiscreteLaw) -> dict:
    return _basis_to_json(law.basis, {"atoms": _entries_to_json(law, "coords", "mass")})


def law_from_json(doc) -> DiscreteLaw:
    if not isinstance(doc, dict):
        raise ParseError("law document must be a JSON object")
    if "masses" in doc:
        masses = doc["masses"]
        if not isinstance(masses, dict):
            raise ParseError("lattice shorthand: 'masses' must map index -> mass")
        indexed = {}
        for k, v in masses.items():
            try:
                index = int(k)
            except ValueError as exc:
                raise ParseError(f"lattice shorthand: non-integer index ({exc})") from None
            # "1", " 1 " and "+1" are distinct JSON keys but one index
            if index in indexed:
                raise DuplicateAtom(f"lattice shorthand: index {index} listed twice")
            indexed[index] = scalar_from_json(v, f"masses[{k}]")
        offset = scalar_from_json(doc.get("offset", 0), "offset")
        span = scalar_from_json(doc.get("span", 1), "span")
        with _building("lattice shorthand"):
            return DiscreteLaw.from_lattice(indexed, offset=offset, span=span)
    basis = _basis_from_json(doc, "law")
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ParseError("law: missing or empty 'atoms' array")
    pairs = _entries_from_json(atoms, "law.atoms", "coords", "mass")
    with _building("law.atoms"):
        return DiscreteLaw.from_pairs(basis, pairs)


def measure_to_json(m: SignedAtomicMeasure) -> dict:
    return _basis_to_json(m.basis, {"atoms": _entries_to_json(m, "coords", "weight")})


def measure_from_json(doc) -> SignedAtomicMeasure:
    if not isinstance(doc, dict):
        raise ParseError("measure document must be a JSON object")
    basis = _basis_from_json(doc, "measure")
    atoms = doc.get("atoms")
    if not isinstance(atoms, list):
        raise ParseError("measure: missing 'atoms' array")
    pairs = _entries_from_json(atoms, "measure.atoms", "coords", "weight")
    with _building("measure.atoms"):
        return SignedAtomicMeasure(basis, pairs)


# --- triplets ------------------------------------------------------------------


def triplet_to_json(t: QuasiTriplet) -> dict:
    return _basis_to_json(
        t.basis,
        {
            "gamma_coords": list(t.gamma_coords),
            "lambdas": _entries_to_json(t.levy_measure, "freq", "value"),
            "tail_bound": float(t.tail_bound),
        },
    )


def triplet_from_json(doc) -> QuasiTriplet:
    if not isinstance(doc, dict):
        raise ParseError("triplet document must be a JSON object")
    basis = _basis_from_json(doc, "triplet")
    gamma = _coords_from_json(doc.get("gamma_coords"), "triplet.gamma_coords")
    lam_list = doc.get("lambdas")
    if not isinstance(lam_list, list):
        raise ParseError("triplet: missing 'lambdas' array")
    lambdas = {}
    for i, (coords, value) in enumerate(_entries_from_json(lam_list, "triplet.lambdas", "freq", "value")):
        if coords in lambdas:
            raise ParseError(f"triplet.lambdas[{i}]: duplicate frequency {coords}")
        lambdas[coords] = value
    tail = scalar_from_json(doc.get("tail_bound", 0.0), "triplet.tail_bound")
    with _building("triplet"):
        return QuasiTriplet(basis, gamma, lambdas, tail_bound=float(tail))


# --- certificates and reports -----------------------------------------------------


def certificate_to_json(cert: SeparationCertificate) -> dict:
    doc = {
        "verdict": cert.verdict,
        "best_inf_estimate": cert.best_inf_estimate,
        "depth": cert.depth,
        "torus_infimum_only": cert.torus_infimum_only,
        "independence_assumed": cert.independence_assumed,
        "search_log": dict(cert.search_log),
    }
    if cert.mu is not None:
        doc["mu"] = cert.mu
    if cert.zero_theta is not None:
        doc["zero_theta"] = list(cert.zero_theta)
        doc["zero_value"] = cert.zero_value
    if cert.zero_t is not None:
        doc["zero_t"] = cert.zero_t
    return doc


def convergence_to_json(v: ConvergenceVerdict) -> dict:
    return {
        "verdict": v.verdict,
        "reason": v.reason,
        "gamma_stable_from": v.gamma_stable_from,
        "ell1_distances": v.ell1_distances,
        "tv_distances": v.tv_distances,
        "ell1_trend_ok": v.ell1_trend_ok,
        "tv_trend_ok": v.tv_trend_ok,
        "note": v.note,
    }


def relative_report_to_json(r: RelativeCompactnessReport) -> dict:
    return {
        "all_pass": r.all_pass,
        "shift": {
            "distinct_values": [list(g) for g in r.gamma_values],
            "new_in_tail": r.gamma_new_in_tail,
            "pass": r.pass_shift_condition,
        },
        "norm": {
            "ell1_norms": r.ell1_norms,
            "sup": r.sup_ell1,
            "growth_ratio": r.growth_ratio,
            "pass": r.pass_norm_condition,
        },
        "tail": {
            "schedule": r.tail_schedule,
            "sup_tails": r.sup_tails,
            "decreasing": r.tails_decreasing,
            "pass": r.pass_tail_condition,
        },
        "note": r.note,
    }


def stochastic_report_to_json(r: StochasticCompactnessReport) -> dict:
    return {
        "passes": r.passes,
        "relative": relative_report_to_json(r.relative),
        "min_ell1": r.min_ell1,
        "tail_min_ell1": r.tail_min_ell1,
        "degenerate_trend": r.degenerate_trend,
        "note": r.note,
    }


def power_result_to_json(r: ConvPowerResult) -> dict:
    return {
        "measure": measure_to_json(r.measure),
        "shift": {
            "coords": [scalar_to_json(c if c.denominator > 1 else int(c)) for c in r.shift_coords],
            "in_module": r.shift_in_module,
            "value": r.shift_value,
        },
        "classification": r.classification,
        "series_residual": r.series_residual,
        "scaled_tail": r.scaled_tail,
    }


# --- file plumbing -------------------------------------------------------------------


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests its JSON too deeply to read") from None
