"""Spans around the calls into quasilevy's public functions, recorded from outside.

Nothing under src/ is edited.  The tracer replaces each public function at
the place where its caller looks it up (a module global, or a class
attribute), records a span per call, and restores the originals on
uninstall.  A span is [name, start, end, parent index, operation id].  The
span name is "<module>.<function>"; the module part is the layer.

Counts are read from public result fields (search_log, diagnostics,
lambdas, reconstruction residuals, bytes read and written), so they repeat
exactly for a fixed seed and can be cited as counts.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import defaultdict
from time import perf_counter

from quasilevy import calculus, charfn, cli, jsonio, limits, measures, spectral

LAYERS = ("measures", "charfn", "spectral", "calculus", "limits", "jsonio", "cli")


# --- observers: counts from public result fields ----------------------------------


def _observe_certificate(counts, args, kwargs, cert):
    counts["charfn.certify.cells"] += cert.search_log.get("cells", 0)
    counts[f"charfn.certify.{cert.verdict}"] += 1


def _triplet_params(args, kwargs):
    params = args[1] if len(args) > 1 else kwargs.get("params")
    return params if params is not None else spectral.TripletParams()


def _observe_grid(counts, trip, d, initial):
    grid_n = trip.diagnostics["grid_n"]
    doublings = int(round(math.log2(grid_n / initial)))
    counts["spectral.extractions"] += 1
    counts["spectral.grid_n_sum"] += grid_n
    counts["spectral.grid_doublings"] += doublings
    # the passes tried are initial, 2*initial, ..., grid_n: derived, not observed
    counts["spectral.grid_points_computed"] += sum((initial << j) ** d for j in range(doublings + 1))
    counts["spectral.lambdas_kept"] += len(trip.lambdas)


def _observe_lattice_triplet(counts, args, kwargs, trip):
    indices = measures.lattice_masses(args[0])
    spread = max(indices) - min(indices)
    _observe_grid(counts, trip, 1, _triplet_params(args, kwargs).initial_n(1, spread))


def _observe_multibasis_triplet(counts, args, kwargs, trip):
    law = args[0]
    d = law.basis.d
    coords = list(law.atoms)
    spread = max(max(c[j] for c in coords) - min(c[j] for c in coords) for j in range(d))
    _observe_grid(counts, trip, d, _triplet_params(args, kwargs).initial_n(d, spread))


def _observe_compound_exp(counts, args, kwargs, result):
    measure, residual = result
    counts["calculus.atoms_out"] += len(measure.atoms)
    counts["calculus.series_residual_max"] = max(counts["calculus.series_residual_max"], residual)


def _observe_triplet_of(counts, args, kwargs, result):
    counts["limits.triplets_extracted"] += 1


def _observe_load(counts, args, kwargs, result):
    counts["jsonio.parse.bytes"] += os.path.getsize(args[0])


def _observe_dumps(counts, args, kwargs, text):
    counts["jsonio.dump.bytes"] += len(text.encode())


_TO_JSON = ("law_to_json", "triplet_to_json", "certificate_to_json", "convergence_to_json",
            "relative_report_to_json", "stochastic_report_to_json", "power_result_to_json")

# (owner, attribute, span name, observer).  Each entry is a place where a caller
# looks the function up, so nested calls such as the certificate inside
# triplet_* or compound_exp inside reconstruct_law get spans of their own.
HOOKS = [
    (charfn, "certify_separation", "charfn.certify", _observe_certificate),
    (spectral, "require_separated", "charfn.certify", _observe_certificate),
    (limits, "certify_separation", "charfn.certify", _observe_certificate),
    (cli, "certify_separation", "charfn.certify", _observe_certificate),
    (charfn.TorusFunction, "eval_grid", "charfn.eval_grid", None),
    (spectral, "triplet_lattice", "spectral.triplet_lattice", _observe_lattice_triplet),
    (limits, "triplet_lattice", "spectral.triplet_lattice", _observe_lattice_triplet),
    (spectral, "triplet_multibasis", "spectral.triplet_multibasis", _observe_multibasis_triplet),
    (limits, "triplet_multibasis", "spectral.triplet_multibasis", _observe_multibasis_triplet),
    (calculus, "reconstruct_law", "calculus.reconstruct_law", None),
    (cli, "reconstruct_law", "calculus.reconstruct_law", None),
    (calculus, "compound_exp", "calculus.compound_exp", _observe_compound_exp),
    (calculus, "conv_power", "calculus.conv_power", None),
    (cli, "conv_power", "calculus.conv_power", None),
    (limits, "triplet_of", "limits.triplet_of", _observe_triplet_of),
    (cli, "triplet_of", "limits.triplet_of", _observe_triplet_of),
    (cli, "check_convergence", "limits.check_convergence", None),
    (cli, "check_relative_compactness", "limits.check_relative_compactness", None),
    (limits, "check_relative_compactness", "limits.check_relative_compactness", None),
    (cli, "check_stochastic_compactness", "limits.check_stochastic_compactness", None),
    (cli, "tv_distance", "limits.tv_distance", None),
    (jsonio, "load", "jsonio.parse", _observe_load),
    (jsonio, "law_from_json", "jsonio.parse", None),
    (jsonio, "triplet_from_json", "jsonio.parse", None),
    (jsonio, "dumps", "jsonio.dump", _observe_dumps),
    *[(jsonio, name, "jsonio.dump", None) for name in _TO_JSON],
    (cli, "main", "cli.main", None),
    (measures.DiscreteLaw, "from_pairs", "measures.construct", None),
    (measures.DiscreteLaw, "from_values", "measures.construct", None),
    (measures.DiscreteLaw, "from_lattice", "measures.construct", None),
]


class Tracer:
    """In-memory span recorder; install() patches the hooks, uninstall() restores them."""

    def __init__(self, op="setup"):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(int)
        self.op = op
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, observe in HOOKS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__, observe)))
            else:
                setattr(owner, attr, self._wrap(name, raw, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                # a re-entrant call (require_separated -> certify_separation,
                # from_lattice -> from_values -> from_pairs) stays in one span
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")


def layer_times(spans: list[list]) -> dict:
    """Busy and self seconds per span name and per layer, plus call counts.

    busy: summed span time, counting a span only when no ancestor belongs to
    the same name (or layer), so nested calls are not counted twice.
    self: span time minus the time its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: defaultdict = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".")[0]
        dur = end - start
        out[f"{layer}.self_s"] += dur - child_time[i]
        out[f"{name}.calls"] += 1
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            out[f"{name}.busy_s"] += dur
        if not any(a.split(".")[0] == layer for a in ancestors):
            out[f"{layer}.busy_s"] += dur
    return dict(out)
