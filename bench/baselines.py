"""Baseline operations on documented laws, run untraced at the end of a traced run.

These are the rows of the ROADMAP baseline table, on laws fixed here so a
later change can cite them by name.  The 12-atom d=2 reconstruction (83 s
through the sparse series at the time of writing) is left out of the run
budget; its triplet, grid evaluation and certificates are kept.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from quasilevy import calculus, charfn, spectral
from quasilevy.measures import DiscreteLaw

from workloads import B2, g_law, tv

# 12 atoms on (1, sqrt 2): mass 0.7 at the origin, 0.3 spread over 11 points of the
# box [-2, 2]^2 with weights 11, 10, ..., 1 (normalised).
TWELVE_COORDS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (2, 0), (0, 2), (1, -2), (-2, 1), (2, 2)]
TWELVE_LAW = DiscreteLaw.from_pairs(
    B2, [((0, 0), 0.7)] + [(c, 0.3 * (11 - i) / 66) for i, c in enumerate(TWELVE_COORDS)]
)
# five atoms on the integer lattice
LATTICE5_LAW = DiscreteLaw.from_lattice({0: 0.6, 1: 0.15, 3: 0.1, 4: 0.1, 7: 0.05})


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_baselines() -> dict:
    out = {}
    phi = charfn.TorusFunction(TWELVE_LAW)
    axis = 2.0 * math.pi * np.arange(1024) / 1024
    out["baseline.eval_grid_1024.ms"] = _median_ms(lambda: phi.eval_grid([axis, axis]), 3)

    params = spectral.TripletParams(n_init=1024)
    trips = []
    out["baseline.triplet_multibasis_1024.ms"] = _median_ms(
        lambda: trips.append(spectral.triplet_multibasis(TWELVE_LAW, params)), 3
    )
    out["baseline.triplet_multibasis_1024.grid_n"] = trips[-1].diagnostics["grid_n"]
    out["baseline.triplet_multibasis_1024.lambdas"] = len(trips[-1].lambdas)

    for gap in (0.9, 0.99, 0.999):
        t0 = perf_counter()
        cert = charfn.certify_separation(TWELVE_LAW, charfn.SeparationParams(target_gap=gap))
        out[f"baseline.certify_d2_gap{gap}.ms"] = 1e3 * (perf_counter() - t0)
        out[f"baseline.certify_d2_gap{gap}.cells"] = cert.search_log["cells"]

    for gap in (0.99, 0.9999):
        cert = charfn.certify_separation(g_law(200), charfn.SeparationParams(target_gap=gap))
        out[f"baseline.certify_g200_gap{gap}.cells"] = cert.search_log["cells"]

    results = []

    def lattice5():
        trip = spectral.triplet_lattice(LATTICE5_LAW)
        results.append(calculus.reconstruct_law(trip)[0])

    out["baseline.lattice5_roundtrip.ms"] = _median_ms(lattice5, 5)
    out["baseline.lattice5_roundtrip.tv"] = tv(results[-1].atoms, LATTICE5_LAW.atoms)
    return out


BASELINE_METRICS = [
    ("baseline.eval_grid_1024.ms", "ms"),
    ("baseline.triplet_multibasis_1024.ms", "ms"),
    ("baseline.triplet_multibasis_1024.grid_n", "count"),
    ("baseline.triplet_multibasis_1024.lambdas", "count"),
    *[(f"baseline.certify_d2_gap{g}.{m}", u) for g in (0.9, 0.99, 0.999) for m, u in (("ms", "ms"), ("cells", "count"))],
    ("baseline.certify_g200_gap0.99.cells", "count"),
    ("baseline.certify_g200_gap0.9999.cells", "count"),
    ("baseline.lattice5_roundtrip.ms", "ms"),
    ("baseline.lattice5_roundtrip.tv", "ratio"),
]
