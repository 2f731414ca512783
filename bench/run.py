"""quasilevy benchmark: seeded closed-loop workloads, checked outputs, per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload lattice_roundtrip --seed 1 --seconds 22 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed list of
operations untraced and then traced (twice, to assert that the counts
repeat), and prints the per-layer metrics, the tracing overhead and the
baseline operations.  See README.md for what each metric measures.  The last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics"; the line before it is a
JSON report with the environment and the detail behind the metrics.
"""

import os
import sys
import time

T_START = time.perf_counter()

# BLAS and OpenMP pools are pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("lattice_roundtrip", "planar_roundtrip", "separation_certify", "family_cli")
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
COLD_START_REPEATS = 15
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


ARGS = parse_args(sys.argv[1:])
if not os.path.isfile(os.path.join(SRC, "quasilevy", "__init__.py")):
    sys.exit(f"bench: no quasilevy sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import quasilevy  # noqa: E402
from baselines import BASELINE_METRICS, run_baselines  # noqa: E402
from tracing import LAYERS, Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, run_cli  # noqa: E402

IMPORT_S = perf_counter() - T_START
if not os.path.abspath(quasilevy.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: imported quasilevy from {quasilevy.__file__}, not from {SRC}")

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cli_cold_start_ms", "ms"),
]

PER_LAYER = [
    *[(f"{layer}.{kind}", "s") for layer in LAYERS for kind in ("busy_s", "self_s")],
    ("charfn.certify.calls", "count"),
    ("charfn.certify.busy_s", "s"),
    ("charfn.certify.cells", "count"),
    ("charfn.certify.cells_per_s", "1/s"),
    ("charfn.certify.certified", "count"),
    ("charfn.certify.zero_found", "count"),
    ("charfn.certify.undecided", "count"),
    ("charfn.eval_grid.calls", "count"),
    ("charfn.eval_grid.busy_s", "s"),
    ("spectral.triplet_lattice.calls", "count"),
    ("spectral.triplet_lattice.busy_s", "s"),
    ("spectral.triplet_multibasis.calls", "count"),
    ("spectral.triplet_multibasis.busy_s", "s"),
    ("spectral.grid_n", "points"),
    ("spectral.grid_doublings", "count"),
    ("spectral.grid_points_computed", "count"),
    ("spectral.lambdas_kept", "count"),
    ("calculus.reconstruct_law.calls", "count"),
    ("calculus.reconstruct_law.busy_s", "s"),
    ("calculus.compound_exp.calls", "count"),
    ("calculus.compound_exp.busy_s", "s"),
    ("calculus.conv_power.calls", "count"),
    ("calculus.conv_power.busy_s", "s"),
    ("calculus.atoms_out", "count"),
    ("calculus.series_residual_max", "ratio"),
    ("limits.check_convergence.busy_s", "s"),
    ("limits.check_relative_compactness.busy_s", "s"),
    ("limits.check_stochastic_compactness.busy_s", "s"),
    ("limits.triplets_extracted", "count"),
    ("jsonio.parse.busy_s", "s"),
    ("jsonio.parse.bytes", "bytes"),
    ("jsonio.dump.busy_s", "s"),
    ("jsonio.dump.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("measures.construct.calls", "count"),
    ("measures.construct.busy_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    *BASELINE_METRICS,
]


def environment() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cache_bytes": {name: getconf(name) for name in
                        ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")},
    }


def set_up(workload, seed: int, workdir: str):
    """Generate the inputs, write their files and run the warm-up operations."""
    cycles, warmup = workload.build(np.random.default_rng(seed), workdir)
    for op in warmup:
        op.check(op.run())
    return cycles


def keep_inputs_out_of_gc() -> None:
    """Move the inputs, live for the whole run, out of the collector's reach.

    A program call does not carry thousands of generated laws in its heap;
    left in, they make each full collection inside an operation cost tens of
    milliseconds, which then sets the latency tail.
    """
    gc.collect()
    gc.freeze()


def run_op(op, stats: dict) -> float:
    """Run one operation, then check it outside its latency; returns the latency."""
    t0 = perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # an operation that raises is counted as failed
        error = f"{op.kind}: {type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if error is None:
        c0 = perf_counter()
        try:
            op.check(out)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # a check that breaks on the output counts as failed too
            error = f"{op.kind} check: {type(exc).__name__}: {exc}"
        stats["check_s"] += perf_counter() - c0
    stats["attempted"] += 1
    if error is not None:
        stats["failed"] += 1
        stats["errors"].append(error)
    return latency


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "check_s": 0.0, "errors": []}


def timed_loop(cycles, seconds: float, side_tasks):
    """Closed loop, one client: start no operation after `seconds` of loop time.

    The side tasks (set-up repeats, CLI cold starts) run at evenly spaced
    points of the loop, outside its time, so that their samples spread
    over the run rather than over one slow or fast stretch of the machine.
    """
    ops = [op for cycle in cycles for op in cycle]
    stats = new_stats()
    latencies = []
    paused = 0.0
    schedule = [(seconds * (j + 1) / (len(side_tasks) + 1), task) for j, task in enumerate(side_tasks)]
    t0 = perf_counter()
    for due, task in schedule + [(seconds, None)]:
        while perf_counter() - t0 - paused < due:
            latencies.append(run_op(ops[len(latencies) % len(ops)], stats))
        if task is not None:
            p0 = perf_counter()
            task()
            paused += perf_counter() - p0
    stats["window_s"] = perf_counter() - t0 - paused
    return latencies, stats


COLD_LAW = {"basis": [1], "atoms": [{"coords": [0], "mass": 0.8}, {"coords": [1], "mass": 0.2}]}


def cli_cold_start(workdir: str, times: list, errors: list) -> None:
    """One wall time of `python -m quasilevy.cli triplet` on a small file, in a subprocess."""
    law = os.path.join(workdir, "cold-law.json")
    out = os.path.join(workdir, "cold-triplet.json")
    with open(law, "w") as fh:
        json.dump(COLD_LAW, fh)
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "quasilevy.cli", "triplet", law, "--out", out],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=workdir,
                          capture_output=True, text=True, timeout=120)
    times.append(perf_counter() - t0)
    if proc.returncode != 0:
        errors.append(f"cold start exit {proc.returncode}: {proc.stderr[-200:]}")
        return
    with open(out) as fh:
        if not isinstance(json.load(fh).get("lambdas"), list):
            errors.append("cold start: triplet output has no lambdas")


# The imports at the top of this file, timed in a fresh interpreter.
IMPORT_CHILD = ("import time\nt0 = time.perf_counter()\n"
                "import numpy, quasilevy, baselines, tracing, workloads\n"
                "print(time.perf_counter() - t0)")


def import_time(times: list, errors: list) -> None:
    """One sample of this process's import time, taken in a subprocess.

    The process's own import happens once; a median over fresh
    interpreters spread through the run is steadier on a shared machine.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, BENCH_DIR))),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        errors.append(f"import sample exit {proc.returncode}: {proc.stderr[-200:]}")
        return
    times.append(float(proc.stdout.strip().splitlines()[-1]))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, workdir):
    setup_times, import_times, cold, side_errors = [], [], [], []

    def timed_set_up():
        gc.collect()  # each set-up starts from the same heap, not from the last one's garbage
        t0 = perf_counter()
        cycles = set_up(workload, ARGS.seed, workdir)
        setup_times.append(perf_counter() - t0)
        return cycles

    cycles = timed_set_up()
    keep_inputs_out_of_gc()
    side = [lambda: cli_cold_start(workdir, cold, side_errors)] * COLD_START_REPEATS
    for j in range(SETUP_REPEATS - 1):
        side.insert(2 * j + 1, timed_set_up)
    for j in range(IMPORT_REPEATS):
        side.insert(3 * j + 2, lambda: import_time(import_times, side_errors))
    latencies, stats = timed_loop(cycles, ARGS.seconds, side)

    ordered = sorted(latencies, reverse=True)
    n = len(latencies)
    verified = stats["attempted"] - stats["failed"]
    metrics = {
        "ops_per_s": metric(verified / sum(latencies), "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "setup_s": metric(statistics.median(import_times) + statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_cold_start_ms": metric(1e3 * statistics.median(cold), "ms"),
    }
    tail = None
    if n > TAIL_BEYOND:
        metrics["latency_tail_ms"] = metric(1e3 * ordered[TAIL_BEYOND], "ms")
        tail = {"percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n, "beyond": TAIL_BEYOND}
    stats["errors"] += side_errors
    report = {
        "window_s": stats["window_s"],
        "check_s": stats["check_s"],
        "failed_ratio": stats["failed"] / stats["attempted"],
        "latency_tail": tail,
        "import_s": IMPORT_S,
        "import_runs_s": import_times,
        "setup_runs_s": setup_times,
        "cli_cold_start_runs_ms": [1e3 * t for t in cold],
    }
    return stats, metrics, report


def timed_pass(ops, stats, tracer=None) -> float:
    total = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        total += run_op(op, stats)
    return total


PROBE_LAWS = {
    "lattice": {"basis": [1], "atoms": [{"coords": [0], "mass": 0.7}, {"coords": [1], "mass": 0.2},
                                        {"coords": [3], "mass": 0.1}]},
    "planar": {"basis": [1, 2 ** 0.5], "atoms": [{"coords": [0, 0], "mass": 0.8},
                                                 {"coords": [1, 0], "mass": 0.1},
                                                 {"coords": [0, 1], "mass": 0.1}]},
}


def probe_every_layer(workdir: str) -> list[str]:
    """Six small CLI calls that reach every traced function once.

    They are traced apart from the workload, so that a layer the workload
    does not use reads a small measured time rather than a constant zero.
    """
    path = {name: os.path.join(workdir, f"probe-{name}.json") for name in
            ("lattice", "planar", "triplet", "out")}
    for name, doc in PROBE_LAWS.items():
        with open(path[name], "w") as fh:
            json.dump(doc, fh)
    lattice = path["lattice"]
    commands = [
        ["triplet", path["planar"], "--n-init", "64", "--out", path["out"]],
        ["triplet", lattice, "--out", path["triplet"]],
        ["reconstruct", path["triplet"], "--out", path["out"]],
        ["power", path["triplet"], "--s", "1/2", "--out", path["out"]],
        ["converge-check", "--limit", lattice, lattice, lattice, "--out", path["out"]],
        ["stoch-check", lattice, lattice, lattice, "--out", path["out"]],
    ]
    errors = []
    for argv in commands:
        code, err = run_cli(argv)
        if code != 0:
            errors.append(f"probe {argv[0]}: exit {code}: {err[-200:]}")
    return errors


def layer_values(tracer) -> dict:
    """Per-layer metric values from one tracer's spans and counts."""
    values = layer_times(tracer.spans)
    values.update(tracer.counts)
    extractions = values.get("spectral.extractions", 0)
    values["spectral.grid_n"] = values.get("spectral.grid_n_sum", 0) / extractions if extractions else 0
    busy = values.get("charfn.certify.busy_s", 0)
    values["charfn.certify.cells_per_s"] = values.get("charfn.certify.cells", 0) / busy if busy else 0
    return values


def traced(tracer, fn):
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def per_layer(workload, workdir):
    """The fixed op list untraced (twice, the first to warm up), then set-up and op list
    traced and the probe traced apart from them, twice, to compare counts."""
    stats = new_stats()
    ops = [op for cycle in set_up(workload, ARGS.seed, workdir)[: workload.trace_cycles] for op in cycle]
    keep_inputs_out_of_gc()
    timed_pass(ops, stats)  # warms numpy's FFT plan cache and the allocator, as the traced passes find them
    untraced_s = timed_pass(ops, stats)

    def workload_pass(tracer):
        cycles = set_up(workload, ARGS.seed, workdir)
        ops = [op for cycle in cycles[: workload.trace_cycles] for op in cycle]
        keep_inputs_out_of_gc()
        return timed_pass(ops, stats, tracer), len(ops)

    runs = []
    for _ in range(2):
        tracer, probe = Tracer(), Tracer(op="probe")
        traced_s, n_ops = traced(tracer, lambda: workload_pass(tracer))
        stats["errors"] += traced(probe, lambda: probe_every_layer(workdir))
        runs.append((tracer, probe, traced_s))
    (tracer, probe, traced_s), (again, probe_again, _) = runs
    for label, first, second in (("traced", tracer, again), ("probe", probe, probe_again)):
        if dict(first.counts) != dict(second.counts):
            stats["errors"].append(f"{label} counts differ between two runs with seed {ARGS.seed}: "
                                   f"{dict(first.counts)} vs {dict(second.counts)}")
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{ARGS.seed}.jsonl"))
    probe.write(os.path.join(OUT_DIR, f"probe-{workload.name}-seed{ARGS.seed}.jsonl"))

    # A metric the workload's own spans leave at 0 (a layer it does not reach)
    # reads the probe's figure instead, so no time is a constant zero.
    own, probed = layer_values(tracer), layer_values(probe)
    values, from_probe = {}, []
    for name, _ in PER_LAYER:
        values[name] = own.get(name, 0)
        if not values[name] and probed.get(name, 0):
            values[name] = probed[name]
            from_probe.append(name)
    values.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    })
    baselines = run_baselines()
    values.update(baselines)
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    report = {"ops": n_ops, "spans": len(tracer.spans), "probe_spans": len(probe.spans),
              "from_probe": from_probe, "check_s": stats["check_s"], "baselines": baselines}
    return stats, metrics, report


def main() -> int:
    workload = WORKLOADS[ARGS.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        stats, metrics, report = (per_layer if ARGS.trace else end_to_end)(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": workload.name, "why": workload.why, "seed": ARGS.seed,
              "seconds": ARGS.seconds, "trace": ARGS.trace, "environment": environment(),
              "errors": stats["errors"][:20], **report}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not stats["errors"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
