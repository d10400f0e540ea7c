"""Benchmark of the winpca package: four workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload radius_sweep --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout.  A run sets up at
least three times and for at least two seconds (fresh import of ``winpca``,
inputs made from ``--seed``, one tiny warm-up pass) and reports the median
set-up time.  It then repeats the workload's pass, at least once, while the
next pass is due to end within ``--seconds``, and reports medians over the
passes.  Every pass's output is checked; at the reference seed every table
cell is also compared with the tables in ``perfbench/reference``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds traced
passes after the untraced ones, prints the per-layer metrics of the traced
passes (per pass), and writes their spans to ``perfbench/out``.  The last
line of standard output is the result object; the line before it stamps the
environment.  BLAS and OpenMP thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from time import perf_counter, process_time

import numpy as np

import tracer as tracing
from workloads import REFERENCE_SEED, WORKLOADS, Checker, compare_tables, reference_path

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
# A run sets up at least SETUPS times, and again until SETUP_SECONDS have
# gone by; the median is setup_s.  The grid workloads set up in a tenth of a
# second, so they repeat it more often to steady the median.
SETUPS = 3
SETUP_SECONDS = 2.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "cpu_s": "s",
    "solves_per_s": "1/s", "csv_mb_per_s": "MB/s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "simulate.map_replications.utilization": "ratio",
        "subspace.fit_pc_subspace.gflop_computed": "GFLOP",
        "transform.winsorize_dataset.gb_computed": "GB",
        "transform.winsorize_dataset.noop_frac": "ratio",
        "transform.as_data_matrix.calls_per_solve": "calls/solve",
        "trace_overhead_frac": "ratio",
        "error_rate": "ratio",
    })
    return units


def use_checkout_package() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    if not os.path.isfile(os.path.join(SRC, "winpca", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # The compiled kernels are optional in the package; measure the numpy ones.
    os.environ["WINPCA_NO_NUMBA"] = "1"
    os.makedirs(OUT_DIR, exist_ok=True)
    return True


def import_fresh() -> types.SimpleNamespace:
    """Import winpca anew, dropping modules a previous set-up loaded."""
    for key in [k for k in sys.modules if k == "winpca" or k.startswith("winpca.")]:
        del sys.modules[key]
    modules = {m: importlib.import_module(f"winpca.{m}")
               for m in ("experiments", "bounds", "distributions", "cli")}
    return types.SimpleNamespace(root=importlib.import_module("winpca"), **modules)


def _openblas():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*.so*"))
    return ctypes.CDLL(libs[0]) if libs else None


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(pkg, seed: int) -> dict:
    lib = _openblas()
    threads = config = None
    if lib is not None:
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config = lib.scipy_openblas_get_config64_
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        threads, config = get_threads(), get_config().decode()
    return {
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
        "using_numba": pkg.root.using_numba(),
    }


def timed_passes(workload, pkg, inputs, seconds: float):
    """Run passes, at least one, while the next is due to end within ``seconds``.

    Returns (wall, cpu, output) of each pass.
    """
    passes = []
    start = perf_counter()
    while True:
        t0, c0 = perf_counter(), process_time()
        out = workload.run(pkg, inputs)
        passes.append((perf_counter() - t0, process_time() - c0, out))
        due = statistics.median(w for w, _, _ in passes)
        if perf_counter() - start + due > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs small inputs, for the self-test")
    parser.add_argument("--reference", default=None,
                        help="directory of reference tables (default: the stored "
                             "ones, for the full size)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not use_checkout_package():
        print(f"error: no winpca package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = args.reference or (REFERENCE_DIR if args.size == "full" else None)

    setups = []
    while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
        t0 = perf_counter()
        pkg = import_fresh()
        inputs = workload.prepare(args.seed, args.size, OUT_DIR)
        workload.run(pkg, workload.prepare(args.seed, "warmup", OUT_DIR))
        setups.append(perf_counter() - t0)

    checker = Checker()
    # A traced run splits its time between untraced and traced passes.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_passes(workload, pkg, inputs, seconds)
    outputs = [out for _, _, out in untraced]
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = timed_passes(workload, pkg, inputs, seconds)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.csv"))
        for _, _, out in traced:
            for name, text in out.tables.items():
                checker.check(text == outputs[0].tables[name],
                              f"{name}: traced pass output differs from untraced")
        outputs += [out for _, _, out in traced]
    for out in outputs:
        workload.check(checker, inputs, out)
        if reference is not None and args.seed == REFERENCE_SEED:
            for name, text in out.tables.items():
                with open(reference_path(reference, workload.name, name),
                          encoding="utf-8") as fh:
                    compare_tables(checker, name, text, fh.read())

    wall = statistics.median(w for w, _, _ in untraced)
    first = untraced[0][2]
    if args.trace:
        n = len(traced)
        stats = tracing.layer_stats(tracer)
        metrics = {k: v / n if k.endswith(("calls", "_s", "_computed")) else v
                   for k, v in stats.items()}
        metrics["transform.as_data_matrix.calls_per_solve"] = (
            metrics["transform.as_data_matrix.calls"] / first.solves)
        metrics["trace_overhead_frac"] = (
            statistics.median(w for w, _, _ in traced) / wall - 1.0)
        metrics["error_rate"] = checker.failed / checker.attempted
        units = per_layer_units()
        shares = sorted(((metrics[f"{k}.self_s"], k) for k in tracing.LAYER_NAMES),
                        reverse=True)
        total = sum(s for s, _ in shares)
        for self_s, name in shares:
            if self_s > 0:
                print(f"self_s {self_s:10.4f}  {100 * self_s / total:5.1f}%  {name}")
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cpu_s": statistics.median(c for _, c, _ in untraced),
            "solves_per_s": first.solves / wall,
            "csv_mb_per_s": first.csv_bytes / 1e6 / wall,
        }
        units = END_TO_END_UNITS
    for message in checker.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": environment(pkg, args.seed), "workload": workload.name,
                      "size": args.size,
                      "pass_wall_s": [w for w, _, _ in untraced],
                      "traced_pass_wall_s": [w for w, _, _ in traced],
                      "setup_s": setups}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
