"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

It checks that every workload prints every metric of ``BENCHMARK.json``
with its name and unit, that one corrupted reference cell drives
``error_rate`` above 0, and that traced and untraced passes emit identical
tables.  Exits 0 when all hold.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import tempfile

import run
import tracer as tracing
from make_reference import write_references
from workloads import REFERENCE_SEED, WORKLOADS, reference_path


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def bench(workload: str, seed: int, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"{workload}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_printed() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result = bench(name, 3, trace)
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{name}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics {got} != {want}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{name} trace={trace}: a metric value is not a number")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: checks failed on a correct program: {result}")
    print("ok: every workload prints every metric with its name and unit")


def _corrupt_first_cell(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1]
    cells = lines[body].split(",")
    for j, cell in enumerate(cells):
        try:
            v = float(cell)
        except ValueError:
            continue
        cells[j] = repr(v + 1e-9 * max(1.0, abs(v)))
        break
    lines[body] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_corrupted_cell_fails() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as ref:
        write_references(ref, "tiny")
        for name in WORKLOADS:
            clean = bench(name, REFERENCE_SEED, 1, "--reference", ref)
            expect(clean["metrics"]["error_rate"]["value"] == 0,
                   f"{name}: error_rate {clean['metrics']['error_rate']} on a clean reference")
            _corrupt_first_cell(sorted(glob.glob(reference_path(ref, name, "*")))[0])
            bad = bench(name, REFERENCE_SEED, 1, "--reference", ref)
            expect(bad["metrics"]["error_rate"]["value"] > 0 and not bad["correct"],
                   f"{name}: a corrupted reference cell went unnoticed: {bad['failed']}")
    print("ok: a corrupted reference cell drives error_rate above 0")


def check_traced_tables_identical() -> None:
    pkg = run.import_fresh()
    for name, workload in WORKLOADS.items():
        inputs = workload.prepare(3, "tiny", run.OUT_DIR)
        plain = workload.run(pkg, inputs).tables
        with tracing.Tracer() as tracer:
            traced = workload.run(pkg, inputs).tables
        expect(bool(tracer.spans), f"{name}: the tracer recorded no span")
        expect(traced == plain, f"{name}: traced tables differ from untraced")
    print("ok: traced and untraced passes emit identical tables")


def main() -> int:
    expect(run.use_checkout_package(), f"no winpca package under {run.SRC}")
    check_metrics_printed()
    check_corrupted_cell_fails()
    check_traced_tables_identical()
    return 0


if __name__ == "__main__":
    sys.exit(main())
