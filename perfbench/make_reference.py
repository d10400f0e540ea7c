"""Write every workload's output tables at the reference seed.

Run from the root of a checkout to regenerate the stored tables, which runs
every workload once at full size::

    python3 perfbench/make_reference.py

The stored tables are the gate for changes that must reproduce the same
numbers: a run at the reference seed compares every cell with them.
"""

from __future__ import annotations

import os

import run
from workloads import REFERENCE_SEED, WORKLOADS, reference_path


def write_references(directory: str, size: str = "full") -> None:
    if not run.use_checkout_package():
        raise SystemExit(f"error: no winpca package under {run.SRC}")
    os.makedirs(directory, exist_ok=True)
    pkg = run.import_fresh()
    for name, workload in WORKLOADS.items():
        inputs = workload.prepare(REFERENCE_SEED, size, run.OUT_DIR)
        for table, text in workload.run(pkg, inputs).tables.items():
            with open(reference_path(directory, name, table), "w", encoding="utf-8") as fh:
                fh.write(text)


if __name__ == "__main__":
    write_references(run.REFERENCE_DIR)
