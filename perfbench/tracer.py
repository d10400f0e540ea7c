"""Span recorder that wraps winpca's public functions from outside the package.

The package imports functions by name across modules (``fit_pc_subspace`` is
bound in ``experiments``, ``simulate`` and ``cli``), so each wrapper is
rebound under every name that holds the original in every loaded ``winpca``
module; methods are patched on their class.  Spans carry their parent's id,
nest through a per-thread stack, stay in memory while the pass runs and are
written out once at the end.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

# Layers whose calls are traced, as (module, attribute path) under ``winpca``.
LAYERS = (
    ("cli", "read_matrix_csv"),
    ("transform", "as_data_matrix"),
    ("transform", "resolve_radius"),
    ("transform", "winsorize_dataset"),
    ("subspace", "fit_pc_subspace"),
    ("subspace", "symmetric_eigh"),
    ("subspace", "principal_angles"),
    ("distributions", "PopulationModel.draw_whitened"),
    ("simulate", "apply_contamination"),
    ("simulate", "map_replications"),
    ("bounds", "sample_winsorized_spectrum"),
    ("bounds", "wpca_breakdown_lower_bounds"),
    ("bounds", "perturbation_bound"),
    ("bounds", "estimate_winsorized_eigenvalues"),
    ("_kernels", "winsorized_term_sums"),
    ("experiments", "run_effect_of_radius"),
    ("experiments", "run_high_dim"),
    ("experiments", "run_breakdown_bounds"),
    ("experiments", "run_perturbation_sweep"),
)
# Metric names must start with a letter or digit, so ``_kernels`` reads
# ``kernels``.
LAYER_NAMES = tuple(f"{mod.lstrip('_')}.{attr}" for mod, attr in LAYERS)

FIT = "subspace.fit_pc_subspace"
EIGH = "subspace.symmetric_eigh"
WINSORIZE = "transform.winsorize_dataset"
MAP = "simulate.map_replications"
# A replication body runs code of the preset that defined it, so its self
# time is credited to that preset; the suffix marks such spans.
REP_SUFFIX = "#rep"
# Work the tracer itself does inside a traced call (the no-op check of a
# winsorize result); it covers parent time but is no layer.
TRACER_SPAN = "perfbench.tracer"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float


class Tracer:
    """Records spans for the layers in ``LAYERS`` while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.attrs: dict[int, dict] = {}
        # next() on itertools.count and list.append are single C calls, so
        # worker threads can share them under the interpreter lock.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None, sid=None):
        stack = self._stack()
        if sid is None:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((sid, name))
        t0 = perf_counter()
        try:
            return sid, fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, result = self._call(name, fn, args, kwargs)
            if name == FIT:
                self.attrs[sid] = {"shape": np.shape(args[0])}
            elif name == WINSORIZE:
                self._record_noop(sid, args[0], result)
            return result
        return traced

    def _record_noop(self, sid, X, out) -> None:
        stack = self._stack()
        t0 = perf_counter()
        X = np.asarray(X, dtype=np.float64)
        self.attrs[sid] = {"shape": X.shape, "noop": bool(np.array_equal(X, out))}
        self.spans.append(Span(next(self._ids), stack[-1][0] if stack else None,
                               TRACER_SPAN, t0, perf_counter()))

    def _wrap_map(self, fn):
        @functools.wraps(fn)
        def traced(body, count, jobs=1):
            stack = self._stack()
            owner = (stack[-1][1] if stack else "toplevel") + REP_SUFFIX
            sid = next(self._ids)

            def rep(i):
                return self._call(owner, body, (i,), {}, parent=sid)[1]

            self.attrs[sid] = {"jobs": int(jobs) if jobs and int(jobs) > 1 else 1}
            return self._call(MAP, fn, (rep, count, jobs), {}, sid=sid)[1]
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "winpca" or key.startswith("winpca."))]
        for (mod_name, attr), name in zip(LAYERS, LAYER_NAMES):
            module = sys.modules[f"winpca.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap_map(original) if name == MAP else self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, holder, key, wrapper) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as CSV: id, parent, name, start and end in seconds."""
        base = min((s.t0 for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,t0_s,t1_s\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.parent or ''},{s.name},"
                         f"{s.t0 - base:.9f},{s.t1 - base:.9f}\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_stats(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals from the recorded spans.

    For every layer: ``calls``, ``busy_s`` (summed span time) and ``self_s``
    (span time not covered by a child span, on any thread).  Replication
    bodies credit their self time to the preset that spawned them.  Adds the
    computed counts ``subspace.fit_pc_subspace.gflop_computed`` (n p^2 for a
    Gram; 6 m k^2 + 20 k^3 for the thin SVD of an m x k matrix, Golub and Van
    Loan's count with both factors), ``transform.winsorize_dataset.gb_computed``
    (16 n p bytes: read once, write once), the share of winsorize calls that
    clipped no row, and ``simulate.map_replications.utilization`` (summed
    replication time over jobs times wall time).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    child_names: dict[int, set[str]] = defaultdict(set)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
            child_names[s.parent].add(s.name)
    out = {f"{name}.{stat}": 0.0 for name in LAYER_NAMES
           for stat in ("calls", "busy_s", "self_s")}
    gflop = gb = 0.0
    noop = winsorize_calls = 0
    rep_busy = slot_time = 0.0
    for s in tracer.spans:
        if s.name == TRACER_SPAN:
            continue
        dur = s.t1 - s.t0
        self_time = dur - _covered(children.get(s.id, []), s.t0, s.t1)
        if s.name.endswith(REP_SUFFIX):
            owner = s.name[: -len(REP_SUFFIX)]
            if f"{owner}.self_s" in out:
                out[f"{owner}.self_s"] += self_time
            rep_busy += dur
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += dur
        out[f"{s.name}.self_s"] += self_time
        attrs = tracer.attrs.get(s.id, {})
        if s.name == FIT:
            n, p = attrs["shape"]
            if EIGH in child_names[s.id]:
                gflop += n * p * p / 1e9
            else:
                m, k = max(n, p), min(n, p)
                gflop += (6.0 * m * k * k + 20.0 * k ** 3) / 1e9
        elif s.name == WINSORIZE:
            n, p = attrs["shape"]
            gb += 16.0 * n * p / 1e9
            noop += attrs["noop"]
            winsorize_calls += 1
        elif s.name == MAP:
            slot_time += attrs["jobs"] * dur
    out["subspace.fit_pc_subspace.gflop_computed"] = gflop
    out["transform.winsorize_dataset.gb_computed"] = gb
    out["transform.winsorize_dataset.noop_frac"] = (
        noop / winsorize_calls if winsorize_calls else 0.0)
    out["simulate.map_replications.utilization"] = (
        rep_busy / slot_time if slot_time else 0.0)
    return out
