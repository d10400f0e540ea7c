"""Radius paths spread their eigensolves over the CPUs, with the same bytes.

``_kernels.thread_map`` is checked directly: input order, the caller's
share of the items, serial nested maps, the exception a serial loop
would raise, no item started after the caller is interrupted, helpers of
its own in a forked child, maps in an exit handler, and no helpers left
behind by a fresh import.  ``fit_pc_path`` and ``winpca experiment`` give
the same bytes with the worker count forced to 1, 2 and 3 and in a child
process held to one CPU, and each distinct matrix of a path is solved once.
"""

import gc
import hashlib
import importlib
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import types
import weakref

import numpy as np
import pytest

import winpca
from winpca import _kernels, subspace
from winpca._kernels import thread_map, unit_rows
from winpca.cli import main
from winpca.distributions import PopulationModel, make_rng
from winpca.experiments import _path_sines
from winpca.simulate import apply_contamination, map_replications
from winpca.subspace import (
    fit_pc_path,
    fit_pc_subspace,
    principal_angles,
    winsorized_second_moments,
)
from winpca.transform import RadiusSpec, row_norms

from oracles import assert_sound_records

WORKERS = (1, 2, 3)


@pytest.fixture
def force_cpus(monkeypatch):
    """Sets the CPU count that thread_map reads."""
    return lambda n: monkeypatch.setattr(_kernels, "_usable_cpus", lambda: n)


@pytest.fixture
def solves(monkeypatch):
    """Wraps the eigensolver of the fits; lists the thread of every call."""
    seen = []
    real = subspace.top_eigh

    def recorded(S, k):
        seen.append(threading.get_ident())
        return real(S, k)

    monkeypatch.setattr(subspace, "top_eigh", recorded)
    return seen


def path_data(p=subspace._THREADED_MIN_P):
    """A 160 x p heavy-tailed sample and 13 radii: eight inside its norm
    range, three at or above its largest norm, a repeat, and +inf.  Paths
    of p columns spread over the CPUs by default."""
    X = PopulationModel.student_t(np.linspace(6.0, 1.0, p), 3.0).draw(160, make_rng(5))
    norms = row_norms(X)
    inner = list(np.quantile(norms, np.linspace(0.1, 0.9, 8)))
    top = float(norms.max())
    return X, [*inner[:4], math.inf, top, *inner[4:], 2.0 * top, inner[2], 1e300]


def low_path_data():
    """path_data's sample, a path of three of its inner radii, +inf and four
    radii below its smallest norm, unsorted, and those four low radii."""
    X, radii = path_data()
    least = float(row_norms(X).min())
    low = [0.5 * least, 0.99 * least, 1e-3 * least, 0.2 * least]
    return X, [low[0], radii[0], low[1], math.inf, low[2], radii[1], low[3], radii[2]], low


def fit_bytes(fit) -> bytes:
    return b"".join([fit.eigenvalues.tobytes(), fit.eigenvectors.tobytes(),
                     fit.basis.tobytes(), repr((fit.radius, fit.degenerate_gap)).encode()])


def path_digest() -> str:
    fits = [f for X, radii, *_ in (path_data(), low_path_data())
            for f in fit_pc_path(X, 2, radii)]
    # Key 0 alone: the spherical fit, and a fit at one radius below every norm.
    X, _, low = low_path_data()
    fits += [fit_pc_subspace(X, 2, spec) for spec in (RadiusSpec.spherical(),
                                                      RadiusSpec.fixed(low[2]))]
    # One replication's batch: two datasets whose solves share one map.
    _, radii, _ = low_path_data()
    sines = _path_sines(batch_data(), 2, radii, np.eye(X.shape[1], 2))
    return hashlib.sha256(b"".join(fit_bytes(f) for f in fits) + sines.tobytes()).hexdigest()


def batch_data():
    """path_data's sample and a copy with three rows far out, as a generator."""
    X, _ = path_data()
    yield X
    yield apply_contamination(X, 3, np.full(X.shape[1], 1e3))


def _experiment(capsys, *argv) -> list[str]:
    assert main(["experiment", *argv]) == 0
    return [l for l in capsys.readouterr().out.splitlines() if not l.startswith("# timestamp=")]


def _child_env() -> dict:
    """This environment with this package and these tests first on the path."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(winpca.__file__))
    tests = os.path.dirname(__file__)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, tests] + ([old] if old else []))
    return env


def _child(*argv) -> list[str]:
    """Run ``argv`` through a Python child held to one CPU; its stdout lines."""
    code = ("import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from winpca import _kernels\n"
            "assert _kernels._usable_cpus() == 1\n" + argv[0])
    proc = subprocess.run([sys.executable, "-c", code, *argv[1:]], env=_child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [l for l in proc.stdout.splitlines() if not l.startswith("# timestamp=")]


_EXPERIMENTS = (("fig1", "--scale", "0.05"),
                ("fig2", "--scale", "0.02", "--replications", "2"),
                ("fig2", "--scale", "0.02", "--replications", "2", "--jobs", "2"))


class TestThreadMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_come_back_in_input_order(self, workers):
        assert thread_map(lambda x: x * x, range(100), workers) == [x * x for x in range(100)]
        assert thread_map(lambda x: x, [], workers) == []

    def test_caller_takes_a_share(self):
        # Each item waits until three threads hold one, so the three items
        # run on three threads: the caller and two helpers.
        barrier = threading.Barrier(3, timeout=10)

        def item(_):
            barrier.wait()
            return threading.get_ident()

        idents = thread_map(item, range(3), 3)
        assert len(set(idents)) == 3
        assert threading.get_ident() in idents

    def test_defaults_to_the_usable_cpus(self, force_cpus):
        force_cpus(2)
        barrier = threading.Barrier(2, timeout=10)
        idents = thread_map(lambda _: (barrier.wait(), threading.get_ident())[1], range(2))
        assert len(set(idents)) == 2

    def test_nested_maps_run_serially(self, force_cpus):
        force_cpus(4)

        def outer(_):
            # Each inner item sleeps, so idle threads would take some.
            inner = thread_map(lambda j: (time.sleep(0.002), threading.get_ident())[1],
                               range(6))
            return threading.get_ident(), set(inner)

        for me, inner in thread_map(outer, range(8), 2):
            assert inner == {me}

    def test_many_items_on_more_threads_than_cpus(self):
        # Every item runs once and lands in its slot, with thread switches
        # forced as often as the interpreter allows.
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = thread_map(lambda x: calls.append(x) or -x, range(3000), 8)
        finally:
            sys.setswitchinterval(interval)
        assert out == [-x for x in range(3000)]
        assert sorted(calls) == list(range(3000))

    @pytest.mark.parametrize("workers", WORKERS)
    def test_raises_the_first_failure_in_input_order(self, workers):
        # With threads, item 3 fails only after item 7 has failed.
        made = {i: ValueError(i) for i in (3, 7)}
        seven_failed = threading.Event()

        def item(i):
            if i == 3 and workers > 1:
                assert seven_failed.wait(10)
            if i == 7:
                seven_failed.set()
            if i in made:
                raise made[i]
            return i

        with pytest.raises(ValueError) as info:
            thread_map(item, range(10), workers)
        assert info.value is made[3]


    def test_no_item_starts_once_the_caller_is_interrupted(self, monkeypatch):
        # The caller's second draw of an index raises KeyboardInterrupt
        # outside any item; the helper must not run the items left.
        caller = threading.get_ident()
        real = itertools.count

        class Interrupting:
            def __init__(self):
                self.indices, self.draws = real(), 0

            def __next__(self):
                if threading.get_ident() == caller:
                    self.draws += 1
                    if self.draws == 2:
                        raise KeyboardInterrupt
                return next(self.indices)

        monkeypatch.setattr(_kernels, "itertools", types.SimpleNamespace(count=Interrupting))
        started, late, gone = [], [], threading.Event()

        def item(i):
            (late if gone.is_set() else started).append(i)
            if threading.get_ident() != caller:
                time.sleep(0.005)

        with pytest.raises(KeyboardInterrupt):
            thread_map(item, range(40), 2)
        gone.set()
        time.sleep(0.1)  # room for 20 more helper items
        assert len(started) <= 3 and late == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_forked_child_starts_its_own_helpers(self):
        # The parent's helpers are not copied into the child; a map there
        # whose two items wait for each other needs a helper of its own.
        thread_map(abs, range(4), 3)
        barrier = threading.Barrier(2, timeout=10)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                idents = thread_map(lambda _: (barrier.wait(), threading.get_ident())[1],
                                    range(2), 2)
                code = 0 if len(set(idents)) == 2 else 3
            finally:
                os._exit(code)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0

    def test_runs_in_an_exit_handler(self):
        # The standard library's pool takes no jobs once the interpreter
        # has begun to exit; the caller then runs every item itself.
        code = ("import atexit\n"
                "from winpca._kernels import thread_map\n"
                "atexit.register(lambda: print(thread_map(abs, range(-3, 3), 3)))\n"
                "thread_map(abs, range(3), 3)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.stdout, proc.stderr) == ("[3, 2, 1, 0, 1, 2]\n", "")

    def test_fresh_imports_leave_no_helpers_behind(self):
        # Each fresh import of the package gets its own helpers; once the
        # old modules are collected, only the last import's two are alive.
        def package():
            return [k for k in sys.modules if k == "winpca" or k.startswith("winpca.")]

        def helpers():
            return {t for t in threading.enumerate() if t.name.startswith("winpca-helper")}

        before = helpers()
        saved = {k: sys.modules[k] for k in package()}
        try:
            for _ in range(4):
                for key in package():
                    del sys.modules[key]
                fresh = importlib.import_module("winpca._kernels")
                assert fresh is not _kernels
                assert fresh.thread_map(abs, range(-3, 3), 3) == [3, 2, 1, 0, 1, 2]
            del fresh
        finally:
            for key in package():
                del sys.modules[key]
            sys.modules.update(saved)
        gc.collect()
        deadline = time.monotonic() + 10
        while len(helpers() - before) > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(helpers() - before) <= 2


class TestPathFanOut:
    def test_same_bytes_for_every_worker_count(self, force_cpus):
        digests = set()
        for workers in WORKERS:
            force_cpus(workers)
            digests.add(path_digest())
        assert len(digests) == 1

    def test_each_distinct_matrix_is_solved_once(self, solves):
        X, radii = path_data()
        fits = fit_pc_path(X, 2, radii)
        # Eight inner radii and their repeat take eight matrices; the three
        # radii at or above the largest norm and +inf share the raw Gram.
        assert len(solves) == 9
        # Every fit holds the bits of its own matrix solved alone.
        for fit, S in zip(fits, winsorized_second_moments(X, radii)):
            w, V = _kernels.top_eigh(S, 3)
            assert fit.eigenvalues.tobytes() == w.tobytes()
            assert fit.eigenvectors.tobytes() == V.tobytes()
        assert [f.radius for f in fits].count(math.inf) == 1
        assert_sound_records(fits)

    def test_radii_that_clip_every_row_share_one_solve(self, solves):
        X, radii, low = low_path_data()
        fits = fit_pc_path(X, 2, radii)
        # Three inner radii, +inf, and one matrix for the four low radii.
        assert len(solves) == 5
        # Every low radius holds the eigenvectors of key 0, the unit rows'
        # Gram over n summed in the segments of this path, and its
        # eigenvalues times r^2.
        key0 = subspace._second_moments(X, np.array([0.0, *radii]))[0]
        w, V = _kernels.top_eigh(key0, 3)
        for r in low:
            fit = fits[radii.index(r)]
            assert fit.eigenvectors.tobytes() == V.tobytes()
            assert fit.eigenvalues.tobytes() == (w * r ** 2).tobytes()
        assert_sound_records(fits)

    def test_a_zero_row_disables_sharing(self, solves):
        X, _, low = low_path_data()
        X[0] = 0.0
        fit_pc_path(X, 2, low)
        assert len(solves) == 4

    def test_thin_svd_route_shares_one_solve_below_the_smallest_norm(self, monkeypatch):
        X = PopulationModel.gaussian(np.linspace(5.0, 1.0, 20)).draw(6, make_rng(8))
        norms = np.sort(row_norms(X))
        low = [0.5 * norms[0], 0.99 * norms[0], 1e-3 * norms[0], 0.2 * norms[0]]
        radii = [low[0], norms[2], low[1], math.inf, low[2], norms[4], low[3]]
        calls = []
        real = subspace._thin_svd_spectrum
        monkeypatch.setattr(subspace, "_thin_svd_spectrum",
                            lambda W: calls.append(1) or real(W))
        fits = fit_pc_path(X, 2, radii)
        assert len(calls) == 4
        # Key 0 is the thin SVD of the unit rows.
        w, V = real(unit_rows(X, row_norms(X)))
        for r in low:
            fit = fits[radii.index(r)]
            assert fit.eigenvectors.tobytes() == V.tobytes()
            assert fit.eigenvalues.tobytes() == (w * r ** 2).tobytes()
        assert_sound_records(fits)

    def test_thin_svd_route_solves_each_distinct_matrix_once(self, monkeypatch):
        X = PopulationModel.gaussian(np.linspace(5.0, 1.0, 20)).draw(6, make_rng(8))
        norms = np.sort(row_norms(X))
        radii = [norms[1], math.inf, norms[-1], norms[3], 3.0 * norms[-1], norms[1]]
        calls = []
        real = subspace._thin_svd_spectrum
        monkeypatch.setattr(subspace, "_thin_svd_spectrum",
                            lambda W: calls.append(1) or real(W))
        fits = fit_pc_path(X, 2, radii)
        assert len(calls) == 3
        for fit, r in zip(fits, radii):
            assert fit_bytes(fit) == fit_bytes(fit_pc_path(X, 2, [r])[0])
        assert_sound_records(fits)

    def test_worker_exception_comes_out_unchanged(self, force_cpus, monkeypatch):
        force_cpus(3)
        boom = np.linalg.LinAlgError("dsyevr failed (info=1, 0 of 3 eigenpairs)")
        lock, calls = threading.Lock(), []
        real = subspace.top_eigh

        def failing(S, k):
            with lock:
                calls.append(1)
                fail = len(calls) == 4
            if fail:
                raise boom
            return real(S, k)

        monkeypatch.setattr(subspace, "top_eigh", failing)
        X, radii = path_data()
        with pytest.raises(np.linalg.LinAlgError) as info:
            fit_pc_path(X, 2, radii)
        assert info.value is boom

    def test_one_job_spreads_each_path(self, force_cpus, monkeypatch):
        # The first two eigensolves of every path wait for each other, so
        # they run on two threads; a serial path would time out.
        force_cpus(2)
        lock, seen = threading.Lock(), []
        real = subspace.top_eigh
        X, radii = path_data()
        barriers = {}

        def paired(S, k):
            with lock:
                seen.append(threading.get_ident())
                call = len(seen) - 1
            path, j = divmod(call, 9)
            if j < 2:
                barriers.setdefault(path, threading.Barrier(2, timeout=10)).wait()
            return real(S, k)

        monkeypatch.setattr(subspace, "top_eigh", paired)
        map_replications(lambda i: fit_pc_path(X, 2, radii), 3, jobs=1)
        assert len(seen) == 27 and len(set(seen)) >= 2

    def test_small_matrices_stay_on_the_calling_thread(self, force_cpus, solves):
        force_cpus(4)
        X, radii = path_data(subspace._THREADED_MIN_P - 1)
        fit_pc_path(X, 2, radii)
        assert set(solves) == {threading.get_ident()}

    def test_replication_workers_start_no_threads(self, force_cpus, solves):
        force_cpus(4)
        X, radii = path_data()

        def body(i):
            fit_pc_path(X, 2, radii)
            return threading.get_ident()

        bodies = set(map_replications(body, 6, jobs=2))
        # A thread a path started would be alive beside both body threads,
        # so its identity would differ from theirs.
        assert len(solves) == 6 * 9
        assert set(solves) <= bodies


class TestReplicationBatch:
    """The datasets of one replication share one map of eigensolves."""

    @staticmethod
    def _datasets():
        """A Gram dataset that fans out, a thin-SVD one (n < p, padded to
        the same p), one with a zero row, and radii below every nonzero
        norm, inside each norm range, and +inf."""
        X, _ = path_data()
        p = X.shape[1]
        thin = np.zeros((6, p))
        thin[:, :20] = PopulationModel.gaussian(np.linspace(5.0, 1.0, 20)).draw(6, make_rng(8))
        zero = X[::2].copy()
        zero[0] = 0.0
        datasets = [X, thin, zero]
        norms = [row_norms(A) for A in datasets]
        least = min(float(n[n > 0].min()) for n in norms)
        radii = [0.5 * least, math.inf, 1e-3 * least]
        for n in norms:
            radii += list(np.quantile(n, [0.3, 0.7]))
        return datasets, np.array(radii)

    def test_each_dataset_gets_the_bits_of_its_own_path(self, force_cpus, monkeypatch):
        force_cpus(2)
        datasets, radii = self._datasets()
        paths = [fit_pc_path(A, 2, radii) for A in datasets]
        maps, real_map = [], subspace.thread_map
        monkeypatch.setattr(subspace, "thread_map",
                            lambda fn, items, workers: maps.append(workers)
                            or real_map(fn, items, workers))
        batch = subspace._spectra(iter(datasets), 2, radii)
        # One map, spread over the CPUs, for all three datasets.
        assert maps == [None]
        for spectra, fits in zip(batch, paths):
            assert len(spectra) == len(fits) == radii.size
            for (vals, vecs, tied), fit in zip(spectra, fits):
                assert vals.tobytes() == fit.eigenvalues.tobytes()
                assert vecs.tobytes() == fit.eigenvectors.tobytes()
                assert tied == fit.degenerate_gap

    def test_path_sines_are_the_angles_of_the_fits(self):
        datasets, radii = self._datasets()
        target = np.eye(datasets[0].shape[1], 2)
        want = [[math.sin(principal_angles(fit.basis, target)[-1])
                 for fit in fit_pc_path(A, 2, radii)] for A in datasets]
        got = _path_sines(iter(datasets), 2, radii, target)
        assert got.tobytes() == np.array(want).tobytes()

    def test_a_dataset_is_released_before_the_next_is_drawn(self):
        refs = []

        def tracked(A):
            refs.append(weakref.ref(A))
            return A

        def draws():
            model = PopulationModel.gaussian(np.linspace(6.0, 1.0, subspace._THREADED_MIN_P))
            for seed in range(3):
                assert [ref() for ref in refs] == [None] * len(refs)
                yield tracked(model.draw(160, make_rng(seed)))

        _, radii = path_data()
        p = subspace._THREADED_MIN_P
        sines = _path_sines(draws(), 2, radii, np.eye(p, 2))
        assert sines.shape == (3, len(radii)) and len(refs) == 3

    def test_checks_of_fit_pc_path_are_kept(self):
        X, radii = path_data()
        target = np.eye(X.shape[1], 2)
        with pytest.raises(ValueError, match="non-finite"):
            _path_sines(iter([X, np.full_like(X, np.nan)]), 2, radii, target)
        with pytest.raises(ValueError, match="subspace dimension"):
            _path_sines(iter([X]), X.shape[1] + 1, radii, target)
        with pytest.raises(ValueError, match="positive"):
            _path_sines(iter([X]), 2, [1.0, -1.0], target)


class TestOutputBytes:
    def test_experiments_same_for_every_worker_count(self, force_cpus, capsys):
        for argv in _EXPERIMENTS:
            outputs = []
            for workers in WORKERS:
                force_cpus(workers)
                outputs.append(_experiment(capsys, *argv))
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], argv

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity masks on this platform")
    def test_one_cpu_child_gives_the_same_bytes(self, capsys):
        assert _child("import test_thread_map\nprint(test_thread_map.path_digest())") == [
            path_digest()]
        for argv in _EXPERIMENTS[:2]:
            want = _experiment(capsys, *argv)
            assert _child("from winpca.cli import main\nsys.exit(main(sys.argv[1:]))",
                          "experiment", *argv) == want, argv
