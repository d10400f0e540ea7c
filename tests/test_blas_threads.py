"""The OpenBLAS thread pin, and output bytes that do not depend on it.

Gram and ``dsyevr`` results change in their last bits with the BLAS thread
count.  Every fit, public covariance, eigensolve and angle routine, and
replication pool runs under ``one_blas_thread``, so the CLI prints the same
bytes under ``OPENBLAS_NUM_THREADS=1`` and ``=2``.
The pin's bookkeeping is checked against a fake library that records every
thread-count change; the real library is used where it is present.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import winpca
from winpca import _kernels
from winpca._kernels import blas_threads, one_blas_thread
from winpca.bounds import sample_winsorized_values
from winpca.distributions import PopulationModel, make_rng
from winpca.simulate import map_replications
from winpca.subspace import (
    fit_pc_path,
    fit_pc_subspace,
    principal_angles,
    sample_covariance,
    sin_theta_operator,
    symmetric_eigh,
    winsorized_second_moments,
)
from winpca.transform import RadiusSpec


def _child_env(threads):
    """This environment with the BLAS thread count set and this package first."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = threads
    root = os.path.dirname(os.path.dirname(winpca.__file__))
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + old if old else "")
    return env


def _cli_output(threads, *argv):
    proc = subprocess.run([sys.executable, "-m", "winpca.cli", *argv],
                          env=_child_env(threads), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [l for l in proc.stdout.splitlines() if not l.startswith("# timestamp=")]


class TestOutputBytes:
    def test_fig2_same_under_one_and_two_blas_threads(self):
        argv = ("experiment", "fig2", "--scale", "0.05", "--replications", "3")
        one = _cli_output("1", *argv)
        assert _cli_output("2", *argv) == one
        assert _cli_output("2", *argv, "--jobs", "2") == one

    def test_fit_same_under_one_and_two_blas_threads(self, tmp_path):
        # 100 x 100 is the smallest square input whose Gram changes bits
        # between one and two threads without the pin.
        lam = np.ones(100)
        lam[:3] = [25.0, 16.0, 9.0]
        path = tmp_path / "spiked.csv"
        X = PopulationModel.gaussian(lam).draw(100, make_rng(1))
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
        argv = ("fit", str(path), "--d", "3")
        assert _cli_output("2", *argv) == _cli_output("1", *argv)

    def test_angles_same_under_one_and_two_blas_threads(self, tmp_path):
        # Two 100-dimensional subspaces of R^200: the smallest tried whose
        # angles change bits between one and two threads without the pin.
        rng = np.random.default_rng(1)
        paths = []
        for name in ("a", "b"):
            paths.append(str(tmp_path / f"basis_{name}.csv"))
            basis = np.linalg.qr(rng.standard_normal((200, 100)))[0]
            np.savetxt(paths[-1], basis, delimiter=",", fmt="%.17g")
        argv = ("angles", *paths)
        assert _cli_output("2", *argv) == _cli_output("1", *argv)


class FakeBlas:
    """Stands in for the OpenBLAS thread symbols and logs every change."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    fake = FakeBlas(2)
    monkeypatch.setattr(_kernels, "_GET_THREADS", fake.get)
    monkeypatch.setattr(_kernels, "_SET_THREADS", fake.set)
    return fake


class TestPin:
    def test_restores_on_exit(self, fake_blas):
        with one_blas_thread:
            assert blas_threads() == 1
        assert blas_threads() == 2
        assert fake_blas.sets == [1, 2]

    def test_restores_on_exception(self, fake_blas):
        @one_blas_thread
        def fails():
            assert blas_threads() == 1
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            fails()
        assert blas_threads() == 2
        with pytest.raises(RuntimeError, match="boom"):
            with one_blas_thread:
                raise RuntimeError("boom")
        assert blas_threads() == 2
        assert fake_blas.sets == [1, 2, 1, 2]

    def test_nested_entries_keep_one_until_the_outermost_exit(self, fake_blas):
        with one_blas_thread:
            with one_blas_thread:
                assert blas_threads() == 1
            assert blas_threads() == 1
            assert fake_blas.sets == [1]
        assert blas_threads() == 2
        assert fake_blas.sets == [1, 2]

    def test_overlapping_threads_restore_once(self, fake_blas):
        # A enters, B enters, A leaves, B leaves.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with one_blas_thread:
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def second():
            a_in.wait(10)
            with one_blas_thread:
                b_in.set()
                a_out.wait(10)
                seen["after_a_left"] = blas_threads()

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(10)
            assert not w.is_alive()
        assert a_out.is_set() and seen == {"after_a_left": 1}
        assert blas_threads() == 2
        assert fake_blas.sets == [1, 2]

    def test_fits_and_pools_run_pinned(self, fake_blas):
        X = PopulationModel.gaussian([4.0, 2.0, 1.0]).draw(60, make_rng(2))
        fit_pc_subspace(X, 1, RadiusSpec.median_norm())
        assert fake_blas.sets == [1, 2]
        fit_pc_path(X, 1, [1.0, 2.0])
        sample_winsorized_values(X, [1.0, 2.0])
        assert fake_blas.sets == [1, 2] * 3
        assert map_replications(lambda i: blas_threads(), 3) == [1, 1, 1]
        assert fake_blas.sets == [1, 2] * 4

    def test_public_linear_algebra_runs_pinned(self, fake_blas):
        X = PopulationModel.gaussian([4.0, 2.0, 1.0]).draw(60, make_rng(2))
        U = fit_pc_subspace(X, 1, RadiusSpec.none()).subspace
        W = fit_pc_subspace(X, 1, RadiusSpec.median_norm()).subspace
        S = X.T @ X / 60
        del fake_blas.sets[:]
        calls = [lambda: sample_covariance(X),
                 lambda: symmetric_eigh(S),
                 lambda: winsorized_second_moments(X, [1.0]),
                 lambda: principal_angles(U, W),
                 lambda: sin_theta_operator(U, W)]
        for k, call in enumerate(calls, start=1):
            call()
            assert fake_blas.sets == [1, 2] * k

    @pytest.mark.skipif(blas_threads() is None,
                        reason="numpy's OpenBLAS exports no thread symbols")
    def test_pool_workers_read_one_thread(self):
        before = blas_threads()
        _kernels._SET_THREADS(2)
        try:
            seen = map_replications(lambda i: blas_threads(), 4, jobs=2)
            assert blas_threads() == 2
        finally:
            _kernels._SET_THREADS(before)
        assert seen == [1, 1, 1, 1]

    def test_missing_symbols_leave_threads_alone(self, monkeypatch):
        real_get, before = _kernels._GET_THREADS, blas_threads()
        monkeypatch.setattr(_kernels, "_GET_THREADS", None)
        monkeypatch.setattr(_kernels, "_SET_THREADS", None)
        X = PopulationModel.gaussian([4.0, 2.0, 1.0]).draw(60, make_rng(2))
        with one_blas_thread:
            assert blas_threads() is None
            if real_get is not None:
                assert real_get() == before
            fit = fit_pc_subspace(X, 1, RadiusSpec.median_norm())
        assert fit.basis.shape == (3, 1)
        assert len(map_replications(lambda i: fit_pc_path(X, 1, [1.0]), 2, jobs=2)) == 2


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_map_replications_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            map_replications(lambda i: i, 2, jobs)
