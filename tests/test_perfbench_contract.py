"""What ``perfbench`` reads of the package must exist and keep its shape.

The benchmark's span tracer wraps the functions listed in its ``LAYERS``
table, ``perfbench/run.py`` records ``winpca.using_numba()`` on every run,
and the ``breakdown`` workload reads ``.values`` and ``.standard_errors`` of
``estimate_winsorized_eigenvalues``; a rename, deletion or change of shape
in the package would otherwise break ``perfbench/run.py`` without any test
noticing.  The tracer and the workloads are loaded from their files as they
are, without importing the rest of ``perfbench``.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import winpca

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _tracer_layers():
    return _load("tracer").LAYERS


@pytest.mark.parametrize("module, attr", _tracer_layers())
def test_every_traced_layer_resolves(module, attr):
    owner = importlib.import_module(f"winpca.{module}")
    if "." in attr:
        # Methods are patched on their class, so they must be defined there.
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_using_numba_is_recorded():
    assert winpca.using_numba() is False


@pytest.mark.parametrize("model", [
    winpca.PopulationModel.gaussian(np.array([25.0, 25.0, 5.0, 1.0])),
    winpca.PopulationModel.student_t(np.array([9.0, 4.0, 1.0]), dof=3),
], ids=["gaussian", "student_t"])
def test_one_radius_estimate_is_a_row_of_the_grid(model):
    radii = [0.5, 3.0, 7.5]
    values, ses = winpca.estimate_winsorized_spectra(model, radii, 2000, seed=42)
    for j, r in enumerate(radii):
        spec = winpca.estimate_winsorized_eigenvalues(model, r, 2000, 42)
        for got, want in ((spec.values, values[j]), (spec.standard_errors, ses[j])):
            assert got.shape == (model.p,) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def test_breakdown_workload_reads_the_estimate():
    # The tiny pass of the benchmark's own code; its mc table holds the
    # one-radius estimates, row for row as the grid form gives them.
    workloads = _load("workloads")
    breakdown = workloads.WORKLOADS["breakdown"]
    inputs = breakdown.prepare(42, "tiny", None)
    out = breakdown.run(winpca, inputs)
    checker = workloads.Checker()
    breakdown.check(checker, inputs, out)
    assert checker.failed == 0, checker.messages
    mc = out.tables["mc"]
    radius = workloads.column(mc, "radius")
    radii = np.unique(radius)
    assert radii.size == inputs["mc_radii"]
    model = winpca.PopulationModel.gaussian(np.array(breakdown.fig3_eigenvalues))
    values, ses = winpca.estimate_winsorized_spectra(
        model, radii, inputs["mc_draws"], inputs["seed"])
    for r, want_v, want_se in zip(radii, values, ses):
        assert np.array_equal(workloads.column(mc, "value")[radius == r], want_v)
        assert np.array_equal(workloads.column(mc, "std_error")[radius == r], want_se)
