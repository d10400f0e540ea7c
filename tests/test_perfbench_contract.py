"""The names ``perfbench/tracer.py`` patches must exist in the package.

The benchmark's span tracer wraps the functions listed in its ``LAYERS``
table, and ``perfbench/run.py`` records ``winpca.using_numba()`` on every
run; a rename or deletion in the package would otherwise break
``perfbench/run.py --trace 1`` without any test noticing.  The tracer is
loaded from its file as it is, without importing the rest of ``perfbench``.
"""

import importlib
import importlib.util
import pathlib

import pytest

import winpca

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
