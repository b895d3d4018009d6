"""The traced benchmark's patch list against the program's namespaces.

``bench/spans.py`` times the program by replacing names in the namespaces
of the modules that call them.  A name a refactor removes would only fail
once the tracer is installed; this test resolves every patch target without
installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", [patch[:2] for patch in _load_spans().PATCHES])
def test_patch_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
