"""Every function perfbench traces exists under the name it traces.

perfbench/tracing.py patches ``TRACED`` by name from outside the program,
so renaming or deleting one of those functions breaks the benchmark; this
catches it without running a benchmark.
"""

import importlib
import importlib.util
import os
import sys

import pytest

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    spec.loader.exec_module(tracing)
    return [(mod, name) for mod, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_name_is_callable(module, name):
    mod = importlib.import_module(f"patchcount.{module}")
    assert callable(getattr(mod, name, None)), f"patchcount.{module}.{name} is gone"
