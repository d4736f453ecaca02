"""The perfbench tracer's view of the package.

`perfbench/tracer.py` patches the layer functions named in its TARGETS
and reads the class-table cache counters, so a renamed or deleted target
breaks `perfbench/run.py --trace 1` only when a trace is taken.  These
tests load the tracer read-only, install nothing, and check that every
target still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name,attribute", [target[:2] for target in load_tracer().TARGETS]
)
def test_tracer_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attribute.rpartition(".")
    if owner_name:
        # a method is patched on its class, read from the class dict
        assert callable(getattr(module, owner_name).__dict__[leaf])
    else:
        assert callable(getattr(module, leaf))


def test_tracer_reads_class_table_cache():
    classify = importlib.import_module("fqforms.classify")
    info = classify._class_table_cached.cache_info()
    assert info.misses >= 0 and info.hits >= 0
