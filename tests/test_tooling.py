"""The perfbench tracer's view of the package.

`perfbench/tracer.py` patches the layer functions named in its TARGETS
and reads the class-table cache counters, so a renamed or deleted target
breaks `perfbench/run.py --trace 1` only when a trace is taken.  These
tests load the tracer read-only and check that every target still
resolves; one patches two targets as the tracer does, undone after it,
to check that the ternary sweep still reaches the layers its perfbench
case predicts.
"""

import importlib
import importlib.util
import sys
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


def test_ternary_sweep_reaches_predicted_repset_layers(monkeypatch, capsys):
    # the perfbench ternary case predicts calls to these two wrappers; patch
    # them as the tracer does (a function at every fqforms module that holds
    # it, a method on its class) and count the calls of `verify ternary`
    from fqforms import repset
    from fqforms.cli import main

    names = ("repset.repset_upto", "repset.grid")
    targets = [t for t in load_tracer().TARGETS if t[2] in names]
    assert len(targets) == len(names)
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attribute, name, _, _ in targets:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            monkeypatch.setattr(owner, leaf, counting(name, owner.__dict__[leaf]))
            continue
        original = getattr(module, leaf)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fqforms" and not mod_name.startswith("fqforms."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting(name, original))
    # a fresh interpreter, as perfbench runs each sweep, starts with no
    # binary block cached
    repset._binary_block_keys.cache_clear()
    assert main(["verify", "ternary", "--q", "3"]) == 0
    capsys.readouterr()
    assert all(n > 0 for n in calls.values()), calls
