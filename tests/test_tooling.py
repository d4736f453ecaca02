"""The perfbench tracer's view of the package.

`perfbench/tracer.py` patches the layer functions named in its TARGETS
and reads the class-table cache counters, so a renamed or deleted target
breaks `perfbench/run.py --trace 1` only when a trace is taken.  These
tests load the tracer read-only and check that every target still
resolves; one patches two targets as the tracer does, undone after it,
to check that the ternary sweep still reaches the layers its perfbench
case predicts.  Another runs the three perfbench sweeps in one fresh
interpreter and checks that none of them imports `numpy.ma`.

A last test reads `src/fqforms` as source: every module-level name there
is reached from `src/` or is public, so a helper that only tests call
lives in the tests.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
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


def test_verify_sweeps_leave_numpy_ma_unimported():
    # plain `np.unique` imports numpy.ma lazily, an import every fresh
    # sweep process would pay; the repset dedupe and the refinement's
    # grouping sort instead
    import fqforms

    code = (
        "import contextlib, io, sys\n"
        "from fqforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', 'equiv', '--q', '3', '--max-degree', '2']),\n"
        "             main(['verify', 'comp', '--q', '3', '--max-degree', '3']),\n"
        "             main(['verify', 'ternary', '--q', '3'])]\n"
        "print(*codes, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(fqforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0", "0", "False"], out.stderr


SRC = Path(__file__).resolve().parents[1] / "src" / "fqforms"

# `classify.irreducible_factor_count` has no caller in src/, but it keeps
# `factor` imported into classify, and the perfbench self-test
# (`test_imported_functions_patched_at_each_import_site`) counts `factor`
# at four import sites; it moves to the tests with that benchmark change
REACHED_ONLY_FROM_TESTS = {"irreducible_factor_count"}


def module_level_names(tree):
    """(name, defining statement) of each top-level function, class and
    assigned constant of a module."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt


def loaded_names(node):
    """The names a subtree reads, as plain names or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_src_name_is_reached_from_src_or_public():
    # a module-level name that only the tests reach belongs in the tests;
    # a read counts only from outside the name's own definition and from
    # outside the definitions of names found unreached themselves
    import fqforms

    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    reads = [
        (module, stmt, set(loaded_names(stmt)))
        for module, tree in trees.items()
        for stmt in tree.body
    ]
    defined = [
        (module, name, stmt)
        for module, tree in trees.items()
        for name, stmt in module_level_names(tree)
        if not name.startswith("__") and name not in fqforms.__all__
    ]
    unreached = {}
    while True:
        dead = {id(stmt) for stmt in unreached.values()}
        found = {
            f"{module}.{name}": stmt
            for module, name, stmt in defined
            if not any(
                name in names
                for other, reader, names in reads
                if id(reader) not in dead and not (other == module and reader is stmt)
            )
        }
        if found.keys() == unreached.keys():
            break
        unreached = found
    assert sorted(unreached) == sorted(
        f"classify.{name}" for name in REACHED_ONLY_FROM_TESTS
    )
