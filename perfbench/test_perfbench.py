"""Tests of the benchmark itself, on tiny configurations.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import ROOT, Child, metric_units
from tracer import TARGETS

# verify arguments -> wrappers the sweep must call at least once
TINY = {
    "equiv": (
        ["equiv", "--q", "3", "--max-degree", "2"],
        (
            "ffpoly.divmod", "ffpoly.is_irreducible", "ffpoly.factor",
            "classify.enumerate_forms", "classify.class_table",
            "localgenus.genus_symbol", "repset.repset_upto", "repset.grid",
            "verify.sweep_data",
        ),
    ),
    "comp": (
        ["comp", "--q", "3", "--max-degree", "3"],
        (
            "ffpoly.divmod", "ffpoly.is_irreducible", "ffpoly.factor",
            "classify.enumerate_forms", "classify.class_table",
            "localgenus.genus_symbol", "picard.pic_group", "picard.cantor_add",
            "picard.comp_sequence_check",
        ),
    ),
    "ternary": (
        ["ternary", "--q", "3"],
        (
            "ffpoly.divmod", "ffpoly.is_irreducible", "localgenus.local_rep",
            "localgenus.represented_at_infinity", "repset.repset_upto",
            "repset.grid",
        ),
    ),
}


def sweep(argv, spans=None):
    extra = ["--spans", str(spans)] if spans else []
    child = Child([*extra, "--", "verify", *argv], timeout=120)
    assert not child.errors, child.errors
    assert child.result["exit"] == 0
    return child.result


@pytest.mark.parametrize("check", sorted(TINY))
def test_traced_sweep(check, tmp_path):
    argv, predicted = TINY[check]
    plain = sweep(argv)
    first = sweep(argv, tmp_path / "a.json")
    second = sweep(argv, tmp_path / "b.json")
    # tracing changes nothing it measures
    assert first["report"] == plain["report"] == second["report"]
    # counts repeat exactly in a fresh interpreter
    assert first["counts"] == second["counts"]
    # every wrapper the sweep is predicted to call was reached
    for name in predicted:
        assert first["layers"][name + ".calls"] > 0, name
    # every target was installed somewhere
    assert set(first["sites"]) == {t[2] for t in TARGETS}
    assert all(n >= 1 for n in first["sites"].values())
    # every per-layer metric of BENCHMARK.json is traced (the overhead is
    # computed by run.py from untraced and traced sweep times)
    layers = first["layers"]
    assert set(metric_units("per_layer")) - {"verify.trace_overhead_frac"} <= set(layers)
    # layer self times add up to the sweep span
    assert layers["verify.layer_self_sum_s"] == pytest.approx(
        layers["verify.traced_sweep_s"], rel=1e-6
    )
    spans = json.loads((tmp_path / "a.json").read_text())
    assert len(spans["spans"]) == sum(
        layers.get(t[2] + ".calls", 0) for t in TARGETS if t[3]
    ) + 1


def test_imported_functions_patched_at_each_import_site(tmp_path):
    first = sweep(TINY["comp"][0], tmp_path / "a.json")
    # ffpoly itself, classify, localgenus and picard each hold `factor`
    assert first["sites"]["ffpoly.factor"] >= 4
    # ffpoly, classify and localgenus each hold `is_irreducible`
    assert first["sites"]["ffpoly.is_irreducible"] >= 3


def test_refuses_to_run_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "comp-q7-d3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
