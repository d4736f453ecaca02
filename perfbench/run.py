#!/usr/bin/env python3
"""Benchmark of the fqforms verification sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is one exhaustive
`fqforms verify` sweep.  Every sweep runs in a fresh single-threaded
interpreter (child.py) that calls `fqforms.cli.main`, so class-table and
sweep caches start cold, as they do for a CLI user.  Sweeps run one after
another (a closed loop with one client) until the next one would end
after S seconds; at least two run.

Every sweep is checked: the child exits 0, `cli.main` returns 0, and the
report equals the reference in `reference/` recorded at seed 0 (only the
`config.seed` line may differ), including `instances_checked`.  A sweep
that fails any check counts in `failed`; none is dropped or retried.

--trace 0 reports the end-to-end metrics, medians over the run:
  sweep_s      wall time of `cli.main([...verify...])` until the report
               is written
  setup_s      wall time from process spawn until `fqforms.cli` is
               imported (PROBES_PER_SWEEP set-up-only spawns before each
               sweep, plus every sweep's own)
  peak_rss_mb  peak resident memory of a sweep process (wait4 ru_maxrss)

--trace 1 alternates untraced and traced sweeps and reports the
per-layer metrics of tracer.py.  The traced report must equal the
reference too; the layer self times plus `verify.self_s` must add up to
the traced sweep span; two traced sweeps of one checkout must give equal
counts, also across runs (kept in .perfbench_out/).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Each run appends a record with the environment
(git sha when available, code digest, Python and numpy versions, CPU
count, load average) to .perfbench_out/results.jsonl; traced runs also
write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# name -> (verify arguments, instances_checked in the reference report)
WORKLOADS = {
    "equiv-q11-d2": (["equiv", "--q", "11", "--max-degree", "2"], 103114),
    "comp-q7-d3": (["comp", "--q", "7", "--max-degree", "3"], 645),
    "ternary-q5": (["ternary", "--q", "5"], 12506),
}

# Set-up is timed between sweeps rather than in one burst, so that its
# median covers the whole run, as sweep_s does.
PROBES_PER_SWEEP = 3
MIN_SWEEPS = 2
RUN_LIMIT_S = 170  # the run must end well within 180 s
SEED_LINE = re.compile(r'^    "seed": -?\d+$', re.MULTILINE)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def metric_units(kind):
    """Metric name -> unit, for `end_to_end` or `per_layer` of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """One child.py process: set-up time, final JSON line, peak memory."""

    def __init__(self, args, timeout):
        self.setup_s = None
        self.result = None
        self.errors = []
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *args],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            if proc.stdout.readline() == b"ready\n":
                self.setup_s = time.perf_counter() - start
            else:
                self.errors.append("no ready line")
            lines = proc.stdout.read().splitlines()
        finally:
            killer.cancel()
            killer.join()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - start
        self.peak_rss_mb = usage.ru_maxrss / 1024
        if proc.returncode != 0:
            self.errors.append(f"child exit code {proc.returncode}")
        if lines:
            try:
                self.result = json.loads(lines[-1])
            except json.JSONDecodeError:
                self.errors.append("last line is not JSON")


def run_sweep(workload, seed, spans, timeout):
    """Run and check one sweep; returns the Child with `errors` filled in."""
    verify_args, instances = WORKLOADS[workload]
    args = ["verify", *verify_args, "--seed", str(seed)]
    extra = ["--spans", str(spans)] if spans else []
    child = Child([*extra, "--", *args], timeout)
    res = child.result
    if res is None:
        child.errors.append("no result")
        return child
    if res["exit"] != 0:
        child.errors.append(f"cli.main returned {res['exit']}")
    if not Path(res["module"]).resolve().is_relative_to(SRC.resolve()):
        child.errors.append(f"fqforms imported from {res['module']}")
    reference = (BENCH / "reference" / f"{workload}.txt").read_text()
    if SEED_LINE.sub('    "seed": 0', res["report"]) != reference:
        child.errors.append("report differs from the reference")
    try:
        checked = json.loads(res["report"])["instances_checked"]
    except (json.JSONDecodeError, KeyError, TypeError):
        checked = None
    if checked != instances:
        child.errors.append(f"instances_checked {checked}, expected {instances}")
    if "layers" in res:
        layers = res["layers"]
        total, span = layers["verify.layer_self_sum_s"], layers["verify.traced_sweep_s"]
        if abs(total - span) > 1e-6 * max(span, 1.0):
            child.errors.append(f"layer self times sum to {total}, span is {span}")
    return child


def code_digest():
    """Digest of the program and benchmark sources; keys the stored counts."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def check_counts(workload, counts, digest, errors):
    """Counts of a traced sweep must equal those of earlier traced sweeps
    of the same code, in this run or an earlier one.  The first sweep that
    passes every other check stores its counts."""
    path = OUT / f"counts-{workload}-{digest}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if diff:
            errors.append(f"counts differ from an earlier traced sweep: {diff}")
    elif not errors:
        path.write_text(json.dumps(counts, sort_keys=True))


def median_of(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "fqforms" / "cli.py").is_file():
        print(f"perfbench: no fqforms sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    digest = code_digest()
    started = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    errors = []
    probes = []
    sweeps = []  # (traced, Child)
    attempted = failed = 0
    while True:
        for _ in range(0 if opts.trace else PROBES_PER_SWEEP):
            probe = Child(["--setup-only"], remaining())
            errors += [f"set-up probe: {e}" for e in probe.errors]
            probes.append(probe)
        traced = bool(opts.trace) and len(sweeps) % 2 == 1
        sweep_id = f"{opts.workload}-seed{opts.seed}-{len(sweeps)}"
        spans = OUT / f"spans-{sweep_id}.json" if traced else None
        child = run_sweep(opts.workload, opts.seed, spans, remaining())
        attempted += 1
        if traced and child.result and "counts" in child.result:
            check_counts(opts.workload, child.result["counts"], digest, child.errors)
        if child.errors:
            failed += 1
            for e in child.errors:
                print(f"perfbench: sweep {sweep_id} failed: {e}", file=sys.stderr)
        sweeps.append((traced, child))
        elapsed = time.perf_counter() - started
        if remaining() < child.wall_s * 1.2:
            break
        if len(sweeps) >= MIN_SWEEPS and elapsed + child.wall_s > opts.seconds:
            break
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)

    def sweep_times(want_traced):
        return [c.result["sweep_s"] if c.result else c.wall_s
                for t, c in sweeps if t == want_traced]

    setups = [c.setup_s if c.setup_s is not None else c.wall_s
              for c in probes + [c for _, c in sweeps]]
    if opts.trace:
        traced = [c.result["layers"] for t, c in sweeps
                  if t and c.result and "layers" in c.result]
        untraced_s = median_of(sweep_times(False))
        values = {
            name: median_of([layers[name] for layers in traced])
            for name in metric_units("per_layer")
            if name != "verify.trace_overhead_frac"
        }
        values["verify.trace_overhead_frac"] = (
            median_of(sweep_times(True)) / untraced_s - 1 if untraced_s else 0.0
        )
        units = metric_units("per_layer")
    else:
        values = {
            "sweep_s": median_of(sweep_times(False)),
            "setup_s": median_of(setups),
            "peak_rss_mb": median_of([c.peak_rss_mb for _, c in sweeps]),
        }
        units = metric_units("end_to_end")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}

    first = next((c.result for _, c in sweeps if c.result), {})
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "git_sha": git_sha(),
        "code_digest": digest,
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "sweeps": [{"traced": t, "sweep_s": c.result["sweep_s"] if c.result else None,
                    "setup_s": c.setup_s, "peak_rss_mb": c.peak_rss_mb,
                    "errors": c.errors} for t, c in sweeps],
        "setup_probes_s": [c.setup_s for c in probes],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        f"perfbench: {opts.workload} seed={opts.seed} sweeps={attempted} "
        f"failed_frac={failed / attempted:.3f} sha={record['git_sha']} "
        f"code={digest} python={record['python']} numpy={record['numpy']} "
        f"nproc={record['nproc']} load1={record['loadavg_1m']:.2f}"
    )
    summary = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
