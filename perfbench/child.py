"""One sweep in a fresh interpreter, as a CLI user runs it.

    python3 perfbench/child.py [--setup-only] [--spans PATH] -- ARGV...

The process imports `fqforms.cli`, then prints the line `ready` so that
the parent can time set-up.  With --setup-only it exits there.  Otherwise
it calls `fqforms.cli.main(ARGV)` with stdout captured and prints one
JSON line: the exit code, the sweep time, the captured report and the
versions in use.  With --spans the sweep is traced (see tracer.py), the
per-layer metrics join the JSON line and the spans are written to PATH.
"""

import argparse
import contextlib
import io
import json
import sys
import time


def main():
    import fqforms
    import numpy
    from fqforms import cli

    print("ready", flush=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs="*")
    opts = parser.parse_args()
    if opts.setup_only:
        return
    tracer = None
    if opts.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    report = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(report):
        if tracer is None:
            code = cli.main(opts.argv)
        else:
            code = tracer.run(cli.main, opts.argv)
    sweep_s = time.perf_counter() - start
    result = {
        "exit": code,
        "sweep_s": sweep_s,
        "report": report.getvalue(),
        "module": fqforms.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["counts"] = tracer.counts()
        result["sites"] = tracer.sites
        tracer.write_spans(opts.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
