"""Runs one workload's solves in this process, one after another.

Each solve is an in-process `plycover.cli.main(["solve", ...])` call, so
parsing, solving and writing the solution are all timed.  A pass runs every
solve of the workload once; passes repeat while the next one is expected
to end within `--seconds`.  The reference loop of `calibrate` runs before
and after every solve, so each wall time comes with the machine's speed at
that moment.  Between untraced passes, fresh interpreters time
`import plycover.cli` (set-up), with the loop just before and after.  With
`--trace 1`, untraced and traced passes alternate, so the tracing overhead
is measured in the same run.

Usage: worker.py MANIFEST RESULT SECONDS TRACE
MANIFEST is a JSON object {"cases": [...], "probe": [...]}, each entry
[kind, mode, instance file, solution file].  RESULT gets a JSON report.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import subprocess
import os
import sys
from time import perf_counter

from calibrate import timed_reference

# run by a fresh interpreter: the import first, so that nothing it loads is
# loaded already, then the reference loop (once untimed, then three times)
IMPORT_TIMER = """import sys, time
t0 = time.perf_counter()
import plycover.cli
t = time.perf_counter() - t0
sys.path.insert(0, %r)
from calibrate import timed_reference
timed_reference()
print(t, sum(timed_reference() for _ in range(3)) / 3)
""" % os.path.dirname(os.path.abspath(__file__))
IMPORTS_PER_GAP = 5


def _solve(cli, entry):
    """(exit code or exception name, seconds) for one CLI solve."""
    kind, mode, infile, outfile = entry
    argv = ["solve", "--kind", kind, "--mode", mode, "--in", infile,
            "--out", outfile]
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as e:  # a traceback is a failed solve, not a crash
            rc = type(e).__name__
        dt = perf_counter() - t0
    return rc, dt


def _pass(cli, cases, first_outputs):
    """Times, reference times and exit codes of one pass; flags solutions
    whose bytes differ from the first successful pass."""
    gc.collect()
    times, refs, codes, changed = [], [], [], []
    ref = timed_reference()
    for i, entry in enumerate(cases):
        rc, dt = _solve(cli, entry)
        after = timed_reference()
        times.append(dt)
        refs.append((ref + after) / 2)
        ref = after
        codes.append(rc)
        if rc == 0:
            with open(entry[3], "rb") as fh:
                out = fh.read()
            if first_outputs.setdefault(i, out) != out:
                changed.append(i)
    return {"times": times, "refs": refs, "codes": codes, "changed": changed}


def _import_seconds():
    """(import seconds, reference seconds) for a fresh interpreter importing
    plycover.cli."""
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                         capture_output=True, text=True, timeout=60, check=True)
    t, ref = out.stdout.split()
    return float(t), float(ref)


def main(argv):
    manifest_path, result_path, seconds, trace = argv
    seconds = float(seconds)
    trace = trace == "1"
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    cases = manifest["cases"]

    from plycover import cli
    if trace:
        from tracing import Tracer

    _solve(cli, cases[0])  # warm-up: lazy imports, caches, first page-in
    _import_seconds()      # untimed: compiles the bytecode once
    first_outputs = {}
    passes, traced, spans, setup = [], [], [], []
    t_start = perf_counter()
    while True:
        passes.append(_pass(cli, cases, first_outputs))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(_pass(cli, cases, first_outputs))
            finally:
                tracer.uninstall()
            spans.append(tracer.metrics())
        else:
            # set-up samples between passes, so they spread over the run
            setup += [_import_seconds() for _ in range(IMPORTS_PER_GAP)]
        elapsed = perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    probe = [_solve(cli, entry)[0] for entry in manifest["probe"]] \
        if trace else []
    report = {"passes": passes, "traced": traced, "spans": spans,
              "setup_s": setup, "probe_codes": probe,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
