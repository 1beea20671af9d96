"""Alternating benchmark pairs: a base revision against the working tree.

Run from the repository root:

    python3 tools/ab_pairs.py --workload disks [--base HEAD] [--pairs 10] \
        [--seed 1] [--seconds 10]

The base side is `git archive BASE`, unpacked into a temporary directory;
the change side is the repository root as it stands.  Each pair runs
`perfbench/run.py --workload W --seed S --seconds N` once on each side,
each side's own copy in its own directory, one after the other; the side
that runs first alternates from pair to pair.  At the end it prints, for
each end-to-end metric of BENCHMARK.json, each side's median [q1, q3]
over the pairs, the change of the medians, and how many pairs the change
won (ties count for neither).  A run whose answers were wrong is named on
standard error.  The temporary directory is removed at the end.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quartiles(values) -> list:
    """[q1, median, q3] of the values."""
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(spec, pairs) -> list:
    """The report lines for `pairs`, a list of (base, change) dicts from
    end-to-end metric name to value, one per pair; `spec` is the parsed
    BENCHMARK.json, whose `end_to_end` entries give each metric's unit
    and better direction."""
    lines = ["%-24s %31s %31s %9s %7s" % ("metric", "base median [q1, q3]",
                                         "change median [q1, q3]", "change",
                                         "wins")]
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        (b1, bm, b3), (c1, cm, c3) = _quartiles(base), _quartiles(change)
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        rel = "%+8.1f%%" % (100 * (cm - bm) / bm) if bm else "%9s" % "-"
        lines.append("%-24s %11.5g [%8.5g, %8.5g] %11.5g [%8.5g, %8.5g] %s "
                     "%3d/%-3d" % ("%s [%s]" % (name, m["unit"]), bm, b1, b3,
                                   cm, c1, c3, rel, wins, len(pairs)))
    return lines


def _archive(rev, dest):
    """Unpack the committed files of `rev` into `dest`."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def _run(side, args):
    """The end-to-end metrics of one `perfbench/run.py` run in `side`."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds)], cwd=side, capture_output=True, text=True,
        check=True, timeout=args.seconds + 600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("ab_pairs: wrong answers in %s" % side, file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--base", default="HEAD", help="git revision of the base")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    work = tempfile.mkdtemp(prefix="ab_pairs_")
    try:
        _archive(args.base, work)
        pairs = []
        for k in range(args.pairs):
            sides = (work, ROOT) if k % 2 == 0 else (ROOT, work)
            got = {side: _run(side, args) for side in sides}
            pairs.append((got[work], got[ROOT]))
            first = spec["end_to_end"][0]["name"]
            print("# pair %d of %d: %s base %.5g change %.5g"
                  % (k + 1, args.pairs, first, got[work][first],
                     got[ROOT][first]), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# %s seed %d, %d pairs of %d s, base %s against the working tree"
          % (args.workload, args.seed, args.pairs, args.seconds, args.base))
    for line in summary(spec, pairs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
