"""Digest of every benchmark solve, to show that a change moves no output.

Run from the repository root:

    python3 tools/solution_digest.py --seeds 1 7 [--workload W] [--limit N]

For each seed and workload (every one by default) it builds the cases and
probes of perfbench/workloads.py, saves each instance to a temporary
directory, and solves it in this process with
`plycover.cli.main(["solve", ...])` on the package under `src/`.  Each
solution written is then checked (`check --solution`) and drawn
(`render --solution`).  It prints a `# seed S` line per seed, then one
line per case:

    workload/case exit sha256(solution) sha256(stderr) \
        check_exit sha256(check stdout) sha256(svg)

with `-` for a solution or SVG that was not written, and for all three
`check` and `render` fields when no solution was.  The temporary directory's
path reads `<work>` in stderr, so that two runs can match, and the
directory is removed at the end.  Compare two checkouts by diffing their
outputs.  `--limit N` takes the first N cases and probes of each workload.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path) -> str:
    """The sha256 of the file at `path`, or `-` when there is none."""
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _checked(cli, path, sol) -> str:
    """`check_exit sha256(check stdout) sha256(svg)` of a written solution;
    `- - -` when none was written."""
    if not os.path.exists(sol):
        return "- - -"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["check", "--in", path, "--solution", sol])
        cli.main(["render", "--in", path, "--solution", sol,
                  "--out", sol + ".svg"])
    return "%s %s %s" % (rc, _sha(out.getvalue().encode()),
                         _file_sha(sol + ".svg"))


def digest_lines(seeds, workload_names=None, limit=None):
    """The output lines, as a list, for the given seeds and workloads."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        import workloads
        from plycover import cli, instances
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.path[:2]
    names = workload_names or list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            raise SystemExit("unknown workload %r; choose from %s"
                             % (name, ", ".join(workloads.WORKLOADS)))
    out = []
    work = tempfile.mkdtemp(prefix="solution_digest_")
    try:
        for seed in seeds:
            out.append("# seed %d" % seed)
            for name in names:
                cases = (workloads.build(name, seed)
                         + workloads.probe(name, seed))[:limit]
                for c in cases:
                    path = os.path.join(work, "%s-%d-%s.jsonl"
                                        % (name, seed, c.name))
                    sol = path + ".sol.json"
                    instances.save(c.instance, path)
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        rc = cli.main(["solve", "--kind", c.kind, "--mode",
                                       c.mode, "--in", path, "--out", sol])
                    err_sha = _sha(err.getvalue().replace(work, "<work>")
                                   .encode())
                    out.append("%s/%s %s %s %s %s"
                               % (name, c.name, rc, _file_sha(sol), err_sha,
                                  _checked(cli, path, sol)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workload", action="append",
                   help="one workload (repeatable); every one by default")
    p.add_argument("--limit", type=int, default=None,
                   help="the first N cases and probes of each workload")
    args = p.parse_args(argv)
    for line in digest_lines(args.seeds, args.workload, args.limit):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
