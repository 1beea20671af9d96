"""Solve benchmark for plycover: batches of `plycover solve` calls.

Run from the repository root:

    python3 perfbench/run.py --workload rects-dense --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 1

Set-up writes the workload's instance files under `.perfbench_work/`.  A
worker process (worker.py) then runs the solves one after another (one
closed-loop client, no threads or pools) for `--seconds`, and every
solution is checked afterwards, untimed.  See README.md for the metrics.  The last line of standard output is one JSON object:
with `--trace 0` it holds the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics.  The exit code is 0 whenever a result
is printed; a checkout without `src/plycover` exits with 2 and prints none.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import calibrate
import checks

HERE = os.path.dirname(os.path.abspath(__file__))
# `plycover solve` exit codes
REFUSED = 1
INFEASIBLE = 2


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _write_cases(cases, work):
    from plycover import instances
    entries = []
    for c in cases:
        path = os.path.join(work, c.name + ".jsonl")
        instances.save(c.instance, path)
        entries.append([c.kind, c.mode, path, path + ".sol.json"])
    return entries


def _verdicts(cases, entries, codes_by_pass, changed, errors):
    """Per case, the objective / planted ratio of its solution file, or None
    when no pass solved it or the file is wrong; wrong answers go to
    `errors`."""
    ratios = []
    for i, (case, entry) in enumerate(zip(cases, entries)):
        codes = [codes[i] for codes in codes_by_pass]
        ratio = None
        if INFEASIBLE in codes:
            errors.append("%s: infeasible, but a planted cover exists"
                          % case.name)
        if i in changed:
            errors.append("%s: solution bytes differ between passes"
                          % case.name)
        elif 0 in codes:
            with open(entry[3]) as fh:
                err, ratio = checks.check(case, checks.planted_objective(case),
                                          fh.read())
            if err:
                errors.append("%s: %s" % (case.name, err))
        ratios.append(ratio)
    return ratios


def _scaled_times(passes):
    """Each solve's median over the passes of its wall time rescaled to
    reference speed (see calibrate.py)."""
    return [statistics.median(calibrate.scale(t, ref)
                              for t, ref in zip(times, refs))
            for times, refs in zip(zip(*(p["times"] for p in passes)),
                                   zip(*(p["refs"] for p in passes)))]


def _pass_scale(p):
    """Factor that turns one pass's wall seconds into reference seconds."""
    return (sum(calibrate.scale(t, ref) for t, ref in zip(p["times"], p["refs"]))
            / sum(p["times"]))


def run_one(args, src, spec):
    import workloads

    cases = workloads.build(args.workload, args.seed)
    probe = workloads.probe(args.workload, args.seed)
    work = os.path.join(os.getcwd(), ".perfbench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        entries = _write_cases(cases, work)
        probe_entries = _write_cases(probe, work)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w") as fh:
            json.dump({"cases": entries, "probe": probe_entries}, fh)
        result_path = os.path.join(work, "result.json")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        manifest, result_path, str(args.seconds),
                        str(args.trace)],
                       env=_env(src), check=True, timeout=args.seconds + 120)
        with open(result_path) as fh:
            report = json.load(fh)

        passes = report["passes"] + report["traced"]
        changed = {i for p in passes for i in p["changed"]}
        errors = []
        ratios = _verdicts(cases, entries, [p["codes"] for p in passes],
                           changed, errors)
        probe_codes = report["probe_codes"]
        _verdicts(probe, probe_entries, [probe_codes] if probe_codes else [],
                  set(), errors)
        attempted = len(cases) * len(passes)
        verified = sum(1 for p in passes for i, c in enumerate(p["codes"])
                       if c == 0 and ratios[i] is not None)
        failed = attempted - verified

        if args.trace:
            # self times in reference seconds, pass by pass, then the median;
            # a layer the workload never enters reads 0
            scaled = [{k: v * _pass_scale(p) if k.endswith("_s") else v
                       for k, v in s.items()}
                      for s, p in zip(report["spans"], report["traced"])]
            values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
            values.update({k: statistics.median(s[k] for s in scaled)
                           for k in scaled[0]})
            values["trace.batch_s"] = sum(_scaled_times(report["traced"]))
            values["trace.overhead_s"] = (values["trace.batch_s"]
                                          - sum(_scaled_times(report["passes"])))
            values["calib.ref_ms"] = 1000 * statistics.median(
                ref for p in passes for ref in p["refs"])
            values["wall.batch_s"] = statistics.median(
                sum(p["times"]) for p in report["passes"])
            values["disks.refusals"] = (
                sum(c == REFUSED for c in report["traced"][-1]["codes"])
                + sum(c == REFUSED for c in probe_codes))
            wanted = spec["per_layer"]
        else:
            solve_ms = [1000 * t for t in _scaled_times(passes)]
            # a case is charged its worst allowed ratio unless every pass
            # solved it
            charged = [r if r is not None and all(p["codes"][i] == 0
                                                  for p in passes)
                       else checks.RATIO_BOUND[c.kind]
                       for i, (r, c) in enumerate(zip(ratios, cases))]
            values = {
                "batch_s": sum(solve_ms) / 1000,
                "solve_ms_p50": statistics.median(solve_ms),
                "solve_ms_p90": statistics.quantiles(solve_ms, n=10)[8],
                "ply_ratio_mean": statistics.fmean(charged),
                "verified_share": verified / attempted,
                "setup_s": statistics.median(
                    calibrate.scale(t, ref) for t, ref in report["setup_s"]),
                "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors[:20]:
        print("wrong answer: " + e, file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print("# %s seed %d: %d solves in %d passes of %d, %d failed"
          % (args.workload, args.seed, attempted, len(passes), len(cases),
             failed))
    for name, m in metrics.items():
        print("# %-34s %14.6f %s" % (name, m["value"], m["unit"]))
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in turn, each in its own process, as one table."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--workload", name, "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, check=True,
                             timeout=args.seconds + 170)
        sys.stderr.write(out.stderr)
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print("%-30s" % "metric" + "".join("%16s" % w for w in results))
    for n in names:
        unit = results[next(iter(results))]["metrics"][n]["unit"]
        print("%-30s" % ("%s [%s]" % (n, unit)) + "".join(
            "%16.6g" % r["metrics"][n]["value"] for r in results.values()))
    print("%-30s" % "correct / failed / attempted" + "".join(
        "%16s" % ("%s %d/%d" % (r["correct"], r["failed"], r["attempted"]))
        for r in results.values()))
    return results


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "plycover", "cli.py")):
        print("perfbench: no plycover sources under %s; run from the "
              "repository root" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.WORKLOADS:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        result = run_one(args, src, spec)
    else:
        p.error("unknown workload %r; choose from %s or all"
                % (args.workload, ", ".join(workloads.WORKLOADS)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
