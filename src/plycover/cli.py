"""Command line interface: solve, oracle, gen, check, render.

Exit codes: 0 success, 1 usage or IO error, 2 infeasible, 3 ply budget
exceeded.

A command runs with the cyclic garbage collector paused.  The loader and
the interval DAG allocate many small tuples and lists, which the collector
would scan again and again to free nothing, since a solve makes no
reference cycles.  Memory is still freed by reference counting, and
`main` leaves the collector as it found it.

Importing this module loads the loader and every solver, but not the
exact oracles or the SVG writer: `_cmd_oracle` imports `oracle` and
`_cmd_render` imports `svg`, so a `solve`, `check` or `gen` process never
compiles them.  The solvers are not deferred per kind: one process that
solves many files would then start no faster.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from fractions import Fraction

from . import instances as inst_mod
from .errors import BudgetExceeded, Infeasible, InstanceTooLarge
from .geom import disks_cover, ply_disks, ply_rects, rects_cover
from .intervals import (MODES, chosen_loads, evaluate_objective,
                        solve_intervals)
from .slabs import CoverSolution, solve_mpc
from .tricolor import solve_3color

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

SOLVE_KINDS = ("rects", "disks", "3color", "intervals")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_instance(path, expect_kind):
    inst = inst_mod.load(path)
    want = "disks" if expect_kind == "3color" else expect_kind
    if inst.kind != want:
        raise _UsageError("instance kind is %r, expected %r" % (inst.kind, want))
    return inst


def _write_solution(args, sol) -> int:
    """Write `sol` to `--out` as the solution file of `args.kind`, the same
    bytes on every run that finds the same solution."""
    objective = sol.objective
    payload = {"kind": args.kind, "chosen": list(sol.chosen),
               "objective": objective if isinstance(objective, int)
               else str(Fraction(objective))}
    if args.kind == "intervals":
        payload["mode"] = args.mode
    if sol.colors is not None:
        payload["colors"] = {str(k): v for k, v in sorted(sol.colors.items())}
    with open(args.outfile, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":"))
                 + "\n")
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.mode == "mmsc" and args.kind != "intervals":
        raise _UsageError("--mode mmsc is only valid for --kind intervals")
    if args.ell_max is not None and args.kind not in ("rects", "disks"):
        raise _UsageError("--ell-max is only valid for --kind rects or disks")
    if args.ell_max is not None and args.ell_max < 1:
        raise _UsageError("--ell-max must be a positive integer, got %d"
                          % args.ell_max)
    inst = _load_instance(args.infile, args.kind)
    if args.kind == "intervals":
        sol = solve_intervals(*inst.pairs, args.mode)
    elif args.kind == "3color":
        sol = solve_3color(inst.points, inst.objects)
    elif args.kind == "rects":
        sol = solve_mpc(*inst.pairs, "rects", ell_max=args.ell_max)
    else:
        sol = solve_mpc(inst.points, inst.objects, "disks",
                        ell_max=args.ell_max)
    return _write_solution(args, sol)


def _cmd_oracle(args) -> int:
    from .oracle import exact_3color_cover, exact_intervals, exact_min_ply
    if args.mode == "mmsc" and args.kind != "intervals":
        raise _UsageError("--mode mmsc is only valid for --kind intervals")
    inst = _load_instance(args.infile, args.kind)
    colors = None
    if args.kind == "intervals":
        opt, chosen = exact_intervals(inst.points, inst.objects, args.mode)
    elif args.kind == "3color":
        witness = exact_3color_cover(inst.points, inst.objects)
        if witness is None:
            raise Infeasible("no 3-colorable cover exists")
        colors = {i: a + 1 for a, cls in enumerate(witness) for i in cls}
        chosen = sorted(colors)
        opt = ply_disks([inst.objects[i] for i in chosen])
    else:
        opt, chosen = exact_min_ply(inst.points, inst.objects, args.kind)
    return _write_solution(args, CoverSolution(chosen, opt, colors))


def _cmd_gen(args) -> int:
    inst = inst_mod.generate(args.kind, args.n, args.m, args.dist, args.seed,
                             allow_uncovered=args.allow_uncovered)
    inst_mod.save(inst, args.outfile)
    return EXIT_OK


def _check_colors(inst, sol) -> str | None:
    colors = sol["colors"]
    if any(not 1 <= c <= 6 for c in colors.values()):
        return "color out of range 1..6"
    by_class: dict[int, list] = {}
    for i, c in colors.items():
        by_class.setdefault(c, []).append(i)
    for c, members in sorted(by_class.items()):
        if ply_disks([inst.objects[i] for i in members]) > 1:
            return "color class %d is not pairwise disjoint" % c
    return None


def _read_solution(path) -> dict:
    """The solution file as a dict, refused unless its fields are usable;
    its colors map, if any, is keyed by int index."""
    with open(path) as fh:
        text = fh.read()
    try:
        sol = json.loads(text)
    except RecursionError:
        raise _UsageError("solution file nests JSON too deeply") from None
    if not isinstance(sol, dict):
        raise _UsageError("solution file must hold a JSON object")
    kind = sol.get("kind")
    if kind not in SOLVE_KINDS:
        raise _UsageError("solution file has unknown kind %r" % (kind,))
    if sol.get("mode", "mmsc") not in MODES:
        raise _UsageError("solution file has unknown mode %r" % (sol["mode"],))
    chosen = sol.get("chosen")
    if not isinstance(chosen, list) or any(type(i) is not int for i in chosen):
        raise _UsageError("solution file needs \"chosen\", a list of ints")
    if len(set(chosen)) != len(chosen):
        raise _UsageError("solution file repeats a chosen index")
    objective = sol.get("objective")
    if type(objective) is str:
        try:
            inst_mod.rational_pair(objective)
        except (ValueError, ZeroDivisionError):
            objective = None
    if type(objective) not in (int, str):
        raise _UsageError("solution file needs \"objective\", an int or a "
                          "rational string")
    colors = sol.get("colors")
    if "colors" in sol or kind == "3color":
        bad = _UsageError("solution file needs \"colors\", a map from "
                          "chosen index to int color")
        if not (isinstance(colors, dict) and all(
                k.isascii() and k.isdecimal() and type(v) is int
                for k, v in colors.items())):
            raise bad
        try:
            sol["colors"] = {int(k): v for k, v in colors.items()}
        except ValueError:  # int() refuses more than 4,300 digits
            raise bad from None
        if len(sol["colors"]) != len(colors):  # "1" and "01"
            raise bad
    return sol


def _load_solved(args):
    """(instance, solution) of `--in` and `--solution`, refused unless the
    solution's kind and chosen indices fit the instance and its colors map
    colors only chosen objects: for 3-color, every chosen object."""
    sol = _read_solution(args.solution)
    colors = sol.get("colors")
    if sol["kind"] == "3color" and sorted(colors) != sorted(sol["chosen"]):
        raise _UsageError("colors do not partition the chosen set")
    if colors is not None and not set(colors) <= set(sol["chosen"]):
        raise _UsageError("colors name an object that is not chosen")
    inst = _load_instance(args.infile, sol["kind"])
    if any(not 0 <= i < len(inst.objects) for i in sol["chosen"]):
        raise _UsageError("chosen index out of range")
    return inst, sol


def _cmd_check(args) -> int:
    inst, sol = _load_solved(args)
    kind = sol["kind"]
    chosen = sol["chosen"]
    objs = [inst.objects[i] for i in chosen]
    if kind == "intervals":
        covered = [c > 0 for c in chosen_loads(inst.points, objs)[0]]
    elif kind == "rects":
        covered = rects_cover(inst.points, objs)
    else:
        covered = disks_cover(inst.points, objs)
    for pi, hit in enumerate(covered):
        if not hit:
            print("uncovered point at index %d" % pi, file=sys.stderr)
            return EXIT_USAGE
    if kind == "intervals":
        want = evaluate_objective(inst.points, objs, sol.get("mode", "mmsc"))
    elif kind == "rects":
        want = ply_rects(objs)
    else:
        want = ply_disks(objs)
    if Fraction(sol["objective"]) != want:  # an int or a rational string
        print("objective mismatch: file says %r, recomputed %r"
              % (sol["objective"], want), file=sys.stderr)
        return EXIT_USAGE
    if kind == "3color":
        err = _check_colors(inst, sol)
        if err:
            print(err, file=sys.stderr)
            return EXIT_USAGE
    print("ok: %d objects, objective %s" % (len(chosen), sol["objective"]))
    return EXIT_OK


def _cmd_render(args) -> int:
    from .svg import render_svg
    if args.solution:
        inst, sol = _load_solved(args)
    else:
        inst, sol = inst_mod.load(args.infile), None
    svg = render_svg(inst, sol)  # a refusal leaves no --out file behind
    with open(args.outfile, "w") as fh:
        fh.write(svg)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and then reused."""
    # --help shows the commands and exit codes, not the note on the collector
    p = _Parser(prog="plycover",
                description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--kind", required=True, choices=SOLVE_KINDS)
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", dest="outfile", required=True)
        sp.add_argument("--mode", choices=("mpc", "mmsc"), default="mpc")

    sp = sub.add_parser("solve", help="run the approximation/exact solver")
    common(sp)
    sp.add_argument("--ell-max", type=int, default=None)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("oracle", help="run the exact brute-force solver")
    common(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--kind", required=True, choices=inst_mod.KINDS)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("--dist", default="uniform",
                    choices=inst_mod.DISTRIBUTIONS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--allow-uncovered", action="store_true")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("check", help="verify a solution file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--solution", required=True)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("render", help="render an instance to SVG")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--solution", default=None)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.set_defaults(func=_cmd_render)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    gc_was_enabled = gc.isenabled()
    try:
        args = parser.parse_args(argv)
        # A warmed-up solve of each kind makes no reference cycles, so the
        # collector's passes over its many small tuples and lists free
        # nothing, and pausing it for the command cannot grow memory.
        gc.disable()
        return args.func(args)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (InstanceTooLarge, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print("io error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except Infeasible as e:
        print("infeasible: %s" % e, file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceeded as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
