"""Minimum ply covering and minimum membership set cover solvers.

2-approximations for covering points with unit-height rectangles or unit
disks while minimizing the maximum coverage depth anywhere in the plane, a
2-approximate 3-colorable disk cover, and an exact near-linear solver for
weighted intervals on a line, all cross-checked against brute-force
oracles.
"""

from .errors import (BudgetExceeded, Infeasible, InstanceTooLarge,
                     PlyCoverError)
from .geom import (EventClass, Point, UnitDisk, UnitRect,
                   WeightedInterval, disks_disjoint, membership_at, ply_disks,
                   ply_rects, verify_cover)
from .instances import Instance, generate, load, loads, save, dumps
from .intervals import (IntervalDag, bottleneck_path, build_dag,
                        prepare_instance, solve_intervals)
from .slabs import CoverSolution, SlabInstance, assign_slabs, solve_mpc
from .tricolor import solve_3color

__all__ = [
    "BudgetExceeded", "CoverSolution", "EventClass",
    "Infeasible", "Instance",
    "InstanceTooLarge", "IntervalDag", "PlyCoverError", "Point",
    "SlabInstance", "UnitDisk", "UnitRect",
    "WeightedInterval", "assign_slabs", "bottleneck_path", "build_dag",
    "disks_disjoint", "dumps", "generate", "load", "loads", "membership_at",
    "ply_disks", "ply_rects", "prepare_instance", "save", "solve_3color",
    "solve_intervals", "solve_mpc", "verify_cover",
]
