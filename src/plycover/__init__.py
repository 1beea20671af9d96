"""Minimum ply covering and minimum membership set cover solvers.

2-approximations for covering points with unit-height rectangles or unit
disks while minimizing the maximum coverage depth anywhere in the plane, a
2-approximate 3-colorable disk cover, and an exact near-linear solver for
weighted intervals on a line, all cross-checked against brute-force
oracles.
"""

from .errors import (BudgetExceeded, Infeasible, InstanceTooLarge,
                     PlyCoverError)
from .geom import (Point, UnitDisk, UnitRect, WeightedInterval,
                   disks_disjoint, ply_disks, ply_rects)
from .instances import Instance, generate, load, loads, save, dumps
from .intervals import solve_intervals
from .slabs import CoverSolution, solve_mpc
from .tricolor import solve_3color

__all__ = [
    "BudgetExceeded", "CoverSolution", "Infeasible", "Instance",
    "InstanceTooLarge", "PlyCoverError", "Point", "UnitDisk", "UnitRect",
    "WeightedInterval", "disks_disjoint", "dumps", "generate", "load",
    "loads", "ply_disks", "ply_rects", "save", "solve_3color",
    "solve_intervals", "solve_mpc",
]
