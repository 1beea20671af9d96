"""Exception types shared across the solver suite."""


class PlyCoverError(Exception):
    """Base class for solver errors."""


class Infeasible(PlyCoverError):
    """No cover exists (or, for the 3-color solver, no 3-colorable cover)."""


class BudgetExceeded(PlyCoverError):
    """The ply budget cap was exhausted without finding a cover."""


class InstanceTooLarge(PlyCoverError):
    """Instance exceeds an exact solver's size cap."""
