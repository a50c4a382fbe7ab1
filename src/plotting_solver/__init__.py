"""Optimal planning for the Plotting tile-matching puzzle.

The package splits into an exact game engine (:mod:`.engine`), an
independent constraint-case oracle and breadth-first planner
(:mod:`.oracle`), propositional infrastructure (:mod:`.cnf`), the
bounded-horizon CNF encoder (:mod:`.encoder`), the horizon-iterating
planner (:mod:`.planner`), an instance generator (:mod:`.generator`), file
formats (:mod:`.formats`) and a command-line front end (:mod:`.cli`).
The top level exports the entry points and the values they take, return
and raise; every other name is imported from its submodule.
"""

from .engine import ColShot, Grid, Instance, RowShot, Shot
from .oracle import CapacityExceededError, OptimalPlan, bfs_optimal
from .planner import PlanResult, ValidationReport, solve, validate_plan

__all__ = [
    "solve",
    "validate_plan",
    "bfs_optimal",
    "Grid",
    "Instance",
    "RowShot",
    "ColShot",
    "Shot",
    "PlanResult",
    "ValidationReport",
    "OptimalPlan",
    "CapacityExceededError",
]
