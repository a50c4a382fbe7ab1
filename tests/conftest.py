import io
import random
import sys
from pathlib import Path

import pytest

from plotting_solver.cnf import CnfFormula, at_least_k, dpll_solve, write_dimacs
from plotting_solver.engine import Grid, apply_shot, legal_shots

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
# -S skips the site import: the script needs the standard library alone
MINI_SOLVER_CMD = [sys.executable, "-S", str(SCRIPTS_DIR / "mini_solver.py")]


@pytest.fixture
def mini_solver_cmd():
    return list(MINI_SOLVER_CMD)


def dimacs_text(formula: CnfFormula) -> str:
    """``formula`` as ``write_dimacs`` writes it."""
    buf = io.StringIO()
    write_dimacs(formula, buf)
    return buf.getvalue()


def list_copy(formula: CnfFormula) -> CnfFormula:
    """``formula`` with its clauses copied into a list, and its record."""
    copy = CnfFormula()
    copy.var_count, copy.clauses = formula.var_count, list(formula.clauses)
    copy.steps = formula.steps
    return copy


def edited_copy(formula: CnfFormula, first, edit) -> CnfFormula:
    """``list_copy(formula)`` changed by ``edit``. The same edit on the
    encoded ``formula`` itself must raise, as its clauses are sealed, and
    leave it a formula its record describes, whose ``dpll_solve`` outcome
    is still ``first``."""
    with pytest.raises((AttributeError, TypeError)):
        edit(formula)
    assert formula.steps.describes(formula) and dpll_solve(formula) == first
    copy = list_copy(formula)
    edit(copy)
    return copy


def goal_counter(instance, formula, varmap):
    """The goal counter of ``formula``, which ``encode`` built for
    ``instance`` with ``varmap``, rebuilt from the instance: "at least k of
    the last grid's cells are empty", k being the blocks the goal removes,
    with its registers the formula's last variables. Returns the
    counter's ``AtLeastK`` and its clauses, which come just before the
    start units: one per cell, and one more when the hand is pinned."""
    height, width = instance.grid.height, instance.grid.width
    lits = [
        varmap.grid_var(varmap.steps, r, c, 0)
        for r in range(1, height + 1)
        for c in range(1, width + 1)
    ]
    k = height * width - instance.goal
    probe = CnfFormula()
    probe.var_count = formula.var_count
    registers = len(at_least_k(probe, lits, k).registers)
    rebuilt = CnfFormula()
    rebuilt.var_count = formula.var_count - registers
    counter = at_least_k(rebuilt, lits, k)
    pinned = formula.clauses[-1][0] in varmap.hand_ids(0)
    end = len(formula.clauses) - height * width - pinned
    start = end - len(rebuilt.clauses)
    assert list(formula.clauses[start:end]) == rebuilt.clauses
    return counter, rebuilt.clauses


def random_full_grid(rng: random.Random, height: int, width: int, colours: int) -> Grid:
    """Full grid with every colour 1..colours present."""
    cells = height * width
    assert colours <= cells
    while True:
        flat = [rng.randint(1, colours) for _ in range(cells)]
        if len(set(flat)) == colours:
            break
    return Grid(tuple(tuple(flat[r * width : (r + 1) * width]) for r in range(height)))


def random_walk(rng: random.Random, grid: Grid, hand: int, steps: int):
    """Follow up to ``steps`` random legal shots; returns the states visited.

    Yields (grid, hand, shot, outcome) per applied shot.
    """
    for _ in range(steps):
        shots = legal_shots(grid, hand)
        if not shots:
            return
        shot = shots[rng.randrange(len(shots))]
        out = apply_shot(grid, hand, shot)
        yield grid, hand, shot, out
        grid, hand = out.next_grid, out.next_hand


def is_top_empty(grid: Grid) -> bool:
    """Empty cells form a prefix at the top of every column."""
    for c in range(grid.width):
        seen_block = False
        for r in range(grid.height):
            if grid.cells[r][c] != 0:
                seen_block = True
            elif seen_block:
                return False
    return True
