import io
import random
import sys
from pathlib import Path

import pytest

from plotting_solver.cnf import CnfFormula, write_dimacs
from plotting_solver.engine import Grid, apply_shot, legal_shots

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
MINI_SOLVER_CMD = [sys.executable, str(SCRIPTS_DIR / "mini_solver.py")]


@pytest.fixture
def mini_solver_cmd():
    return list(MINI_SOLVER_CMD)


def plain_copy(f: CnfFormula) -> CnfFormula:
    """The same variables and clauses, with no at_least_k record, so
    dpll_solve solves it from its clauses alone."""
    plain = CnfFormula()
    plain.var_count, plain.clauses = f.var_count, list(f.clauses)
    return plain


def dimacs_text(formula: CnfFormula) -> str:
    """``formula`` as ``write_dimacs`` writes it."""
    buf = io.StringIO()
    write_dimacs(formula, buf)
    return buf.getvalue()


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
