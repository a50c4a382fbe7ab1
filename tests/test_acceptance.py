"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The scaled 5x5 sweep
(criterion 7) needs a conforming external CDCL solver and is skipped with an
explanation when none is configured; every other criterion runs with no
external solver installed.
"""

import itertools
import multiprocessing
import os
import random
import shutil
import time

import pytest

from plotting_solver.cnf import (
    CnfFormula,
    dpll_solve,
    external_solve,
)
from plotting_solver.encoder import (
    PROGRESS_CARDINALITY,
    PROGRESS_WITNESS,
    EncodeOptions,
    encode,
)
from plotting_solver.engine import (
    Grid,
    Instance,
    ShotError,
    apply_shot,
    block_count,
    colour_sum,
    shot_axes,
    wall_fall,
)
from plotting_solver.generator import GeneratorSpec, enumerate_instances, random_instance
from plotting_solver.oracle import bfs_optimal, enumerate_successors
from plotting_solver.planner import solve, validate_plan

from conftest import (
    MINI_SOLVER_CMD,
    dimacs_text,
    is_top_empty,
    random_full_grid,
    random_walk,
)


def _jobs():
    env = os.environ.get("PLOTTING_ACCEPT_JOBS")
    if env:
        return max(1, int(env))
    return min(2, multiprocessing.cpu_count())


def _full_grids(height, width, colours):
    for flat in itertools.product(range(1, colours + 1), repeat=height * width):
        if len(set(flat)) != colours:
            continue
        yield Grid(
            tuple(tuple(flat[r * width : (r + 1) * width]) for r in range(height))
        )


def _all_shots(grid):
    from plotting_solver.engine import ColShot, RowShot

    return [RowShot(r) for r in range(1, grid.height + 1)] + [
        ColShot(c) for c in range(1, grid.width + 1)
    ]


def test_criterion_1_engine_oracle_exhaustive_equivalence():
    """All full 2x2 and 2x3 grids, <=3 colours, all hands, all shots."""
    t0 = time.time()
    triples = 0
    transitions = 0
    for height, width in ((2, 2), (2, 3)):
        for colours in (1, 2, 3):
            if colours > height * width:
                continue
            for grid in _full_grids(height, width, colours):
                for hand in range(1, colours + 1):
                    per_shot = {}
                    for shot, cand in enumerate_successors(
                        grid, hand, colour_count=colours
                    ):
                        per_shot.setdefault(shot, []).append(cand)
                    for shot in _all_shots(grid):
                        triples += 1
                        try:
                            out = apply_shot(grid, hand, shot)
                        except ShotError:
                            out = None
                        cands = per_shot.get(shot, [])
                        if out is None:
                            assert cands == [], (grid.cells, hand, shot)
                        else:
                            transitions += 1
                            assert len(cands) == 1, (grid.cells, hand, shot)
                            c = cands[0]
                            assert c.next_grid == out.next_grid, (grid.cells, hand, shot)
                            assert c.next_hand == out.next_hand, (grid.cells, hand, shot)
                            assert c.wall_fall == out.wall_fall, (grid.cells, hand, shot)
    print(
        f"\nACCEPTANCE 1 engine-oracle equivalence: PASS "
        f"({triples} (grid,hand,shot) triples, {transitions} transitions, "
        f"{time.time() - t0:.1f}s)"
    )


def _sweep_3x3_instance(cells):
    grid = Grid(cells)
    rows = []
    for goal in range(0, 9):
        inst = Instance(grid, goal)
        res = solve(inst)
        best = bfs_optimal(inst, 9 - goal)
        sat_h = res.horizon if res.found else None
        bfs_h = best.length if best else None
        plan_ok = True
        if res.found:
            plan_ok = validate_plan(inst, res.hand0, res.plan).ok
        bound_ok = sat_h is None or sat_h <= 9 - goal
        rows.append((goal, sat_h, bfs_h, plan_ok, bound_ok))
    return cells, rows


@pytest.mark.slow
def test_criterion_2_planner_bfs_minimality():
    """Every canonical full 3x3 two-colour grid, every goal 0..8."""
    t0 = time.time()
    grids = [
        inst.grid.cells
        for inst in enumerate_instances(GeneratorSpec(3, 3, 2, mode="canonical"))
    ]
    assert len(grids) == 255
    jobs = _jobs()
    if jobs > 1:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            results = pool.map(_sweep_3x3_instance, grids)
    else:
        results = [_sweep_3x3_instance(cells) for cells in grids]
    pairs = solvable = 0
    for cells, rows in results:
        for goal, sat_h, bfs_h, plan_ok, bound_ok in rows:
            pairs += 1
            assert sat_h == bfs_h, (cells, goal, sat_h, bfs_h)
            assert plan_ok, (cells, goal)
            assert bound_ok, (cells, goal, sat_h)
            solvable += sat_h is not None
    print(
        f"\nACCEPTANCE 2 planner-bfs minimality: PASS "
        f"({pairs} (instance,goal) pairs over 255 canonical grids, "
        f"{solvable} solvable, {time.time() - t0:.1f}s, jobs={jobs})"
    )


def test_criterion_3_progress_encoding_equisatisfiability():
    """200 random (instance, goal, horizon) triples, both encodings."""
    t0 = time.time()
    rng = random.Random(20240917)
    agree = {"sat": 0, "unsat": 0}
    for _ in range(200):
        height, width = rng.randint(1, 3), rng.randint(1, 3)
        cells = height * width
        colours = rng.randint(1, min(3, cells))
        grid = random_full_grid(rng, height, width, colours)
        goal = rng.randint(0, cells - 1)
        steps = rng.randint(1, cells - goal)
        inst = Instance(grid, goal)
        statuses = []
        for mode in (PROGRESS_WITNESS, PROGRESS_CARDINALITY):
            formula, _ = encode(
                inst, EncodeOptions(steps=steps, progress_encoding=mode)
            )
            statuses.append(dpll_solve(formula).status)
        assert statuses[0] in ("sat", "unsat")
        assert statuses[0] == statuses[1], (grid.cells, goal, steps, statuses)
        agree[statuses[0]] += 1
    print(
        f"\nACCEPTANCE 3 progress equisatisfiability: PASS "
        f"(200 triples: {agree['sat']} sat, {agree['unsat']} unsat, "
        f"{time.time() - t0:.1f}s)"
    )


def test_criterion_4_invariant_suite():
    """>= 1e5 random legal shots on random reachable states, 0 violations."""
    t0 = time.time()
    rng = random.Random(8191)
    target = 100_000
    shots = 0
    while shots < target:
        height, width = rng.randint(1, 4), rng.randint(1, 4)
        colours = rng.randint(1, min(4, height * width))
        grid = random_full_grid(rng, height, width, colours)
        hand = rng.randint(1, colours)
        for prev, prev_hand, shot, out in random_walk(rng, grid, hand, 25):
            shots += 1
            fired_row, fired_col = shot_axes(shot)
            # top-empty preservation
            assert is_top_empty(out.next_grid), (prev.cells, shot)
            # progress equivalence: sum decrease <=> count decrease <=> witness
            assert colour_sum(out.next_grid) < colour_sum(prev)
            assert block_count(out.next_grid) < block_count(prev)
            assert any(
                prev.cells[r][c] != 0 and out.next_grid.cells[r][c] == 0
                for r in range(prev.height)
                for c in range(prev.width)
            )
            # hand conservation
            if out.hand_swapped:
                assert out.next_hand != prev_hand
            else:
                assert out.next_hand == prev_hand
            # wall-fall consistency
            if fired_row:
                assert out.wall_fall == wall_fall(prev, prev_hand, fired_row)
            else:
                assert out.wall_fall == 0
    print(
        f"\nACCEPTANCE 4 invariant suite: PASS "
        f"({shots} legal shots, 0 violations, {time.time() - t0:.1f}s)"
    )


@pytest.mark.slow
def test_criterion_5_horizon_bound():
    """Every Found horizon is at most blocks - goal."""
    t0 = time.time()
    found = 0
    checked = 0
    for height, width, colours in ((2, 2, 1), (2, 2, 2), (2, 3, 2)):
        for grid in _full_grids(height, width, colours):
            blocks = height * width
            for goal in range(0, blocks):
                checked += 1
                res = solve(Instance(grid, goal))
                if res.found:
                    found += 1
                    assert res.horizon <= blocks - goal, (grid.cells, goal)
    assert found > 0
    print(
        f"\nACCEPTANCE 5 horizon bound: PASS "
        f"({checked} runs, {found} plans, all within blocks-goal, "
        f"{time.time() - t0:.1f}s)"
    )


def _strict_parse_dimacs(text):
    lines = text.splitlines()
    assert lines, "empty DIMACS output"
    head = lines[0].split()
    assert head[:2] == ["p", "cnf"] and len(head) == 4
    nvars, nclauses = int(head[2]), int(head[3])
    assert nvars >= 0 and nclauses >= 0
    clauses = []
    for line in lines[1:]:
        toks = [int(t) for t in line.split()]
        assert toks and toks[-1] == 0
        body = toks[:-1]
        assert body, "empty clause"
        assert all(t != 0 and abs(t) <= nvars for t in body)
        clauses.append(tuple(body))
    assert len(clauses) == nclauses
    return nvars, clauses


def _sample_formulas(count):
    rng = random.Random(424242)
    formulas = []
    # encoder-produced formulas over small instances
    small = [
        ((2, 2), 2),
        ((2, 3), 2),
        ((2, 2), 3),
    ]
    while len(formulas) < count // 2:
        (height, width), colours = small[len(formulas) % len(small)]
        grid = random_full_grid(rng, height, width, colours)
        goal = rng.randint(0, height * width - 1)
        steps = rng.randint(1, min(2, height * width - goal))
        mode = (
            PROGRESS_WITNESS if len(formulas) % 2 == 0 else PROGRESS_CARDINALITY
        )
        formula, _ = encode(
            Instance(grid, goal),
            EncodeOptions(steps=steps, progress_encoding=mode),
        )
        formulas.append(formula)
    # random clause soups
    while len(formulas) < count:
        nvars = rng.randint(4, 24)
        f = CnfFormula()
        for _ in range(nvars):
            f.new_var()
        for _ in range(rng.randint(2, 3 * nvars)):
            width = rng.randint(1, 4)
            clause = tuple(
                rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(width)
            )
            f.add_clause(clause)
        formulas.append(f)
    return formulas


@pytest.mark.slow
def test_criterion_6_dimacs_conformance_and_solver_agreement():
    """Emitted DIMACS parses strictly; internal/external statuses agree."""
    t0 = time.time()
    formulas = _sample_formulas(100)
    statuses = {"sat": 0, "unsat": 0}
    for formula in formulas:
        text = dimacs_text(formula)
        nvars, clauses = _strict_parse_dimacs(text)
        assert nvars == formula.var_count
        assert sorted(clauses) == sorted(formula.clauses)
        internal = dpll_solve(formula)
        external = external_solve(formula, MINI_SOLVER_CMD)
        assert internal.status in ("sat", "unsat")
        assert internal.status == external.status
        statuses[internal.status] += 1
    print(
        f"\nACCEPTANCE 6 DIMACS conformance: PASS "
        f"(100 formulas round-tripped, statuses agree: "
        f"{statuses['sat']} sat / {statuses['unsat']} unsat, "
        f"{time.time() - t0:.1f}s)"
    )


def _external_cdcl_command():
    """A conforming external CDCL command, or None.

    ``PLOTTING_SOLVER`` wins when set. Otherwise look for well-known CDCL
    binaries that honour the contract (CNF path argument, SAT-competition
    ``s``/``v`` output on stdout) without extra flags.
    """
    env = os.environ.get("PLOTTING_SOLVER")
    if env:
        return env
    for name in ("cadical", "kissat", "cryptominisat5", "picosat"):
        path = shutil.which(name)
        if path:
            return path
    return None


@pytest.mark.slow
def test_criterion_7_scaled_reproduction_5x5():
    """20 seeded 5x5 3-colour instances, goals {5,10,15}, external CDCL.

    Each decision instance must finish within 60s and every (instance,
    goal) must show the UNSAT...UNSAT,SAT flip at the minimal horizon.
    """
    command = _external_cdcl_command()
    if command is None:
        pytest.skip(
            "needs an external CDCL solver: set PLOTTING_SOLVER to a command "
            "that takes a DIMACS path and prints SAT-competition s/v lines "
            "(none found in this environment; see notes in the repository "
            "README)"
        )
    t0 = time.time()
    decisions = 0
    for seed in range(1, 21):
        base = random_instance(GeneratorSpec(5, 5, 3, seed=seed))
        for goal in (5, 10, 15):
            inst = base.with_goal(goal)
            res = solve(inst, backend=command, per_horizon_timeout=60.0)
            statuses = [status for _, status in res.horizon_statuses]
            decisions += len(statuses)
            assert res.found, (seed, goal, statuses)
            assert all(s == "unsat" for s in statuses[:-1]), (seed, goal, statuses)
            assert statuses[-1] == "sat", (seed, goal, statuses)
            assert validate_plan(inst, res.hand0, res.plan).ok, (seed, goal)
    print(
        f"\nACCEPTANCE 7 scaled 5x5 reproduction: PASS "
        f"({decisions} decision instances, monotone UNSAT->SAT flips, "
        f"{time.time() - t0:.1f}s)"
    )
