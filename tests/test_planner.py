import hashlib
import itertools
import random

import pytest

from plotting_solver.encoder import PROGRESS_MODES
from plotting_solver.engine import ColShot, Grid, Instance, RowShot
from plotting_solver.generator import GeneratorSpec, random_instance
from plotting_solver.oracle import bfs_optimal
from plotting_solver.planner import (
    INTERNAL_BACKEND,
    ReplayError,
    replay,
    solve,
    validate_plan,
)

from conftest import random_full_grid


def g(rows):
    return Grid.from_rows(rows)


class TestSolve:
    def test_goal_already_met(self):
        res = solve(Instance(g([[1, 1], [1, 1]]), 4))
        assert res.found and res.horizon == 0 and res.hand0 == 1 and res.plan == ()

    def test_two_step_clear(self):
        inst = Instance(g([[1, 1], [1, 1]]), 0)
        res = solve(inst)
        assert res.found and res.horizon == 2
        assert res.horizon_statuses == ((1, "unsat"), (2, "sat"))
        assert validate_plan(inst, res.hand0, res.plan).ok

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fixed_hand": 7},
            {"fixed_hand": 0},
            {"max_steps": -3},
            {"per_horizon_timeout": 0.0},
            {"per_horizon_timeout": -5.0},
            {"per_horizon_timeout": float("inf")},
            {"per_horizon_timeout": float("nan")},
        ],
    )
    def test_bad_arguments_rejected_before_goal_check(self, kwargs):
        with pytest.raises(ValueError):
            solve(Instance(g([[1, 2], [2, 1]]), 4), **kwargs)

    def test_wildcard_initial_hand(self):
        res = solve(Instance(g([[2]]), 0))
        assert res.found and res.horizon == 1 and res.hand0 == 2

    def test_unsolvable_within_bound(self):
        # pinning the hand to colour 2 leaves no consuming first shot
        res = solve(Instance(g([[1, 1], [1, 2]]), 0), fixed_hand=2)
        assert res.status == "unsat"
        assert res.max_steps == 4
        assert all(status == "unsat" for _, status in res.horizon_statuses)

    def test_horizon_bound_is_blocks_minus_goal(self):
        res = solve(Instance(g([[1, 2], [2, 1]]), 0))
        assert res.status == "unsat"
        assert res.max_steps == 4
        assert len(res.horizon_statuses) == 4

    def test_max_steps_caps_the_bound(self):
        res = solve(Instance(g([[1, 1], [1, 1]]), 0), max_steps=1)
        assert res.status == "unsat"
        assert res.max_steps == 1

    def test_budget_starvation_reports_unknown(self):
        res = solve(Instance(g([[1, 2], [2, 1]]), 1), per_horizon_timeout=1e-9)
        assert res.status == "unknown"
        assert any(status == "unknown: timeout" for _, status in res.horizon_statuses)

    def test_minimality_matches_breadth_first(self):
        rng = random.Random(31)
        for _ in range(8):
            h, w = rng.randint(1, 3), rng.randint(1, 3)
            grid = random_full_grid(rng, h, w, rng.randint(1, min(3, h * w)))
            goal = rng.randint(0, h * w - 1)
            inst = Instance(grid, goal)
            res = solve(inst)
            best = bfs_optimal(inst, h * w - goal)
            if best is None:
                assert res.status == "unsat"
            else:
                assert res.found and res.horizon == best.length
                assert res.horizon <= h * w - goal
                assert validate_plan(inst, res.hand0, res.plan).ok

    def test_backend_independence(self, mini_solver_cmd):
        for rows, goal in [([[1, 1], [1, 1]], 0), ([[1, 2], [1, 1]], 1), ([[2]], 0)]:
            inst = Instance(g(rows), goal)
            internal = solve(inst, backend=INTERNAL_BACKEND)
            external = solve(inst, backend=mini_solver_cmd)
            assert internal.status == external.status
            if internal.found:
                assert internal.horizon == external.horizon
                assert validate_plan(inst, external.hand0, external.plan).ok

    def test_emit_cnf_files(self, tmp_path):
        inst = Instance(g([[1, 1], [1, 1]]), 0)
        res = solve(inst, emit_cnf_dir=tmp_path)
        assert res.found
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["phi_1.cnf", "phi_2.cnf"]
        header = (tmp_path / "phi_1.cnf").read_text().splitlines()[0]
        assert header.startswith("p cnf ")
        assert int(header.split()[2]) >= 27


class TestPlanParity:
    # SHA-256 of repr((status, horizon, hand0, plan, horizon_statuses)) over
    # 192 seeded solves: shapes 2x2/2 to 4x4/3, generator seeds 1-8, goals
    # 1-4 blocks below full. Both progress modes give these same answers. A
    # change that alters plans on purpose records a new digest and says so
    # in CHANGES.md.
    SHAPES = [(2, 2, 2), (2, 3, 2), (3, 3, 2), (3, 3, 3), (3, 4, 3), (4, 4, 3)]
    RECORDED = "4b978910ca6cea89277d12f2932370f9a6ec744efca995b8e4b7ae42c39f44e6"

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_plans_match_the_recorded_digest(self, mode):
        digest = hashlib.sha256()
        for (h, w, c), seed in itertools.product(self.SHAPES, range(1, 9)):
            spec = GeneratorSpec(h, w, c, seed=seed)
            instance = random_instance(spec)
            for slack in range(1, 5):
                res = solve(instance.with_goal(h * w - slack), progress_encoding=mode)
                answer = (res.status, res.horizon, res.hand0, res.plan)
                digest.update(repr(answer + (res.horizon_statuses,)).encode())
        assert digest.hexdigest() == self.RECORDED


class TestReplay:
    def test_yields_from_step_zero_then_names_the_refused_step(self):
        grid = g([[1, 1], [1, 1]])
        states = replay(grid, 1, [RowShot(2), RowShot(1), RowShot(1)])
        assert [step for step, _, _ in itertools.islice(states, 3)] == [0, 1, 2]
        with pytest.raises(ReplayError) as info:
            next(states)
        assert info.value.step == 3 and "NullMove" in info.value.reason


class TestValidatePlan:
    def test_valid_two_step_plan(self):
        report = validate_plan(
            Instance(g([[1, 1], [1, 1]]), 0), 1, [RowShot(2), RowShot(2)]
        )
        assert report.ok and report.final_blocks == 0 and report.goal_met

    def test_null_move_reported_with_step_index(self):
        report = validate_plan(Instance(g([[2]]), 0), 1, [RowShot(1)])
        assert not report.ok
        assert report.failed_step == 1
        assert "NullMove" in report.reason

    def test_empty_plan_with_presatisfied_goal(self):
        report = validate_plan(Instance(g([[1, 1], [1, 1]]), 4), 1, [])
        assert report.ok and report.final_blocks == 4

    def test_goal_not_reached(self):
        report = validate_plan(Instance(g([[1, 1], [1, 1]]), 0), 1, [RowShot(1)])
        assert not report.ok
        assert report.failed_step is None
        assert report.final_blocks == 1

    def test_out_of_range_shot(self):
        report = validate_plan(Instance(g([[1]]), 0), 1, [ColShot(5)])
        assert not report.ok and report.failed_step == 1
        assert "OutOfRange" in report.reason
