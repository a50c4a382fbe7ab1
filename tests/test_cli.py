import shlex
import sys

import pytest

from plotting_solver import cli, generator, oracle
from plotting_solver.formats import parse_instance, parse_plan, write_instance
from plotting_solver.engine import Grid, Instance

from conftest import MINI_SOLVER_CMD

MINI_BACKEND = "external:" + " ".join(shlex.quote(p) for p in MINI_SOLVER_CMD)


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_inst(tmp_path, rows, goal=None, name="inst.txt"):
    path = tmp_path / name
    path.write_text(write_instance(Instance(Grid.from_rows(rows), goal)))
    return str(path)


def write_plan_file(tmp_path, text, name="plan.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_one_line_failure(err):
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err


class TestGenerate:
    def test_enumerate_all_writes_14_files(self, tmp_path, capsys):
        out = tmp_path / "insts"
        code, stdout, _ = run(
            [
                "generate",
                "--height", "2", "--width", "2", "--colours", "2",
                "--all", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert stdout.strip() == "14"
        files = sorted(out.iterdir())
        assert len(files) == 14
        for f in files:
            parse_instance(f.read_text())

    def test_seeded_single_instance(self, tmp_path, capsys):
        out = tmp_path / "one"
        code, stdout, _ = run(
            [
                "generate",
                "--height", "1", "--width", "1", "--colours", "1",
                "--seed", "7", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0 and stdout.strip() == "1"
        (only,) = list(out.iterdir())
        inst = parse_instance(only.read_text())
        assert inst.grid.cells == ((1,),)

    def test_infeasible_spec_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            [
                "generate",
                "--height", "1", "--width", "1", "--colours", "2",
                "--seed", "7", "--out", str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 2
        assert "infeasible" in err

    def test_spec_too_rare_to_resample_exits_2_at_once(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, stdout, err = run(
            [
                "generate",
                "--height", "5", "--width", "5", "--colours", "25",
                "--seed", "1", "--out", str(out),
            ],
            capsys,
        )
        assert code == 2 and stdout == "" and not out.exists()
        assert_one_line_failure(err)
        assert err.startswith("infeasible: ")


class TestSolve:
    def test_plan_found_and_validates(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, stdout, _ = run(
            ["solve", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 0
        hand, shots = parse_plan(stdout)
        assert len(shots) == 2
        plan_path = write_plan_file(tmp_path, stdout)
        code, _, _ = run(
            ["validate", "--instance", inst, "--plan", plan_path, "--goal", "0"],
            capsys,
        )
        assert code == 0

    def test_goal_met_immediately_prints_empty_plan(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, stdout, _ = run(
            ["solve", "--instance", inst, "--goal", "4"], capsys
        )
        assert code == 0
        hand, shots = parse_plan(stdout)
        assert shots == []

    def test_goal_from_instance_file(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]], goal=4)
        code, stdout, _ = run(["solve", "--instance", inst], capsys)
        assert code == 0

    def test_goal_flag_wins_over_file(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]], goal=4)
        code, stdout, _ = run(
            ["solve", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 0
        _, shots = parse_plan(stdout)
        assert len(shots) == 2

    def test_missing_goal_is_usage_error(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, _, err = run(["solve", "--instance", inst], capsys)
        assert code == 2 and "goal" in err

    def test_unsat_exit_20(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 2], [2, 1]])
        code, stdout, _ = run(
            ["solve", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 20 and stdout.strip() == "UNSAT"

    @staticmethod
    def generate_32x32(tmp_path, capsys):
        out = tmp_path / "big"
        code, _, _ = run(
            [
                "generate",
                "--height", "32", "--width", "32", "--colours", "2",
                "--seed", "1", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        (inst,) = out.iterdir()
        return str(inst)

    def test_unsat_on_a_32x32_grid(self, tmp_path, capsys):
        # the goal counter over 1,024 cells is built without recursion
        inst = self.generate_32x32(tmp_path, capsys)
        code, stdout, err = run(
            ["solve", "--instance", inst, "--goal", "0", "--max-steps", "1"],
            capsys,
        )
        assert code == 20 and stdout == "UNSAT\n"
        assert "Traceback" not in err

    def test_cardinality_compare_refused_on_a_32x32_grid(self, tmp_path, capsys):
        # colour-sum range 2 x 1,024 is above the encoder's bound, so the
        # totalizers are never built
        inst = self.generate_32x32(tmp_path, capsys)
        code, stdout, err = run(
            [
                "solve", "--instance", inst, "--goal", "0", "--max-steps", "1",
                "--progress", "cardinalityCompare",
            ],
            capsys,
        )
        assert code == 3 and stdout == ""
        assert_one_line_failure(err)
        assert err.startswith("capacity: ")

    def test_unknown_exit_30(self, tmp_path, capsys):
        undecided = tmp_path / "undecided.py"
        undecided.write_text("print('s UNKNOWN')\n")
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        backend = f"external:{sys.executable} -S {undecided}"
        code, stdout, err = run(
            ["solve", "--instance", inst, "--goal", "0", "--backend", backend],
            capsys,
        )
        assert code == 30 and stdout.splitlines()[0] == "UNKNOWN"
        # the first undecided horizon ends the solve
        assert err == "horizon 1: unknown: solver reported unknown\n"

    def test_internal_timeout_exit_30(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 2], [2, 1]])
        code, stdout, err = run(
            ["solve", "--instance", inst, "--goal", "1", "--timeout", "1e-9"],
            capsys,
        )
        assert code == 30 and stdout.splitlines()[0] == "UNKNOWN"
        assert "horizon 1: unknown: timeout" in err.splitlines()

    def test_external_backend_via_flag(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, stdout, _ = run(
            ["solve", "--instance", inst, "--goal", "0", "--backend", MINI_BACKEND],
            capsys,
        )
        assert code == 0
        _, shots = parse_plan(stdout)
        assert len(shots) == 2

    def test_external_backend_via_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(
            "PLOTTING_SOLVER",
            " ".join(shlex.quote(p) for p in MINI_SOLVER_CMD),
        )
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, stdout, _ = run(
            ["solve", "--instance", inst, "--goal", "1"], capsys
        )
        assert code == 0
        _, shots = parse_plan(stdout)
        assert len(shots) == 1

    def test_emit_cnf_headers(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        cnf_dir = tmp_path / "cnf"
        code, _, _ = run(
            [
                "solve", "--instance", inst, "--goal", "0",
                "--emit-cnf", str(cnf_dir),
            ],
            capsys,
        )
        assert code == 0
        names = sorted(p.name for p in cnf_dir.iterdir())
        assert names == ["phi_1.cnf", "phi_2.cnf"]
        for name in names:
            head, *rest = (cnf_dir / name).read_text().splitlines()
            parts = head.split()
            assert parts[:2] == ["p", "cnf"]
            assert int(parts[2]) >= 27
            assert int(parts[3]) == len(rest)

    def test_bad_instance_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an instance\n")
        code, _, _ = run(["solve", "--instance", str(bad), "--goal", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "flags, code, label",
        [
            (["--hand", "7"], 2, "error: "),
            (["--max-steps", "-3"], 2, "error: "),
            (["--backend", "external:/nonexistent/solver"], 2, "backend: "),
            (["--backend", "external:"], 2, "backend: no solver command"),
            (["--backend", "external:echo s SATISFIABLE"], 1, "backend: "),
            (["--backend", MINI_BACKEND, "--timeout", "nan"], 2, "error: "),
            (["--backend", MINI_BACKEND, "--timeout", "inf"], 2, "error: "),
            (["--backend", MINI_BACKEND, "--timeout", "0"], 2, "error: "),
            (["--backend", MINI_BACKEND, "--timeout", "-5"], 2, "error: "),
            (["--backend", "foo"], 2, "error: bad --backend 'foo'"),
        ],
        ids=[
            "hand-outside-colours", "negative-max-steps", "spawn",
            "empty-backend", "parse",
            "timeout-nan", "timeout-inf", "timeout-zero", "timeout-negative",
            "bad-backend",
        ],
    )
    def test_failure_is_one_line_with_exit_code(
        self, tmp_path, capsys, flags, code, label
    ):
        inst = write_inst(tmp_path, [[1, 2], [2, 1]])
        got, stdout, err = run(
            ["solve", "--instance", inst, "--goal", "0", *flags], capsys
        )
        assert got == code and stdout == ""
        assert_one_line_failure(err)
        assert err.startswith(label)

    def test_blank_solver_env_is_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PLOTTING_SOLVER", "  ")
        inst = write_inst(tmp_path, [[1, 2], [2, 1]])
        code, stdout, err = run(
            ["solve", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 2 and stdout == ""
        assert err == "backend: no solver command\n"

    @staticmethod
    def generate_3x3(tmp_path):
        # generator seed 1: 1 1 2 / 1 2 2 / 2 2 1, no goal-0 plan
        instance = generator.random_instance(generator.GeneratorSpec(3, 3, 2, seed=1))
        path = tmp_path / "inst.txt"
        path.write_text(write_instance(instance))
        return str(path)

    @pytest.mark.parametrize("goal", [2, 4, 6, 8])
    def test_found_plan_lists_every_horizon_on_stderr(self, tmp_path, capsys, goal):
        inst = self.generate_3x3(tmp_path)
        code, stdout, err = run(
            ["solve", "--instance", inst, "--goal", str(goal)], capsys
        )
        assert code == 0
        _, shots = parse_plan(stdout)
        h = len(shots)
        assert h > 0
        assert err.splitlines() == [
            *(f"horizon {n}: unsat" for n in range(1, h)), f"horizon {h}: sat"
        ]

    def test_unsat_lists_every_horizon_to_the_bound(self, tmp_path, capsys):
        inst = self.generate_3x3(tmp_path)
        code, stdout, err = run(
            ["solve", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 20 and stdout == "UNSAT\n"
        # the bound is blocks - goal = 9 horizons
        assert err.splitlines() == [f"horizon {n}: unsat" for n in range(1, 10)]

    def test_goal_met_at_the_start_probes_no_horizon(self, tmp_path, capsys):
        inst = self.generate_3x3(tmp_path)
        code, stdout, err = run(
            ["solve", "--instance", inst, "--goal", "9"], capsys
        )
        assert code == 0 and parse_plan(stdout)[1] == []
        assert err == ""


class TestValidate:
    def test_null_move_names_the_step(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[2]])
        plan = write_plan_file(tmp_path, "plotting-plan v1\nhand 1\nrow 1\n")
        code, _, err = run(
            ["validate", "--instance", inst, "--plan", plan, "--goal", "0"],
            capsys,
        )
        assert code == 10
        assert "step 1" in err

    def test_empty_plan_goal_equals_blocks(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        plan = write_plan_file(tmp_path, "plotting-plan v1\nhand 1\n")
        code, _, _ = run(
            ["validate", "--instance", inst, "--plan", plan, "--goal", "4"],
            capsys,
        )
        assert code == 0

    def test_plan_that_misses_the_goal(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        plan = write_plan_file(tmp_path, "plotting-plan v1\nhand 1\nrow 1\n")
        code, stdout, err = run(
            ["validate", "--instance", inst, "--plan", plan, "--goal", "0"],
            capsys,
        )
        assert code == 10 and stdout == ""
        assert err == "invalid: 1 blocks remain, goal 0\n"

    def test_bad_plan_file_exits_2(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1]])
        plan = write_plan_file(tmp_path, "garbage\n")
        code, _, _ = run(
            ["validate", "--instance", inst, "--plan", plan, "--goal", "0"],
            capsys,
        )
        assert code == 2


class TestTrace:
    def test_single_cell_no_plan(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[2]])
        plan = write_plan_file(tmp_path, "plotting-plan v1\nhand 1\n")
        code, stdout, _ = run(["trace", "--instance", inst, "--plan", plan], capsys)
        assert code == 0
        assert stdout == "step 0  hand 1\n2\n"

    def test_two_frames(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        plan = write_plan_file(tmp_path, "plotting-plan v1\nhand 1\nrow 2\n")
        code, stdout, _ = run(["trace", "--instance", inst, "--plan", plan], capsys)
        assert code == 0
        assert stdout == (
            "step 0  hand 1\n11\n11\nstep 1  hand 1\n..\n11\n"
        )

    def test_invalid_plan_prints_partial_trace(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        plan = write_plan_file(
            tmp_path, "plotting-plan v1\nhand 1\nrow 2\nrow 1\nrow 1\n"
        )
        code, stdout, err = run(["trace", "--instance", inst, "--plan", plan], capsys)
        assert code == 10
        assert "step 0" in stdout and "step 2" in stdout
        assert "step 3" in err

    def test_transition_checker_rejection_names_the_step(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(oracle, "check_transition", lambda cand: False)
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        plan = write_plan_file(tmp_path, "plotting-plan v1\nhand 1\nrow 2\n")
        code, stdout, err = run(["trace", "--instance", inst, "--plan", plan], capsys)
        assert code == 10
        assert stdout == "step 0  hand 1\n11\n11\n"
        assert "step 1" in err and "constraint-case checker" in err
        assert_one_line_failure(err)


class TestOracleCommand:
    def test_minimal_length_and_plan(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, stdout, _ = run(
            ["oracle", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "2"
        hand, shots = parse_plan("\n".join(lines[1:]) + "\n")
        assert len(shots) == 2

    def test_goal_met(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, stdout, _ = run(
            ["oracle", "--instance", inst, "--goal", "4"], capsys
        )
        assert code == 0
        assert stdout.splitlines()[0] == "0"

    def test_none_when_unsolvable(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 2], [2, 1]])
        code, stdout, _ = run(
            ["oracle", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 20
        assert stdout.strip() == "NONE"

    def test_negative_max_steps_exits_2(self, tmp_path, capsys):
        inst = write_inst(tmp_path, [[1, 1], [1, 1]])
        code, stdout, err = run(
            ["oracle", "--instance", inst, "--goal", "0", "--max-steps", "-3"],
            capsys,
        )
        assert code == 2 and stdout == ""
        assert_one_line_failure(err)

    def test_answers_the_reference_size(self, tmp_path, capsys):
        # 5x5 with 3 colours: 75 bits of potential state
        spec = generator.GeneratorSpec(5, 5, 3, seed=1)
        instance = generator.random_instance(spec).with_goal(14)
        path = tmp_path / "inst.txt"
        path.write_text(write_instance(instance))
        code, stdout, _ = run(["oracle", "--instance", str(path)], capsys)
        best = oracle.bfs_optimal(instance, instance.block_total - 14)
        assert code == 0
        assert stdout.splitlines()[0] == str(best.length)

    def test_capacity_refusal_on_9x9(self, tmp_path, capsys):
        rows = [[(r + c) % 3 + 1 for c in range(9)] for r in range(9)]
        inst = write_inst(tmp_path, rows)
        code, _, err = run(
            ["oracle", "--instance", inst, "--goal", "0"], capsys
        )
        assert code == 3
        assert "capacity" in err
