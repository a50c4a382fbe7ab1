"""Command-line interface.

Exit codes, fixed for scripting sweeps:

* 0   success (plan found / plan valid)
* 1   I/O failure, including malformed output from an external solver
* 2   bad arguments, unparsable files, infeasible generator spec, an
      external solver command that cannot be started
* 3   capacity refused: instance above the oracle's bound, or a
      ``cardinalityCompare`` colour-sum range above the encoder's
* 10  invalid plan
* 20  no plan within the horizon bound (UNSAT)
* 30  undecided (UNKNOWN)

``solve`` prints one ``horizon N: <status>`` line on stderr per horizon it
probed, in order and whatever the outcome, so the UNSAT-to-SAT flip at the
minimal plan length shows; a goal met at the start probes none. A goal sweep
is a shell loop over ``generate --seed`` and ``solve --goal``.

Each failure listed in ``FAILURES`` ends the command with one stderr line.
``validate`` and ``trace`` both replay plans with
:func:`plotting_solver.planner.replay`, which checks every transition with
the constraint-case oracle.

The ``PLOTTING_SOLVER`` environment variable, when set, supplies the default
external solver command for ``solve``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import cnf, formats, generator, oracle, planner
from .encoder import MAX_SUM_RANGE, PROGRESS_MODES, PROGRESS_WITNESS
from .engine import Instance

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INVALID_PLAN = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30

# Refuse breadth-first search when the potential state space passes this:
# 75 bits admits the paper's reference size (5x5, 3 colours: 25 cells of
# 3 bits); bfs_optimal's state_cap of 500,000 expanded states per initial
# hand still bounds the searches it admits, to a few hundred MB.
ORACLE_CAPACITY_BITS = 75

# Exceptions that end a command: exit code and the label of its stderr line.
# The first matching entry wins, so subclasses come before their bases.
FAILURES = (
    (generator.InfeasibleSpecError, EXIT_USAGE, "infeasible"),
    (oracle.CapacityExceededError, EXIT_CAPACITY, "capacity"),
    (cnf.SpawnFailureError, EXIT_USAGE, "backend"),
    (cnf.ParseFailureError, EXIT_IO, "backend"),
    (OSError, EXIT_IO, "write failed"),
    (ValueError, EXIT_USAGE, "error"),
)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        # An input file that cannot be read is a bad argument (exit 2).
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_instance(path: str, goal_flag) -> Instance:
    instance = formats.parse_instance(_read(path))
    if goal_flag is not None:
        return instance.with_goal(goal_flag)
    if instance.goal is None:
        raise formats.FormatError(
            "no goal: provide --goal or a 'goal' line in the instance file"
        )
    return instance


def cmd_generate(args) -> int:
    mode = "random"
    if args.all:
        mode = "all"
    elif args.canonical:
        mode = "canonical"
    spec = generator.GeneratorSpec(
        height=args.height,
        width=args.width,
        colours=args.colours,
        mode=mode,
        seed=args.seed if args.seed is not None else 0,
        require_all_colours=not args.allow_missing_colours,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    if mode == "random":
        instance = generator.random_instance(spec)
        path = out_dir / f"instance_seed{spec.seed}.txt"
        path.write_text(formats.write_instance(instance))
        count = 1
    else:
        for idx, instance in enumerate(generator.enumerate_instances(spec), 1):
            path = out_dir / f"instance_{idx:05d}.txt"
            path.write_text(formats.write_instance(instance))
            count = idx
    print(count)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance, args.goal)
    backend = args.backend
    if backend is None:
        backend = os.environ.get("PLOTTING_SOLVER") or planner.INTERNAL_BACKEND
    elif backend.startswith("external:"):
        backend = backend[len("external:") :]
    elif backend != planner.INTERNAL_BACKEND:
        raise ValueError(f"bad --backend {backend!r}")

    if args.emit_cnf is not None:
        Path(args.emit_cnf).mkdir(parents=True, exist_ok=True)

    result = planner.solve(
        instance,
        backend=backend,
        max_steps=args.max_steps,
        per_horizon_timeout=args.timeout,
        fixed_hand=args.hand,
        progress_encoding=args.progress,
        emit_cnf_dir=args.emit_cnf,
    )
    for steps, status in result.horizon_statuses:
        print(f"horizon {steps}: {status}", file=sys.stderr)
    if result.found:
        sys.stdout.write(formats.write_plan(result.hand0, result.plan))
        return EXIT_OK
    if result.status == "unsat":
        print("UNSAT")
        return EXIT_UNSAT
    print("UNKNOWN")
    return EXIT_UNKNOWN


def cmd_validate(args) -> int:
    instance = _load_instance(args.instance, args.goal)
    hand0, plan = formats.parse_plan(_read(args.plan))
    report = planner.validate_plan(instance, hand0, plan)
    if report.ok:
        print(f"valid: {report.final_blocks} blocks remain, goal {instance.goal}")
        return EXIT_OK
    if report.failed_step is not None:
        print(f"invalid at step {report.failed_step}: {report.reason}", file=sys.stderr)
    else:
        print(f"invalid: {report.reason}", file=sys.stderr)
    return EXIT_INVALID_PLAN


def _colour_char(v: int) -> str:
    if v == 0:
        return "."
    if v <= 9:
        return str(v)
    if v <= 35:
        return chr(ord("a") + v - 10)
    return "?"


def cmd_trace(args) -> int:
    instance = formats.parse_instance(_read(args.instance))
    hand0, plan = formats.parse_plan(_read(args.plan))
    try:
        for step, grid, hand in planner.replay(instance.grid, hand0, plan):
            print(f"step {step}  hand {_colour_char(hand)}")
            for row in grid.cells:
                print("".join(_colour_char(v) for v in row))
    except planner.ReplayError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID_PLAN
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = _load_instance(args.instance, args.goal)
    cells = instance.grid.height * instance.grid.width
    colours = instance.colour_count
    potential_bits = cells * (colours + 1).bit_length()
    if potential_bits > ORACLE_CAPACITY_BITS:
        raise oracle.CapacityExceededError(
            f"{cells} cells with {colours} colours is above the "
            "breadth-first search bound"
        )
    max_steps = args.max_steps
    if max_steps is None:
        max_steps = instance.block_total - instance.goal
    best = oracle.bfs_optimal(instance, max_steps)
    if best is None:
        print("NONE")
        return EXIT_UNSAT
    print(best.length)
    sys.stdout.write(formats.write_plan(best.hand0, best.plan))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plotting-solver",
        description="Solve Plotting puzzles optimally via bounded-horizon SAT",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write instance files")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--colours", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, help="one random instance")
    group.add_argument("--all", action="store_true", help="every instance")
    group.add_argument(
        "--canonical", action="store_true", help="one instance per colour renaming"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--allow-missing-colours", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="find a minimal plan")
    p.add_argument("--instance", required=True)
    p.add_argument("--goal", type=int)
    p.add_argument("--backend", help='"internal" or "external:CMD"')
    p.add_argument("--max-steps", type=int)
    p.add_argument("--hand", type=int, help="pin the initial hand colour")
    p.add_argument("--emit-cnf", help="directory for per-horizon DIMACS files")
    p.add_argument("--timeout", type=float, help="per-horizon seconds")
    p.add_argument(
        "--progress",
        choices=PROGRESS_MODES,
        default=PROGRESS_WITNESS,
        help="progress constraint encoding: consumptionWitness (default) adds "
        "no extra progress clause, since the no-null-move clauses imply "
        "consumption; cardinalityCompare counts each grid's colour sum in one "
        "totalizer per step and requires it to fall, and is refused (exit 3) "
        f"above a colour-sum range (colours x cells) of {MAX_SUM_RANGE}",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="replay a plan against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--goal", type=int)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="print the grid after every shot")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("oracle", help="breadth-first optimal plan (small grids)")
    p.add_argument("--instance", required=True)
    p.add_argument("--goal", type=int)
    p.add_argument("--max-steps", type=int)
    p.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for kind, code, label in FAILURES:
            if isinstance(exc, kind):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
