#!/usr/bin/env python3
"""Goal sweep over seeded instances, one line per decision instance.

Example:

    python scripts/sweep.py --height 5 --width 5 --colours 3 \
        --seeds 1 2 3 --goals 5 10 15 --backend "external:minisat" --timeout 60

For every (seed, goal) pair the planner probes horizons 1..blocks-goal and
the script prints one tab-separated line: the seed, the goal, the plan
length found, the outcome, the total wall time of that one
``planner.solve`` call and, in the ``per_horizon`` column, each probed
horizon's status, comma-separated, which makes the satisfiability flip at
the minimal horizon easy to eyeball. ``--backend`` takes ``internal`` or
``external:CMD``, as ``plotting-solver solve`` does. A failure the
command-line interface maps to an exit code (a rejected argument, a backend
that cannot be started or gives malformed output) ends the sweep with its
one stderr line and that code.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plotting_solver import cli, planner
from plotting_solver.generator import GeneratorSpec, random_instance


def sweep(args):
    backend = cli.parse_backend(args.backend)

    print("seed\tgoal\thorizon\tstatus\ttime_s\tper_horizon")
    for seed in args.seeds:
        spec = GeneratorSpec(args.height, args.width, args.colours, seed=seed)
        base = random_instance(spec)
        for goal in args.goals:
            instance = base.with_goal(goal)
            t0 = time.perf_counter()
            result = planner.solve(
                instance,
                backend=backend,
                per_horizon_timeout=args.timeout,
            )
            elapsed = time.perf_counter() - t0
            statuses = ",".join(st for _, st in result.horizon_statuses)
            horizon = result.horizon if result.found else "-"
            print(
                f"{seed}\t{goal}\t{horizon}\t{result.status}\t"
                f"{elapsed:.2f}\t{statuses}"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--height", type=int, required=True)
    ap.add_argument("--width", type=int, required=True)
    ap.add_argument("--colours", type=int, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--goals", type=int, nargs="+", required=True)
    ap.add_argument("--backend", default="internal")
    ap.add_argument("--timeout", type=float, help="per-horizon seconds")
    args = ap.parse_args()
    try:
        sweep(args)
    except Exception as exc:
        code = cli.report_failure(exc)
        if code is None:
            raise
        return code
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
