"""One step of a benchmark run, in a fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD SEED OUT
    python3 perfbench/child.py run PROBLEMS SECONDS COUNT OUT [SPANS]
    python3 perfbench/child.py expected

``setup`` writes a workload's problem list, with reference answers, to OUT.
``run`` solves the first COUNT problems of that list in order, stopping
early once SECONDS of entry-point time have been spent. It writes one JSON
line to OUT before each problem and one after, with the problem's wall
time and checked answer, so that a run killed at its deadline still shows
which problem it was on. Given SPANS, it traces the layers and writes the
kept spans there. ``expected`` writes bfs-5x5's
expected-answers file, with ``planner.solve``.

``run.py`` starts these; each starts from a cold template cache, as a
command-line user or ``scripts/sweep.py`` does.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plotting_solver"

if not (PACKAGE / "__init__.py").is_file():
    sys.exit(f"perfbench: no package at {PACKAGE}")
sys.path.insert(0, str(ROOT / "src"))

from plotting_solver import oracle, planner  # noqa: E402
from plotting_solver.engine import Grid, Instance  # noqa: E402

import workloads  # noqa: E402


# The host's speed, sampled between problems with fixed pure-Python work
# that does not touch the package: other tenants of a shared host changed
# every workload's speed by up to 40% for minutes at a time. ``run.py``
# scales the timed pass by the median sample; the raw figures stay in the
# run's record.
# The table is small and walked once untimed before the timed walk, so the
# sample does not depend on what the problem before it left in the caches.
REFERENCE_EVERY_S = 0.5
_REFERENCE_MASK = (1 << 12) - 1
_REFERENCE_TABLE = list(range(1 << 12))
random.Random(0).shuffle(_REFERENCE_TABLE)


def _reference_walk() -> int:
    table, seen, j = _REFERENCE_TABLE, set(), 0
    for k in range(60000):
        j = table[(j + k) & _REFERENCE_MASK]
        if j & 3 == 0:
            seen.add(j)
    return len(seen)


def reference_s() -> float:
    """Wall time of the fixed reference work: table walks and set inserts."""
    _reference_walk()
    start = time.perf_counter()
    _reference_walk()
    return time.perf_counter() - start


def _instance(problem: dict) -> Instance:
    return Instance(Grid.from_rows(problem["rows"]), problem["goal"])


def _check_solve(instance: Instance, problem: dict, result) -> dict:
    record = {
        "status": result.status,
        "horizons": [status for _, status in result.horizon_statuses],
        "length": result.horizon,
        "hand0": result.hand0,
    }
    ref = problem["ref"]
    if result.status == "unknown":
        record["why"] = "unknown status"
    elif ref is None and result.status != "unsat":
        record["why"] = f"{result.status}, reference has no plan"
    elif ref is not None and (result.status != "found" or result.horizon != ref):
        record["why"] = f"{result.status} at {result.horizon}, reference {ref}"
    elif result.found:
        report = planner.validate_plan(instance, result.hand0, result.plan)
        if not report.ok:
            record["why"] = f"replay failed at step {report.failed_step}: {report.reason}"
    return record


def _check_bfs(instance: Instance, problem: dict, result) -> dict:
    length = None if result is None else result.length
    record = {"length": length, "hand0": None if result is None else result.hand0}
    if problem["ref"] != length:
        record["why"] = f"length {length}, expected {problem['ref']}"
    elif result is not None and len(result.plan) != length:
        record["why"] = f"plan has {len(result.plan)} shots, length says {length}"
    elif result is not None:
        report = planner.validate_plan(instance, result.hand0, result.plan)
        if not report.ok:
            record["why"] = f"replay failed at step {report.failed_step}: {report.reason}"
    return record


def _entry(name: str):
    if name == "solve":
        return lambda instance: planner.solve(instance), _check_solve
    return (
        lambda instance: oracle.bfs_optimal(
            instance, instance.block_total - instance.goal
        ),
        _check_bfs,
    )


def run(problems_path: str, seconds: float, count: int, out_path: str, spans_path=None):
    data = json.loads(Path(problems_path).read_text())
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    call, check = _entry(data["entry"])
    spent = 0.0
    sampled = -REFERENCE_EVERY_S
    with open(out_path, "w") as out:
        for i, problem in enumerate(data["problems"][:count]):
            if spent >= seconds:
                break
            out.write(json.dumps({"start": i, "wall": time.time()}) + "\n")
            out.flush()
            instance = _instance(problem)
            error = None
            if tracer:
                tracer.begin(i)
            start = time.perf_counter()
            try:
                result = call(instance)
            except Exception as exc:  # a failed problem is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            counts = tracer.end() if tracer else {}
            spent += elapsed
            record = {"i": i, "t": elapsed}
            record.update(check(instance, problem, result) if error is None else {"why": error})
            record.update(counts)
            record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if not tracer and spent - sampled >= REFERENCE_EVERY_S:
                record["reference_s"] = reference_s()
                sampled = spent
            out.write(json.dumps(record) + "\n")
            out.flush()
        if tracer:
            out.write(json.dumps({"trace": tracer.summary()}) + "\n")
    if tracer:
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def expected() -> None:
    """Write bfs-5x5's expected plan lengths, computed with ``planner.solve``.

    The file is rewritten after every problem, and a run resumes from a
    partial file of the same pool.
    """
    pool = workloads.bfs_pool()
    digest = workloads.pool_digest(pool)
    path = workloads.EXPECTED
    lengths = []
    if path.is_file() and json.loads(path.read_text())["digest"] == digest:
        lengths = json.loads(path.read_text())["lengths"]
    for i in range(len(lengths), len(pool)):
        result = planner.solve(pool[i])
        if result.status == "unknown":
            sys.exit(f"problem {i}: unknown status")
        lengths.append(result.horizon if result.found else None)
        made = {
            "workload": "bfs-5x5",
            "made_with": "planner.solve, internal backend",
            "digest": digest,
            "lengths": lengths,
        }
        path.write_text(json.dumps(made) + "\n")


def main(argv: list[str]) -> None:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        workload, seed, out = args
        Path(out).write_text(json.dumps(workloads.build(workload, int(seed))))
    elif mode == "run":
        run(args[0], float(args[1]), int(args[2]), args[3], *args[4:])
    elif mode == "expected":
        expected()
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
