"""Planner benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sat-5x5 --seed 3 --seconds 35 --trace 0

Set-up runs three times, each in a fresh interpreter that imports the
package, generates the workload's problems from the seed and computes the
reference answers; ``setup_s`` is the median wall time of the three.

The timed run then solves the problems in order, in one more fresh
interpreter with a cold template cache, for SECONDS of entry-point time,
and every answer is checked. The run has a deadline; past it the child is
killed and its unfinished problem counts as failed. Its times are scaled to
the reference host speed by fixed work timed between problems; the raw
figures are kept in the saved record.

With ``--trace 1`` a fixed number of the workload's first problems are
solved once more with the layers traced, and the per-layer metrics, summed
over them, are printed instead.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Each run is also saved, with the Python
version, CPU count, load average and source digest, under
``perfbench/out/results/``; ``compare.py`` reads those.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
WORKLOADS = ("sat-5x5", "sat-shapes", "bfs-5x5")

SETUP_REPEATS = 3
SETUP_DEADLINE_S = 40.0
# Time allowed past SECONDS for the problem in flight to finish.
GRACE_S = 20.0
# Everything, traced pass included, ends within this many seconds.
BUDGET_S = 170.0
# Problems the traced pass solves: the same count on every commit, so that
# per-layer totals compare; each pass takes about 20 s where the benchmark
# was added.
TRACE_PROBLEMS = {"sat-5x5": 40, "sat-shapes": 200, "bfs-5x5": 600}
# Median time of child.reference_s() on the 2-CPU Xeon virtual machine the
# benchmark was added on: timed-pass figures are given at that host speed.
REFERENCE_S = 0.0085
# solve_p90_s needs ten samples above it.
P90_MIN_SAMPLES = 100
# Exact per-problem counts that must repeat between runs of the same code.
COUNTED = ("status", "horizons", "length", "hand0", "sizes", "expansions")


def _digest() -> str:
    """Hash of the package sources and the benchmark, naming what was run."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    files += sorted((HERE / "expected").glob("*.json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _child(args: list, deadline: float) -> tuple[int | None, float]:
    """Run a child to completion or kill it at ``deadline``.

    Returns its exit code (None if killed) and its wall time. The wait
    blocks and a timer kills the child: ``Popen.wait(timeout=...)`` polls
    with sleeps of up to 50 ms, which would round the wall time up to that
    grid.
    """
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        proc.kill()

    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *map(str, args)])
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), expire)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return (None if expired.is_set() else code), time.perf_counter() - start


def _read_pass(path: Path, killed: bool) -> dict:
    """Per-problem records of one pass, with unfinished problems failed."""
    starts, records, summary = {}, {}, None
    if path.exists():
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if "start" in item:
                starts[item["start"]] = item
            elif "trace" in item:
                summary = item["trace"]
            else:
                records[item["i"]] = item
    for i, start in starts.items():
        if i not in records:
            cause = "deadline expired" if killed else "child exited"
            elapsed = time.time() - start["wall"]
            records[i] = {"i": i, "t": elapsed, "why": f"unfinished: {cause}"}
    return {"records": [records[i] for i in sorted(records)], "summary": summary}


def _check_counts(path: Path, records: list[dict]) -> list[str]:
    """Compare exact counts with earlier runs of the same seed and code."""
    known = json.loads(path.read_text()) if path.exists() else {}
    diffs = []
    for record in records:
        if "why" in record:
            continue
        old = known.setdefault(str(record["i"]), {})
        for key in COUNTED:
            if key not in record:
                continue
            if key in old and old[key] != record[key]:
                diffs.append(f"problem {record['i']} {key}: {old[key]} != {record[key]}")
            old[key] = record[key]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known))
    return diffs


def _setup(args, work: Path, deadline: float) -> tuple[Path, list[float], list[str]]:
    """Set up SETUP_REPEATS times; return the problem list and wall times."""
    times, lists = [], []
    for k in range(SETUP_REPEATS):
        path = work / f"problems{k}.json"
        code, wall = _child(
            ["setup", args.workload, args.seed, path],
            min(deadline, time.monotonic() + SETUP_DEADLINE_S),
        )
        if code != 0:
            raise SystemExit(f"perfbench: set-up failed (exit {code})")
        times.append(wall)
        lists.append(path.read_bytes())
    notes = [] if len(set(lists)) == 1 else ["set-up gave different problem lists"]
    return work / "problems0.json", times, notes


def _passes(args, problems: Path, work: Path, spans: Path, deadline: float):
    """The timed pass, then with ``--trace 1`` the traced pass.

    Returns the passes and a note for each child that did not exit cleanly.
    """
    total = len(json.loads(problems.read_text())["problems"])
    out = work / "untraced.jsonl"
    code, _ = _child(
        ["run", problems, args.seconds, total, out],
        min(deadline, time.monotonic() + args.seconds + GRACE_S),
    )
    passes = [_read_pass(out, killed=code is None)]
    if not passes[0]["records"]:
        raise SystemExit(f"perfbench: timed run failed (exit {code})")
    codes = [("timed", code)]
    if args.trace:
        out = work / "traced.jsonl"
        count = min(TRACE_PROBLEMS[args.workload], total)
        code, _ = _child(["run", problems, "inf", count, out, spans], deadline)
        passes.append(_read_pass(out, killed=code is None))
        codes.append(("traced", code))
    notes = [
        f"{name} pass " + ("killed at its deadline" if code is None else f"exited {code}")
        for name, code in codes
        if code != 0
    ]
    if args.trace and passes[1]["summary"] is None:
        notes.append("traced pass wrote no summary")
    return passes, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so the child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "plotting_solver" / "__init__.py").is_file():
        print(f"perfbench: no package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": _commit(),
        "digest": _digest(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    tag = f"{args.workload}-seed{args.seed}"
    spans = OUT / "spans" / f"{tag}-{env['digest']}.jsonl"
    work = OUT / "tmp" / f"{tag}-{os.getpid()}"
    for path in (work, spans.parent):
        path.mkdir(parents=True, exist_ok=True)
    try:
        problems, setup_times, notes = _setup(args, work, deadline)
        passes, child_notes = _passes(args, problems, work, spans, deadline)
        notes += child_notes
    finally:
        shutil.rmtree(work)

    counts = OUT / "counts" / f"{tag}-{env['digest']}.json"
    for p in passes:
        notes += _check_counts(counts, p["records"])
    failures = [f"{r['i']}: {r['why']}" for p in passes for r in p["records"] if "why" in r]

    records = passes[0]["records"]
    raw_times = [r["t"] for r in records]
    samples = [r["reference_s"] for r in records if "reference_s" in r]
    # Below 1 on a host slower than the reference one.
    speed = REFERENCE_S / statistics.median(samples) if samples else 1.0
    times = [t * speed for t in raw_times]
    failed = sum("why" in r for r in records)
    extra = {
        "problems": len(records),
        "fail_frac": failed / len(records),
        "solve_p90_s": (
            statistics.quantiles(times, n=10, method="inclusive")[-1]
            if len(times) >= P90_MIN_SAMPLES
            else None
        ),
        "run_s": sum(times),
        "speed": speed,
        "reference_samples_s": samples,
        "raw_solves_per_s": (len(records) - failed) / sum(raw_times),
        "raw_solve_p50_s": statistics.median(raw_times),
        "setup_samples_s": setup_times,
        "raw_times_s": raw_times,
    }
    if args.trace:
        traced = passes[1]["records"]
        extra["trace_problems"] = len(traced)
        summary = passes[1]["summary"] or {"totals": [], "verdicts": {}}
        metrics = per_layer(summary, traced, records)
    else:
        metrics = {
            "solves_per_s": {"value": (len(records) - failed) / sum(times), "unit": "1/s"},
            "solve_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {
                "value": max(r.get("rss_kb", 0) for r in records) / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    result = {
        "correct": not failures and not notes,
        "attempted": sum(len(p["records"]) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }

    saved = OUT / "results" / env["digest"]
    saved.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (saved / f"{tag}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(
            dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, env=env, extra=extra, failures=failures, notes=notes),
            indent=1,
        )
        + "\n"
    )
    for line in notes + failures:
        print(f"perfbench: {line}")
    p90 = extra["solve_p90_s"]
    print(
        f"perfbench: {tag}: {len(records)} problems, {failed} failed, "
        f"p50 {statistics.median(times):.4f} s over {len(times)}, "
        + (f"p90 {p90:.4f} s" if p90 is not None else f"no p90 (<{P90_MIN_SAMPLES})")
        + f", setup {statistics.median(setup_times):.3f} s (median of {SETUP_REPEATS}),"
        f" python {env['python']}, nproc {env['nproc']}, load {env['loadavg'][0]:.2f}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
