"""Compare the benchmark results of two commits, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the run records ``run.py`` saved for one commit, as
in ``perfbench/out/results/<digest>/``. Runs are paired by workload and
seed. For every workload and metric the report gives each side's median
and quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

- ``improved``: the change wins at least nine tenths of the pairs and its
  median is better by more than the base's own spread (the distance
  between its quartiles);
- ``worse``: the change's median is worse than the base's by more than the
  metric's bound, or, for a metric with no bound, the base wins by the
  rule above;
- ``unresolved``: either side's spread, as a share of its median, is wider
  than the bound, and not every change run beats every base run; for a
  metric with no bound, anything neither improved nor worse;
- ``within bound``: otherwise.

Bounds and directions are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(workload, metric): {seed: [values in run order]}}"""
    runs = sorted(
        (json.loads(p.read_text()) for p in directory.glob("*.json")),
        key=lambda r: r["env"]["started"],
    )
    values: dict = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)][run["seed"]].append(metric["value"])
    return values


def _quartiles(side: dict) -> tuple[list[float], float, float, float]:
    values = [v for vs in side.values() for v in vs]
    if len(values) == 1:
        return values, values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return values, q1, med, q3


def verdict(base: dict, change: dict, lower_is_better: bool, bound) -> tuple:
    """Pairs won, pairs, and the verdict for one workload and metric."""
    sign = -1 if lower_is_better else 1
    pairs = [
        sign * (c - b)
        for seed in sorted(set(base) & set(change))
        for b, c in zip(base[seed], change[seed])
    ]
    wins = sum(d > 0 for d in pairs)
    losses = sum(d < 0 for d in pairs)
    b_all, bq1, bmed, bq3 = _quartiles(base)
    c_all, cq1, cmed, cq3 = _quartiles(change)
    gain = sign * (cmed - bmed)

    def decisive(won: int) -> bool:
        return bool(pairs) and won >= 0.9 * len(pairs)

    if decisive(wins) and gain > bq3 - bq1:
        word = "improved"
    elif bound is None:
        word = "worse" if decisive(losses) and -gain > cq3 - cq1 else "unresolved"
    elif max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed) > bound and not (
        min(sign * c for c in c_all) > max(sign * b for b in b_all)
    ):
        word = "unresolved"
    elif -gain / bmed > bound:
        word = "worse"
    else:
        word = "within bound"
    return wins, len(pairs), word


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    print(
        f"{'workload':11s} {'metric':29s} {'base median [q1, q3] (n)':34s}"
        f" {'change median [q1, q3] (n)':34s} {'change':>7s}  won    verdict"
    )
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in metrics:
            continue
        m = metrics[name]
        wins, pairs, word = verdict(
            base[key], change[key], m["better"] == "lower", m.get("bound")
        )
        cols = []
        for side in (base[key], change[key]):
            values, q1, med, q3 = _quartiles(side)
            cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})")
        bmed, cmed = _quartiles(base[key])[2], _quartiles(change[key])[2]
        delta = f"{(cmed - bmed) / bmed:+.1%}" if bmed else "n/a"
        print(
            f"{workload:11s} {name:29s} {cols[0]:34s} {cols[1]:34s} {delta:>7s}"
            f"  {wins:2d}/{pairs:<2d}  {word}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
