"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces each layer's public functions with wrappers. The
planner and the oracle reach the other layers through module attributes
(``encoder.encode``, ``cnf.dpll_solve``, ``engine.apply_shot``, ...), looked
up at call time, so every call between layers passes through a wrapper and
nothing under ``src/`` changes. Spans are recorded only while a problem's
entry-point call runs, so the benchmark's own answer checks stay out.

A span's self time is its duration minus the time of the wrapped calls made
inside it. The planner, encoder, solver and BFS spans are kept one by one
and written out when the run ends; the engine and transition-checker calls
(millions on ``bfs-5x5``) are only summed.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module of plotting_solver, public function, span name)
WRAPPED = (
    ("planner", "solve", "planner.solve"),
    ("planner", "validate_plan", "planner.validate"),
    ("encoder", "encode", "encoder.encode"),
    ("encoder", "decode", "encoder.decode"),
    ("cnf", "dpll_solve", "cnf.solve"),
    ("engine", "apply_shot", "engine.apply_shot"),
    ("engine", "legal_shots", "engine.legal_shots"),
    ("oracle", "check_transition", "oracle.check_transition"),
    ("oracle", "bfs_optimal", "oracle.bfs"),
)
KEPT = frozenset(
    {
        "planner.solve",
        "planner.validate",
        "encoder.encode",
        "encoder.decode",
        "cnf.solve",
        "oracle.bfs",
    }
)


class Tracer:
    """Spans and counts for the problems solved while it is installed."""

    def __init__(self) -> None:
        self.problem: int | None = None
        self.stack: list[list] = []  # open spans: [name, child seconds, kept id]
        self.totals: dict[tuple, list] = {}  # (name, parent) -> [calls, s, self s]
        self.verdicts: dict[str, list] = {}  # solver status -> [calls, s]
        self.spans: list[tuple] = []  # (id, parent id, name, problem, start, end)
        self.sizes: list[list[int]] = []  # (vars, clauses) per encode, this problem
        self._next_id = 0

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(f"plotting_solver.{module_name}")
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def begin(self, problem: int) -> None:
        self.problem = problem
        self.sizes = []
        self._expansions_before = self._calls("engine.apply_shot", "oracle.bfs")

    def end(self) -> dict:
        """Stop recording; return the problem's exact counts."""
        self.problem = None
        expansions = self._calls("engine.apply_shot", "oracle.bfs")
        return {
            "sizes": self.sizes,
            "expansions": expansions - self._expansions_before,
        }

    def _calls(self, name: str, parent: str) -> int:
        return self.totals.get((name, parent), (0,))[0]

    def _wrap(self, fn, name: str):
        kept = name in KEPT
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.problem is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else None
            if kept:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent_id
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent:
                    parent[1] += duration
                key = (name, parent[0] if parent else None)
                acc = self.totals.get(key)
                if acc is None:
                    acc = self.totals[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[1]
                if kept:
                    self.spans.append(
                        (span_id, parent_id, name, self.problem, start, end)
                    )
            if name == "encoder.encode":
                formula = result[0]
                self.sizes.append([formula.var_count, len(formula.clauses)])
            elif name == "cnf.solve":
                verdict = self.verdicts.setdefault(result.status, [0, 0.0])
                verdict[0] += 1
                verdict[1] += duration
            return result

        return traced

    def summary(self) -> dict:
        """Totals per (span, parent) and per solver verdict, JSON-ready."""
        return {
            "totals": [[n, p, *acc] for (n, p), acc in self.totals.items()],
            "verdicts": self.verdicts,
        }


def per_layer(summary: dict, records: list[dict], untraced: list[dict]) -> dict:
    """The per-layer metrics of a traced pass.

    ``records`` are the traced pass's per-problem records and ``untraced``
    the timed pass's. Layer times are the spans' own wall times, summed over
    the traced problems; ``trace.overhead_frac`` compares the problems both
    passes solved.
    """
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for name, parent, n, s, own in summary["totals"]:
        calls[name] = calls.get(name, 0) + n
        seconds[name] = seconds.get(name, 0.0) + s
        self_s[name] = self_s.get(name, 0.0) + own
    direct = {(n, p): c for n, p, c, _, _ in summary["totals"]}
    verdicts = summary["verdicts"]
    sizes = [size for r in records for size in r.get("sizes", ())]
    solves = [r for r in records if "horizons" in r]
    both = min(len(records), len(untraced))
    traced_s = sum(r["t"] for r in records[:both])
    untraced_s = sum(r["t"] for r in untraced[:both])
    solve_s = seconds.get("cnf.solve", 0.0)
    bfs_s = seconds.get("oracle.bfs", 0.0)
    expansions = direct.get(("engine.apply_shot", "oracle.bfs"), 0)

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    values = {
        "planner.solve_s": (seconds.get("planner.solve", 0.0), "s"),
        "planner.self_s": (self_s.get("planner.solve", 0.0), "s"),
        "planner.horizons_per_solve": (
            mean([len(r["horizons"]) for r in solves]),
            "count",
        ),
        "planner.validate_s": (seconds.get("planner.validate", 0.0), "s"),
        "encoder.encode_s": (seconds.get("encoder.encode", 0.0), "s"),
        "encoder.encode_calls": (calls.get("encoder.encode", 0), "count"),
        "encoder.decode_s": (seconds.get("encoder.decode", 0.0), "s"),
        "encoder.vars_per_horizon": (mean([v for v, _ in sizes]), "count"),
        "encoder.clauses_per_horizon": (mean([c for _, c in sizes]), "count"),
        "cnf.solve_s": (solve_s, "s"),
        "cnf.solve_calls": (calls.get("cnf.solve", 0), "count"),
        "cnf.sat_s": (verdicts.get("sat", [0, 0.0])[1], "s"),
        "cnf.unsat_s": (verdicts.get("unsat", [0, 0.0])[1], "s"),
        "cnf.unknown_calls": (verdicts.get("unknown", [0, 0.0])[0], "count"),
        "cnf.unsat_frac": (
            verdicts.get("unsat", [0, 0.0])[1] / solve_s if solve_s else 0.0,
            "ratio",
        ),
        "engine.apply_shot_calls": (calls.get("engine.apply_shot", 0), "count"),
        "engine.apply_shot_s": (seconds.get("engine.apply_shot", 0.0), "s"),
        "engine.legal_shots_calls": (calls.get("engine.legal_shots", 0), "count"),
        "engine.legal_shots_s": (seconds.get("engine.legal_shots", 0.0), "s"),
        "oracle.bfs_s": (bfs_s, "s"),
        "oracle.bfs_expansions": (expansions, "count"),
        "oracle.bfs_expansions_per_s": (expansions / bfs_s if bfs_s else 0.0, "1/s"),
        "oracle.check_transition_calls": (
            calls.get("oracle.check_transition", 0),
            "count",
        ),
        "oracle.check_transition_s": (
            seconds.get("oracle.check_transition", 0.0),
            "s",
        ),
        "trace.overhead_frac": (traced_s / untraced_s - 1 if untraced_s else 0.0, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
