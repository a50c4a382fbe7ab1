"""Bounded-horizon planning driver: iterate horizons, solve, decode, validate.

Horizons are probed in increasing order from 1 up to the sound bound
``blocks - goal`` (every shot consumes at least one block), so the first
satisfiable horizon is the minimal plan length; an undecided horizon ends
the solve, because no later horizon can prove a plan minimal. Decoded plans
are replayed through the engine and checked by the constraint-case oracle.
"""

from __future__ import annotations

import math
import os
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from . import cnf, encoder, engine, oracle
from .engine import Grid, Instance, Shot

Backend = Union[str, Sequence[str]]

INTERNAL_BACKEND = "internal"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of replaying a plan from the initial state."""

    ok: bool
    failed_step: Optional[int] = None  # 1-based index of the first bad shot
    reason: Optional[str] = None
    final_blocks: Optional[int] = None
    goal_met: Optional[bool] = None


@dataclass(frozen=True)
class PlanResult:
    """Found plan, proved absence within the bound, or unknown.

    ``horizon_statuses`` records one ``(steps, status)`` pair per probed
    horizon, in order: "sat", "unsat" or "unknown: <reason>". An undecided
    horizon ends the solve, because no later horizon can prove a plan minimal.
    """

    status: str  # "found" | "unsat" | "unknown"
    horizon: Optional[int] = None
    hand0: Optional[int] = None
    plan: tuple[Shot, ...] = ()
    max_steps: Optional[int] = None
    horizon_statuses: tuple[tuple[int, str], ...] = ()

    @property
    def found(self) -> bool:
        return self.status == "found"


class ReplayError(Exception):
    """A plan step that the engine or the constraint-case checker refused."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step  # 1-based index of the refused shot
        self.reason = reason


def replay(
    grid: Grid, hand0: int, plan: Sequence[Shot]
) -> Iterator[tuple[int, Grid, int]]:
    """Yield ``(step, grid, hand)`` from step 0 through the plan.

    Every shot is applied by the engine and the transition is then checked
    by the constraint-case oracle; the first shot that either refuses raises
    :class:`ReplayError` naming its step, after the states before it were
    yielded.
    """
    hand = hand0
    yield 0, grid, hand
    for step, shot in enumerate(plan, start=1):
        try:
            out = engine.apply_shot(grid, hand, shot)
        except engine.ShotError as exc:
            raise ReplayError(step, f"{type(exc).__name__}: {exc}") from exc
        cand = oracle.TransitionCandidate(
            prev_grid=grid,
            prev_hand=hand,
            shot=shot,
            next_grid=out.next_grid,
            next_hand=out.next_hand,
            wall_fall=out.wall_fall,
        )
        if not oracle.check_transition(cand):
            raise ReplayError(
                step, "transition rejected by the constraint-case checker"
            )
        grid, hand = out.next_grid, out.next_hand
        yield step, grid, hand


def validate_plan(
    instance: Instance, hand0: int, plan: Sequence[Shot]
) -> ValidationReport:
    """Replay ``plan`` through the engine, oracle-checking every step."""
    if instance.goal is None:
        raise ValueError("instance has no goal")
    try:
        for _, grid, _ in replay(instance.grid, hand0, plan):
            pass
    except ReplayError as exc:
        return ValidationReport(ok=False, failed_step=exc.step, reason=exc.reason)
    blocks = engine.block_count(grid)
    met = blocks <= instance.goal
    return ValidationReport(
        ok=met,
        failed_step=None,
        reason=None if met else f"{blocks} blocks remain, goal {instance.goal}",
        final_blocks=blocks,
        goal_met=met,
    )


def solve(
    instance: Instance,
    backend: Backend = INTERNAL_BACKEND,
    max_steps: Optional[int] = None,
    per_horizon_timeout: Optional[float] = None,
    *,
    fixed_hand: Optional[int] = None,
    progress_encoding: str = encoder.PROGRESS_WITNESS,
    emit_cnf_dir: Optional[Union[str, os.PathLike]] = None,
) -> PlanResult:
    """Find a minimal-length plan for ``instance``.

    Probes horizons 1.. in order; the status is "found" at the first
    satisfiable horizon, "unsat" when every horizon up to the bound is
    unsatisfiable, and "unknown" at the first undecided one: an undecided
    horizon ends the solve, because no later horizon can prove a plan minimal.
    ``per_horizon_timeout`` bounds each horizon's solver call on either
    backend; a horizon that runs out is undecided. An external command
    string is split with :func:`shlex.split` once, before horizon 1.

    Raises :class:`ValueError` for a missing goal, a ``fixed_hand`` outside
    the instance's colours, a negative ``max_steps`` or a
    ``per_horizon_timeout`` that is not a positive finite number.
    """
    if instance.goal is None:
        raise ValueError("instance has no goal")
    if fixed_hand is not None and not 1 <= fixed_hand <= instance.colour_count:
        raise ValueError(
            f"initial hand {fixed_hand} outside 1..{instance.colour_count}"
        )
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max steps {max_steps} is below 0")
    if per_horizon_timeout is not None and not 0 < per_horizon_timeout < math.inf:
        raise ValueError(
            f"timeout {per_horizon_timeout} is not a positive finite number"
        )
    if engine.is_goal(instance.grid, instance.goal):
        return PlanResult(
            status="found", horizon=0, hand0=fixed_hand or 1, plan=(), max_steps=0
        )

    bound = instance.block_total - instance.goal
    if max_steps is not None:
        bound = min(bound, max_steps)

    if isinstance(backend, str) and backend != INTERNAL_BACKEND:
        backend = shlex.split(backend)
    statuses: list[tuple[int, str]] = []
    for steps in range(1, bound + 1):
        options = encoder.EncodeOptions(
            steps=steps,
            fixed_initial_hand=fixed_hand,
            progress_encoding=progress_encoding,
        )
        formula, varmap = encoder.encode(instance, options)
        if emit_cnf_dir is not None:
            path = Path(emit_cnf_dir) / f"phi_{steps}.cnf"
            with open(path, "w") as fh:
                cnf.write_dimacs(formula, fh)
        if backend == INTERNAL_BACKEND:
            outcome = cnf.dpll_solve(formula, timeout=per_horizon_timeout)
        else:
            outcome = cnf.external_solve(formula, backend, timeout=per_horizon_timeout)
        if outcome.is_unsat:
            statuses.append((steps, "unsat"))
            continue
        if not outcome.is_sat:
            statuses.append((steps, f"unknown: {outcome.reason}"))
            return PlanResult(
                status="unknown", max_steps=bound, horizon_statuses=tuple(statuses)
            )
        statuses.append((steps, "sat"))
        trace = encoder.decode(outcome.model, varmap)
        report = validate_plan(instance, trace.initial_hand, trace.shots)
        if not report.ok:
            raise RuntimeError(
                f"decoded plan failed validation at horizon {steps}: "
                f"{report.reason}"
            )
        return PlanResult(
            status="found",
            horizon=steps,
            hand0=trace.initial_hand,
            plan=trace.shots,
            max_steps=bound,
            horizon_statuses=tuple(statuses),
        )
    return PlanResult(status="unsat", max_steps=bound, horizon_statuses=tuple(statuses))
