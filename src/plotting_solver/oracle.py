"""Independent ground truth for transitions and optimal plans.

:func:`check_transition` evaluates the full state-and-action constraint case
analysis directly on a candidate transition, one predicate per rule case.
:func:`enumerate_successors` exhaustively searches the candidate space per
shot. These two are written independently of the transition rules in
:mod:`plotting_solver.engine`, sharing only its data types, so the two can
be played against each other. :func:`bfs_optimal` is a breadth-first optimal
planner over the travel and build parts of
:func:`plotting_solver.engine.apply_shot`: it tests each successor for the
goal from the blocks its shot consumes, and builds the successor's grid
only when it expands it (deferred evaluation, Richter & Helmert, ICAPS
2009, with delayed duplicate detection, Korf, AAAI 2004).

Convention used throughout: any atom that refers to a cell outside the grid
evaluates to False, for both equality and inequality atoms. Quantifications
over empty index ranges are vacuously true (for-all) or false (exists).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import engine
from .engine import (
    ColShot,
    Grid,
    Instance,
    RowShot,
    Shot,
    block_count,
    colour_sum,
    is_goal,
    shot_axes,
)

EMPTY = 0


class CapacityExceededError(Exception):
    """The requested exhaustive search is larger than the configured bound."""


@dataclass(frozen=True)
class TransitionCandidate:
    """One time-slice pair of states plus the action and wall-fall value."""

    prev_grid: Grid
    prev_hand: int
    shot: Shot
    next_grid: Grid
    next_hand: int
    wall_fall: int

    def __post_init__(self) -> None:
        if (self.prev_grid.height, self.prev_grid.width) != (
            self.next_grid.height,
            self.next_grid.width,
        ):
            raise ValueError("candidate grids must share dimensions")


class _Ctx:
    """Atom evaluators over one candidate, with out-of-range atoms false."""

    def __init__(self, cand: TransitionCandidate):
        self.prev = cand.prev_grid.cells
        self.next = cand.next_grid.cells
        self.hand = cand.prev_hand
        self.next_hand = cand.next_hand
        self.fp_row, self.fp_col = shot_axes(cand.shot)
        self.wall_fall = cand.wall_fall
        self.H = cand.prev_grid.height
        self.W = cand.prev_grid.width

    def in_range(self, r: int, c: int) -> bool:
        return 1 <= r <= self.H and 1 <= c <= self.W

    def prev_at(self, r: int, c: int) -> Optional[int]:
        if not self.in_range(r, c):
            return None
        return self.prev[r - 1][c - 1]

    def prev_empty(self, r: int, c: int) -> bool:
        return self.prev_at(r, c) == EMPTY

    def prev_nonempty(self, r: int, c: int) -> bool:
        v = self.prev_at(r, c)
        return v is not None and v != EMPTY

    def prev_is_hand(self, r: int, c: int) -> bool:
        return self.prev_at(r, c) == self.hand

    def prev_empty_or_hand(self, r: int, c: int) -> bool:
        v = self.prev_at(r, c)
        return v == EMPTY or v == self.hand

    def blocker(self, r: int, c: int) -> bool:
        """Occupied and not the hand's colour."""
        v = self.prev_at(r, c)
        return v is not None and v != EMPTY and v != self.hand

    def prev_eq(self, r1: int, c1: int, r2: int, c2: int) -> bool:
        a, b = self.prev_at(r1, c1), self.prev_at(r2, c2)
        return a is not None and b is not None and a == b

    def prev_neq(self, r1: int, c1: int, r2: int, c2: int) -> bool:
        a, b = self.prev_at(r1, c1), self.prev_at(r2, c2)
        return a is not None and b is not None and a != b


def _hand_unchanged_rhs(x: _Ctx) -> bool:
    """The two situations in which the hand keeps its colour."""
    # A column shot that passes every block and rebounds off the floor.
    if all(x.prev_empty_or_hand(rr, x.fp_col) for rr in range(1, x.H + 1)):
        return True
    # A row shot that clears its row, then drops through the last column.
    if all(x.prev_empty_or_hand(x.fp_row, cc) for cc in range(1, x.W + 1)) and all(
        x.prev_empty_or_hand(rr, x.W) for rr in range(x.fp_row + 1, x.H + 1)
    ):
        return True
    return False


def _empty_rhs(x: _Ctx, r: int, c: int) -> bool:
    """The six ways a cell ends up empty."""
    # Empty cells stay empty.
    if x.prev_empty(r, c):
        return True
    # Consumed by a column shot with a clear path above.
    if (
        x.fp_col == c
        and x.prev_is_hand(r, c)
        and all(x.prev_empty_or_hand(rr, x.fp_col) for rr in range(1, r))
    ):
        return True
    # Consumed by a row shot with nothing above to fall in.
    if (
        x.fp_row == r
        and x.prev_is_hand(r, c)
        and (r == 1 or x.prev_empty(r - 1, c))
        and all(x.prev_empty_or_hand(r, cc) for cc in range(1, c))
    ):
        return True
    # Consumed by the drop of a wall shot, nothing above on the last column.
    if (
        c == x.W
        and x.fp_row < r
        and x.prev_is_hand(r, x.W)
        and all(x.prev_empty_or_hand(x.fp_row, cc) for cc in range(1, x.W + 1))
        and all(x.prev_empty_or_hand(rr, x.W) for rr in range(x.fp_row + 1, r))
        and all(x.prev_empty(rr, x.W) for rr in range(1, x.fp_row))
    ):
        return True
    # Vacated: the block here fell into a consumption on a lower row.
    if (
        (r == 1 or x.prev_empty(r - 1, c))
        and x.fp_row > r
        and all(x.prev_empty_or_hand(x.fp_row, cc) for cc in range(1, c + 1))
    ):
        return True
    # Last column after a wall fall: whatever would land here is empty or
    # above the grid. Applies to cells strictly above where the fallen
    # stack ends (row < fired row + fall distance).
    if (
        c == x.W
        and x.wall_fall > 0
        and r < x.fp_row + x.wall_fall
        and (r - x.wall_fall < 1 or x.prev_empty(r - x.wall_fall, x.W))
    ):
        return True
    return False


def _same_rhs(x: _Ctx, r: int, c: int) -> bool:
    """The nine ways a cell keeps its value."""
    if x.prev_empty(r, c):
        return True
    # Fired below this row, but the shot stopped before reaching this column.
    if x.fp_row > r and any(x.blocker(x.fp_row, cc) for cc in range(1, c + 1)):
        return True
    # Fired along this row, but something is in the way to the left.
    if x.fp_row == r and any(x.blocker(r, cc) for cc in range(1, c)):
        return True
    # Fired along a row above; columns before the last are untouched.
    if c < x.W and x.fp_row != 0 and x.fp_row < r:
        return True
    # Fired along a row above, last column, but the travel stopped on the
    # row or in the column above this cell.
    if (
        c == x.W
        and x.fp_row != 0
        and x.fp_row < r
        and (
            any(x.blocker(x.fp_row, cc) for cc in range(1, x.W + 1))
            or any(
                rr >= x.fp_row and x.blocker(rr, x.W) for rr in range(1, r)
            )
        )
    ):
        return True
    # Fired down this column, but something above is in the way.
    if x.fp_col == c and any(x.blocker(rr, c) for rr in range(1, r)):
        return True
    # Fired down a different column.
    if x.fp_col != 0 and x.fp_col != c:
        return True
    # A same-coloured block falls here (single-cell fall, not last column).
    if (
        c < x.W
        and x.fp_row >= r
        and all(x.prev_empty_or_hand(x.fp_row, cc) for cc in range(1, c + 1))
        and x.prev_eq(r - 1, c, r, c)
    ):
        return True
    # A same-coloured block falls here after a wall fall (last column).
    # Applies to cells within the landing span (row < fired row + fall).
    if (
        c == x.W
        and x.wall_fall > 0
        and r < x.fp_row + x.wall_fall
        and x.prev_eq(r - x.wall_fall, c, r, c)
    ):
        return True
    return False


def _change_rhs(x: _Ctx, r: int, c: int, v: int) -> bool:
    """The five ways a cell changes to a different, non-empty colour ``v``."""
    # A different-coloured block falls one cell (not the last column).
    if (
        c < x.W
        and x.prev_nonempty(r - 1, c)
        and x.fp_row >= r
        and all(x.prev_empty_or_hand(x.fp_row, cc) for cc in range(1, c + 1))
        and v == x.prev_at(r - 1, c)
        and x.prev_neq(r, c, r - 1, c)
    ):
        return True
    # A different-coloured block lands here after a wall fall (last column,
    # within the landing span; the source cell must hold a block).
    if (
        c == x.W
        and x.wall_fall > 0
        and r < x.fp_row + x.wall_fall
        and x.prev_nonempty(r - x.wall_fall, x.W)
        and v == x.prev_at(r - x.wall_fall, x.W)
        and x.prev_neq(r, x.W, r - x.wall_fall, x.W)
    ):
        return True
    # Swap with the hand where a row shot stopped.
    if (
        r == x.fp_row
        and all(x.prev_empty_or_hand(x.fp_row, cc) for cc in range(1, c))
        and any(x.prev_is_hand(x.fp_row, cc) for cc in range(1, c))
        and x.next_hand == x.prev_at(r, c)
        and x.hand == v
        and x.hand != x.prev_at(r, c)
    ):
        return True
    # Swap with the hand where a column shot stopped.
    if (
        c == x.fp_col
        and all(x.prev_empty_or_hand(rr, x.fp_col) for rr in range(1, r))
        and any(x.prev_is_hand(rr, x.fp_col) for rr in range(1, r))
        and x.next_hand == x.prev_at(r, c)
        and x.hand == v
        and x.hand != x.prev_at(r, c)
    ):
        return True
    # Swap with the hand where the drop of a wall shot stopped.
    if (
        c == x.W
        and x.fp_row < r
        and all(x.prev_empty_or_hand(x.fp_row, cc) for cc in range(1, x.W))
        and all(
            x.prev_empty_or_hand(rr, x.W)
            for rr in range(1, r)
            if rr >= x.fp_row
        )
        and (
            any(x.prev_is_hand(x.fp_row, cc) for cc in range(1, x.W))
            or any(
                x.prev_is_hand(rr, x.W)
                for rr in range(1, r)
                if rr >= x.fp_row
            )
        )
        and x.next_hand == x.prev_at(r, x.W)
        and x.hand == v
        and x.hand != x.prev_at(r, x.W)
    ):
        return True
    return False


def _wall_fall_case(x: _Ctx, i: int) -> bool:
    """Whether a wall-fall distance of exactly ``i`` is justified."""
    for row in range(2, x.H + 1):
        if (
            x.fp_row == row
            and all(x.prev_empty_or_hand(row, cc) for cc in range(1, x.W + 1))
            and x.prev_nonempty(row - 1, x.W)
            and all(x.prev_is_hand(rr, x.W) for rr in range(row, row + i))
            and (
                row + i > x.H
                or (
                    x.prev_at(row + i, x.W) is not None
                    and x.prev_at(row + i, x.W) != x.hand
                )
            )
        ):
            return True
    return False


def check_transition(cand: TransitionCandidate) -> bool:
    """True iff the candidate satisfies every constraint case.

    Includes the progress requirement (the colour sum must strictly
    decrease) and the one-axis-per-shot requirement.
    """
    x = _Ctx(cand)
    if not (x.fp_row * x.fp_col == 0 and x.fp_row + x.fp_col > 0):
        return False
    if colour_sum(cand.prev_grid) <= colour_sum(cand.next_grid):
        return False
    if (x.hand == x.next_hand) != _hand_unchanged_rhs(x):
        return False
    for i in range(1, x.H + 1):
        if (x.wall_fall == i) != _wall_fall_case(x, i):
            return False
    for r in range(1, x.H + 1):
        for c in range(1, x.W + 1):
            nv = x.next[r - 1][c - 1]
            pv = x.prev[r - 1][c - 1]
            if (nv == EMPTY) != _empty_rhs(x, r, c):
                return False
            if (nv == pv) != _same_rhs(x, r, c):
                return False
            if ((nv != pv) and (nv != EMPTY)) != _change_rhs(x, r, c, nv):
                return False
    return True


def _all_shots(grid: Grid) -> list[Shot]:
    shots: list[Shot] = [RowShot(r) for r in range(1, grid.height + 1)]
    shots += [ColShot(c) for c in range(1, grid.width + 1)]
    return shots


def enumerate_successors(
    prev_grid: Grid,
    prev_hand: int,
    colour_count: Optional[int] = None,
    capacity: int = 10_000_000,
) -> list[tuple[Shot, TransitionCandidate]]:
    """Every accepted (next grid, next hand, wall fall) triple, per shot.

    The search space per shot is all grids over 0..K, all hands 1..K and all
    wall-fall values 0..height. Candidate cell values are first filtered by
    the per-cell constraint cases (each a necessary condition), then every
    surviving combination is confirmed with :func:`check_transition`.

    Raises :class:`CapacityExceededError` when the nominal space exceeds
    ``capacity``.
    """
    height, width = prev_grid.height, prev_grid.width
    K = colour_count
    if K is None:
        K = max(prev_hand, max(max(row) for row in prev_grid.cells))
    shots = _all_shots(prev_grid)
    nominal = len(shots) * (K + 1) ** (height * width) * K * (height + 1)
    if nominal > capacity:
        raise CapacityExceededError(
            f"enumeration space {nominal} exceeds capacity {capacity}"
        )

    results: list[tuple[Shot, TransitionCandidate]] = []
    prev_sum = colour_sum(prev_grid)
    for shot in shots:
        for wf in range(0, height + 1):
            for nh in range(1, K + 1):
                probe = TransitionCandidate(
                    prev_grid, prev_hand, shot, prev_grid, nh, wf
                )
                x = _Ctx(probe)
                if any(
                    (wf == i) != _wall_fall_case(x, i)
                    for i in range(1, height + 1)
                ):
                    continue
                if (prev_hand == nh) != _hand_unchanged_rhs(x):
                    continue
                allowed: list[list[int]] = []
                feasible = True
                for r in range(1, height + 1):
                    for c in range(1, width + 1):
                        pv = prev_grid.cells[r - 1][c - 1]
                        e = _empty_rhs(x, r, c)
                        s = _same_rhs(x, r, c)
                        vals = [
                            v
                            for v in range(0, K + 1)
                            if (v == EMPTY) == e
                            and (v == pv) == s
                            and ((v != pv and v != EMPTY))
                            == _change_rhs(x, r, c, v)
                        ]
                        if not vals:
                            feasible = False
                            break
                        allowed.append(vals)
                    if not feasible:
                        break
                if not feasible:
                    continue
                for combo in itertools.product(*allowed):
                    rows = tuple(
                        tuple(combo[r * width : (r + 1) * width])
                        for r in range(height)
                    )
                    if colour_sum(Grid(rows)) >= prev_sum:
                        continue
                    cand = TransitionCandidate(
                        prev_grid, prev_hand, shot, Grid(rows), nh, wf
                    )
                    if check_transition(cand):
                        results.append((shot, cand))
    return results


@dataclass(frozen=True)
class OptimalPlan:
    length: int
    hand0: int
    plan: tuple[Shot, ...]


def bfs_optimal(
    instance: Instance,
    max_steps: int,
    state_cap: int = 500_000,
) -> Optional[OptimalPlan]:
    """Minimal-length plan over all initial hand colours, or None.

    The initial hand is free (the wildcard block the avatar starts with),
    so every colour 1..colour_count is tried. Hand 1 searches up to
    ``max_steps``; each later hand searches only below the best length
    found so far (branch and bound), so it can only replace the best plan
    with a strictly shorter one and ties still go to the smaller initial
    hand. Within one search, ties go to breadth-first visit order with rows
    expanded before columns.

    A state is built when it is expanded: each successor is tested for the
    goal from the blocks its shot consumes and queued unbuilt, so the layer
    where the goal is found, and the last layer within the bound, are
    tested but never built or stored. A successor that repeats
    an earlier state has that state's block count, so the first goal met is
    the first visit of its state, as in a search that builds every
    successor.

    Raises :class:`CapacityExceededError` when one hand's search, within
    its bound, expands more than ``state_cap`` states, and
    :class:`ValueError` for a missing goal or a negative ``max_steps``.
    An expanded state costs about 520 bytes on a 5x5 grid (Python 3.11),
    queued successors included, so one search at the default cap holds
    about 260 MB. Exhaustive 5x5/3 searches (generator seeds 1-8, goal 0)
    expand 6 to 419,104 states per hand and fit; the CLI's largest
    admitted shapes go past it (6x6/2, seed 1, goal 0: refused after
    10-13 s CPU at 381 MB max RSS).
    """
    if instance.goal is None:
        raise ValueError("instance has no goal")
    if max_steps < 0:
        raise ValueError(f"max steps {max_steps} is below 0")
    goal = instance.goal
    if is_goal(instance.grid, goal):
        return OptimalPlan(0, 1, ())
    best: Optional[OptimalPlan] = None
    for hand0 in range(1, instance.colour_count + 1):
        bound = max_steps if best is None else best.length - 1
        if bound == 0:
            break
        found = _bfs_from(instance.grid, hand0, goal, bound, state_cap)
        if found is not None:
            best = OptimalPlan(found[0], hand0, found[1])
    return best


def _bfs_from(
    grid: Grid,
    hand0: int,
    goal: int,
    max_steps: int,
    state_cap: int,
) -> Optional[tuple[int, tuple[Shot, ...]]]:
    start = (grid.cells, hand0)
    parents: dict = {start: None}
    # A layer lists its successors unbuilt, each a run of four items
    # (parent, shot, stop, blocks) in one flat list rather than a tuple, so
    # the queue adds no objects for the garbage collector to track. Each is
    # built, de-duplicated and counted only when it is expanded.
    layer = [None, None, 0, block_count(grid)]
    depth = 0
    while layer and depth < max_steps:
        depth += 1
        last = depth == max_steps
        next_layer: list = []
        unbuilt = iter(layer)
        for parent, shot, stop, blocks in zip(unbuilt, unbuilt, unbuilt, unbuilt):
            if parent is None:
                state = start
                cells, hand = start
            else:
                cells, hand = parent
                cells, hand, _ = engine.build(cells, hand, shot, stop)
                state = cells, hand
                link = (parent, shot)
                # one hash of the grid per built successor: a tuple caches none
                if parents.setdefault(state, link) is not link:
                    continue
                if len(parents) > state_cap:
                    raise CapacityExceededError(
                        f"breadth-first search exceeded {state_cap} states"
                    )
            for shot, (consumed, stop) in engine.successors(cells, hand):
                left = blocks - consumed
                # a repeated state has its first visit's block count, so the
                # first goal met is never a repeat
                if left <= goal:
                    plan = [shot]
                    cur = state
                    while parents[cur] is not None:
                        cur, used = parents[cur]
                        plan.append(used)
                    plan.reverse()
                    return depth, tuple(plan)
                if not last:
                    next_layer += state, shot, stop, left
        layer = next_layer
    return None
