"""Exact transition semantics for the Plotting tile-matching puzzle.

Geometry: row 1 is the top row, column 1 is the leftmost column, and the
highest-numbered column sits against the wall. The avatar fires the block it
holds either rightward along a row or downward along a column. Cell value 0
means empty; colours are the contiguous integers 1..colour_count.

Rules realised by :func:`apply_shot`:

* The travelling block passes over empty cells.
* A block of the hand's colour is consumed and travel continues.
* The first block of a different colour swaps with the hand and travel stops,
  but only if at least one block was consumed first; otherwise the shot is a
  null move and is rejected.
* A row shot that clears the whole row hits the wall and drops down the last
  column, continuing to consume, until it swaps, or falls past the bottom and
  rebounds with the hand unchanged.
* After travel resolves, blocks above each consumed cell fall: one cell in
  consumed columns, and ``wall_fall`` cells in the last column after a wall
  drop.

Every rule condition is evaluated against the step-input grid; gravity is
applied once, after travel resolves.

Each shot kind has two parts on a grid's raw rows: its travel (whether the
shot is legal, how many blocks it consumes, where it stops), the one
definition of how a shot travels, and its build (the successor grid and
hand, from where the travel stopped). :func:`apply_shot` runs both and
wraps the result in a validated :class:`Grid` and a
:class:`TransitionOutcome`, raising for a null move. :func:`successors`
runs only the travel of every shot and :func:`build` the build of one, so
the breadth-first planner in :mod:`plotting_solver.oracle` tests a
successor for the goal from its consumed count and builds the state only
when it expands it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

EMPTY = 0


class ShotError(Exception):
    """A shot that cannot be applied to the given state."""


class NullMoveError(ShotError):
    """The shot would leave the grid unchanged; null moves are forbidden."""


class OutOfRangeError(ShotError):
    """Shot index outside the grid."""


@dataclass(frozen=True)
class RowShot:
    """Fire rightward along ``row`` (1-based, 1 = top)."""

    row: int


@dataclass(frozen=True)
class ColShot:
    """Fire downward along ``col`` (1-based, 1 = leftmost)."""

    col: int


Shot = Union[RowShot, ColShot]
Cells = tuple[tuple[int, ...], ...]
Travel = tuple[int, int]  # (consumed, stop): see the travel functions


def shot_axes(shot: Shot) -> tuple[int, int]:
    """Return the (fired_row, fired_col) pair, using 0 for the unused axis."""
    if isinstance(shot, RowShot):
        return shot.row, 0
    return 0, shot.col


@dataclass(frozen=True)
class Grid:
    """An immutable rows-by-columns matrix of cells (0 = empty)."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.cells or not self.cells[0]:
            raise ValueError("grid must have at least one row and one column")
        width = len(self.cells[0])
        for row in self.cells:
            if len(row) != width:
                raise ValueError("grid rows must all have the same width")
            for value in row:
                if value < 0:
                    raise ValueError("cell values must be >= 0")

    @classmethod
    def from_rows(cls, rows) -> "Grid":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def height(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return len(self.cells[0])

    def at(self, row: int, col: int) -> int:
        """Cell value at 1-based (row, col)."""
        return self.cells[row - 1][col - 1]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.cells]


@dataclass(frozen=True)
class Instance:
    """A puzzle instance: a completely full starting grid plus a goal.

    ``goal`` is the maximum number of blocks that may remain; ``None`` means
    the goal will be supplied later (e.g. from a command-line flag). The
    declared colour count is the maximum colour actually present.
    """

    grid: Grid
    goal: Optional[int] = None

    def __post_init__(self) -> None:
        for row in self.grid.cells:
            for value in row:
                if value == EMPTY:
                    raise ValueError("instance grids must be completely full")
        if self.goal is not None:
            if not 0 <= self.goal <= self.grid.height * self.grid.width:
                raise ValueError("goal must be within 0..height*width")

    @property
    def colour_count(self) -> int:
        return max(max(row) for row in self.grid.cells)

    @property
    def block_total(self) -> int:
        return self.grid.height * self.grid.width

    def with_goal(self, goal: int) -> "Instance":
        return Instance(self.grid, goal)


@dataclass(frozen=True)
class TransitionOutcome:
    """Result of a successful shot.

    ``wall_fall`` is the distance blocks above the fired row fall in the last
    column (0 unless a row shot cleared its row and something fell).
    ``consumed`` counts cells that went from occupied to empty, always >= 1.
    """

    next_grid: Grid
    next_hand: int
    wall_fall: int
    consumed: int
    hand_swapped: bool


def block_count(grid: Grid) -> int:
    """Number of occupied cells."""
    return sum(1 for row in grid.cells for v in row if v != EMPTY)


def colour_sum(grid: Grid) -> int:
    """Sum of all cell values (empty counts 0)."""
    return sum(v for row in grid.cells for v in row)


def is_goal(grid: Grid, goal: int) -> bool:
    """True iff at most ``goal`` blocks remain."""
    return block_count(grid) <= goal


def wall_fall(grid: Grid, hand: int, row: int) -> int:
    """Distance blocks above ``row`` fall in the last column for a row shot.

    Nonzero only when ``row`` >= 2, the whole fired row is empty or
    hand-coloured, the last-column cell just above the fired row is occupied,
    and the last column holds a run of hand-coloured cells starting at the
    fired row. The returned value is the length of that run. Raises
    :class:`OutOfRangeError` if ``row`` is outside the grid, as
    :func:`apply_shot` does.
    """
    if not 1 <= row <= grid.height:
        raise OutOfRangeError(f"row {row} outside 1..{grid.height}")
    travel = _row_travel(grid.cells, hand, row - 1)
    if travel is None or travel[1] < grid.width:
        return 0
    return _wall_fall(grid.cells, hand, row - 1)


def apply_shot(grid: Grid, hand: int, shot: Shot) -> TransitionOutcome:
    """Apply one shot, returning the successor state.

    Raises :class:`NullMoveError` if the shot would consume nothing and
    :class:`OutOfRangeError` if the shot index is outside the grid.
    """
    if isinstance(shot, RowShot):
        kind, index, size, travel = "row", shot.row, grid.height, _row_travel
    elif isinstance(shot, ColShot):
        kind, index, size, travel = "col", shot.col, grid.width, _col_travel
    else:
        raise TypeError(f"not a shot: {shot!r}")
    if not 1 <= index <= size:
        raise OutOfRangeError(f"{kind} {index} outside 1..{size}")
    cells = grid.cells
    out = travel(cells, hand, index - 1)
    if out is None:
        raise NullMoveError(f"{kind} shot {index} consumes nothing")
    consumed, stop = out
    next_cells, next_hand, fall = build(cells, hand, shot, stop)
    return TransitionOutcome(Grid(next_cells), next_hand, fall, consumed, next_hand != hand)


def successors(cells: Cells, hand: int) -> Iterator[tuple[Shot, Travel]]:
    """``(shot, (consumed, stop))`` for every shot that is not a null move,
    rows 1..height then columns 1..width. Only the travel is computed: pass
    ``stop`` to :func:`build` for the successor state."""
    height, width = len(cells), len(cells[0])
    shots = _shots(height, width)
    for r0 in range(height):
        travel = _row_travel(cells, hand, r0)
        if travel is not None:
            yield shots[r0], travel
    for c0 in range(width):
        travel = _col_travel(cells, hand, c0)
        if travel is not None:
            yield shots[height + c0], travel


def build(cells: Cells, hand: int, shot: Shot, stop: int) -> tuple[Cells, int, int]:
    """``(next_cells, next_hand, wall_fall)`` after a legal ``shot`` whose
    travel from this state stops at path index ``stop``; the wall fall is
    0 for a column shot."""
    if isinstance(shot, RowShot):
        return _row_build(cells, hand, shot.row - 1, stop)
    return _col_build(cells, hand, shot.col - 1, stop)


# One set of shot objects per grid shape, shared by every successor: a
# search stores a shot with each state it visits.
@lru_cache(maxsize=1)
def _shots(height: int, width: int) -> tuple[Shot, ...]:
    rows = tuple(RowShot(r) for r in range(1, height + 1))
    return rows + tuple(ColShot(c) for c in range(1, width + 1))


# A shot's path is the cells it crosses in order: a row shot's row left to
# right, then the last column below it; a column shot's column top down.
# The travel functions are the one definition of how a shot travels: each
# returns ``(consumed, stop)``, or None for a null move, where ``stop`` is
# the path index of the cell the hand swaps with, or the path's length when
# the shot rebounds. The build functions turn a stop into ``(next_cells,
# next_hand, wall_fall)``: every block on the path before the stop is of
# the hand's colour and consumed. A row the shot leaves unchanged is the
# parent's own tuple: ``rows`` starts as the parent's rows, and ``tuple``
# returns a tuple argument unchanged.


def _row_travel(cells: Cells, hand: int, r0: int) -> Optional[Travel]:
    fired = cells[r0]
    consumed = 0
    for c, v in enumerate(fired):
        if v != EMPTY:
            if v != hand:
                return (consumed, c) if consumed else None
            consumed += 1
    # The row is cleared: the shot hits the wall and drops down the last
    # column.
    height, last = len(cells), len(fired) - 1
    for rr in range(r0 + 1, height):
        v = cells[rr][last]
        if v != EMPTY:
            if v != hand:
                return (consumed, last + rr - r0) if consumed else None
            consumed += 1
    return (consumed, last + height - r0) if consumed else None


def _wall_fall(cells: Cells, hand: int, r0: int) -> int:
    # After a row shot at ``r0`` hits the wall, the last column above it
    # falls by the length of the run of hand-coloured cells from ``r0``
    # down, if anything is there to fall.
    fall = 0
    last = len(cells[0]) - 1
    if r0 and cells[r0 - 1][last] != EMPTY:
        while r0 + fall < len(cells) and cells[r0 + fall][last] == hand:
            fall += 1
    return fall


def _row_build(cells: Cells, hand: int, r0: int, stop: int) -> tuple[Cells, int, int]:
    fired = cells[r0]
    last = len(fired) - 1
    eaten = []  # columns consumed along the fired row
    dropped = []  # rows consumed down the last column
    if stop <= last:
        sr, sc = r0, stop  # the cell the hand swaps with, if in the grid
        for c in range(stop):
            if fired[c] != EMPTY:
                eaten.append(c)
    else:
        sr, sc = r0 + stop - last, last
        for c in range(last + 1):
            if fired[c] != EMPTY:
                eaten.append(c)
        for rr in range(r0 + 1, sr):
            if cells[rr][last] != EMPTY:
                dropped.append(rr)
    rows: list = list(cells)
    # Gravity: one cell above each consumed column of the fired row.
    for i in range(r0 + 1):
        row = rows[i] = list(cells[i])
        for c in eaten:
            row[c] = cells[i - 1][c] if i else EMPTY
    for rr in dropped:
        row = rows[rr] = list(cells[rr])
        row[last] = EMPTY
    next_hand = hand
    if sr < len(cells):
        next_hand = cells[sr][sc]
        if sr > r0:
            rows[sr] = list(cells[sr])
        rows[sr][sc] = hand
    fall = 0
    if eaten and eaten[-1] == last:
        # After a wall hit the last column falls ``fall`` cells, not one;
        # the shift overwrites the blanks the drop left.
        fall = _wall_fall(cells, hand, r0)
        for i in range(r0 + fall):
            rows[i][last] = cells[i - fall][last] if i >= fall else EMPTY
    return tuple(map(tuple, rows)), next_hand, fall


def _col_travel(cells: Cells, hand: int, c0: int) -> Optional[Travel]:
    consumed = 0
    for r, row in enumerate(cells):
        v = row[c0]
        if v != EMPTY:
            if v != hand:
                return (consumed, r) if consumed else None
            consumed += 1
    return (consumed, len(cells)) if consumed else None


def _col_build(cells: Cells, hand: int, c0: int, stop: int) -> tuple[Cells, int, int]:
    rows: list = list(cells)
    for r in range(stop):
        if cells[r][c0] != EMPTY:
            row = rows[r] = list(cells[r])
            row[c0] = EMPTY
    next_hand = hand
    if stop < len(cells):
        next_hand = cells[stop][c0]
        row = rows[stop] = list(cells[stop])
        row[c0] = hand
    # No gravity: only empty cells can sit above the consumed run.
    return tuple(map(tuple, rows)), next_hand, 0


def legal_shots(grid: Grid, hand: int) -> list[Shot]:
    """All shots apply_shot accepts, rows 1..height then columns 1..width."""
    return [shot for shot, _ in successors(grid.cells, hand)]
