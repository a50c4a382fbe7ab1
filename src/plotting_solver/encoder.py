"""Bounded-horizon CNF encoding of Plotting instances, and model decoding.

Every multi-valued quantity (grid cell, hand, fired row, fired column, wall
fall) becomes a one-hot group of propositional variables per time step. The
transition rules are emitted per step as if-and-only-if constraints between
the step's state variables, reified case by case, so unconstrained values
cannot leak: cells keep their values unless a rule case says otherwise.
A rule "``a`` holds exactly when one of its cases does" is the clause
``(¬a ∨ c1 ∨ … ∨ cn)`` plus ``(¬ci ∨ a)`` per case, with no variable for
the OR; where ``a`` is a conjunction, as in a cell's "changes colour" rule
(neither the same value nor empty), those clauses are expanded and ``a``
gets no variable either. A case is an AND gate over literals (an OR inside
a case is the negation of the AND over the negated terms). That two one-hot
groups hold the same value is one literal with three clauses per value.

A shot's travel is defined once, as its path: a row shot crosses its row
left to right and then the last column below it, and a column shot crosses
its column top down. Every rule reads the travel through two prefix
literals per path cell ``k``, each one AND gate on the one before: "the
first ``k`` cells are empty or of the hand's colour" (the shot got that far)
and "one of the first ``k`` held the hand's colour" (it consumed
something). A case reads a shot literal and a prefix literal, so a
consumption, a stop or a swap at a cell is the same case for every shot
that crosses the cell.

Every auxiliary variable of a step is a function of lower-index state and
action variables, which unit propagation fixes once those are set, so the
DPLL solver, branching on the lowest index, never decides one.

Variable allocation is deterministic: step 0 grid cells (row major, value
0..K per cell) and the step-0 hand come first. Each step then follows in
turn: its primary groups (fired row, fired column, wall fall, grid, hand),
then the auxiliary (gate) variables of its transition rules. The goal's
counter variables come last, so DIMACS output is byte-stable for a given
instance and options. :meth:`VarMap.groups` is the one list of a step's
one-hot groups; the encoder emits an ``exactly_one`` over each and
:func:`decode` reads each back. The steps depend only on the grid's shape
and the progress style, so each is emitted once per shape and shared by
every horizon (see :class:`_Chain`); one module lock guards that sharing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence, Union

from .cnf import CnfFormula, and_gate, at_least_k, exactly_one
from .engine import ColShot, Grid, Instance, RowShot, Shot

PROGRESS_WITNESS = "consumptionWitness"
PROGRESS_CARDINALITY = "cardinalityCompare"
PROGRESS_MODES = (PROGRESS_WITNESS, PROGRESS_CARDINALITY)

EMPTY = 0


class InvalidHorizonError(ValueError):
    """Horizons below one step cannot be encoded."""


class MalformedModelError(RuntimeError):
    """A satisfying model violated a one-hot group; encoder bug."""


@dataclass(frozen=True)
class EncodeOptions:
    """Horizon length, optional pinned initial hand, progress style.

    The initial hand is left free by default, which is how the wildcard
    block the avatar starts with is modelled. ``progress_encoding`` selects
    between a per-step consumed-cell witness (default) and a unary
    comparison of the grids' colour sums.
    """

    steps: int
    fixed_initial_hand: Optional[int] = None
    progress_encoding: str = PROGRESS_WITNESS


@dataclass(frozen=True)
class VarMap:
    """Deterministic mapping from (step, state variable, value) to var ids.

    ``state_bases[t]`` is the first id of step ``t``'s grid group, which the
    step's hand group follows. From step 1 on, the step's fired-row,
    fired-column and wall-fall groups come just before its grid.
    """

    height: int
    width: int
    colours: int
    state_bases: tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.state_bases) - 1

    @property
    def _grid_block(self) -> int:
        return self.height * self.width * (self.colours + 1)

    @property
    def _state_block(self) -> int:
        return self._grid_block + self.colours

    @property
    def _shot_block(self) -> int:
        return (self.height + 1) + (self.width + 1) + (self.height + 1)

    def grid_var(self, step: int, row: int, col: int, value: int) -> int:
        offset = ((row - 1) * self.width + (col - 1)) * (self.colours + 1) + value
        return self.state_bases[step] + offset

    def hand_var(self, step: int, colour: int) -> int:
        return self.state_bases[step] + self._grid_block + (colour - 1)

    def row_shot_var(self, step: int, value: int) -> int:
        return self.state_bases[step] - self._shot_block + value

    def col_shot_var(self, step: int, value: int) -> int:
        return self.state_bases[step] - self._shot_block + (self.height + 1) + value

    def wall_fall_var(self, step: int, value: int) -> int:
        return self.state_bases[step] - (self.height + 1) + value

    def groups(self, step: int) -> list[tuple[str, int, list[int]]]:
        """The step's one-hot groups as ``(label, lowest value, ids)``, in the
        order they are emitted: each cell (values 0..K, row major), the hand
        (1..K), then from step 1 on the fired row (0..H), the fired column
        (0..W) and the wall fall (0..H)."""
        s, H, W, K = step, self.height, self.width, self.colours
        groups = [
            (f"grid({s},{r},{c})", 0, [self.grid_var(s, r, c, v) for v in range(K + 1)])
            for r in range(1, H + 1)
            for c in range(1, W + 1)
        ]
        groups.append((f"hand({s})", 1, [self.hand_var(s, v) for v in range(1, K + 1)]))
        if s > 0:
            rows, cols = range(H + 1), range(W + 1)
            groups += [
                (f"fired row({s})", 0, [self.row_shot_var(s, v) for v in rows]),
                (f"fired col({s})", 0, [self.col_shot_var(s, v) for v in cols]),
                (f"wall fall({s})", 0, [self.wall_fall_var(s, v) for v in rows]),
            ]
        return groups


@dataclass(frozen=True)
class DecodedTrace:
    """A plan plus the full state trajectory read out of a model."""

    initial_hand: int
    shots: tuple[Shot, ...]
    wall_falls: tuple[int, ...]
    grids: tuple[Grid, ...]
    hands: tuple[int, ...]


class _Const:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


TRUE = _Const("TRUE")
FALSE = _Const("FALSE")

Expr = Union[int, _Const]


class _Builder:
    """Constraint builder with constant folding and gate memoisation.

    ``conj`` builds AND gates, and ``disj`` the negation of the AND over its
    negated terms. ``same`` builds a one-hot equality literal.
    ``require_any`` and ``require_iff_any`` emit clauses and no variable.
    ``path`` lists the cells a shot crosses, ``crossings`` the shots that
    cross a cell, and ``path_clear`` and ``path_hit`` are the memoised
    prefix literals over a path: ``path_clear(k)`` is
    ``path_clear(k-1) ∧ clear(cell k)`` and ``path_hit(k)`` is
    ``path_hit(k-1) ∨ prev_is_hand(cell k)``.
    """

    def __init__(self, formula: CnfFormula, varmap: VarMap) -> None:
        self.f = formula
        self.vm = varmap
        self.memo: dict = {}

    # -- boolean structure -------------------------------------------------

    def neg(self, t: Expr) -> Expr:
        if t is TRUE:
            return FALSE
        if t is FALSE:
            return TRUE
        return -t

    def conj(self, terms: Sequence[Expr]) -> Expr:
        lits = set()
        for t in terms:
            if t is FALSE:
                return FALSE
            if t is not TRUE:
                if -t in lits:
                    return FALSE
                lits.add(t)
        if not lits:
            return TRUE
        if len(lits) == 1:
            return lits.pop()
        inputs = tuple(sorted(lits))
        key = ("and", inputs)
        if key not in self.memo:
            self.memo[key] = and_gate(self.f, inputs)
        return self.memo[key]

    def disj(self, terms: Sequence[Expr]) -> Expr:
        return self.neg(self.conj([self.neg(t) for t in terms]))

    def require_any(self, terms: Sequence[Expr]) -> None:
        """One clause: at least one of ``terms`` holds."""
        lits: dict[int, None] = {}
        for t in terms:
            if t is TRUE:
                return
            if t is not FALSE:
                if -t in lits:
                    return
                lits[t] = None
        if lits:
            self.f.add_clause(lits)
        else:
            self.f.add_false()

    def require_iff_any(self, a: Expr, cases: Sequence[Expr]) -> None:
        """``a`` holds exactly when one of ``cases`` does, as plain clauses
        ``(¬a ∨ c1 ∨ … ∨ cn)`` and ``(¬ci ∨ a)``, with no gate for the OR."""
        lits: dict[int, None] = {}
        for t in cases:
            if t is FALSE:
                continue
            if t is TRUE or -t in lits:
                self.require_any([a])
                return
            lits[t] = None
        self.require_any([self.neg(a), *lits])
        if a is TRUE:
            return
        for t in lits:
            if a is FALSE:
                self.f.add_clause((-t,))
            elif t != a:
                self.f.add_clause((a,) if t == -a else (-t, a))

    # -- atoms -------------------------------------------------------------

    def in_range(self, r: int, c: int) -> bool:
        return 1 <= r <= self.vm.height and 1 <= c <= self.vm.width

    def cell(self, t: int, r: int, c: int, v: int) -> Expr:
        if not self.in_range(r, c):
            return FALSE
        return self.vm.grid_var(t, r, c, v)

    def cell_empty(self, t: int, r: int, c: int) -> Expr:
        return self.cell(t, r, c, EMPTY)

    def same(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Fresh literal ``e``: the groups, listed value by value, hold the
        same value.

        ``xs`` must be an exactly-one group; ``ys`` may be exactly-one or
        at-most-one (then ``e`` is false when no ``y`` holds). Per value
        ``v`` three clauses: ``(¬x_v ∨ ¬y_v ∨ e)``, ``(¬e ∨ ¬x_v ∨ y_v)``
        and ``(¬e ∨ x_v ∨ ¬y_v)``; the third lets a known ``e`` and ``y_v``
        fix ``x_v``, as the OR of pairwise ANDs it replaces did.
        """
        e = self.f.new_var()
        for x, y in zip(xs, ys):
            self.f.add_clause((-x, -y, e))
            self.f.add_clause((-e, -x, y))
            self.f.add_clause((-e, x, -y))
        return e

    def hand_cell_eq(self, hand_step: int, cell_step: int, r: int, c: int) -> Expr:
        """The hand at one step matches the cell's colour at another step."""
        if not self.in_range(r, c):
            return FALSE
        key = ("hce", hand_step, cell_step, r, c)
        if key not in self.memo:
            values = range(1, self.vm.colours + 1)
            self.memo[key] = self.same(
                [self.vm.hand_var(hand_step, v) for v in values],
                [self.vm.grid_var(cell_step, r, c, v) for v in values],
            )
        return self.memo[key]

    def prev_is_hand(self, s: int, r: int, c: int) -> Expr:
        return self.hand_cell_eq(s - 1, s - 1, r, c)

    def clear(self, s: int, r: int, c: int) -> Expr:
        """Cell is empty or matches the hand, at the step before ``s``."""
        return self.disj([self.cell_empty(s - 1, r, c), self.prev_is_hand(s, r, c)])

    # -- a shot's path -----------------------------------------------------

    def shots(self) -> list[tuple[int, int]]:
        """Every shot as ``(fired row, fired column)``, 0 on the axis not
        fired, as in ``engine.shot_axes``: columns first, then rows."""
        H, W = self.vm.height, self.vm.width
        return [(0, c) for c in range(1, W + 1)] + [(rv, 0) for rv in range(1, H + 1)]

    def fired(self, s: int, shot: tuple[int, int]) -> int:
        rv, c = shot
        return self.vm.row_shot_var(s, rv) if rv else self.vm.col_shot_var(s, c)

    def path(self, shot: tuple[int, int]) -> list[tuple[int, int]]:
        """The cells the shot crosses, in order: a row shot runs along its
        row, then down the last column; a column shot runs down its column."""
        key = ("path", shot)
        if key not in self.memo:
            (rv, c), H, W = shot, self.vm.height, self.vm.width
            if rv:
                cells = [(rv, cc) for cc in range(1, W + 1)]
                cells += [(rr, W) for rr in range(rv + 1, H + 1)]
            else:
                cells = [(rr, c) for rr in range(1, H + 1)]
            self.memo[key] = cells
        return self.memo[key]

    def crossings(self, r: int, c: int) -> list[tuple[tuple[int, int], int]]:
        """Every ``(shot, k)`` whose path's ``k``-th cell is ``(r, c)``."""
        if "crossings" not in self.memo:
            table: dict = {}
            for shot in self.shots():
                for k, cell in enumerate(self.path(shot), 1):
                    table.setdefault(cell, []).append((shot, k))
            self.memo["crossings"] = table
        return self.memo["crossings"][r, c]

    def path_clear(self, s: int, shot: tuple[int, int], k: int) -> Expr:
        """The first ``k`` cells of the shot's path are each ``clear``."""
        if k == 0:
            return TRUE
        key = ("pclear", s, shot, k)
        if key not in self.memo:
            cell = self.path(shot)[k - 1]
            self.memo[key] = self.conj(
                [self.path_clear(s, shot, k - 1), self.clear(s, *cell)]
            )
        return self.memo[key]

    def path_hit(self, s: int, shot: tuple[int, int], k: int) -> Expr:
        """One of the first ``k`` cells of the shot's path holds the hand's
        colour, at the step before ``s``."""
        if k == 0:
            return FALSE
        key = ("phit", s, shot, k)
        if key not in self.memo:
            cell = self.path(shot)[k - 1]
            self.memo[key] = self.disj(
                [self.path_hit(s, shot, k - 1), self.prev_is_hand(s, *cell)]
            )
        return self.memo[key]

    def cells_eq(
        self, t1: int, r1: int, c1: int, t2: int, r2: int, c2: int
    ) -> Expr:
        if not (self.in_range(r1, c1) and self.in_range(r2, c2)):
            return FALSE
        a, b = sorted([(t1, r1, c1), (t2, r2, c2)])
        key = ("cellseq", a, b)
        if key not in self.memo:
            values = range(0, self.vm.colours + 1)
            self.memo[key] = self.same(
                [self.vm.grid_var(*a, v) for v in values],
                [self.vm.grid_var(*b, v) for v in values],
            )
        return self.memo[key]

    def fired_row_above(self, s: int, threshold: int) -> Expr:
        """fired row value strictly greater than ``threshold``."""
        values = [v for v in range(0, self.vm.height + 1) if v > threshold]
        if len(values) == self.vm.height + 1:
            return TRUE
        return self.disj([self.vm.row_shot_var(s, v) for v in values])


def encode(
    instance: Instance, options: EncodeOptions
) -> tuple[CnfFormula, VarMap]:
    """CNF formula satisfiable iff a plan of exactly ``options.steps``
    progressing shots reaches the instance goal, for some initial hand
    colour (or the pinned one)."""
    if options.steps < 1:
        raise InvalidHorizonError(f"horizon {options.steps} is below 1")
    if instance.goal is None:
        raise ValueError("instance has no goal")
    if options.progress_encoding not in PROGRESS_MODES:
        raise ValueError(f"unknown progress encoding {options.progress_encoding!r}")
    colours = instance.colour_count
    fixed = options.fixed_initial_hand
    if fixed is not None and not 1 <= fixed <= colours:
        raise ValueError(f"initial hand {fixed} outside 1..{colours}")

    height, width = instance.grid.height, instance.grid.width
    with _chain_lock:
        try:
            chain = _chain(height, width, colours, options.progress_encoding)
            var_count, clause_count, varmap = chain.grow(options.steps)
            clauses = chain.formula.clauses[:clause_count]
        except BaseException:
            _chain.cache_clear()  # a half-grown chain must never be reused
            raise
    formula = CnfFormula()
    formula.var_count, formula.clauses = var_count, clauses
    goal_empties = instance.block_total - instance.goal
    if goal_empties > 0:
        at_least_k(
            formula,
            [
                varmap.grid_var(options.steps, r, c, EMPTY)
                for r in range(1, height + 1)
                for c in range(1, width + 1)
            ],
            goal_empties,
        )
    for r in range(1, height + 1):
        for c in range(1, width + 1):
            formula.add_clause((varmap.grid_var(0, r, c, instance.grid.at(r, c)),))
    if fixed is not None:
        formula.add_clause((varmap.hand_var(0, fixed),))
    return formula, varmap


class _Chain:
    """The one-hot groups and transition rules of steps 0, 1, 2, ... for
    one grid shape and progress style, each step emitted once.

    Each step is an ``exactly_one`` over every group of
    :meth:`VarMap.groups` followed by its transition rules (none at step 0).
    ``ends[s]`` is the ``(var_count, clause_count, VarMap)`` reached at the
    end of step ``s``; the formula for horizon ``s`` starts with exactly
    that many variables and clauses. A chain is only read or grown under
    ``_chain_lock``, which ``encode`` holds from the lookup to the slice.
    """

    def __init__(self, height: int, width: int, colours: int, progress: str):
        self.formula = CnfFormula()
        varmap = VarMap(height, width, colours, state_bases=())
        self.builder = _Builder(self.formula, varmap)
        self.progress = progress
        self.ends: list[tuple[int, int, VarMap]] = []

    def grow(self, steps: int) -> tuple[int, int, VarMap]:
        """Append steps up to ``steps``; return the end of that step."""
        f, b = self.formula, self.builder
        while len(self.ends) <= steps:
            s, vm = len(self.ends), b.vm
            if s > 0:
                f.alloc_block(vm._shot_block)
            base = f.alloc_block(vm._state_block)
            b.vm = vm = replace(vm, state_bases=vm.state_bases + (base,))
            for _, _, ids in vm.groups(s):
                exactly_one(f, ids)
            if s > 0:
                _emit_step(b, s, self.progress)
            self.ends.append((f.var_count, len(f.clauses), vm))
        return self.ends[steps]


# Only the latest shape's chain is kept: a solve probes its horizons in order
# on one shape, and a chain per shape seen would grow without bound.
_chain = lru_cache(maxsize=1)(_Chain)
# Held across the lookup, the growth and the slice of a chain, so threads may
# encode concurrently and a chain whose growth raised is dropped unseen.
_chain_lock = threading.Lock()


def _emit_step(b: _Builder, s: int, progress: str) -> None:
    vm = b.vm
    H, W = vm.height, vm.width

    # one axis fired per step
    b.f.add_clause((vm.row_shot_var(s, 0), vm.col_shot_var(s, 0)))
    b.f.add_clause((-vm.row_shot_var(s, 0), -vm.col_shot_var(s, 0)))

    _emit_hand_rule(b, s)
    _emit_wall_fall_rule(b, s)
    for r in range(1, H + 1):
        for c in range(1, W + 1):
            _emit_cell_rules(b, s, r, c)

    if progress == PROGRESS_WITNESS:
        witnesses = []
        for r in range(1, H + 1):
            for c in range(1, W + 1):
                witnesses.append(
                    b.conj(
                        [b.neg(b.cell_empty(s - 1, r, c)), b.cell_empty(s, r, c)]
                    )
                )
        b.f.add_clause(witnesses)
    else:
        _emit_sum_decrease(b, s)


def _emit_hand_rule(b: _Builder, s: int) -> None:
    """The hand keeps its colour exactly when the shot rebounds: the shot's
    whole path is clear."""
    vm = b.vm
    rebounds = [
        b.conj([b.fired(s, shot), b.path_clear(s, shot, len(b.path(shot)))])
        for shot in b.shots()
    ]
    hands = range(1, vm.colours + 1)
    kept = b.same(
        [vm.hand_var(s - 1, v) for v in hands], [vm.hand_var(s, v) for v in hands]
    )
    b.require_iff_any(kept, rebounds)


def _emit_wall_fall_rule(b: _Builder, s: int) -> None:
    """Pin the wall-fall distance to the run of hand blocks it vacates."""
    vm = b.vm
    H, W = vm.height, vm.width
    for i in range(1, H + 1):
        cases = []
        for row in range(2, H + 1):
            cases.append(
                b.conj(
                    [
                        vm.row_shot_var(s, row),
                        b.path_clear(s, (row, 0), W),
                        b.neg(b.cell_empty(s - 1, row - 1, W)),
                    ]
                    + [b.prev_is_hand(s, rr, W) for rr in range(row, row + i)]
                    + [
                        TRUE
                        if row + i > H
                        else b.neg(b.prev_is_hand(s, row + i, W))
                    ]
                )
            )
        b.require_iff_any(vm.wall_fall_var(s, i), cases)


def _emit_cell_rules(b: _Builder, s: int, r: int, c: int) -> None:
    """The ways the cell ends up empty, keeps its value or changes colour."""
    vm = b.vm
    H, W = vm.height, vm.width
    was_empty = b.cell_empty(s - 1, r, c)
    above_empty = TRUE if r == 1 else b.cell_empty(s - 1, r - 1, c)
    hand_here = b.prev_is_hand(s, r, c)
    empty_cases: list[Expr] = [was_empty]
    same_cases: list[Expr] = [was_empty]
    change_cases: list[Expr] = []

    # a shot whose path crosses the cell, as its k-th cell
    for shot, k in b.crossings(r, c):
        fired, reached = b.fired(s, shot), b.path_clear(s, shot, k - 1)
        rv = shot[0]
        # consumed, with nothing above to fall in: along the fired row the
        # cell above must be empty, down the wall the column above the fired
        # row; a column shot moves nothing (range(1, 0) is empty)
        if rv == r:
            nothing_above = [above_empty]
        else:
            nothing_above = [b.cell_empty(s - 1, rr, W) for rr in range(1, rv)]
        empty_cases.append(b.conj([fired, hand_here, reached, *nothing_above]))
        # stopped before reaching the cell
        same_cases.append(b.conj([fired, b.neg(reached)]))
        # stopped at the cell, after consuming: it swaps with the hand
        change_cases.append(
            b.conj(
                [
                    fired,
                    reached,
                    b.path_hit(s, shot, k - 1),
                    b.hand_cell_eq(s, s - 1, r, c),
                    b.hand_cell_eq(s - 1, s, r, c),
                    b.neg(hand_here),
                ]
            )
        )
    # a row shot at or below the cell, cleared up to this column
    for rv in range(r, H + 1):
        fired, passed = vm.row_shot_var(s, rv), b.path_clear(s, (rv, 0), c)
        if rv > r:
            # vacated: the block here fell into a consumption below
            empty_cases.append(b.conj([fired, above_empty, passed]))
            # the shot stopped before reaching this column
            same_cases.append(b.conj([fired, b.neg(passed)]))
        if c < W:
            # the block above falls one cell, of the same colour or another;
            # cells_eq is FALSE off-grid, and so is ¬above_empty for r == 1
            fallen = b.cells_eq(s - 1, r - 1, c, s - 1, r, c)
            same_cases.append(b.conj([fired, passed, fallen]))
            change_cases.append(
                b.conj(
                    [
                        fired,
                        b.neg(above_empty),
                        passed,
                        b.cells_eq(s, r, c, s - 1, r - 1, c),
                        b.neg(fallen),
                    ]
                )
            )
    if c == W:
        # a wall fall of w cells, landing within the span (row < fired row
        # + w): empty when the source w rows above is empty or off-grid,
        # else its block lands here, of the same colour or another
        for w in range(1, H + 1):
            fell, landing = vm.wall_fall_var(s, w), b.fired_row_above(s, r - w)
            source_empty = TRUE if r - w < 1 else b.cell_empty(s - 1, r - w, W)
            fallen = b.cells_eq(s - 1, r - w, W, s - 1, r, W)
            empty_cases.append(b.conj([fell, landing, source_empty]))
            same_cases.append(b.conj([fell, landing, fallen]))
            change_cases.append(
                b.conj(
                    [
                        fell,
                        landing,
                        b.neg(source_empty),
                        b.cells_eq(s, r, W, s - 1, r - w, W),
                        b.neg(fallen),
                    ]
                )
            )
    else:
        # fired along a row above; columns before the last are untouched
        same_cases.append(
            b.conj(
                [
                    b.neg(vm.row_shot_var(s, 0)),
                    b.disj([vm.row_shot_var(s, v) for v in range(0, r)]),
                ]
            )
        )
    # fired down a different column
    same_cases.append(
        b.conj([b.neg(vm.col_shot_var(s, 0)), b.neg(vm.col_shot_var(s, c))])
    )

    empty_now = b.cell_empty(s, r, c)
    b.require_iff_any(empty_now, empty_cases)
    same_now = b.cells_eq(s, r, c, s - 1, r, c)
    b.require_iff_any(same_now, same_cases)
    # the cell changes (neither keeps its value nor ends up empty) exactly
    # when a change case holds, with no gate for "changes"; every case has
    # a shot or wall-fall conjunct, so it is a literal or FALSE
    b.require_any([same_now, empty_now, *change_cases])
    for t in change_cases:
        if t is not FALSE:
            b.f.add_clause((-t, -same_now))
            b.f.add_clause((-t, -empty_now))


def _emit_sum_decrease(b: _Builder, s: int) -> None:
    """Unary colour-sum comparison: sum at s-1 strictly above sum at s."""
    vm = b.vm
    cells = [
        (r, c)
        for r in range(1, vm.height + 1)
        for c in range(1, vm.width + 1)
    ]
    K = vm.colours
    max_sum = K * len(cells)

    def sum_geq(t: int, i: int, bound: int) -> Expr:
        if bound <= 0:
            return TRUE
        if i == 0 or bound > i * K:
            return FALSE
        key = ("sumgeq", t, i, bound)
        if key not in b.memo:
            r, c = cells[i - 1]
            b.memo[key] = b.disj(
                [
                    b.conj(
                        [vm.grid_var(t, r, c, v), sum_geq(t, i - 1, bound - v)]
                    )
                    for v in range(0, K + 1)
                ]
            )
        return b.memo[key]

    terms = []
    for bound in range(1, max_sum + 1):
        terms.append(
            b.conj(
                [
                    sum_geq(s - 1, len(cells), bound),
                    b.neg(sum_geq(s, len(cells), bound)),
                ]
            )
        )
    b.require_any(terms)


def _one_hot_value(model, label: str, low: int, ids: Sequence[int]) -> int:
    hits = [v for v, x in enumerate(ids, low) if model[x]]
    if len(hits) != 1:
        raise MalformedModelError(f"{label}: {len(hits)} values true")
    return hits[0]


def decode(model: Sequence[bool], varmap: VarMap) -> DecodedTrace:
    """Read the plan and trajectory out of a satisfying model.

    Re-validates that every one-hot group has exactly one value set and that
    exactly one shot axis is fired per step; a violation means the model did
    not come from a formula this encoder produced.
    """
    H, W = varmap.height, varmap.width
    grids, hands, shots, wall_falls = [], [], [], []
    for t in range(0, varmap.steps + 1):
        values = [_one_hot_value(model, *group) for group in varmap.groups(t)]
        rows = (tuple(values[i : i + W]) for i in range(0, H * W, W))
        grids.append(Grid(tuple(rows)))
        hands.append(values[H * W])
        if t > 0:
            rv, cv, fall = values[H * W + 1 :]
            if (rv > 0) == (cv > 0):
                raise MalformedModelError(
                    f"step {t}: fired rows and columns: {rv}, {cv}"
                )
            shots.append(RowShot(rv) if rv > 0 else ColShot(cv))
            wall_falls.append(fall)
    return DecodedTrace(
        initial_hand=hands[0],
        shots=tuple(shots),
        wall_falls=tuple(wall_falls),
        grids=tuple(grids),
        hands=tuple(hands),
    )
