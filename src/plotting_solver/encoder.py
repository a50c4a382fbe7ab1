"""Bounded-horizon CNF encoding of Plotting instances, and model decoding.

Every multi-valued quantity (grid cell, hand, fired row, fired column, wall
fall) becomes a one-hot group of propositional variables per time step. The
transition is stated per shot, as successor clauses in the explanatory
frame-axiom form (Kautz, McAllester & Selman, KR 1996): each clause
``(¬fired ∨ guard… ∨ ¬src_v ∨ next_v)`` copies value ``v`` into a cell, or
into the hand, from the source the fired shot selects there (the same cell,
the cell above, a cell higher up the last column, the previous hand, or
empty). Its guards are literals over the previous state, so a clause is
satisfied by ``¬fired`` while its shot is not fired, and no gate has a shot
input. A frame clause per cell and value keeps the cell when no shot that
can touch it is fired. Implied clauses then read the previous state
alone, so that what no shot can change is known before a shot is chosen:
an emptiness clause per cell lists the ways the cell can become empty,
which shows a goal counter the cells no shot can empty; a keep clause per
cell and value keeps a cell that no shot can get to; and the hand keeps
its colour only if some shot can rebound. Every gate is an AND over
literals (an OR is the negation of the AND over the negated terms). That
the hand and a cell hold the same colour is one literal with three clauses
per colour.

A shot's travel is defined once, as its path: a row shot crosses its row
left to right and then the last column below it, and a column shot crosses
its column top down. Every rule reads the travel through one prefix literal
per path cell ``k``, an AND gate on the one before: "the first ``k`` cells
are empty or of the hand's colour" (the shot got that far). The shot stops
and swaps at ``k`` when it got to ``k - 1`` but not past ``k``.

The successor clauses of a row shot and the implied emptiness clauses rely
on the gravity invariant of every reachable state: no empty cell lies below
a block in its column. So a row shot that passes over an empty cell may
move the column above it down one cell, as it would over a consumed one,
and a cell above an empty cell is empty. Every state the formula admits
satisfies it, as the full initial grid does and every shot keeps it.

Every auxiliary variable of a step is a function of lower-index state and
action variables, which unit propagation fixes once those are set, and so
are the step's state and wall fall. The DPLL solver does not propagate a
step through its clauses: :func:`encode` attaches a
:class:`plotting_solver.cnf.StepChain` whose callables list each step's
options with the engine and give each option's variables that are not
auxiliary (:func:`_choices`). The options are the initial hands, and then
the shots that are no null move, each with the state the engine reaches,
in the order lowest-index branching over the clauses would meet them. The
solver searches those options depth first and reads no clause while it
does; only a model gets every variable that is not auxiliary from the
options it took, and its auxiliary variables from one in-order pass over
every clause, as each gate's defining clauses come before any clause that
reads it. The goal is the options' too: the last step's leave out every
shot that leaves more than the goal's blocks, so the search never reads
the counter's clauses. The counter's registers are implied in one
direction only (see :func:`plotting_solver.cnf.at_least_k`), so the last
step's outputs give them their exact values. DIMACS output and external solvers
get every clause.

Variable allocation is deterministic: step 0 grid cells (row major, value
0..K per cell) and the step-0 hand come first. Each step then follows in
turn: its primary groups (fired row, fired column, wall fall, grid, hand),
then its auxiliary variables, built in one fixed order. Per cell of the
state before the step, row major, come the literal "the cell holds the
hand's colour" and the gate "the cell is clear"; then each shot's path
prefixes, columns first and then rows; then the gates of its rules, and
the totalizer counts of ``cardinalityCompare``. The goal's counter
variables come last, so DIMACS output is byte-stable for a given instance
and options.
:meth:`VarMap.groups` is the one list of a step's one-hot groups; the
encoder emits an ``exactly_one`` over each and :func:`decode` reads each
back. The steps depend only on the grid's shape and the progress style, so
each is emitted once per shape and shared by every horizon (see
:class:`_Chain`). The goal counter depends only on the horizon and the
number of blocks the plan must remove, so the chain keeps one per horizon,
built once and replaced when that number changes, and each formula copies
its clauses. One module lock guards that sharing. Each step's implied
keep clauses come last in it, and horizon h ends before step h's: they
fix cells for a shot that horizon h does not have, so horizon h + 1 is the
first to hold them. The builder emits step 1 (and step 2 of
``cardinalityCompare``, whose step 1 also builds the start's colour sum);
each later step is the one before with every variable moved one step on,
since a step reads only its own variables and what the step before it
made. A step's clauses are appended without a per-clause check and
checked in bulk, once, before the step is used; so are each formula's
start-state unit clauses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from operator import add, itemgetter
from typing import Callable, Optional, Sequence, Union

from .cnf import AtLeastK, CnfFormula, StepChain, and_gate, at_least_k, exactly_one
from .engine import Cells, ColShot, Grid, Instance, RowShot, Shot, build, successors
from .oracle import CapacityExceededError

PROGRESS_WITNESS = "consumptionWitness"
PROGRESS_CARDINALITY = "cardinalityCompare"
PROGRESS_MODES = (PROGRESS_WITNESS, PROGRESS_CARDINALITY)

EMPTY = 0

# The largest colour-sum range K·H·W that cardinalityCompare encodes. Its
# totalizer's top merge is quadratic in the range: at 800 (20x20, 2
# colours) horizon 1 has 1.36M clauses, built in 0.7 s at 168 MB max RSS
# (Python 3.11, one Xeon core), while 32x32/2 (range 2,048) would need
# about 8.5M clauses at step 1.
MAX_SUM_RANGE = 800

# A step's state as the engine-stepped search holds it (see _choices)
_State = tuple[Cells, int, int]


class InvalidHorizonError(ValueError):
    """Horizons below one step cannot be encoded."""


class MalformedModelError(RuntimeError):
    """A satisfying model violated a one-hot group; encoder bug."""


@dataclass(frozen=True)
class EncodeOptions:
    """Horizon length, optional pinned initial hand, progress style.

    The initial hand is left free by default, which is how the wildcard
    block the avatar starts with is modelled. ``progress_encoding`` is
    ``consumptionWitness`` (default: no extra progress clause; the
    no-null-move clauses imply consumption) or ``cardinalityCompare``: each
    step's colour sum in unary, from one totalizer per step, and a clause
    per bound that the sum falls. :func:`encode` refuses
    ``cardinalityCompare`` with :class:`CapacityExceededError` when the
    sum's range (colours × cells) is above ``MAX_SUM_RANGE``.
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

    def cell_ids(self, step: int, row: int, col: int) -> range:
        """The ids of the cell's values 0..K."""
        first = self.grid_var(step, row, col, EMPTY)
        return range(first, first + self.colours + 1)

    def hand_ids(self, step: int) -> range:
        """The ids of the hand's values 1..K."""
        first = self.hand_var(step, 1)
        return range(first, first + self.colours)

    def groups(self, step: int) -> list[tuple[int, range]]:
        """The step's one-hot groups as ``(lowest value, ids)``, in the order
        they are emitted: each cell (values 0..K, row major), the hand
        (1..K), then from step 1 on the fired row (0..H), the fired column
        (0..W) and the wall fall (0..H). :meth:`group_label` names each."""
        s, H, W = step, self.height, self.width
        first, values = self.state_bases[s], self.colours + 1
        hand = first + self._grid_block
        groups = [(0, range(x, x + values)) for x in range(first, hand, values)]
        groups.append((1, range(hand, hand + self.colours)))
        if s > 0:
            row, col = self.row_shot_var(s, 0), self.col_shot_var(s, 0)
            fall = self.wall_fall_var(s, 0)
            groups += [
                (0, range(row, row + H + 1)),
                (0, range(col, col + W + 1)),
                (0, range(fall, fall + H + 1)),
            ]
        return groups

    def group_label(self, step: int, i: int) -> str:
        """The name of group ``i`` of :meth:`groups`, such as
        ``grid(1,2,1)`` or ``fired row(1)``, for messages."""
        H, W = self.height, self.width
        if i < H * W:
            return f"grid({step},{i // W + 1},{i % W + 1})"
        kind = ("hand", "fired row", "fired col", "wall fall")[i - H * W]
        return f"{kind}({step})"


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

    ``conj`` builds AND gates, memoised in ``gates`` by their sorted inputs,
    and ``disj`` the negation of the AND over its negated terms. ``same``
    builds a one-hot equality literal. Each gate's clauses define it from
    lower-index variables and come before any clause that reads it.
    ``require_any``, ``copy`` and ``copy_under`` emit clauses and no
    variable. ``paths`` lists, per shot, the cells it crosses;
    :meth:`begin_step` builds what a step reads of the state before it:
    ``hand_eq`` (a cell holds the hand's colour) and ``prefix``, where
    ``prefix[shot][k]`` holds when the first ``k`` cells of the shot's path
    are each empty or of the hand's colour. ``sums[t]`` is step ``t``'s
    colour sum, which step ``t + 1`` reads. Clauses go straight onto the
    formula's list; :meth:`_Chain.grow` checks each step's literals at once.
    """

    def __init__(self, formula: CnfFormula, varmap: VarMap) -> None:
        self.f = formula
        self.clauses = formula.clauses
        self.vm = varmap
        self.gates: dict[tuple[int, ...], int] = {}
        self.hand_eq: dict[tuple[int, int], int] = {}
        self.prefix: dict[tuple[int, int], list[Expr]] = {}
        self.sums: list[Sequence[int]] = []
        # every shot as (fired row, fired column), 0 on the axis not fired,
        # as in engine.shot_axes (columns first, then rows), with the cells
        # it crosses in order: down its column, or along its row and then
        # down the last column
        H, W = varmap.height, varmap.width
        self.paths = {
            (0, c): [(r, c) for r in range(1, H + 1)] for c in range(1, W + 1)
        }
        for rv in range(1, H + 1):
            self.paths[rv, 0] = [(rv, c) for c in range(1, W + 1)]
            self.paths[rv, 0] += [(r, W) for r in range(rv + 1, H + 1)]

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
        z = self.gates.get(inputs)
        if z is None:
            z = self.gates[inputs] = and_gate(self.f, inputs)
        return z

    def disj(self, terms: Sequence[Expr]) -> Expr:
        return self.neg(self.conj([self.neg(t) for t in terms]))

    def clause(self, terms: Sequence[Expr]) -> Optional[tuple[int, ...]]:
        """``terms`` as one clause's literals, first occurrences in order
        and constants FALSE dropped; None when a term is TRUE."""
        lits: dict[int, None] = {}
        for t in terms:
            if t is TRUE:
                return None
            if t is not FALSE:
                lits[t] = None
        return tuple(lits)

    def require_any(self, terms: Sequence[Expr]) -> None:
        """One clause: at least one of ``terms`` holds. Terms that fold to
        an empty clause leave it on the list, for ``check_clauses`` to
        refuse."""
        lits = self.clause(terms)
        if lits is not None:
            self.clauses.append(lits)

    def copy(
        self, guards: Sequence[Expr], src: Optional[range], dst: range
    ) -> None:
        """Unless a guard holds, ``dst`` takes ``src``'s value: one clause
        ``(guard… ∨ ¬src_v ∨ dst_v)`` per value ``v``, where ``src`` and
        ``dst`` list the ids of the same values in the same order. ``src``
        None is an empty cell, which gives the one clause
        ``(guard… ∨ dst_0)``. The guards are folded once, so they must not
        mention a variable of ``src`` or ``dst``."""
        self.copy_under(self.clause(guards), src, dst)

    def copy_under(
        self, lits: Optional[tuple[int, ...]], src: Optional[range], dst: range
    ) -> None:
        """:meth:`copy` with its guards already folded by :meth:`clause`,
        so that a rule's guards are folded once for all its copies; nothing
        when ``lits`` is None."""
        if lits is None:
            return
        if src is None:
            self.clauses.append(lits + (dst[EMPTY],))
        else:
            self.clauses += [lits + (-x, y) for x, y in zip(src, dst)]

    # -- atoms -------------------------------------------------------------

    def same(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Fresh literal ``e``: the groups, listed value by value, hold the
        same value.

        ``xs`` must be an exactly-one group; ``ys`` may be exactly-one or
        at-most-one (then ``e`` is false when no ``y`` holds), as a cell's
        colours are. Per value ``v`` three clauses: ``(¬x_v ∨ ¬y_v ∨ e)``,
        ``(¬e ∨ ¬x_v ∨ y_v)`` and ``(¬e ∨ x_v ∨ ¬y_v)``; the third lets a
        known ``e`` and ``y_v`` fix ``x_v``.
        """
        e = self.f.new_var()
        for x, y in zip(xs, ys):
            self.clauses += ((-x, -y, e), (-e, -x, y), (-e, x, -y))
        return e

    def begin_step(self, s: int) -> None:
        """Build, once, what step ``s`` reads of the state before it: per
        cell, row major, the literal "it holds the hand's colour" and the
        gate "it is empty or of the hand's colour" (clear); then per shot
        the prefixes over its path, ``prefix[k] = prefix[k-1] ∧ clear(cell
        k)``. The gate memo starts afresh, as no gate of an earlier step is
        asked for again; on an Hx1 grid it shares row 1's prefixes with
        column 1's, whose path is the same."""
        vm, hand = self.vm, self.vm.hand_ids(s - 1)
        self.gates, self.hand_eq, clear = {}, {}, {}
        for r, c in product(range(1, vm.height + 1), range(1, vm.width + 1)):
            ids = vm.cell_ids(s - 1, r, c)
            eq = self.hand_eq[r, c] = self.same(hand, ids[1:])
            clear[r, c] = self.disj([ids[EMPTY], eq])
        self.prefix = {}
        for shot, path in self.paths.items():
            prefix = self.prefix[shot] = [TRUE]
            for cell in path:
                prefix.append(self.conj([prefix[-1], clear[cell]]))


def encode(
    instance: Instance, options: EncodeOptions
) -> tuple[CnfFormula, VarMap]:
    """CNF formula satisfiable iff a plan of exactly ``options.steps``
    progressing shots reaches the instance goal, for some initial hand
    colour (or the pinned one). The formula's ``steps`` record lets
    :func:`plotting_solver.cnf.dpll_solve` step the engine instead of the
    transition clauses."""
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
    sum_range = colours * height * width
    if options.progress_encoding == PROGRESS_CARDINALITY and sum_range > MAX_SUM_RANGE:
        raise CapacityExceededError(
            f"{PROGRESS_CARDINALITY} admits a colour-sum range of at most "
            f"{MAX_SUM_RANGE}; {height}x{width} with {colours} colours has {sum_range}"
        )
    with _chain_lock:
        try:
            chain = _chain(height, width, colours, options.progress_encoding)
            _, clause_count, varmap = chain.grow(options.steps)
            source = chain.formula.clauses
            clauses = source[:clause_count]
        except BaseException:
            _chain.cache_clear()  # a half-grown chain must never be reused
            raise
        k = max(0, instance.block_total - instance.goal)
        counted, goal = chain.counter(options.steps, k)
    formula = CnfFormula()
    formula.var_count, formula.clauses = counted.var_count, clauses
    clauses += counted.clauses
    units = len(clauses)
    formula.clauses += [
        (varmap.grid_var(0, r, c, instance.grid.at(r, c)),)
        for r in range(1, height + 1)
        for c in range(1, width + 1)
    ]
    if fixed is not None:
        formula.clauses.append((varmap.hand_var(0, fixed),))
    formula.check_clauses(units)
    formula.steps = StepChain(
        source,
        clause_count,
        formula.clauses[clause_count:],
        formula.var_count,
        options.steps,
        *_choices(varmap, instance, fixed, goal),
    )
    return formula, varmap


def _choices(
    vm: VarMap, instance: Instance, fixed: Optional[int], counter: Optional[AtLeastK]
) -> tuple[
    Callable[[int, Optional[_State]], Sequence[tuple[tuple[int, ...], _State]]],
    Callable[[int, tuple[tuple[int, ...], _State]], list[int]],
]:
    """:attr:`StepChain.choices` and :attr:`StepChain.outputs` for the
    horizon ``vm.steps`` of ``instance``, with the initial hand ``fixed``
    or free and the goal's ``counter`` (None for no counter).

    A step's state is ``(rows, hand, wall fall)``, as the engine gives it.
    Step 0's options are the initial hands, 1..K or ``fixed`` alone, each
    with the instance's grid and a wall fall of 0. A later step's options
    are its shots, columns 1..W and then rows 1..H: lowest-index branching
    tries the fired row's value 0, "no row", true first. Each sets its
    fired row and fired column, one of them to 0, and comes with the state
    the engine reaches: :func:`engine.successors` walks each travel once,
    and :func:`engine.build` takes its stop. Left out are the shots that
    have no model: a null move, which the successor clauses refute, and at
    the last step a shot that leaves more than the goal's blocks, which the
    goal counter refutes. The solver reads neither the counter's clauses
    nor its registers, so this is where it meets the goal.

    The outputs are a literal of every variable that is not auxiliary: at
    step 0 the start grid and the hand; later the option's fired row and
    fired column, then the wall fall, grid and hand, one block from
    ``row_shot_var(t, 0)``; at the last step also the counter's registers,
    with the values :meth:`AtLeastK.registers_under` gives them from the
    last grid's empty cells, each true exactly when its count holds, as in
    the first model in brute-force order. Both functions read only their
    arguments and the tables fixed here."""
    H, W, K = vm.height, vm.width, vm.colours
    last, cells, grid_size = vm.steps, H * W, H * W * (K + 1)
    start, goal = instance.grid.cells, instance.goal
    hands = range(1, K + 1) if fixed is None else (fixed,)
    roots = tuple(((vm.hand_var(0, hand),), (start, hand, 0)) for hand in hands)
    # by step from 1 on, per shot of engine.successors (rows, then
    # columns): the fired row and fired column it sets
    fired = [
        [(vm.row_shot_var(t, r), vm.col_shot_var(t, 0)) for r in range(1, H + 1)]
        + [(vm.row_shot_var(t, 0), vm.col_shot_var(t, c)) for c in range(1, W + 1)]
        for t in range(1, last + 1)
    ]
    # by step, the first of its outputs and the grid's offset from it:
    # step 0's start with its grid, and a later step's with its fired row
    first = [(vm.state_bases[0], 0)]
    first += [(vm.row_shot_var(t, 0), vm._shot_block) for t in range(1, last + 1)]

    def choices(
        t: int, state: Optional[_State]
    ) -> Sequence[tuple[tuple[int, ...], _State]]:
        if state is None:
            return roots
        grid, hand, _ = state
        need = 1
        if t + 1 == last:
            empty = sum(row.count(EMPTY) for row in grid)
            need = max(1, cells - empty - goal)
        lits = fired[t]
        rows, cols = [], []
        for shot, (eaten, stop) in successors(grid, hand):
            if eaten < need:
                continue
            after = build(grid, hand, shot, stop)
            if type(shot) is RowShot:
                rows.append((lits[shot.row - 1], after))
            else:
                cols.append((lits[H + shot.col - 1], after))
        return cols + rows

    def outputs(t: int, option: tuple[tuple[int, ...], _State]) -> list[int]:
        decided, (grid, hand, fall) = option
        base, at = first[t]
        # by offset from ``base``: each variable false, then the true ones
        lits = list(range(-base, -base - at - grid_size - K, -1))
        flat = [v for row in grid for v in row]
        true = [x - base for x in decided]
        true += map(add, range(at, at + grid_size, K + 1), flat)
        true.append(at + grid_size + hand - 1)
        if t:
            true.append(at - (H + 1) + fall)
        for p in true:
            lits[p] = base + p
        if t == last and counter is not None:
            # the counter's inputs are the last grid's cells' value 0, row
            # major, and its registers the formula's last variables
            values = counter.registers_under([v == EMPTY for v in flat])
            registers = enumerate(values, counter.first_var)
            lits += [x if value else -x for x, value in registers]
        return lits

    return choices, outputs


class _Chain:
    """The one-hot groups and transition rules of steps 0, 1, 2, ... for
    one grid shape and progress style, each step emitted once.

    Each step's block is an ``exactly_one`` over every group of
    :meth:`VarMap.groups`, followed by its transition rules (none at step
    0), which end with its implied keep clauses. ``ends[s]`` is the
    ``(var_count, keep, VarMap)`` reached at the end of step ``s``, where
    ``keep`` is the range of indexes of the step's keep clauses (empty at
    step 0). The formula for horizon ``s`` starts with that many variables
    and with every clause before ``keep``. Step ``s``'s keep clauses fix
    the cells of state ``s`` that no shot can get to, for shot ``s + 1``
    to read; at horizon ``s`` no shot follows and the goal counter reads only
    the cells' emptiness. They are implied by the rest, so leaving them out
    changes no model, and horizon ``s + 1`` takes them in as part of what
    it shares with horizon ``s``. ``counters`` holds one goal counter per
    horizon (:meth:`counter`), so never more than ``ends``.

    Steps before ``first_copy`` go through the builder. Every later step
    is the block of the step before it, renumbered (:meth:`_renumber`):
    step ``s - 1`` reads only state ``s - 2``, its own variables and, in
    cardinalityCompare, step ``s - 2``'s colour sum, and step ``s`` reads
    their images one step on, clause for clause in the same order, so a
    gate's defining clauses still come before any clause that reads it.
    Every step's clauses are checked in bulk before its end is recorded,
    and a literal out of range raises ``ValueError``. A chain is only read
    or grown under ``_chain_lock``, which ``encode`` holds from the lookup
    to the goal counter.
    """

    def __init__(self, height: int, width: int, colours: int, progress: str):
        self.formula = CnfFormula()
        varmap = VarMap(height, width, colours, state_bases=())
        self.builder = _Builder(self.formula, varmap)
        self.progress = progress
        # step 1 of cardinalityCompare also builds the start's colour sum,
        # so there step 2 is the first that step 3 can copy
        self.first_copy = 2 if progress == PROGRESS_WITNESS else 3
        self.ends: list[tuple[int, range, VarMap]] = []
        self.counters: dict[int, tuple[int, CnfFormula, Optional[AtLeastK]]] = {}

    def grow(self, steps: int) -> tuple[int, int, VarMap]:
        """Append steps up to ``steps``; return the variable count, the
        clause count and the VarMap of horizon ``steps``."""
        f = self.formula
        while len(self.ends) <= steps:
            s, start = len(self.ends), len(f.clauses)
            vm, keep = self._build(s) if s < self.first_copy else self._renumber(s)
            f.check_clauses(start)
            self.ends.append((f.var_count, keep, vm))
        var_count, keep, vm = self.ends[steps]
        return var_count, keep.start, vm

    def counter(self, steps: int, k: int) -> tuple[CnfFormula, Optional[AtLeastK]]:
        """The goal counter of horizon ``steps``, grown already: "at least
        ``k`` of the last grid's cells are empty". Returns a formula of the
        counter's clauses alone, with the horizon's variables and the
        registers, and what :func:`plotting_solver.cnf.at_least_k` built.
        Kept per horizon until another ``k`` replaces it; a ``k`` that
        ``at_least_k`` refuses stores nothing."""
        kept = self.counters.get(steps)
        if kept is not None and kept[0] == k:
            return kept[1:]
        var_count, _, vm = self.ends[steps]
        counted = CnfFormula()
        counted.var_count = var_count
        lits = [
            vm.grid_var(steps, r, c, EMPTY)
            for r in range(1, vm.height + 1)
            for c in range(1, vm.width + 1)
        ]
        goal = at_least_k(counted, lits, k)
        self.counters[steps] = (k, counted, goal)
        return counted, goal

    def _build(self, s: int) -> tuple[VarMap, range]:
        """Append step ``s`` through the builder; return its VarMap and its
        keep clauses."""
        f, b = self.formula, self.builder
        vm = b.vm
        if s > 0:
            f.alloc_block(vm._shot_block)
        base = f.alloc_block(vm._state_block)
        b.vm = vm = replace(vm, state_bases=vm.state_bases + (base,))
        for _, ids in vm.groups(s):
            exactly_one(f, ids)
        first_keep = _emit_step(b, s, self.progress) if s > 0 else len(f.clauses)
        return vm, range(first_keep, len(f.clauses))

    def _renumber(self, s: int) -> tuple[VarMap, range]:
        """Append step ``s`` as step ``s - 1``'s block with its variables
        moved on: state ``s - 2`` to state ``s - 1``, step ``s - 1``'s own
        variables to step ``s``'s and, in cardinalityCompare, the colour sum
        step ``s - 1`` read to the one step ``s`` reads. The builder's
        output depends on variable ids only through their order and
        equality (``conj`` sorts its inputs), and the move keeps both, so
        this is the block the builder would emit. The move sends any other
        literal to 0, which ``check_clauses`` refuses. The move is one list
        indexed by signed literal, and ``operator.itemgetter`` gathers each
        clause's images from it in one call."""
        f, sums = self.formula, self.builder.sums
        (first_own, before, _), (top, keep, vm) = self.ends[s - 2 : s]
        size, n = top - first_own, 2 * top + 1
        move = [0] * n  # by signed literal: -v at n - v

        def shift(first: int, stop: int, by: int) -> None:
            move[first:stop] = range(first + by, stop + by)
            move[n - stop + 1 : n - first + 1] = range(1 - stop - by, 1 - first - by)

        state, bases = vm._state_block, vm.state_bases
        shift(bases[s - 2], bases[s - 2] + state, bases[s - 1] - bases[s - 2])
        shift(first_own + 1, top + 1, size)
        if self.progress == PROGRESS_CARDINALITY:
            for x, y in zip(sums[s - 2], sums[s - 1]):
                move[x], move[-x] = y, -y
            sums.append([move[x] for x in sums[s - 1]])
        start = len(f.clauses)
        # one C call gathers a clause; itemgetter of one item is a bare int
        f.clauses += [
            itemgetter(*c)(move) if len(c) > 1 else (move[c[0]],)
            for c in f.clauses[before.stop : start]
        ]
        f.alloc_block(size)
        vm = replace(vm, state_bases=bases + (bases[-1] + size,))
        by = start - before.stop
        return vm, range(keep.start + by, keep.stop + by)


# Only the latest shape's chain is kept: a solve probes its horizons in order
# on one shape, and a chain per shape seen would grow without bound.
_chain = lru_cache(maxsize=1)(_Chain)
# Held across the lookup, the growth and the slice of a chain, so threads may
# encode concurrently and a chain whose growth raised is dropped unseen.
_chain_lock = threading.Lock()


def _emit_step(b: _Builder, s: int, progress: str) -> int:
    """Step ``s``'s transition rules, its implied keep clauses last;
    return the index of the first keep clause."""
    vm = b.vm
    b.begin_step(s)

    # one axis fired per step
    row0, col0 = vm.row_shot_var(s, 0), vm.col_shot_var(s, 0)
    b.clauses += ((row0, col0), (-row0, -col0))

    # the no-null-move clauses (a stop or a rebound needs a block on the
    # path) imply consumption; cardinalityCompare adds a second, independent
    # progress constraint to test against
    keep = _emit_successors(b, s)
    if progress == PROGRESS_CARDINALITY:
        _emit_sum_decrease(b, s)
    first_keep = len(b.clauses)
    for reach, src, dst in keep:
        b.copy(reach, src, dst)
    return first_keep


def _emit_successors(b: _Builder, s: int) -> list[tuple[list[Expr], range, range]]:
    """The state after step ``s``'s shot, as successor clauses, and the
    implied clauses over the state before it, but for the implied keep
    clauses: those are returned as ``copy`` arguments, for
    :func:`_emit_step` to emit last.

    A successor clause reads "if this shot is fired and its guards are
    false, this cell (or the hand) takes that source's value"; its guards
    are path prefixes (``b.prefix``) and wall-fall literals. A rule's
    guards are folded once, with :meth:`_Builder.clause`, for all the
    clauses that share them: once per path cell for the shot rules, and
    once per fall for the last column's drop; the wall falls that can land
    on a row shot's path are listed once per row.
    """
    vm = b.vm
    H, W = vm.height, vm.width
    prefix, hand_eq = b.prefix, b.hand_eq
    # the ids of the fired row (0..H), fired column (0..W) and wall fall (0..H)
    row, col, fall = [ids for _, ids in vm.groups(s)[-3:]]
    cells = [(r, c) for r in range(1, H + 1) for c in range(1, W + 1)]
    before = {cell: vm.cell_ids(s - 1, *cell) for cell in cells}
    after = {cell: vm.cell_ids(s, *cell) for cell in cells}
    empty = {cell: ids[EMPTY] for cell, ids in before.items()}
    hand_before, hand_after = vm.hand_ids(s - 1), vm.hand_ids(s)

    # a cell keeps its value unless a shot that can touch it is fired: the
    # shot down its column, or along a row at or below it (in the last
    # column, along any row)
    for r in range(1, H + 1):
        for c in range(1, W + 1):
            touching = [-row[0]] if c == W else [row[rv] for rv in range(r, H + 1)]
            b.copy([col[c], *touching], before[r, c], after[r, c])

    # wall fall: the row rv clears, the last column above it holds a block,
    # and rows rv..rv+w-1 of the last column, but not row rv+w, hold the
    # hand's colour; falls[rv, w] is that condition, where it can hold (not
    # for row 1, and not past the bottom row)
    falls = {}
    for rv in range(1, H + 1):
        for w in range(1, H + 1):
            g = FALSE if rv == 1 or rv + w - 1 > H else b.conj(
                [prefix[rv, 0][W], -empty[rv - 1, W]]
                + [hand_eq[rr, W] for rr in range(rv, rv + w)]
                + [b.neg(hand_eq.get((rv + w, W), FALSE))]
            )
            b.require_any([-row[rv], b.neg(g), fall[w]])
            b.require_any([-row[rv], -fall[w], g])
            if g is not FALSE:
                falls[rv, w] = g
    b.require_any([col[0], fall[0]])
    # the last column above a wall fall drops w rows; with none it stays
    for rv, w in falls:
        dropped = b.clause([-row[rv], -fall[w]])
        for r in range(1, min(H, rv + w - 1) + 1):
            b.copy_under(dropped, before.get((r - w, W)), after[r, W])
    for rv in range(2, H + 1):
        stays = b.clause([-row[rv], -fall[0]])
        for r in range(1, rv):
            b.copy_under(stays, before[r, W], after[r, W])

    # the wall falls of each row, by length, in the order of ``falls``
    landings: dict[int, list[tuple[int, int]]] = {}
    for rv, w in falls:
        landings.setdefault(rv, []).append((w, fall[w]))
    rebounds = []
    for shot, path in b.paths.items():
        rv = shot[0]
        fired = row[rv] if rv else col[shot[1]]
        lands = landings.get(rv, [])
        # each rule's guards are folded once per path cell, None where one
        # holds: ``stop`` (reached, not passed), ``gone`` (passed) and
        # ``held`` (not passed), which is the next cell's ``stay`` (not
        # reached). ``full`` reads "a cell before k is not empty"; it and
        # the landings share no variable with a guard, so they extend a
        # fold as they are.
        stay, passed, full = None, TRUE, ()
        for k, (r, c) in enumerate(path, 1):
            reached, passed = passed, prefix[shot][k]
            stop = b.clause([-fired, b.neg(reached), passed])
            gone = b.clause([-fired, b.neg(passed)])
            held = b.clause([-fired, passed])
            # not reached: kept
            b.copy_under(stay, before[r, c], after[r, c])
            # stopped here: the cell and the hand swap, after a consumption
            b.copy_under(stop, hand_before, after[r, c][1:])
            b.copy_under(stop, before[r, c][1:], hand_after)
            if stop is not None:
                b.clauses.append(stop + full)
            full += (-empty[r, c],)
            if r == rv and c < W:
                # passed along the row: the column above falls one cell (a
                # column above an empty cell is empty, so nothing changes)
                for rr in range(1, r + 1):
                    b.copy_under(gone, before.get((rr - 1, c)), after[rr, c])
                    if rr < r:
                        b.copy_under(held, before[rr, c], after[rr, c])
            elif gone is not None:
                # passed down a column: emptied, unless a wall fall lands here
                landing = tuple(x for w, x in lands if w > r - rv)
                b.clauses.append(gone + landing + (after[r, c][EMPTY],))
            stay = held
        # rebounded: the hand is kept, after a consumption
        b.copy_under(gone, hand_before, hand_after)
        if gone is not None:
            b.clauses.append(gone + full)
        rebounds.append(passed)

    # implied: the hand keeps its colour only if some shot can rebound
    for x, y in zip(hand_before, hand_after):
        b.require_any([-x, -y, *rebounds])
    keep = []
    for r in range(1, H + 1):
        for c in range(1, W + 1):
            # implied: a cell keeps its value unless some shot can get to
            # it: down its column, along its row, along a row below it (the
            # cell falls one row), down the last column from a row above, or
            # in a wall fall from a row below
            reach = [prefix[0, c][r - 1]]
            if c < W:
                reach.append(prefix[r, 0][c - 1])
                reach += [prefix[rv, 0][c] for rv in range(r + 1, H + 1)]
            else:
                # (r, W) is cell W + r - rv of row rv's path
                for rv in range(1, r + 1):
                    reach.append(prefix[rv, 0][W + r - rv - 1])
                reach += [g for (rv, _), g in falls.items() if rv > r]
            keep.append((reach, before[r, c], after[r, c]))

            # implied: a cell becomes empty only in one of these ways, each
            # over the previous state; first, the shot down its column gets
            # to it
            down = prefix[0, c][r]
            ways = [-after[r, c][EMPTY], empty[r, c], down]
            if c < W:
                # or a row at or below it passes, with nothing above to fall
                b.require_any(ways + [TRUE if r == 1 else empty[r - 1, c]])
                rows = [prefix[rv, 0][c] for rv in range(r, H + 1)]
                b.require_any(ways + rows)
                continue
            # in the last column a drop with no wall fall starts at row 1 or
            # under an empty cell, so it gets to the cell only if ``down``
            # does; or a wall fall of w rows from row rv (rv + w > r) copies
            # row r - w into it, empty or off the grid. Empty cells of a
            # column lie above its blocks, so that holds exactly when, for
            # every j in 1..r, row r - j + 1 is empty or such a fall has
            # w >= j.
            for j in range(1, r + 1):
                covering = [g for (rv, w), g in falls.items() if w >= j and rv + w > r]
                b.require_any(ways + [empty[r - j + 1, c], *covering])
    return keep


def _emit_sum_decrease(b: _Builder, s: int) -> None:
    """The colour sum falls: ``sum(s) >= j`` implies ``sum(s-1) >= j+1``
    for every j (at j = 0, ``sum(s-1) >= 1``). Step ``s``'s sum is built
    here once, and kept as ``b.sums[s]`` for step ``s + 1`` to read; step
    1 also builds the start's."""
    if s == 1:
        b.sums = [_colour_sum(b, 0)]
    before = b.sums[s - 1]
    after = _colour_sum(b, s)
    b.sums.append(after)
    b.clauses += [(before[0],), (-after[-1],)]
    b.clauses += [(-x, y) for x, y in zip(after, before[1:])]


def _colour_sum(b: _Builder, t: int) -> Sequence[int]:
    """The literals ``sum >= j``, j = 1..K·H·W, of step ``t``'s colour sum,
    as a totalizer (Bailleux & Boufkhad, CP 2003): each cell's value in
    unary (``¬empty``, an OR gate per middle colour, colour K), merged two
    counts at a time, oldest first, until one is left."""
    vm = b.vm
    counts = []
    for r, c in product(range(1, vm.height + 1), range(1, vm.width + 1)):
        ids = vm.cell_ids(t, r, c)
        counts.append([-ids[EMPTY]] + [b.disj(ids[v:]) for v in range(2, len(ids))])
    while len(counts) > 1:
        xs, ys = counts.pop(0), counts.pop(0)
        first = b.f.alloc_block(len(xs) + len(ys))
        zs = range(first, first + len(xs) + len(ys))
        # z_k: the two counts sum to at least k; x_i ∧ y_j → z_{i+j} and
        # ¬x_{i+1} ∧ ¬y_{j+1} → ¬z_{i+j+1}, an x or y out of range dropped
        up_x, up_y = [()] + [(-x,) for x in xs], [()] + [(-y,) for y in ys]
        down_x, down_y = [(x,) for x in xs] + [()], [(y,) for y in ys] + [()]
        for i, j in product(range(len(xs) + 1), range(len(ys) + 1)):
            if i + j:
                b.clauses.append(up_x[i] + up_y[j] + (zs[i + j - 1],))
            if i + j < len(zs):
                b.clauses.append(down_x[i] + down_y[j] + (-zs[i + j],))
        counts.append(zs)
    return counts[0]


def decode(model: Sequence[bool], varmap: VarMap) -> DecodedTrace:
    """Read the plan and trajectory out of a satisfying model.

    Re-validates that every one-hot group has exactly one value set and that
    exactly one shot axis is fired per step; a violation means the model did
    not come from a formula this encoder produced.
    """
    H, W = varmap.height, varmap.width
    grids, hands, shots, wall_falls = [], [], [], []
    for t in range(0, varmap.steps + 1):
        values = []
        for i, (low, ids) in enumerate(varmap.groups(t)):
            hits = [v for v, x in enumerate(ids, low) if model[x]]
            if len(hits) != 1:
                label = varmap.group_label(t, i)
                raise MalformedModelError(f"{label}: {len(hits)} values true")
            values.append(hits[0])
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
