"""Propositional formula construction, solving and DIMACS serialization.

Literals are signed integers: variable ids start at 1 and ``-v`` is the
negation of ``v``, as in DIMACS. The built-in :func:`dpll_solve` is a plain
DPLL, complete unless its deadline passes. Its unit propagation watches
two literals of every clause of two or more literals. Those clauses are
0-terminated runs of one flat literal list, so no clause is a Python object
of its own; a binary clause is a two-literal run whose watches never move.
The assignment is one list indexed by signed literal, as are the watch
lists. Each call builds those lists afresh, in a :class:`ClauseIndex`,
and keeps nothing after it returns; only a literal that occurs in such a
clause gets a watch list of its own. Propagation takes set literals newest
first, which reaches a conflict at the end of a chain of implications
sooner and sets the same literals. A formula that ends with
an :func:`at_least_k` is searched without the counter's clauses or
registers: the solver counts the constraint's false inputs itself. A
formula that starts with a chain of transition steps (a :class:`StepChain`
record, which the encoder attaches) is searched without the steps' clauses
or auxiliary variables: a callable sets each step's outputs once its
inputs are set, and a found model takes its auxiliary variables from the
steps' clauses (see :func:`dpll_solve`).
:func:`external_solve` runs any solver, given as an argv, that takes a
DIMACS path argument and prints SAT-competition style ``s``/``v`` lines.
Both take a ``timeout`` in seconds and report an unknown outcome with
reason ``"timeout"`` when it runs out.
"""

from __future__ import annotations

import subprocess
import tempfile
import time
from dataclasses import dataclass
from itertools import chain, combinations, compress, islice
from operator import neg, not_
from pathlib import Path
from typing import IO, Callable, Iterable, Optional, Sequence


class EmptySelectionError(ValueError):
    """A constraint over an empty literal selection."""


class InfeasibleBoundError(ValueError):
    """A cardinality bound larger than the number of literals."""


class SpawnFailureError(RuntimeError):
    """The external solver process could not be started."""


class ParseFailureError(RuntimeError):
    """The external solver produced malformed output."""


class CnfFormula:
    """A clause database with sequential variable allocation.

    Every literal in ``clauses`` lies within ``±var_count``; the solvers'
    literal-indexed lists rely on it. ``add_clause`` checks each clause it
    adds. :func:`exactly_one`, :func:`and_gate` and the encoder's step
    builder append to ``clauses`` unchecked, for speed; the encoder's step
    chain then checks each step's clauses at once with
    :meth:`check_clauses`, before any formula reads them. The goal
    counter's clauses (:func:`at_least_k`) and the encoder's start-state
    unit clauses are appended the same way, and each run of them is
    checked at once as soon as it is complete.

    ``counter`` records the last :func:`at_least_k` built on the formula,
    and ``steps`` a chain of transition steps whose successor a callable
    computes (:class:`StepChain`; the encoder sets it). The clauses are the
    formula all the same: DIMACS output, external solvers and model checks
    read them alone, and only :func:`dpll_solve` reads the records.
    """

    def __init__(self) -> None:
        self.var_count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.counter: Optional[AtLeastK] = None
        self.steps: Optional[StepChain] = None

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count

    def alloc_block(self, n: int) -> int:
        """Allocate ``n`` consecutive variables, returning the first id."""
        first = self.var_count + 1
        self.var_count += n
        return first

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = tuple(lits)
        if not clause:
            raise ValueError("empty clauses are not representable")
        for lit in clause:
            if lit == 0 or abs(lit) > self.var_count:
                raise ValueError(f"literal {lit} outside allocated variables")
        self.clauses.append(clause)

    def check_clauses(self, start: int) -> None:
        """Check the clauses from index ``start`` on, all at once, as
        ``add_clause`` checks one; for callers that append to ``clauses``
        themselves."""
        added = self.clauses[start:]
        if not all(added):
            raise ValueError("empty clauses are not representable")
        lits = set(chain.from_iterable(added))
        n = self.var_count
        if lits and (0 in lits or min(lits) < -n or max(lits) > n):
            bad = next(lit for lit in lits if lit == 0 or abs(lit) > n)
            raise ValueError(f"literal {bad} outside allocated variables")


@dataclass(frozen=True)
class SatOutcome:
    """Solver verdict: sat with a total model, unsat, or unknown.

    ``decisions`` and ``assigned`` count the work of :func:`dpll_solve`:
    the variables it decided (a backtrack's flip is not a decision) and the
    literals it set, those later undone included. Other solvers leave both
    0."""

    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[tuple[bool, ...]] = None  # indexed by var id, entry 0 unused
    reason: Optional[str] = None
    decisions: int = 0
    assigned: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    @classmethod
    def sat(cls, model: Sequence[bool]) -> "SatOutcome":
        return cls("sat", tuple(model))

    @classmethod
    def unsat(cls) -> "SatOutcome":
        return cls("unsat")

    @classmethod
    def unknown(cls, reason: str) -> "SatOutcome":
        return cls("unknown", reason=reason)


@dataclass(frozen=True)
class AtLeastK:
    """What one :func:`at_least_k` call built: "at least ``k`` of ``lits``"
    as the ``clauses`` from index ``first_clause`` of the formula, with one
    register variable per entry of ``registers``, numbered on from
    ``first_var``. A register's ``(i, j)`` means "at least j of the first i
    inputs are true"."""

    lits: tuple[int, ...]
    k: int
    first_var: int
    registers: tuple[tuple[int, int], ...]
    first_clause: int
    clauses: tuple[tuple[int, ...], ...]

    def describes(self, formula: CnfFormula) -> bool:
        """Whether ``formula`` still holds this counter's clauses where they
        were built, its registers are its last variables and no later
        clause mentions one, so that the count is the one constraint on
        the registers. The clauses before the counter's were there when it
        was built, so they mention no register either."""
        end = self.first_clause + len(self.clauses)
        later = chain.from_iterable(islice(formula.clauses, end, None))
        return (
            formula.var_count == self.first_var + len(self.registers) - 1
            and tuple(formula.clauses[self.first_clause : end]) == self.clauses
            and max(map(abs, later), default=0) < self.first_var
        )

    def registers_under(self, is_true: Sequence[bool]) -> list[bool]:
        """Each register's value, in id order, when each input ``x`` has the
        value ``is_true[x]``: (i, j) holds iff at least j of the first i
        inputs are true."""
        at_least = [0]
        for x in self.lits:
            at_least.append(at_least[-1] + is_true[x])
        return [at_least[i] >= j for i, j in self.registers]


@dataclass(frozen=True, eq=False)
class StepChain:
    """A formula's transition steps 0..h, which :func:`dpll_solve` computes
    with ``successor`` instead of propagating them through their clauses.

    The formula starts with the chain's clauses, ``source[:size]``, and has
    ``var_count`` variables. Per step, ``ranges`` holds three ranges of
    variables: the step's decisions, its outputs and its auxiliary
    variables; in order they are the chain's variables, from 1. Step 0's
    decisions are the start state and its other ranges are empty. From step
    1 on, the decisions are the step's shot, and ``successor(t, is_true)``
    sets the outputs: given a fully set state t − 1 and shot t in
    ``is_true`` (a list indexed by signed literal), it returns a literal of
    every output variable of step t, then the negations of any decision
    variables of step t + 1 that no model extending them can set true; at
    t = 0 only the latter. It returns None when no model extends them at
    all. Every auxiliary variable is a function of lower-index decision and
    output variables, and reading the chain's clauses once, in order,
    setting each clause's last unset literal when the others are false,
    sets it. ``searched`` are the chain's clauses over decision variables
    alone.

    ``goal`` is the :func:`at_least_k` whose clauses follow the chain's in
    the formula, or None; ``successor`` may rule out the shots of the last
    step that leave it unmet.
    """

    source: list[tuple[int, ...]]
    size: int
    var_count: int
    ranges: tuple[tuple[range, range, range], ...]
    searched: list[tuple[int, ...]]
    goal: Optional[AtLeastK]
    successor: Callable[[int, Sequence[bool]], Optional[Sequence[int]]]

    def describes(self, formula: CnfFormula) -> bool:
        """Whether ``formula`` is the chain's clauses, then ``goal``'s, which
        describe the formula and are its counter, then clauses over step
        0's variables alone, with no other variable. So every clause that
        reads a later step's variables is the chain's or the goal's."""
        goal, end = self.goal, self.size
        if goal is not None:
            if goal.first_clause != end or not goal.describes(formula):
                return False
            end += len(goal.clauses)
        later = chain.from_iterable(islice(formula.clauses, end, None))
        return (
            formula.var_count == self.var_count
            and formula.counter is goal
            and formula.clauses[: self.size] == self.source[: self.size]
            and max(map(abs, later), default=0) < self.ranges[0][0].stop
        )


def exactly_one(formula: CnfFormula, lits: Sequence[int]) -> None:
    """At-least-one clause plus pairwise at-most-one clauses, appended
    unchecked (see :class:`CnfFormula`)."""
    if not lits:
        raise EmptySelectionError("exactly_one over no literals")
    formula.clauses.append(tuple(lits))
    formula.clauses += combinations([-lit for lit in lits], 2)


def and_gate(formula: CnfFormula, inputs: Sequence[int]) -> int:
    """Fresh literal equivalent to the AND of ``inputs`` (full Tseitin).

    An OR gate is the negation of an AND over the negated inputs, with the
    same clauses, so this is the only gate the encoder needs. The clauses
    are appended unchecked (see :class:`CnfFormula`).
    """
    if not inputs:
        raise EmptySelectionError("and_gate over no inputs")
    z = formula.new_var()
    formula.clauses += [(-z, lit) for lit in inputs]
    formula.clauses.append((z, *[-lit for lit in inputs]))
    return z


def at_least_k(formula: CnfFormula, lits: Sequence[int], k: int) -> None:
    """Sequential-counter encoding of "at least k of lits are true" (Sinz,
    CP 2005).

    ``k`` = 0 emits nothing. The register for (i, j) means "at least j of
    the first i inputs are true" and implies register (i − 1, j), or input
    i and register (i − 1, j − 1). Registers are built one input at a time,
    i from 2 to n, each for j from max(1, k − (n − i)) to min(i, k): the
    registers that (n, k) reads through that chain. At i = 1 the register
    is the input itself; "at least 0" always holds and "at least i + 1 of
    i" never does, so those fold away, and tiny bounds give tiny encodings.

    A register is implied in one direction only: it implies its count, and
    no clause makes the count imply it. So once the inputs are set, a
    register the top unit does not force is free, and a solver that reads
    the clauses alone decides it. The call is recorded in
    ``formula.counter`` (see :class:`AtLeastK`): :func:`dpll_solve` counts
    the inputs itself and gives each register its exact value, so it
    decides no register.

    The clauses are appended unchecked and then checked at once with
    :meth:`CnfFormula.check_clauses`: an input of 0 or outside the
    formula's variables raises ``ValueError`` there, before
    ``formula.counter`` is set.
    """
    n = len(lits)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        raise InfeasibleBoundError(f"cannot require {k} of {n} literals")
    if k == 0:
        return
    clauses = formula.clauses
    first_var, first_clause = formula.var_count + 1, len(clauses)
    registers: list[tuple[int, int]] = []
    row = {1: lits[0]}  # row[j]: at least j of the inputs so far
    for i, x in enumerate(lits[1:], 2):
        below, row = row, {}
        for j in range(max(1, k - (n - i)), min(i, k) + 1):
            z = row[j] = formula.new_var()
            registers.append((i, j))
            # z -> (at least j of the first i - 1) or (x and at least j - 1)
            without = () if j == i else (below[j],)
            clauses.append((-z, *without, x))
            if j > 1:
                clauses.append((-z, *without, below[j - 1]))
    clauses.append((row[k],))
    formula.check_clauses(first_clause)
    formula.counter = AtLeastK(
        tuple(lits),
        k,
        first_var,
        tuple(registers),
        first_clause,
        tuple(clauses[first_clause:]),
    )


def write_dimacs(formula: CnfFormula, sink: IO[str]) -> None:
    """Serialize as ``p cnf`` followed by 0-terminated clause lines."""
    sink.write(f"p cnf {formula.var_count} {len(formula.clauses)}\n")
    for clause in formula.clauses:
        sink.write(" ".join(str(lit) for lit in clause))
        sink.write(" 0\n")


def _verify_model(formula: CnfFormula, model: Sequence[bool]) -> bool:
    """Whether ``model`` (indexed by var id) satisfies every clause."""
    n = formula.var_count
    # truth[lit] for signed lit: -v wraps to index 2n + 1 - v
    truth = [False]
    truth += model[1 : n + 1]
    truth += [not model[v] for v in range(n, 0, -1)]
    for clause in formula.clauses:
        for lit in clause:
            if truth[lit]:
                break
        else:
            return False
    return True


class ClauseIndex:
    """The propagation lists of the clauses one :func:`dpll_solve` call
    searches, over variables 1..``var_count``.

    Unit clauses are kept apart. The literals of every other clause are
    one run of ``lits``, ended by a 0; ``lits[0]`` is a 0 that starts no
    run. A clause is known by its run's start offset ``c``, and its watched
    literals are ``lits[c]`` and ``lits[c + 1]``: the watch list of each
    holds ``c``, and a watch move swaps entries of the run in place. So the
    index holds no Python object per clause. A binary clause is a
    two-literal run whose watches never move: the scan for a new watch
    meets its 0 at once. The watch lists are indexed by signed literal:
    ``-v`` wraps to index ``2 * var_count + 1 - v``.

    Every literal that occurs in a run has a watch list of its own; every
    other slot holds one shared empty tuple. A watch moves only to another
    literal of its run, so nothing is ever added to the tuple, and a
    literal that occurs in no run has no watch to visit.
    """

    def __init__(self, clauses: Iterable[tuple[int, ...]], var_count: int) -> None:
        self.var_count = var_count
        self.units: list[int] = []
        self.lits: list[int] = [0]  # every non-unit clause's run, ended by 0
        units, lits, starts = self.units, self.lits, []
        for clause in clauses:
            if len(clause) == 1:
                units.append(clause[0])
            else:
                starts.append(len(lits))
                lits += clause
                lits.append(0)
        watches: list = [()] * (2 * var_count + 1)  # run offsets, by literal
        for lit in set(lits):  # the runs' 0s give slot 0 a list too; none reads it
            watches[lit] = []
        for c in starts:
            watches[lits[c]].append(c)
            watches[lits[c + 1]].append(c)
        self.watches: list[list[int]] = watches


def dpll_solve(formula: CnfFormula, timeout: Optional[float] = None) -> SatOutcome:
    """Complete DPLL with unit propagation and lowest-index-first branching.

    Branching always picks the lowest-index unassigned variable and tries
    true before false, backtracking chronologically. Unit propagation only
    sets literals that every model extending the current assignment shares,
    so the search meets the models in brute-force order: the model returned
    is the first satisfying assignment when assignments are enumerated with
    variable 1 most significant and true before false, and the outcome is
    unsat exactly when no assignment satisfies the formula. ``timeout``
    seconds, counted from entry, bound the search: the deadline is checked
    before each decision, and once it has passed the outcome is unknown
    with reason ``"timeout"``. Sat models are re-verified against the clause
    list before being returned.

    When the record of the formula's last :func:`at_least_k` describes it
    (see :meth:`AtLeastK.describes`), the solver loads every clause but the
    counter's and searches only the variables below its registers. It
    counts the constraint's inputs as they are set false: one more than
    ``n - k`` is a conflict, and exactly ``n - k`` sets every other input
    true, which is as much as unit propagation over the counter's clauses
    finds (Chai & Kuehlmann, "A fast pseudo-Boolean constraint solver", DAC
    2003). The model then gives each register its exact value, which is
    the first extension in brute-force order, since the registers come
    last and each may be true only when its count holds; so the model is
    the one the clauses alone give. Any other formula is solved from its
    clauses, and so is an earlier counter's: its registers are decided as
    any other variable.

    When the formula's :class:`StepChain` describes it (see
    :meth:`StepChain.describes`), the search steps the chain natively, a
    theory propagator in the sense of DPLL(T) (Nieuwenhuis, Oliveras &
    Tinelli, J. ACM 2006). It loads only the chain's ``searched`` clauses
    and those after the goal counter's, and decides only each step's
    decision variables, in id order; the goal is counted as above. Where
    the next decision would follow a step's last decision variable, it sets
    the step's outputs, and rules out the next step's hopeless shots, with
    ``successor``, at the level of the last decision; a None, or an output
    already false, is a conflict there. What it sets holds in every model
    that extends the decisions, and every output and auxiliary variable is
    a function of lower-index variables, so the search still meets the
    models in brute-force order and returns the one the clauses give. The
    auxiliary variables are never indexed or decided: a model gets them
    from one in-order pass over the chain's clauses (see :func:`_fill`),
    and is then verified against every clause, as any other model.
    ``decisions`` and ``assigned`` count the search and that pass.

    The clauses searched are indexed once per call, in a fresh
    :class:`ClauseIndex`; the search moves watches by swapping literals
    within a clause's run in its ``lits``, and a binary clause is a
    two-literal run whose watches never move. No state outlives the call.

    Propagation takes set literals newest first, so it follows one chain of
    implications to its end before the next; the conflicts of the planner's
    goal count, which reads the last step, are met sooner. Whether
    propagation ends in a conflict, and the literals it sets when it does
    not, do not depend on that order, so neither do the decisions or the
    model.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    count, steps = formula.counter, formula.steps
    if steps is not None and not steps.describes(formula):
        steps = None
    if steps is None and count is not None and not count.describes(formula):
        count = None
    clauses = formula.clauses
    nvars = formula.var_count if count is None else count.first_var - 1
    if count is not None:
        end = count.first_clause + len(count.clauses)
        clauses = clauses[: count.first_clause] + clauses[end:]
    if steps is not None:
        clauses = steps.searched + clauses[steps.size :]
    return _search(formula, ClauseIndex(clauses, nvars), count, steps, deadline)


def _search(
    formula: CnfFormula,
    index: ClauseIndex,
    count: Optional[AtLeastK],
    steps: Optional[StepChain],
    deadline: Optional[float],
) -> SatOutcome:
    """Search the loaded clauses of ``formula`` (see :func:`dpll_solve`)."""
    nvars = index.var_count
    watches, lits = index.watches, index.lits
    if steps is None:
        order: Sequence[int] = range(1, nvars + 1)
        marks = 0
    else:
        # the variables decided, in id order, and after each step's
        # decisions its mark: a variable past the formula's that stands for
        # the step's outputs, set when they are
        order, marks = [], len(steps.ranges)
        for t, (decide, _, _) in enumerate(steps.ranges):
            order += decide
            order.append(nvars + 1 + t)
    size = 2 * (nvars + marks) + 1
    is_true = [False] * size  # unassigned when both are False
    trail: list[int] = []  # every literal set, in order: the undo log
    pending: list[int] = []  # set but not yet propagated, newest last
    # falsifies[lit]: how many of the count's inputs setting lit true makes
    # false; falses: the inputs the propagated literals made false
    falsifies = [0] * size
    inputs: Sequence[int] = ()
    slack = falses = 0
    if count is not None:
        inputs, slack = count.lits, len(count.lits) - count.k
        for x in inputs:
            falsifies[-x] += 1

    def fill_inputs() -> None:
        """Set every unassigned input of the count true."""
        for x in inputs:
            if not is_true[x] and not is_true[-x]:
                is_true[x] = True
                trail.append(x)
                pending.append(x)

    def propagate() -> bool:
        """Propagate the pending literals, newest first; False on conflict."""
        nonlocal falses
        while pending:
            lit = pending.pop()
            if falsifies[lit]:
                falses += falsifies[lit]
                if falses >= slack:
                    if falses > slack:
                        pending.clear()
                        return False
                    fill_inputs()
            false_lit = -lit
            ws = watches[false_lit]
            i = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                other = lits[c]
                if other == false_lit:
                    other = lits[c + 1]
                    if is_true[other]:
                        i += 1
                        continue
                    # the watch moves or the clause is unit: false_lit to c + 1
                    lits[c] = other
                    lits[c + 1] = false_lit
                elif is_true[other]:
                    i += 1
                    continue
                k = c + 2
                lk = lits[k]
                while lk:  # the run's 0 ends the scan
                    if not is_true[-lk]:
                        lits[c + 1] = lk
                        lits[k] = false_lit
                        watches[lk].append(c)
                        n -= 1
                        ws[i] = ws[n]
                        ws.pop()
                        break
                    k += 1
                    lk = lits[k]
                else:
                    if is_true[-other]:
                        pending.clear()
                        return False
                    is_true[other] = True
                    trail.append(other)
                    pending.append(other)
                    i += 1
        return True

    if steps is not None:
        get = is_true.__getitem__
        # heard[lit]: whether propagating lit does anything: the count reads
        # it, or a loaded clause holds -lit (a watch moves only within its
        # clause)
        heard = list(map(bool, falsifies))
        for lit in lits:
            heard[-lit] = True

        def place(step: int) -> bool:
            """Set ``step``'s mark and outputs; False on conflict."""
            trail.append(nvars + 1 + step)
            is_true[trail[-1]] = True
            outputs = steps.successor(step, is_true)
            if outputs is None or any(map(get, map(neg, outputs))):
                return False
            new = list(compress(outputs, map(not_, map(get, outputs))))
            for lit in new:
                is_true[lit] = True
            trail.extend(new)
            pending.extend(compress(new, map(heard.__getitem__, new)))
            return True

    # undone: literals set and then unset; placed: step marks set, which
    # are no literals; filled: auxiliary variables set for a model
    decisions = undone = placed = filled = 0

    def outcome(status: str, model=None, reason=None) -> SatOutcome:
        assigned = undone + filled + len(trail) - placed
        return SatOutcome(status, model, reason, decisions, assigned)

    if slack == 0:
        fill_inputs()
    for lit in index.units:
        if is_true[-lit]:
            return outcome("unsat")
        if not is_true[lit]:
            is_true[lit] = True
            trail.append(lit)
            pending.append(lit)
    if not propagate():
        return outcome("unsat")

    # stack of (position in order of the decided var, tried_negative_yet,
    # trail length and falses before the decision)
    stack: list[tuple[int, bool, int, int]] = []
    pos, end = 0, len(order)
    while True:
        while pos < end and (is_true[order[pos]] or is_true[-order[pos]]):
            pos += 1
        if pos == end:
            if steps is not None:
                filled = _fill(is_true, steps, formula.clauses)
            model = is_true[: nvars + 1]
            if count is not None:
                model += count.registers_under(is_true)
            if not _verify_model(formula, model):
                raise RuntimeError("internal solver produced a bad model")
            return outcome("sat", tuple(model))
        var = order[pos]
        if var > nvars:
            # a step's mark: its outputs are set at the level of the last
            # decision, as propagation sets literals
            placed += 1
            ok = place(var - nvars - 1) and propagate()
        else:
            if deadline is not None and time.monotonic() >= deadline:
                return outcome("unknown", reason="timeout")
            stack.append((pos, False, len(trail), falses))
            decisions += 1
            is_true[var] = True
            trail.append(var)
            pending.append(var)
            ok = propagate()
        while not ok:
            # conflict: undo decisions up to the newest with an untried polarity
            tried = True
            while tried:
                if not stack:
                    return outcome("unsat")
                pos, tried, mark, falses = stack.pop()
                for lit in trail[mark:]:
                    is_true[lit] = False
                undone += len(trail) - mark
                del trail[mark:]
            stack.append((pos, True, mark, falses))
            var = order[pos]
            is_true[-var] = True
            trail.append(-var)
            pending.append(-var)
            ok = propagate()


def _fill(is_true: list[bool], steps: StepChain, clauses: list[tuple[int, ...]]) -> int:
    """Set the auxiliary variables of ``steps``, given their decisions and
    outputs in ``is_true``, from the chain's clauses, the first ``steps.size``
    of ``clauses``; return how many were set.

    One pass over the clauses in order sets the last unset literal of each
    clause whose other literals are false. A gate's clauses follow those of
    its inputs, so the pass sets every auxiliary variable, as unit
    propagation would; a variable it leaves unset, or a clause it finds
    false, means the decisions and outputs are no model of the chain, and
    raises ``RuntimeError``."""
    set_ = 0
    for clause in islice(clauses, steps.size):
        free = 0
        for lit in clause:
            if is_true[lit]:
                break
            if not is_true[-lit]:
                if free:
                    break  # two unset literals force nothing
                free = lit
        else:
            if not free:
                raise RuntimeError("internal solver produced a bad model")
            is_true[free] = True
            set_ += 1
    for _, _, aux in steps.ranges:
        for v in aux:
            if not is_true[v] and not is_true[-v]:
                raise RuntimeError("internal solver produced a bad model")
    return set_


def external_solve(
    formula: CnfFormula,
    argv: Sequence[str],
    timeout: Optional[float] = None,
) -> SatOutcome:
    """Run an external DIMACS solver process and parse its verdict.

    ``argv`` is run with the CNF file path appended. Expected output is an
    ``s SATISFIABLE`` / ``s UNSATISFIABLE`` status line and, for sat, ``v``
    lines of signed literals terminated by 0. A timeout or a missing status
    line yields an unknown outcome; malformed output raises
    :class:`ParseFailureError`, and an empty or unstartable ``argv``
    :class:`SpawnFailureError`. Sat models are re-verified.
    """
    if not argv:
        raise SpawnFailureError("no solver command")
    with tempfile.TemporaryDirectory(prefix="plotting-cnf-") as tmp:
        path = Path(tmp) / "formula.cnf"
        with open(path, "w") as fh:
            write_dimacs(formula, fh)
        try:
            proc = subprocess.run(
                [*argv, str(path)],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return SatOutcome.unknown("timeout")
        except OSError as exc:
            raise SpawnFailureError(f"cannot run {argv!r}: {exc}") from exc

    status: Optional[str] = None
    value_tokens: list[int] = []
    for line in proc.stdout.splitlines():
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v ") or line.strip() == "v":
            try:
                value_tokens.extend(int(tok) for tok in line[1:].split())
            except ValueError as exc:
                raise ParseFailureError(f"bad value line {line!r}") from exc
    if status is None:
        return SatOutcome.unknown("solver exited without a status line")
    if status == "UNSATISFIABLE":
        return SatOutcome.unsat()
    if status == "UNKNOWN":
        return SatOutcome.unknown("solver reported unknown")
    if status != "SATISFIABLE":
        raise ParseFailureError(f"unrecognized status line {status!r}")

    if value_tokens and value_tokens[-1] == 0:
        value_tokens.pop()
    elif value_tokens:
        raise ParseFailureError("value lines not terminated by 0")
    model = [False] * (formula.var_count + 1)
    given = set(value_tokens)
    for tok in value_tokens:
        if tok == 0 or abs(tok) > formula.var_count:
            raise ParseFailureError(f"literal {tok} outside formula variables")
        if -tok in given:
            raise ParseFailureError(f"variable {abs(tok)} given both signs")
        model[abs(tok)] = tok > 0
    if not _verify_model(formula, model):
        raise ParseFailureError("reported model does not satisfy the formula")
    return SatOutcome.sat(model)
