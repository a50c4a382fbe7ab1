"""Propositional formula construction, solving and DIMACS serialization.

Literals are signed integers: variable ids start at 1 and ``-v`` is the
negation of ``v``, as in DIMACS. The built-in :func:`dpll_solve` solves a
formula that a chain of transition steps describes exactly (a
:class:`StepChain` record, which the encoder attaches to a formula whose
clauses it seals in one tuple, the record's own), complete unless its
deadline passes. It searches depth first over the steps' options: a
callable lists each step's options, the initial hands and then the shots
that have a model, each with the state it reaches, so no clause is read
during the search. A found model takes every variable that is not
auxiliary from the options chosen, through the record; one pass over
every clause then checks it and sets each auxiliary variable that a clause
forces (see :func:`dpll_solve`). It refuses any other formula, one with
no record or one that its record does not describe, with ``ValueError``;
the clause DPLL that solves such formulas is the tests' reference
(``tests/clause_dpll.py``), not part of the package.
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
from itertools import chain, combinations
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Optional, Sequence


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
    :meth:`check_clauses`, before any formula reads them. The encoder's
    start-state unit clauses are appended the same way and checked at once
    when complete. :func:`at_least_k` checks its inputs before it appends
    anything, and its other literals are the registers it allocates.

    ``steps`` records a chain of transition steps whose options a callable
    lists (:class:`StepChain`; the encoder sets it). An encoded formula's
    ``clauses`` are a sealed tuple, the record's own, so ``add_clause`` or
    :func:`at_least_k` on it raises. :func:`dpll_solve` solves only a
    formula that its record describes, and refuses any other. The clauses
    are the formula all the same: DIMACS output, external solvers and model
    checks read them alone, and only :func:`dpll_solve` reads the record.
    """

    def __init__(self) -> None:
        self.var_count = 0
        self.clauses: list[tuple[int, ...]] = []
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
    the options it tried over the :class:`StepChain` and their literals,
    and for a model its ``var_count`` besides, as it sets every variable
    once. The tests' clause DPLL (``tests/clause_dpll.py``) counts the
    variables it decided (a backtrack's flip is not a decision) and the
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
    """What one :func:`at_least_k` call built: "at least ``k`` of ``lits``",
    with one register variable per entry of ``registers``, numbered on from
    ``first_var``. A register's ``(i, j)`` means "at least j of the first i
    inputs are true"."""

    lits: tuple[int, ...]
    k: int
    first_var: int
    registers: tuple[tuple[int, int], ...]

    def registers_under(self, inputs: Sequence[bool]) -> list[bool]:
        """Each register's value, in id order, when the inputs have the
        values ``inputs``, in the order of ``lits``: (i, j) holds iff at
        least j of the first i inputs are true."""
        at_least = [0]
        for value in inputs:
            at_least.append(at_least[-1] + value)
        return [at_least[i] >= j for i, j in self.registers]


@dataclass(frozen=True, eq=False)
class StepChain:
    """A formula's transition steps 0..``horizon``, which :func:`dpll_solve`
    searches through ``choices`` instead of through their clauses.

    The record describes one formula exactly (:meth:`describes`): the one
    with ``var_count`` variables whose clauses are the sealed tuple
    ``clauses`` itself, which no one can change.

    ``choices(t, state)`` lists step t + 1's options once step t has
    reached ``state``; ``choices(-1, None)`` lists step 0's. An option is
    ``(lits, state)``: the decision variables of step t + 1 that it sets
    true, every other one of the step being false, and the state step t + 1
    then reaches, opaque to the solver. The options are the assignments of
    step t + 1's decision variables that satisfy the formula's clauses over
    decision variables alone, in the order lowest-index branching over
    those clauses meets them, less only assignments that no model extends.
    ``outputs(t, option)`` gives a literal of every variable of step t that
    is not auxiliary, once step t has taken ``option``: its decision
    variables as the option sets them, and every other one with the value
    it has in the first model, in brute-force order, that extends the
    options taken; the last step's include the variables after the chain's.
    The solver calls it only for a model. Both depend on their arguments
    alone and keep no state of their own: one formula may be solved more
    than once, from more than one thread. Every auxiliary variable is a
    function of lower-index variables that are not auxiliary, and the
    formula's clauses, read once in order from the outputs alone, set it:
    each clause, when the pass reaches it, has a true literal or at most
    one unset literal (see :func:`_propagate`).
    """

    clauses: tuple[tuple[int, ...], ...]
    var_count: int
    horizon: int
    choices: Callable[[int, Any], Sequence[tuple[Sequence[int], Any]]]
    outputs: Callable[[int, tuple[Sequence[int], Any]], Sequence[int]]

    def describes(self, formula: CnfFormula) -> bool:
        """Whether ``formula``'s clauses are ``clauses``, the same object,
        and it has ``var_count`` variables; no clause is read."""
        return formula.clauses is self.clauses and formula.var_count == self.var_count


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


def at_least_k(formula: CnfFormula, lits: Sequence[int], k: int) -> Optional[AtLeastK]:
    """Sequential-counter encoding of "at least k of lits are true" (Sinz,
    CP 2005); returns what it built, or None for ``k`` = 0, which emits
    nothing.

    The register for (i, j) means "at least j of the first i inputs are
    true" and implies register (i − 1, j), or input i and register
    (i − 1, j − 1). Registers are built one input at a time, i from 2 to n,
    each for j from max(1, k − (n − i)) to min(i, k): the registers that
    (n, k) reads through that chain. At i = 1 the register is the input
    itself; "at least 0" always holds and "at least i + 1 of i" never does,
    so those fold away, and tiny bounds give tiny encodings.

    A register is implied in one direction only: it implies its count, and
    no clause makes the count imply it. So once the inputs are set, a
    register the top unit does not force is free, and a solver that reads
    the clauses alone decides it; :meth:`AtLeastK.registers_under` gives
    each register its exact value instead.

    An input of 0 or outside the formula's variables raises ``ValueError``,
    and sealed clauses ``AttributeError``, before any variable is allocated
    or clause appended. The clauses are appended unchecked (see
    :class:`CnfFormula`).
    """
    n = len(lits)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        raise InfeasibleBoundError(f"cannot require {k} of {n} literals")
    if k == 0:
        return None
    bad = [x for x in lits if x == 0 or abs(x) > formula.var_count]
    if bad:
        raise ValueError(f"literal {bad[0]} outside allocated variables")
    append = formula.clauses.append
    first_var = formula.var_count + 1
    registers: list[tuple[int, int]] = []
    row = {1: lits[0]}  # row[j]: at least j of the inputs so far
    for i, x in enumerate(lits[1:], 2):
        below, row = row, {}
        for j in range(max(1, k - (n - i)), min(i, k) + 1):
            z = row[j] = formula.new_var()
            registers.append((i, j))
            # z -> (at least j of the first i - 1) or (x and at least j - 1)
            without = () if j == i else (below[j],)
            append((-z, *without, x))
            if j > 1:
                append((-z, *without, below[j - 1]))
    append((row[k],))
    return AtLeastK(tuple(lits), k, first_var, tuple(registers))


def write_dimacs(formula: CnfFormula, sink: IO[str]) -> None:
    """Serialize as ``p cnf`` followed by 0-terminated clause lines."""
    sink.write(f"p cnf {formula.var_count} {len(formula.clauses)}\n")
    for clause in formula.clauses:
        sink.write(" ".join(str(lit) for lit in clause))
        sink.write(" 0\n")


def _propagate(clauses: Iterable[tuple[int, ...]], is_true: list[bool]) -> bool:
    """One pass over ``clauses``, in order, under the table ``is_true``
    indexed by signed literal, a variable being unset while neither of its
    literals is true. A clause with a true literal holds; one with no true
    literal and exactly one unset literal sets that literal; any other is
    rejected, and the pass returns False at once. A set literal is never
    changed, so when the pass returns True the table satisfies every
    clause (unit propagation, Davis, Logemann & Loveland, CACM 1962, in a
    single pass)."""
    for clause in clauses:
        for lit in clause:
            if is_true[lit]:
                break
        else:
            unset = [lit for lit in clause if not is_true[-lit]]
            if len(unset) != 1:
                return False
            is_true[unset[0]] = True
    return True


def _verify_model(formula: CnfFormula, model: Sequence[bool]) -> bool:
    """Whether ``model`` (indexed by var id) satisfies every clause: the
    :func:`_propagate` pass over a total table, which sets nothing."""
    n = formula.var_count
    # truth[lit] for signed lit: -v wraps to index 2n + 1 - v
    truth = [False]
    truth += model[1 : n + 1]
    truth += [not model[v] for v in range(n, 0, -1)]
    return _propagate(formula.clauses, truth)


def dpll_solve(formula: CnfFormula, timeout: Optional[float] = None) -> SatOutcome:
    """Complete search of a formula that its :class:`StepChain` describes,
    with lowest-index-first branching.

    ``formula.steps`` must describe the formula (see
    :meth:`StepChain.describes`): its clauses must be the record's sealed
    tuple. A formula with no record, or one that its record does not
    describe (a copy of the clauses included), raises ``ValueError`` and is
    not searched.

    The search steps the chain natively, a theory solver in the sense of
    DPLL(T) (Nieuwenhuis, Oliveras & Tinelli, J. ACM 2006), and reads no
    clause at all: it is a depth-first search over ``choices``, from step
    0's options on, which tries each step's options in their order and
    takes the first that leads to an option of the last step. The options
    are the assignments of a step's decision variables that lowest-index
    branching over the clauses would meet, in its order, less some that no
    model extends, so the search meets the models in brute-force order: the
    model returned is the first satisfying assignment when assignments are
    enumerated with variable 1 most significant and true before false, and
    the outcome is unsat exactly when no assignment satisfies the formula.
    That holds because the start grid's variables come before the hand's
    and every model sets them by unit, every auxiliary variable is a
    function of lower-index variables, and ``outputs`` gives each other
    variable its value in the first model that extends the options taken.

    ``timeout`` seconds, counted from entry, bound the search: the deadline
    is checked before each option, and once it has passed the outcome is
    unknown with reason ``"timeout"``. A model takes every variable that is
    not auxiliary from ``outputs``, per option taken; one in-order pass
    over every clause then checks it and sets each auxiliary variable that
    a clause forces (see :func:`_fill`), so no model is returned that
    leaves a clause false. ``decisions`` counts the options tried and
    ``assigned`` their literals, then the model's ``var_count``.

    The search keeps its state in the call: one formula may be solved
    again, or from two threads at once.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    steps = formula.steps
    if steps is None:
        raise ValueError("dpll_solve: the formula has no step record")
    if not steps.describes(formula):
        raise ValueError("dpll_solve: the formula's step record does not describe it")
    return _step_search(formula, steps, deadline)


def _step_search(
    formula: CnfFormula, steps: StepChain, deadline: Optional[float]
) -> SatOutcome:
    """Search ``formula`` over the options of ``steps`` (see
    :func:`dpll_solve`)."""
    choices, last = steps.choices, steps.horizon
    tried = assigned = 0
    path: list[tuple[Sequence[int], Any]] = []  # the option taken per step
    left = [iter(choices(-1, None))]  # per step, its options not yet tried
    while left:
        option = next(left[-1], None)
        if option is None:
            left.pop()
            if left:
                path.pop()
            continue
        if deadline is not None and time.monotonic() >= deadline:
            return SatOutcome("unknown", None, "timeout", tried, assigned)
        tried += 1
        assigned += len(option[0])
        path.append(option)
        if len(path) <= last:
            left.append(iter(choices(len(path) - 1, option[1])))
            continue
        model = _fill(formula, steps, path)
        assigned += formula.var_count
        return SatOutcome("sat", tuple(model), None, tried, assigned)
    return SatOutcome("unsat", None, None, tried, assigned)


def _fill(
    formula: CnfFormula, steps: StepChain, path: Sequence[tuple[Sequence[int], Any]]
) -> list[bool]:
    """The model, indexed by var id, of ``formula`` that the options
    ``path``, one per step, reach.

    First every variable that is not auxiliary, from ``steps.outputs`` per
    option; one set both ways raises ``RuntimeError``. Then one
    :func:`_propagate` pass over every clause, in order, checks each and
    sets each auxiliary variable where a clause forces it: a gate's
    defining clauses come before any clause that reads it, so each clause
    has at most one unset literal when the pass reaches it. A rejected
    clause, or a variable still unset, means the outputs are no model of
    the formula, and raises ``RuntimeError``."""
    nvars = formula.var_count
    is_true = [False] * (2 * nvars + 1)  # by signed literal
    for t, option in enumerate(path):
        for lit in steps.outputs(t, option):
            if is_true[-lit]:
                raise RuntimeError("internal solver produced a bad model")
            is_true[lit] = True
    if not _propagate(formula.clauses, is_true):
        raise RuntimeError("internal solver produced a bad model")
    for v in range(1, nvars + 1):
        if not is_true[v] and not is_true[-v]:
            raise RuntimeError("internal solver produced a bad model")
    return is_true[: nvars + 1]


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
