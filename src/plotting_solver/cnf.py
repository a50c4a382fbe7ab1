"""Propositional formula construction, solving and DIMACS serialization.

Literals are signed integers: variable ids start at 1 and ``-v`` is the
negation of ``v``, as in DIMACS. The built-in :func:`dpll_solve` is a plain
DPLL, complete unless its deadline passes. Its unit propagation keeps every
binary clause as two implications in per-literal lists (setting ``a`` true
forces each literal listed under ``a``) and watches two literals of every
longer clause; its assignment is one list indexed by signed literal, as are
the implication and watch lists. Those lists live in a :class:`ClauseIndex`
that can be kept across calls: a formula that starts with the clauses of
the one solved before reuses their entries and indexes only the clauses
after that shared run, provided the earlier formula had nothing but unit
clauses after it and no more variables; any other formula is indexed
anew. This is sound because the search learns no clauses and two watched
literals of a clause need no repair once every assignment is undone.
Propagation takes set literals newest first, which reaches a conflict at
the end of a chain of implications sooner and sets the same literals. A
formula that ends with an :func:`at_least_k` is searched without the
counter's clauses or registers: the solver counts the constraint's false
inputs itself (see :func:`dpll_solve`).
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
from itertools import chain, combinations, islice
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence


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
    adds, as the goal counter's (:func:`at_least_k`) and the encoder's unit
    clauses are. :func:`exactly_one`, :func:`and_gate` and the encoder's
    step builder append to ``clauses`` unchecked, for speed; the encoder's
    step chain then checks each step's clauses at once with
    :meth:`check_clauses`, before any formula reads them.

    ``counter`` records the last :func:`at_least_k` built on the formula.
    The clauses are the formula all the same: DIMACS output, external
    solvers and model checks read them alone, and only :func:`dpll_solve`
    reads the record.
    """

    def __init__(self) -> None:
        self.var_count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.counter: Optional[AtLeastK] = None

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
    """Solver verdict: sat with a total model, unsat, or unknown."""

    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[tuple[bool, ...]] = None  # indexed by var id, entry 0 unused
    reason: Optional[str] = None

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
    """
    n = len(lits)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        raise InfeasibleBoundError(f"cannot require {k} of {n} literals")
    if k == 0:
        return
    first_var, first_clause = formula.var_count + 1, len(formula.clauses)
    registers: list[tuple[int, int]] = []
    row = {1: lits[0]}  # row[j]: at least j of the inputs so far
    for i, x in enumerate(lits[1:], 2):
        below, row = row, {}
        for j in range(max(1, k - (n - i)), min(i, k) + 1):
            z = row[j] = formula.new_var()
            registers.append((i, j))
            # z -> (at least j of the first i - 1) or (x and at least j - 1)
            without = () if j == i else (below[j],)
            formula.add_clause((-z, *without, x))
            if j > 1:
                formula.add_clause((-z, *without, below[j - 1]))
    formula.add_clause((row[k],))
    formula.counter = AtLeastK(
        tuple(lits),
        k,
        first_var,
        tuple(registers),
        first_clause,
        tuple(formula.clauses[first_clause:]),
    )


def write_dimacs(formula: CnfFormula, sink: IO[str]) -> None:
    """Serialize as ``p cnf`` followed by 0-terminated clause lines."""
    sink.write(f"p cnf {formula.var_count} {len(formula.clauses)}\n")
    for clause in formula.clauses:
        sink.write(" ".join(str(lit) for lit in clause))
        sink.write(" 0\n")


def dimacs_text(formula: CnfFormula) -> str:
    import io

    buf = io.StringIO()
    write_dimacs(formula, buf)
    return buf.getvalue()


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
    """The propagation lists of the clauses :func:`dpll_solve` last loaded.

    Binary clauses are kept as two implications in per-literal lists
    (setting ``a`` true forces each literal listed under ``a``), every
    longer clause as a copy whose first two literals are watched, and unit
    clauses apart. The implication and watch lists are indexed by signed
    literal: ``-v`` wraps to index ``2 * var_count + 1 - v``.

    Loading clauses keeps the entries of the longest run of leading clauses
    that equal the last load's, when the clauses loaded after that run are
    all unit clauses and the variables do not shrink: those units are
    deleted and only the new clauses are indexed. Any other load clears the
    index and indexes every clause, as a first load does. The planner's
    horizons extend one another and drop only the instance's trailing unit
    clauses, so a solve indexes each shared clause once. Kept watches need
    no repair: with nothing assigned, any two literals of a clause are
    valid watches (Moskewicz et al., "Chaff", DAC 2001).
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget every clause."""
        self.var_count = 0
        self.clauses: list[tuple[int, ...]] = []  # the clauses indexed, in order
        self.implied: list[list[int]] = [[]]
        self.watches: list[list[list[int]]] = [[]]
        self.units: list[int] = []

    def load(self, new: list[tuple[int, ...]], var_count: int) -> None:
        """Index the clauses ``new``, over variables 1..``var_count``,
        keeping the leading run they share with the clauses loaded before
        when only unit clauses follow it there."""
        old = self.clauses
        n = min(len(old), len(new))
        keep = 0
        # C-level slice comparison; an element-wise scan is several times slower
        while keep < n and old[keep : keep + 1024] == new[keep : keep + 1024]:
            keep += 1024
        keep = min(keep, n)
        while keep < n and old[keep] == new[keep]:
            keep += 1

        dropped = len(old) - keep
        if var_count < self.var_count or any(
            len(clause) > 1 for clause in islice(old, keep, None)
        ):
            self.clear()
            old, keep = self.clauses, 0
        elif dropped:
            del self.units[-dropped:]
            del old[keep:]

        implied, watches, units = self.implied, self.watches, self.units
        if var_count > self.var_count:
            at, grow = self.var_count + 1, 2 * (var_count - self.var_count)
            implied[at:at] = [[] for _ in range(grow)]
            watches[at:at] = [[] for _ in range(grow)]
            self.var_count = var_count

        for clause in islice(new, keep, None):
            size = len(clause)
            if size == 2:
                a, b = clause
                implied[-a].append(b)
                implied[-b].append(a)
            elif size == 1:
                units.append(clause[0])
            else:
                c = list(clause)  # c[0] and c[1] are the watched literals
                watches[c[0]].append(c)
                watches[c[1]].append(c)
        old += islice(new, keep, None)


def dpll_solve(
    formula: CnfFormula,
    timeout: Optional[float] = None,
    index: Optional[ClauseIndex] = None,
) -> SatOutcome:
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

    The clauses are loaded into ``index`` (a fresh :class:`ClauseIndex`
    when it is None), which keeps the lists of the clauses they share, as a
    leading run, with those solved before through the same index, when only
    unit clauses followed that run there; otherwise it indexes them anew.
    Pass one index to the solves of formulas that extend one another. If
    loading or the search raises, the index is cleared.

    Propagation takes set literals newest first, so it follows one chain of
    implications to its end before the next; the conflicts of the planner's
    goal count, which reads the last step, are met sooner. Whether
    propagation ends in a conflict, and the literals it sets when it does
    not, do not depend on that order, so neither do the decisions or the
    model.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    if index is None:
        index = ClauseIndex()
    count = formula.counter
    try:
        if count is not None and count.describes(formula):
            end = count.first_clause + len(count.clauses)
            rest = formula.clauses[: count.first_clause] + formula.clauses[end:]
            index.load(rest, count.first_var - 1)
        else:
            count = None
            index.load(formula.clauses, formula.var_count)
        return _search(formula, index, count, deadline)
    except BaseException:
        index.clear()  # a half-done load or watch move must not be reused
        raise


def _search(
    formula: CnfFormula,
    index: ClauseIndex,
    count: Optional[AtLeastK],
    deadline: Optional[float],
) -> SatOutcome:
    nvars = index.var_count
    implied, watches = index.implied, index.watches
    is_true = [False] * (2 * nvars + 1)  # unassigned when both are False
    trail: list[int] = []  # every literal set, in order: the undo log
    pending: list[int] = []  # set but not yet propagated, newest last
    # falsifies[lit]: how many of the count's inputs setting lit true makes
    # false; falses: the inputs the propagated literals made false
    falsifies = [0] * (2 * nvars + 1)
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
            for q in implied[lit]:
                if not is_true[q]:
                    if is_true[-q]:
                        pending.clear()
                        return False
                    is_true[q] = True
                    trail.append(q)
                    pending.append(q)
            false_lit = -lit
            ws = watches[false_lit]
            i = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                other = c[0]
                if other == false_lit:
                    other = c[1]
                    if is_true[other]:
                        i += 1
                        continue
                    # the watch moves or the clause is unit: false_lit to c[1]
                    c[0] = other
                    c[1] = false_lit
                elif is_true[other]:
                    i += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if not is_true[-lk]:
                        c[1] = lk
                        c[k] = false_lit
                        watches[lk].append(c)
                        n -= 1
                        ws[i] = ws[n]
                        ws.pop()
                        break
                else:
                    if is_true[-other]:
                        pending.clear()
                        return False
                    is_true[other] = True
                    trail.append(other)
                    pending.append(other)
                    i += 1
        return True

    if slack == 0:
        fill_inputs()
    for lit in index.units:
        if is_true[-lit]:
            return SatOutcome.unsat()
        if not is_true[lit]:
            is_true[lit] = True
            trail.append(lit)
            pending.append(lit)
    if not propagate():
        return SatOutcome.unsat()

    # stack of (decided var, tried_negative_yet, trail length and falses
    # before the decision)
    stack: list[tuple[int, bool, int, int]] = []
    next_var = 1
    while True:
        while next_var <= nvars and (is_true[next_var] or is_true[-next_var]):
            next_var += 1
        if next_var > nvars:
            model = is_true[: nvars + 1]
            if count is not None:
                model += count.registers_under(is_true)
            if not _verify_model(formula, model):
                raise RuntimeError("internal solver produced a bad model")
            return SatOutcome.sat(model)
        if deadline is not None and time.monotonic() >= deadline:
            return SatOutcome.unknown("timeout")
        stack.append((next_var, False, len(trail), falses))
        is_true[next_var] = True
        trail.append(next_var)
        pending.append(next_var)
        while not propagate():
            # conflict: undo decisions up to the newest with an untried polarity
            tried = True
            while tried:
                if not stack:
                    return SatOutcome.unsat()
                var, tried, mark, falses = stack.pop()
                for lit in trail[mark:]:
                    is_true[lit] = False
                del trail[mark:]
                if var < next_var:
                    next_var = var
            stack.append((var, True, mark, falses))
            is_true[-var] = True
            trail.append(-var)
            pending.append(-var)


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
