"""Propositional formula construction, solving and DIMACS serialization.

Literals are signed integers: variable ids start at 1 and ``-v`` is the
negation of ``v``, as in DIMACS. The built-in :func:`dpll_solve` is a plain
DPLL with two-watched-literal unit propagation, complete unless its deadline
passes; :func:`external_solve` shells out to any solver that takes a DIMACS
path argument and prints SAT-competition style ``s``/``v`` lines. Both take
a ``timeout`` in seconds and report an unknown outcome with reason
``"timeout"`` when it runs out.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union


class EmptySelectionError(ValueError):
    """A constraint over an empty literal selection."""


class InfeasibleBoundError(ValueError):
    """A cardinality bound larger than the number of literals."""


class SpawnFailureError(RuntimeError):
    """The external solver process could not be started."""


class ParseFailureError(RuntimeError):
    """The external solver produced malformed output."""


class Gate(Enum):
    AND = "and"
    OR = "or"


class CnfFormula:
    """A clause database with sequential variable allocation."""

    def __init__(self) -> None:
        self.var_count = 0
        self.clauses: list[tuple[int, ...]] = []

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

    def add_false(self) -> None:
        """Assert an unsatisfiable constraint as a fresh unit-clause pair."""
        v = self.new_var()
        self.add_clause((v,))
        self.add_clause((-v,))


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


def exactly_one(formula: CnfFormula, lits: Sequence[int]) -> None:
    """At-least-one clause plus pairwise at-most-one clauses."""
    if not lits:
        raise EmptySelectionError("exactly_one over no literals")
    formula.add_clause(lits)
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            formula.add_clause((-lits[i], -lits[j]))


def reify(formula: CnfFormula, gate: Gate, inputs: Sequence[int]) -> int:
    """Fresh literal equivalent to ``gate`` over ``inputs`` (full Tseitin)."""
    if not inputs:
        raise EmptySelectionError("reify over no inputs")
    z = formula.new_var()
    if gate is Gate.AND:
        for lit in inputs:
            formula.add_clause((-z, lit))
        formula.add_clause((z,) + tuple(-lit for lit in inputs))
    elif gate is Gate.OR:
        formula.add_clause((-z,) + tuple(inputs))
        for lit in inputs:
            formula.add_clause((z, -lit))
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return z


def at_least_k(formula: CnfFormula, lits: Sequence[int], k: int) -> None:
    """Sequential-counter encoding of "at least k of lits are true".

    ``k`` = 0 emits nothing. Register variables track "at least j of the
    first i inputs are true"; degenerate registers fold to constants or to
    the input literals themselves, so tiny bounds produce tiny encodings.
    """
    n = len(lits)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        raise InfeasibleBoundError(f"cannot require {k} of {n} literals")
    if k == 0:
        return

    TRUE, FALSE = object(), object()
    registers: dict[tuple[int, int], object] = {}

    def geq(i: int, j: int):
        # at least j of the first i inputs
        if j <= 0:
            return TRUE
        if j > i:
            return FALSE
        if i == 1:
            return lits[0]
        key = (i, j)
        if key in registers:
            return registers[key]
        with_xi = geq(i - 1, j - 1)  # given lits[i-1] is true
        without = geq(i - 1, j)
        z = formula.new_var()
        # z -> (without or (lits[i-1] and with_xi))
        if without is FALSE:
            formula.add_clause((-z, lits[i - 1]))
            if with_xi is not TRUE:
                formula.add_clause((-z, with_xi))
        else:
            formula.add_clause((-z, without, lits[i - 1]))
            if with_xi is not TRUE:
                formula.add_clause((-z, without, with_xi))
        registers[key] = z
        return z

    top = geq(n, k)
    if top is TRUE:
        return
    if top is FALSE:  # unreachable given the bound check above
        formula.add_false()
        return
    formula.add_clause((top,))


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
    for clause in formula.clauses:
        if not any(model[lit] if lit > 0 else not model[-lit] for lit in clause):
            return False
    return True


def dpll_solve(formula: CnfFormula, timeout: Optional[float] = None) -> SatOutcome:
    """Complete DPLL with unit propagation and lowest-index-first branching.

    Branching always picks the lowest-index unassigned variable and tries
    true before false, so results are deterministic. ``timeout`` seconds,
    counted from entry, bound the search: the deadline is checked before
    each decision, and once it has passed the outcome is unknown with
    reason ``"timeout"``. Sat models are re-verified against the clause list
    before being returned.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    nvars = formula.var_count
    cls = [list(c) for c in formula.clauses]
    assign = bytearray(nvars + 1)  # 0 unset, 1 true, 2 false
    watches: list[list[int]] = [[] for _ in range(2 * nvars + 2)]
    units: list[int] = []
    for ci, clause in enumerate(cls):
        if len(clause) == 1:
            units.append(clause[0])
        else:
            a, b = clause[0], clause[1]
            watches[(a << 1) if a > 0 else ((-a) << 1) | 1].append(ci)
            watches[(b << 1) if b > 0 else ((-b) << 1) | 1].append(ci)

    trail: list[int] = []

    def propagate(qhead: int) -> bool:
        """Propagate from trail position ``qhead``; False on conflict."""
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            wl = watches[(neg << 1) if neg > 0 else ((-neg) << 1) | 1]
            i = 0
            while i < len(wl):
                ci = wl[i]
                c = cls[ci]
                if c[0] == neg:
                    c[0] = c[1]
                    c[1] = neg
                first = c[0]
                fv = assign[first] if first > 0 else assign[-first]
                if fv != 0 and (fv == 1) == (first > 0):
                    i += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    kv = assign[lk] if lk > 0 else assign[-lk]
                    if kv == 0 or (kv == 1) == (lk > 0):
                        c[1] = lk
                        c[k] = neg
                        watches[(lk << 1) if lk > 0 else ((-lk) << 1) | 1].append(ci)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if fv != 0:
                        return False
                    if first > 0:
                        assign[first] = 1
                    else:
                        assign[-first] = 2
                    trail.append(first)
                    i += 1
        return True

    for lit in units:
        var = lit if lit > 0 else -lit
        want = 1 if lit > 0 else 2
        if assign[var] == 0:
            assign[var] = want
            trail.append(lit)
        elif assign[var] != want:
            return SatOutcome.unsat()
    if not propagate(0):
        return SatOutcome.unsat()

    # stack of (decided var, tried_negative_yet, trail length before decision)
    stack: list[tuple[int, bool, int]] = []
    next_var = 1
    while True:
        while next_var <= nvars and assign[next_var] != 0:
            next_var += 1
        if next_var > nvars:
            model = tuple(
                False if i == 0 else assign[i] == 1 for i in range(nvars + 1)
            )
            if not _verify_model(formula, model):
                raise RuntimeError("internal solver produced a bad model")
            return SatOutcome.sat(model)
        if deadline is not None and time.monotonic() >= deadline:
            return SatOutcome.unknown("timeout")
        stack.append((next_var, False, len(trail)))
        assign[next_var] = 1
        trail.append(next_var)
        while not propagate(len(trail) - 1):
            # conflict: backtrack to the last decision with an untried polarity
            while stack and stack[-1][1]:
                var, _, mark = stack.pop()
                for lit in trail[mark:]:
                    assign[lit if lit > 0 else -lit] = 0
                del trail[mark:]
                if var < next_var:
                    next_var = var
            if not stack:
                return SatOutcome.unsat()
            var, _, mark = stack.pop()
            for lit in trail[mark:]:
                assign[lit if lit > 0 else -lit] = 0
            del trail[mark:]
            if var < next_var:
                next_var = var
            stack.append((var, True, mark))
            assign[var] = 2
            trail.append(-var)


def external_solve(
    formula: CnfFormula,
    command: Union[str, Sequence[str]],
    timeout: Optional[float] = None,
) -> SatOutcome:
    """Run an external DIMACS solver process and parse its verdict.

    The command is invoked with the CNF file path appended. Expected output
    is an ``s SATISFIABLE`` / ``s UNSATISFIABLE`` status line and, for sat,
    ``v`` lines of signed literals terminated by 0. A timeout or a missing
    status line yields an unknown outcome; malformed output raises
    :class:`ParseFailureError` and an unstartable command raises
    :class:`SpawnFailureError`. Sat models are re-verified.
    """
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    with tempfile.TemporaryDirectory(prefix="plotting-cnf-") as tmp:
        path = Path(tmp) / "formula.cnf"
        with open(path, "w") as fh:
            write_dimacs(formula, fh)
        try:
            proc = subprocess.run(
                argv + [str(path)],
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
    for tok in value_tokens:
        if tok == 0 or abs(tok) > formula.var_count:
            raise ParseFailureError(f"literal {tok} outside formula variables")
        model[abs(tok)] = tok > 0
    if not _verify_model(formula, model):
        raise ParseFailureError("reported model does not satisfy the formula")
    return SatOutcome.sat(model)
