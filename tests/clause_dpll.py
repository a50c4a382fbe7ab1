"""The clause DPLL: the tests' reference answer for a formula's clauses.

:func:`plotting_solver.cnf.dpll_solve` searches only a formula that its
step-chain record describes. The tests ask this module for "the clauses'
answer" instead: :func:`solve` reads ``formula.var_count`` and
``formula.clauses`` alone and ignores any record.

It is a plain DPLL with lowest-index-first branching, true before false,
and chronological backtracking, complete unless its deadline passes. Unit
propagation only sets literals that every model extending the current
assignment shares, so the search meets the models in brute-force order:
the model returned is the first satisfying assignment when assignments are
enumerated with variable 1 most significant and true before false, and the
outcome is unsat exactly when no assignment satisfies the formula.
``timeout`` seconds, counted from entry, bound the search: the deadline is
checked before each decision, and once it has passed the outcome is
unknown with reason ``"timeout"``. Sat models are re-verified against the
clause list before being returned. ``decisions`` counts the variables it
decided (a backtrack's flip is not a decision) and ``assigned`` the
literals it set, those later undone included.

Its unit propagation watches two literals of every clause of two or more
literals. Those clauses are 0-terminated runs of one flat literal list
(:class:`ClauseIndex`, built afresh on every call), so no clause is a
Python object of its own; the search moves watches by swapping literals
within a clause's run, and a binary clause is a two-literal run whose
watches never move. The assignment is one list indexed by signed literal,
as are the watch lists. Propagation takes set literals newest first, so it
follows one chain of implications to its end before the next, and a
conflict at the end of one is met sooner. Whether propagation ends in a
conflict, and the literals it sets when it does not, do not depend on that
order, so neither do the decisions or the model. The search keeps its
state in the call: one formula may be solved again, or from two threads
at once.

Not a ``test_*`` module, so pytest does not collect it; the tests import it
from the tests directory, as they import ``conftest``.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from plotting_solver.cnf import SatOutcome, _verify_model


def solve(formula, timeout: Optional[float] = None) -> SatOutcome:
    """The outcome of ``formula``'s clauses, over variables
    1..``formula.var_count`` (see the module docstring)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    return _search(formula, ClauseIndex(formula.clauses, formula.var_count), deadline)


class ClauseIndex:
    """The propagation lists of the clauses one :func:`solve` call
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


def _search(formula, index: ClauseIndex, deadline: Optional[float]) -> SatOutcome:
    """Search the loaded clauses of ``formula`` (see :func:`solve`)."""
    nvars = index.var_count
    watches, lits = index.watches, index.lits
    is_true = [False] * (2 * nvars + 1)  # unassigned when both are False
    trail: list[int] = []  # every literal set, in order: the undo log
    pending: list[int] = []  # set but not yet propagated, newest last

    def propagate() -> bool:
        """Propagate the pending literals, newest first; False on conflict."""
        while pending:
            false_lit = -pending.pop()
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

    decisions = undone = 0  # undone: literals set and then unset

    def outcome(status: str, model=None, reason=None) -> SatOutcome:
        return SatOutcome(status, model, reason, decisions, undone + len(trail))

    for lit in index.units:
        if is_true[-lit]:
            return outcome("unsat")
        if not is_true[lit]:
            is_true[lit] = True
            trail.append(lit)
            pending.append(lit)
    if not propagate():
        return outcome("unsat")

    # stack of (decided var, tried_negative_yet, trail length before the
    # decision)
    stack: list[tuple[int, bool, int]] = []
    var = 1
    while True:
        while var <= nvars and (is_true[var] or is_true[-var]):
            var += 1
        if var > nvars:
            model = is_true[: nvars + 1]
            if not _verify_model(formula, model):
                raise RuntimeError("internal solver produced a bad model")
            return outcome("sat", tuple(model))
        if deadline is not None and time.monotonic() >= deadline:
            return outcome("unknown", reason="timeout")
        stack.append((var, False, len(trail)))
        decisions += 1
        is_true[var] = True
        trail.append(var)
        pending.append(var)
        while not propagate():
            # conflict: undo decisions up to the newest with an untried polarity
            tried = True
            while tried:
                if not stack:
                    return outcome("unsat")
                var, tried, mark = stack.pop()
                for lit in trail[mark:]:
                    is_true[lit] = False
                undone += len(trail) - mark
                del trail[mark:]
            stack.append((var, True, mark))
            is_true[-var] = True
            trail.append(-var)
            pending.append(-var)
