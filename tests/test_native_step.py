"""The internal solver on planner formulas: the steps it computes with the
engine (``cnf.StepChain``) against the same formulas solved from their
clauses, pinned decision and literal counts, so that a change to
propagation shows even where every answer stays the same, and solves that
must not see each other's step states."""

import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotting_solver import cnf
from plotting_solver.cnf import dpll_solve
from plotting_solver.encoder import (
    PROGRESS_CARDINALITY,
    PROGRESS_MODES,
    PROGRESS_WITNESS,
    EncodeOptions,
    encode,
)
from plotting_solver.engine import Instance
from plotting_solver.generator import GeneratorSpec, enumerate_instances, random_instance

from conftest import plain_copy


def planner_formula(shape, seed, goal, steps, mode):
    """The formula ``planner.solve`` builds for horizon ``steps`` of
    generator instance ``seed`` of ``shape`` (height, width, colours)."""
    instance = random_instance(GeneratorSpec(*shape, seed=seed)).with_goal(goal)
    return encode(instance, EncodeOptions(steps=steps, progress_encoding=mode))[0]


class TestPinnedWork:
    """DPLL with lowest-index branching returns the first model in
    brute-force order however weakly it propagates, so no answer test sees
    propagation get weaker; these counts do. Each formula is solved with
    its step-chain record and with the record set to None. A change that
    moves a count re-records it here, with the old and new values in
    CHANGES.md, and only when plans and statuses are unchanged.

    With the record, the search decides only the initial hand and the
    shots, and computes each step with the engine, from the start grid on;
    it sets only the hand, the shots and what their one-hot groups imply,
    and holds each step's state outside the assignment. A model then sets
    every step's state once, step 0's start grid included, and the
    auxiliary variables and the goal counter's registers. Goal 0 takes
    more decisions than the clauses: there the clauses can refute a state
    two steps before the last, the engine's look-ahead one step before.
    Without the record a sat formula takes more: the search decides each
    register that the counter's top unit leaves free."""

    # (shape, generator seed, goal, horizon) -> status, then per progress
    # mode (decisions, literals set) with the record and without it
    PINS = {
        ((3, 3, 2), 1, 0, 5): (
            "unsat",
            {PROGRESS_WITNESS: ((84, 1488), (78, 7568)),
             PROGRESS_CARDINALITY: ((84, 1488), (78, 11303))},
        ),
        ((3, 3, 2), 1, 3, 3): (
            "sat",
            {PROGRESS_WITNESS: ((11, 392), (23, 1404)),
             PROGRESS_CARDINALITY: ((11, 624), (23, 2383))},
        ),
        ((4, 4, 3), 1, 10, 3): (
            "unsat",
            {PROGRESS_WITNESS: ((18, 366), (22, 4558)),
             PROGRESS_CARDINALITY: ((18, 366), (22, 9429))},
        ),
        ((4, 4, 3), 1, 10, 4): (
            "sat",
            {PROGRESS_WITNESS: ((7, 667), (49, 732)),
             PROGRESS_CARDINALITY: ((7, 1707), (49, 1772))},
        ),
        ((5, 5, 3), 3, 19, 2): (
            "unsat",
            {PROGRESS_WITNESS: ((9, 188), (9, 2535)),
             PROGRESS_CARDINALITY: ((9, 188), (9, 5676))},
        ),
        ((5, 5, 3), 3, 19, 3): (
            "sat",
            {PROGRESS_WITNESS: ((32, 1396), (132, 9696)),
             PROGRESS_CARDINALITY: ((32, 2912), (132, 23425))},
        ),
    }

    @pytest.mark.parametrize("mode", [PROGRESS_WITNESS, PROGRESS_CARDINALITY])
    def test_decisions_and_literals_set_are_pinned(self, mode):
        for case, (status, counts) in self.PINS.items():
            f = planner_formula(*case, mode)
            native = dpll_solve(f)
            f.steps = None
            plain = dpll_solve(f)
            assert native.status == plain.status == status, case
            assert native.model == plain.model, case
            got = ((native.decisions, native.assigned), (plain.decisions, plain.assigned))
            assert got == counts[mode], case


def solve_both(f):
    """``f`` solved with its step-chain record and with it set to None;
    the record is put back."""
    native = dpll_solve(f)
    steps, f.steps = f.steps, None
    try:
        plain = dpll_solve(f)
    finally:
        f.steps = steps
    return native, plain


class TestDifferential:
    """The steps computed with the engine give the statuses and models of
    the same formulas solved from their clauses. On an unsat horizon the
    native path trusts the engine, which the breadth-first oracle of
    criterion 2 uses too, so this is the check that it agrees with the
    clauses."""

    def test_criterion_2_grids_at_goal_0(self):
        # every canonical 3x3/2 grid, horizons 1-4; all are unsat.
        # (Horizons 5-9 too would take about 19 s natively and 40 s from
        # the clauses.)
        grids = [i.grid for i in enumerate_instances(GeneratorSpec(3, 3, 2, mode="canonical"))]
        assert len(grids) == 255
        decided = 0
        for grid in grids:
            for steps in range(1, 5):
                f, _ = encode(Instance(grid, 0), EncodeOptions(steps=steps))
                assert f.steps.describes(f)
                native, plain = solve_both(f)
                assert native.status == plain.status == "unsat", (grid.cells, steps)
                decided += native.decisions
        assert decided > 10000

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(1, 6),
        steps=st.integers(1, 4),
        mode=st.sampled_from(PROGRESS_MODES),
        hand=st.sampled_from([None, 1, 2, 3]),
    )
    def test_random_planner_formulas(self, shape, seed, slack, steps, mode, hand):
        height, width, colours = shape
        colours = min(colours, height * width)
        grid = random_instance(GeneratorSpec(height, width, colours, seed=seed)).grid
        goal = max(0, height * width - slack)
        hand = None if hand is None or hand > colours else hand
        opts = EncodeOptions(steps, fixed_initial_hand=hand, progress_encoding=mode)
        f, _ = encode(Instance(grid, goal), opts)
        assert f.steps.describes(f)
        native, plain = solve_both(f)
        assert (native.status, native.model) == (plain.status, plain.model)


class TestStateIsolation:
    """The search holds each step's state for one call only: a formula
    solved again after another of its shape, or from two threads at once,
    gives the same outcome and the same work."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        slack=st.integers(1, 6),
        steps=st.integers(1, 4),
        mode=st.sampled_from(PROGRESS_MODES),
    )
    def test_a_formula_solved_again_and_from_two_threads(self, shape, seeds, slack, steps, mode):
        height, width, colours = shape
        colours = min(colours, height * width)
        goal = max(0, height * width - slack)

        def formula(seed):
            grid = random_instance(GeneratorSpec(height, width, colours, seed=seed)).grid
            return encode(Instance(grid, goal), EncodeOptions(steps, progress_encoding=mode))[0]

        def work(out):
            return out.status, out.model, out.decisions, out.assigned

        a, b = formula(seeds[0]), formula(seeds[1])
        first = work(dpll_solve(a))
        dpll_solve(b)
        assert work(dpll_solve(a)) == first
        # both threads start together, and a short switch interval makes
        # their searches interleave
        start = threading.Barrier(2, timeout=60)

        def solve_a(_):
            start.wait()
            return work(dpll_solve(a))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                both = list(pool.map(solve_a, range(2)))
        finally:
            sys.setswitchinterval(interval)
        assert both == [first, first]


class TestStepRecord:
    """The record describes its formula exactly and names only what the
    search reads: the initial hand and the shots."""

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 6),
        steps=st.integers(1, 4),
        mode=st.sampled_from(PROGRESS_MODES),
        hand=st.sampled_from([None, 1, 2, 3]),
    )
    def test_the_search_reads_only_the_hand_and_the_shots(
        self, shape, seed, slack, steps, mode, hand
    ):
        height, width, colours = shape
        colours = min(colours, height * width)
        grid = random_instance(GeneratorSpec(height, width, colours, seed=seed)).grid
        hand = None if hand is None or hand > colours else hand
        opts = EncodeOptions(steps, fixed_initial_hand=hand, progress_encoding=mode)
        f, vm = encode(Instance(grid, max(0, height * width - slack)), opts)
        record = f.steps
        assert record.describes(f)
        assert record.tail == f.clauses[record.size :]
        assert f.clauses[: record.size] == record.source[: record.size]
        decided = list(vm.hand_ids(0))
        for t in range(1, steps + 1):
            decided += range(vm.row_shot_var(t, 0), vm.row_shot_var(t, height) + 1)
            decided += range(vm.col_shot_var(t, 0), vm.col_shot_var(t, width) + 1)
        # one range per step, in id order, covering exactly those variables
        assert len(record.ranges) == steps + 1
        assert [v for r in record.ranges for v in r] == decided
        # every searched clause is the formula's and reads them alone
        read = {abs(lit) for clause in record.searched for lit in clause}
        assert read == set(decided)
        assert set(record.searched) <= set(f.clauses)
        # the pinned hand's unit, if any (one colour's group is a unit too)
        units = {c for c in record.searched if len(c) == 1}
        pinned = set() if hand is None else {(vm.hand_var(0, hand),)}
        assert units == pinned | ({(vm.hand_var(0, 1),)} if colours == 1 else set())


class TestFallback:
    """A formula the step-chain record does not describe is solved from its
    clauses, with the answers the clauses give."""

    @pytest.mark.parametrize(
        "change",
        [
            "step-clause-dropped",
            "later-step-clause",
            "changed-var-count",
            "start-cell-repeated",
            "start-cell-contradicted",
        ],
    )
    def test_a_formula_the_record_does_not_describe(self, change, monkeypatch):
        searched = []
        search = cnf._search

        def recorded(formula, index, steps, *rest):
            searched.append(steps)
            return search(formula, index, steps, *rest)

        monkeypatch.setattr(cnf, "_search", recorded)
        sat = 0
        for mode, steps, seed in itertools.product(PROGRESS_MODES, (1, 2, 3), (1, 2)):
            grid = random_instance(GeneratorSpec(3, 3, 2, seed=seed)).grid
            f, vm = encode(Instance(grid, 9 - steps - seed % 2), EncodeOptions(steps, progress_encoding=mode))
            first = dpll_solve(plain_copy(f))
            if change == "step-clause-dropped":
                # one of the last step's successor clauses
                del f.clauses[f.steps.size - 1]
            elif change == "later-step-clause":
                # a clause after the chain on a cell of the last state
                f.add_clause((-vm.grid_var(steps, 1, 1, 0),))
            elif change == "changed-var-count":
                f.new_var()  # free, so true in the first model
            else:
                # a unit on a start cell, after the start units: the search
                # takes the start grid from the instance, not the clauses
                start = vm.grid_var(0, 1, 1, grid.at(1, 1))
                f.add_clause((start if change == "start-cell-repeated" else -start,))
            assert not f.steps.describes(f)
            searched.clear()
            native = dpll_solve(f)
            assert searched == [None]
            plain = dpll_solve(plain_copy(f))
            assert (native.status, native.model) == (plain.status, plain.model)
            if change == "start-cell-contradicted":
                assert native.is_unsat
            sat += first.is_sat
        assert sat >= 4


class TestDeadline:
    def test_the_deadline_bounds_a_native_solve(self):
        # horizon 8 of this goal-5 problem is unsat; the engine-stepped
        # search takes about 0.6 s and 6,000 decisions over it
        instance = random_instance(GeneratorSpec(5, 5, 3, seed=1)).with_goal(5)
        f, _ = encode(instance, EncodeOptions(steps=8))
        assert f.steps.describes(f)
        start = time.monotonic()
        out = dpll_solve(f, timeout=0.01)
        assert (out.status, out.reason) == ("unknown", "timeout")
        assert time.monotonic() - start < 1.0
