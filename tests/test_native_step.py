"""The internal solver on planner formulas: the steps it computes with the
engine (``cnf.StepChain``) against the same formulas' clauses solved by the
tests' clause DPLL (``clause_dpll``), pinned decision and literal counts
for both, so that a change to either search shows even where every answer
stays the same, solves that must not see each other's step states, and the
refusal of a formula that its record does not describe."""

import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotting_solver import cnf
from plotting_solver.cnf import CnfFormula, dpll_solve
from plotting_solver.encoder import (
    PROGRESS_CARDINALITY,
    PROGRESS_MODES,
    PROGRESS_WITNESS,
    EncodeOptions,
    encode,
)
from plotting_solver.engine import Instance
from plotting_solver.generator import GeneratorSpec, enumerate_instances, random_instance

import clause_dpll
from conftest import goal_counter


def planner_formula(shape, seed, goal, steps, mode):
    """The formula ``planner.solve`` builds for horizon ``steps`` of
    generator instance ``seed`` of ``shape`` (height, width, colours)."""
    instance = random_instance(GeneratorSpec(*shape, seed=seed)).with_goal(goal)
    return encode(instance, EncodeOptions(steps=steps, progress_encoding=mode))[0]


class TestPinnedWork:
    """DPLL with lowest-index branching returns the first model in
    brute-force order however weakly it propagates, so no answer test sees
    propagation get weaker; these counts do. Each formula is solved with
    its step-chain record by ``dpll_solve`` and from its clauses by the
    tests' clause DPLL, ``clause_dpll.solve``. A change that moves a count
    re-records it here, with the old and new values in CHANGES.md, and
    only when plans and statuses are unchanged.

    With the record, the search tries the steps' options depth first: the
    initial hands, then the shots that are no null move (at the last step,
    the shots that meet the goal), each with the state the engine reaches.
    ``decisions`` counts the options tried, the last open one at a state
    included, which propagation would have set from the clauses, and
    ``assigned`` their literals (one per hand, two per shot) and then, for
    a model, the formula's variable count: the model sets every variable
    once, the chosen options' own among them. From the clauses a sat
    formula takes more decisions: the clause DPLL decides each register
    that the counter's top unit leaves free."""

    # (shape, generator seed, goal, horizon) -> status, then per progress
    # mode (decisions, literals set) with the record and from the clauses
    PINS = {
        ((3, 3, 2), 1, 0, 5): (
            "unsat",
            {PROGRESS_WITNESS: ((148, 294), (78, 7568)),
             PROGRESS_CARDINALITY: ((148, 294), (78, 11303))},
        ),
        ((3, 3, 2), 1, 3, 3): (
            "sat",
            {PROGRESS_WITNESS: ((17, 315), (23, 1404)),
             PROGRESS_CARDINALITY: ((17, 547), (23, 2383))},
        ),
        ((4, 4, 3), 1, 10, 3): (
            "unsat",
            {PROGRESS_WITNESS: ((30, 57), (22, 4558)),
             PROGRESS_CARDINALITY: ((30, 57), (22, 9429))},
        ),
        ((4, 4, 3), 1, 10, 4): (
            "sat",
            {PROGRESS_WITNESS: ((5, 741), (49, 732)),
             PROGRESS_CARDINALITY: ((5, 1781), (49, 1772))},
        ),
        ((5, 5, 3), 3, 19, 2): (
            "unsat",
            {PROGRESS_WITNESS: ((13, 23), (9, 2535)),
             PROGRESS_CARDINALITY: ((13, 23), (9, 5676))},
        ),
        ((5, 5, 3), 3, 19, 3): (
            "sat",
            {PROGRESS_WITNESS: ((45, 1002), (132, 9696)),
             PROGRESS_CARDINALITY: ((45, 2518), (132, 23425))},
        ),
    }

    @pytest.mark.parametrize("mode", [PROGRESS_WITNESS, PROGRESS_CARDINALITY])
    def test_decisions_and_literals_set_are_pinned(self, mode):
        for case, (status, counts) in self.PINS.items():
            f = planner_formula(*case, mode)
            native, plain = dpll_solve(f), clause_dpll.solve(f)
            assert native.status == plain.status == status, case
            assert native.model == plain.model, case
            got = ((native.decisions, native.assigned), (plain.decisions, plain.assigned))
            assert got == counts[mode], case


class TestDifferential:
    """The steps computed with the engine give the statuses and models of
    the same formulas' clauses, solved by the clause DPLL. On an unsat
    horizon the native path trusts the engine, which the breadth-first
    oracle of criterion 2 uses too, so this is the check that it agrees
    with the clauses."""

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
                native, plain = dpll_solve(f), clause_dpll.solve(f)
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
        native, plain = dpll_solve(f), clause_dpll.solve(f)
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
    """The record describes its formula exactly, and its options at each
    reachable state are the decision assignments the formula admits there,
    in the order lowest-index branching meets them; its outputs, on every
    path of options to the last step, give every variable that is not
    auxiliary, and one in-order pass over the clauses sets every other."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 6),
        steps=st.integers(1, 3),
        mode=st.sampled_from(PROGRESS_MODES),
        hand=st.sampled_from([None, 1, 2, 3]),
    )
    def test_the_options_are_the_assignments_the_formula_admits(
        self, shape, seed, slack, steps, mode, hand
    ):
        height, width, colours = shape
        colours = min(colours, height * width)
        grid = random_instance(GeneratorSpec(height, width, colours, seed=seed)).grid
        hand = None if hand is None or hand > colours else hand
        opts = EncodeOptions(steps, fixed_initial_hand=hand, progress_encoding=mode)
        f, vm = encode(Instance(grid, max(0, height * width - slack)), opts)
        record = f.steps
        assert record.describes(f) and record.horizon == steps
        # each step's decision variables, in id order: the initial hand,
        # then per step its fired row and fired column
        decided = [list(vm.hand_ids(0))]
        for t in range(1, steps + 1):
            decided.append([
                *range(vm.row_shot_var(t, 0), vm.row_shot_var(t, height) + 1),
                *range(vm.col_shot_var(t, 0), vm.col_shot_var(t, width) + 1),
            ])
        # the clauses over decision variables alone each read one step's,
        # so each step's admitted assignments, in brute-force order (lowest
        # id first, true before false), are the same at every state
        step_of = {v: t for t, ids in enumerate(decided) for v in ids}
        own = [[] for _ in decided]
        for c in f.clauses:
            read = {step_of.get(abs(x)) for x in c}
            if None not in read:
                assert len(read) == 1, c
                own[read.pop()].append(c)
        admitted = []
        for t, ids in enumerate(decided):
            assert {abs(x) for c in own[t] for x in c} == set(ids)
            admitted.append([])
            for values in itertools.product((True, False), repeat=len(ids)):
                true = {v if value else -v for v, value in zip(ids, values)}
                if all(true.intersection(c) for c in own[t]):
                    admitted[t].append(tuple(v for v in ids if v in true))

        def assignment(t, lits):
            """Every decision variable of step ``t`` as a literal."""
            return [v if v in lits else -v for v in decided[t]]

        # (decisions of steps 0..t, whether a model extends them)
        expected = []

        def visit(t, state, fixed):
            # step t + 1's options from state t, which the decisions
            # ``fixed`` of steps 0..t reach
            options = record.choices(t, state)
            assert record.choices(t, state) == options
            lits = [tuple(option[0]) for option in options]
            assert lits == [a for a in admitted[t + 1] if a in lits], (t, state)
            for a in admitted[t + 1]:
                if a not in lits:
                    expected.append((fixed + assignment(t + 1, a), False))
                elif t + 1 == steps:
                    expected.append((fixed + assignment(t + 1, a), True))
            if t + 1 < steps:
                for a, (_, after) in zip(lits, options):
                    visit(t + 1, after, fixed + assignment(t + 1, a))

        visit(-1, None, [])
        # no model extends an assignment the options leave out, and every
        # option of the last step is a model's
        for units, sat in expected:
            g = CnfFormula()
            g.var_count, g.clauses = f.var_count, f.clauses + [(x,) for x in units]
            assert clause_dpll.solve(g).is_sat == sat, units


    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 6),
        steps=st.integers(1, 3),
        mode=st.sampled_from(PROGRESS_MODES),
    )
    def test_the_outputs_are_every_variable_that_is_not_auxiliary(
        self, shape, seed, slack, steps, mode
    ):
        # at every option reachable, a literal of each of the step's
        # variables that are not auxiliary, once, the option's decisions
        # as it sets them: at step 0 the start grid and the hand, later the
        # fired row, fired column, wall fall, grid and hand, and at the last
        # step the goal counter's registers too
        height, width, colours = shape
        colours = min(colours, height * width)
        grid = random_instance(GeneratorSpec(height, width, colours, seed=seed)).grid
        instance = Instance(grid, max(0, height * width - slack))
        opts = EncodeOptions(steps, progress_encoding=mode)
        f, vm = encode(instance, opts)
        record = f.steps
        registers = []
        if instance.goal < height * width:
            registers = range(goal_counter(instance, f, vm)[0].first_var, f.var_count + 1)
        own = [range(1, vm.hand_var(0, colours) + 1)]
        own += [
            range(vm.row_shot_var(t, 0), vm.hand_var(t, colours) + 1)
            for t in range(1, steps + 1)
        ]
        def visit(t, state):
            for option in record.choices(t, state):
                out = record.outputs(t + 1, option)
                want = [*own[t + 1], *(registers if t + 1 == steps else ())]
                assert sorted(abs(x) for x in out) == want, (t + 1, option)
                decided = {abs(x) for x in option[0]}
                assert {x for x in out if abs(x) in decided} == set(option[0])
                if t + 1 < steps:
                    visit(t + 1, option[1])

        visit(-1, None)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 6),
        steps=st.integers(1, 3),
        mode=st.sampled_from(PROGRESS_MODES),
        hand=st.sampled_from([None, 1, 2, 3]),
    )
    def test_every_option_path_fills_a_model_in_one_pass(
        self, shape, seed, slack, steps, mode, hand
    ):
        # for every complete path of options, not just the first model's,
        # the outputs alone and one in-order pass over the clauses set every
        # variable (_fill raises otherwise), and the model satisfies every
        # clause
        height, width, colours = shape
        colours = min(colours, height * width)
        grid = random_instance(GeneratorSpec(height, width, colours, seed=seed)).grid
        hand = None if hand is None or hand > colours else hand
        opts = EncodeOptions(steps, fixed_initial_hand=hand, progress_encoding=mode)
        f, _ = encode(Instance(grid, max(0, height * width - slack)), opts)
        record = f.steps

        def visit(t, state, path):
            for option in record.choices(t, state):
                if t + 1 < steps:
                    visit(t + 1, option[1], path + [option])
                else:
                    model = cnf._fill(f, record, path + [option])
                    assert cnf._verify_model(f, model)

        visit(-1, None, [])


class TestFallback:
    """``dpll_solve`` refuses a formula that its step-chain record does not
    describe, or that has no record, and searches none of it; the clause
    DPLL gives such a formula the answer its clauses admit."""

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
    def test_a_formula_the_record_does_not_describe(self, change):
        sat = 0
        for mode, steps, seed in itertools.product(PROGRESS_MODES, (1, 2, 3), (1, 2)):
            grid = random_instance(GeneratorSpec(3, 3, 2, seed=seed)).grid
            f, vm = encode(Instance(grid, 9 - steps - seed % 2), EncodeOptions(steps, progress_encoding=mode))
            first = dpll_solve(f)
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
                # would take the start grid from the instance, not the clauses
                start = vm.grid_var(0, 1, 1, grid.at(1, 1))
                f.add_clause((start if change == "start-cell-repeated" else -start,))
            assert not f.steps.describes(f)
            with pytest.raises(ValueError, match="does not describe"):
                dpll_solve(f)
            plain = clause_dpll.solve(f)
            # models are compared in brute-force order: the later of two,
            # as a tuple, is the smaller
            if change == "step-clause-dropped":
                # fewer clauses: the first model can only come sooner
                assert not first.is_sat or plain.is_sat and plain.model >= first.model
            elif change == "later-step-clause":
                # one clause more: the first model can only come later
                assert not plain.is_sat or first.is_sat and plain.model <= first.model
            elif change == "changed-var-count":
                want = first.model and first.model + (True,)
                assert (plain.status, plain.model) == (first.status, want)
            elif change == "start-cell-repeated":
                assert (plain.status, plain.model) == (first.status, first.model)
            else:
                assert plain.is_unsat
            sat += first.is_sat
        assert sat >= 4

    def test_a_formula_with_no_record(self):
        # neither the empty formula nor a planner formula without its
        # record is searched
        with pytest.raises(ValueError, match="no step record"):
            dpll_solve(CnfFormula())
        f = planner_formula((3, 3, 2), 1, 3, 3, PROGRESS_WITNESS)
        f.steps = None
        with pytest.raises(ValueError, match="no step record"):
            dpll_solve(f)


class TestDeadline:
    def test_the_deadline_bounds_a_native_solve(self):
        # horizon 8 of this goal-5 problem is unsat; the engine-stepped
        # search tries about 8,800 options over it, in about 0.1 s
        instance = random_instance(GeneratorSpec(5, 5, 3, seed=1)).with_goal(5)
        f, _ = encode(instance, EncodeOptions(steps=8))
        assert f.steps.describes(f)
        start = time.monotonic()
        out = dpll_solve(f, timeout=0.01)
        assert (out.status, out.reason) == ("unknown", "timeout")
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("case", [((3, 3, 2), 1, 0, 5), ((5, 5, 3), 3, 19, 3)])
    def test_the_deadline_is_checked_before_each_option(self, case, monkeypatch):
        # a clock that moves one tick per reading: the deadline, timeout
        # ticks after entry, passes at the timeout-th option
        f = planner_formula(*case, PROGRESS_WITNESS)
        full = dpll_solve(f)
        assert full.decisions > 2
        ticks = itertools.count()
        monkeypatch.setattr(cnf.time, "monotonic", lambda: next(ticks))
        for timeout in (1, 2, full.decisions // 2, full.decisions):
            out = dpll_solve(f, timeout=timeout)
            assert (out.status, out.reason) == ("unknown", "timeout")
            assert out.decisions == timeout - 1
        out = dpll_solve(f, timeout=full.decisions + 1)
        assert (out.status, out.model, out.decisions) == (
            full.status, full.model, full.decisions,
        )
