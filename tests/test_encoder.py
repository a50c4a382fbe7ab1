import hashlib
import itertools
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plotting_solver import encoder
from plotting_solver.cnf import (
    CnfFormula,
    at_least_k,
    dpll_solve,
    exactly_one,
)
from plotting_solver.encoder import (
    PROGRESS_CARDINALITY,
    PROGRESS_MODES,
    PROGRESS_WITNESS,
    FALSE,
    TRUE,
    EncodeOptions,
    InvalidHorizonError,
    MalformedModelError,
    VarMap,
    _Builder,
    decode,
    encode,
)
from plotting_solver.engine import (
    ColShot,
    Grid,
    Instance,
    NullMoveError,
    RowShot,
    apply_shot,
    is_goal,
    legal_shots,
)
from plotting_solver.oracle import (
    CapacityExceededError,
    TransitionCandidate,
    check_transition,
)

import clause_dpll
from conftest import dimacs_text, goal_counter, random_full_grid


def g(rows):
    return Grid.from_rows(rows)


def exists_plan_of_exact_length(instance, length):
    """Depth-layered search: some plan of exactly ``length`` shots works."""
    frontier = {
        (instance.grid.cells, h0)
        for h0 in range(1, instance.colour_count + 1)
    }
    for _ in range(length):
        nxt = set()
        for cells, hand in frontier:
            grid = Grid(cells)
            for shot in legal_shots(grid, hand):
                out = apply_shot(grid, hand, shot)
                nxt.add((out.next_grid.cells, out.next_hand))
        frontier = nxt
    return any(is_goal(Grid(cells), instance.goal) for cells, _ in frontier)


def primary_ids(vm):
    """Every accessor id: the state (grid, hand) and action (fired row,
    fired column, wall fall) variables."""
    seen = set()
    for t in range(vm.steps + 1):
        for r in range(1, vm.height + 1):
            for c in range(1, vm.width + 1):
                seen.update(vm.grid_var(t, r, c, v) for v in range(vm.colours + 1))
        seen.update(vm.hand_var(t, v) for v in range(1, vm.colours + 1))
    for s in range(1, vm.steps + 1):
        seen.update(vm.row_shot_var(s, v) for v in range(vm.height + 1))
        seen.update(vm.col_shot_var(s, v) for v in range(vm.width + 1))
        seen.update(vm.wall_fall_var(s, v) for v in range(vm.height + 1))
    return seen


class TestVarMap:
    def test_primary_allocation_two_colour_2x2(self):
        # (steps+1) grid/hand groups plus one fired-row, fired-column and
        # wall-fall group: 2*(4*3+2) + (3+3+3) = 37, occupying ids 1..37;
        # auxiliaries come after
        _, vm = encode(Instance(g([[1, 2], [2, 1]]), 1), EncodeOptions(steps=1))
        assert primary_ids(vm) == set(range(1, 38))

    def test_single_colour_grid_has_smaller_domain(self):
        # the colour count is the maximum value present, so the all-ones
        # grid gets one-colour domains: 2*(4*2+1) + (3+3+3) = 27
        f, vm = encode(Instance(g([[1, 1], [1, 1]]), 1), EncodeOptions(steps=1))
        assert primary_ids(vm) == set(range(1, 28))
        assert f.var_count >= 27


class TestBuilder:
    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(
            st.sampled_from([TRUE, FALSE, 1, -1, 2, -2, 3, -3, 4, -4]),
            min_size=1,
            max_size=5,
        )
    )
    @example(terms=[1, -1])
    @example(terms=[2, 2, TRUE])
    @example(terms=[-3, FALSE, 3, 4])
    def test_conj_and_disj_are_and_and_or(self, terms):
        f = CnfFormula()
        f.alloc_block(4)
        b = _Builder(f, VarMap(1, 1, 1, state_bases=()))
        built = [(b.conj(terms), all), (b.disj(terms), any)]
        # a second call goes through the memo and returns the same gate
        assert [b.conj(terms), b.disj(terms)] == [t for t, _ in built]
        for bits in itertools.product([False, True], repeat=4):
            vals = [
                t is TRUE if t in (TRUE, FALSE) else bits[abs(t) - 1] == (t > 0)
                for t in terms
            ]
            trial = CnfFormula()
            trial.var_count = f.var_count
            trial.clauses = list(f.clauses)
            for var, bit in enumerate(bits, 1):
                trial.add_clause((var if bit else -var,))
            out = clause_dpll.solve(trial)
            assert out.is_sat
            for result, fn in built:
                if result in (TRUE, FALSE):
                    assert (result is TRUE) == fn(vals)
                else:
                    value = out.model[abs(result)] == (result > 0)
                    assert value == fn(vals)
                    # DPLL tries true first: the wrong value must be UNSAT
                    wrong = CnfFormula()
                    wrong.var_count = trial.var_count
                    wrong.clauses = trial.clauses + [(-result if value else result,)]
                    assert clause_dpll.solve(wrong).is_unsat

    def test_require_any_of_false_is_refused(self):
        # the empty clause stays on the list, for check_clauses to refuse
        f = CnfFormula()
        _Builder(f, VarMap(1, 1, 1, state_bases=())).require_any([FALSE])
        assert f.clauses == [()]
        with pytest.raises(ValueError, match="empty clauses"):
            f.check_clauses(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("ys_kind", ["exactly-one", "at-most-one"])
    def test_same_is_one_hot_equality(self, n, ys_kind):
        f = CnfFormula()
        xs = list(range(1, n + 1))
        ys = list(range(n + 1, 2 * n + 1))
        f.alloc_block(2 * n)
        e = _Builder(f, VarMap(1, 1, 1, state_bases=())).same(xs, ys)
        y_values = range(n) if ys_kind == "exactly-one" else range(-1, n)
        for x_value, y_value in itertools.product(range(n), y_values):
            units = [x if i == x_value else -x for i, x in enumerate(xs)]
            units += [y if i == y_value else -y for i, y in enumerate(ys)]
            for e_lit in (e, -e):
                trial = CnfFormula()
                trial.var_count = f.var_count
                trial.clauses = f.clauses + [(u,) for u in units + [e_lit]]
                want = (e_lit > 0) == (x_value == y_value)
                assert clause_dpll.solve(trial).is_sat == want, (x_value, y_value, e_lit)

    @pytest.mark.parametrize("size", [2, 3])
    def test_path_prefixes_are_clear(self, size):
        # step-0 cells and a two-colour hand; begin_step(1) reads them as
        # the state before step 1
        f = CnfFormula()
        vm = VarMap(size, size, 2, state_bases=(f.alloc_block(size * size * 3 + 2),))
        cells = [(r, c) for r in range(1, size + 1) for c in range(1, size + 1)]
        for r, c in cells:
            exactly_one(f, [vm.grid_var(0, r, c, v) for v in range(3)])
        exactly_one(f, [vm.hand_var(0, 1), vm.hand_var(0, 2)])
        b = _Builder(f, vm)
        b.begin_step(1)
        for shot, path in b.paths.items():
            for k in range(1, len(path) + 1):
                clear = b.prefix[shot][k]
                # hand colour 1; each crossed cell is empty (0), the hand's
                # colour (1) or another (2); cells off the prefix hold 2
                for prefix in itertools.product(range(3), repeat=k):
                    values = dict.fromkeys(cells, 2)
                    values.update(zip(path, prefix))
                    units = [(vm.hand_var(0, 1),)] + [
                        (vm.grid_var(0, r, c, v),) for (r, c), v in values.items()
                    ]
                    # forced either way, only the defined value is SAT
                    for forced in (clear, -clear):
                        trial = CnfFormula()
                        trial.var_count = f.var_count
                        trial.clauses = f.clauses + units + [(forced,)]
                        holds = (forced == clear) == (2 not in prefix)
                        assert clause_dpll.solve(trial).is_sat == holds, (shot, prefix)

    def test_paths_are_what_the_engine_consumes(self):
        for height, width in itertools.product(range(1, 5), repeat=2):
            b = _Builder(CnfFormula(), VarMap(height, width, 1, state_bases=()))
            grid = Grid.from_rows([[1] * width for _ in range(height)])
            for (rv, c), path in b.paths.items():
                out = apply_shot(grid, 1, RowShot(rv) if rv else ColShot(c))
                assert out.consumed == len(path), (height, width, rv, c)

    def test_no_shot_consumes_more_than_height_plus_width_minus_one(self):
        # the soundness of the implied bound on empties per step; a path
        # is at most H + W - 1 cells long
        b = _Builder(CnfFormula(), VarMap(3, 3, 3, state_bases=()))
        assert max(len(path) for path in b.paths.values()) == 5
        shots = [RowShot(r) for r in range(1, 4)] + [ColShot(c) for c in range(1, 4)]
        most = 0
        for flat in itertools.product((1, 2, 3), repeat=9):
            grid = Grid((flat[0:3], flat[3:6], flat[6:9]))
            for hand, shot in itertools.product((1, 2, 3), shots):
                try:
                    most = max(most, apply_shot(grid, hand, shot).consumed)
                except NullMoveError:
                    pass
        assert most == 5


class TestEncodeExamples:
    def test_goal_one_in_one_step_is_sat(self):
        f, _ = encode(Instance(g([[1, 1], [1, 1]]), 1), EncodeOptions(steps=1))
        assert dpll_solve(f).is_sat

    def test_goal_zero_in_one_step_is_unsat(self):
        f, _ = encode(Instance(g([[1, 1], [1, 1]]), 0), EncodeOptions(steps=1))
        assert dpll_solve(f).is_unsat

    def test_fixed_useless_hand_is_unsat(self):
        f, _ = encode(
            Instance(g([[2]]), 0), EncodeOptions(steps=1, fixed_initial_hand=1)
        )
        assert dpll_solve(f).is_unsat

    def test_free_hand_finds_the_wildcard_colour(self):
        f, vm = encode(Instance(g([[2]]), 0), EncodeOptions(steps=1))
        out = dpll_solve(f)
        assert out.is_sat
        assert decode(out.model, vm).initial_hand == 2

    def test_invalid_horizon(self):
        with pytest.raises(InvalidHorizonError):
            encode(Instance(g([[1]]), 0), EncodeOptions(steps=0))

    def test_missing_goal(self):
        with pytest.raises(ValueError):
            encode(Instance(g([[1]])), EncodeOptions(steps=1))

    def test_deterministic_dimacs(self):
        inst = Instance(g([[1, 2], [2, 1]]), 1)
        opts = EncodeOptions(steps=2)
        assert dimacs_text(encode(inst, opts)[0]) == dimacs_text(
            encode(inst, opts)[0]
        )

    def test_dimacs_is_the_same_in_every_interpreter(self):
        # the lowest-index DPLL plan depends on variable and clause order, so
        # the text must not follow the interpreter's string hash seed
        script = """if True:
            import hashlib
            import io
            from plotting_solver.cnf import write_dimacs
            from plotting_solver.encoder import PROGRESS_MODES, EncodeOptions, encode
            from plotting_solver.engine import Grid, Instance
            digest = hashlib.sha256()
            for rows, goal, steps in (
                ([[1, 2], [2, 1]], 1, 2),
                ([[1, 2, 3], [3, 1, 2]], 2, 3),
                ([[2, 1, 1], [1, 2, 2], [1, 1, 2]], 4, 2),
            ):
                for mode in PROGRESS_MODES:
                    opts = EncodeOptions(steps, progress_encoding=mode)
                    f, _ = encode(Instance(Grid.from_rows(rows), goal), opts)
                    text = io.StringIO()
                    write_dimacs(f, text)
                    digest.update(text.getvalue().encode())
            print(digest.hexdigest())
        """
        package_root = str(Path(encoder.__file__).resolve().parents[1])
        path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("0", "1")
        }
        assert len(digests) == 1 and len(digests.pop().strip()) == 64

    # (rows, goal, steps, progress, pinned hand, (variables, clauses), first
    # 16 hex digits of the SHA-256 of dimacs_text). A change that alters the
    # formulas on purpose records new digests and says so in CHANGES.md; one
    # that only renames or reorders keeps every size.
    RECORDED = [
        ([[1, 1], [1, 1]], 1, 1, PROGRESS_WITNESS, None, (46, 173), "65a53ea592e59e38"),
        (
            [[1, 2], [2, 1]],
            1, 2, PROGRESS_CARDINALITY, 2, (141, 708),
            "289b406965479e29",
        ),
        (
            [[1, 2, 3], [3, 1, 2]],
            2, 3, PROGRESS_WITNESS, None, (212, 1247),
            "b93672475a766693",
        ),
        (
            [[2, 1, 1], [1, 2, 2], [1, 1, 2]],
            4, 2, PROGRESS_CARDINALITY, None, (381, 2372),
            "1883294c1d4cbda4",
        ),
        (
            [[1, 2, 3], [2, 3, 1], [3, 1, 2]],
            3, 3, PROGRESS_WITNESS, 1, (323, 2124),
            "c02a097c6d7d8556",
        ),
        (
            [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
            6, 3, PROGRESS_CARDINALITY, 1, (497, 2477),
            "2ece35f5d64b3383",
        ),
        (
            [[1, 2, 1, 2], [2, 1, 2, 1], [1, 2, 1, 2], [2, 2, 1, 1]],
            8, 2, PROGRESS_WITNESS, 2, (387, 2201),
            "13ef1cfaca43c00d",
        ),
        (
            [[1, 2, 3, 1], [2, 3, 1, 2], [3, 1, 2, 3], [1, 2, 3, 1]],
            10, 1, PROGRESS_CARDINALITY, None, (698, 6745),
            "66eb73cdb7e42817",
        ),
        (
            [[1, 2], [2, 3], [3, 1], [1, 2], [2, 3]],
            4, 3, PROGRESS_WITNESS, None, (405, 3291),
            "0174a0e1f8e01b14",
        ),
        (
            [[1, 2, 3, 1, 2], [2, 3, 1, 2, 3], [3, 1, 2, 3, 1], [1, 2, 3, 1, 2],
             [2, 3, 1, 2, 3]],
            15, 3, PROGRESS_WITNESS, None, (955, 6951),
            "f3f2bb5decfb6af5",
        ),
        (
            [[3, 1, 2, 2, 1], [1, 1, 3, 2, 2], [2, 3, 3, 1, 1], [1, 2, 1, 3, 2],
             [3, 3, 2, 1, 1]],
            10, 2, PROGRESS_WITNESS, 3, (729, 4798),
            "8569b5e890aab9c6",
        ),
        (
            [[3, 1, 2, 2, 1], [1, 1, 3, 2, 2], [2, 3, 3, 1, 1], [1, 2, 1, 3, 2],
             [3, 3, 2, 1, 1]],
            20, 1, PROGRESS_CARDINALITY, 2, (1196, 14941),
            "65886b86b01a3210",
        ),
        ([[1], [2], [1]], 1, 2, PROGRESS_WITNESS, None, (80, 459), "ef7368fc5e812a15"),
        (
            [[1], [2], [1]],
            1, 2, PROGRESS_CARDINALITY, None, (110, 605),
            "927bd6ed0fad02a3",
        ),
        ([[1, 2, 1]], 1, 2, PROGRESS_WITNESS, None, (68, 283), "960e73484c6c1366"),
        ([[1, 2, 1]], 1, 2, PROGRESS_CARDINALITY, None, (98, 429), "6f2261f5e617acb6"),
        # from step 2 (consumptionWitness) or 3 (cardinalityCompare) on, a
        # step is its predecessor renumbered; these pin such steps
        (
            [[2, 1, 1], [1, 2, 2], [1, 1, 2]],
            4, 4, PROGRESS_WITNESS, None, (361, 2164),
            "63ce456310ecf33e",
        ),
        (
            [[2, 1, 1], [1, 2, 2], [1, 1, 2]],
            3, 5, PROGRESS_CARDINALITY, 2, (785, 5204),
            "72fccd8321c4428f",
        ),
        (
            [[1, 2, 3], [3, 1, 2]],
            1, 5, PROGRESS_WITNESS, None, (326, 2032),
            "c1cc70d375c0e834",
        ),
        (
            [[1, 2, 3], [3, 1, 2]],
            2, 4, PROGRESS_CARDINALITY, 1, (540, 3638),
            "05034b8fda3916ad",
        ),
        (
            [[1], [2], [1]],
            0, 5, PROGRESS_CARDINALITY, None, (238, 1411),
            "98d3dd90db14701c",
        ),
        ([[1]], 0, 4, PROGRESS_CARDINALITY, None, (47, 153), "1f2ab62a55c677d8"),
    ]

    def test_dimacs_matches_recorded_digests(self):
        # the text is pinned byte for byte, so an emission refactor cannot
        # move a clause or a variable id unnoticed
        for rows, goal, steps, mode, hand, size, want in self.RECORDED:
            opts = EncodeOptions(steps, hand, mode)
            f, _ = encode(Instance(g(rows), goal), opts)
            assert (f.var_count, len(f.clauses)) == size, (rows, goal, steps, mode)
            digest = hashlib.sha256(dimacs_text(f).encode()).hexdigest()[:16]
            assert digest == want, (rows, goal, steps, mode, hand)


class TestProgressModes:
    CARDINALITY = EncodeOptions(1, progress_encoding=PROGRESS_CARDINALITY)

    def test_sum_range_above_the_bound_is_refused_before_any_clause(self):
        encode(Instance(g([[1, 2]]), 0), self.CARDINALITY)
        chains = encoder._chain.cache_info()
        one_colour = Instance(Grid(((1,) * 89,) * 9), 0)
        assert 9 * 89 == encoder.MAX_SUM_RANGE + 1
        with pytest.raises(CapacityExceededError, match="has 801$"):
            encode(one_colour, self.CARDINALITY)
        # no chain was looked up, so none was built or grown
        assert encoder._chain.cache_info() == chains
        encode(one_colour, EncodeOptions(1))  # witness mode has no bound

    def test_sum_range_at_the_bound_builds(self):
        rows = [[(r + c) % 2 + 1 for c in range(20)] for r in range(20)]
        assert 2 * 20 * 20 == encoder.MAX_SUM_RANGE
        try:
            f, vm = encode(Instance(g(rows), 0), self.CARDINALITY)
            assert vm.steps == 1 and len(f.clauses) > 2 * 20 * 20
        finally:
            encoder._chain.cache_clear()  # about 1.4M clauses

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 2), (3, 3, 3), (5, 5, 3)])
    def test_witness_mode_adds_no_progress_clause(self, shape, monkeypatch):
        # the no-null-move clauses alone make every shot consume a block, so
        # a witness step is the cardinalityCompare step cut where the sum
        # comparison begins
        begins = []

        def sum_decrease(b, s):
            begins.append((b.f.var_count, len(b.clauses)))
            real(b, s)

        real = encoder._emit_sum_decrease
        monkeypatch.setattr(encoder, "_emit_sum_decrease", sum_decrease)
        step1 = {}
        for mode in PROGRESS_MODES:
            chain = encoder._Chain(*shape, mode)
            clauses0 = chain.grow(0)[1]
            var_count, clause_count, _ = chain.grow(1)
            step1[mode] = var_count, chain.formula.clauses[clauses0:clause_count]
        ((cut_vars, cut_clauses),) = begins
        vars_, clauses = step1[PROGRESS_WITNESS]
        _, full = step1[PROGRESS_CARDINALITY]
        assert vars_ == cut_vars
        # a one-cell, one-colour sum is the literal ¬empty itself, so the
        # comparison may add no variable, but it always adds clauses
        assert len(full) > cut_clauses - clauses0
        assert clauses == full[: cut_clauses - clauses0]


class TestSharedSteps:
    """Horizons of one grid shape share the steps ``encode`` emitted for
    earlier calls; none of that may show in a formula."""

    GRID = g([[1, 2, 1], [2, 1, 2]])
    OTHER = Instance(g([[1, 2], [2, 2], [1, 1]]), 0)

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_formula_does_not_depend_on_earlier_calls(self, mode):
        inst = Instance(self.GRID, 1)

        def text(steps, instance=inst):
            opts = EncodeOptions(steps=steps, progress_encoding=mode)
            return dimacs_text(encode(instance, opts)[0])

        encoder._chain.cache_clear()
        cold = text(3)
        encoder._chain.cache_clear()
        for lower in (1, 2):
            text(lower)
        assert text(3) == cold
        text(3, self.OTHER)
        assert text(3) == cold
        text(5)
        assert text(3) == cold

    def test_returned_formula_is_not_changed_by_later_calls(self):
        inst = Instance(self.GRID, 1)
        formula, _ = encode(inst, EncodeOptions(steps=2))
        before = dimacs_text(formula)
        encode(inst, EncodeOptions(steps=4))
        encode(inst, EncodeOptions(steps=1, fixed_initial_hand=2))
        encode(self.OTHER, EncodeOptions(steps=2))
        assert dimacs_text(formula) == before
        formula.add_clause((1,))
        assert dimacs_text(encode(inst, EncodeOptions(steps=2))[0]) == before

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_goal_counters_are_kept_per_horizon(self, mode, monkeypatch):
        # goals of 5 and 2 blocks to remove, alternated on each horizon: each
        # formula is the one a cold chain encodes, and the chain keeps one
        # counter per horizon at most
        five, two = Instance(self.GRID, 1), Instance(self.GRID, 4)
        goals = [five, two, five]

        def text(instance, steps):
            opts = EncodeOptions(steps=steps, progress_encoding=mode)
            return dimacs_text(encode(instance, opts)[0])

        cold = {}
        for steps, instance in itertools.product(range(1, 5), (five, two)):
            encoder._chain.cache_clear()
            cold[instance.goal, steps] = text(instance, steps)
        encoder._chain.cache_clear()
        for steps, instance in itertools.product(range(1, 5), goals):
            assert text(instance, steps) == cold[instance.goal, steps]
        chain = encoder._chain(2, 3, 2, mode)
        assert 0 < len(chain.counters) <= len(chain.ends)
        assert {k for k, _, _ in chain.counters.values()} == {5}

        # a counter whose build raises is not stored, and the next encode
        # builds it as a cold chain does
        three = Instance(self.GRID, 3)
        encoder._chain.cache_clear()
        want = text(three, 2)
        encoder._chain.cache_clear()
        text(five, 2)
        chain = encoder._chain(2, 3, 2, mode)
        stored = dict(chain.counters)
        calls = []

        def refused_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return at_least_k(*args)

        monkeypatch.setattr(encoder, "at_least_k", refused_once)
        with pytest.raises(KeyboardInterrupt):
            text(three, 2)
        assert encoder._chain(2, 3, 2, mode) is chain
        assert chain.counters == stored
        assert text(three, 2) == want
        assert len(calls) == 2

    # the last step each mode's builder emits; later steps are renumbered
    BUILT = [(PROGRESS_WITNESS, 1), (PROGRESS_CARDINALITY, 2)]

    def test_interrupted_growth_is_not_reused(self, monkeypatch):
        inst = Instance(self.GRID, 1)
        emit_step = encoder._emit_step
        for mode, built in self.BUILT:
            opts = EncodeOptions(steps=3, progress_encoding=mode)
            encoder._chain.cache_clear()
            cold = dimacs_text(encode(inst, opts)[0])
            encoder._chain.cache_clear()

            def interrupted(b, s, progress):
                # the step's clauses are in, and its end is not yet recorded
                first_keep = emit_step(b, s, progress)
                if s == built:
                    raise KeyboardInterrupt
                return first_keep

            monkeypatch.setattr(encoder, "_emit_step", interrupted)
            with pytest.raises(KeyboardInterrupt):
                encode(inst, opts)
            monkeypatch.setattr(encoder, "_emit_step", emit_step)
            assert dimacs_text(encode(inst, opts)[0]) == cold, mode

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_interrupted_renumbering_is_not_reused(self, mode, monkeypatch):
        inst = Instance(self.GRID, 1)
        opts = EncodeOptions(steps=4, progress_encoding=mode)
        encoder._chain.cache_clear()
        cold = dimacs_text(encode(inst, opts)[0])
        encoder._chain.cache_clear()
        renumber = encoder._Chain._renumber

        def interrupted(chain, s):
            moved = renumber(chain, s)
            if s == 3:
                raise KeyboardInterrupt
            return moved

        monkeypatch.setattr(encoder._Chain, "_renumber", interrupted)
        encode(inst, EncodeOptions(steps=2, progress_encoding=mode))
        with pytest.raises(KeyboardInterrupt):
            encode(inst, opts)
        monkeypatch.setattr(encoder._Chain, "_renumber", renumber)
        assert dimacs_text(encode(inst, opts)[0]) == cold

    def test_out_of_range_literal_is_refused_and_the_chain_dropped(
        self, monkeypatch
    ):
        inst = Instance(self.GRID, 1)
        emit_step = encoder._emit_step
        for mode, built in self.BUILT:
            opts = EncodeOptions(steps=3, progress_encoding=mode)
            encoder._chain.cache_clear()
            cold = dimacs_text(encode(inst, opts)[0])
            encoder._chain.cache_clear()
            bad = []

            def corrupted(b, s, progress):
                first_keep = emit_step(b, s, progress)
                if s == built:
                    bad.append(b.f.var_count + 1)
                    b.clauses.append((1, -bad[0]))
                return first_keep

            monkeypatch.setattr(encoder, "_emit_step", corrupted)
            with pytest.raises(ValueError) as refused:
                encode(inst, opts)
            want = f"literal {-bad[0]} outside allocated variables"
            assert str(refused.value) == want, mode
            monkeypatch.setattr(encoder, "_emit_step", emit_step)
            assert dimacs_text(encode(inst, opts)[0]) == cold, mode

    def test_a_literal_the_renumbering_does_not_move_is_refused(self, monkeypatch):
        # step 3 of cardinalityCompare renumbers step 2, which reads state
        # 1 and step 1's colour sum; a step-2 clause on a step-0 variable
        # has no image, so step 3 gets a 0 there
        inst = Instance(self.GRID, 1)
        opts = EncodeOptions(steps=3, progress_encoding=PROGRESS_CARDINALITY)
        encoder._chain.cache_clear()
        cold = dimacs_text(encode(inst, opts)[0])
        encoder._chain.cache_clear()
        emit_step = encoder._emit_step

        def corrupted(b, s, progress):
            first_keep = emit_step(b, s, progress)
            if s == 2:
                b.clauses.append((1, b.f.var_count))
            return first_keep

        monkeypatch.setattr(encoder, "_emit_step", corrupted)
        encode(inst, EncodeOptions(steps=2, progress_encoding=PROGRESS_CARDINALITY))
        with pytest.raises(ValueError, match="^literal 0 outside allocated variables$"):
            encode(inst, opts)
        monkeypatch.setattr(encoder, "_emit_step", emit_step)
        assert dimacs_text(encode(inst, opts)[0]) == cold

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_renumbered_steps_are_the_built_ones(self, mode):
        # a chain whose every step goes through the builder, variable for
        # variable and clause for clause
        shapes = 0
        for height, width, colours in itertools.product(
            range(1, 5), range(1, 5), range(1, 4)
        ):
            if colours > height * width:
                continue
            copied = encoder._Chain(height, width, colours, mode)
            built = encoder._Chain(height, width, colours, mode)
            built._renumber = built._build
            copied.grow(5)
            built.grow(5)
            shape = (height, width, colours)
            assert copied.formula.var_count == built.formula.var_count, shape
            assert copied.formula.clauses == built.formula.clauses, shape
            assert copied.ends == built.ends, shape
            shapes += 1
        assert shapes == 44

    # one sha256 over every chain below, grown to step 3: the 75 witness
    # shapes sat-shapes draws and the 27 cardinalityCompare ones up to 5x5
    SHAPES_DIGEST = "4dc3d97143da61dc6d6356b157c0c59aedf66239be578803af6a4571a4c680b8"

    def test_chains_match_the_recorded_shape_digest(self):
        # the renumbered-vs-built test cannot see a builder change, as both
        # chains build their first steps, so the builder is pinned here
        digest = hashlib.sha256()
        shapes = [(PROGRESS_WITNESS, range(3, 8)), (PROGRESS_CARDINALITY, range(3, 6))]
        for mode, sides in shapes:
            for height, width, colours in itertools.product(sides, sides, range(2, 5)):
                chain = encoder._Chain(height, width, colours, mode)
                chain.grow(3)
                ends = [
                    (n, keep.start, keep.stop, vm.state_bases)
                    for n, keep, vm in chain.ends
                ]
                digest.update(repr((chain.formula.clauses, ends)).encode())
        assert digest.hexdigest() == self.SHAPES_DIGEST

    def test_concurrent_encodes_match_serial(self):
        # more threads than cores, each encoding a horizon of a fresh 4x4
        # chain, switching threads as often as the interpreter allows
        inst = Instance(g([[1, 2, 3, 1], [2, 3, 1, 2], [3, 1, 2, 3], [1, 2, 3, 1]]), 8)
        threads = (os.cpu_count() or 1) + 2
        horizons = [3 - i % 3 for i in range(threads)]
        serial = {}
        for steps in set(horizons):
            encoder._chain.cache_clear()
            serial[steps] = dimacs_text(encode(inst, EncodeOptions(steps=steps))[0])
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                encoder._chain.cache_clear()
                start = threading.Barrier(threads)
                texts = [None] * threads

                def work(i):
                    start.wait(timeout=30)
                    opts = EncodeOptions(steps=horizons[i])
                    texts[i] = dimacs_text(encode(inst, opts)[0])

                workers = [
                    threading.Thread(target=work, args=(i,), daemon=True)
                    for i in range(threads)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert not any(w.is_alive() for w in workers)
                assert texts == [serial[h] for h in horizons]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "mode, early, late", [(PROGRESS_WITNESS, 3, 6), (PROGRESS_CARDINALITY, 2, 4)]
    )
    def test_memo_does_not_grow_with_the_horizon(self, mode, early, late):
        # the memo keeps the latest step's gates; cardinalityCompare hands
        # its sums to the next step outside it
        chain = encoder._Chain(4, 4, 3, mode)
        chain._renumber = chain._build  # every step through the builder
        chain.grow(early)
        size = len(chain.builder.gates)
        chain.grow(late)
        assert len(chain.builder.gates) == size

    def test_each_horizon_extends_the_one_before(self):
        inst = Instance(self.GRID, 1)
        # at goal = blocks there is no goal counter, so only the six step-0
        # unit clauses follow the steps
        no_goal = Instance(self.GRID, 6)
        for steps in range(1, 5):
            plain = encode(no_goal, EncodeOptions(steps=steps))[0].clauses
            shared, tail = plain[:-6], plain[-6:]
            this = encode(inst, EncodeOptions(steps=steps))[0].clauses
            longer = encode(inst, EncodeOptions(steps=steps + 1))[0].clauses
            assert this[: len(shared)] == shared
            assert this[-6:] == tail
            assert longer[: len(shared)] == shared


class TestAuxiliaries:
    """Every chain variable besides the state and action groups is a
    function of those groups. Lowest-index DPLL then meets models in the
    brute-force order of the state and action variables, so an encoder
    change that keeps this and the groups' order keeps the plans."""

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_auxiliaries_are_functions_of_state_and_actions(self, mode):
        rng = random.Random(41)
        checked = 0
        for size, colours in itertools.product((2, 3), (2, 3)):
            for _ in range(2):
                grid = random_full_grid(rng, size, size, colours)
                for steps in (1, 2, 3):
                    # each step empties a cell, so this goal only asks for a
                    # progressing plan, and the goal counter is still built
                    inst = Instance(grid, size * size - steps)
                    opts = EncodeOptions(steps=steps, progress_encoding=mode)
                    f, vm = encode(inst, opts)
                    out = dpll_solve(f)
                    if not out.is_sat:
                        continue
                    # the goal counter's registers above the chain are free
                    chain = encoder._chain(size, size, inst.colour_count, mode)
                    chain_vars = chain.grow(steps)[0]
                    primary = primary_ids(vm)
                    trial = CnfFormula()
                    trial.var_count = f.var_count
                    trial.clauses = f.clauses + [
                        (v if out.model[v] else -v,) for v in sorted(primary)
                    ]
                    trial.add_clause(
                        [
                            -v if out.model[v] else v
                            for v in range(1, chain_vars + 1)
                            if v not in primary
                        ]
                    )
                    assert clause_dpll.solve(trial).is_unsat, (grid.cells, steps)
                    checked += 1
        assert checked >= 18


def unit_propagate(clauses, units):
    """The literals unit propagation sets from ``units``, or None when it
    meets a conflict. Independent of the solver's watched literals."""
    containing = {}
    for clause in clauses:
        for lit in clause:
            containing.setdefault(lit, []).append(clause)
    pending = list(units) + [clause[0] for clause in clauses if len(clause) == 1]
    true = set()
    while pending:
        lit = pending.pop()
        if lit in true:
            continue
        if -lit in true:
            return None
        true.add(lit)
        for clause in containing.get(-lit, ()):
            if any(x in true for x in clause):
                continue
            free = [x for x in clause if -x not in true]
            if not free:
                return None
            if len(free) == 1:
                pending.append(free[0])
    return true


def reachable_states(rng, count):
    """``count`` states from engine walks on 3x3 to 5x5 grids with 2-3
    colours, each walk's start included. A walk takes a shot with a wall
    fall, when there is one, half the time: falls are rare otherwise."""
    states = []
    while len(states) < count:
        size, colours = rng.choice([(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
        grid, hand = random_full_grid(rng, size, size, colours), rng.randint(1, colours)
        states.append((grid, hand, colours))
        for _ in range(rng.randint(1, 6)):
            outs = [apply_shot(grid, hand, shot) for shot in legal_shots(grid, hand)]
            if not outs:
                break
            falling = [out for out in outs if out.wall_fall]
            out = rng.choice(falling if falling and rng.random() < 0.5 else outs)
            grid, hand = out.next_grid, out.next_hand
            states.append((grid, hand, colours))
    return states[:count]


def falling_states(rng, count):
    """``count`` states that keep the gravity invariant (no empty cell
    below a block), each with a row rv >= 2 whose blocks and a run of the
    last column below it hold the hand's colour, so a row shot there often
    ends in a wall fall."""
    states = []
    for _ in range(count):
        size, colours = rng.choice([(3, 2), (4, 2), (4, 3), (5, 3)])
        hand, rv = rng.randint(1, colours), rng.randint(2, size)
        tops = [rng.randint(0, rv - 1) for _ in range(size)]
        rows = [
            [0 if r < tops[c] else rng.randint(1, colours) for c in range(size)]
            for r in range(size)
        ]
        for r in range(rv - 1, rng.randint(rv, size)):
            rows[r][-1] = hand
        rows[rv - 1] = [hand if v else 0 for v in rows[rv - 1]]
        states.append((Grid.from_rows(rows), hand, colours))
    return states


class TestSuccessorPropagation:
    """Unit propagation alone computes a step: the successor clauses leave
    the solver nothing to decide once the state and the shot are known."""

    @staticmethod
    def _step(grid, hand, colours, mode, keep=False):
        """Step 1's clauses as horizon 1 holds them or, with ``keep``, as
        horizon 2 does, its implied keep clauses included; its VarMap; and
        the start state as units."""
        chain = encoder._Chain(grid.height, grid.width, colours, mode)
        _, clause_count, vm = chain.grow(1)
        if keep:
            clause_count = chain.ends[1][1].stop
        units = [vm.hand_var(0, hand)] + [
            vm.grid_var(0, r, c, grid.at(r, c))
            for r in range(1, grid.height + 1)
            for c in range(1, grid.width + 1)
        ]
        return chain.formula.clauses[:clause_count], vm, units

    @staticmethod
    def _fixed(true, ids, low, value):
        return all((x if v == value else -x) in true for v, x in enumerate(ids, low))

    def test_state_and_shot_fix_the_engine_successor(self):
        # the successor clauses are the same in both progress modes; in
        # witness mode no progress clause follows them, so this also guards
        # soundness: unit propagation must refute every null move alone
        falls = nulls = 0
        rng = random.Random(61)
        for grid, hand, colours in reachable_states(rng, 60) + falling_states(rng, 40):
            clauses, vm, units = self._step(grid, hand, colours, PROGRESS_WITNESS)
            shots = [RowShot(r) for r in range(1, grid.height + 1)]
            shots += [ColShot(c) for c in range(1, grid.width + 1)]
            for shot in shots:
                rv, cv = (shot.row, 0) if isinstance(shot, RowShot) else (0, shot.col)
                pinned = units + [vm.row_shot_var(1, rv), vm.col_shot_var(1, cv)]
                true = unit_propagate(clauses, pinned)
                try:
                    out = apply_shot(grid, hand, shot)
                except NullMoveError:
                    nulls += 1
                    assert true is None, (grid.cells, hand, shot)
                    continue
                assert true is not None, (grid.cells, hand, shot)
                falls += out.wall_fall > 0
                # every step-1 group, in VarMap.groups order
                values = [v for row in out.next_grid.cells for v in row]
                values += [out.next_hand, rv, cv, out.wall_fall]
                for i, ((low, ids), value) in enumerate(zip(vm.groups(1), values)):
                    assert self._fixed(true, ids, low, value), (
                        grid.cells, hand, shot, vm.group_label(1, i),
                    )
        assert falls >= 20 and nulls >= 100

    def _open_shot(self, seed, keep=False):
        """Per state with a legal shot: the VarMap, what unit propagation
        sets with only the state pinned, and every legal successor."""
        rng = random.Random(seed)
        for grid, hand, colours in reachable_states(rng, 60) + falling_states(rng, 40):
            shots = legal_shots(grid, hand)
            if not shots:
                continue
            clauses, vm, units = self._step(grid, hand, colours, PROGRESS_WITNESS, keep)
            true = unit_propagate(clauses, units)
            assert true is not None
            yield grid, hand, vm, true, [apply_shot(grid, hand, s) for s in shots]

    def test_cells_no_shot_can_empty_stay_full(self):
        # with the shot open, the implied emptiness clause alone shows the
        # goal counter which cells can still become empty
        seen = 0
        for grid, hand, vm, true, outs in self._open_shot(67):
            for r in range(1, grid.height + 1):
                for c in range(1, grid.width + 1):
                    if grid.at(r, c) and all(o.next_grid.at(r, c) for o in outs):
                        seen += 1
                        full = -vm.grid_var(1, r, c, 0)
                        assert full in true, (grid.cells, hand, r, c)
        assert seen >= 400

    def test_open_shot_fixes_only_what_every_shot_agrees_on(self):
        # the implied keep and hand clauses fix cells no shot can get to,
        # and a hand no shot can keep, before the shot is chosen; step 1's
        # keep clauses are read as horizon 2 holds them, since horizon 1
        # ends before them
        kept = changed = 0
        for grid, hand, vm, true, outs in self._open_shot(71, keep=True):
            for r in range(1, grid.height + 1):
                for c in range(1, grid.width + 1):
                    for v in range(vm.colours + 1):
                        if vm.grid_var(1, r, c, v) in true:
                            kept += 1
                            assert all(o.next_grid.at(r, c) == v for o in outs)
            for v in range(1, vm.colours + 1):
                if vm.hand_var(1, v) in true:
                    assert all(o.next_hand == v for o in outs)
                if -vm.hand_var(1, v) in true:
                    assert all(o.next_hand != v for o in outs)
            changed += -vm.hand_var(1, hand) in true
        assert kept >= 250 and changed >= 25


def keep_pattern(clauses, vm, step):
    """The clauses shaped as step ``step``'s implied keep clauses: "unless
    some gate holds, the cell keeps value v", whose only state or action
    literals are a cell's value v at ``step - 1``, negated, and then the
    same at ``step``."""
    primary = primary_ids(vm)
    keeps = {
        (-vm.grid_var(step - 1, r, c, v), vm.grid_var(step, r, c, v))
        for r in range(1, vm.height + 1)
        for c in range(1, vm.width + 1)
        for v in range(vm.colours + 1)
    }
    return [
        clause
        for clause in clauses
        if tuple(x for x in clause if abs(x) in primary) in keeps
    ]


class TestImpliedKeep:
    """Each step's implied keep clauses end its block. Horizon h ends before
    step h's, which no shot reads, and horizon h + 1 holds them."""

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_only_the_next_horizon_holds_a_steps_keep_clauses(self, mode):
        inst = Instance(g([[1, 2, 1], [2, 1, 2], [1, 1, 2]]), 3)
        for steps in range(1, 5):
            this, _ = encode(inst, EncodeOptions(steps, progress_encoding=mode))
            longer, vm = encode(inst, EncodeOptions(steps + 1, progress_encoding=mode))
            chain = encoder._chain(3, 3, 2, mode)
            keep = chain.ends[steps][1]
            kept = chain.formula.clauses[keep.start : keep.stop]
            assert keep_pattern(this.clauses, vm, steps) == []
            assert keep_pattern(longer.clauses, vm, steps) == kept
            assert len(kept) == len(keep_pattern(longer.clauses, vm, 1)) > 0

    @pytest.mark.parametrize("mode", PROGRESS_MODES)
    def test_the_last_steps_keep_clauses_are_entailed(self, mode):
        # leaving them out of a horizon changes none of its models: the
        # formula and the negation of any one of them is unsat
        rng = random.Random(73)
        checked = sat = 0
        for _ in range(80):
            height, width = rng.randint(1, 3), rng.randint(1, 3)
            colours = rng.randint(1, min(3, height * width))
            grid = random_full_grid(rng, height, width, colours)
            for steps in (1, 2, 3):
                inst = Instance(grid, max(0, height * width - steps))
                f, _ = encode(inst, EncodeOptions(steps, progress_encoding=mode))
                chain = encoder._chain(height, width, colours, mode)
                keep = chain.ends[steps][1]
                sat += dpll_solve(f).is_sat
                for clause in chain.formula.clauses[keep.start : keep.stop]:
                    trial = CnfFormula()
                    trial.var_count = f.var_count
                    trial.clauses = f.clauses + [(-x,) for x in clause]
                    assert clause_dpll.solve(trial).is_unsat, (
                        grid.cells, steps, clause,
                    )
                    checked += 1
        assert checked >= 700 and sat >= 150


class TestDecode:
    def _solve(self, inst, steps):
        f, vm = encode(inst, EncodeOptions(steps=steps))
        out = dpll_solve(f)
        assert out.is_sat
        return decode(out.model, vm), vm

    def test_trace_replays_through_engine(self):
        inst = Instance(g([[1, 1], [1, 1]]), 1)
        trace, _ = self._solve(inst, 1)
        grid, hand = inst.grid, trace.initial_hand
        assert trace.grids[0] == grid and trace.hands[0] == hand
        for i, shot in enumerate(trace.shots):
            out = apply_shot(grid, hand, shot)
            grid, hand = out.next_grid, out.next_hand
            assert trace.grids[i + 1] == grid
            assert trace.hands[i + 1] == hand
            assert trace.wall_falls[i] == out.wall_fall
        assert is_goal(grid, inst.goal)

    def test_consecutive_states_satisfy_the_constraint_checker(self):
        inst = Instance(g([[1, 1, 1], [1, 2, 1]]), 1)
        trace, _ = self._solve(inst, 2)
        for i, shot in enumerate(trace.shots):
            cand = TransitionCandidate(
                trace.grids[i],
                trace.hands[i],
                shot,
                trace.grids[i + 1],
                trace.hands[i + 1],
                trace.wall_falls[i],
            )
            assert check_transition(cand)

    @pytest.mark.parametrize(
        "true_values, message",
        [
            ({"cell": ()}, r"grid\(1,2,1\): 0 values true"),
            ({"cell": (0, 1)}, r"grid\(1,2,1\): 2 values true"),
            ({"hand": ()}, r"hand\(0\): 0 values true"),
            ({"row": (0, 2)}, r"fired row\(1\): 2 values true"),
            ({"col": ()}, r"fired col\(1\): 0 values true"),
            ({"fall": (0, 1)}, r"wall fall\(1\): 2 values true"),
            ({"row": (1,), "col": (1,)}, r"step 1: fired rows and columns: 1, 1"),
            ({"row": (0,), "col": (0,)}, r"step 1: fired rows and columns: 0, 0"),
        ],
        ids=[
            "cell-none",
            "cell-two",
            "hand",
            "fired-row",
            "fired-col",
            "wall-fall",
            "both-axes",
            "neither-axis",
        ],
    )
    def test_malformed_model_detected(self, true_values, message):
        inst = Instance(g([[1, 1], [1, 1]]), 1)
        f, vm = encode(inst, EncodeOptions(steps=1))
        model = list(dpll_solve(f).model)
        groups = {
            "cell": (lambda v: vm.grid_var(1, 2, 1, v), range(0, 2)),
            "hand": (lambda v: vm.hand_var(0, v), range(1, 2)),
            "row": (lambda v: vm.row_shot_var(1, v), range(0, 3)),
            "col": (lambda v: vm.col_shot_var(1, v), range(0, 3)),
            "fall": (lambda v: vm.wall_fall_var(1, v), range(0, 3)),
        }
        for kind, values in true_values.items():
            var, domain = groups[kind]
            for v in domain:
                model[var(v)] = v in values
        with pytest.raises(MalformedModelError, match=message):
            decode(model, vm)


class TestExactLengthEquivalence:
    def test_all_2x2_grids_every_horizon(self):
        for colours in (1, 2):
            for flat in itertools.product(range(1, colours + 1), repeat=4):
                if len(set(flat)) != colours:
                    continue
                grid = Grid((tuple(flat[:2]), tuple(flat[2:])))
                for goal in range(0, 4):
                    inst = Instance(grid, goal)
                    for steps in range(1, 4 - goal + 1):
                        want = exists_plan_of_exact_length(inst, steps)
                        for mode in (PROGRESS_WITNESS, PROGRESS_CARDINALITY):
                            f, _ = encode(
                                inst,
                                EncodeOptions(steps=steps, progress_encoding=mode),
                            )
                            assert dpll_solve(f).is_sat == want, (
                                grid.cells,
                                goal,
                                steps,
                                mode,
                            )

    def test_sampled_3x3_three_colours(self):
        rng = random.Random(23)
        for _ in range(2):
            grid = random_full_grid(rng, 3, 3, 3)
            for goal in (3, 6):
                inst = Instance(grid, goal)
                for steps in range(1, 9 - goal + 1):
                    want = exists_plan_of_exact_length(inst, steps)
                    f, _ = encode(inst, EncodeOptions(steps=steps))
                    assert dpll_solve(f).is_sat == want, (grid.cells, goal, steps)


class TestNativeGoalCount:
    """The step search leaves the goal's "at least k cells empty"
    (``cnf.AtLeastK``) to the last step's options, and takes its registers
    from the last step's outputs; the outcome and the model must be those
    of the formula's clauses, solved by the clause DPLL."""

    def test_matches_the_clauses_on_random_instances(self):
        rng = random.Random(57)
        formulas = sat = 0
        for _ in range(150):
            height, width = rng.randint(1, 4), rng.randint(1, 4)
            colours = rng.randint(1, min(3, height * width))
            grid = random_full_grid(rng, height, width, colours)
            inst = Instance(grid, rng.randrange(height * width))
            for mode, steps in itertools.product(PROGRESS_MODES, (1, 2, 3)):
                opts = EncodeOptions(steps=steps, progress_encoding=mode)
                f, vm = encode(inst, opts)
                goal, _ = goal_counter(inst, f, vm)
                assert f.steps.describes(f) and goal.k == height * width - inst.goal
                native, plain = dpll_solve(f), clause_dpll.solve(f)
                assert (native.status, native.model) == (
                    plain.status,
                    plain.model,
                ), (grid.cells, inst.goal, mode, steps)
                if native.is_sat:
                    model = native.model
                    assert sum(model[x] for x in goal.lits) >= goal.k
                formulas += 1
                sat += native.is_sat
        assert formulas == 900 and sat >= 300

    @pytest.mark.parametrize(
        "change",
        ["register-clause", "later-variable", "counter-clause-dropped"],
    )
    def test_a_formula_the_record_does_not_describe(self, change):
        # each change leaves a formula whose goal registers the record
        # would misread, so dpll_solve refuses it, and the clause DPLL
        # gives it the answer its clauses admit
        rng = random.Random(59)
        sat = 0
        for mode, steps in itertools.product(PROGRESS_MODES, (1, 2, 3)):
            for _ in range(3):
                inst = Instance(random_full_grid(rng, 3, 3, 2), rng.randrange(9))
                opts = EncodeOptions(steps=steps, progress_encoding=mode)
                f, vm = encode(inst, opts)
                (goal, counted), first = goal_counter(inst, f, vm), dpll_solve(f)
                if change == "register-clause":
                    # rule out the lowest register the first model sets true
                    registers = range(goal.first_var, f.var_count + 1)
                    r = next(v for v in registers if not first.model or first.model[v])
                    f.add_clause((-r,))
                elif change == "later-variable":
                    f.new_var()  # free, so true in the first model
                else:
                    # the goal's top unit, so that the goal no longer binds
                    del f.clauses[f.steps.size + len(counted) - 1]
                assert not f.steps.describes(f)
                with pytest.raises(ValueError, match="does not describe"):
                    dpll_solve(f)
                plain = clause_dpll.solve(f)
                # models are compared in brute-force order: the later of
                # two, as a tuple, is the smaller
                if change == "register-clause":
                    # one clause more: the first model can only come later
                    assert not plain.is_sat or first.is_sat and plain.model <= first.model
                elif change == "later-variable":
                    want = first.model and first.model + (True,)
                    assert (plain.status, plain.model) == (first.status, want)
                else:
                    # fewer clauses: the first model can only come sooner
                    assert not first.is_sat or plain.is_sat and plain.model >= first.model
                sat += first.is_sat
        assert sat >= 6

    def test_two_counters(self):
        # a second counter after the goal's is not the record's; the clause
        # DPLL reads both counters from their clauses
        rng = random.Random(61)
        for mode, steps in itertools.product(PROGRESS_MODES, (1, 2, 3)):
            inst = Instance(random_full_grid(rng, 3, 3, 2), rng.randrange(9))
            opts = EncodeOptions(steps=steps, progress_encoding=mode)
            f, vm = encode(inst, opts)
            (goal, _), first = goal_counter(inst, f, vm), dpll_solve(f)
            k = min(goal.k + 1, len(goal.lits))
            at_least_k(f, goal.lits[::-1], k)
            assert not f.steps.describes(f)
            with pytest.raises(ValueError, match="does not describe"):
                dpll_solve(f)
            plain = clause_dpll.solve(f)
            if plain.is_sat:
                # a model of the goal's formula too, so not before its first
                assert first.is_sat and plain.model[: len(first.model)] <= first.model
                assert sum(plain.model[x] for x in goal.lits) >= k
