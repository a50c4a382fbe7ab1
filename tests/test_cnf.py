import itertools
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plotting_solver.cnf import (
    CnfFormula,
    EmptySelectionError,
    InfeasibleBoundError,
    ParseFailureError,
    SpawnFailureError,
    _propagate,
    _verify_model,
    and_gate,
    at_least_k,
    exactly_one,
    external_solve,
)

import clause_dpll
from clause_dpll import ClauseIndex, _search
from conftest import MINI_SOLVER_CMD, dimacs_text


def satisfies(clauses, values):
    """Clause-by-clause definition; ``values[v - 1]`` is variable v's value."""
    return all(any(values[abs(l) - 1] == (l > 0) for l in c) for c in clauses)


random_cnf = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(-n, n).filter(bool), min_size=1, max_size=n),
            max_size=16,
        ),
    )
)


def formula_from(n, clauses):
    f = CnfFormula()
    f.alloc_block(n)
    for c in clauses:
        f.add_clause(c)
    return f


def formula_with_vars(n):
    f = CnfFormula()
    inputs = [f.new_var() for _ in range(n)]
    return f, inputs


def brute_force_count(f, free_vars):
    """Satisfying assignments of ``free_vars``, checking all clauses."""
    count = 0
    for bits in itertools.product([False, True], repeat=len(free_vars)):
        fixed = dict(zip(free_vars, bits))
        trial = CnfFormula()
        trial.var_count = f.var_count
        trial.clauses = list(f.clauses)
        for var, val in fixed.items():
            trial.add_clause((var if val else -var,))
        if clause_dpll.solve(trial).is_sat:
            count += 1
    return count


class TestExactlyOne:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 4), (5, 11)])
    def test_clause_counts(self, n, expected):
        f, lits = formula_with_vars(n)
        exactly_one(f, lits)
        assert len(f.clauses) == expected

    def test_empty_selection(self):
        f = CnfFormula()
        with pytest.raises(EmptySelectionError):
            exactly_one(f, [])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_admits_exactly_n_models(self, n):
        f, lits = formula_with_vars(n)
        exactly_one(f, lits)
        assert brute_force_count(f, lits) == n


class TestReify:
    def test_and_of_one_literal(self):
        f, (x,) = formula_with_vars(1)
        z = and_gate(f, [x])
        assert len(f.clauses) == 2
        assert all(len(c) == 2 for c in f.clauses)
        # z tracks x in every model
        for val in (False, True):
            trial = CnfFormula()
            trial.var_count = f.var_count
            trial.clauses = list(f.clauses)
            trial.add_clause((x if val else -x,))
            out = clause_dpll.solve(trial)
            assert out.is_sat and out.model[z] == val

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        signs=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_gate_semantics_by_brute_force(self, n, signs):
        f, base = formula_with_vars(n)
        lits = [v if s else -v for v, s in zip(base, signs)]
        z = and_gate(f, lits)
        for bits in itertools.product([False, True], repeat=n):
            vals = [bits[abs(l) - 1] == (l > 0) for l in lits]
            trial = CnfFormula()
            trial.var_count = f.var_count
            trial.clauses = list(f.clauses)
            for var, bit in zip(base, bits):
                trial.add_clause((var if bit else -var,))
            out = clause_dpll.solve(trial)
            assert out.is_sat and out.model[z] == all(vals)
            # DPLL tries true first, so also check that z cannot take the
            # wrong value
            trial.add_clause((-z if all(vals) else z,))
            assert clause_dpll.solve(trial).is_unsat


class TestAtLeastK:
    def test_k_zero_emits_nothing(self):
        f, lits = formula_with_vars(4)
        assert at_least_k(f, lits, 0) is None
        assert f.clauses == [] and f.var_count == 4

    def test_single_literal_becomes_unit(self):
        f, lits = formula_with_vars(1)
        at_least_k(f, lits, 1)
        assert f.clauses == [(lits[0],)]

    def test_infeasible_bound(self):
        f, lits = formula_with_vars(2)
        with pytest.raises(InfeasibleBoundError):
            at_least_k(f, lits, 3)

    @pytest.mark.parametrize(
        "lits, k",
        [([0], 1), ([1, 2, 0], 2), ([4], 1), ([1, 2, 103], 2), ([1, -103, 3], 3)],
    )
    def test_input_outside_the_formula_is_refused(self, lits, k):
        # variables 1..3 are allocated; the formula is left as it was
        f, _ = formula_with_vars(3)
        f.add_clause((1, -2))
        with pytest.raises(ValueError, match="outside allocated variables"):
            at_least_k(f, lits, k)
        assert f.var_count == 3 and f.clauses == [(1, -2)]

    def test_four_choose_two_by_brute_force(self):
        f, lits = formula_with_vars(4)
        at_least_k(f, lits, 2)
        sat_count = 0
        for bits in itertools.product([False, True], repeat=4):
            trial = CnfFormula()
            trial.var_count = f.var_count
            trial.clauses = list(f.clauses)
            for var, bit in zip(lits, bits):
                trial.add_clause((var if bit else -var,))
            ok = clause_dpll.solve(trial).is_sat
            assert ok == (sum(bits) >= 2)
            sat_count += ok
        assert sat_count == 11

    def test_register_count(self):
        # one register per (i, j), i >= 2, from which "at least k of n" can
        # still be reached: max(1, k - (n - i)) <= j <= min(i, k)
        for n in range(30):
            for k in range(n + 1):
                f, lits = formula_with_vars(n)
                at_least_k(f, lits, k)
                want = sum(
                    max(0, min(i, k) - max(1, k - (n - i)) + 1)
                    for i in range(2, n + 1)
                )
                assert f.var_count - n == want, (n, k)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(0, 6))
    def test_threshold_semantics(self, n, k):
        if k > n:
            return
        f, lits = formula_with_vars(n)
        at_least_k(f, lits, k)
        for bits in itertools.product([False, True], repeat=n):
            units = [(var if bit else -var,) for var, bit in zip(lits, bits)]
            out = clause_dpll.solve(formula_from(f.var_count, f.clauses + units))
            assert out.is_sat == (sum(bits) >= k)


def input_values(record, model):
    """The value in ``model`` of each input of ``record``, in order, as
    ``AtLeastK.registers_under`` reads them."""
    return [model[x] if x > 0 else not model[-x] for x in record.lits]


class TestNativeCount:
    """The step search leaves the goal counter's clauses out and gives its
    registers the values of ``AtLeastK.registers_under``; those must be the
    registers of the first model of the clauses solved alone."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_clauses_under_every_input_assignment(self, n):
        # each input a unit true, a unit false or free
        for k in range(n + 1):
            for values in itertools.product((True, False, None), repeat=n):
                f, lits = formula_with_vars(n)
                record = at_least_k(f, lits, k)
                assert (record is not None) == (k > 0)
                for x, value in zip(lits, values):
                    if value is not None:
                        f.add_clause((x if value else -x,))
                out = clause_dpll.solve(f)
                assert out.is_sat == (values.count(False) <= n - k), (k, values)
                if out.is_sat and record is not None:
                    registers = list(out.model[n + 1 :])
                    values = input_values(record, out.model)
                    assert registers == record.registers_under(values)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_propagates_without_a_decision(self, n):
        # an expired deadline ends the search at its first decision, so
        # only propagation answers unsat: it refutes any n - k + 1 false
        # inputs, so n - k false inputs set the rest true, and only a
        # decision can refute n - k
        for k in range(1, n + 1):
            for falses in range(n - k, n - k + 2):
                for off in itertools.combinations(range(n), falses):
                    f, lits = formula_with_vars(n)
                    at_least_k(f, lits, k)
                    for i in off:
                        f.add_clause((-lits[i],))
                    out = clause_dpll.solve(f, timeout=0)
                    assert out.is_unsat == (falses > n - k), (k, off)

    @settings(max_examples=300, deadline=None)
    @given(
        inputs=st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=6),
        k=st.integers(0, 6),
        others=st.lists(
            st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
            max_size=5,
        ),
    )
    @example(inputs=[1, 2, 3, 4, 1, -1], k=3, others=[])
    def test_repeated_and_negated_inputs(self, inputs, k, others):
        # an input may repeat or appear with both signs, and each occurrence
        # counts; other clauses over the same variables come before the
        # counter or after it
        if k > len(inputs):
            return
        f = formula_from(4, others[:2])
        record = at_least_k(f, inputs, k)
        for c in others[2:]:
            f.add_clause(c)
        out = clause_dpll.solve(f)
        want = any(
            satisfies(others, bits)
            and sum(bits[abs(x) - 1] == (x > 0) for x in inputs) >= k
            for bits in itertools.product([False, True], repeat=4)
        )
        assert out.is_sat == want
        if out.is_sat and record is not None:
            values = input_values(record, out.model)
            assert list(out.model[5:]) == record.registers_under(values)


def parse_dimacs(text):
    """Independent strict reader for the p-cnf grammar."""
    lines = text.splitlines()
    assert lines, "no header"
    head = lines[0].split()
    assert head[:2] == ["p", "cnf"] and len(head) == 4
    nvars, nclauses = int(head[2]), int(head[3])
    clauses = []
    for line in lines[1:]:
        toks = [int(t) for t in line.split()]
        assert toks and toks[-1] == 0 and 0 not in toks[:-1]
        assert all(abs(t) <= nvars for t in toks[:-1])
        clauses.append(tuple(toks[:-1]))
    assert len(clauses) == nclauses
    return nvars, clauses


class TestDimacs:
    def test_single_unit(self):
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        assert dimacs_text(f) == "p cnf 1 1\n1 0\n"

    def test_binary_clause(self):
        f = CnfFormula()
        a, b = f.new_var(), f.new_var()
        f.add_clause((a, -b))
        assert dimacs_text(f) == "p cnf 2 1\n1 -2 0\n"

    def test_round_trip(self):
        f, lits = formula_with_vars(5)
        exactly_one(f, lits)
        at_least_k(f, lits, 2)
        nvars, clauses = parse_dimacs(dimacs_text(f))
        assert nvars == f.var_count
        assert sorted(clauses) == sorted(f.clauses)


class TestDpll:
    """The tests' clause DPLL, ``clause_dpll.solve``: the reference that
    the other tests take as a formula's clauses' answer."""

    def test_empty_formula_is_sat(self):
        assert clause_dpll.solve(CnfFormula()).is_sat

    def test_contradiction(self):
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        f.add_clause((-v,))
        assert clause_dpll.solve(f).is_unsat

    def test_budget_exhaustion_is_unknown(self):
        f, lits = formula_with_vars(6)
        # pigeonhole-ish contradiction needing real search
        exactly_one(f, lits[:3])
        exactly_one(f, lits[3:])
        for a in lits[:3]:
            for b in lits[3:]:
                f.add_clause((-a, -b))
        # the deadline passes before the first decision
        out = clause_dpll.solve(f, timeout=1e-9)
        assert out.status == "unknown" and out.reason == "timeout"
        assert clause_dpll.solve(f).is_unsat

    def test_timeout_bounds_a_hard_refutation(self):
        # 10 pigeons in 9 holes: DPLL needs exponentially many decisions
        # (9 in 8 already takes seconds), so only the deadline ends the search
        f = CnfFormula()
        holes = [[f.new_var() for _ in range(9)] for _ in range(10)]
        for pigeon in holes:
            f.add_clause(pigeon)
        for hole in zip(*holes):
            for a, b in itertools.combinations(hole, 2):
                f.add_clause((-a, -b))
        start = time.monotonic()
        out = clause_dpll.solve(f, timeout=0.2)
        assert out.status == "unknown" and out.reason == "timeout"
        assert time.monotonic() - start < 5.0

    def test_single_block_single_step_encoding_is_sat(self):
        from plotting_solver.encoder import EncodeOptions, encode
        from plotting_solver.engine import Grid, Instance

        formula, _ = encode(
            Instance(Grid.from_rows([[1]]), 0), EncodeOptions(steps=1)
        )
        assert clause_dpll.solve(formula).is_sat

    def test_does_not_mutate_formula(self):
        f, lits = formula_with_vars(3)
        exactly_one(f, lits)
        before = list(f.clauses)
        clause_dpll.solve(f)
        assert f.clauses == before

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 6),
        clause_specs=st.lists(
            st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=4),
            min_size=1,
            max_size=12,
        ),
    )
    def test_agrees_with_truth_tables(self, n, clause_specs):
        f = CnfFormula()
        for _ in range(n):
            f.new_var()
        clauses = []
        for spec in clause_specs:
            clause = tuple((v if s else -v) for v, s in spec if v <= n)
            if clause:
                clauses.append(clause)
        for c in clauses:
            f.add_clause(c)
        want = any(
            all(any((bits[abs(l) - 1] == (l > 0)) for l in c) for c in clauses)
            for bits in itertools.product([False, True], repeat=n)
        )
        out = clause_dpll.solve(f)
        assert out.is_sat == want
        if out.is_sat:
            for c in clauses:
                assert any(out.model[l] if l > 0 else not out.model[-l] for l in c)

    @settings(max_examples=300, deadline=None)
    @given(cnf=random_cnf)
    # binary clauses are two-literal runs: one literal twice, a tautology
    # under a unit that falsifies one side, and an unsat pair of them
    @example(cnf=(1, [[1, 1]]))
    @example(cnf=(1, [[1, -1], [-1]]))
    @example(cnf=(2, [[1, 2], [-1], [-2, -2]]))
    def test_model_is_first_in_brute_force_order(self, cnf):
        # variable 1 most significant, true before false
        n, clauses = cnf
        first = next(
            (
                bits
                for bits in itertools.product([True, False], repeat=n)
                if satisfies(clauses, bits)
            ),
            None,
        )
        out = clause_dpll.solve(formula_from(n, clauses))
        if first is None:
            assert out.is_unsat
        else:
            assert out.is_sat and out.model == (False,) + first


def same_outcome(out, want):
    assert (out.status, out.model) == (want.status, want.model)


class TestClauseIndex:
    """The layout of the index one ``clause_dpll.solve`` call builds, and
    the search over it."""

    @staticmethod
    def assert_one_run_per_clause(index, clauses, var_count):
        """Every clause of two or more literals is one run of ``lits``,
        watched on its first two slots; each literal of a run has a list of
        its own, and every other literal's slot is the empty tuple."""
        runs = [c for c in clauses if len(c) > 1]
        lits, watches = index.lits, index.watches
        assert len(watches) == 2 * var_count + 1
        assert len(lits) == 1 + sum(len(c) + 1 for c in runs)
        entries = [c for ws in watches for c in ws]
        assert all(type(c) is int and 0 < c < len(lits) for c in entries)
        found = {c: lits[c : lits.index(0, c)] for c in entries}  # up to its 0
        assert sorted(map(sorted, found.values())) == sorted(map(sorted, runs))
        assert sorted(entries) == sorted(2 * list(found))
        for c in found:
            assert lits[c - 1] == 0  # a run starts after the one before ends
            assert c in watches[lits[c]]
            assert c in watches[lits[c + 1]]
        occurring = {lit % len(watches) for run in runs for lit in run}
        owned = [watches[slot] for slot in occurring]
        assert all(type(ws) is list for ws in owned)
        assert len(set(map(id, owned))) == len(owned)
        others = set(range(1, len(watches))) - occurring
        assert all(watches[slot] == () for slot in others)

    @pytest.mark.parametrize("solved", [False, True], ids=["loaded", "solved"])
    def test_the_index_holds_no_object_per_clause(self, solved):
        # 5 occurs only in a unit, -5 only after its run's watched slots,
        # and -6 and variable 7 in no clause
        clauses = [(1,), (1, 2), (-1, 2, 3), (2, -3, 4, -1), (-4,), (3, 4, -2)]
        clauses += [(-2, 6), (4, 1, -5), (5,)]
        index = ClauseIndex(clauses, 7)
        if solved:  # the search moves watches; it leaves the layout as it was
            f = formula_from(7, clauses)
            out = _search(f, index, None)
            assert out.is_sat
            same_outcome(out, clause_dpll.solve(f))
        self.assert_one_run_per_clause(index, clauses, 7)

    def test_a_scan_stops_at_its_runs_end(self):
        # lits: 0 | 1 2 -3 0 | 4 5 6 0; the units make the first clause unit
        # through its last literal, and the next run starts with a literal
        # no unit assigns, which a scan past the 0 would take as a watch
        f = formula_from(6, [(1, 2, -3), (4, 5, 6), (-1,), (-2,)])
        index = ClauseIndex(f.clauses, f.var_count)
        assert index.lits == [0, 1, 2, -3, 0, 4, 5, 6, 0]
        out = _search(f, index, None)
        assert out.model == (False, False, False, False, True, True, True)
        lits = index.lits
        assert sorted(lits[1:4]) == [-3, 1, 2] and lits[4:] == [0, 4, 5, 6, 0]
        # the implied literal is watched, and so is one of the false ones
        assert -3 in lits[1:3]
        assert sorted(c for ws in index.watches for c in ws) == [1, 1, 5, 5]
        assert 1 in index.watches[lits[1]] and 1 in index.watches[lits[2]]


class TestVerifyModel:
    @settings(max_examples=300, deadline=None)
    @given(cnf=random_cnf, data=st.data())
    def test_agrees_with_clause_by_clause_definition(self, cnf, data):
        n, clauses = cnf
        bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        f = formula_from(n, clauses)
        want = satisfies(clauses, bits)
        assert _verify_model(f, [False] + bits) == want
        assert _verify_model(f, (False,) + tuple(bits)) == want


class TestPropagate:
    """The one pass over the clauses that checks a model and fills in what
    the clauses force: a clause with a true literal holds, one with no true
    literal and exactly one unset literal sets it, and any other is
    rejected."""

    @staticmethod
    def table(n, values):
        """A table by signed literal over ``n`` variables, ``values[v]``
        True, False or None (unset) for each variable v given."""
        is_true = [False] * (2 * n + 1)
        for v, value in values.items():
            if value is not None:
                is_true[v if value else -v] = True
        return is_true

    @pytest.mark.parametrize("a, b", itertools.product((True, False), repeat=2))
    def test_an_and_gate_output_is_set_both_ways(self, a, b):
        f = CnfFormula()
        f.alloc_block(2)
        z = and_gate(f, [1, 2])
        is_true = self.table(3, {1: a, 2: b})
        assert _propagate(f.clauses, is_true)
        assert (is_true[z], is_true[-z]) == (a and b, not (a and b))

    def test_a_clause_with_two_unset_literals_is_rejected(self):
        is_true = self.table(3, {3: False})
        assert not _propagate([(1, 2, 3)], is_true)
        assert is_true == self.table(3, {3: False})

    def test_two_unset_literals_beside_a_true_one_hold(self):
        is_true = self.table(3, {3: True})
        assert _propagate([(1, 2, 3)], is_true)
        assert is_true == self.table(3, {3: True})

    def test_a_clause_with_every_literal_false_is_rejected(self):
        is_true = self.table(2, {1: False, 2: True})
        assert not _propagate([(1, -2)], is_true)
        # and after a clause that holds
        assert not _propagate([(2,), (1, -2)], is_true)

    def test_a_set_literal_is_never_flipped(self):
        # the first clause sets 1, the second then sets 2; the third would
        # need 2 false, and the pass rejects it instead of flipping 2
        is_true = self.table(2, {})
        assert not _propagate([(1,), (-1, 2), (-2,)], is_true)
        assert is_true == self.table(2, {1: True, 2: True})

    @settings(max_examples=300, deadline=None)
    @given(cnf=random_cnf, data=st.data())
    def test_an_accepted_table_satisfies_every_clause(self, cnf, data):
        n, clauses = cnf
        given_values = data.draw(
            st.lists(st.sampled_from([True, False, None]), min_size=n, max_size=n)
        )
        before = dict(enumerate(given_values, 1))
        is_true = self.table(n, before)
        if _propagate(clauses, is_true):
            assert all(any(is_true[lit] for lit in c) for c in clauses)
            for v, value in before.items():
                if value is not None:
                    assert is_true[v] == value and is_true[-v] != value


class TestExternalSolve:
    def test_sat_with_model(self, mini_solver_cmd):
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        out = external_solve(f, mini_solver_cmd)
        assert out.is_sat and out.model[v]

    def test_unsat(self, mini_solver_cmd):
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        f.add_clause((-v,))
        assert external_solve(f, mini_solver_cmd).is_unsat

    def test_spawn_failure(self):
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        with pytest.raises(SpawnFailureError):
            external_solve(f, ["/definitely/not/a/solver"])

    def test_empty_argv_is_refused_before_any_process(self, monkeypatch):
        def spawn(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr("plotting_solver.cnf.subprocess.run", spawn)
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        with pytest.raises(SpawnFailureError, match="no solver command"):
            external_solve(f, [])

    def test_malformed_output(self, tmp_path):
        bad = tmp_path / "bad_solver.py"
        bad.write_text(
            "import sys\nprint('s SATISFIABLE')\nprint('v graffiti 0')\n"
        )
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        with pytest.raises(ParseFailureError):
            external_solve(f, [sys.executable, str(bad)])

    def test_lying_solver_is_caught(self, tmp_path):
        liar = tmp_path / "liar.py"
        liar.write_text(
            "print('s SATISFIABLE')\nprint('v -1 0')\n"
        )
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        with pytest.raises(ParseFailureError):
            external_solve(f, [sys.executable, str(liar)])

    def test_variable_given_both_signs_is_refused(self, tmp_path):
        torn = tmp_path / "torn.py"
        torn.write_text("print('s SATISFIABLE')\nprint('v 1 -1 2 0')\n")
        f = CnfFormula()
        f.alloc_block(2)
        f.add_clause((-1, 2))
        with pytest.raises(ParseFailureError, match="variable 1 given both signs"):
            external_solve(f, [sys.executable, str(torn)])

    def test_no_status_line_is_unknown(self, tmp_path):
        silent = tmp_path / "silent.py"
        silent.write_text("print('c nothing to see')\n")
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        out = external_solve(f, [sys.executable, str(silent)])
        assert out.status == "unknown"

    def test_timeout_is_unknown(self, tmp_path):
        sleeper = tmp_path / "sleeper.py"
        sleeper.write_text("import time\ntime.sleep(5)\n")
        f = CnfFormula()
        v = f.new_var()
        f.add_clause((v,))
        out = external_solve(f, [sys.executable, str(sleeper)], timeout=0.3)
        assert out.status == "unknown"
        assert "timeout" in out.reason

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 5),
        clause_specs=st.lists(
            st.lists(st.tuples(st.integers(1, 5), st.booleans()), min_size=1, max_size=3),
            min_size=1,
            max_size=8,
        ),
    )
    def test_status_agreement_with_internal(self, n, clause_specs):
        f = CnfFormula()
        for _ in range(n):
            f.new_var()
        for spec in clause_specs:
            clause = tuple((v if s else -v) for v, s in spec if v <= n)
            if clause:
                f.add_clause(clause)
        internal = clause_dpll.solve(f)
        external = external_solve(f, MINI_SOLVER_CMD)
        assert internal.status == external.status
