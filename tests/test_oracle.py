import itertools
import random

import pytest

from plotting_solver import engine
from plotting_solver.engine import (
    ColShot,
    Grid,
    Instance,
    RowShot,
    ShotError,
    apply_shot,
    is_goal,
    legal_shots,
)
from plotting_solver.generator import GeneratorSpec, random_instance
from plotting_solver.oracle import (
    CapacityExceededError,
    OptimalPlan,
    TransitionCandidate,
    bfs_optimal,
    check_transition,
    enumerate_successors,
)

from conftest import random_full_grid, random_walk


def g(rows):
    return Grid.from_rows(rows)


def engine_candidate(grid, hand, shot):
    out = apply_shot(grid, hand, shot)
    return TransitionCandidate(
        grid, hand, shot, out.next_grid, out.next_hand, out.wall_fall
    )


class TestCheckTransition:
    def test_accepts_engine_outcomes(self):
        for grid, hand, shot in [
            (g([[1, 1], [1, 1]]), 1, RowShot(1)),
            (g([[2, 2, 2], [1, 1, 1], [2, 3, 1]]), 1, RowShot(2)),
            (g([[1], [1], [2]]), 1, ColShot(1)),
            (g([[1, 2], [1, 1]]), 1, RowShot(1)),
        ]:
            assert check_transition(engine_candidate(grid, hand, shot))

    def test_rejects_unchanged_grid(self):
        cand = TransitionCandidate(
            g([[2]]), 1, RowShot(1), g([[2]]), 1, 0
        )
        assert not check_transition(cand)

    def test_only_the_true_wall_fall_distance_is_accepted(self):
        prev = g([[2, 2, 2], [1, 1, 1], [2, 3, 1]])
        nxt = g([[0, 0, 0], [2, 2, 0], [2, 3, 2]])
        accepted = [
            wf
            for wf in range(0, 4)
            if check_transition(
                TransitionCandidate(prev, 1, RowShot(2), nxt, 1, wf)
            )
        ]
        assert accepted == [2]

    def test_accepts_wall_fall_with_empties_above_the_stack(self):
        # the vacated top-of-stack cell's source is empty; the landing case
        # must not fire for it
        prev = g([[0, 0, 0], [0, 0, 1], [0, 0, 2]])
        cand = engine_candidate(prev, 2, RowShot(3))
        assert cand.wall_fall == 1
        assert cand.next_grid.cells == ((0, 0, 0), (0, 0, 0), (0, 0, 1))
        assert check_transition(cand)

    def test_accepts_engine_outcomes_along_deep_plans(self):
        grid = g([[1, 1, 1], [1, 1, 2], [1, 1, 2]])
        hand = 1
        for shot in [ColShot(1), ColShot(2), RowShot(1), RowShot(3)]:
            cand = engine_candidate(grid, hand, shot)
            assert check_transition(cand), (grid.cells, hand, shot)
            grid, hand = cand.next_grid, cand.next_hand

    def test_rejects_wrong_hand(self):
        prev = g([[1, 1], [1, 1]])
        out = apply_shot(prev, 1, RowShot(1))
        cand = TransitionCandidate(prev, 1, RowShot(1), out.next_grid, 2, 0)
        assert not check_transition(cand)

    def test_dimension_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            TransitionCandidate(g([[1]]), 1, RowShot(1), g([[1, 1]]), 1, 0)


class TestEnumerateSuccessors:
    def test_dead_state_has_no_successors(self):
        assert enumerate_successors(g([[2]]), 1) == []

    def test_single_block(self):
        succ = enumerate_successors(g([[1]]), 1)
        row_branch = [c for s, c in succ if s == RowShot(1)]
        assert len(row_branch) == 1
        c = row_branch[0]
        assert c.next_grid.cells == ((0,),)
        assert c.next_hand == 1
        assert c.wall_fall == 0

    def test_row_swap_branch(self):
        succ = enumerate_successors(g([[1, 2]]), 1)
        row_branch = [c for s, c in succ if s == RowShot(1)]
        assert len(row_branch) == 1
        c = row_branch[0]
        assert c.next_grid.cells == ((0, 1),)
        assert c.next_hand == 2
        assert c.wall_fall == 0

    def test_capacity_bound(self):
        big = Grid(tuple(tuple(1 for _ in range(9)) for _ in range(9)))
        with pytest.raises(CapacityExceededError):
            enumerate_successors(big, 1)

    def test_exhaustive_agreement_on_2x2(self):
        shots = [RowShot(1), RowShot(2), ColShot(1), ColShot(2)]
        for colours in (1, 2):
            for flat in itertools.product(range(1, colours + 1), repeat=4):
                if len(set(flat)) != colours:
                    continue
                grid = Grid((tuple(flat[:2]), tuple(flat[2:])))
                for hand in range(1, colours + 1):
                    by_shot = {}
                    for shot, cand in enumerate_successors(
                        grid, hand, colour_count=colours
                    ):
                        by_shot.setdefault(shot, []).append(cand)
                    for shot in shots:
                        try:
                            out = apply_shot(grid, hand, shot)
                        except ShotError:
                            out = None
                        cands = by_shot.get(shot, [])
                        if out is None:
                            assert cands == []
                        else:
                            assert len(cands) == 1
                            c = cands[0]
                            assert c.next_grid == out.next_grid
                            assert c.next_hand == out.next_hand
                            assert c.wall_fall == out.wall_fall

    def test_singleton_candidates_match_the_engine_on_reachable_states(self):
        rng = random.Random(11)
        for _ in range(30):
            h, w = rng.choice([(2, 3), (3, 2), (3, 3)])
            colours = rng.randint(1, 3)
            grid = random_full_grid(rng, h, w, colours)
            hand = rng.randint(1, colours)
            for prev, prev_hand, _, _ in random_walk(rng, grid, hand, 4):
                nominal = (
                    (h + w) * (colours + 1) ** (h * w) * colours * (h + 1)
                )
                if nominal > 10_000_000:
                    continue
                per_shot = {}
                for shot, cand in enumerate_successors(
                    prev, prev_hand, colour_count=colours
                ):
                    per_shot.setdefault(shot, []).append(cand)
                for shot, cands in per_shot.items():
                    assert len(cands) == 1
                    out = apply_shot(prev, prev_hand, shot)
                    c = cands[0]
                    assert (c.next_grid, c.next_hand, c.wall_fall) == (
                        out.next_grid,
                        out.next_hand,
                        out.wall_fall,
                    )


class TestBfsOptimal:
    def test_goal_already_satisfied(self):
        best = bfs_optimal(Instance(g([[1, 1], [1, 1]]), 4), 4)
        assert (best.length, best.hand0, best.plan) == (0, 1, ())

    def test_one_shot_goal(self):
        best = bfs_optimal(Instance(g([[1, 1], [1, 1]]), 1), 4)
        assert best.length == 1

    def test_two_shot_clear(self):
        best = bfs_optimal(Instance(g([[1, 1], [1, 1]]), 0), 4)
        assert best.length == 2

    def test_free_initial_hand_enables_plans(self):
        best = bfs_optimal(Instance(g([[2]]), 0), 1)
        assert best is not None
        assert (best.length, best.hand0) == (1, 2)

    def test_negative_max_steps_is_rejected(self):
        # also before the goal-met shortcut: a negative bound is a caller
        # error, not a claim that no plan exists
        for goal in (0, 4):
            with pytest.raises(ValueError, match="below 0"):
                bfs_optimal(Instance(g([[1, 1], [1, 1]]), goal), -3)

    def test_proved_none(self):
        # hand colour is forced to useless values quickly on this grid
        assert bfs_optimal(Instance(g([[1, 2], [2, 1]]), 0), 4) is None

    def test_deterministic(self):
        inst = Instance(g([[1, 2, 1], [2, 1, 2], [1, 2, 1]]), 2)
        a = bfs_optimal(inst, 9)
        b = bfs_optimal(inst, 9)
        assert a == b

    def test_plans_replay(self):
        rng = random.Random(7)
        for _ in range(15):
            grid = random_full_grid(rng, 2, 3, rng.randint(1, 3))
            goal = rng.randint(0, 5)
            inst = Instance(grid, goal)
            best = bfs_optimal(inst, 6 - goal)
            if best is None:
                continue
            cur, hand = grid, best.hand0
            for shot in best.plan:
                out = apply_shot(cur, hand, shot)
                cur, hand = out.next_grid, out.next_hand
            assert sum(1 for row in cur.cells for v in row if v) <= goal

    def test_state_cap_refuses_a_search_past_it(self):
        inst = random_instance(GeneratorSpec(5, 5, 3, seed=1)).with_goal(0)
        with pytest.raises(CapacityExceededError, match="exceeded 1000 states"):
            bfs_optimal(inst, inst.block_total, state_cap=1_000)

    def test_a_search_that_fits_its_cap_returns(self):
        # goal 0 is out of reach, so each search visits every state
        # reachable from its hand, 160 at most; the cap counts states
        grid = g([[1, 2, 1], [2, 1, 2], [1, 2, 1]])
        inst = Instance(grid, 0)
        most = max(_reachable(grid, hand) for hand in (1, 2))
        assert most == 160
        assert bfs_optimal(inst, 9, state_cap=most) is None
        with pytest.raises(CapacityExceededError):
            bfs_optimal(inst, 9, state_cap=most - 1)


class TestBuildOnExpansion:
    """A successor is built only when it is expanded: the layer where the
    plan is found, and a later hand's bound layer, are tested, not built."""

    @staticmethod
    def _count_builds(monkeypatch):
        built = []  # the parent state of every successor built
        build = engine.build

        def counting(cells, hand, shot, stop):
            built.append((cells, hand))
            return build(cells, hand, shot, stop)

        monkeypatch.setattr(engine, "build", counting)
        return built

    def test_the_layer_of_the_plan_is_not_built(self, monkeypatch):
        grid = g([[1] * 4 for _ in range(4)])  # one colour: one search
        depth = _depths(grid, 1)
        built = self._count_builds(monkeypatch)
        best = bfs_optimal(Instance(grid, 0), 16)
        assert best.length == 4
        # layers 1..3 are built from parents in layers 0..2, layer 4 never
        assert max(depth[parent] for parent in built) == best.length - 2

    def test_a_later_hand_bounded_at_one_shot_builds_nothing(self, monkeypatch):
        grid = g([[1, 2], [2, 1]])
        assert _reference_bfs_from(grid, 1, 2, 4)[0] == 2
        built = self._count_builds(monkeypatch)
        builds_before_hand_2 = []
        successors = engine.successors

        def noting(cells, hand):
            if (cells, hand) == (grid.cells, 2):
                builds_before_hand_2.append(len(built))
            return successors(cells, hand)

        monkeypatch.setattr(engine, "successors", noting)
        best = bfs_optimal(Instance(grid, 2), 4)
        assert best == OptimalPlan(2, 1, (RowShot(1), RowShot(2)))
        # hand 2 searches below length 2: it expands its start, builds none
        assert builds_before_hand_2 == [len(built)]
        assert built


def _depths(grid, hand):
    """Breadth-first depth of every (grid, hand) state reachable from this one."""
    depth = {(grid.cells, hand): 0}
    layer = [(grid, hand)]
    d = 0
    while layer:
        d += 1
        next_layer = []
        for grid, hand in layer:
            for shot in legal_shots(grid, hand):
                out = apply_shot(grid, hand, shot)
                state = (out.next_grid.cells, out.next_hand)
                if state not in depth:
                    depth[state] = d
                    next_layer.append((out.next_grid, out.next_hand))
        layer = next_layer
    return depth


def _reachable(grid, hand):
    """Number of (grid, hand) states reachable from this one, itself included."""
    return len(_depths(grid, hand))


def reference_bfs_optimal(instance, max_steps):
    """``bfs_optimal`` as first written, one ``apply_shot`` per shot: the
    reference the search over ``engine.successors`` must agree with. Every
    hand searches up to ``max_steps``, unbounded by earlier hands' plans."""
    if is_goal(instance.grid, instance.goal):
        return OptimalPlan(0, 1, ())
    best = None
    for hand0 in range(1, instance.colour_count + 1):
        found = _reference_bfs_from(instance.grid, hand0, instance.goal, max_steps)
        if found is not None and (best is None or found[0] < best.length):
            best = OptimalPlan(found[0], hand0, found[1])
    return best


def _reference_bfs_from(grid, hand0, goal, max_steps):
    shots = [RowShot(r) for r in range(1, grid.height + 1)]
    shots += [ColShot(c) for c in range(1, grid.width + 1)]
    start = (grid.cells, hand0)
    parents = {start: None}
    frontier = [(start, grid)]
    depth = 0
    while frontier and depth < max_steps:
        depth += 1
        next_frontier = []
        for state, g in frontier:
            hand = state[1]
            for shot in shots:
                try:
                    out = engine.apply_shot(g, hand, shot)
                except engine.ShotError:
                    continue
                nxt = (out.next_grid.cells, out.next_hand)
                if nxt in parents:
                    continue
                parents[nxt] = (state, shot)
                if is_goal(out.next_grid, goal):
                    plan = []
                    cur = nxt
                    while parents[cur] is not None:
                        cur, used = parents[cur]
                        plan.append(used)
                    plan.reverse()
                    return depth, tuple(plan)
                next_frontier.append((nxt, out.next_grid))
        frontier = next_frontier
    return None


class TestBfsAgainstReference:
    def test_small_grids_every_goal(self):
        rng = random.Random(14)
        cases = 0
        while cases < 300:
            h, w = rng.randint(1, 4), rng.randint(1, 4)
            grid = random_full_grid(rng, h, w, rng.randint(1, min(3, h * w)))
            for goal in range(h * w + 1):
                inst = Instance(grid, goal)
                steps = h * w - goal
                assert bfs_optimal(inst, steps) == reference_bfs_optimal(inst, steps)
                cases += 1

    @pytest.mark.parametrize("seed", range(20))
    def test_generator_5x5_at_goal_14(self, seed):
        inst = random_instance(GeneratorSpec(5, 5, 3, seed=seed)).with_goal(14)
        assert bfs_optimal(inst, 11) == reference_bfs_optimal(inst, 11)

    # deeper searches (5 to 7 shots), where later hands often beat or tie
    # hand 1: seeds 0, 5, 7 and 11 go to a later hand, 1, 6 and 9 tie
    @pytest.mark.parametrize("seed", range(12))
    def test_generator_5x5_at_goal_10(self, seed):
        inst = random_instance(GeneratorSpec(5, 5, 3, seed=seed)).with_goal(10)
        assert bfs_optimal(inst, 15) == reference_bfs_optimal(inst, 15)


class TestLaterHandsBound:
    """Hands after the first search only below the best length found."""

    def test_a_strictly_shorter_later_hand_wins(self):
        grid = g([[2, 2], [1, 2]])
        assert _reference_bfs_from(grid, 1, 1, 4)[0] == 3
        assert _reference_bfs_from(grid, 2, 1, 4) == (1, (RowShot(1),))
        assert bfs_optimal(Instance(grid, 1), 4) == OptimalPlan(1, 2, (RowShot(1),))

    def test_a_tying_later_hand_keeps_hand_1_and_its_plan(self):
        grid = g([[1, 2], [2, 1]])
        first = _reference_bfs_from(grid, 1, 2, 4)
        assert first == (2, (RowShot(1), RowShot(2)))
        assert _reference_bfs_from(grid, 2, 2, 4) == (2, (RowShot(2), RowShot(2)))
        assert bfs_optimal(Instance(grid, 2), 4) == OptimalPlan(2, 1, first[1])

    def test_no_later_hand_searches_after_a_one_shot_plan(self, monkeypatch):
        grid = g([[1, 2], [2, 1]])
        assert _reference_bfs_from(grid, 2, 3, 4)[0] == 1
        expanded = []
        successors = engine.successors

        def counting(cells, hand):
            expanded.append((cells, hand))
            return successors(cells, hand)

        monkeypatch.setattr(engine, "successors", counting)
        best = bfs_optimal(Instance(grid, 3), 4)
        assert best == OptimalPlan(1, 1, (RowShot(1),))
        assert expanded == [(grid.cells, 1)]
