import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotting_solver.engine import (
    ColShot,
    Grid,
    Instance,
    NullMoveError,
    OutOfRangeError,
    RowShot,
    apply_shot,
    block_count,
    colour_sum,
    is_goal,
    legal_shots,
    shot_axes,
    wall_fall,
)

from conftest import is_top_empty, random_full_grid, random_walk


def g(rows):
    return Grid.from_rows(rows)


class TestApplyShot:
    def test_full_row_shot_drops_down_last_column(self):
        out = apply_shot(g([[1, 1], [1, 1]]), 1, RowShot(1))
        assert out.next_grid.cells == ((0, 0), (1, 0))
        assert out.next_hand == 1
        assert out.wall_fall == 0
        assert out.consumed == 3
        assert not out.hand_swapped

    def test_first_block_of_other_colour_is_null_move(self):
        with pytest.raises(NullMoveError):
            apply_shot(g([[2]]), 1, RowShot(1))

    def test_wall_fall_two_cells(self):
        out = apply_shot(g([[2, 2, 2], [1, 1, 1], [2, 3, 1]]), 1, RowShot(2))
        assert out.next_grid.cells == ((0, 0, 0), (2, 2, 0), (2, 3, 2))
        assert out.next_hand == 1
        assert out.wall_fall == 2
        assert out.consumed == 4

    def test_matching_column_rebounds_off_floor(self):
        out = apply_shot(g([[1], [1]]), 1, ColShot(1))
        assert out.next_grid.cells == ((0,), (0,))
        assert out.next_hand == 1
        assert out.wall_fall == 0
        assert out.consumed == 2

    def test_row_swap_returns_blocker_to_hand(self):
        out = apply_shot(g([[1, 2], [1, 1]]), 1, RowShot(1))
        assert out.next_grid.cells == ((0, 1), (1, 1))
        assert out.next_hand == 2
        assert out.hand_swapped

    def test_column_swap(self):
        out = apply_shot(g([[1], [1], [2]]), 1, ColShot(1))
        assert out.next_grid.cells == ((0,), (0,), (1,))
        assert out.next_hand == 2

    def test_drop_swap_after_wall(self):
        # clears row 2, drops down the last column and swaps at the bottom
        out = apply_shot(g([[0, 2], [0, 1], [0, 1], [0, 3]]), 1, RowShot(2))
        assert out.next_grid.cells == ((0, 0), (0, 0), (0, 2), (0, 1))
        assert out.next_hand == 3
        assert out.wall_fall == 2
        assert out.consumed == 2

    def test_empty_row_shot_can_consume_in_drop(self):
        out = apply_shot(g([[0, 0], [0, 1]]), 1, RowShot(1))
        assert out.next_grid.cells == ((0, 0), (0, 0))
        assert out.next_hand == 1
        assert out.consumed == 1

    def test_null_when_nothing_consumed_anywhere(self):
        with pytest.raises(NullMoveError):
            apply_shot(g([[0, 0], [0, 2]]), 1, RowShot(1))
        with pytest.raises(NullMoveError):
            apply_shot(g([[0, 2], [0, 2]]), 1, ColShot(1))

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            apply_shot(g([[1]]), 1, RowShot(2))
        with pytest.raises(OutOfRangeError):
            apply_shot(g([[1]]), 1, ColShot(0))

    def test_determinism(self):
        grid = g([[2, 1, 2], [1, 1, 1], [2, 3, 1]])
        a = apply_shot(grid, 1, RowShot(2))
        b = apply_shot(grid, 1, RowShot(2))
        assert a == b


class TestLegalShots:
    def test_only_null_moves(self):
        assert legal_shots(g([[2]]), 1) == []

    def test_single_matching_block(self):
        assert legal_shots(g([[1]]), 1) == [RowShot(1), ColShot(1)]

    def test_no_cell_matches_hand(self):
        assert legal_shots(g([[1, 1], [1, 1]]), 2) == []

    def test_order_rows_then_columns(self):
        shots = legal_shots(g([[1, 1], [1, 1]]), 1)
        assert shots == [RowShot(1), RowShot(2), ColShot(1), ColShot(2)]


class TestCounting:
    def test_block_count(self):
        assert block_count(g([[0, 0], [0, 0]])) == 0
        assert block_count(g([[1, 2], [3, 1]])) == 4
        assert block_count(g([[0, 1], [0, 2]])) == 2

    def test_colour_sum(self):
        assert colour_sum(g([[0]])) == 0
        assert colour_sum(g([[1, 2], [3, 1]])) == 7
        assert colour_sum(g([[2, 2, 2], [1, 1, 1], [2, 3, 1]])) == 15

    def test_is_goal(self):
        assert is_goal(g([[0, 1], [0, 0]]), 1)
        assert not is_goal(g([[1, 1], [1, 1]]), 3)
        assert is_goal(g([[0, 0], [0, 0]]), 0)


def _wall_fall_conditions(grid, hand, row, i):
    """Direct statement of the wall-fall conjunction for distance i."""
    H, W = grid.height, grid.width
    if not 2 <= row <= H:
        return False
    if not all(v in (0, hand) for v in grid.cells[row - 1]):
        return False
    if grid.cells[row - 2][W - 1] == 0:
        return False
    for rr in range(row, row + i):
        if rr > H or grid.cells[rr - 1][W - 1] != hand:
            return False
    return row + i > H or grid.cells[row + i - 1][W - 1] != hand


class TestWallFall:
    def test_unique_distance_by_scanning(self):
        grid = g([[2, 2, 2], [1, 1, 1], [2, 3, 1]])
        holds = [i for i in range(1, 4) if _wall_fall_conditions(grid, 1, 2, i)]
        assert holds == [2]
        assert wall_fall(grid, 1, 2) == 2

    def test_top_row_never_falls(self):
        assert wall_fall(g([[1, 1], [2, 2]]), 1, 1) == 0
        assert wall_fall(g([[1, 1], [1, 1]]), 1, 1) == 0

    def test_a_row_outside_the_grid_is_refused(self):
        # as apply_shot refuses a row shot there
        grid = g([[2, 2], [1, 1], [1, 2]])
        for row in (-1, 0, 4):
            with pytest.raises(OutOfRangeError):
                wall_fall(grid, 1, row)
            with pytest.raises(OutOfRangeError):
                apply_shot(grid, 1, RowShot(row))

    def test_agrees_with_scanning_on_random_grids(self):
        rng = random.Random(4)
        for _ in range(300):
            h, w = rng.randint(1, 4), rng.randint(1, 4)
            grid = random_full_grid(rng, h, w, rng.randint(1, min(3, h * w)))
            hand = rng.randint(1, 3)
            for row in range(1, h + 1):
                holds = [
                    i
                    for i in range(1, h + 1)
                    if _wall_fall_conditions(grid, hand, row, i)
                ]
                expect = holds[0] if holds else 0
                assert len(holds) <= 1
                assert wall_fall(grid, hand, row) == expect


@st.composite
def walk_cases(draw):
    height = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    colours = draw(st.integers(1, min(4, height * width)))
    seed = draw(st.integers(0, 2**32 - 1))
    return height, width, colours, seed


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_invariants_along_random_walks(case):
    height, width, colours, seed = case
    rng = random.Random(seed)
    grid = random_full_grid(rng, height, width, colours)
    hand = rng.randint(1, colours)
    for prev, prev_hand, shot, out in random_walk(rng, grid, hand, steps=12):
        fired_row, fired_col = shot_axes(shot)
        assert (fired_row > 0) != (fired_col > 0)
        # progress equivalences
        assert out.consumed >= 1
        assert colour_sum(out.next_grid) < colour_sum(prev)
        assert block_count(out.next_grid) == block_count(prev) - out.consumed
        emptied = [
            (r, c)
            for r in range(height)
            for c in range(width)
            if prev.cells[r][c] != 0 and out.next_grid.cells[r][c] == 0
        ]
        assert emptied
        # top-empty preservation
        assert is_top_empty(prev)
        assert is_top_empty(out.next_grid)
        # hand conservation
        if out.hand_swapped:
            assert out.next_hand != prev_hand
        else:
            assert out.next_hand == prev_hand
        # wall-fall consistency
        if fired_row:
            assert out.wall_fall == wall_fall(prev, prev_hand, fired_row)
        else:
            assert out.wall_fall == 0


def test_consumption_swaps_and_legality_along_random_walks():
    rng = random.Random(14)
    moves = 0
    for _ in range(150):
        height, width = rng.randint(2, 5), rng.randint(2, 5)
        colours = rng.randint(1, 4)
        grid = random_full_grid(rng, height, width, colours)
        hand = rng.randint(1, colours)
        shots = [RowShot(r) for r in range(1, height + 1)]
        shots += [ColShot(c) for c in range(1, width + 1)]
        for prev, prev_hand, _, out in random_walk(rng, grid, hand, steps=25):
            moves += 1
            # the breadth-first search counts blocks by consumption
            assert block_count(prev) - block_count(out.next_grid) == out.consumed
            assert out.hand_swapped == (out.next_hand != prev_hand)
            applied = []
            for shot in shots:
                try:
                    apply_shot(prev, prev_hand, shot)
                except NullMoveError:
                    continue
                applied.append(shot)
            assert legal_shots(prev, prev_hand) == applied
    assert moves > 500


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(g([[1, 0], [1, 1]]))
    with pytest.raises(ValueError):
        Instance(g([[1]]), goal=2)
    inst = Instance(g([[2]]))
    assert inst.colour_count == 2
    assert inst.with_goal(1).goal == 1
