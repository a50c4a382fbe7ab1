import itertools

import pytest

from plotting_solver.generator import (
    GeneratorSpec,
    InfeasibleSpecError,
    enumerate_instances,
    random_instance,
)


class TestRandomInstance:
    def test_single_cell_single_colour(self):
        for seed in (0, 7, 12345, 2**63):
            inst = random_instance(GeneratorSpec(1, 1, 1, seed=seed))
            assert inst.grid.cells == ((1,),)

    def test_same_seed_same_instance(self):
        a = random_instance(GeneratorSpec(2, 2, 2, seed=99))
        b = random_instance(GeneratorSpec(2, 2, 2, seed=99))
        assert a == b

    def test_all_colours_present(self):
        for seed in range(25):
            inst = random_instance(GeneratorSpec(2, 2, 2, seed=seed))
            flat = {v for row in inst.grid.cells for v in row}
            assert flat == {1, 2}
            assert inst.colour_count == 2

    def test_infeasible_spec(self):
        with pytest.raises(InfeasibleSpecError):
            GeneratorSpec(1, 1, 2, seed=7)

    def test_spec_too_rare_to_resample_is_refused(self):
        # one draw in 5.7e9 holds all 25 colours: about ten hours of draws
        with pytest.raises(InfeasibleSpecError, match="1,000,000"):
            GeneratorSpec(5, 5, 25, seed=1)
        GeneratorSpec(5, 5, 25, seed=1, require_all_colours=False)
        GeneratorSpec(5, 5, 25, mode="canonical")

    def test_rare_but_admitted_spec_still_generates(self):
        # one draw in 8.8e5 holds all 16 colours: a few seconds of draws
        inst = random_instance(GeneratorSpec(4, 4, 16, seed=1))
        assert {v for row in inst.grid.cells for v in row} == set(range(1, 17))

    def test_missing_colours_knob(self):
        spec = GeneratorSpec(1, 1, 2, seed=7, require_all_colours=False)
        inst = random_instance(spec)
        assert inst.grid.cells in (((1,),), ((2,),))


class TestEnumerate:
    def test_counts_2x2_two_colours(self):
        all_specs = GeneratorSpec(2, 2, 2, mode="all")
        assert sum(1 for _ in enumerate_instances(all_specs)) == 14
        canon = GeneratorSpec(2, 2, 2, mode="canonical")
        assert sum(1 for _ in enumerate_instances(canon)) == 7

    def test_1x2_single_colour(self):
        insts = list(enumerate_instances(GeneratorSpec(1, 2, 1, mode="all")))
        assert [i.grid.cells for i in insts] == [((1, 1),)]

    def test_lexicographic_row_major_order(self):
        insts = list(enumerate_instances(GeneratorSpec(1, 3, 2, mode="all")))
        flats = [tuple(v for row in i.grid.cells for v in row) for i in insts]
        assert flats == sorted(flats)

    def test_canonical_expands_to_all_under_renaming(self):
        def relabel(cells, perm):
            return tuple(tuple(perm[v - 1] for v in row) for row in cells)

        all_set = {
            i.grid.cells
            for i in enumerate_instances(GeneratorSpec(2, 2, 2, mode="all"))
        }
        expanded = set()
        for inst in enumerate_instances(GeneratorSpec(2, 2, 2, mode="canonical")):
            for perm in itertools.permutations((1, 2)):
                expanded.add(relabel(inst.grid.cells, perm))
        assert expanded == all_set

    def test_every_instance_well_formed(self):
        for inst in enumerate_instances(GeneratorSpec(2, 3, 3, mode="all")):
            flat = [v for row in inst.grid.cells for v in row]
            assert set(flat) == {1, 2, 3}
            assert inst.colour_count == 3

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            random_instance(GeneratorSpec(2, 2, 2, mode="all"))
        with pytest.raises(ValueError):
            list(enumerate_instances(GeneratorSpec(2, 2, 2, mode="random")))
