"""The benchmark's workloads: seeded problem lists and their reference answers.

A problem is one (instance, goal) answered by one call of the workload's
entry point. Each workload turns its seed into an ordered list of problems
with ``generator`` (bfs-5x5 puts one fixed pool in a seeded order); a run
solves a prefix of that list in order until its time is up. For the SAT
workloads, set-up also computes each problem's reference answer with
``oracle.bfs_optimal``: the minimal plan length, or ``None`` when no plan
exists within the planner's horizon bound. The bfs-5x5 references were
computed once with ``planner.solve`` and are read from ``expected/``, so
neither entry point is checked against itself.

Why each workload exists, and which layer it loads, is written down in
``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable, Optional

from plotting_solver import oracle
from plotting_solver.engine import Instance
from plotting_solver.generator import (
    GeneratorSpec,
    random_instance,
)

EXPECTED = Path(__file__).resolve().parent / "expected" / "bfs-5x5-pool.json"

# sat-5x5 keeps only goal-15 instances whose optimal plan has 4 shots, so
# every problem proves horizons 1..3 unsatisfiable and then solves horizon
# 4. Over generator seeds 200..299, 45% of instances had length 4. Mixed
# lengths 3..6 cost from 0.1 s to 2 s, and length 5 alone varied from
# 0.25 s to 1.8 s, so a run's figures followed the seed; length 4 problems
# are cheaper and a run holds about 100 of them.
SAT5_GOAL = 15
SAT5_LENGTH = 4
SAT5_PROBLEMS = 150

SHAPES_SIDES = range(3, 8)
SHAPES_COLOURS = range(2, 5)
SHAPES_SLACKS = (1, 2, 3, 4, 5)
SHAPES_CLASSES = 4
SHAPES_DRAWS = 5

# At goal 14, 58% of instances need 5 shots and the median problem falls
# inside that group, not on the step between two plan lengths, where
# solve_p50_s would jump with the seed.
BFS_GOAL = 14
# bfs-5x5 draws from one fixed pool of generator instances whose plan
# lengths ``planner.solve`` computed once (EXPECTED); the seed orders the
# pool. A run at the commit that added the benchmark reaches about 1400.
BFS_POOL = 3200


def _rng(workload: str, seed: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _random(rng: random.Random, height: int, width: int, colours: int) -> Instance:
    spec = GeneratorSpec(height, width, colours, seed=rng.getrandbits(32))
    return random_instance(spec)


def reference(instance: Instance) -> Optional[int]:
    """Minimal plan length within the planner's bound, or None."""
    found = oracle.bfs_optimal(instance, instance.block_total - instance.goal)
    return None if found is None else found.length


def _sat_5x5(seed: int) -> list[tuple[Instance, Optional[int]]]:
    rng = _rng("sat-5x5", seed)
    problems = []
    while len(problems) < SAT5_PROBLEMS:
        instance = _random(rng, 5, 5, 3).with_goal(SAT5_GOAL)
        # A search bounded at SAT5_LENGTH shots finds a plan of exactly that
        # length only when it is the optimum; it skips deeper candidates
        # cheaply.
        found = oracle.bfs_optimal(instance, SAT5_LENGTH)
        if found is not None and found.length == SAT5_LENGTH:
            problems.append((instance, SAT5_LENGTH))
    return problems


def _sat_shapes(seed: int) -> list[tuple[Instance, Optional[int]]]:
    rng = _rng("sat-shapes", seed)
    # Every (shape, slack) pair is used once, so no two problems share a
    # template-cache key. The pairs are split into size classes by cells
    # times values per cell, and each run of SHAPES_CLASSES problems takes
    # one pair from every class: the seed changes the grids and the order,
    # not the mix of formula sizes, whatever prefix a run reaches. Each
    # pair's grid is the one of SHAPES_DRAWS seeded draws whose plan length
    # is the median, so the seed moves the mix of plan lengths, which sets
    # how many horizons, and templates, a run builds, less.
    pairs = sorted(
        (h * w * (c + 1), h, w, c, slack)
        for h in SHAPES_SIDES
        for w in SHAPES_SIDES
        for c in SHAPES_COLOURS
        for slack in SHAPES_SLACKS
    )
    size = len(pairs) // SHAPES_CLASSES
    classes = [pairs[k * size : (k + 1) * size] for k in range(SHAPES_CLASSES)]
    for members in classes:
        rng.shuffle(members)
    problems = []
    for block in zip(*classes):
        for _, h, w, c, slack in rng.sample(block, len(block)):
            draws = []
            for _ in range(SHAPES_DRAWS):
                instance = _random(rng, h, w, c).with_goal(h * w - slack)
                ref = reference(instance)
                draws.append((h * w if ref is None else ref, len(draws), instance, ref))
            _, _, instance, ref = sorted(draws)[len(draws) // 2]
            problems.append((instance, ref))
    return problems


def bfs_pool() -> list[Instance]:
    """bfs-5x5's instances, in the order of the expected-answers file."""
    rng = _rng("bfs-5x5", "pool")
    return [_random(rng, 5, 5, 3).with_goal(BFS_GOAL) for _ in range(BFS_POOL)]


def pool_digest(instances: list[Instance]) -> str:
    """Hash of the grids and goals, tying the expected answers to them."""
    h = hashlib.sha256()
    for instance in instances:
        h.update(repr((instance.grid.cells, instance.goal)).encode())
    return h.hexdigest()[:16]


def _bfs_5x5(seed: int) -> list[tuple[Instance, Optional[int]]]:
    pool = bfs_pool()
    expected = json.loads(EXPECTED.read_text())
    if expected["digest"] != pool_digest(pool) or len(expected["lengths"]) != len(pool):
        raise SystemExit(
            f"perfbench: {EXPECTED.name} does not match the generator's pool;"
            " rewrite it with: python3 perfbench/child.py expected"
        )
    order = list(range(len(pool)))
    _rng("bfs-5x5", seed).shuffle(order)
    return [(pool[i], expected["lengths"][i]) for i in order]


# Entry point each workload times: "solve" is planner.solve with the
# internal backend, "bfs" is oracle.bfs_optimal.
WORKLOADS: dict[str, tuple[str, Callable[[int], list]]] = {
    "sat-5x5": ("solve", _sat_5x5),
    "sat-shapes": ("solve", _sat_shapes),
    "bfs-5x5": ("bfs", _bfs_5x5),
}


def build(workload: str, seed: int) -> dict:
    """The workload's problem list for ``seed``, as JSON-ready data."""
    entry, make = WORKLOADS[workload]
    problems = [
        {"rows": instance.grid.to_lists(), "goal": instance.goal, "ref": ref}
        for instance, ref in make(seed)
    ]
    return {"workload": workload, "seed": seed, "entry": entry, "problems": problems}
