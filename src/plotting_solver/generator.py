"""Instance generation: seeded random grids and exhaustive enumeration.

Random grids use the standard library Mersenne Twister (``random.Random``)
seeded with the given 64-bit value, so a seed reproduces the same instance
for a given build of this package; bit-compatibility across languages is not
promised. By default every declared colour must actually occur, so the
declared colour count equals the grid's maximum value; random generation
resamples until that holds, and enumeration filters for it. A random spec
whose draws hold every colour less than once in ``MAX_DRAWS`` is refused
before any draw, since its resampling would run for hours.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .engine import Grid, Instance


# 4x4 with 16 colours keeps one draw in 8.8e5 (a few seconds); 5x5 with 25
# keeps one in 5.7e9 (about ten hours).
MAX_DRAWS = 10**6


class InfeasibleSpecError(ValueError):
    """More colours requested than grid cells can carry, or than random
    draws hold often enough to resample for."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one family of instances.

    mode: "random" (uses ``seed``), "all" (every full grid using all
    colours, row-major lexicographic), or "canonical" ("all" restricted to
    grids whose colours first appear in the order 1, 2, 3, ...).
    """

    height: int
    width: int
    colours: int
    mode: str = "random"
    seed: int = 0
    require_all_colours: bool = True

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValueError("grid dimensions must be at least 1x1")
        if self.colours < 1:
            raise ValueError("at least one colour is required")
        if self.mode not in ("random", "all", "canonical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.require_all_colours and self.colours > self.height * self.width:
            raise InfeasibleSpecError(
                f"{self.colours} colours cannot all occur in "
                f"{self.height}x{self.width} cells"
            )
        if self.mode == "random" and self.require_all_colours:
            k, cells = self.colours, self.height * self.width
            # draws that hold every colour, by inclusion-exclusion over the
            # colours a draw leaves out
            hits = sum(
                (-1) ** j * comb(k, j) * (k - j) ** cells for j in range(k + 1)
            )
            if k**cells > MAX_DRAWS * hits:
                raise InfeasibleSpecError(
                    f"fewer than one random {self.height}x{self.width} grid "
                    f"in {MAX_DRAWS:,} holds all {k} colours"
                )


def random_instance(spec: GeneratorSpec) -> Instance:
    """One uniformly random full grid; same seed, same instance."""
    if spec.mode != "random":
        raise ValueError("random_instance needs mode='random'")
    rng = random.Random(spec.seed)
    cells = spec.height * spec.width
    while True:
        flat = [rng.randint(1, spec.colours) for _ in range(cells)]
        if not spec.require_all_colours or len(set(flat)) == spec.colours:
            break
    rows = tuple(
        tuple(flat[r * spec.width : (r + 1) * spec.width])
        for r in range(spec.height)
    )
    return Instance(Grid(rows))


def _is_canonical(flat: tuple[int, ...]) -> bool:
    seen_max = 0
    for v in flat:
        if v > seen_max + 1:
            return False
        if v == seen_max + 1:
            seen_max = v
    return True


def enumerate_instances(spec: GeneratorSpec) -> Iterator[Instance]:
    """All full grids for the given parameters, row-major lexicographic.

    Mode "canonical" keeps one representative per colour-renaming class:
    the grid whose colours first appear in increasing order.
    """
    if spec.mode not in ("all", "canonical"):
        raise ValueError("enumerate_instances needs mode 'all' or 'canonical'")
    cells = spec.height * spec.width
    for flat in itertools.product(range(1, spec.colours + 1), repeat=cells):
        if spec.require_all_colours and len(set(flat)) != spec.colours:
            continue
        if spec.mode == "canonical" and not _is_canonical(flat):
            continue
        rows = tuple(
            tuple(flat[r * spec.width : (r + 1) * spec.width])
            for r in range(spec.height)
        )
        yield Instance(Grid(rows))
