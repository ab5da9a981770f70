import random
from fractions import Fraction
from typing import Iterable, Mapping

import pytest

from banach_gauge import FinVec

ENTRY_POOL = [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
]


def random_finvec(rng: random.Random, max_index: int = 9, allow_empty: bool = False) -> FinVec:
    """Random vector with support inside [1, max_index] and entries from the
    small exact pool (plus zeros)."""
    entries = {}
    for j in range(1, max_index + 1):
        v = rng.choice(ENTRY_POOL + [Fraction(0)])
        if v:
            entries[j] = v
    if not entries and not allow_empty:
        entries[rng.randint(1, max_index)] = rng.choice(ENTRY_POOL)
    return FinVec(entries)


def restrict(x: FinVec, indices: Iterable[int]) -> FinVec:
    """Keep only the entries whose index lies in ``indices``."""
    keep = set(int(i) for i in indices)
    return FinVec({j: v for j, v in x.items() if j in keep})


def l2_norm_sq(x: FinVec) -> Fraction:
    return sum((v * v for _, v in x.items()), Fraction(0))


def flip_signs(x: FinVec, signs: Mapping[int, int]) -> FinVec:
    """Flip the sign of entry j wherever signs[j] == -1 (default +1)."""
    return FinVec({j: v * signs.get(j, 1) for j, v in x.items()})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
