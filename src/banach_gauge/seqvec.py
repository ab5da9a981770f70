"""Finitely supported rational sequences.

This is the substrate every norm engine works on: a sparse map from 1-based
indices to nonzero exact rationals.  All arithmetic stays in ``Fraction`` so
norm recursions built from max, sum and halving can be tested with exact
equality instead of tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import DomainError

#: Exact scalar type of the sequence layer.
Rat = Fraction

RatLike = Union[Rat, int, str]


def as_rat(value: RatLike) -> Rat:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class FinVec:
    """Immutable finitely supported sequence with exact rational entries.

    Zero entries are never stored; the zero vector is the empty map.
    Indices are 1-based.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, RatLike] | Iterable[tuple[int, RatLike]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        data: dict[int, Rat] = {}
        for idx, val in items:
            j = int(idx)
            if j < 1:
                raise ValueError(f"index {j} must be >= 1")
            v = as_rat(val)
            if v != 0:
                data[j] = v
        self._entries = dict(sorted(data.items()))

    @classmethod
    def basis(cls, j: int) -> "FinVec":
        """The unit vector e_j."""
        return cls({j: 1})

    def support(self) -> tuple[int, ...]:
        """Strictly increasing indices of the nonzero entries."""
        return tuple(self._entries)

    def items(self) -> Iterator[tuple[int, Rat]]:
        return iter(self._entries.items())

    def to_dict(self) -> dict[int, Rat]:
        return dict(self._entries)

    def __getitem__(self, j: int) -> Rat:
        return self._entries.get(j, Fraction(0))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{j}: {v}" for j, v in self._entries.items())
        return f"FinVec({{{body}}})"

    def __add__(self, other: "FinVec") -> "FinVec":
        if not isinstance(other, FinVec):
            return NotImplemented
        data = dict(self._entries)
        for j, v in other._entries.items():
            data[j] = data.get(j, Fraction(0)) + v
        return FinVec(data)

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self + (-1) * other

    def __neg__(self) -> "FinVec":
        return (-1) * self

    def __rmul__(self, c: RatLike) -> "FinVec":
        cf = as_rat(c)
        return FinVec({j: cf * v for j, v in self._entries.items()})

    __mul__ = __rmul__

    # -- JSON wire format: {"v": {"<index>": "<p>/<q>", ...}} ---------------

    def to_json(self) -> dict:
        return {"v": {str(j): str(v) for j, v in self._entries.items()}}

    @classmethod
    def from_json(cls, obj: Mapping) -> "FinVec":
        if not isinstance(obj, Mapping) or not isinstance(obj.get("v"), Mapping):
            raise ValueError('vector JSON must look like {"v": {"3": "1/2", ...}}')
        return cls({int(j): Fraction(str(v)) for j, v in obj["v"].items()})


def restrict(x: FinVec, indices: Iterable[int]) -> FinVec:
    """Keep only the entries whose index lies in ``indices``."""
    keep = set(int(i) for i in indices)
    return FinVec({j: v for j, v in x.items() if j in keep})


def sup_norm(x: FinVec) -> Rat:
    """max_j |x_j|; 0 for the zero vector."""
    return max((abs(v) for _, v in x.items()), default=Fraction(0))


def l1_norm(x: FinVec) -> Rat:
    return sum((abs(v) for _, v in x.items()), Fraction(0))


def l2_norm_sq(x: FinVec) -> Rat:
    return sum((v * v for _, v in x.items()), Fraction(0))


def float_sqrt(q: Rat) -> float:
    """sqrt(q) as a float, within 1 ulp: float(Fraction) and math.sqrt both
    round correctly.  A q beyond the float range raises DomainError."""
    try:
        return math.sqrt(float(q))
    except OverflowError as exc:
        raise DomainError(f"a squared norm is out of the float range: {exc}") from exc


def abs_square(x: FinVec) -> FinVec:
    """Entrywise square; support is preserved."""
    return FinVec({j: v * v for j, v in x.items()})


def flip_signs(x: FinVec, signs: Mapping[int, int]) -> FinVec:
    """Flip the sign of entry j wherever signs[j] == -1 (default +1)."""
    return FinVec({j: v * signs.get(j, 1) for j, v in x.items()})
