import random
import sys
from fractions import Fraction

import pytest

from banach_gauge import (
    FinVec,
    abs_square,
    l1_norm,
    sup_norm,
)

from conftest import flip_signs, l2_norm_sq, random_finvec, restrict


class IndexSet(tuple):
    """Strictly increasing tuple of positive indices; may be empty."""

    def __new__(cls, indices=()):
        items = sorted({int(i) for i in indices})
        if items and items[0] < 1:
            raise ValueError("indices must be >= 1")
        return super().__new__(cls, items)


def test_restrict_examples():
    assert restrict(FinVec({1: 1, 2: 1}), {2}) == FinVec({2: 1})
    assert restrict(FinVec({3: Fraction(1, 2)}), ()) == FinVec()
    assert restrict(FinVec({1: 1, 4: -2, 7: 3}), {4, 7, 9}) == FinVec({4: -2, 7: 3})


def test_norm_examples():
    x = FinVec({3: 1, 4: 1})
    assert (sup_norm(x), l1_norm(x), l2_norm_sq(x)) == (1, 2, 2)
    z = FinVec()
    assert (sup_norm(z), l1_norm(z), l2_norm_sq(z)) == (0, 0, 0)
    y = FinVec({1: Fraction(-3, 2), 5: 1})
    assert (sup_norm(y), l1_norm(y), l2_norm_sq(y)) == (
        Fraction(3, 2),
        Fraction(5, 2),
        Fraction(13, 4),
    )


def test_abs_square_examples():
    assert abs_square(FinVec({3: 1, 4: -1})) == FinVec({3: 1, 4: 1})
    assert abs_square(FinVec()) == FinVec()
    assert abs_square(FinVec({2: Fraction(1, 2)})) == FinVec({2: Fraction(1, 4)})


def test_zero_entries_dropped_and_indices_validated():
    assert FinVec({1: 0, 2: 1}).support() == (2,)
    with pytest.raises(ValueError):
        FinVec({0: 1})
    with pytest.raises(ValueError):
        FinVec({-3: 1})


def test_support_sorted_and_getitem_defaults():
    x = FinVec({9: 1, 2: -1, 5: Fraction(1, 3)})
    assert x.support() == (2, 5, 9)
    assert x[4] == 0
    assert x[9] == 1


def test_sup_le_l1_with_equality_iff_singleton(rng):
    for _ in range(200):
        x = random_finvec(rng, allow_empty=True)
        assert sup_norm(x) <= l1_norm(x)
        assert (sup_norm(x) == l1_norm(x)) == (len(x) <= 1)


def test_restrict_idempotent_and_monotone(rng):
    for _ in range(100):
        x = random_finvec(rng)
        A = IndexSet(rng.sample(range(1, 12), rng.randint(0, 6)))
        r = restrict(x, A)
        assert restrict(r, A) == r
        assert set(r.support()) <= set(A)


def test_abs_square_sign_invariant(rng):
    for _ in range(100):
        x = random_finvec(rng)
        signs = {j: rng.choice([-1, 1]) for j in x.support()}
        assert abs_square(x) == abs_square(flip_signs(x, signs))


def test_vector_arithmetic():
    x = FinVec({1: 1, 3: -2})
    y = FinVec({3: 2, 4: 1})
    assert x + y == FinVec({1: 1, 4: 1})
    assert x - x == FinVec()
    assert Fraction(1, 2) * x == FinVec({1: Fraction(1, 2), 3: -1})
    assert -x == FinVec({1: -1, 3: 2})


def test_json_round_trip():
    x = FinVec({3: Fraction(-2, 3), 10: 1})
    obj = x.to_json()
    assert obj == {"v": {"3": "-2/3", "10": "1"}}
    assert FinVec.from_json(obj) == x
    with pytest.raises(ValueError):
        FinVec.from_json({"w": {}})


def test_json_exponent_bounded_by_the_int_digit_limit():
    # an exponent up to the limit is read as Fraction reads it; past it the
    # entry is refused before a number of that many digits is built
    limit = sys.get_int_max_str_digits()
    for text in ("1.5e-3", " 2E+2 ", "-3e0", f"1e{limit}", f"1e-{limit}"):
        assert FinVec.from_json({"v": {"3": text}})[3] == Fraction(text)
    for text in (f"1e{limit + 1}", f"-2.5E-{limit + 1}", "1e10000000"):
        with pytest.raises(ValueError, match="digit limit"):
            FinVec.from_json({"v": {"3": text}})


def test_index_set_validates():
    assert IndexSet([3, 1, 2, 2]) == (1, 2, 3)
    assert IndexSet() == ()
    with pytest.raises(ValueError):
        IndexSet([0, 1])


def test_immutability_of_views():
    x = FinVec({1: 1})
    d = x.to_dict()
    d[2] = Fraction(5)
    assert x == FinVec({1: 1})


def test_hash_and_eq():
    assert hash(FinVec({1: 1, 2: 2})) == hash(FinVec({2: 2, 1: 1}))
    assert FinVec({1: 1}) != FinVec({1: 2})
