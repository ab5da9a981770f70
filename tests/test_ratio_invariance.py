"""Type/cotype ratios are invariant where the mathematics says so.

A ratio does not change when the family is scaled by any c != 0, when one
vector's sign is flipped, or when the vectors are reordered.
``rademacher_ratio`` fixes eps_n = +1, so flipping the last vector's sign
checks that trick directly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banach_gauge import (
    FinVec,
    SpaceOracle,
    VectorFamily,
    cotype_certificate,
    diagonal_sqrt_family,
    gaussian_ratio,
    rademacher_ratio,
)

F = Fraction
KINDS = st.sampled_from(["type", "cotype"])


def _space(tag, dim):
    if tag == "polytope":  # the coordinate functionals plus one mixed one span
        mixed = [F(1), F(-1, 2), F(2), F(1, 3)][:dim]
        return SpaceOracle("polytope", dim, [*np.eye(dim, dtype=int).tolist(), mixed])
    return SpaceOracle(tag, dim)


def _variants(rows, c):
    """The family scaled by c, with its last sign flipped, and reversed."""
    return ([[c * v for v in row] for row in rows],
            rows[:-1] + [[-v for v in rows[-1]]],
            rows[::-1])


@st.composite
def _families(draw, entries):
    dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=n, max_size=n))
    assume(any(any(row) for row in rows))
    return rows


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
scales = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool)


@pytest.mark.parametrize("tag", ["T", "T2", "mod2", "l1", "l2", "linf", "polytope"])
@settings(max_examples=20, deadline=None)
@given(rows=_families(rationals), c=scales, kind=KINDS)
def test_exact_ratio_invariance(tag, rows, c, kind):
    space = _space(tag, len(rows[0]))
    ratio = rademacher_ratio(VectorFamily.make(rows, space), kind).exact
    assert ratio is not None
    for variant in _variants(rows, c):
        assert rademacher_ratio(VectorFamily.make(variant, space), kind).exact == ratio


@settings(max_examples=30, deadline=None)
@given(rows=_families(rationals), c=scales, kind=KINDS)
def test_lp_ratio_invariance(rows, c, kind):
    space = SpaceOracle("lp3", len(rows[0]))
    point = rademacher_ratio(VectorFamily.make(rows, space), kind).point
    for variant in _variants(rows, c):
        got = rademacher_ratio(VectorFamily.make(variant, space), kind).point
        assert got == pytest.approx(point, rel=1e-14, abs=0)


floats = st.floats(min_value=-8, max_value=8, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-3 else v)


@pytest.mark.parametrize("tag", ["T", "T2", "l1", "l2", "linf"])
@settings(max_examples=40, deadline=None)
@given(rows=_families(floats), k=st.integers(-20, 20), kind=KINDS)
def test_mc_ratio_is_bitwise_invariant_under_powers_of_two(tag, rows, k, kind):
    space = SpaceOracle(tag, len(rows[0]))
    base = gaussian_ratio(VectorFamily.make(rows, space), kind, samples=200, seed=3)
    scaled_rows = [[v * 2.0**k for v in row] for row in rows]
    scaled = gaussian_ratio(VectorFamily.make(scaled_rows, space), kind, samples=200, seed=3)
    assert (scaled.point, scaled.ci_low, scaled.ci_high) == (base.point, base.ci_low, base.ci_high)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 6), data=st.data())
def test_diagonal_family_matches_cotype_certificate(N, data):
    squares = data.draw(st.lists(st.fractions(min_value=0, max_value=4, max_denominator=6),
                                 min_size=N, max_size=N))
    x = FinVec(enumerate(squares, start=1))
    assume(any(x[j] for j in range(3, N + 1)))
    family = diagonal_sqrt_family(SpaceOracle("T2", N), x)
    assert cotype_certificate(x, N).ratio == rademacher_ratio(family, "cotype").exact
