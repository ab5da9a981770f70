import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banach_gauge import (
    DegenerateInput,
    FinVec,
    InvalidBound,
    SpaceOracle,
    SqrtRat,
    TooManyVectors,
    VectorFamily,
    ZeroFamily,
    c2_lower_from_witness,
    caratheodory_reduce,
    diagonal_sqrt_family,
    flm_reduce,
    gaussian_ratio,
    kwapien_upper,
    rademacher_ratio,
)

F = Fraction


def _basis_family(space, k):
    vecs = []
    for i in range(k):
        row = [F(0)] * space.dim
        row[i] = F(1)
        vecs.append(row)
    return VectorFamily.make(vecs, space)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def test_oracle_tags_and_checks():
    for tag, dim in [("l1", 3), ("l2", 4), ("linf", 2), ("lp3", 3), ("T", 4), ("T2", 4)]:
        oracle = SpaceOracle.from_tag(tag, dim)
        assert oracle.spot_check(seed=7)


def test_polytope_oracle_is_linf_like():
    # functionals +-e_i* give the sup norm
    oracle = SpaceOracle.polytope(2, [[1, 0], [0, 1]])
    assert oracle.norm_sq([F(3), F(-4)]) == 16
    assert oracle.spot_check(seed=3)


def test_t2_span_oracle_exact():
    oracle = SpaceOracle.t2_span(4)
    assert oracle.norm_sq([F(0), F(0), F(1), F(1)]) == 1
    assert oracle.norm([0.0, 0.0, 1.0, 1.0]) == 1.0


def test_sqrt_rat_arithmetic():
    r = SqrtRat.of(F(1, 2))
    assert r.square() == F(1, 2)
    assert float(r) == pytest.approx(math.sqrt(0.5))
    assert (-r).square() == F(1, 2)
    assert (r + (-r)) == 0
    two = r + r
    assert isinstance(two, SqrtRat) and two.square() == 2
    assert r + F(0) is r
    mixed = r + SqrtRat.of(F(1, 3))
    assert isinstance(mixed, float)


# --------------------------------------------------------------------------
# Rademacher (exact) ratios
# --------------------------------------------------------------------------

def test_l1_type_ratio_exactly_two():
    est = rademacher_ratio(_basis_family(SpaceOracle.lp(2, 1.0), 2), "type")
    assert est.exact == 2
    assert est.mode == "rademacher-exact"
    assert est.ci_low == est.ci_high == est.point == 2.0


def test_hilbert_orthonormal_ratios_are_one():
    fam = _basis_family(SpaceOracle.euclidean(4), 4)
    assert rademacher_ratio(fam, "type").exact == 1
    assert rademacher_ratio(fam, "cotype").exact == 1


def test_t2_span_cotype_ratio_two():
    space = SpaceOracle.t2_span(4)
    fam = VectorFamily.make(
        [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]], space
    )
    est = rademacher_ratio(fam, "cotype")
    assert est.exact == 2


def test_diagonal_sqrt_family_keeps_exactness():
    # squared weights 1/2, 1/2 at indices 3, 4: the ratio must match the
    # flat-witness pipeline value 2 exactly even though sqrt(1/2) is irrational
    space = SpaceOracle.t2_span(4)
    fam = diagonal_sqrt_family(space, FinVec({3: F(1, 2), 4: F(1, 2)}))
    est = rademacher_ratio(fam, "cotype")
    assert est.exact == 2


def test_rademacher_invariances():
    space = SpaceOracle.lp(3, 1.0)
    vecs = [[F(1), F(0), F(2)], [F(0), F(-1), F(1)], [F(1), F(1), F(0)]]
    base = rademacher_ratio(VectorFamily.make(vecs, space), "type").exact
    perm = rademacher_ratio(VectorFamily.make(vecs[::-1], space), "type").exact
    flip = rademacher_ratio(
        VectorFamily.make([[-v for v in vecs[1]]] + [vecs[0], vecs[2]], space), "type"
    ).exact
    assert base == perm == flip


def test_rademacher_caps_and_errors():
    space = SpaceOracle.euclidean(2)
    big = VectorFamily.make([[F(1), F(0)]] * 21, space)
    with pytest.raises(TooManyVectors):
        rademacher_ratio(big, "type")
    zero = VectorFamily.make([[F(0), F(0)]], space)
    with pytest.raises(ZeroFamily):
        rademacher_ratio(zero, "type")
    with pytest.raises(ZeroFamily):
        rademacher_ratio(zero, "cotype")


def _reference_ratio(family, kind):
    """All 2^n sign patterns, each sign sum rebuilt from scratch.

    A coordinate with one nonzero entry takes that entry signed (a SqrtRat
    stays a SqrtRat); other coordinates are summed as exact Fractions.
    Returns (ratio, exact), exact None when a squared norm was a float.
    """
    space, n = family.space, len(family)
    total = Fraction(0)
    for mask in range(1 << n):
        acc = []
        for k in range(space.dim):
            terms = [-v[k] if mask >> i & 1 else v[k]
                     for i, v in enumerate(family.vectors) if v[k] != 0]
            acc.append(terms[0] if len(terms) == 1 else sum(map(Fraction, terms), Fraction(0)))
        total += space.norm_sq(acc)
    S = sum((space.norm_sq(list(v)) for v in family.vectors), Fraction(0))
    mean = total / (1 << n)
    if (S if kind == "type" else mean) == 0:
        return None, None
    ratio = mean / S if kind == "type" else S / mean
    return ratio, ratio if isinstance(ratio, Fraction) else None


def _check_against_reference(family, kind):
    ratio, exact = _reference_ratio(family, kind)
    if ratio is None:
        with pytest.raises(ZeroFamily):
            rademacher_ratio(family, kind)
        return
    est = rademacher_ratio(family, kind)
    assert est.samples == 1 << len(family)
    assert est.exact == exact
    assert est.point == float(ratio)


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_entries = st.one_of(st.just(F(0)), _rationals)


@st.composite
def _rational_families(draw):
    tag = draw(st.sampled_from(["T", "T2", "mod2", "l1", "l2", "linf", "polytope"]))
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if tag == "polytope":
        functional = st.lists(_rationals, min_size=dim, max_size=dim)
        space = SpaceOracle.polytope(dim, [draw(functional), draw(functional)])
    else:
        space = SpaceOracle.from_tag(tag, dim)
    vecs = draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim), min_size=n, max_size=n))
    return VectorFamily.make(vecs, space)


@settings(max_examples=150, deadline=None)
@given(_rational_families(), st.sampled_from(["type", "cotype"]))
def test_rademacher_equals_all_patterns_reference(family, kind):
    _check_against_reference(family, kind)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["T2", "mod2", "l2"]),
       st.lists(st.fractions(min_value=0, max_value=5, max_denominator=7), min_size=1, max_size=6),
       st.sampled_from(["type", "cotype"]))
def test_rademacher_diagonal_sqrt_equals_reference(tag, squares, kind):
    family = diagonal_sqrt_family(SpaceOracle.from_tag(tag, len(squares)), squares)
    if len(family) == 0:
        return
    _check_against_reference(family, kind)


def test_rademacher_single_vector_and_zero_vector():
    space = SpaceOracle.t2_span(3)
    one = VectorFamily.make([[F(1, 3), F(0), F(-2)]], space)
    for kind in ("type", "cotype"):
        est = rademacher_ratio(one, kind)
        assert est.exact == 1 and est.samples == 2
    with_zero = VectorFamily.make([[F(1), F(2), F(0)], [F(0)] * 3, [F(0), F(1, 2), F(1)]], space)
    for kind in ("type", "cotype"):
        _check_against_reference(with_zero, kind)
    # a zero vector changes no sign sum, only the pattern count
    without = VectorFamily.make([with_zero.vectors[0], with_zero.vectors[2]], space)
    assert rademacher_ratio(with_zero, "type").exact == rademacher_ratio(without, "type").exact


def test_rademacher_float_valued_norm_matches_reference():
    space = SpaceOracle.lp(3, 3.0)
    fam = VectorFamily.make([[F(1), F(-1, 2), F(2)], [F(0), F(3), F(1, 3)],
                             [F(-2, 5), F(1), F(0)], [F(1), F(1), F(1)]], space)
    for kind in ("type", "cotype"):
        ratio, _ = _reference_ratio(fam, kind)
        est = rademacher_ratio(fam, kind)
        assert est.exact is None
        assert est.point == pytest.approx(float(ratio), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_rademacher_exact_equals_float64_evaluation(p):
    rng = np.random.default_rng(7)
    nums, dens = rng.integers(-9, 10, size=(8, 5)), rng.integers(1, 8, size=(8, 5))
    fam = VectorFamily.make([[F(int(a), int(b)) for a, b in zip(*row)] for row in zip(nums, dens)],
                            SpaceOracle.lp(5, p))
    X = np.array([[float(e) for e in v] for v in fam.vectors])
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=len(X))))
    mean = float(np.mean(np.linalg.norm(signs @ X, ord=p, axis=1) ** 2))
    S = float(np.sum(np.linalg.norm(X, ord=p, axis=1) ** 2))
    for kind, value in (("type", mean / S), ("cotype", S / mean)):
        est = rademacher_ratio(fam, kind)
        assert float(est.exact) == pytest.approx(value, rel=1e-12)


def test_rademacher_float_entries_are_exact_binary_rationals():
    rows = [[0.1, 0.2], [0.3, 0.7], [0.5, -0.25]]
    # the parallelogram law makes every l2 type ratio exactly 1
    assert rademacher_ratio(VectorFamily.make(rows, SpaceOracle.euclidean(2)), "type").exact == 1
    for tag in ("T", "T2"):
        space = SpaceOracle.from_tag(tag, 2)
        as_floats = VectorFamily.make(rows, space)
        as_fractions = VectorFamily.make([[F(e) for e in r] for r in rows], space)
        for kind in ("type", "cotype"):
            est = rademacher_ratio(as_floats, kind)
            assert est.exact is not None
            assert est.exact == rademacher_ratio(as_fractions, kind).exact


def test_rademacher_unlike_square_roots_are_not_exact():
    # sqrt(2) +- sqrt(3) in one coordinate has no exact value.  Below index 3
    # the T2 norm is the sup norm, so the two sign sums (up to eps -> -eps)
    # have squared norms 5 + 2 sqrt(6) and 1, against 2 + 3.
    space = SpaceOracle.t2_span(2)
    fam = VectorFamily.make([[SqrtRat.of(2), F(1)], [SqrtRat.of(3), F(0)]], space)
    est = rademacher_ratio(fam, "type")
    assert est.exact is None
    assert est.point == pytest.approx((3 + math.sqrt(6)) / 5, rel=1e-12)


# --------------------------------------------------------------------------
# Gaussian (Monte-Carlo) ratios
# --------------------------------------------------------------------------

def test_gaussian_hilbert_close_to_one():
    fam = _basis_family(SpaceOracle.euclidean(2), 2)
    est = gaussian_ratio(fam, "type", samples=100_000, seed=11)
    assert est.ci_low <= 1.0 <= est.ci_high
    assert est.point == pytest.approx(1.0, abs=0.02)


def test_gaussian_l1_type_closed_form():
    # E(|g1| + |g2|)^2 = 2 + 4/pi over sum of norms 2
    fam = _basis_family(SpaceOracle.lp(2, 1.0), 2)
    est = gaussian_ratio(fam, "type", samples=200_000, seed=3)
    target = (2 + 4 / math.pi) / 2
    assert est.ci_low <= target <= est.ci_high
    assert est.point == pytest.approx(target, rel=0.02)


def test_gaussian_deterministic():
    fam = _basis_family(SpaceOracle.lp(2, 1.0), 2)
    a = gaussian_ratio(fam, "cotype", samples=5_000, seed=42)
    b = gaussian_ratio(fam, "cotype", samples=5_000, seed=42)
    assert a == b
    c = gaussian_ratio(fam, "cotype", samples=5_000, seed=43)
    assert c.point != a.point


def test_gaussian_sample_floor():
    fam = _basis_family(SpaceOracle.euclidean(2), 2)
    with pytest.raises(Exception):
        gaussian_ratio(fam, "type", samples=10, seed=0)


# --------------------------------------------------------------------------
# cone reduction
# --------------------------------------------------------------------------

def test_caratheodory_one_dimensional_forced():
    red = caratheodory_reduce([[1.0], [1.0], [1.0]], 1)
    assert np.allclose(red.weights, [3.0, 0.0, 0.0])
    assert np.allclose(red.v[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(red.w[:, 0], [0.0, 1.0, 1.0])


def test_caratheodory_invariants_random():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(d * (d + 1) // 2 + 1, 31))
        U = rng.standard_normal((m, d))
        red = caratheodory_reduce(U, d)
        bound = d * (d + 1) // 2
        assert int(np.count_nonzero(red.weights)) <= bound
        assert red.weights[0] >= 1 - 1e-12
        assert all(a >= b for a, b in zip(red.weights, red.weights[1:]))
        target = U.T @ U
        reduced = red.vectors.T @ (red.weights[:, None] * red.vectors)
        assert np.linalg.norm(reduced - target) <= 1e-9 * max(1.0, np.linalg.norm(target))
        total = float(np.sum(red.v**2) + np.sum(red.w**2))
        assert total == pytest.approx(float(np.sum(U**2)), rel=1e-12)


def test_caratheodory_branch_covariances():
    rng = np.random.default_rng(7)
    U = rng.standard_normal((10, 2))
    red = caratheodory_reduce(U, 2)
    A = U.T @ U
    c1 = red.weights[0]
    cov_v = red.v.T @ red.v
    cov_w = red.w.T @ red.w
    assert np.linalg.norm(cov_v - A / c1) <= 1e-9 * np.linalg.norm(A)
    assert np.linalg.norm(cov_w - (1 - 1 / c1) * A) <= 1e-9 * np.linalg.norm(A)


def test_caratheodory_degenerate():
    with pytest.raises(DegenerateInput):
        caratheodory_reduce([[0.0, 0.0], [0.0, 0.0]], 2)


# --------------------------------------------------------------------------
# family reduction
# --------------------------------------------------------------------------

def test_flm_noop_when_small():
    fam = _basis_family(SpaceOracle.euclidean(3), 2)  # bound = 6 > 2
    out = flm_reduce(fam, "type", mc_samples=500, seed=1)
    assert out.vectors == fam.vectors


def test_flm_one_dimensional_hilbert():
    space = SpaceOracle.euclidean(1)
    fam = VectorFamily.make([[1.0], [1.0], [1.0]], space)
    out = flm_reduce(fam, "type", mc_samples=2_000, seed=5)
    assert len(out) == 1
    est = rademacher_ratio(
        VectorFamily.make([[F(1)]], space), "type"
    )
    assert est.exact == 1


def test_flm_cotype_kind():
    space = SpaceOracle.lp(2, 1.0)
    rng = np.random.default_rng(17)
    fam = VectorFamily.make(rng.standard_normal((8, 2)).tolist(), space)
    out = flm_reduce(fam, "cotype", mc_samples=5_000, seed=2)
    assert 1 <= len(out) <= 3


def test_flm_ratio_preserved_l1():
    space = SpaceOracle.lp(2, 1.0)
    rng = np.random.default_rng(99)
    fam = VectorFamily.make(rng.standard_normal((10, 2)).tolist(), space)
    samples, seed = 50_000, 123
    before = gaussian_ratio(fam, "type", samples=samples, seed=seed)
    out = flm_reduce(fam, "type", mc_samples=20_000, seed=7)
    assert len(out) <= 3
    after = gaussian_ratio(out, "type", samples=samples, seed=seed)
    spread = (before.ci_high - before.ci_low) + (after.ci_high - after.ci_low)
    assert after.point >= before.point - 1.5 * spread


# --------------------------------------------------------------------------
# composition bounds
# --------------------------------------------------------------------------

def test_kwapien_upper():
    assert kwapien_upper(1, 1) == 1
    assert kwapien_upper(2**0.5, 2**0.5) == pytest.approx(2)
    assert kwapien_upper(1.5, 2.0) == 3.0
    with pytest.raises(InvalidBound):
        kwapien_upper(0.5, 2.0)


def test_c2_lower_from_witness():
    space = SpaceOracle.t2_span(4)
    fam = VectorFamily.make(
        [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]], space
    )
    est = rademacher_ratio(fam, "cotype")
    low = c2_lower_from_witness(est)
    assert low.value == pytest.approx(math.sqrt(2))
    assert low.certified and low.mode == "rademacher-exact"
    assert low.exact_sq == 2

    hil = rademacher_ratio(_basis_family(SpaceOracle.euclidean(3), 3), "type")
    assert c2_lower_from_witness(hil).value == 1.0

    l1 = rademacher_ratio(_basis_family(SpaceOracle.lp(2, 1.0), 2), "type")
    assert c2_lower_from_witness(l1).value == pytest.approx(math.sqrt(2))
