import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banach_gauge import (
    DegenerateInput,
    DomainError,
    FinVec,
    InvalidBound,
    SpaceOracle,
    SupportTooLarge,
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
import banach_gauge.batch as batch_module
import banach_gauge.tsirelson as tsirelson_module
from banach_gauge.gauss import MC_CELL_CAP
from banach_gauge.tsirelson import (
    MAX_DP_SUPPORT,
    MAX_MODIFIED_SUPPORT,
    modified_norm,
    tsirelson_norm,
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

def _spot_check(oracle, seed, trials=25):
    """Sampled norm axioms: homogeneity, positive-definiteness, triangle."""
    rng = np.random.default_rng(seed)

    def norm(v):
        return float(oracle.norm_array(v)[0])

    for _ in range(trials):
        a = rng.standard_normal(oracle.dim)
        b = rng.standard_normal(oracle.dim)
        c = float(rng.uniform(-3, 3))
        na, nb = norm(a), norm(b)
        if na <= 0 and np.any(a != 0):
            return False
        if not math.isclose(norm(c * a), abs(c) * na, rel_tol=1e-9, abs_tol=1e-12):
            return False
        if norm(a + b) > na + nb + 1e-9 * (na + nb + 1):
            return False
    return True


def test_oracle_tags_and_checks():
    for tag, dim in [("l1", 3), ("l2", 4), ("linf", 2), ("lp3", 3), ("T", 4), ("T2", 4)]:
        oracle = SpaceOracle(tag, dim)
        assert _spot_check(oracle, seed=7)


def test_polytope_oracle_is_linf_like():
    # functionals +-e_i* give the sup norm
    oracle = SpaceOracle("polytope", 2, [[1, 0], [0, 1]])
    assert oracle.norm_sq([F(3), F(-4)]) == 16
    assert _spot_check(oracle, seed=3)


def test_t2_span_oracle_exact():
    oracle = SpaceOracle("T2", 4)
    assert oracle.norm_sq([F(0), F(0), F(1), F(1)]) == 1
    assert oracle.norm_array([0.0, 0.0, 1.0, 1.0]).tolist() == [1.0]


def _ref_norm_sq(space, vec):
    """Squared norm of one vector from the norms' definitions, through
    ``tsirelson_norm``, ``modified_norm`` and ``Fraction`` sums; a float only
    on l_p with p not in {1, 2, inf}.  It shares no plan with the batch
    paths, so it serves as their reference."""
    x = [Fraction(e) for e in vec]
    if space.reads_squares():
        tag = space.tag if space.tag in ("T2", "mod2") else "l2"
        return _squares_norm(tag, [e * e for e in x])
    if space.tag == "T":
        n = tsirelson_norm(FinVec(dict(enumerate(map(abs, x), start=1)))).value
    elif space.tag == "polytope":
        n = max(abs(sum((fk * e for fk, e in zip(f, x)), Fraction(0))) for f in space.functionals)
    elif space.p == 1.0:
        n = sum(map(abs, x), Fraction(0))
    elif space.p == math.inf:
        n = max(map(abs, x), default=Fraction(0))
    else:
        n = float(np.linalg.norm(np.array(x, dtype=float), ord=space.p))
    return n * n


# --------------------------------------------------------------------------
# Rademacher (exact) ratios
# --------------------------------------------------------------------------

def test_l1_type_ratio_exactly_two():
    est = rademacher_ratio(_basis_family(SpaceOracle("l1", 2), 2), "type")
    assert est.exact == 2
    assert est.mode == "rademacher-exact"
    assert est.ci_low == est.ci_high == est.point == 2.0


def test_hilbert_orthonormal_ratios_are_one():
    fam = _basis_family(SpaceOracle("l2", 4), 4)
    assert rademacher_ratio(fam, "type").exact == 1
    assert rademacher_ratio(fam, "cotype").exact == 1


def test_t2_span_cotype_ratio_two():
    space = SpaceOracle("T2", 4)
    fam = VectorFamily.make(
        [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]], space
    )
    est = rademacher_ratio(fam, "cotype")
    assert est.exact == 2


def test_diagonal_sqrt_family_keeps_exactness():
    # squared weights 1/2, 1/2 at indices 3, 4: the ratio must match the
    # flat-witness pipeline value 2 exactly even though sqrt(1/2) is irrational
    space = SpaceOracle("T2", 4)
    fam = diagonal_sqrt_family(space, FinVec({3: F(1, 2), 4: F(1, 2)}))
    est = rademacher_ratio(fam, "cotype")
    assert est.exact == 2


def test_rademacher_invariances():
    space = SpaceOracle("l1", 3)
    vecs = [[F(1), F(0), F(2)], [F(0), F(-1), F(1)], [F(1), F(1), F(0)]]
    base = rademacher_ratio(VectorFamily.make(vecs, space), "type").exact
    perm = rademacher_ratio(VectorFamily.make(vecs[::-1], space), "type").exact
    flip = rademacher_ratio(
        VectorFamily.make([[-v for v in vecs[1]]] + [vecs[0], vecs[2]], space), "type"
    ).exact
    assert base == perm == flip


def test_rademacher_caps_and_errors():
    space = SpaceOracle("l2", 2)
    big = VectorFamily.make([[F(1), F(0)]] * 21, space)
    with pytest.raises(TooManyVectors):
        rademacher_ratio(big, "type")
    zero = VectorFamily.make([[F(0), F(0)]], space)
    with pytest.raises(ZeroFamily):
        rademacher_ratio(zero, "type")
    with pytest.raises(ZeroFamily):
        rademacher_ratio(zero, "cotype")


def _reference_ratio(family, kind):
    """All 2^n sign patterns, each sign sum rebuilt from scratch as exact
    Fractions.  Returns (ratio, exact), exact None when a squared norm was a
    float.
    """
    space, n = family.space, len(family)
    total = Fraction(0)
    for mask in range(1 << n):
        acc = [sum((-Fraction(v[k]) if mask >> i & 1 else Fraction(v[k])
                    for i, v in enumerate(family.vectors)), Fraction(0))
               for k in range(space.dim)]
        total += _ref_norm_sq(space, acc)
    S = sum((_ref_norm_sq(space, v) for v in family.vectors), Fraction(0))
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
        space = SpaceOracle("polytope", dim, [draw(functional), draw(functional)])
    else:
        space = SpaceOracle(tag, dim)
    vecs = draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim), min_size=n, max_size=n))
    return VectorFamily.make(vecs, space)


@settings(max_examples=150, deadline=None)
@given(_rational_families(), st.sampled_from(["type", "cotype"]))
def test_rademacher_equals_all_patterns_reference(family, kind):
    _check_against_reference(family, kind)


@settings(max_examples=100, deadline=None)
@given(_rational_families())
def test_norm_sq_equals_the_engine_reference(family):
    for v in family.vectors:
        got = family.space.norm_sq(v)
        assert type(got) is Fraction
        assert got == _ref_norm_sq(family.space, v)


def _squares_norm(tag, squares):
    """Squared norm on T2, mod2 or l2 of a vector given by its squares."""
    x = FinVec(dict(enumerate(squares, start=1)))
    if tag == "T2":
        return tsirelson_norm(x).value
    return modified_norm(x) if tag == "mod2" else sum(squares, Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["T2", "mod2", "l2"]),
       st.lists(st.fractions(min_value=0, max_value=5, max_denominator=7), min_size=1, max_size=6),
       st.sampled_from(["type", "cotype"]))
def test_rademacher_diagonal_sqrt_equals_reference(tag, squares, kind):
    # every sign sum of { sqrt(q_j) e_j } has the squares q, so the mean is N(q)
    family = diagonal_sqrt_family(SpaceOracle(tag, len(squares)), squares)
    if len(family) == 0:
        return
    S, mean = sum(squares, Fraction(0)), _squares_norm(tag, squares)
    est = rademacher_ratio(family, kind)
    assert est.exact == (S / mean if kind == "cotype" else mean / S)


@st.composite
def _sqrt_column_families(draw):
    """Families with col_sq, several vectors sharing a square-root column."""
    dim, n = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    col_sq = draw(st.lists(st.sampled_from([F(1), F(2), F(1, 3), F(5, 2)]),
                           min_size=dim, max_size=dim))
    shared = draw(st.integers(0, dim - 1))
    col_sq[shared] = draw(st.sampled_from([F(2), F(1, 3), F(5, 2)]))
    vecs = draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim), min_size=n, max_size=n))
    for v in vecs[:2]:
        v[shared] = draw(_rationals.filter(bool))
    return vecs, tuple(col_sq)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["T2", "mod2", "l2"]), _sqrt_column_families(),
       st.sampled_from(["type", "cotype"]))
def test_rademacher_sqrt_columns_equal_squares_reference(tag, vecs_col_sq, kind):
    vecs, col_sq = vecs_col_sq
    dim = len(col_sq)
    family = VectorFamily(tuple(map(tuple, vecs)), SpaceOracle(tag, dim), col_sq)
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=len(vecs)):
        acc = [sum((e * v[k] for e, v in zip(signs, vecs)), Fraction(0)) for k in range(dim)]
        total += _squares_norm(tag, [a * a * q for a, q in zip(acc, col_sq)])
    S = sum((_squares_norm(tag, [e * e * q for e, q in zip(v, col_sq)]) for v in vecs), Fraction(0))
    mean = total / (1 << len(vecs))
    assert S > 0
    if mean == 0:
        with pytest.raises(ZeroFamily):
            rademacher_ratio(family, "cotype")
        return
    est = rademacher_ratio(family, kind)
    assert est.exact == (mean / S if kind == "type" else S / mean)
    assert est.point == float(est.exact)


def test_rademacher_single_vector_and_zero_vector():
    space = SpaceOracle("T2", 3)
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
    space = SpaceOracle("lp3", 3)
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
                            SpaceOracle(f"lp{p}", 5))
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
    assert rademacher_ratio(VectorFamily.make(rows, SpaceOracle("l2", 2)), "type").exact == 1
    for tag in ("T", "T2"):
        space = SpaceOracle(tag, 2)
        as_floats = VectorFamily.make(rows, space)
        as_fractions = VectorFamily.make([[F(e) for e in r] for r in rows], space)
        for kind in ("type", "cotype"):
            est = rademacher_ratio(as_floats, kind)
            assert est.exact is not None
            assert est.exact == rademacher_ratio(as_fractions, kind).exact


@pytest.mark.parametrize("tag", ["T", "T2", "mod2", "l1", "l2", "linf"])
def test_rademacher_sign_sums_cancel_to_exact_zeros(tag):
    # x1 - x2 is the zero vector and x1 + x3 cancels on two coordinates, so the
    # batch meets zero rows and zero entries on labels of the union support
    x1 = [F(1), F(-2), F(0), F(1, 2), F(0)]
    x3 = [F(-1), F(2), F(3), F(0), F(0)]
    fam = VectorFamily.make([x1, x1, x3], SpaceOracle(tag, 5))
    for kind in ("type", "cotype"):
        _check_against_reference(fam, kind)


@pytest.mark.parametrize("tag", ["T", "T2", "mod2", "l1", "l2", "linf"])
def test_rademacher_float_entries_beyond_int64(tag, monkeypatch):
    # 1e-5 and 0.1 are binary rationals with denominators near 2^70, so the
    # scaled sign sums (and their squares) leave int64: the plans run on
    # Python ints, and the ratio is still the exact all-patterns value
    seen = []
    for name in ("_run_plan", "_run_modified_plan"):
        run = getattr(batch_module, name)
        monkeypatch.setattr(batch_module, name,
                            lambda plan, wt, run=run: seen.append(wt.dtype) or run(plan, wt))
    rows = [[1e-5, 0.1, 0.0, 3.0], [0.1, -2.5, 1e-5, 0.0], [0.0, 0.3, 0.7, -1e-5]]
    fam = VectorFamily.make(rows, SpaceOracle(tag, 4))
    for kind in ("type", "cotype"):
        _check_against_reference(fam, kind)
    if tag in ("T", "T2", "mod2"):
        assert seen and set(seen) == {np.dtype(object)}


def test_rademacher_union_support_above_the_mod2_cap(monkeypatch):
    # each vector fits the engine's cap but their union support is one label
    # over it: the ratio raises before any plan is compiled or run
    monkeypatch.setattr(tsirelson_module, "_interval_plan",
                        lambda *a: pytest.fail("a plan ran past the support cap"))
    for name in ("_interval_plan", "_modified_plan", "_run_plan", "_run_modified_plan"):
        monkeypatch.setattr(batch_module, name,
                            lambda *a: pytest.fail("a plan ran past the support cap"))
    s = MAX_MODIFIED_SUPPORT + 1
    x1 = [F(1)] * (s - 1) + [F(0)]
    x2 = [F(1), F(-1)] + [F(0)] * (s - 3) + [F(1)]
    with pytest.raises(SupportTooLarge):
        rademacher_ratio(VectorFamily.make([x1, x2], SpaceOracle("mod2", s)), "cotype")
    s = MAX_DP_SUPPORT + 1
    y1 = [F(1)] * (s - 1) + [F(0)]
    y2 = [F(0)] * (s - 1) + [F(1)]
    with pytest.raises(SupportTooLarge):
        rademacher_ratio(VectorFamily.make([y1, y2], SpaceOracle("T2", s)), "type")


def test_norm_sq_batch_only_where_an_integer_evaluator_exists():
    M = np.array([[1, -2], [0, 3]], dtype=np.int64)
    poly = SpaceOracle("polytope", 2, [[F(1, 2), F(1, 3)], [F(0), F(-1, 4)]])
    assert poly.has_exact_batch() and not poly.has_exact_batch(scaled=True)
    nums, den = poly.norm_sq_batch(M, [0, 1])
    assert [F(v, den) for v in nums] == [F(1, 4), 1]
    lp3 = SpaceOracle("lp3", 2)
    assert not lp3.has_exact_batch()
    with pytest.raises(DomainError):
        lp3.norm_sq_batch(M, [0, 1])
    with pytest.raises(DomainError, match="norm_array"):  # nor one vector's
        lp3.norm_sq([F(3), F(-4)])
    with pytest.raises(DomainError):  # T reads |x|, not squares
        SpaceOracle("T", 2).norm_sq_batch(M, [0, 1], weights=[1, 2])
    nums, den = SpaceOracle("l2", 2).norm_sq_batch(M, [0, 1], weights=[1, 2])
    assert [F(v, den) for v in nums] == [9, 18]


@settings(max_examples=60, deadline=None)
@example("l2", [[2**32, 0, 0, 0], [3, 4, 0, 0]])
@given(st.sampled_from(["l1", "l2", "linf", "T", "T2", "mod2", "polytope"]),
       st.lists(st.lists(st.integers(-2**62, 2**62), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_norm_sq_batch_matches_the_per_vector_engines_on_wide_int64_rows(tag, rows):
    # the batch widens its own |x|, squares and row sums, whatever dtype the
    # caller's int64 rows leave room for
    space = _ONE_PATH_SPACES[tag]
    nums, den = space.norm_sq_batch(np.array(rows, dtype=np.int64), [0, 1, 2, 3])
    assert [F(v, den) for v in nums] == [_ref_norm_sq(space, row) for row in rows]


_ONE_PATH_SPACES = {
    "l1": SpaceOracle("l1", 4), "l2": SpaceOracle("l2", 4),
    "linf": SpaceOracle("linf", 4), "lp3": SpaceOracle("lp3", 4),
    "T": SpaceOracle("T", 4), "T2": SpaceOracle("T2", 4),
    "mod2": SpaceOracle("mod2", 4),
    "polytope": SpaceOracle("polytope", 4, [[F(1), F(-1, 2), 0, F(2)], [0, F(1, 3), F(1), 0]]),
}


@pytest.mark.parametrize("name", [*_ONE_PATH_SPACES, "sqrt-diagonal-T", "sqrt-diagonal-T2"])
def test_rademacher_never_calls_the_per_vector_oracle(name, monkeypatch):
    monkeypatch.setattr(SpaceOracle, "norm_sq",
                        lambda self, vec: pytest.fail("per-vector norm_sq was called"))
    if name.startswith("sqrt-diagonal-"):
        space = SpaceOracle(name.removeprefix("sqrt-diagonal-"), 4)
        family = diagonal_sqrt_family(space, {1: 2, 2: F(1, 3), 4: 5})
    else:
        rows = [[F(1), F(-2, 3), F(0), F(1, 2)], [F(0), F(1), F(3), F(-1)], [F(2), F(0), F(1, 5), F(1)]]
        family = VectorFamily.make(rows, _ONE_PATH_SPACES[name])
    for kind in ("type", "cotype"):
        est = rademacher_ratio(family, kind)
        assert (est.exact is None) == (name in ("lp3", "sqrt-diagonal-T"))
        assert est.point > 0


@pytest.mark.parametrize("kind", ["type", "cotype"])
def test_rademacher_lp_with_tiny_entries_matches_mpmath(kind):
    # 1e-300 makes the common denominator L about 2^1049: the L-scaled sign
    # sums leave the float range unless each row is shrunk by a power of two
    mpmath = pytest.importorskip("mpmath")
    rows = [[1e-300, 1.0], [1.0, 2.0]]
    est = rademacher_ratio(VectorFamily.make(rows, SpaceOracle("lp3", 2)), kind)
    with mpmath.workdps(50):
        def norm_sq(v):
            return mpmath.power(sum(abs(mpmath.mpf(c)) ** 3 for c in v), mpmath.mpf(2) / 3)
        x, y = rows
        mean = (norm_sq([a + b for a, b in zip(x, y)]) + norm_sq([a - b for a, b in zip(x, y)])) / 2
        ref = mean / (norm_sq(x) + norm_sq(y))
        if kind == "cotype":
            ref = 1 / ref
        assert abs(est.point - ref) <= 1e-14 * ref


@pytest.mark.parametrize("tag,dim", [("l1", 16), ("T2", 8)])
def test_rademacher_patterns_run_in_chunks(tag, dim):
    # 2^15 sign sums: unchunked, the pattern and sum arrays alone take > 13 MiB
    rng = np.random.default_rng(16)
    nums, dens = rng.integers(-9, 10, size=(16, dim)), rng.integers(1, 10, size=(16, dim))
    fam = VectorFamily.make([[F(int(a), int(b)) for a, b in zip(*row)] for row in zip(nums, dens)],
                            SpaceOracle(tag, dim))
    rademacher_ratio(fam, "type")  # plans compiled outside the measurement
    tracemalloc.start()
    try:
        est = rademacher_ratio(fam, "type")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.exact is not None and est.samples == 1 << 16
    assert peak <= 8 << 20


# --------------------------------------------------------------------------
# Gaussian (Monte-Carlo) ratios
# --------------------------------------------------------------------------

def test_gaussian_hilbert_close_to_one():
    fam = _basis_family(SpaceOracle("l2", 2), 2)
    est = gaussian_ratio(fam, "type", samples=100_000, seed=11)
    assert est.ci_low <= 1.0 <= est.ci_high
    assert est.point == pytest.approx(1.0, abs=0.02)


def test_gaussian_l1_type_closed_form():
    # E(|g1| + |g2|)^2 = 2 + 4/pi over sum of norms 2
    fam = _basis_family(SpaceOracle("l1", 2), 2)
    est = gaussian_ratio(fam, "type", samples=200_000, seed=3)
    target = (2 + 4 / math.pi) / 2
    assert est.ci_low <= target <= est.ci_high
    assert est.point == pytest.approx(target, rel=0.02)


def test_gaussian_deterministic():
    fam = _basis_family(SpaceOracle("l1", 2), 2)
    a = gaussian_ratio(fam, "cotype", samples=5_000, seed=42)
    b = gaussian_ratio(fam, "cotype", samples=5_000, seed=42)
    assert a == b
    c = gaussian_ratio(fam, "cotype", samples=5_000, seed=43)
    assert c.point != a.point


def test_gaussian_sample_floor():
    fam = _basis_family(SpaceOracle("l2", 2), 2)
    with pytest.raises(Exception):
        gaussian_ratio(fam, "type", samples=10, seed=0)


# --------------------------------------------------------------------------
# cone reduction
# --------------------------------------------------------------------------

def test_caratheodory_one_dimensional_forced():
    red = caratheodory_reduce([[1.0], [1.0], [1.0]])
    assert np.allclose(red.weights, [3.0, 0.0, 0.0])
    assert np.allclose(red.v[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(red.w[:, 0], [0.0, 1.0, 1.0])


def test_caratheodory_invariants_random():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(d * (d + 1) // 2 + 1, 31))
        U = rng.standard_normal((m, d))
        red = caratheodory_reduce(U)
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
    red = caratheodory_reduce(U)
    A = U.T @ U
    c1 = red.weights[0]
    cov_v = red.v.T @ red.v
    cov_w = red.w.T @ red.w
    assert np.linalg.norm(cov_v - A / c1) <= 1e-9 * np.linalg.norm(A)
    assert np.linalg.norm(cov_w - (1 - 1 / c1) * A) <= 1e-9 * np.linalg.norm(A)


def test_caratheodory_degenerate():
    with pytest.raises(DegenerateInput):
        caratheodory_reduce([[0.0, 0.0], [0.0, 0.0]])


def test_caratheodory_rejects_outer_products_out_of_float_range():
    # u (x) u overflows: the null directions are meaningless, and the
    # reduction would not keep the covariance
    U = np.random.default_rng(0).standard_normal((8, 2)) * 1e160
    with pytest.raises(DomainError, match="float range"):
        caratheodory_reduce(U)


def test_gaussian_cell_cap_checked_before_drawing(monkeypatch):
    monkeypatch.setattr("banach_gauge.gauss.np.random.default_rng",
                        lambda seed: pytest.fail("drew samples past the cell cap"))
    fam = _basis_family(SpaceOracle("T", 3), 3)
    with pytest.raises(DomainError, match="cap"):
        gaussian_ratio(fam, "type", samples=MC_CELL_CAP // 3 + 1, seed=0)


def test_gaussian_rejects_norms_out_of_float_range():
    for tag in ("T", "l1"):
        fam = VectorFamily.make([[1e300, 1e300], [1e300, -1e300]], SpaceOracle(tag, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            gaussian_ratio(fam, "type", samples=200, seed=0)


def test_gaussian_ci_finite_for_squared_norms_near_float_max():
    # the squared norms are ~1e300: their deviations squared would overflow
    huge = VectorFamily.make([[1e150, 0.0], [0.0, 1e150]], SpaceOracle("l2", 2))
    unit = VectorFamily.make([[1.0, 0.0], [0.0, 1.0]], SpaceOracle("l2", 2))
    for kind in ("type", "cotype"):
        est = gaussian_ratio(huge, kind, samples=200, seed=0)
        assert 0 < est.ci_low <= est.point <= est.ci_high < math.inf
        # the ratio is scale-invariant, and so is its interval
        ref = gaussian_ratio(unit, kind, samples=200, seed=0)
        assert (est.point, est.ci_low, est.ci_high) == pytest.approx(
            (ref.point, ref.ci_low, ref.ci_high), rel=1e-12)


@pytest.mark.parametrize("tag", ["T", "T2"])
def test_gaussian_on_tsirelson_spans_deterministic(tag):
    rng = np.random.default_rng(4)
    fam = VectorFamily.make(rng.standard_normal((5, 6)).tolist(), SpaceOracle(tag, 6))
    a = gaussian_ratio(fam, "cotype", samples=3_000, seed=9)
    assert a == gaussian_ratio(fam, "cotype", samples=3_000, seed=9)
    assert a.point != gaussian_ratio(fam, "cotype", samples=3_000, seed=10).point
    assert a.ci_low <= a.point <= a.ci_high


# --------------------------------------------------------------------------
# batched norms
# --------------------------------------------------------------------------

def _row_norms(space, pts):
    return [math.sqrt(_ref_norm_sq(space, row.tolist())) for row in pts]


def test_engine_reference_runs_no_batch_plan(monkeypatch):
    for name in ("_run_plan", "_run_modified_plan"):
        monkeypatch.setattr(batch_module, name,
                            lambda *a, name=name: pytest.fail(f"{name} was run"))
    pts = np.array([[1.0, 0.0, -2.5, 0.5], [0.0, 3.0, 1.0, -1.0]])
    for tag in ("T", "T2", "mod2"):
        assert all(v > 0 for v in _row_norms(SpaceOracle(tag, 4), pts))


@pytest.mark.parametrize("space", [
    SpaceOracle("T", 7),
    SpaceOracle("T2", 7),
    SpaceOracle("mod2", 7),
    SpaceOracle("polytope", 7, [[F(1), F(-2), 0, 0, F(1, 3), 0, 1], [0, 1, 1, 1, 0, F(-1, 2), 0]]),
])
def test_norm_array_matches_per_row_norm(space):
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((40, 7))
    pts[rng.random(pts.shape) < 0.3] = 0.0
    pts[:, 1] = 0.0  # a column outside the union support
    pts[5] = 0.0
    got = space.norm_array(pts)
    assert got.shape == (40,)
    np.testing.assert_allclose(got, _row_norms(space, pts), rtol=1e-12, atol=0.0)
    assert space.norm_array(pts[3]).tolist() == [got[3]]


def test_norm_array_uses_the_union_support():
    # a wide span with few nonzero columns runs; the cap is on the union support
    space = SpaceOracle("T", MAX_DP_SUPPORT + 50)
    pts = np.zeros((3, space.dim))
    pts[0, [0, 99]] = [1.0, -3.0]
    pts[1, [99, 200]] = [2.0, 2.0]
    np.testing.assert_allclose(space.norm_array(pts), _row_norms(space, pts), rtol=1e-12)
    pts[2] = 1.0
    with pytest.raises(SupportTooLarge):
        space.norm_array(pts)
    # rows of the wrong width are rejected on every tag, l_p included
    for narrow in (space, SpaceOracle("l1", 5)):
        with pytest.raises(DomainError):
            narrow.norm_array(np.ones((2, 3)))


def test_diagonal_sqrt_family_rejects_negative_squares():
    with pytest.raises(DomainError):
        diagonal_sqrt_family(SpaceOracle("T2", 3), {1: -4})
    with pytest.raises(DomainError):
        diagonal_sqrt_family(SpaceOracle("T2", 3), [1, F(-1, 3)])


def test_tsirelson_span_irrational_roots_are_not_exact():
    # sqrt 2 and sqrt 3 have no exact value: the oracle answers in float
    space = SpaceOracle("T", 4)
    fam = diagonal_sqrt_family(space, {3: 2, 4: 3})
    assert fam.col_sq == (1, 1, 2, 3)
    for kind, ratio in (("cotype", 5 / 3), ("type", 3 / 5)):
        est = rademacher_ratio(fam, kind)
        assert est.exact is None
        assert est.point == pytest.approx(ratio, rel=1e-15)
        assert not c2_lower_from_witness(est).certified


# --------------------------------------------------------------------------
# family reduction
# --------------------------------------------------------------------------

def test_flm_noop_when_small():
    fam = _basis_family(SpaceOracle("l2", 3), 2)  # bound = 6 > 2
    out = flm_reduce(fam, "type", mc_samples=500, seed=1)
    assert out.vectors == fam.vectors


def test_flm_one_dimensional_hilbert():
    space = SpaceOracle("l2", 1)
    fam = VectorFamily.make([[1.0], [1.0], [1.0]], space)
    out = flm_reduce(fam, "type", mc_samples=2_000, seed=5)
    assert len(out) == 1
    est = rademacher_ratio(
        VectorFamily.make([[F(1)]], space), "type"
    )
    assert est.exact == 1


def test_flm_cotype_kind():
    space = SpaceOracle("l1", 2)
    rng = np.random.default_rng(17)
    fam = VectorFamily.make(rng.standard_normal((8, 2)).tolist(), space)
    out = flm_reduce(fam, "cotype", mc_samples=5_000, seed=2)
    assert 1 <= len(out) <= 3


def test_flm_on_t2_span():
    rng = np.random.default_rng(21)
    fam = VectorFamily.make(rng.standard_normal((7, 2)).tolist(), SpaceOracle("T2", 2))
    out = flm_reduce(fam, "type", mc_samples=5_000, seed=3)
    assert 1 <= len(out) <= 3


def test_flm_ratio_preserved_l1():
    space = SpaceOracle("l1", 2)
    rng = np.random.default_rng(99)
    fam = VectorFamily.make(rng.standard_normal((10, 2)).tolist(), space)
    samples, seed = 50_000, 123
    before = gaussian_ratio(fam, "type", samples=samples, seed=seed)
    out = flm_reduce(fam, "type", mc_samples=20_000, seed=7)
    assert len(out) <= 3
    after = gaussian_ratio(out, "type", samples=samples, seed=seed)
    spread = (before.ci_high - before.ci_low) + (after.ci_high - after.ci_low)
    assert after.point >= before.point - 1.5 * spread


@pytest.mark.parametrize("kind", ["type", "cotype"])
def test_flm_rejects_squared_norms_out_of_float_range(kind):
    # the outer products stay finite, but the branch ratios' squared norms do not
    rows = np.random.default_rng(1).standard_normal((8, 2)) * 3e152
    fam = VectorFamily.make(rows.tolist(), SpaceOracle("l1", 2))
    with pytest.raises(DomainError, match="squared norms"):
        flm_reduce(fam, kind, mc_samples=2000)


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
    space = SpaceOracle("T2", 4)
    fam = VectorFamily.make(
        [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]], space
    )
    est = rademacher_ratio(fam, "cotype")
    low = c2_lower_from_witness(est)
    assert low.value == pytest.approx(math.sqrt(2))
    assert low.certified and low.mode == "rademacher-exact"
    assert low.exact_sq == 2

    hil = rademacher_ratio(_basis_family(SpaceOracle("l2", 3), 3), "type")
    assert c2_lower_from_witness(hil).value == 1.0

    l1 = rademacher_ratio(_basis_family(SpaceOracle("l1", 2), 2), "type")
    assert c2_lower_from_witness(l1).value == pytest.approx(math.sqrt(2))
