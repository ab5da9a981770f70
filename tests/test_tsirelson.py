import functools
import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banach_gauge import (
    FinVec,
    Leaf,
    MalformedCertificate,
    NormCertificate,
    Part,
    Split,
    SupportTooLarge,
    abs_square,
    certificate_from_json,
    certificate_to_json,
    certificate_value,
    l1_norm,
    modified_norm,
    modified_norm_batch,
    modified_norm_batch_exact,
    modified_t2_norm_sq,
    norming_functional,
    sup_norm,
    t2_norm,
    t2_norm_sq,
    tsirelson_norm,
    tsirelson_norm_batch,
    tsirelson_norm_batch_exact,
    tsirelson_norm_bruteforce,
    validate_certificate,
)
import banach_gauge.batch as batch_module
import banach_gauge.tsirelson as tsirelson_module
from banach_gauge.errors import DomainError
from banach_gauge.tsirelson import MAX_DP_SUPPORT

from conftest import flip_signs, random_finvec, restrict


# --------------------------------------------------------------------------
# base norm examples
# --------------------------------------------------------------------------

def test_singleton_is_one():
    res = tsirelson_norm(FinVec({5: 1}))
    assert res.value == 1


@pytest.mark.parametrize(
    "entries, expected",
    [
        ({3: 1, 4: 1}, Fraction(1)),
        ({3: 1, 4: 1, 5: 1, 6: 1}, Fraction(3, 2)),
        ({1: 1, 2: 1, 3: 1, 4: 1}, Fraction(1)),
    ],
)
def test_small_vectors_match_bruteforce(entries, expected):
    x = FinVec(entries)
    assert tsirelson_norm(x).value == expected
    assert tsirelson_norm_bruteforce(x) == expected


def test_zero_vector():
    res = tsirelson_norm(FinVec())
    assert res.value == 0
    assert certificate_value(res.certificate, FinVec()) == 0
    assert tsirelson_norm_bruteforce(FinVec()) == 0


def test_bruteforce_cap(monkeypatch):
    big = FinVec({j: 1 for j in range(1, 14)})
    with pytest.raises(SupportTooLarge):
        tsirelson_norm_bruteforce(big)
    monkeypatch.setattr(tsirelson_module, "MAX_BRUTE_SUPPORT", 13)
    assert tsirelson_norm_bruteforce(big) == tsirelson_norm(big).value


@pytest.mark.parametrize("labels, limit", [(12, 1 << 20), (13, 2 << 20)])
@pytest.mark.parametrize("start", [2, 8])
def test_bruteforce_tables_are_small(monkeypatch, labels, limit, start):
    # a list per mask for norms and bests and an int key per family state;
    # from 8 the traced peak is within 1% of its largest over all starts
    monkeypatch.setattr(tsirelson_module, "MAX_BRUTE_SUPPORT", 13)
    x = FinVec({j: Fraction(j % 5 + 1, 3) for j in range(start, start + labels)})
    tsirelson_norm_bruteforce(x)  # a warm-up, so only the call's own tables are traced
    tracemalloc.start()
    try:
        tsirelson_norm_bruteforce(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def _rational_vec(s: int, start: int) -> FinVec:
    rng = random.Random(f"{s}-{start}")
    return FinVec({j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                   for j in range(start, start + s)})


@pytest.mark.parametrize("s", [9, 10, 11, 12])
@pytest.mark.parametrize("start", [1, 2, 3, 5])
def test_bruteforce_matches_dp_at_large_supports(s, start):
    # states here have many top elements and long segments to take the best of
    x = _rational_vec(s, start)
    assert tsirelson_norm_bruteforce(x) == tsirelson_norm(x).value


def test_t2_bruteforce_matches_dp_at_support_11():
    sq = abs_square(_rational_vec(11, 3))
    assert tsirelson_norm_bruteforce(sq) == t2_norm_sq(_rational_vec(11, 3)).value


def _plan_digest(sup: tuple[int, ...]) -> str:
    slots, cells, root, levels = batch_module._modified_plan.__wrapped__(sup)
    h = hashlib.sha256(repr((slots, cells, root)).encode())
    for lo, a, b, starts, halves in levels:
        h.update(repr((lo, a.tolist(), b.tolist(), starts.tolist(), halves.tolist())).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("sup, digest", [
    ((1,), "17c9a753cf579efa"),
    ((1, 2), "4f4fe291b87b6f57"),
    ((1, 2, 3), "0bc5a831025589b0"),
    ((1, 2, 3, 4), "a4f4fc468b891541"),
    ((1, 2, 3, 4, 5), "b4e68f82fd94c83d"),
    ((1, 2, 3, 4, 5, 6), "2048b25ea132ce1d"),
    ((1, 2, 3, 4, 5, 6, 7), "3c05843dc03cc7bc"),
    ((1, 2, 3, 4, 5, 6, 7, 8), "1385929c9a8fce43"),
    ((1, 2, 3, 4, 5, 6, 7, 8, 9), "94d5b94a61835302"),
    ((3, 4, 5, 6, 7, 8, 9, 10), "3ba94f50192846d0"),
    ((2, 4, 5, 9, 11, 12, 20), "7f853ad98d982edc"),
    ((2, 3, 4, 5, 6, 7, 8, 9, 10, 11), "5b8e8ac143ee5490"),
])
def test_modified_plan_arrays_pinned(sup, digest):
    # _modified_rules is stated once for values and slots: the compiled state
    # graph (slot numbering, terms, levels) changes only with the rules
    assert _plan_digest(sup) == digest


# --------------------------------------------------------------------------
# oracle agreement and structural invariants
# --------------------------------------------------------------------------

def test_oracle_agreement_randomized(rng):
    for _ in range(60):
        x = random_finvec(rng, max_index=8)
        assert tsirelson_norm(x).value == tsirelson_norm_bruteforce(x)


def test_sandwich_and_units(rng):
    for j in (1, 2, 7, 30):
        assert tsirelson_norm(FinVec({j: 1})).value == 1
        assert t2_norm_sq(FinVec({j: 1})).value == 1
        assert modified_norm(FinVec({j: 1})) == 1
    for _ in range(120):
        x = random_finvec(rng)
        v = tsirelson_norm(x).value
        assert sup_norm(x) <= v <= l1_norm(x)


def test_unconditionality_and_restriction_monotonicity(rng):
    for _ in range(60):
        x = random_finvec(rng, max_index=8)
        signs = {j: rng.choice([-1, 1]) for j in x.support()}
        assert tsirelson_norm(flip_signs(x, signs)).value == tsirelson_norm(x).value
        A = rng.sample(range(1, 9), rng.randint(0, 7))
        assert tsirelson_norm(restrict(x, A)).value <= tsirelson_norm(x).value


def test_homogeneity_and_triangle(rng):
    for _ in range(40):
        x = random_finvec(rng, max_index=7)
        y = random_finvec(rng, max_index=7)
        c = rng.choice([Fraction(3), Fraction(-1, 2), Fraction(7, 3)])
        assert tsirelson_norm(c * x).value == abs(c) * tsirelson_norm(x).value
        assert (
            tsirelson_norm(x + y).value
            <= tsirelson_norm(x).value + tsirelson_norm(y).value
        )


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

def test_returned_certificates_validate(rng):
    for _ in range(60):
        x = random_finvec(rng, max_index=8)
        res = tsirelson_norm(x)
        assert certificate_value(res.certificate, x) == res.value
        assert validate_certificate(res.certificate, x)


def test_certificate_value_examples():
    assert certificate_value(Leaf(3), FinVec({3: -2})) == 2
    split = Split(2, (Part(3, 3, Leaf(3)), Part(4, 4, Leaf(4))))
    assert certificate_value(split, FinVec({3: 1, 4: 1})) == 1


def test_malformed_certificates():
    # min of first interval must exceed the threshold
    bad = Split(2, (Part(2, 2, Leaf(2)), Part(4, 4, Leaf(4))))
    with pytest.raises(MalformedCertificate):
        certificate_value(bad, FinVec({2: 1, 4: 1}))
    # too many children
    bad = Split(1, (Part(2, 2, Leaf(2)), Part(4, 4, Leaf(4))))
    with pytest.raises(MalformedCertificate):
        certificate_value(bad, FinVec())
    # overlapping intervals
    bad = Split(2, (Part(3, 5, Leaf(4)), Part(5, 6, Leaf(6))))
    with pytest.raises(MalformedCertificate):
        certificate_value(bad, FinVec())
    # leaf escaping its ancestor interval
    bad = Split(2, (Part(3, 4, Leaf(5)),))
    with pytest.raises(MalformedCertificate):
        certificate_value(bad, FinVec())
    # malformed => validate_certificate is False, not an exception
    assert not validate_certificate(NormCertificate(bad, Fraction(0)), FinVec())


def test_validate_rejects_wrong_value():
    x = FinVec({3: 1, 4: 1})
    cert = NormCertificate(Leaf(3), Fraction(7))
    assert not validate_certificate(cert, x)


def test_norming_functional_examples():
    assert norming_functional(Leaf(5)) == FinVec({5: 1})
    split = Split(2, (Part(3, 3, Leaf(3)), Part(4, 4, Leaf(4))))
    assert norming_functional(split) == FinVec({3: Fraction(1, 2), 4: Fraction(1, 2)})
    two_level = Split(
        2,
        (
            Part(3, 3, Leaf(3)),
            Part(4, 6, Split(4, (Part(5, 5, Leaf(5)), Part(6, 6, Leaf(6))))),
        ),
    )
    lam = norming_functional(two_level)
    assert lam[5] == Fraction(1, 4) and lam[6] == Fraction(1, 4) and lam[3] == Fraction(1, 2)


def test_norming_functional_is_dual_certificate(rng):
    lam_pool = []
    for _ in range(20):
        x = random_finvec(rng, max_index=8)
        lam_pool.append(norming_functional(tsirelson_norm(x).certificate))
    for _ in range(40):
        z = random_finvec(rng, max_index=8)
        nz = tsirelson_norm(z).value
        for lam in lam_pool:
            pairing = sum((lam[j] * abs(z[j]) for j in z.support()), Fraction(0))
            assert pairing <= nz


def test_certificate_json_round_trip(rng):
    for _ in range(20):
        x = random_finvec(rng, max_index=7)
        cert = tsirelson_norm(x).certificate
        obj = certificate_to_json(cert)
        assert certificate_from_json(obj) == cert


# --------------------------------------------------------------------------
# 2-convexified norms
# --------------------------------------------------------------------------

def test_t2_examples():
    assert t2_norm_sq(FinVec({3: 1, 4: 1})).value == 1
    assert t2_norm(FinVec({3: 1, 4: 1})) == 1.0
    assert t2_norm_sq(FinVec({7: 1})).value == 1
    assert t2_norm_sq(FinVec({3: 1, 4: 1, 5: 1, 6: 1})).value == Fraction(3, 2)


def test_t2_certificate_witnesses_squared_vector(rng):
    for _ in range(20):
        x = random_finvec(rng, max_index=7)
        res = t2_norm_sq(x)
        assert certificate_value(res.certificate, abs_square(x)) == res.value


# --------------------------------------------------------------------------
# modified norms
# --------------------------------------------------------------------------

def test_modified_examples():
    for j in (1, 2, 9):
        assert modified_norm(FinVec({j: 1})) == 1
    assert modified_norm(FinVec({1: 1, 2: 1})) == 1
    assert modified_norm(FinVec({1: 1, 2: 1, 3: 1})) == 1
    # the (n+1)^n budget first binds at n = 2: eleven ones from label 2 on
    # allow 9 blocks there, so ten singletons from label 3 win (not 11/2)
    assert modified_norm(FinVec({j: 1 for j in range(2, 13)})) == 5


_SPARSE_FROM_2 = FinVec({2: Fraction(5, 2), 3: 1, 5: Fraction(-7, 3), 8: 4, 9: Fraction(1, 2),
                         13: 3, 17: Fraction(-9, 4), 21: 2, 30: Fraction(5, 3), 31: 6,
                         40: Fraction(-1, 4), 55: Fraction(7, 2)})


@pytest.mark.parametrize("x, expected", [
    (_rational_vec(11, 1), Fraction(127, 8)),
    (_rational_vec(11, 2), Fraction(73, 6)),
    (_rational_vec(12, 1), Fraction(11)),
    (_rational_vec(12, 2), Fraction(73, 8)),
    # twelve labels >= 2: the nine-block budget at threshold 2 binds
    (_SPARSE_FROM_2, Fraction(655, 48)),
    # the best nine blocks at threshold 2 put {3, 4, 5, 6} in one block
    # (blocks of at most 3 labels reach only 133/4)
    (FinVec({2: 9, **{j: 1 for j in range(3, 7)}, **{j: 8 for j in range(7, 14)}}),
     Fraction(67, 2)),
], ids=["s11-at1", "s11-at2", "s12-at1", "s12-at2", "sparse12-at2", "four-label-block"])
def test_modified_values_where_the_budget_binds(x, expected):
    # recorded from the set-partition recursion this engine replaced
    assert modified_norm(x) == expected


def test_modified_t2_examples():
    assert modified_t2_norm_sq(FinVec({3: 1})) == 1
    assert modified_t2_norm_sq(FinVec({1: 1, 2: -1})) == 1
    assert modified_t2_norm_sq(FinVec({1: Fraction(1, 2)})) == Fraction(1, 4)


def test_modified_closed_left_endpoint():
    # threshold 2 admits blocks {2},{3},{4} (index 2 itself allowed), which
    # the base norm's strict inequality forbids
    assert modified_norm(FinVec({1: 1, 2: 1, 3: 1, 4: 1})) == Fraction(3, 2)
    assert modified_norm(FinVec({2: 1, 3: 1, 4: 1})) == Fraction(3, 2)
    assert tsirelson_norm(FinVec({1: 1, 2: 1, 3: 1, 4: 1})).value == 1


def test_oracle_agreement_sparse_supports(rng):
    pool = [Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1), Fraction(2), Fraction(3)]
    for _ in range(60):
        size = rng.randint(1, 6)
        idxs = rng.sample(range(1, 61), size)
        x = FinVec({j: rng.choice(pool) for j in idxs})
        assert tsirelson_norm(x).value == tsirelson_norm_bruteforce(x)


def test_modified_cap():
    with pytest.raises(SupportTooLarge):
        modified_norm(FinVec({j: 1 for j in range(1, 14)}))


def test_modified_dominates_base(rng):
    # every successive admissible family is also a disjoint family with a
    # budget no smaller, so the modified value can never be below the base one
    for _ in range(40):
        x = random_finvec(rng, max_index=7)
        assert modified_norm(x) >= tsirelson_norm(x).value


def test_modified_unconditional_and_homogeneous(rng):
    for _ in range(30):
        x = random_finvec(rng, max_index=6)
        signs = {j: rng.choice([-1, 1]) for j in x.support()}
        assert modified_norm(flip_signs(x, signs)) == modified_norm(x)
        assert modified_norm(Fraction(3, 2) * x) == Fraction(3, 2) * modified_norm(x)


# --------------------------------------------------------------------------
# interval DP: pinned outputs, properties, size limits
# --------------------------------------------------------------------------

_PIN_INDICES = {
    "offset-1": lambda rng, s: range(1, s + 1),
    "offset-quarter": lambda rng, s: range(max(1, s // 4), max(1, s // 4) + s),
    "offset-far": lambda rng, s: range(2 * s + 5, 3 * s + 5),
    "sparse": lambda rng, s: sorted(rng.sample(range(1, 4 * s + 2), s)),
}
_PIN_ENTRIES = {
    "fractions": lambda rng: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                      rng.choice([1, 2, 3, 4, 6])),
    "ones": lambda rng: rng.choice([-1, 1]),
    "one-two": lambda rng: rng.choice([-2, -1, 1, 2]),
}

# digest of (value, certificate JSON) for supports 0..40, recorded from the
# top-down memoized recursion: any change to a value or to the tie order that
# picks a certificate tree shows up here (flat search uses the trees as cuts)
NORM_PINS = [
    ("offset-1", "fractions", "9d800e302df273c3"),
    ("offset-1", "ones", "f74426ee4e6ac094"),
    ("offset-1", "one-two", "10711cb2092ee179"),
    ("offset-quarter", "fractions", "81e39d0f7d05c50d"),
    ("offset-quarter", "ones", "707098b316019939"),
    ("offset-quarter", "one-two", "ad105e45ee1c6804"),
    ("offset-far", "fractions", "0ed3c88a8c6db9bb"),
    ("offset-far", "ones", "60dffaf994860cd7"),
    ("offset-far", "one-two", "2a2b146316620abc"),
    ("sparse", "fractions", "51fe5eaef79c043b"),
    ("sparse", "ones", "6c33fc3b27c09458"),
    ("sparse", "one-two", "96d6d431a39ae52a"),
]


@pytest.mark.parametrize("indices,entries,digest", NORM_PINS)
def test_norm_certificates_pinned(indices, entries, digest):
    rng = random.Random(f"{indices}/{entries}")
    canon = []
    for s in range(41):
        idx = _PIN_INDICES[indices](rng, s)
        x = FinVec({j: _PIN_ENTRIES[entries](rng) for j in idx})
        res = tsirelson_norm(x)
        canon.append((str(res.value), certificate_to_json(res.certificate)))
    assert hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()[:16] == digest


_entries = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3]))


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.integers(1, 40), _entries, max_size=10))
def test_dp_matches_bruteforce_any_offsets(entries):
    x = FinVec(entries)
    res = tsirelson_norm(x)
    assert res.value == tsirelson_norm_bruteforce(x)
    assert certificate_value(res.certificate, x) == res.value


@st.composite
def _cert_trees(draw, lo=1, hi=16, depth=3):
    """Well-formed certificate trees whose leaves lie in [lo, hi]."""
    if depth == 0 or lo == hi or draw(st.integers(0, 3)) == 0:
        return Leaf(draw(st.integers(lo, hi)))
    n = draw(st.integers(1, hi - 1))
    start = max(n + 1, lo)
    if start > hi:
        return Leaf(draw(st.integers(lo, hi)))
    # successive parts [a, b - 1] between consecutive cuts, at most n of them
    cuts = sorted(draw(st.sets(st.integers(start, hi + 1), min_size=2, max_size=min(n, 4) + 1)))
    return Split(n, tuple(Part(a, b - 1, draw(_cert_trees(a, b - 1, depth - 1)))
                          for a, b in zip(cuts, cuts[1:])))


@settings(max_examples=150, deadline=None)
@given(_cert_trees(), st.dictionaries(st.integers(1, 16), _entries, max_size=10))
def test_random_certificate_is_a_lower_bound(tree, entries):
    x = FinVec(entries)
    value = certificate_value(tree, x)
    assert value <= tsirelson_norm(x).value
    lam = norming_functional(tree)
    assert sum((lam[j] * abs(x[j]) for j in x.support()), Fraction(0)) == value


# --------------------------------------------------------------------------
# both exhaustive recursions against their definitions
# --------------------------------------------------------------------------

def _successive_families(labels: tuple[int, ...], n: int):
    """Every family A_1 < ... < A_k of 2 <= k <= n nonempty subsets of the
    labels above n: a used set, cut into k runs of consecutive members."""
    above = [j for j in labels if j > n]
    for size in range(2, len(above) + 1):
        for used in itertools.combinations(above, size):
            for k in range(2, min(n, size) + 1):
                for cuts in itertools.combinations(range(1, size), k - 1):
                    bounds = (0, *cuts, size)
                    yield [used[a:b] for a, b in zip(bounds, bounds[1:])]


def _set_partitions(items: tuple[int, ...]):
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for blocks in _set_partitions(items[1:]):
        yield [(first,), *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], (first, *blocks[i]), *blocks[i + 1:]]


def _definitional_norm(x: FinVec, families) -> Fraction:
    """max(max_j |x_j|, 1/2 max over explicit thresholds n and the families
    ``families(labels, n)`` of the sum of the parts' norms), memoized on the
    label tuples of restrictions.  Families of fewer than two parts never
    attain the max, so they are left out and the recursion ends."""
    @functools.cache
    def norm(labels: tuple[int, ...]) -> Fraction:
        best = max(abs(x[j]) for j in labels)
        for n in range(1, labels[-1] + 1):
            for family in families(labels, n):
                best = max(best, sum(map(norm, family), Fraction(0)) / 2)
        return best

    return norm(tuple(x.support())) if len(x) else Fraction(0)


def _mod_partitions(labels: tuple[int, ...], n: int):
    """Partitions of the labels >= n into 2 .. (n+1)^n blocks."""
    for blocks in _set_partitions(tuple(j for j in labels if j >= n)):
        if 2 <= len(blocks) <= (n + 1) ** n:
            yield blocks


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(1, 9), _entries, max_size=6))
@example({1: Fraction(1), 2: Fraction(-1), 3: Fraction(1), 4: Fraction(1)})
@example({1: Fraction(2), 2: Fraction(1, 2), 5: Fraction(1), 6: Fraction(-3), 8: Fraction(1),
          9: Fraction(1, 3)})
def test_exhaustive_engines_match_their_definitions(entries):
    x = FinVec(entries)
    base = _definitional_norm(x, _successive_families)
    assert tsirelson_norm_bruteforce(x) == base == tsirelson_norm(x).value
    mod = _definitional_norm(x, _mod_partitions)
    assert modified_norm(x) == mod
    labels = x.support()
    den = math.lcm(*(v.denominator for _, v in x.items()))
    nums, scale = modified_norm_batch_exact([[int(abs(x[j]) * den) for j in labels]], labels)
    assert Fraction(nums[0], scale * den) == mod


def _covering_reference(x: FinVec) -> Fraction:
    """``modified_norm`` by the set-partition recursion: at every threshold
    n that is a label, every partition of the labels >= n into 2 ..
    min((n+1)^n, labels) blocks, one term per block holding the lowest
    label.  Memoized on bitmasks of label positions; slow past ~10 labels.
    It searches every budget, binding or not, so it shares nothing with the
    subadditivity argument of ``_modified_rules``."""
    labels = x.support()
    w = [abs(x[j]) for j in labels]

    @functools.cache
    def norm(mask: int) -> Fraction:
        ps = [p for p in range(len(labels)) if mask >> p & 1]
        best = max(w[p] for p in ps)
        for p in ps:
            tail = mask >> p << p  # positions >= p
            n, cnt = labels[p], tail.bit_count()
            t = cnt if n >= 5 else min((n + 1) ** n, cnt)
            if t >= 2:
                best = max(best, family(tail, t, 2) / 2)
        return best

    @functools.cache
    def family(mask: int, t: int, need: int) -> Fraction:
        # blocks covering mask, at most t of them and at least need
        low = mask & -mask
        rest = mask ^ low
        best, sub = None, rest
        while True:
            block, tail = low | sub, rest ^ sub
            if tail and t > 1:
                b = family(tail, min(t - 1, tail.bit_count()), max(need - 1, 0))
            else:
                b = None if tail or need > 1 else Fraction(0)
            if b is not None and (best is None or norm(block) + b > best):
                best = norm(block) + b
            if not sub:
                return best
            sub = (sub - 1) & rest

    return norm((1 << len(labels)) - 1) if labels else Fraction(0)


def _check_modified_engines(x: FinVec, expected: Fraction) -> None:
    """modified_norm, the exact batch and the float batch all give ``expected``."""
    assert modified_norm(x) == expected
    labels = x.support()
    den = math.lcm(*(v.denominator for _, v in x.items()))
    row = [[int(abs(x[j]) * den) for j in labels]]
    nums, scale = modified_norm_batch_exact(row, labels)
    assert Fraction(nums[0], scale * den) == expected
    assert modified_norm_batch(np.array(row, dtype=float), labels)[0] / den == pytest.approx(
        float(expected), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("offset", [1, 2, 3, 5])
@settings(max_examples=25, deadline=None)
@given(gaps=st.sets(st.integers(1, 9), max_size=6), data=st.data())
def test_modified_engines_match_the_covering_reference(offset, gaps, data):
    # the offset decides which budgets can bind: from label 1 every set
    # holding it is split in two at n = 1
    labels = [offset, *(offset + g for g in sorted(gaps))]
    x = FinVec(dict(zip(labels, data.draw(st.lists(_entries, min_size=len(labels),
                                                  max_size=len(labels))))))
    _check_modified_engines(x, _covering_reference(x))


@pytest.mark.parametrize("x", [
    _rational_vec(10, 1),
    _rational_vec(10, 2),  # ten labels >= 2: nine blocks at threshold 2
    FinVec({2: 9, **{j: 1 for j in range(3, 7)}, 7: 8, 8: 8, 9: 8, 10: 8, 11: 8}),
    FinVec({1: 3, 2: Fraction(5, 2), 4: 1, 5: Fraction(-7, 3), 8: 4, 9: Fraction(1, 2),
            13: 3, 17: Fraction(-9, 4), 21: 2, 30: Fraction(5, 3)}),
], ids=["s10-at1", "s10-at2", "light-middle-at2", "sparse10-at1"])
def test_modified_engines_match_the_covering_reference_at_ten_labels(x):
    _check_modified_engines(x, _covering_reference(x))


def _within_sum_of_roots(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """sqrt(a) <= sqrt(b) + sqrt(c), exactly, for a, b, c >= 0."""
    d = a - b - c
    return d <= 0 or d * d <= 4 * b * c


_maybe_zero = st.one_of(st.just(Fraction(0)), _entries)


@st.composite
def _vector_pairs(draw, max_labels=7):
    """Two vectors on one label set of at most ``max_labels`` indices."""
    labels = sorted(draw(st.sets(st.integers(1, 15), max_size=max_labels)))
    x, y = (FinVec(dict(zip(labels, draw(st.lists(_maybe_zero, min_size=len(labels),
                                                     max_size=len(labels))))))
            for _ in range(2))
    return x, y, labels


@pytest.mark.parametrize("norm_sq", [lambda x: t2_norm_sq(x).value, modified_t2_norm_sq],
                         ids=["T2", "mod2"])
@settings(max_examples=60, deadline=None)
@given(pair=_vector_pairs(), c=_entries, signs=st.lists(st.sampled_from([-1, 1]), min_size=7,
                                                        max_size=7))
def test_convexified_norm_axioms(norm_sq, pair, c, signs):
    x, y, labels = pair
    nx = norm_sq(x)
    assert norm_sq(c * x) == c * c * nx
    assert _within_sum_of_roots(norm_sq(x + y), nx, norm_sq(y))
    # 1-unconditional: sign changes keep the norm, and restrictions lower it
    assert norm_sq(flip_signs(x, dict(zip(labels, signs)))) == nx
    assert norm_sq(restrict(x, labels[::2])) <= nx


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_dp_is_not_recursive():
    # a top-down recursion over support 150 needs hundreds of frames
    x = FinVec({j: Fraction(j % 7 + 1, 3) for j in range(1000, 1150)})
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        res = tsirelson_norm(x)
    finally:
        sys.setrecursionlimit(previous)
    assert res.stats.expansions == 150 * 151 // 2
    assert certificate_value(res.certificate, x) == res.value


def test_dp_support_cap_checked_first(monkeypatch):
    # at cap + 1 the check must come before the plan and table allocation
    monkeypatch.setattr("banach_gauge.tsirelson._interval_plan",
                        lambda sup: pytest.fail("the DP ran past its support cap"))
    with pytest.raises(SupportTooLarge, match=str(MAX_DP_SUPPORT)):
        tsirelson_norm(FinVec({j: 1 for j in range(1, MAX_DP_SUPPORT + 2)}))


# --------------------------------------------------------------------------
# batched float evaluation
# --------------------------------------------------------------------------

_weights = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                     st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def _batches(draw):
    """(rows, indices): s <= 10 sorted labels <= 40, zero entries, ties, zero rows."""
    indices = sorted(draw(st.sets(st.integers(1, 40), max_size=10)))
    s = len(indices)
    rows = draw(st.lists(st.lists(_weights, min_size=s, max_size=s), min_size=1, max_size=6))
    rows.append([0.0] * s)
    return np.array(rows, dtype=float).reshape(len(rows), s), indices


def _row_vec(row, indices):
    return FinVec({j: Fraction(v) for j, v in zip(indices, row) if v})


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_batch_matches_exact_dp(batch):
    rows, indices = batch
    got = tsirelson_norm_batch(rows, indices)
    for row, value in zip(rows, got):
        expected = float(tsirelson_norm(_row_vec(row, indices)).value)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(_batches())
def test_batch_of_squares_matches_t2_norm(batch):
    rows, indices = batch
    got = np.sqrt(tsirelson_norm_batch(rows**2, indices))
    for row, value in zip(rows, got):
        assert value == pytest.approx(t2_norm(_row_vec(row, indices)), rel=1e-12, abs=0.0)


def test_batch_in_chunks_matches_rows_one_by_one(monkeypatch):
    rng = np.random.default_rng(3)
    indices = [2, 3, 5, 9]
    rows = np.abs(rng.standard_normal((11, 4)))
    rows[4] = 0.0
    one_by_one = [tsirelson_norm_batch(row[None, :], indices)[0] for row in rows]
    chunks = []
    run_plan = batch_module._run_plan
    monkeypatch.setattr(batch_module, "_BATCH_CELLS", 3 * 16)  # 3 rows per chunk
    monkeypatch.setattr(batch_module, "_run_plan",
                        lambda plan, wt: chunks.append(wt.shape[1]) or run_plan(plan, wt))
    assert tsirelson_norm_batch(rows, indices).tolist() == one_by_one
    assert chunks == [3, 3, 3, 2]


def test_batch_support_cap_checked_first(monkeypatch):
    monkeypatch.setattr(batch_module, "_interval_plan",
                        lambda sup: pytest.fail("the batch ran past its support cap"))
    with pytest.raises(SupportTooLarge, match=str(MAX_DP_SUPPORT)):
        tsirelson_norm_batch(np.ones((1, MAX_DP_SUPPORT + 1)), range(1, MAX_DP_SUPPORT + 2))


@pytest.mark.parametrize("weights,indices", [
    (np.ones((2, 2)), [3, 3]),
    (np.ones((2, 2)), [0, 1]),
    (np.ones((2, 3)), [1, 2]),
    (-np.ones((2, 2)), [1, 2]),
])
def test_batch_rejects_bad_input(weights, indices):
    with pytest.raises(DomainError):
        tsirelson_norm_batch(weights, indices)


def test_batch_empty_support_and_no_rows():
    assert tsirelson_norm_batch(np.zeros((3, 0)), []).tolist() == [0.0, 0.0, 0.0]
    assert tsirelson_norm_batch(np.zeros((0, 2)), [4, 7]).shape == (0,)


# --------------------------------------------------------------------------
# exact batches: the interval plan and the compiled mod plan on integers
# --------------------------------------------------------------------------

_ints = st.one_of(st.just(0), st.integers(1, 9), st.integers(0, 10**6))


@st.composite
def _int_batches(draw, max_labels=7):
    """(rows, indices): integer weights on s <= max_labels sorted labels <= 15,
    three to seven rows, one of them zero."""
    indices = sorted(draw(st.sets(st.integers(1, 15), max_size=max_labels)))
    s = len(indices)
    rows = draw(st.lists(st.lists(_ints, min_size=s, max_size=s), min_size=2, max_size=6))
    rows.append([0] * s)
    return np.array(rows, dtype=np.int64).reshape(len(rows), s), indices


def _int_vec(row, indices):
    return FinVec({j: int(v) for j, v in zip(indices, row)})


@settings(max_examples=120, deadline=None)
@given(_int_batches())
def test_exact_batches_match_recursive_engines(batch):
    rows, indices = batch
    t_nums, t_scale = tsirelson_norm_batch_exact(rows, indices)
    m_nums, m_scale = modified_norm_batch_exact(rows, indices)
    floats = modified_norm_batch(rows.astype(float), indices)
    for row, t_num, m_num, m_float in zip(rows, t_nums, m_nums, floats):
        x = _int_vec(row, indices)
        assert Fraction(t_num, t_scale) == tsirelson_norm(x).value
        assert Fraction(m_num, m_scale) == modified_norm(x)
        assert m_float == pytest.approx(float(modified_norm(x)), rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(_int_batches(), st.integers(-2, 2))
def test_int64_and_object_columns_agree(batch, offset):
    # entries at the edge of the int64 bound: just below it the columns are
    # int64, just above it Python ints, and both equal the recursive engines
    rows, indices = batch
    s = len(indices)
    if s == 0:
        return
    edge = batch_module.INT64_BOUND // (s << (s - 1))
    rows = rows.astype(object)
    rows[0, 0] = edge + offset
    cols, _ = batch_module._exact_columns(rows, s)
    top = max(int(v) for v in rows.flat)
    assert (cols.dtype == np.int64) == (top * s << (s - 1) < batch_module.INT64_BOUND)
    t_nums, t_scale = tsirelson_norm_batch_exact(rows, indices)
    m_nums, m_scale = modified_norm_batch_exact(rows, indices)
    for row, t_num, m_num in zip(rows, t_nums, m_nums):
        x = _int_vec(row, indices)
        assert Fraction(t_num, t_scale) == tsirelson_norm(x).value
        assert Fraction(m_num, m_scale) == modified_norm(x)
    if cols.dtype == np.int64:
        plan, mod_plan = tsirelson_module._interval_plan(tuple(indices)), \
            batch_module._modified_plan(tuple(indices))
        as_int64 = np.ascontiguousarray(cols.T)
        as_ints = as_int64.astype(object)
        run, run_mod = batch_module._run_plan, batch_module._run_modified_plan
        assert run(plan, as_int64).tolist() == run(plan, as_ints).tolist()
        assert run_mod(mod_plan, as_int64).tolist() == run_mod(mod_plan, as_ints).tolist()


@settings(max_examples=80, deadline=None)
@given(_int_batches(max_labels=5), st.sets(st.integers(1, 15), max_size=4))
def test_zero_weight_labels_change_no_value(batch, extra):
    # the union-support evaluation of sign sums relies on this, for T and mod
    rows, indices = batch
    wide = sorted(set(indices) | extra)
    padded = np.zeros((len(rows), len(wide)), dtype=np.int64)
    padded[:, [wide.index(j) for j in indices]] = rows
    for exact in (tsirelson_norm_batch_exact, modified_norm_batch_exact):
        nums, scale = exact(rows, indices)
        wide_nums, wide_scale = exact(padded, wide)
        assert [Fraction(a, scale) for a in nums] == [Fraction(a, wide_scale) for a in wide_nums]
    for floats in (tsirelson_norm_batch, modified_norm_batch):
        np.testing.assert_allclose(floats(padded.astype(float), wide),
                                   floats(rows.astype(float), indices), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("batch", [tsirelson_norm_batch_exact, modified_norm_batch_exact])
@pytest.mark.parametrize("weights", [np.full((3, 2), 0.5), np.array([[1, -1]] * 3),
                                     np.array([[Fraction(1), 2]] * 3, dtype=object)])
def test_exact_batches_reject_non_integers(batch, weights):
    with pytest.raises(DomainError):
        batch(weights, [1, 2])


def test_mod_batch_support_cap():
    cap = tsirelson_module.MAX_MODIFIED_SUPPORT
    with pytest.raises(SupportTooLarge, match=str(cap)):
        modified_norm_batch(np.ones((4, cap + 1)), range(1, cap + 2))


# --------------------------------------------------------------------------
# the interval plan
# --------------------------------------------------------------------------

@st.composite
def _far_vectors(draw):
    """Supports of size s <= MAX_DP_SUPPORT starting at index >= s + 1."""
    s = draw(st.integers(1, MAX_DP_SUPPORT))
    start = draw(st.integers(s + 1, 3 * s + 3))
    gaps = draw(st.lists(st.integers(1, 3), min_size=s - 1, max_size=s - 1))
    indices = [start]
    for g in gaps:
        indices.append(indices[-1] + g)
    values = draw(st.lists(_entries, min_size=s, max_size=s))
    return FinVec(dict(zip(indices, values)))


@settings(max_examples=20, deadline=None)
@given(_far_vectors())
@example(FinVec({j: Fraction(j % 7 - 3, j % 3 + 1) or 1 for j in range(201, 401)}))
def test_far_support_closed_form(x):
    # with min support >= s + 1 every split into singletons is admissible and
    # ||y||_T <= ||y||_1, so the norm is max(||x||_inf, ||x||_1 / 2): a check
    # of the plan that shares no code with it, at supports the brute oracle
    # cannot reach
    assert tsirelson_norm(x).value == max(sup_norm(x), l1_norm(x) / 2)
    sq = abs_square(x)
    assert t2_norm_sq(x).value == max(sup_norm(sq), l1_norm(sq) / 2)


@pytest.mark.parametrize("start", [1, 100])
def test_cached_plan_is_small(start):
    build = tsirelson_module._interval_plan.__wrapped__
    tracemalloc.start()
    try:
        plan = build(tuple(range(start, start + MAX_DP_SUPPORT)))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan and held <= 4 << 20
