import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banach_gauge import (
    AllPointsCoincide,
    BadEpsilon,
    DomainError,
    EmbeddingFailed,
    LinearMap,
    MTooLarge,
    PointSet,
    RatioUndefined,
    SpaceOracle,
    WalshEnsemble,
    caratheodory_reduce,
    distortion_of_map,
    fwht,
    jl_embed,
    jl_mechanism_experiment,
    walsh_orthogonality_check,
    walsh_pointset,
)
from banach_gauge.jl import WALSH_M_CAP
from banach_gauge.seeds import derive_seed


# --------------------------------------------------------------------------
# references: the condensed pair-array computation the row scan replaced
# --------------------------------------------------------------------------

def _ref_euclidean_pdists(pts):
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.clip(d2, 0.0, None, out=d2)
    iu, ju = np.triu_indices(len(pts), k=1)
    out = np.sqrt(d2[iu, ju])
    _, inv = np.unique(pts, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    out[inv[iu] == inv[ju]] = 0.0
    return out


def _ref_pair_norms(pts, oracle):
    if oracle is None:
        return _ref_euclidean_pdists(pts)
    iu, ju = np.triu_indices(len(pts), k=1)
    return oracle.norm_array(pts[iu] - pts[ju])


def _ref_ratio_report(src, tgt, n):
    """(min, max, distortion, argmin, argmax), or the error it raises."""
    iu, ju = np.triu_indices(n, k=1)
    keep = ~((src == 0) & (tgt == 0))
    if not np.any(keep):
        return AllPointsCoincide
    bad = (src == 0) & (tgt > 0)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        return RatioUndefined, (int(iu[k]), int(ju[k]))
    ratios = tgt[keep] / src[keep]
    ik, jk = iu[keep], ju[keep]
    a_min, a_max = int(np.argmin(ratios)), int(np.argmax(ratios))
    min_r, max_r = float(ratios[a_min]), float(ratios[a_max])
    return (min_r, max_r, max_r / min_r if min_r > 0 else math.inf,
            (int(ik[a_min]), int(jk[a_min])), (int(ik[a_max]), int(jk[a_max])))


def _report_or_error(call):
    try:
        rep = call()
    except AllPointsCoincide:
        return AllPointsCoincide
    except RatioUndefined as exc:
        return RatioUndefined, tuple(int(w) for w in str(exc).split()[1:4:2])
    return rep.min_ratio, rep.max_ratio, rep.distortion, rep.argmin, rep.argmax


def _same(a, b):
    """Equal, with NaN equal to NaN: the reports must agree bit for bit."""
    return repr(a) == repr(b)


# --------------------------------------------------------------------------
# transform
# --------------------------------------------------------------------------

def _ref_fwht(a):
    a = np.array(a, dtype=float)
    n = a.shape[0]
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            x = a[start : start + h].copy()
            y = a[start + h : start + 2 * h]
            a[start : start + h] = x + y
            a[start + h : start + 2 * h] = x - y
        h *= 2
    return a


@pytest.mark.parametrize("shape", [(1,), (2, 3), (16,), (64, 5), (1 << 12, 8), (8, 2, 3), (4, 0)])
def test_fwht_bit_identical_to_block_loop(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    z = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    assert fwht(z).tobytes() == _ref_fwht(z).tobytes()
    if z.ndim == 2:  # a Fortran-ordered input is transformed, not a copy of it
        f = np.asfortranarray(z)
        assert fwht(f).tobytes() == _ref_fwht(z).tobytes()


def test_fwht_matches_direct_definition():
    rng = np.random.default_rng(0)
    m = 4
    z = rng.standard_normal((1 << m, 3))
    out = fwht(z)
    for e in range(1 << m):
        direct = sum(
            (-1) ** bin(e & a).count("1") * z[a] for a in range(1 << m)
        )
        assert np.allclose(out[e], direct, atol=1e-12)


# --------------------------------------------------------------------------
# distortion measurement
# --------------------------------------------------------------------------

def _corner_points():
    return PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def test_identity_map_distortion_one():
    rep = distortion_of_map(_corner_points(), LinearMap(np.eye(2)))
    assert rep.distortion == 1.0


def test_scaled_identity():
    rep = distortion_of_map(_corner_points(), LinearMap(np.eye(2), scale=2.0))
    assert rep.min_ratio == rep.max_ratio == 2.0
    assert rep.distortion == 1.0


def test_l1_to_l2_four_points_sqrt2():
    rep = distortion_of_map(
        _corner_points(), LinearMap(np.eye(2)), source_norm=SpaceOracle("l1", 2)
    )
    assert rep.distortion == pytest.approx(math.sqrt(2), rel=1e-12)
    # diagonal pairs contract by exactly 1/sqrt(2), axis pairs keep ratio 1
    assert rep.min_ratio == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)


def test_scale_covariance():
    pts = PointSet(np.random.default_rng(1).standard_normal((6, 3)))
    m = np.random.default_rng(2).standard_normal((2, 3))
    r1 = distortion_of_map(pts, LinearMap(m))
    r3 = distortion_of_map(pts, LinearMap(m, scale=3.0))
    assert r3.min_ratio == pytest.approx(3 * r1.min_ratio, rel=1e-12)
    assert r3.max_ratio == pytest.approx(3 * r1.max_ratio, rel=1e-12)
    assert r3.distortion == pytest.approx(r1.distortion, rel=1e-12)


def test_all_points_coincide():
    with pytest.raises(AllPointsCoincide):
        distortion_of_map(PointSet(np.ones((3, 2))), LinearMap(np.eye(2)))


def test_ratio_undefined_for_degenerate_source_seminorm():
    degenerate = SpaceOracle("polytope", 2, [[1, 0]])  # blind to the second axis
    pts = PointSet(np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(RatioUndefined):
        distortion_of_map(pts, LinearMap(np.eye(2)), source_norm=degenerate)


_SOURCE_NORMS = {
    "euclidean": lambda d: None,
    "l1": lambda d: SpaceOracle("l1", d),
    "linf": lambda d: SpaceOracle("linf", d),
    # sees only the first axis, so rows can coincide in the source only
    "blind": lambda d: SpaceOracle("polytope", d, [[1] + [0] * (d - 1)]),
}


@st.composite
def _clouds(draw):
    """Small clouds drawn from a pool of few rows, so duplicated points and
    tied ratios are common, plus an integer map that may collapse pairs."""
    d = draw(st.integers(1, 3))
    entry = st.integers(-2, 2).map(float)
    pool = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=2, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=7))
    pts = np.array([pool[k] for k in draw(st.permutations([0, 1] + picks))])
    if draw(st.booleans()):
        pts = pts * draw(st.sampled_from([0.1, 1 / 3, 1e-3, 7.0]))
    k = draw(st.integers(1, 3))
    M = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=k, max_size=k)))
    return pts, M


@settings(max_examples=400, deadline=None)
@given(_clouds(), st.sampled_from(sorted(_SOURCE_NORMS)))
def test_scan_equals_condensed_reference(cloud, source):
    pts, M = cloud
    src_norm = _SOURCE_NORMS[source](pts.shape[1])
    lmap = LinearMap(M)
    got = _report_or_error(lambda: distortion_of_map(PointSet(pts), lmap, src_norm))
    want = _ref_ratio_report(_ref_pair_norms(pts, src_norm),
                             _ref_euclidean_pdists(lmap.apply(pts)), len(pts))
    assert _same(got, want)


def test_scan_cases_named():
    # all rows equal; first tie in condensed order; coincide in the source only
    eye = LinearMap(np.eye(2))
    with pytest.raises(AllPointsCoincide):
        distortion_of_map(PointSet(np.full((5, 2), 3.0)), eye)
    square = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    rep = distortion_of_map(square, eye)
    assert (rep.argmin, rep.argmax, rep.distortion) == ((0, 1), (0, 1), 1.0)
    blind = SpaceOracle("polytope", 2, [[1, 0]])
    with pytest.raises(RatioUndefined, match="points 0 and 3 "):
        distortion_of_map(square, eye, source_norm=blind)


def test_scan_spans_many_row_blocks():
    # enough points that the scan and the distance builders use many blocks;
    # duplicates far apart in the row order and a tie planted late
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((700, 4)).round(2)
    pts[650] = pts[3]
    pts[699] = pts[120]
    # 2 I doubles every Euclidean distance exactly, so all those ratios tie
    for M in (rng.standard_normal((3, 4)), 2 * np.eye(4)):
        for src_norm in (SpaceOracle("l1", 4), None):
            lmap = LinearMap(M)
            got = _report_or_error(lambda: distortion_of_map(PointSet(pts), lmap, src_norm))
            want = _ref_ratio_report(_ref_pair_norms(pts, src_norm),
                                     _ref_pair_norms(lmap.apply(pts), None), len(pts))
            assert _same(got, want)
    assert got[:2] == (2.0, 2.0) and got[3] == got[4] == (0, 1)


def test_scan_orders_nan_first_across_blocks():
    # one pair, late in the scan, coincides in the source and overflows in the
    # target: its NaN ratio is the extreme, as np.argmin/np.argmax have it
    rng = np.random.default_rng(4)
    pts = np.column_stack([np.arange(700.0), rng.standard_normal(700)])
    pts[650], pts[690] = [650.0, 1e200], [650.0, 2e200]
    blind = SpaceOracle("polytope", 2, [[1, 0]])
    lmap = LinearMap(np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _report_or_error(lambda: distortion_of_map(PointSet(pts), lmap, blind))
        want = _ref_ratio_report(_ref_pair_norms(pts, blind),
                                 _ref_pair_norms(lmap.apply(pts), None), len(pts))
    assert _same(got, want)
    assert got[3] == got[4] == (650, 690) and math.isnan(got[0])


@settings(max_examples=150, deadline=None)
@given(_clouds(), st.integers(0, 2**32 - 1))
def test_jl_embed_report_equals_condensed_reference(cloud, seed):
    pts, _ = cloud
    try:
        lmap, rep = jl_embed(pts, eps=0.9, seed=seed, max_retries=1)
    except EmbeddingFailed as exc:
        lmap, rep = exc.best_map, exc.best_report
    except AllPointsCoincide:
        assert _ref_ratio_report(_ref_euclidean_pdists(pts), _ref_euclidean_pdists(pts),
                                 len(pts)) is AllPointsCoincide
        return
    src = _ref_euclidean_pdists(pts)
    want = _ref_ratio_report(src, _ref_euclidean_pdists(LinearMap(lmap.matrix).apply(pts)),
                             len(pts))
    min_r, _, distortion, argmin, argmax = want
    assert lmap.scale == 1.0 / min_r
    assert _same((rep.min_ratio, rep.max_ratio, rep.distortion, rep.argmin, rep.argmax),
                 (1.0, distortion, distortion, argmin, argmax))


# --------------------------------------------------------------------------
# random projection
# --------------------------------------------------------------------------

def test_two_points_embed_exactly():
    pts = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
    lmap, rep = jl_embed(pts, eps=0.5, seed=0)
    assert rep.min_ratio == 1.0
    assert rep.distortion == 1.0


def test_bad_epsilon():
    pts = np.zeros((3, 2))
    with pytest.raises(BadEpsilon):
        jl_embed(pts, eps=0.0)
    with pytest.raises(BadEpsilon):
        jl_embed(pts, eps=1.5)


def test_target_dimension_formula():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 400))
    lmap, rep = jl_embed(pts, eps=0.9, constant=8.0, seed=1)
    assert lmap.target_dim == math.ceil(8.0 * math.log(50) / 0.81)
    assert rep.distortion <= 1.9
    assert rep.min_ratio == 1.0


def test_embed_deterministic_for_seed():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((20, 30))
    m1, r1 = jl_embed(pts, eps=0.8, seed=9)
    m2, r2 = jl_embed(pts, eps=0.8, seed=9)
    assert np.array_equal(m1.matrix, m2.matrix) and m1.scale == m2.scale
    assert r1 == r2


def test_capped_dimension_gives_isometry():
    # when the dimension formula exceeds the source dimension the draw is a
    # full orthogonal matrix, an exact isometry up to the normalization
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((40, 5))
    lmap, rep = jl_embed(pts, eps=0.05, seed=2)
    assert lmap.target_dim == 5
    assert rep.distortion == pytest.approx(1.0, abs=1e-9)


def test_embedding_failed_carries_best_attempt():
    # a deliberately starved dimension budget cannot meet the target
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((200, 400))
    with pytest.raises(EmbeddingFailed) as exc:
        jl_embed(pts, eps=0.2, constant=0.5, seed=2, max_retries=3)
    assert exc.value.best_report is not None
    assert exc.value.best_report.distortion > 1.2


def test_jl_embed_one_dimensional_points_is_a_domain_error():
    with pytest.raises(DomainError, match=r"\(n, dim\) array"):
        jl_embed(np.zeros(5), 0.5)
    ragged = [[1.0, 2.0], [3.0]]  # rows of mixed lengths
    for call in (lambda: jl_embed(ragged, 0.5), lambda: PointSet(ragged),
                 lambda: LinearMap(ragged), lambda: WalshEnsemble.from_vectors(ragged),
                 lambda: walsh_orthogonality_check(ragged),
                 lambda: jl_mechanism_experiment(SpaceOracle("l2", 2), ragged)):
        with pytest.raises(DomainError, match=r"\(n, dim\) array"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_jl_embed_non_finite_points_is_a_domain_error(bad):
    pts = np.arange(12.0).reshape(4, 3)
    pts[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any distance is computed
        with pytest.raises(DomainError, match="points must be finite"):
            jl_embed(pts, 0.5)
        for call, what in ((lambda: PointSet(pts), "points"), (lambda: LinearMap(pts), "matrix"),
                           (lambda: WalshEnsemble.from_vectors(pts), "vectors"),
                           (lambda: walsh_orthogonality_check(pts), "z"),
                           (lambda: jl_mechanism_experiment(SpaceOracle("l2", 3), pts), "family")):
            with pytest.raises(DomainError, match=f"{what} must be finite"):
                call()
        # a map with a non-finite entry or scale would make the ratios NaN or inf
        with pytest.raises(DomainError, match="matrix must be finite"):
            distortion_of_map(PointSet([[0.0, 1.0], [1.0, 0.0]]), LinearMap([[bad, 1.0]]))
        with pytest.raises(DomainError, match="scale must be positive and finite"):
            LinearMap(np.eye(2), bad)


def test_distortion_of_map_dimension_mismatch_is_a_domain_error():
    with pytest.raises(DomainError, match="source_dim 3 != point dim 2"):
        distortion_of_map(_corner_points(), LinearMap(np.eye(3)))
    with pytest.raises(DomainError, match="source norm dim 3 != point dim 2"):
        distortion_of_map(_corner_points(), LinearMap(np.eye(2)), SpaceOracle("l1", 3))


def _traced_peak_mib(call):
    call()  # warm-up: first-call caches are not the distance layer
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_jl_embed_holds_no_pair_matrix():
    # one n x n float64 matrix at n = 2000 is 30.5 MiB; the bands are ~0.5 MiB
    pts = np.random.default_rng(24).standard_normal((2000, 100))
    assert _traced_peak_mib(lambda: jl_embed(pts, 0.5, seed=1)) < 8


def test_oracle_distortion_holds_no_pair_matrix():
    rng = np.random.default_rng(25)
    pts = PointSet(rng.standard_normal((1000, 8)))
    lmap = LinearMap(rng.standard_normal((4, 8)))
    l1 = SpaceOracle("l1", 8)
    assert _traced_peak_mib(lambda: distortion_of_map(pts, lmap, l1)) < 6


# --------------------------------------------------------------------------
# Walsh point sets
# --------------------------------------------------------------------------

def test_walsh_m1_hand_example():
    u = np.array([1.0, 0.0, 2.0])
    v = np.array([0.0, 1.0, -1.0])
    ens = WalshEnsemble(np.array([u, v]), np.array([1.0, 1.0]))
    pset = walsh_pointset(ens)
    expected = {tuple(u + v), tuple(u - v), tuple(u), tuple(v), (0.0, 0.0, 0.0)}
    assert {tuple(p) for p in pset.points} == expected


def test_walsh_m2_parseval_with_unit_weights():
    base = np.eye(4)
    ens = WalshEnsemble(base, np.ones(4))
    pset = walsh_pointset(ens)
    phi = pset.points[:4]
    assert np.allclose(np.sum(phi**2, axis=1), 4.0)


def test_walsh_sizes():
    rng = np.random.default_rng(4)
    ens = WalshEnsemble.from_vectors(rng.standard_normal((8, 5)), seed=11)
    assert ens.m == 3
    pset = walsh_pointset(ens)
    assert len(pset) == 2**4 + 1 == 17
    assert len(np.unique(pset.points, axis=0)) == 17


def test_walsh_padding_rule():
    rng = np.random.default_rng(6)
    for k in (1, 2, 3, 5, 9):
        ens = WalshEnsemble.from_vectors(rng.standard_normal((k, 2)), seed=0)
        assert len(ens.base) == 1 << ens.m
        if k >= 2:
            assert 2 ** (ens.m - 1) < k <= 2**ens.m


def test_walsh_cap_checked_before_allocation():
    # 2^(cap+1) x 2 floats would be allocated if the cap were checked later
    with pytest.raises(MTooLarge):
        WalshEnsemble.from_vectors([[1.0, 2.0]], m=WALSH_M_CAP + 1)


def test_walsh_huge_m_ends_in_a_library_error():
    # 2^m is compared by bit length, never built: a huge m used to end in a
    # MemoryError or OverflowError
    for m in (2**62, 2**70):
        with pytest.raises(MTooLarge):
            WalshEnsemble.from_vectors([[1.0, 2.0]], m=m)


def test_walsh_family_size_against_2_to_the_m():
    for rows, m, fits in ((4, 2, True), (5, 2, False), (1, 1, True), (3, 2, True)):
        if fits:
            assert WalshEnsemble.from_vectors(np.ones((rows, 2)), m=m).m == m
        else:
            with pytest.raises(DomainError):
                WalshEnsemble.from_vectors(np.ones((rows, 2)), m=m)
    for rows in (3, 5, 1, 0):
        with pytest.raises(DomainError):  # 2^m rows with m >= 1, or refused
            WalshEnsemble(np.zeros((rows, 2)), np.ones(rows))


def test_walsh_m_is_read_off_the_rows():
    assert [f.name for f in dataclasses.fields(WalshEnsemble)] == ["base", "gaussians"]
    for m in (1, 3):
        assert WalshEnsemble(np.zeros((1 << m, 2)), np.ones(1 << m)).m == m
    over = 1 << (WALSH_M_CAP + 1)
    with pytest.raises(MTooLarge):  # the cap holds for a directly built ensemble too
        WalshEnsemble(np.zeros((over, 1)), np.ones(over))
    with pytest.raises(MTooLarge):
        walsh_orthogonality_check(np.zeros((over, 1)))
    with pytest.raises(DomainError):
        WalshEnsemble(np.zeros((4, 2)), np.ones(8))
    for rows in (3, 1):
        with pytest.raises(DomainError):
            walsh_orthogonality_check(np.zeros((rows, 2)))


def test_orthogonality_check_examples():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((8, 4))
    res = walsh_orthogonality_check(z)
    assert res.passed and res.residual <= 1e-10
    zero = walsh_orthogonality_check(np.zeros((4, 3)))
    assert zero.lhs == zero.rhs == 0.0
    hand = walsh_orthogonality_check(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert hand.lhs == pytest.approx(2.0) and hand.rhs == pytest.approx(2.0)


def test_sign_flipped_weights_permute_the_point_set():
    # reweighting with the character of any fixed sign vector must reproduce
    # the same pairwise-distance multiset, bit for bit
    rng = np.random.default_rng(21)
    base = rng.standard_normal((8, 3))
    g = rng.standard_normal(8)
    p0 = walsh_pointset(WalshEnsemble(base, g)).points
    for e0 in (1, 5, 7):
        signs = np.array([(-1.0) ** bin(a & e0).count("1") for a in range(8)])
        p1 = walsh_pointset(WalshEnsemble(base, signs * g)).points
        d0 = np.sort(np.linalg.norm(p0[:, None, :] - p0[None, :, :], axis=2), axis=None)
        d1 = np.sort(np.linalg.norm(p1[:, None, :] - p1[None, :, :], axis=2), axis=None)
        assert np.array_equal(d0, d1)


# --------------------------------------------------------------------------
# mechanism experiment
# --------------------------------------------------------------------------

def test_mechanism_hilbert_tight():
    # orthonormal family in a roomy ambient space, so the target dimension is
    # not capped and the draws concentrate
    space = SpaceOracle("l2", 100)
    rep = jl_mechanism_experiment(space, np.eye(100)[:4], eps=0.5, seed=3, trials=5)
    assert rep.max_ratio <= 1.0 + 1e-9
    for t in rep.trials:
        assert t.delta_proxy == pytest.approx(1.0, abs=1e-9)
        assert t.ratio == pytest.approx(1.0 / t.d_composite**2, rel=1e-9)
        assert t.d_composite <= 1.5


def test_mechanism_l1_inequality_never_violated():
    space = SpaceOracle("l1", 2)
    family = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    rep = jl_mechanism_experiment(space, family, eps=0.5, seed=17, trials=25)
    assert len(rep.trials) == 25
    assert all(t.ratio <= 1.0 + 1e-9 for t in rep.trials)
    assert all(t.d_composite <= t.d_jl * t.delta_proxy + 1e-9 for t in rep.trials)


_MECHANISM_SPACES = {"l1": lambda d: SpaceOracle("l1", d),
                     "linf": lambda d: SpaceOracle("linf", d),
                     "T": lambda d: SpaceOracle("T", d)}


@st.composite
def _families(draw):
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2).map(float), min_size=d, max_size=d)
    return draw(st.lists(row, min_size=1, max_size=8).filter(lambda V: np.any(V)))


@settings(max_examples=60, deadline=None)
@given(_families(), st.sampled_from(sorted(_MECHANISM_SPACES)), st.integers(0, 2**32 - 1))
def test_mechanism_shared_source_scan_equals_condensed_reference(family, tag, seed):
    # the Walsh point set holds the origin and zero-padded base rows, so
    # duplicate points are common
    space = _MECHANISM_SPACES[tag](len(family[0]))
    rep = jl_mechanism_experiment(space, family, eps=0.9, seed=seed, trials=2)
    for t in rep.trials:
        ens = WalshEnsemble.from_vectors(family, seed=derive_seed(seed, "walsh-g", t.trial))
        pts = walsh_pointset(ens).points
        lmap, _ = jl_embed(pts, 0.9, seed=derive_seed(seed, "jl", t.trial))
        src = _ref_pair_norms(pts, space)
        composite = _ref_ratio_report(src, _ref_euclidean_pdists(lmap.apply(pts)), len(pts))
        proxy = _ref_ratio_report(src, _ref_euclidean_pdists(pts), len(pts))
        assert _same((t.d_composite, t.delta_proxy), (composite[2], proxy[2]))


@pytest.mark.parametrize("family", [[], [[]], [1.0, 2.0], np.zeros((0, 2)), [[1.0, 2.0], [3.0]],
                                    [[1.0, math.inf], [0.0, 1.0]]],
                         ids=["empty", "empty-row", "one-dimensional", "no-rows", "ragged",
                              "non-finite"])
def test_mechanism_malformed_family_is_a_domain_error(family):
    with pytest.raises(DomainError):
        jl_mechanism_experiment(SpaceOracle("l2", 2), family, trials=1)


def test_mechanism_trials_zero():
    rep = jl_mechanism_experiment(SpaceOracle("l2", 2), np.eye(2), trials=0)
    assert rep.trials == () and rep.max_ratio is None and rep.mean_lhs is None


def test_mechanism_negative_trials_is_a_domain_error():
    with pytest.raises(DomainError, match="trials must be >= 0, got -1"):
        jl_mechanism_experiment(SpaceOracle("l2", 2), np.eye(2), trials=-1)


def test_array_dataclasses_compare_by_identity_and_hash():
    # generated __eq__ would compare arrays (ValueError) and __hash__ hash them (TypeError)
    for make in (lambda: PointSet([[1.0, 2.0], [3.0, 4.0]]),
                 lambda: LinearMap(np.eye(2), 2.0),
                 lambda: WalshEnsemble.from_vectors([[1.0, 2.0], [3.0, 4.0]]),
                 lambda: caratheodory_reduce([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


def test_mechanism_on_convexified_span_oracle():
    # exact-norm oracles ride the same pipeline through their float interface
    rep = jl_mechanism_experiment(SpaceOracle("T2", 2), np.eye(2), seed=6, trials=3)
    assert all(t.ratio <= 1.0 + 1e-9 for t in rep.trials)
