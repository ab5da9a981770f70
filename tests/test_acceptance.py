"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from banach_gauge import (
    EmbeddingFailed,
    FinVec,
    SpaceOracle,
    VectorFamily,
    ackermann_g,
    alpha,
    alpha_diag,
    caratheodory_reduce,
    cotype_certificate,
    delta_bound,
    diagonal_sqrt_family,
    flm_reduce,
    gaussian_ratio,
    jl_embed,
    jl_mechanism_experiment,
    l1_norm,
    log_star,
    modified_norm,
    rademacher_ratio,
    search_flat,
    sup_norm,
    t2_norm_sq,
    tsirelson_norm,
    tsirelson_norm_bruteforce,
    walsh_orthogonality_check,
)
from banach_gauge.seeds import derive_seed

F = Fraction
ENTRIES = [F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(2), F(-2)]


def _report(tag: str, message: str) -> None:
    print(f"\n[{tag}] PASS {message}")


def _random_vec(rng: random.Random, max_index: int = 9) -> FinVec:
    while True:
        x = FinVec({j: rng.choice(ENTRIES) for j in range(1, max_index + 1)})
        if x:
            return x


def test_c01_norm_engine_oracle_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(200):
        x = _random_vec(rng)
        fast = tsirelson_norm(x).value
        slow = tsirelson_norm_bruteforce(x)
        assert fast == slow, f"disagreement on {x}: {fast} vs {slow}"
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"
    _report("C01", f"200/200 exact oracle matches in {elapsed:.1f}s")


def test_c02_sandwich_and_unit_vectors():
    for j in range(1, 51):
        e = FinVec({j: 1})
        assert tsirelson_norm(e).value == 1
        assert t2_norm_sq(e).value == 1
        assert modified_norm(e) == 1
    rng = random.Random(202)
    for _ in range(500):
        x = _random_vec(rng)
        v = tsirelson_norm(x).value
        assert sup_norm(x) <= v <= l1_norm(x)
    _report("C02", "unit vectors exact to j=50; sandwich exact on 500 random vectors")


def test_c03_flat_search_smallest_scale():
    res = search_flat(4)
    assert res.converged
    assert res.theta == F(1, 2)
    assert res.x.support() == (3, 4)
    cert = cotype_certificate(res.x, 4)
    assert cert.ratio == 2
    assert cert.c2_lower == math.sqrt(2.0)
    _report("C03", "theta*(4) = 1/2 on {3,4}; ratio 2 exact; c2 >= sqrt(2)")


def test_c04_flat_search_range_and_pool_validity():
    rng = random.Random(404)
    zs = [_random_vec(rng) for _ in range(100)]
    z_norms = [tsirelson_norm(z).value for z in zs]
    thetas = []
    for N in range(3, 9):
        res = search_flat(N, max_rounds=200)
        assert res.converged, f"N={N} not converged in 200 rounds"
        assert res.lp_value == tsirelson_norm(res.x).value
        thetas.append(res.theta)
        for lam in res.pool:
            for z, nz in zip(zs, z_norms):
                pairing = sum((lam[j] * abs(z[j]) for j in z.support()), F(0))
                assert pairing <= nz, f"pool functional {lam} overshoots on {z}"
    assert all(a >= b for a, b in zip(thetas, thetas[1:])), thetas
    pretty = ", ".join(str(t) for t in thetas)
    _report("C04", f"theta*(3..8) = [{pretty}] nonincreasing; all pools dual-valid")


def test_c05_caratheodory_reduction_invariants():
    rng = np.random.default_rng(505)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        bound = d * (d + 1) // 2
        m = int(rng.integers(bound + 1, 31))
        U = rng.standard_normal((m, d))
        red = caratheodory_reduce(U)
        assert int(np.count_nonzero(red.weights)) <= bound
        assert red.weights[0] >= 1 - 1e-12
        target = U.T @ U
        reduced = red.vectors.T @ (red.weights[:, None] * red.vectors)
        rel = np.linalg.norm(reduced - target) / max(1.0, np.linalg.norm(target))
        assert rel <= 1e-9
        total_u = float(np.sum(U**2))
        total_vw = float(np.sum(red.v**2) + np.sum(red.w**2))
        assert abs(total_vw - total_u) <= 1e-12 * max(1.0, total_u)
    _report("C05", "100/100 instances: weight bound, c1 >= 1, covariance and norm identities")


def test_c06_flm_reduce_preserves_ratio():
    ok = 0
    trials = []
    for t in range(20):
        p = 1.0 if t < 10 else 3.0
        space = SpaceOracle(f"lp{p}", 2)
        rng = np.random.default_rng(derive_seed(606, "family", t))
        fam = VectorFamily.make(rng.standard_normal((10, 2)).tolist(), space)
        shared_seed = derive_seed(606, "mc", t)
        before = gaussian_ratio(fam, "type", samples=100_000, seed=shared_seed)
        out = flm_reduce(fam, "type", mc_samples=20_000, seed=derive_seed(606, "flm", t))
        assert len(out) <= 3
        after = gaussian_ratio(out, "type", samples=100_000, seed=shared_seed)
        se_b = (before.ci_high - before.ci_low) / 2
        se_a = (after.ci_high - after.ci_low) / 2
        sigma = math.hypot(se_b, se_a) / 1.959963984540054
        if after.point >= before.point - 3 * sigma:
            ok += 1
        trials.append((before.point, after.point))
    assert ok >= 19, f"only {ok}/20 preserved the ratio"
    _report("C06", f"{ok}/20 families kept type ratio within 3 sigma after reduction")


def test_c07_walsh_orthogonality_and_sizes():
    from banach_gauge import WalshEnsemble, walsh_pointset

    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 7))
        base = rng.standard_normal((1 << m, dim))
        g = rng.standard_normal(1 << m)
        res = walsh_orthogonality_check(g[:, None] * base)
        assert res.residual <= 1e-10
        worst = max(worst, res.residual)
        pset = walsh_pointset(WalshEnsemble(base, g))
        assert len(pset) == (1 << (m + 1)) + 1
        assert len(np.unique(pset.points, axis=0)) == (1 << (m + 1)) + 1
    _report("C07", f"100/100 ensembles: residual <= 1e-10 (worst {worst:.2e}); sizes 2^(m+1)+1")


def test_c08_jl_embedding_operating_point():
    rng = np.random.default_rng(808)
    pts = rng.standard_normal((2000, 300))
    start = time.monotonic()
    successes = 0
    target_dim = None
    for t in range(100):
        try:
            lmap, rep = jl_embed(pts, 0.5, constant=8.0,
                                 seed=derive_seed(808, "trial", t), max_retries=1)
            target_dim = lmap.target_dim
            if rep.distortion <= 1.5:
                successes += 1
        except EmbeddingFailed:
            pass
    elapsed = time.monotonic() - start
    assert target_dim == 244 == math.ceil(8.0 * math.log(2000) / 0.25)
    assert successes >= 90, f"only {successes}/100 met distortion 1.5"
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    _report("C08", f"dim 244; {successes}/100 trials at distortion <= 1.5 in {elapsed:.1f}s")


def test_c09_mechanism_inequality_always_holds():
    space = SpaceOracle("l1", 2)
    family = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    rep = jl_mechanism_experiment(space, family, eps=0.5, constant=8.0,
                                  seed=909, trials=100)
    assert len(rep.trials) == 100
    violations = [t for t in rep.trials if t.ratio > 1.0 + 1e-9]
    assert not violations
    assert rep.max_ratio <= 1.0 + 1e-9
    _report("C09", f"100/100 trials satisfy the averaged-functional bound "
                   f"(max ratio {rep.max_ratio:.4f})")


def test_c10_growth_calculators():
    assert ackermann_g(1, 2).value == 4
    assert ackermann_g(2, 2).value == 8
    assert ackermann_g(3, 2).value == 2048
    assert ackermann_g(4, 2, cap=10**100).exceeded
    assert alpha(8) == 2 and alpha(9) == 3
    assert alpha(2048) == 3 and alpha(2049) == 4
    assert log_star(16) == 3
    n = 2
    gaps = []
    while n <= 10**6:
        gaps.append(abs(alpha(n) - alpha_diag(n)))
        n *= 2
    assert max(gaps) <= 2
    _report("C10", f"hierarchy values exact; |alpha - alpha_diag| <= {max(gaps)} on the log grid")


def test_c11_delta_bound_calculator():
    for n in range(1, 11):
        assert delta_bound(n, 1, 1) == pytest.approx(math.sqrt(n), rel=1e-15)
    v = delta_bound(10**6, 1, 1)
    assert v < 1000
    # independent unrolling: iterate the argument map, then fold back up
    args = [float(10**6)]
    while True:
        s = 4 * math.log(args[-1] + 1)
        if s >= args[-1]:
            break
        args.append(s)
    hand = math.sqrt(args[-1])
    for t in reversed(args[:-1]):
        hand = min(math.sqrt(t), 4 * hand * hand)
    assert v == pytest.approx(hand, rel=1e-6)
    grid = [10**j for j in range(1, 10)]
    vals = [delta_bound(n, 1, 1) for n in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    _report("C11", f"base region exact; bound(1e6) = {v:.3f} < 1000 matches unrolled; monotone")


def test_c12_cotype_certificate_cross_check():
    for N in range(3, 9):
        res = search_flat(N)
        cert = cotype_certificate(res.x, N)
        space = SpaceOracle("T2", N)
        fam = diagonal_sqrt_family(space, res.x)
        est = rademacher_ratio(fam, "cotype")
        assert est.exact is not None, f"N={N}: sign enumeration lost exactness"
        assert est.exact == cert.ratio, f"N={N}: {est.exact} != {cert.ratio}"
    _report("C12", "flat-search and sign-enumeration ratios agree exactly for N=3..8")
