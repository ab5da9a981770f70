import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from banach_gauge import (
    BadSupportBound,
    FinVec,
    NegativeEntry,
    ZeroTail,
    cotype_certificate,
    flatness,
    search_flat,
    sup_norm,
    tsirelson_norm,
)
from banach_gauge.flatsearch import _claimed_bound, _dual_certificate

from conftest import random_finvec

F = Fraction


def test_flatness_examples():
    assert flatness(FinVec({3: 1, 4: 1})) == F(1, 2)
    assert flatness(FinVec({3: 1})) == 1
    assert flatness(FinVec({1: 5, 3: 1, 4: 1})) == F(5, 2)


def test_flatness_errors():
    with pytest.raises(NegativeEntry):
        flatness(FinVec({3: -1, 4: 1}))
    with pytest.raises(ZeroTail):
        flatness(FinVec({1: 1, 2: 1}))


def test_flatness_scale_invariant_and_bounded_below(rng):
    for _ in range(40):
        x = random_finvec(rng, max_index=7)
        x = FinVec({j: abs(v) for j, v in x.items()})
        if sum(v for j, v in x.items() if j >= 3) == 0:
            continue
        th = flatness(x)
        assert flatness(F(7, 3) * x) == th
        tail = sum((v for j, v in x.items() if j >= 3), F(0))
        assert th >= sup_norm(x) / tail


def test_search_n3_is_one():
    res = search_flat(3)
    assert res.converged
    assert res.theta == 1
    assert res.rounds <= 200


def test_search_n4_exact_half():
    res = search_flat(4)
    assert res.converged
    assert res.theta == F(1, 2)
    assert res.x.support() == (3, 4)
    # normalized tail: the witness is (0, 0, 1/2, 1/2)
    assert res.x == FinVec({3: F(1, 2), 4: F(1, 2)})


def test_search_n4_agrees_with_grid():
    # independent oracle: coarse exact grid over the tail simplex
    best = None
    steps = 8
    for a in range(steps + 1):
        x = FinVec({3: F(a, steps), 4: F(steps - a, steps)})
        if not x:
            continue
        tail = sum((v for j, v in x.items() if j >= 3), F(0))
        if tail == 0:
            continue
        th = tsirelson_norm(x).value / tail
        best = th if best is None else min(best, th)
    assert best == F(1, 2)
    assert search_flat(4).theta == best


def test_search_monotone_and_converges():
    thetas = []
    for N in range(3, 9):
        res = search_flat(N)
        assert res.converged, f"N={N} did not converge"
        assert res.lp_value == res.theta
        thetas.append(res.theta)
    assert all(a >= b for a, b in zip(thetas, thetas[1:]))


def test_search_bounds():
    with pytest.raises(BadSupportBound):
        search_flat(2)
    with pytest.raises(BadSupportBound):
        search_flat(17)


def test_pool_functionals_are_dual_certificates(rng):
    res = search_flat(6)
    for _ in range(60):
        z = random_finvec(rng, max_index=8)
        nz = tsirelson_norm(z).value
        for lam in res.pool:
            pairing = sum((lam[j] * abs(z[j]) for j in z.support()), F(0))
            assert pairing <= nz


def test_lp_value_is_lower_bound_each_round():
    # with a tiny round budget the search must stop with LP value <= incumbent
    res = search_flat(6, max_rounds=1)
    assert res.lp_value <= res.theta


def _mixture_min(res, N):
    """min_{j>=3} (sum_k mu_k lambda_k)_j, in Fractions, straight from the result."""
    return min(sum((mu * lam[j] for mu, lam in zip(res.mu, res.pool)), F(0))
               for j in range(3, N + 1))


@pytest.mark.parametrize("N,max_rounds", [(N, 200) for N in range(3, 13)] + [(6, 1), (10, 5)])
def test_every_round_matches_one_shot_and_mu_certifies(monkeypatch, N, max_rounds):
    # each round replays the last round's pivot path; it must return exactly
    # what a one-shot solve of the same pool returns
    import banach_gauge.flatsearch as fs

    replayed = fs.solve_lp
    rounds = []

    def both(cuts, n, path):
        got = replayed(cuts, n, path)
        assert got == replayed(list(cuts), n), f"round {len(rounds) + 1}"
        rounds.append(got)
        return got

    monkeypatch.setattr(fs, "solve_lp", both)
    res = search_flat(N, max_rounds=max_rounds)
    assert len(rounds) == res.rounds
    # mu is a probability vector over the pool whose mixture certifies the LP
    # value: sum_k mu_k <lambda_k, x> <= ||x||_T, so the minimum is <= theta(N)
    assert len(res.mu) == len(res.pool) and all(m >= 0 for m in res.mu) and sum(res.mu) == 1
    assert _mixture_min(res, N) == res.lp_value <= res.theta
    if not res.converged:
        assert res.mu[-1] == 0  # the last cut was added after the last LP


def test_dual_certificate_refuses_weights_that_do_not_certify():
    # max(x_1..x_4) over x_3 + x_4 = 1 is 1/2, certified by mu = (0, 0, 1/2, 1/2)
    pool = [FinVec.basis(j) for j in range(1, 5)]
    assert _dual_certificate(pool, [0, 0, 3, 3], 4, F(1, 2)) == (0, 0, F(1, 2), F(1, 2))
    # padded with 0 for a cut the last LP did not hold
    assert _dual_certificate(pool + [FinVec({3: 1, 4: 1})], [0, 0, 1, 1], 4, F(1, 2))[-1] == 0
    for weights in ([0, 0, 0, 0], [0, 0, 2, -1], [0, 0, 1, 2], [1, 0, 1, 1]):
        with pytest.raises(AssertionError):
            _dual_certificate(pool, weights, 4, F(1, 2))


def test_cotype_certificate_from_half_half():
    res = search_flat(4)
    cc = cotype_certificate(res.x, 4)
    assert cc.ratio == 2
    assert cc.theta == res.theta
    assert cc.c2_lower == pytest.approx(2**0.5)
    assert cc.N == 4
    # N = 4 is the k = 1 scale, whose construction claims 2^1/1 = 2
    assert cc.claimed_c2_lower == pytest.approx(2.0)
    assert "not certified" in cc.claimed_note


def test_cotype_certificate_trivial_witness():
    cc = cotype_certificate(FinVec({3: 1}))
    assert (cc.N, cc.theta, cc.ratio) == (3, 1, 1)
    assert cc.c2_lower == 1.0
    assert cc.claimed_c2_lower is None


def test_cotype_certificate_scale_invariant():
    x = FinVec({3: 1, 4: 1})
    c1 = cotype_certificate(x, 4)
    c2 = cotype_certificate(2 * x, 4)
    assert c1.theta == c2.theta and c1.ratio == c2.ratio and c1.c2_lower == c2.c2_lower


def test_claimed_bound_only_at_the_scales_g_k_2():
    # g_1(2) = 4, g_2(2) = 8, g_3(2) = 2048, and g_4(2) is past any cap here
    scales = {4: 1, 8: 2, 2048: 3}
    for n in [*range(1, 2100), 10**6, 2**64, 10**100]:
        k = scales.get(n)
        if k is None:
            assert _claimed_bound(n) == (None, ""), n
        else:
            assert _claimed_bound(n) == (2.0**k / k, "claimed by the flat-vector construction "
                                         f"at scale k={k}; not certified here")


def test_c2_lower_respects_john_cap():
    for N in range(3, 9):
        cc = cotype_certificate(search_flat(N).x, N)
        assert cc.c2_lower <= N**0.5 + 1e-12


# theta, witness, rounds, pool size and a digest of the cut pool for N = 3..12,
# recorded from the Fraction-tableau simplex: any change to the LP's pivot
# sequence (and so to the vertex it returns on ties) shows up here
TRAJECTORIES = [
    (3, "1", {3: "1"}, 1, 3, "24ea225e8f254996"),
    (4, "1/2", {3: "1/2", 4: "1/2"}, 1, 4, "b218d87c2bc06a67"),
    (5, "1/3", {3: "1/3", 4: "1/3", 5: "1/3"}, 1, 5, "4c60cb4976c0e8bb"),
    (6, "1/3", {3: "1/3", 5: "1/3", 6: "1/3"}, 2, 7, "9ecbc78f9b5b1ad7"),
    (7, "3/11", {3: "3/11", 4: "2/11", 5: "2/11", 6: "2/11", 7: "2/11"},
     5, 11, "5a9b4a833e2a3fec"),
    (8, "5/19", {3: "5/19", 4: "4/19", 5: "2/19", 6: "4/19", 7: "2/19", 8: "2/19"},
     8, 15, "38204ae5f35b281c"),
    (9, "1/4", {3: "1/4", 4: "3/20", 5: "1/10", 6: "1/10", 7: "1/10", 8: "1/5",
                9: "1/10"},
     9, 17, "3b0ff1ef58f7052a"),
    (10, "1/4", {3: "1/4", 4: "1/6", 5: "1/12", 6: "1/18", 7: "1/18", 8: "1/18",
                 9: "7/36", 10: "5/36"},
     17, 26, "bab0c4b7eb5823cb"),
    (11, "5/22", {3: "5/22", 4: "3/22", 5: "1/11", 6: "1/11", 7: "1/11", 8: "1/11",
                  9: "1/11", 10: "1/11", 11: "1/11"},
     21, 31, "b052cf504a23394e"),
    (12, "9/40", {3: "9/40", 4: "1/8", 5: "1/10", 6: "1/10", 7: "1/20", 8: "1/10",
                  9: "1/20", 10: "1/10", 11: "1/10", 12: "1/20"},
     26, 37, "1bf49a2961262cc7"),
]


@pytest.mark.parametrize("N,theta,witness,rounds,pool_size,pool_digest", TRAJECTORIES)
def test_search_trajectory_pinned(N, theta, witness, rounds, pool_size, pool_digest):
    res = search_flat(N)
    assert res.converged
    assert res.theta == F(theta)
    assert res.x == FinVec({j: F(v) for j, v in witness.items()})
    assert res.rounds == rounds
    assert len(res.pool) == pool_size
    canon = repr([sorted((j, str(v)) for j, v in lam.items()) for lam in res.pool])
    assert hashlib.sha256(canon.encode()).hexdigest()[:16] == pool_digest
