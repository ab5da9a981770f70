import contextlib
import inspect
import io
import math
import sys
import time

import pytest

from banach_gauge import (
    DomainError,
    GrowthResult,
    ackermann_g,
    alpha,
    alpha_diag,
    delta_bound,
    fit_tower_constant,
    log_star,
)
from banach_gauge.cli import main


def test_log_star_examples():
    assert log_star(1) == 0
    assert log_star(math.e) == 1
    assert log_star(16) == 3


def test_log_star_domain():
    with pytest.raises(DomainError):
        log_star(0.5)


def test_log_star_towers_float_range():
    towers = [1.0]
    while len(towers) < 4:
        towers.append(math.exp(towers[-1]))
    for i, a in enumerate(towers, start=1):
        if i >= 2:
            assert log_star(a) == i - 1


def test_log_star_tower_five_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    a = mpmath.mpf(1)
    for i in range(2, 6):
        a = mpmath.exp(a)
        assert log_star(a) == i - 1


def test_ackermann_examples():
    assert ackermann_g(0, 7).value == 8
    assert ackermann_g(1, 2).value == 4
    assert ackermann_g(2, 2).value == 8
    assert ackermann_g(3, 2).value == 2048
    res = ackermann_g(4, 2, cap=10**100)
    assert res.exceeded and str(res) == "EXCEEDS_CAP"


def test_ackermann_closed_forms_small():
    # g_1(n) = 2n and g_2(n) = n 2^n, checked against the raw iterate meaning
    for n in range(0, 8):
        assert ackermann_g(1, n, cap=10**9).value == 2 * n
    for n in range(1, 7):
        assert ackermann_g(2, n, cap=10**9).value == n * 2**n


def _g_by_levels(k: int, n: int, cap: int) -> str:
    """g_k(n) by the level recursion, one call per level, as the CLI prints it."""
    def g(level: int, v: int) -> int:
        if level == 0:
            r = v + 1
        elif level == 1:
            r = 2 * v
        else:
            r = v
            for _ in range(v):
                r = g(level - 1, r)
        if r > cap:
            raise OverflowError
        return r

    try:
        return str(g(k, n))
    except OverflowError:
        return "EXCEEDS_CAP"


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 7, 100, 2048, 10**6, 10**100])
def test_ackermann_matches_the_level_recursion(cap):
    for k in range(6):
        for n in range(min(cap, 6) + 1):  # the cap must be >= n
            assert str(ackermann_g(k, n, cap=cap)) == _g_by_levels(k, n, cap), (k, n)


def _growth(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["growth", *argv]) == 0
    return out.getvalue()


def test_ackermann_at_huge_levels():
    start = time.perf_counter()
    assert _growth("g", "100000", "3") == "EXCEEDS_CAP\n"
    assert time.perf_counter() - start < 1
    assert _growth("g", "1000", "3") == "EXCEEDS_CAP\n"
    assert _growth("g", "1000000000000", "1") == "2\n"
    assert _growth("g", "1000000000000", "0") == "0\n"
    assert _growth("g", "1000000000000", "1", "--cap", "1") == "EXCEEDS_CAP\n"


def test_growth_monotone_in_k_and_n():
    vals_n = [ackermann_g(2, n, cap=10**30).value for n in range(1, 10)]
    assert vals_n == sorted(vals_n) and len(set(vals_n)) == len(vals_n)
    vals_k = [ackermann_g(k, 2, cap=10**30).value for k in range(0, 4)]
    assert vals_k == sorted(vals_k) and len(set(vals_k)) == len(vals_k)


def test_alpha_examples():
    assert alpha(3) == 0
    assert alpha(8) == 2 and alpha(9) == 3
    assert alpha(2048) == 3 and alpha(2049) == 4


def test_alpha_diag_examples():
    assert alpha_diag(2) == 0
    assert alpha_diag(3) == 1
    assert alpha_diag(9) == 2
    with pytest.raises(DomainError):
        alpha_diag(1)


def test_alpha_terminates_and_is_small():
    for n in (1, 10, 10**6):
        assert alpha(n) <= 5


def test_alpha_close_to_alpha_diag():
    n = 2
    while n <= 10**6:
        assert abs(alpha(n) - alpha_diag(n)) <= 2
        n *= 4


def test_delta_bound_base_region():
    assert delta_bound(4, 1, 1) == 2.0
    for n in range(1, 11):
        assert delta_bound(n, 1, 1) == pytest.approx(math.sqrt(n), rel=1e-15)


def _unrolled(n, K, D):
    # independent loop: peel levels while the recursion improves on sqrt
    args = [n]
    while True:
        s = 4 * K * math.log(args[-1] + 1)
        if s >= args[-1] or len(args) > 5000:
            break
        args.append(s)
    val = math.sqrt(args[-1])
    for t in reversed(args[:-1]):
        val = min(math.sqrt(t), 4 * D * D * val * val)
    return val


def test_delta_bound_matches_hand_unrolled():
    for n, K, D in [(10**6, 1, 1), (10**9, 1, 1), (5_000, 2, 1.5), (77, 1, 1)]:
        assert delta_bound(n, K, D) == pytest.approx(_unrolled(n, K, D), rel=1e-12)


def _unfloored(n, K, D):
    # the recursion without the floor at t < 1, in delta_bound's arithmetic
    chain = [float(n)]
    while len(chain) <= 10_000:
        shrunk = 4.0 * K * math.log(chain[-1] + 1.0)
        if shrunk >= chain[-1]:
            break
        chain.append(shrunk)
    bound = math.sqrt(chain.pop())
    for t in reversed(chain):
        bound = min(math.sqrt(t), 4.0 * D * D * bound**2)
    return bound


def test_delta_bound_bit_identical_to_unfloored_recursion():
    # the hand-unrolled grid, and more K > 1/4: the floor changes no value >= 1
    grid = [(10**6, 1, 1), (10**9, 1, 1), (5_000, 2, 1.5), (77, 1, 1)]
    grid += [(n, K, D) for n in (10, 77, 5_000, 10**6, 10**9)
             for K in (0.26, 0.3, 0.37, 1, 2) for D in (1, 1.5)]
    for n, K, D in grid:
        assert delta_bound(n, K, D) == _unfloored(n, K, D) >= 1


@pytest.mark.parametrize("K", [0.1, 0.2, 0.25])
@pytest.mark.parametrize("n", [1, 2, 10, 10**6])
def test_delta_bound_at_least_one_for_small_K(n, K):
    # for 4K <= 1 the chain t -> 4K ln(t+1) falls to 0; a bound below 1 is impossible
    v = delta_bound(n, K, 1)
    assert 1.0 <= v <= max(1.0, math.sqrt(n))
    assert delta_bound(1, K, 1) == 1.0


def test_delta_bound_much_better_than_john_at_scale():
    v = delta_bound(10**6, 1, 1)
    assert v < 1000
    assert v == pytest.approx(4 * delta_bound(4 * math.log(10**6 + 1), 1, 1) ** 2, rel=1e-12)


def test_delta_bound_monotone_grid():
    grid = [10**j for j in range(1, 10)]
    vals = [delta_bound(n, 1, 1) for n in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(v <= math.sqrt(n) for v, n in zip(vals, grid))


@pytest.mark.parametrize("bad", [{"n": math.nan}, {"n": math.inf}, {"n": 10, "K": math.nan},
                                 {"n": 10, "K": math.inf}, {"n": 10, "D": math.nan},
                                 {"n": 10, "D": math.inf}])
def test_delta_bound_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        delta_bound(**bad)


def test_delta_bound_is_not_recursive():
    # for K just under 1/4 the argument shrinks by ~0.4% a step, so the chain
    # runs into the 10 000-step guard, far past any recursion limit
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        value = delta_bound(10, 0.249, 1)
    finally:
        sys.setrecursionlimit(previous)
    assert math.isfinite(value)


def test_fit_tower_constant_dominates():
    grid = [10**j for j in range(1, 10)]
    c = fit_tower_constant(grid)
    for n in grid:
        assert 2 ** (2 ** (c * log_star(n))) >= delta_bound(n) * (1 - 1e-12)


def test_growth_result_str():
    assert str(GrowthResult.exact(42, 100)) == "42"


def test_cap_validation():
    with pytest.raises(DomainError):
        ackermann_g(1, 10, cap=5)
    with pytest.raises(DomainError):
        ackermann_g(-1, 2)
