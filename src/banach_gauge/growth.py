"""Calculators for the slow-growth hierarchy: iterated log, the fast-growing
functions g_k, their inverses, and the recursive distortion bound.

The hierarchy is g_0(n) = n + 1 and g_{k+1}(n) = the n-fold iterate of g_k
applied to n.  Values explode past tower scale almost immediately, so every
evaluation runs against an explicit cap and reports ``ExceedsCap`` instead of
materializing astronomically large integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "GrowthResult",
    "DeltaBoundQuery",
    "log_star",
    "ackermann_g",
    "alpha",
    "alpha_diag",
    "delta_bound",
    "fit_tower_constant",
]


@dataclass(frozen=True)
class GrowthResult:
    """Either an exact natural number or a marker that the cap was passed."""

    value: int | None
    cap: int
    exceeded: bool

    @classmethod
    def exact(cls, value: int, cap: int) -> "GrowthResult":
        return cls(value, cap, False)

    @classmethod
    def exceeds(cls, cap: int) -> "GrowthResult":
        return cls(None, cap, True)

    def __str__(self) -> str:
        return "EXCEEDS_CAP" if self.exceeded else str(self.value)


class _CapExceeded(Exception):
    pass


def log_star(x) -> int:
    """Number of natural-log applications needed to bring x down to <= 1.

    Accepts ints, floats, and arbitrary-precision reals (e.g. mpmath.mpf)
    for arguments beyond float range.
    """
    if x < 1:
        raise DomainError(f"log_star requires x >= 1, got {x}")
    if x != x or x == math.inf:
        raise DomainError(f"log_star requires a finite argument, got {x}")
    count = 0
    while x > 1:
        if isinstance(x, (int, float)):
            x = math.log(x)
        else:
            import mpmath

            x = mpmath.log(x)
        count += 1
    return count


def ackermann_g(k: int, n: int, cap: int = 10**100) -> GrowthResult:
    """g_k(n), exactly, provided every intermediate value stays <= cap.

    The n-fold-iterate recursion is evaluated literally except that the
    iterate of the successor function is collapsed to addition (g_1(v) = 2v),
    without which a single level-1 call under a large cap would take ~cap
    unit steps.  Every iterate of g_i for i >= 1 at least doubles its
    argument, so each loop exits within log2(cap) steps once it is going to
    exceed the cap.
    """
    if k < 0 or n < 0:
        raise DomainError("ackermann_g requires k, n >= 0")
    if cap < n:
        raise DomainError("cap must be >= n")

    def g(level: int, v: int) -> int:
        if level == 0:
            r = v + 1
        elif level == 1:
            r = 2 * v  # v-fold iterate of the successor, collapsed
        else:
            r = v
            for _ in range(v):
                r = g(level - 1, r)
        if r > cap:
            raise _CapExceeded
        return r

    try:
        return GrowthResult.exact(g(k, n), cap)
    except _CapExceeded:
        return GrowthResult.exceeds(cap)


def alpha(n: int) -> int:
    """min { k >= 0 : g_k(2) >= n }.

    Evaluated incrementally with cap = n so no value larger than n is ever
    kept; g_k(2) is strictly increasing in k, so the scan terminates.
    """
    if n < 1:
        raise DomainError("alpha requires n >= 1")
    k = 0
    while True:
        r = ackermann_g(k, 2, cap=max(n, 2))
        if r.exceeded or r.value >= n:
            return k
        k += 1


def alpha_diag(n: int) -> int:
    """The unique k with g_k(k) < n <= g_{k+1}(k+1)."""
    if n < 2:
        raise DomainError("alpha_diag requires n >= 2 (g_0(0) = 1 < n)")
    k = 0
    while True:
        r = ackermann_g(k + 1, k + 1, cap=max(n, k + 1))
        if r.exceeded or r.value >= n:
            return k
        k += 1


@dataclass(frozen=True)
class DeltaBoundQuery:
    """Arguments of the certified distortion-bound recursion."""

    n: float
    K: float = 1.0
    D: float = 1.0

    def __post_init__(self) -> None:
        for name in ("n", "K", "D"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"delta_bound requires a finite {name}, got {getattr(self, name)}")
        if self.n < 1:
            raise DomainError("delta_bound requires n >= 1")
        if self.K <= 0:
            raise DomainError("delta_bound requires K > 0")
        if self.D < 1:
            raise DomainError("delta_bound requires D >= 1")


def delta_bound(n: float, K: float = 1.0, D: float = 1.0) -> float:
    """Certified upper bound for the worst Euclidean distortion of an
    n-dimensional subspace of a space with (K, D) dimension reduction.

    bound(t) = sqrt(t)                                if 4K ln(t+1) >= t
             = min( sqrt(t), 4 D^2 bound(4K ln(t+1))^2 )   otherwise

    sqrt(t) is always valid (every d-dimensional space is within sqrt(d)
    of Euclidean), so the recursion can only improve on it.  The recursion
    argument strictly decreases toward the fixed point of t = 4K ln(t+1),
    where the base case takes over; depth is iterated-log small plus a
    bounded tail near the fixed point.
    """
    DeltaBoundQuery(n, K, D)
    # A loop, not a recursion, so the 10 000-step guard (reached when the
    # fixed point is 0, K < 1/4) cannot outrun Python's recursion limit.
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


def fit_tower_constant(grid, K: float = 1.0, D: float = 1.0) -> float:
    """Smallest c >= 0 with 2^(2^(c * log_star(n))) >= delta_bound(n) on the grid."""
    c = 0.0
    for n in grid:
        b = delta_bound(n, K, D)
        lg = math.log2(b) if b > 1 else 0.0
        if lg <= 1.0:
            continue  # any c >= 0 dominates here
        ls = log_star(n)
        if ls == 0:
            raise DomainError(f"no finite c can dominate at n={n}")
        c = max(c, math.log2(lg) / ls)
    return c
