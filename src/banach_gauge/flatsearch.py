"""Search for flat vectors and turn them into certified cotype lower bounds.

A *flat* vector is a nonnegative x whose base norm ||x||_T is small relative
to its tail mass sum_{j>=3} x_j.  Flat vectors exist at every scale in this
space, and each one certifies, through the 2-convexified norm, a lower bound
on the cotype-2 constant (hence on the Euclidean distortion) of the
coordinate span containing it.

The search is a cutting-plane loop: the norm is the max of finitely many
linear functionals on the nonnegative orthant (one per certificate tree), so
minimizing it under the normalization sum_{j>=3} x_j = 1 reduces to a linear
program over the functionals discovered so far.  Each round solves the LP
exactly, evaluates the true norm at the LP optimum, and, if the LP
undershoots, adds the maximizing certificate's functional as a new cut.  The
LP value is a lower bound and the incumbent norm an upper bound at every
round; with finitely many functionals and every added cut violated by the
current optimum, the loop reaches LP value == true norm in finitely many
rounds.  Each round's LP is the last one plus one cut, so the solver replays
the last round's pivot path instead of starting over (see ``simplex``).

The LP value is certified on its own: the final objective row gives dual
weights mu >= 0 summing to 1 over the pool, and every pool functional is a
norming functional, so <lambda_k, x> <= ||x||_T for x >= 0 and hence
min_{j>=3} (sum_k mu_k lambda_k)_j <= theta(N).  ``search_flat`` checks
exactly that this minimum equals the LP value before it returns.

The certified ratio this module reports is the exact sign-averaged cotype
ratio sum_j x_j / ||x||_T (unconditionality makes every sign pattern equal),
giving c2 >= sqrt(ratio).  The classical construction behind these witnesses
claims the stronger bound 2^k/k on supports of size g_k(2); that claimed
figure is surfaced as metadata only, never asserted by the computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadSupportBound, DomainError, NegativeEntry, ZeroTail
from .growth import ackermann_g, alpha
from .seqvec import FinVec, Rat
from .simplex import solve_lp
from .tsirelson import NormCertificate, norming_functional, tsirelson_norm

MIN_SUPPORT_BOUND = 3
MAX_SUPPORT_BOUND = 16


@dataclass(frozen=True)
class FlatSearchResult:
    """The flattest vector found, its flatness ratio and a norm certificate.

    ``mu`` weighs the pool's functionals (0 on a cut the last LP did not
    hold): min_{j>=3} (sum_k mu_k lambda_k)_j equals ``lp_value``, a lower
    bound on theta(N) that needs no trust in the LP solver.
    """

    x: FinVec
    theta: Rat
    certificate: NormCertificate
    rounds: int
    lp_value: Rat
    converged: bool
    pool: tuple[FinVec, ...]
    mu: tuple[Rat, ...]


@dataclass(frozen=True)
class CotypeCertificate:
    """Exact cotype ratio of the diagonal family {sqrt(x_j) e_j} in the
    2-convexified span of e_1..e_N, with the witness's flatness ``theta``.

    ``claimed_c2_lower`` (``paper_claimed`` in ``cotype-cert``'s output) is
    the figure 2^k/k that the flat-vector construction attaches to scale
    k = alpha(N) when N = g_k(2), an instance of the 2^{Omega(alpha(n))}
    growth the paper proves for the Euclidean distortion.  It is an order of
    growth, not a certified bound on c2: at N = 4 and 8 it reads 2, above
    the certified ``c2_lower`` (sqrt 2 and 1.949), while ``ratio`` (2 and
    19/5), a certified lower bound on c2^2, meets it.
    """

    N: int
    theta: Rat
    ratio: Rat
    c2_lower: float
    claimed_c2_lower: float | None
    claimed_note: str


def _tail(x: FinVec) -> Rat:
    """sum_{j>=3} x_j, after checking that x >= 0 and that the sum is nonzero."""
    for j, v in x.items():
        if v < 0:
            raise NegativeEntry(f"entry {j} is {v} < 0")
    tail = sum((v for j, v in x.items() if j >= 3), Fraction(0))
    if tail == 0:
        raise ZeroTail("sum of entries at indices >= 3 is zero")
    return tail


def flatness(x: FinVec) -> Rat:
    """theta(x) = ||x||_T / sum_{j>=3} x_j for nonnegative x."""
    tail = _tail(x)
    return tsirelson_norm(x).value / tail


def search_flat(N: int, max_rounds: int = 200) -> FlatSearchResult:
    """Minimize ||x||_T over x >= 0 supported in [1, N] with sum_{j>=3} x_j = 1.

    Returns the best witness found; ``converged`` reports whether the LP
    value met the true norm within the round budget.
    """
    if not MIN_SUPPORT_BOUND <= N <= MAX_SUPPORT_BOUND:
        raise BadSupportBound(f"N must lie in [{MIN_SUPPORT_BOUND}, {MAX_SUPPORT_BOUND}]")
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")

    # seed pool: coordinate functionals <e_j, |x|> <= ||x||_T
    pool: list[FinVec] = [FinVec.basis(j) for j in range(1, N + 1)]

    path: list = []  # the last LP's pivot path, replayed by the next solve
    incumbent: tuple[FinVec, Rat, NormCertificate] | None = None
    rounds = 0
    converged = False
    while rounds < max_rounds:
        rounds += 1
        x, lp_value, weights = solve_lp(pool, N, path)
        xvec = FinVec({j + 1: v for j, v in enumerate(x)})
        nr = tsirelson_norm(xvec)
        if incumbent is None or nr.value < incumbent[1]:
            incumbent = (xvec, nr.value, nr.certificate)
        if nr.value == lp_value:
            converged = True
            break
        # the cut is violated by x (its value there is ||x||_T > lp_value),
        # so it is not yet in the pool
        pool.append(norming_functional(nr.certificate))

    x_best, norm_best, cert_best = incumbent
    theta = norm_best / _tail(x_best)
    mu = _dual_certificate(pool, weights, N, lp_value)
    return FlatSearchResult(x_best, theta, cert_best, rounds, lp_value, converged, tuple(pool), mu)


def _dual_certificate(pool, weights, N: int, lp_value: Rat) -> tuple[Rat, ...]:
    """mu = weights / sum(weights), padded with 0 to the pool, after checking
    in integers that mu >= 0 and min_{j>=3} (sum_k mu_k lambda_k)_j = lp_value."""
    used = [(w, lam) for w, lam in zip(weights, pool) if w]
    scale = math.lcm(*(v.denominator for _, lam in used for _, v in lam.items()))
    mix = [0] * (N + 1)
    for w, lam in used:
        for j, v in lam.items():
            mix[j] += w * v.numerator * (scale // v.denominator)
    total = sum(weights)
    if not (min(weights) >= 0 and total > 0 and
            min(mix[3:]) * lp_value.denominator == lp_value.numerator * total * scale):
        raise AssertionError("the LP's dual weights do not certify its value")
    return tuple(Fraction(w, total) for w in weights) + (Fraction(0),) * (len(pool) - len(weights))


def _claimed_bound(n: int) -> tuple[float | None, str]:
    """2^k/k and its note when n equals g_k(2) for some k >= 1 (k is then
    alpha(n)), else (None, ""): the construction's order of growth at scale
    k, printed next to the certified figures and never checked against them
    (see ``CotypeCertificate``)."""
    k = alpha(n)
    if k >= 1 and ackermann_g(k, 2, cap=max(n, 2)).value == n:
        return 2.0**k / k, "claimed by the flat-vector construction at scale k=%d; not certified here" % k
    return None, ""


def cotype_certificate(x: FinVec, N: int | None = None) -> CotypeCertificate:
    """Flatness and exact cotype ratio of a witness x >= 0 in the span of
    e_1..e_N (N defaults to the top of x's support), from one norm evaluation.

    Unconditionality makes every sign pattern of the family {sqrt(x_j) e_j}
    have squared 2-convexified norm ||sum_j x_j e_j||_T, so the sign average
    is exact:

        ratio = (sum_j x_j) / ||x||_T,       c2 >= sqrt(ratio).
    """
    if not x:
        raise DomainError("witness vector is zero")
    top = max(x.support())
    if N is None:
        N = top
    elif N < top:
        raise DomainError(f"span bound N={N} does not contain the witness support")
    tail = _tail(x)
    norm = tsirelson_norm(x).value
    ratio = sum((v for _, v in x.items()), Fraction(0)) / norm
    claimed, note = _claimed_bound(N)
    return CotypeCertificate(
        N=N,
        theta=norm / tail,
        ratio=ratio,
        c2_lower=math.sqrt(float(ratio)),
        claimed_c2_lower=claimed,
        claimed_note=note,
    )
