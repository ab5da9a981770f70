"""Type-2 / cotype-2 ratio estimation and the cone reduction behind the
finite-family equality for those constants.

Two estimation modes:

* ``rademacher_ratio`` averages over all sign patterns exactly.  Every
  supported norm is even, so it pairs eps with -eps and takes the 2^(n-1)
  patterns with eps_n = +1, on integer numerators over the family's common
  denominator (floats are read as the exact binary rationals they are).
  The sign sums form one integer matrix, built in chunks.  Where the space
  has an integer evaluator, each chunk goes to ``SpaceOracle.norm_sq_batch``
  (the interval plan on T and T2, the compiled mod2 plan, integer sums and
  maxima on l1, l2 and linf, one integer matmul on polytopes) and the ratio
  is an exact ``Fraction`` that can serve as a certificate.  Otherwise
  (l_p with p not in {1, 2, inf}, or a square-root column on a norm that
  reads |x|) each chunk goes to ``norm_array`` on its float rows.
* ``gaussian_ratio`` is seeded Monte Carlo over i.i.d. standard Gaussian
  coefficients, with a 95% normal confidence interval.  Its sample sums go
  through ``SpaceOracle.norm_array`` in float64 all at once: numpy norms on
  lp, one matmul on polytopes, on T and T2 the interval DP batched over the
  samples (``tsirelson_norm_batch``) and on mod2 the compiled bitmask plan
  (``modified_norm_batch``), so no sample meets the exact path.

``caratheodory_reduce`` implements the covariance-preserving weight pivoting:
the Gaussian sum's covariance lies in the cone spanned by the outer products
u_i (x) u_i, so while more than d(d+1)/2 weights are nonzero a null
combination of the vectorized outer products can shift weight to zero without
changing the covariance.  Splitting each vector by sqrt(c_i/c_1) /
sqrt(1-c_i/c_1) then yields two families whose Gaussian functionals add up to
the original exactly, which is what ``flm_reduce`` exploits to shrink a
family without decreasing its type or cotype ratio (mediant inequality: the
better branch is at least the original).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    DomainError,
    InvalidBound,
    TooManyVectors,
    ZeroFamily,
)
from .seeds import derive_seed, seeded_rng
from .seqvec import FinVec, float_sqrt
from .tsirelson import (
    exact_dtype,
    modified_norm,
    modified_norm_batch,
    modified_norm_batch_exact,
    tsirelson_norm,
    tsirelson_norm_batch,
    tsirelson_norm_batch_exact,
)

__all__ = [
    "SpaceOracle",
    "VectorFamily",
    "RatioEstimate",
    "ConeReduction",
    "C2LowerBound",
    "rademacher_ratio",
    "gaussian_ratio",
    "caratheodory_reduce",
    "flm_reduce",
    "kwapien_upper",
    "c2_lower_from_witness",
    "diagonal_sqrt_family",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile

RADEMACHER_CAP = 20
#: Largest Gaussian coefficient or sum array ``gaussian_ratio`` draws, in
#: float64 cells (512 MiB)
MC_CELL_CAP = 1 << 26


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class SpaceOracle:
    """A coordinate span together with a norm evaluator.

    Tags: ``lp`` (with parameter p, math.inf allowed), ``tsirelson_span``,
    ``t2_span``, ``mod2_span``, ``polytope`` (norm = max |<f_i, x>| over a
    spanning list of functionals).  ``norm_sq`` reads rational entries (and
    floats, as the binary rationals they are) and returns the exact squared
    norm as a ``Fraction``, or a float on l_p with p not in {1, 2, inf};
    ``norm_array`` is the batched float path and ``norm_sq_batch`` the
    batched exact one on integer rows.
    """

    def __init__(self, dim: int, tag: str, p: float | None = None,
                 functionals: Sequence[Sequence] | None = None):
        if dim < 1:
            raise DomainError("dimension must be >= 1")
        self.dim = dim
        self.tag = tag
        self.p = p
        self.functionals = (
            tuple(tuple(Fraction(v) for v in f) for f in functionals)
            if functionals is not None
            else None
        )
        if tag == "lp":
            if p is None or p < 1:
                raise DomainError("lp oracle needs p >= 1")
        elif tag == "polytope":
            if not self.functionals:
                raise DomainError("polytope oracle needs at least one functional")
            if any(len(f) != dim for f in self.functionals):
                raise DomainError("functional length must equal dim")
        elif tag not in ("tsirelson_span", "t2_span", "mod2_span"):
            raise DomainError(f"unknown space tag {tag!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def lp(cls, dim: int, p: float) -> "SpaceOracle":
        return cls(dim, "lp", p=p)

    @classmethod
    def euclidean(cls, dim: int) -> "SpaceOracle":
        return cls(dim, "lp", p=2.0)

    @classmethod
    def tsirelson_span(cls, dim: int) -> "SpaceOracle":
        return cls(dim, "tsirelson_span")

    @classmethod
    def t2_span(cls, dim: int) -> "SpaceOracle":
        return cls(dim, "t2_span")

    @classmethod
    def mod2_span(cls, dim: int) -> "SpaceOracle":
        return cls(dim, "mod2_span")

    @classmethod
    def polytope(cls, dim: int, functionals: Sequence[Sequence]) -> "SpaceOracle":
        return cls(dim, "polytope", functionals=functionals)

    @classmethod
    def from_tag(cls, tag: str, dim: int) -> "SpaceOracle":
        """Parse CLI-style tags: l1, l2, linf, lp<value>, T, T2, mod2."""
        t = tag.lower()
        if t == "l1":
            return cls.lp(dim, 1.0)
        if t == "l2":
            return cls.lp(dim, 2.0)
        if t == "linf":
            return cls.lp(dim, math.inf)
        if t.startswith("lp"):
            try:
                return cls.lp(dim, float(t[2:]))
            except ValueError as exc:
                raise DomainError(f"unknown space tag {tag!r}") from exc
        if t == "t":
            return cls.tsirelson_span(dim)
        if t == "t2":
            return cls.t2_span(dim)
        if t == "mod2":
            return cls.mod2_span(dim)
        raise DomainError(f"unknown space tag {tag!r}")

    def __repr__(self) -> str:
        extra = f", p={self.p}" if self.tag == "lp" else ""
        return f"SpaceOracle(dim={self.dim}, tag={self.tag!r}{extra})"

    # -- evaluation ---------------------------------------------------------

    def _check(self, vec) -> None:
        if len(vec) != self.dim:
            raise DomainError(f"vector length {len(vec)} != dim {self.dim}")

    def _finvec(self, entries: Iterable[Fraction]) -> FinVec:
        return FinVec({i + 1: v for i, v in enumerate(entries)})

    def norm_sq(self, vec):
        """Exact squared norm; a float on l_p with p not in {1, 2, inf}."""
        self._check(vec)
        if not self.has_exact_batch():
            n = self.norm(vec)
            return n * n
        x = [Fraction(e) for e in vec]
        if self.tag == "lp" and self.p == 2.0:
            return sum((e * e for e in x), Fraction(0))
        if self.tag == "t2_span":
            return tsirelson_norm(self._finvec(e * e for e in x)).value
        if self.tag == "mod2_span":
            return modified_norm(self._finvec(e * e for e in x))
        if self.tag == "polytope":
            n = max(abs(sum((fi * xi for fi, xi in zip(f, x)), Fraction(0)))
                    for f in self.functionals)
        elif self.tag == "tsirelson_span":
            n = tsirelson_norm(self._finvec(map(abs, x))).value
        elif self.p == 1.0:
            n = sum(map(abs, x), Fraction(0))
        else:
            n = max(map(abs, x), default=Fraction(0))
        return n * n

    def norm(self, vec) -> float:
        """Float norm (sqrt of the exact squared value where one exists)."""
        self._check(vec)
        if self.tag in ("t2_span", "mod2_span", "tsirelson_span", "polytope"):
            return float_sqrt(self.norm_sq(vec))
        try:
            fv = [float(e) for e in vec]
        except OverflowError as exc:
            raise DomainError(f"a vector entry is out of the float range: {exc}") from exc
        p = self.p
        if p == math.inf:
            return max((abs(v) for v in fv), default=0.0)
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(np.asarray(fv), ord=p))
        if n == math.inf:
            raise DomainError(f"an l{p:g} norm is out of the float range")
        return n

    def norm_array(self, points: np.ndarray) -> np.ndarray:
        """Float norms of the rows of ``points``.

        ``lp`` uses ``np.linalg.norm`` and ``polytope`` one matmul, max |F x|.
        T, T2 and mod2 run their plans batched in float on the columns that
        are nonzero in some row, under their true indices: T on |x| by the
        interval DP (``tsirelson_norm_batch``), T2 on x^2 by the same and mod2
        on x^2 by the compiled bitmask plan (``modified_norm_batch``), each
        followed by a square root.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if self.tag == "lp":
            return np.linalg.norm(pts, ord=self.p, axis=1)
        if pts.shape[1] != self.dim:
            raise DomainError(f"vector length {pts.shape[1]} != dim {self.dim}")
        if self.tag == "polytope":
            return np.abs(pts @ np.array(self.functionals, dtype=float).T).max(axis=1)
        cols = np.flatnonzero(pts.any(axis=0))
        if self.tag == "tsirelson_span":
            return tsirelson_norm_batch(np.abs(pts[:, cols]), (cols + 1).tolist())
        batch = tsirelson_norm_batch if self.tag == "t2_span" else modified_norm_batch
        return np.sqrt(batch(pts[:, cols] ** 2, (cols + 1).tolist()))

    def reads_squares(self) -> bool:
        """Whether the norm reads only the squares of the coordinates."""
        return self.tag in ("t2_span", "mod2_span") or (self.tag == "lp" and self.p == 2.0)

    def has_exact_batch(self, scaled: bool = False) -> bool:
        """Whether ``norm_sq_batch`` has an integer evaluator: on every tag
        but l_p with p not in {1, 2, inf}, and for rows with square-root
        scaled columns (``scaled``) only on a norm that reads squares."""
        if scaled and not self.reads_squares():
            return False
        return self.tag != "lp" or self.p in (1.0, 2.0, math.inf)

    def norm_sq_batch(self, M: np.ndarray, cols: Sequence[int],
                      weights: Sequence[int] | None = None) -> tuple[list[int], int]:
        """Exact squared norms of integer rows, as numerators over one
        denominator: row r's squared norm is nums[r] / den.

        Row r of ``M`` (int64, or Python ints as dtype=object) is the vector
        with M[r, j] at coordinate cols[j] (0-based, increasing) and 0
        elsewhere.  A norm that reads squares takes coordinate j's square as
        M[r, j]^2 weights[j] (1 without ``weights``), so a column can count
        integer multiples of one square root.  T and T2 run the interval
        plan (``tsirelson_norm_batch_exact``), mod2 the compiled bitmask plan
        (``modified_norm_batch_exact``); both raise SupportTooLarge above
        their caps before any plan runs.  l1, l2 and linf take integer sums
        and maxima, and a polytope one integer matmul against its
        functionals over their common denominator, then max |.|.  The caller
        picks a dtype in which the squares and their row sums stay exact
        (``exact_dtype``); the polytope picks its own for the matmul.
        """
        if not self.has_exact_batch(weights is not None):
            raise DomainError(f"{self!r} has no exact batch on these rows")
        labels = [k + 1 for k in cols]
        if self.reads_squares():
            sq = M * M if weights is None else M * M * np.array(weights, dtype=M.dtype)
            if self.tag == "lp":
                return sq.sum(axis=1).tolist(), 1
            batch = tsirelson_norm_batch_exact if self.tag == "t2_span" else modified_norm_batch_exact
            return batch(sq, labels)
        A = np.abs(M)
        if self.tag == "tsirelson_span":
            nums, scale = tsirelson_norm_batch_exact(A, labels)
            return [v * v for v in nums], scale * scale
        if self.tag == "polytope":
            D = math.lcm(*(v.denominator for f in self.functionals for v in f))
            F = [[f[k].numerator * (D // f[k].denominator) for k in cols]
                 for f in self.functionals]
            dtype = exact_dtype(int(A.max(initial=0)) * max(sum(map(abs, f)) for f in F))
            Ft = np.array(F, dtype=dtype).reshape(len(F), len(cols)).T
            return [v * v for v in np.abs(M.astype(dtype) @ Ft).max(axis=1).tolist()], D * D
        nums = (A.sum(axis=1) if self.p == 1.0 else A.max(axis=1, initial=0)).tolist()
        return [v * v for v in nums], 1


@dataclass(frozen=True)
class VectorFamily:
    """Finite list of coordinate vectors in a common space.

    ``col_sq`` (one positive rational per coordinate, or None for all 1)
    scales columns by square roots: entry x_ik stands for
    x_ik sqrt(col_sq[k]).  A norm that reads squares sees x_ik^2 col_sq[k],
    so families such as { sqrt(q_j) e_j } keep exact ratios there.
    """

    vectors: tuple[tuple, ...]
    space: SpaceOracle
    col_sq: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.space.dim:
                raise DomainError("family vector length does not match space dim")
        if self.col_sq is not None and (len(self.col_sq) != self.space.dim
                                        or any(q <= 0 for q in self.col_sq)):
            raise DomainError("col_sq must hold one positive rational per coordinate")

    @classmethod
    def make(cls, vectors: Iterable[Iterable], space: SpaceOracle) -> "VectorFamily":
        return cls(tuple(tuple(v) for v in vectors), space)

    def __len__(self) -> int:
        return len(self.vectors)

    def as_array(self) -> np.ndarray:
        try:
            arr = np.array([[float(e) for e in v] for v in self.vectors], dtype=float)
        except OverflowError as exc:
            raise DomainError(f"a vector entry is out of the float range: {exc}") from exc
        if self.col_sq is not None and len(arr):
            arr *= np.sqrt([float(q) for q in self.col_sq])
        return arr


def diagonal_sqrt_family(space: SpaceOracle, squares) -> VectorFamily:
    """Family { sqrt(q_j) e_j } from a map j -> q_j of squared weights.

    A perfect square q_j gives the rational entry sqrt(q_j); any other gives
    the entry 1 on a column with ``col_sq`` q_j, so the family stays exact
    on T2, mod2 and l2.
    """
    items = squares.items() if hasattr(squares, "items") else enumerate(squares, start=1)
    vectors = []
    col_sq = [Fraction(1)] * space.dim
    for j, q in items:
        if q == 0:
            continue
        if not 1 <= j <= space.dim:
            raise DomainError(f"index {j} outside dim {space.dim}")
        row: list = [Fraction(0)] * space.dim
        root = _fraction_sqrt(Fraction(q))
        if root is None:
            row[j - 1], col_sq[j - 1] = Fraction(1), Fraction(q)
        else:
            row[j - 1] = root
        vectors.append(tuple(row))
    scaled = any(q != 1 for q in col_sq)
    return VectorFamily(tuple(vectors), space, tuple(col_sq) if scaled else None)


@dataclass(frozen=True)
class RatioEstimate:
    point: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    mode: str  # "rademacher-exact" | "gaussian-mc"
    kind: str  # "type" | "cotype"
    exact: Fraction | None = None


def rademacher_ratio(family: VectorFamily, kind: str) -> RatioEstimate:
    """Exact sign-averaged ratio.

    type:   mean_eps ||sum eps_i x_i||^2  /  sum ||x_i||^2
    cotype: sum ||x_i||^2  /  mean_eps ||sum eps_i x_i||^2

    Every supported norm is even, so eps and -eps give the same squared norm:
    the average over the 2^(n-1) patterns with eps_n = +1 equals the average
    over all 2^n.  The sign sums are taken on integer numerators over the
    family's common denominator L (``_integer_family``), and norms are
    homogeneous, so the mean is the sum of the 2^(n-1) squared norms divided
    by L^2 2^(n-1) once.  Those sums form one integer matrix, evaluated with
    the vectors themselves in chunks (``_batched_moments``).  A union
    support above the engine's cap raises SupportTooLarge before any plan
    runs.  ``samples`` reports the 2^n patterns averaged.

    ``exact`` is the ratio as a ``Fraction`` when the space has an integer
    evaluator for the family (``SpaceOracle.has_exact_batch``), and None
    when its squared norms were evaluated in float.
    """
    _check_kind(kind)
    n = len(family)
    if n > RADEMACHER_CAP:
        raise TooManyVectors(f"{n} vectors exceed the 2^n enumeration cap {RADEMACHER_CAP}")
    if n == 0:
        raise ZeroFamily("empty family")
    try:
        X, L, roots = _integer_family(family)
        S, mean, exact = _batched_moments(family.space, X, L, roots)
    except OverflowError as exc:
        raise DomainError(f"family leaves the float range once scaled to integers: {exc}") from exc
    if kind == "type":
        if S == 0:
            raise ZeroFamily("sum of squared norms is zero")
        ratio = mean / S
    else:
        if mean == 0:
            raise ZeroFamily("all sign sums are zero")
        ratio = S / mean
    point = float(ratio)
    return RatioEstimate(point, point, point, 1 << n, 0, "rademacher-exact", kind,
                         ratio if exact else None)


def _integer_family(family: VectorFamily) -> tuple:
    """The family as integer numerators: (X, L, roots).

    L is the lcm of the entries' denominators and X[i][k] the int L x_ik
    (``Fraction`` entries are used as they are, others read exactly).
    ``roots`` maps each square-root scaled column k to ``col_sq[k]``.
    """
    rows = [[e if type(e) is Fraction else Fraction(e) for e in v] for v in family.vectors]
    L = math.lcm(*(e.denominator for row in rows for e in row))
    X = [[e.numerator * (L // e.denominator) for e in row] for row in rows]
    return X, L, {k: q for k, q in enumerate(family.col_sq or ()) if q != 1}


#: Sign patterns per chunk of ``_batched_moments``, so that its arrays stay a
#: few MiB up to ``RADEMACHER_CAP``.
_PATTERN_CHUNK = 1 << 12


def _batched_moments(space: SpaceOracle, X: list, L: int, roots: dict) -> tuple:
    """(sum_i ||x_i||^2, mean over patterns of ||sum_i eps_i x_i||^2, exact).

    Pattern g < 2^(n-1) takes eps_i = -1 where bit i of g is set, so
    eps_n = +1.  Its sign sum on the union support ``cols`` is row g of
    E X, built in chunks of ``_PATTERN_CHUNK`` rows (the family's own rows
    lead the first chunk).  Coordinate k of a row stands for
    X sqrt(c_k) / L, with c_k = ``roots[k]`` on a square-root column and 1
    elsewhere.  Where the space has an integer evaluator, each chunk's
    squared norms come from one ``SpaceOracle.norm_sq_batch`` call, with
    the int weights C_k = c_k D over D = lcm(denominators of c), and both
    moments are exact; otherwise from ``norm_array`` on the float rows
    X sqrt(c_k).  The arrays' dtype is ``exact_dtype`` of a bound on their
    row sums, taken up front.
    """
    n = len(X)
    cols = [k for k in range(space.dim) if any(row[k] for row in X)]
    scaled = any(k in roots for k in cols)
    exact = space.has_exact_batch(scaled)
    c = [roots.get(k, Fraction(1)) for k in cols]
    D = math.lcm(*(q.denominator for q in c))
    C = [int(q * D) for q in c]
    bounds = [sum(abs(row[k]) for row in X) for k in cols]
    top = max((b * b * m for b, m in zip(bounds, C)) if space.reads_squares() else bounds,
              default=0)
    dtype = exact_dtype(top * max(1, len(cols)))
    V = np.array([[row[k] for k in cols] for row in X], dtype=dtype).reshape(n, len(cols))
    weights = C if scaled else None
    scale = np.sqrt([float(q) for q in c])

    def squared_norms(M: np.ndarray) -> tuple[list, int]:
        if exact:
            nums, den = space.norm_sq_batch(M, cols, weights)
            return nums, den * D
        rows = np.zeros((len(M), space.dim))
        rows[:, cols] = M.astype(float) * scale
        with np.errstate(over="ignore"):
            sq = space.norm_array(rows) ** 2
        if not np.isfinite(sq).all():
            raise DomainError("squared norms leave the float range")
        return sq.tolist(), 1

    half = 1 << (n - 1)
    bits = np.arange(n)
    S = total = 0
    for lo in range(0, half, _PATTERN_CHUNK):
        g = np.arange(lo, min(half, lo + _PATTERN_CHUNK))[:, None]
        E = (1 - 2 * ((g >> bits) & 1)).astype(dtype)
        M = E @ V
        if lo == 0:
            M = np.concatenate([V, M])
        nums, den = squared_norms(M)
        if lo == 0:
            S = Fraction(sum(nums[:n])) / (den * L * L)
            nums = nums[n:]
        total += sum(nums)
    return S, Fraction(total) / ((den * L * L) << (n - 1)), exact


def _check_kind(kind: str) -> None:
    if kind not in ("type", "cotype"):
        raise DomainError(f"kind must be 'type' or 'cotype', got {kind!r}")


def gaussian_ratio(family: VectorFamily, kind: str, samples: int = 100_000,
                   seed: int = 0) -> RatioEstimate:
    """Monte-Carlo ratio with i.i.d. standard Gaussian coefficients.

    Deterministic for a fixed seed; the 95% CI comes from the sample variance
    of the squared norms (the denominator sum of squared norms is exact, so
    the interval transforms directly).  The coefficient and sum arrays are
    ``samples`` rows of ``len(family)`` and ``dim`` cells; above
    ``MC_CELL_CAP`` cells the call raises DomainError before drawing.
    """
    _check_kind(kind)
    if samples < 100:
        raise DomainError("need at least 100 samples")
    cells = samples * max(len(family), family.space.dim)
    if cells > MC_CELL_CAP:
        raise DomainError(f"{samples} samples need {cells} cells, above the cap {MC_CELL_CAP}")
    V = family.as_array()
    if len(family) == 0:
        raise ZeroFamily("empty family")
    space = family.space
    rng = seeded_rng(seed)
    G = rng.standard_normal((samples, len(family)))
    # an overflow shows as a non-finite S or mean and is reported below
    with np.errstate(over="ignore"):
        S = float(np.sum(space.norm_array(V) ** 2))
        ns = space.norm_array(G @ V) ** 2
        mean = float(ns.mean())
    if not (math.isfinite(S) and math.isfinite(mean)):
        raise DomainError("squared norms leave the float range")
    se = float(ns.std(ddof=1) / math.sqrt(samples))
    if kind == "type":
        if S == 0:
            raise ZeroFamily("sum of squared norms is zero")
        point = mean / S
        lo, hi = max(0.0, mean - Z95 * se) / S, (mean + Z95 * se) / S
    else:
        if mean == 0:
            raise ZeroFamily("all sampled sign sums are zero")
        point = S / mean
        lo = S / (mean + Z95 * se)
        hi = S / (mean - Z95 * se) if mean - Z95 * se > 0 else math.inf
    return RatioEstimate(point, lo, hi, samples, seed, "gaussian-mc", kind)


# --------------------------------------------------------------------------
# Cone reduction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeReduction:
    """Result of the covariance-preserving weight reduction.

    ``vectors`` holds the inputs reordered so weights are nonincreasing;
    v_i = sqrt(c_i/c_1) u_i and w_i = sqrt(1 - c_i/c_1) u_i, pointwise, so
    ||v_i||^2 + ||w_i||^2 = ||u_i||^2 and the two Gaussian covariances are
    A/c_1 and (1 - 1/c_1) A.
    """

    permutation: tuple[int, ...]
    weights: np.ndarray
    vectors: np.ndarray
    v: np.ndarray
    w: np.ndarray


def _sym_vec(u: np.ndarray) -> np.ndarray:
    """Vectorize u (x) u with sqrt(2)-scaled off-diagonals so the Euclidean
    inner product of vectorizations equals the Frobenius product."""
    outer = np.outer(u, u)
    d = len(u)
    iu = np.triu_indices(d, k=1)
    return np.concatenate([np.diag(outer), math.sqrt(2.0) * outer[iu]])


def _null_vector(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """A nonzero z with A z = 0, by full-pivot Gaussian elimination.

    Requires more columns than the numerical rank, which the caller
    guarantees (k > d(d+1)/2 columns against d(d+1)/2 rows).
    """
    A = np.array(A, dtype=float)
    D, k = A.shape
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    col_perm = list(range(k))
    r = 0
    for step in range(min(D, k)):
        sub = np.abs(A[step:, step:])
        i_rel, j_rel = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i_rel, j_rel] <= tol * scale:
            break
        i_piv, j_piv = step + i_rel, step + j_rel
        A[[step, i_piv], :] = A[[i_piv, step], :]
        A[:, [step, j_piv]] = A[:, [j_piv, step]]
        col_perm[step], col_perm[j_piv] = col_perm[j_piv], col_perm[step]
        factors = A[step + 1 :, step] / A[step, step]
        A[step + 1 :, step:] -= np.outer(factors, A[step, step:])
        r += 1
    if r >= k:
        raise DegenerateInput("no null direction: matrix has full column rank")
    z_p = np.zeros(k)
    z_p[r] = 1.0
    for i in reversed(range(r)):
        z_p[i] = -(A[i, r] + A[i, i + 1 : r] @ z_p[i + 1 : r]) / A[i, i]
    z = np.zeros(k)
    for pos, orig in enumerate(col_perm):
        z[orig] = z_p[pos]
    return z


def caratheodory_reduce(vectors, dim: int | None = None) -> ConeReduction:
    """Reduce weights on u_1..u_m to at most d(d+1)/2 nonzero entries while
    preserving sum c_i u_i (x) u_i = sum u_i (x) u_i exactly (up to floats).

    The trace identity sum c_i ||u_i||^2 = sum ||u_i||^2 forces max c_i >= 1,
    so after the nonincreasing reordering c_1 >= 1 and the v/w split is real.
    """
    U = np.array([[float(e) for e in v] for v in vectors], dtype=float)
    m, d = U.shape
    if dim is not None and dim != d:
        raise DomainError(f"dim {dim} does not match vector length {d}")
    if m < 2:
        raise DomainError("need at least two vectors")
    if not np.any(U):
        raise DegenerateInput("all input vectors are zero")
    bound = d * (d + 1) // 2
    c = np.ones(m)
    sym = np.array([_sym_vec(U[i]) for i in range(m)])  # m x D

    while int(np.count_nonzero(c)) > bound:
        active = np.flatnonzero(c)
        z_act = _null_vector(sym[active].T)
        if not np.any(z_act > 1e-14):
            z_act = -z_act
        pos = z_act > 1e-14
        ratios = c[active][pos] / z_act[pos]
        t = float(np.min(ratios))
        kill = np.flatnonzero(pos)[int(np.argmin(ratios))]
        c[active] = c[active] - t * z_act
        c[active[kill]] = 0.0
        np.clip(c, 0.0, None, out=c)

    order = np.argsort(-c, kind="stable")
    c_sorted = c[order]
    U_sorted = U[order]
    c1 = c_sorted[0]
    ratios = np.clip(c_sorted / c1, 0.0, 1.0)
    v = np.sqrt(ratios)[:, None] * U_sorted
    w = np.sqrt(1.0 - ratios)[:, None] * U_sorted
    return ConeReduction(tuple(int(i) for i in order), c_sorted, U_sorted, v, w)


def _mc_ratio(vectors: np.ndarray, G: np.ndarray, space: SpaceOracle, kind: str) -> float:
    S = float(np.sum(space.norm_array(vectors) ** 2))
    if S == 0:
        return -math.inf
    mean = float((space.norm_array(G @ vectors) ** 2).mean())
    if kind == "type":
        return mean / S
    return S / mean if mean > 0 else -math.inf


def flm_reduce(family: VectorFamily, kind: str, mc_samples: int = 20_000,
               seed: int = 0) -> VectorFamily:
    """Shrink a family to at most d(d+1)/2 vectors without (statistically)
    decreasing its Gaussian ratio.

    Each round splits via ``caratheodory_reduce`` and keeps the branch whose
    paired Monte-Carlo ratio (common random numbers) is larger; ties go to
    the v-branch, which carries the dominant weight.  Zero vectors are
    dropped, so the family strictly shrinks and the loop terminates.
    """
    _check_kind(kind)
    space = family.space
    bound = space.dim * (space.dim + 1) // 2
    vecs = family.as_array()
    it = 0
    while len(vecs) > bound:
        red = caratheodory_reduce(vecs, space.dim)
        rng = np.random.default_rng(derive_seed(seed, "flm-branch", it))
        G = rng.standard_normal((mc_samples, len(red.vectors)))
        rv = _mc_ratio(red.v, G, space, kind)
        rw = _mc_ratio(red.w, G, space, kind)
        chosen = red.v if rv >= rw else red.w
        vecs = chosen[np.linalg.norm(chosen, axis=1) > 0]
        if len(vecs) == 0:
            raise DegenerateInput("reduction produced an empty family")
        it += 1
    return VectorFamily.make(vecs.tolist(), space)


def kwapien_upper(t2_upper: float, c2_upper: float) -> float:
    """Distortion upper bound from type/cotype upper bounds: their product.

    Valid only when the inputs really are upper bounds for the space's
    type-2 and cotype-2 constants.
    """
    if t2_upper < 1 or c2_upper < 1:
        raise InvalidBound("type/cotype constants are always >= 1")
    return t2_upper * c2_upper


@dataclass(frozen=True)
class C2LowerBound:
    value: float
    mode: str
    certified: bool
    exact_sq: Fraction | None = None


def c2_lower_from_witness(est: RatioEstimate) -> C2LowerBound:
    """sqrt of a witnessed ratio: a lower bound on the Euclidean distortion
    of the family's span, certified when the ratio was computed exactly."""
    certified = est.mode == "rademacher-exact" and est.exact is not None
    return C2LowerBound(
        value=math.sqrt(est.point),
        mode=est.mode,
        certified=certified,
        exact_sq=est.exact if certified else None,
    )
