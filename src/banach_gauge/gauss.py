"""Type-2 / cotype-2 ratio estimation and the cone reduction behind the
finite-family equality for those constants.

Two estimation modes:

* ``rademacher_ratio`` averages over all sign patterns exactly.  Every
  supported norm is even, so it pairs eps with -eps and takes the 2^(n-1)
  patterns with eps_n = +1, on integer numerators over the family's common
  denominator (floats are read as the exact binary rationals they are).  On
  T, T2, mod2, l1, l2 and linf the sign sums form one integer matrix,
  evaluated in a few batched exact calls (the interval plan, the compiled
  mod2 plan, or an integer reduction); on other spaces a Gray-code walk
  makes one ``norm_sq`` call per pattern.  When the squared norms are
  rational the ratio is an exact ``Fraction`` and can serve as a
  certificate.
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
    MAX_DP_SUPPORT,
    MAX_MODIFIED_SUPPORT,
    exact_dtype,
    modified_norm,
    modified_norm_batch,
    modified_norm_batch_exact,
    tsirelson_norm,
    tsirelson_norm_batch,
    tsirelson_norm_batch_exact,
)

__all__ = [
    "SqrtRat",
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


@dataclass(frozen=True)
class SqrtRat:
    """Exact scalar of the form sign * sqrt(radicand), radicand rational >= 0.

    Closed under negation, squaring, and addition of equal radicands; other
    sums degrade to float.  This is just enough to push diagonal families
    with square-root weights through the exact Rademacher average.
    """

    sign: int
    radicand: Fraction

    @classmethod
    def of(cls, q) -> "SqrtRat":
        q = Fraction(q)
        if q < 0:
            raise ValueError("radicand must be >= 0")
        return cls(0 if q == 0 else 1, q)

    def square(self) -> Fraction:
        return self.radicand if self.sign else Fraction(0)

    def __float__(self) -> float:
        return self.sign * math.sqrt(float(self.radicand))

    def __neg__(self) -> "SqrtRat":
        return SqrtRat(-self.sign, self.radicand)

    def __abs__(self) -> "SqrtRat":
        return SqrtRat(abs(self.sign), self.radicand)

    def __add__(self, other):
        if isinstance(other, SqrtRat):
            if self.sign == 0:
                return other
            if other.sign == 0:
                return self
            if self.radicand == other.radicand:
                s = self.sign + other.sign
                if s == 0:
                    return Fraction(0)
                return SqrtRat(1 if s > 0 else -1, 4 * self.radicand)
            return float(self) + float(other)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            return float(self) + float(other)
        if isinstance(other, float):
            return float(self) + other
        return NotImplemented

    __radd__ = __add__


def _entry_square(e):
    """Exact square of a scalar entry, or a float when exactness is lost."""
    if isinstance(e, SqrtRat):
        return e.square()
    if isinstance(e, (int, Fraction)):
        f = Fraction(e)
        return f * f
    if isinstance(e, float):
        f = Fraction(e)  # floats are binary rationals; conversion is exact
        return f * f
    raise TypeError(f"unsupported entry {e!r}")


def _entry_abs_fraction(e):
    """|e| as an exact Fraction, or None when not representable."""
    if isinstance(e, (int, Fraction)):
        return abs(Fraction(e))
    if isinstance(e, float):
        return abs(Fraction(e))
    if isinstance(e, SqrtRat):
        q = e.square()
        r = _fraction_sqrt(q)
        return r  # None unless q is a perfect square
    return None


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _signed_fraction(e) -> Fraction | None:
    """e as an exact Fraction, or None when that needs an irrational root."""
    if isinstance(e, (int, Fraction, float)):
        return Fraction(e)
    if isinstance(e, SqrtRat):
        root = _fraction_sqrt(e.square())
        return e.sign * root if root is not None else None
    return None


class SpaceOracle:
    """A coordinate span together with a norm evaluator.

    Tags: ``lp`` (with parameter p, math.inf allowed), ``tsirelson_span``,
    ``t2_span``, ``mod2_span``, ``polytope`` (norm = max |<f_i, x>| over a
    spanning list of functionals).  ``norm_sq`` returns an exact ``Fraction``
    whenever the evaluation stays rational, otherwise a float; ``norm_array``
    is the batched float path and ``norm_sq_batch`` the batched exact one on
    integer rows.
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
        """Squared norm; exact Fraction on the rational-norm tags."""
        self._check(vec)
        if self.tag == "t2_span":
            squares = [_entry_square(e) for e in vec]
            return tsirelson_norm(self._finvec(squares)).value
        if self.tag == "mod2_span":
            squares = [_entry_square(e) for e in vec]
            return modified_norm(self._finvec(squares))
        if self.tag == "tsirelson_span":
            av = [_entry_abs_fraction(e) for e in vec]
            if any(a is None for a in av):  # an irrational root: no exact value
                n = tsirelson_norm(self._finvec(abs(Fraction(float(e))) for e in vec)).value
                return float(n * n)
            n = tsirelson_norm(self._finvec(av)).value
            return n * n
        if self.tag == "polytope":
            vals = [_signed_fraction(e) for e in vec]
            if all(v is not None for v in vals):
                best = max(
                    abs(sum((fi * vi for fi, vi in zip(f, vals)), Fraction(0)))
                    for f in self.functionals
                )
                return best * best
            fv = [float(e) for e in vec]
            best_f = max(
                abs(sum(float(fi) * vi for fi, vi in zip(f, fv)))
                for f in self.functionals
            )
            return best_f * best_f
        # lp
        p = self.p
        if p == 2.0:
            total = Fraction(0)
            exact = True
            for e in vec:
                try:
                    total += _entry_square(e)
                except TypeError:
                    exact = False
                    break
            if exact:
                return total
            return float(sum(float(e) ** 2 for e in vec))
        if p == 1.0 or p == math.inf:
            av = [_entry_abs_fraction(e) for e in vec]
            if all(a is not None for a in av):
                n = sum(av, Fraction(0)) if p == 1.0 else max(av, default=Fraction(0))
                return n * n
        n = self.norm(vec)
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

    def exact_batch_fits(self, support: int) -> bool:
        """Whether ``norm_sq_batch`` evaluates rows on ``support`` columns: on
        l1, l2 and linf always, on T and T2 up to ``MAX_DP_SUPPORT`` columns,
        on mod2 up to ``MAX_MODIFIED_SUPPORT``, on other tags never."""
        if self.tag == "lp":
            return self.p in (1.0, 2.0, math.inf)
        if self.tag == "mod2_span":
            return support <= MAX_MODIFIED_SUPPORT
        return self.tag != "polytope" and support <= MAX_DP_SUPPORT

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
        (``modified_norm_batch_exact``), l1, l2 and linf integer sums and
        maxima.  The caller picks a dtype in which the squares and their row
        sums stay exact (``exact_dtype``).
        """
        if not self.exact_batch_fits(len(cols)) or (weights is not None and not self.reads_squares()):
            raise DomainError(f"{self!r} has no exact batch on these {len(cols)} columns")
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
        nums = (A.sum(axis=1) if self.p == 1.0 else A.max(axis=1, initial=0)).tolist()
        return [v * v for v in nums], 1

    def spot_check(self, seed: int = 0, trials: int = 25) -> bool:
        """Sampled norm axioms: homogeneity, positive-definiteness, triangle."""
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            a = rng.standard_normal(self.dim)
            b = rng.standard_normal(self.dim)
            c = float(rng.uniform(-3, 3))
            na, nb = self.norm(a.tolist()), self.norm(b.tolist())
            if na <= 0 and np.any(a != 0):
                return False
            if not math.isclose(self.norm((c * a).tolist()), abs(c) * na, rel_tol=1e-9, abs_tol=1e-12):
                return False
            if self.norm((a + b).tolist()) > na + nb + 1e-9 * (na + nb + 1):
                return False
        return True


@dataclass(frozen=True)
class VectorFamily:
    """Finite list of coordinate vectors in a common space."""

    vectors: tuple[tuple, ...]
    space: SpaceOracle

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.space.dim:
                raise DomainError("family vector length does not match space dim")

    @classmethod
    def make(cls, vectors: Iterable[Iterable], space: SpaceOracle) -> "VectorFamily":
        return cls(tuple(tuple(v) for v in vectors), space)

    def __len__(self) -> int:
        return len(self.vectors)

    def as_array(self) -> np.ndarray:
        try:
            return np.array([[float(e) for e in v] for v in self.vectors], dtype=float)
        except OverflowError as exc:
            raise DomainError(f"a vector entry is out of the float range: {exc}") from exc


def diagonal_sqrt_family(space: SpaceOracle, squares) -> VectorFamily:
    """Family { sqrt(q_j) e_j } from a map j -> q_j of squared weights."""
    items = squares.items() if hasattr(squares, "items") else enumerate(squares, start=1)
    vectors = []
    for j, q in items:
        if q == 0:
            continue
        row: list = [Fraction(0)] * space.dim
        if not 1 <= j <= space.dim:
            raise DomainError(f"index {j} outside dim {space.dim}")
        root = _fraction_sqrt(Fraction(q))
        row[j - 1] = root if root is not None else SqrtRat.of(q)
        vectors.append(tuple(row))
    return VectorFamily(tuple(vectors), space)


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
    by L^2 2^(n-1) once.  On T, T2, mod2, l1, l2 and linf those sums form one
    integer matrix, evaluated with the vectors themselves in a few batched
    exact calls (``_batched_moments``); other spaces, coordinates that have
    no exact integer form there, and a union support above the engine's cap
    (``SpaceOracle.exact_batch_fits``) take a Gray-code walk with one
    ``norm_sq`` call per pattern (``_walked_moments``).  ``samples`` still
    reports the 2^n patterns averaged.

    ``exact`` is the ratio as a ``Fraction`` when every squared norm is
    rational, and None when the oracle evaluates in float or a coordinate
    sums unlike square roots.
    """
    _check_kind(kind)
    n = len(family)
    if n > RADEMACHER_CAP:
        raise TooManyVectors(f"{n} vectors exceed the 2^n enumeration cap {RADEMACHER_CAP}")
    if n == 0:
        raise ZeroFamily("empty family")
    space = family.space
    try:
        X, L, roots, mixed = _integer_family(family.vectors, space.dim)
        cols = [k for k in range(space.dim) if any(row[k] for row in X)]
        if (not mixed and (not roots or space.reads_squares())
                and space.exact_batch_fits(len(cols))):
            S, mean = _batched_moments(space, X, L, roots, cols)
            inexact = False
        else:
            S, mean, inexact = _walked_moments(space, family.vectors, X, L, roots, mixed)
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
                         None if inexact else ratio)


def _exact_entry(e):
    """e as a Fraction (floats exactly), or e itself if it is an irrational SqrtRat."""
    if isinstance(e, SqrtRat):
        root = _fraction_sqrt(e.radicand)
        return e if root is None else e.sign * root
    return Fraction(e)


def _integer_family(vectors, dim: int) -> tuple:
    """The family as integer numerators: (X, L, roots, mixed).

    L is the lcm of the denominators of the rational entries, and X[i][k] is
    the int L x_ik on a rational coordinate.  A coordinate whose nonzero
    entries are SqrtRat of one radicand r holds int multiples of
    sqrt(r L^2): X[i][k] is the entry's sign and ``roots[k]`` is r L^2.  A
    coordinate that mixes unlike square roots has no exact value: X is 0
    there and ``mixed[k]`` lists its (vector, float L x_ik) terms.
    """
    rows = [[_exact_entry(e) for e in v] for v in vectors]
    L = math.lcm(*(e.denominator for row in rows for e in row if isinstance(e, Fraction)))
    X = [[0] * dim for _ in rows]
    roots: dict[int, Fraction] = {}
    mixed: dict[int, list[tuple[int, float]]] = {}
    for k in range(dim):
        col = [(i, row[k]) for i, row in enumerate(rows) if row[k] != 0]
        units = {e.radicand if isinstance(e, SqrtRat) else None for _, e in col}
        if len(units) > 1:
            mixed[k] = [(i, float(e * L) if isinstance(e, Fraction)
                         else float(SqrtRat(e.sign, e.radicand * L * L))) for i, e in col]
            continue
        unit = units.pop() if units else None
        if unit is not None:
            roots[k] = unit * L * L
        for i, e in col:
            X[i][k] = e.numerator * (L // e.denominator) if unit is None else e.sign
    return X, L, roots, mixed


#: Sign patterns per chunk of ``_batched_moments``, so that its arrays stay a
#: few MiB up to ``RADEMACHER_CAP``.
_PATTERN_CHUNK = 1 << 12


def _batched_moments(space: SpaceOracle, X: list, L: int, roots: dict,
                     cols: list) -> tuple:
    """(sum_i ||x_i||^2, mean over patterns of ||sum_i eps_i x_i||^2), exact.

    Pattern g < 2^(n-1) takes eps_i = -1 where bit i of g is set, so
    eps_n = +1.  Its sign sum on the union support ``cols`` is row g of
    E X, built in chunks of ``_PATTERN_CHUNK`` rows (the family's own rows
    lead the first chunk), and each chunk's squared norms come from one
    ``SpaceOracle.norm_sq_batch`` call.  On a squares-reading norm a
    coordinate's square is X^2 c_k / L^2, with c_k = 1, or r L^2 on a root
    coordinate (``_integer_family``); over D = lcm(denominators of c) the
    weights C_k = c_k D are ints.  The arrays' dtype is ``exact_dtype`` of
    a bound on their row sums, taken up front; the sums of squared norms
    are Python ints.
    """
    n = len(X)
    c = [roots.get(k, Fraction(1)) for k in cols]
    D = math.lcm(*(q.denominator for q in c))
    C = [int(q * D) for q in c]
    bounds = [sum(abs(row[k]) for row in X) for k in cols]
    top = max((b * b * m for b, m in zip(bounds, C)) if space.reads_squares() else bounds,
              default=0)
    dtype = exact_dtype(top * max(1, len(cols)))
    V = np.array([[row[k] for k in cols] for row in X], dtype=dtype).reshape(n, len(cols))
    weights = C if roots else None
    half = 1 << (n - 1)
    bits = np.arange(n)
    S = total = 0
    for lo in range(0, half, _PATTERN_CHUNK):
        g = np.arange(lo, min(half, lo + _PATTERN_CHUNK))[:, None]
        E = (1 - 2 * ((g >> bits) & 1)).astype(dtype)
        M = E @ V
        if lo == 0:
            M = np.concatenate([V, M])
        nums, den = space.norm_sq_batch(M, cols, weights)
        if lo == 0:
            S = Fraction(sum(nums[:n]), den * L * L * D)
            nums = nums[n:]
        total += sum(nums)
    return S, Fraction(total, (den * L * L * D) << (n - 1))


def _walked_moments(space: SpaceOracle, vectors, X: list, L: int, roots: dict,
                    mixed: dict) -> tuple:
    """(sum_i ||x_i||^2, mean squared norm of the sign sums, inexact) by one
    ``norm_sq`` call per vector and per pattern.

    The 2^(n-1) patterns with eps_n = +1 are visited in binary reflected
    Gray code order (Knuth, TAOCP 7.2.1.1) from sum_i L x_i: step g flips
    vector b = lowest set bit of g, which adds or subtracts 2 L x_b on that
    vector's nonzero coordinates only.  A root coordinate reaches the
    oracle as the exact ``SqrtRat`` of m^2 r L^2, and a mixed one is summed
    in float (``math.fsum``) from the current signs.
    """
    n = len(X)
    S = sum(space.norm_sq(list(v)) for v in vectors)
    acc = [sum(col) for col in zip(*X)]
    steps = [[(k, 2 * c) for k, c in enumerate(row) if c] for row in X]
    signs = [1] * n

    def sign_sum() -> list:
        if not (roots or mixed):
            return acc
        vec = list(acc)
        for k, r in roots.items():
            m = acc[k]
            vec[k] = SqrtRat(1 if m > 0 else -1, m * m * r) if m else 0
        for k, terms in mixed.items():
            vec[k] = math.fsum(signs[i] * f for i, f in terms)
        return vec

    total = space.norm_sq(sign_sum())
    for g in range(1, 1 << (n - 1)):
        b = (g & -g).bit_length() - 1
        s = signs[b]
        signs[b] = -s
        for k, c in steps[b]:
            acc[k] -= s * c
        total += space.norm_sq(sign_sum())
    mean = Fraction(total) / (L * L << (n - 1))
    inexact = bool(mixed) or isinstance(total, float) or isinstance(S, float)
    return Fraction(S), mean, inexact


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
