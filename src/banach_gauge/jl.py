"""Random-projection embeddings, distortion measurement, and the Walsh
point-set experiment connecting embeddability to type/cotype.

``jl_embed`` draws a dense Gaussian map into ceil(C ln(n) / eps^2) dimensions
and rescales it so the smallest pairwise ratio is exactly 1 (the one-sided
normalization ||x - y|| <= ||L x - L y||), retrying until the distortion
meets 1 + eps.

The Walsh machinery builds the adversarial point sets: given base vectors
x_A indexed by the subsets A of {1..m} and Gaussian weights g_A, the function

    Phi_g(eps) = sum_A g_A W_A(eps) x_A,        W_A(eps) = prod_{i in A} eps_i

is sampled at all 2^m sign vectors.  Because the Walsh characters are
orthonormal, any *linear* map into Euclidean space satisfies the exact
identity mean_eps ||sum_A W_A(eps) z_A||_2^2 = sum_A ||z_A||_2^2, which is
what turns a low-distortion linear embedding of the point set into a bound
on the sign-averaged functional - the mechanism probed by
``jl_mechanism_experiment``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    AllPointsCoincide,
    BadEpsilon,
    DomainError,
    EmbeddingFailed,
    MTooLarge,
    RatioUndefined,
)
from .gauss import SpaceOracle
from .seeds import derive_seed, seeded_rng

WALSH_M_CAP = 16
MECHANISM_M_CAP = 12
ORTHOGONALITY_TOL = 1e-10


def _finite_rows(rows, what: str) -> np.ndarray:
    """``rows`` as a finite float (n, dim) array; DomainError naming ``what``
    on ragged, non-numeric, non-2-D or non-finite input."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must form an (n, dim) array") from exc
    if arr.ndim != 2:
        raise DomainError(f"{what} must form an (n, dim) array")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    return arr


@dataclass(frozen=True, eq=False)  # arrays have no truth value: == is identity
class PointSet:
    """Finite list of finite coordinate vectors."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _finite_rows(self.points, "points"))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)  # arrays have no truth value: == is identity
class LinearMap:
    """Dense finite matrix with a positive finite scale: x -> scale * (matrix @ x)."""

    matrix: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _finite_rows(self.matrix, "matrix"))
        if self.matrix.shape[0] < 1:
            raise DomainError("matrix must have target_dim >= 1")
        if not 0 < self.scale < math.inf:
            raise DomainError("scale must be positive and finite")

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.scale * (pts @ self.matrix.T)


@dataclass(frozen=True)
class DistortionReport:
    min_ratio: float
    max_ratio: float
    distortion: float
    argmin: tuple[int, int]
    argmax: tuple[int, int]


_BLOCK_CELLS = 1 << 16


def _row_blocks(n: int):
    """Row ranges [a, b) covering the pairs i < j, each about _BLOCK_CELLS
    cells of the band [a, b) x [a + 1, n)."""
    rows = max(1, _BLOCK_CELLS // n)
    for a in range(0, n - 1, rows):
        yield a, min(n - 1, a + rows)


def _euclidean_band(pts: np.ndarray, sq: np.ndarray, a: int, b: int) -> np.ndarray:
    """Euclidean distances of rows [a, b) to rows [a + 1, n), from the Gram
    identity; only the entries with j > i are meaningful.

    Exactly equal rows are put at distance 0, so duplicate points never
    yield roundoff ratios.
    """
    width = len(pts) - a - 1
    band = pts[a:b] @ pts[a + 1:].T
    tot = sq[a:b, None] + sq[None, a + 1:]
    # tot + (-2 G) rounds exactly as tot - 2 G
    band *= -2.0
    band += tot
    np.clip(band, 0.0, None, out=band)
    # two equal rows leave at most ~dim * eps * tot of roundoff; only pairs
    # j > i under that slack (or NaN after an overflow) are compared
    tot *= 4 * (pts.shape[1] + 1) * np.finfo(float).eps
    near = ~(band > tot)
    near[:, :b - a] &= ~np.tri(b - a, k=-1, dtype=bool)
    if near.any():
        r, c = np.divmod(np.flatnonzero(near), width)
        same = np.all(pts[a + r] == pts[a + 1 + c], axis=1)
        band[r[same], c[same]] = 0.0
    return np.sqrt(band, out=band)


def _norm_band(pts: np.ndarray, oracle: SpaceOracle, a: int, b: int) -> np.ndarray:
    """Oracle distances of rows [a, b) to rows [a + 1, n); only the entries
    with j > i are meaningful."""
    n, dim = pts.shape
    out = np.zeros((b - a, n - a - 1))
    # a block of differences holds about _BLOCK_CELLS floats, so it stays in cache
    rows = max(1, _BLOCK_CELLS // dim // n)
    for r in range(a, b, rows):
        e = min(b, r + rows)
        diffs = (pts[r:e, None, :] - pts[None, r + 1:, :]).reshape(-1, dim)
        out[r - a:e - a, r - a:] = oracle.norm_array(diffs).reshape(e - r, n - r - 1)
    return out


def _replaces(value: float, best: float, lower: bool) -> bool:
    """Whether a later pair's ratio displaces the earlier extreme: only when
    strictly more extreme, NaN counting as most extreme (as in np.argmin)."""
    if math.isnan(best) or math.isnan(value):
        return not math.isnan(best)
    return value < best if lower else value > best


def _scan(pts: np.ndarray, oracle: SpaceOracle | None,
          images: Sequence[np.ndarray]) -> list[DistortionReport]:
    """Extremes of ||y_i - y_j||_2 / ||x_i - x_j|| over the pairs i < j, one
    report per image y in ``images``, with the rows x of ``pts`` measured in
    the oracle's norm (Euclidean for None).

    Distances exist one band of rows at a time, and each source band serves
    every image.  Ties go to the first pair in row-major (condensed) order.
    Pairs at distance 0 on both sides are duplicate points and skipped; a
    pair at source distance 0 with a positive image distance raises
    RatioUndefined.
    """
    n = len(pts)
    src_sq, *sqs = (np.sum(y * y, axis=1) for y in (pts, *images))
    ext: list[list] = [[None, None] for _ in images]  # per image: (ratio, pair) of min, max
    for a, b in _row_blocks(n):
        width = n - a - 1
        s = _euclidean_band(pts, src_sq, a, b) if oracle is None else _norm_band(pts, oracle, a, b)
        below = np.zeros((b - a, width), dtype=bool)
        below[:, :b - a] = np.tri(b - a, k=-1, dtype=bool)  # column c < row r: j <= i
        zero = (s == 0) & ~below
        for y, sq, lo_hi in zip(images, sqs, ext):
            t = _euclidean_band(y, sq, a, b)
            drop = below
            if zero.any():
                bad = zero & (t > 0)
                if bad.any():
                    r, c = divmod(int(np.argmax(bad)), width)
                    raise RatioUndefined(
                        f"points {a + r} and {a + 1 + c} coincide in the source norm "
                        "but not in the target"
                    )
                drop = below | (zero & (t == 0))
                if drop.all():
                    continue
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = t / s
            for side, fill, pick in ((0, np.inf, np.argmin), (1, -np.inf, np.argmax)):
                np.copyto(ratio, fill, where=drop)
                k = int(pick(ratio))
                best = lo_hi[side]
                if best is None or _replaces(ratio.flat[k], best[0], side == 0):
                    lo_hi[side] = (float(ratio.flat[k]), (a + k // width, a + 1 + k % width))
    if any(lo is None for lo, _ in ext):
        raise AllPointsCoincide("no distinct pair of points")
    return [DistortionReport(min_ratio=lo[0], max_ratio=hi[0],
                             distortion=hi[0] / lo[0] if lo[0] > 0 else math.inf,
                             argmin=lo[1], argmax=hi[1]) for lo, hi in ext]


def distortion_of_map(points: PointSet, lmap: LinearMap,
                      source_norm: SpaceOracle | None = None) -> DistortionReport:
    """Exact pairwise ratio extremes || L x_i - L x_j ||_2 / || x_i - x_j ||_source.

    Duplicate points (zero in both norms) are skipped; a pair at source
    distance 0 with positive target distance raises RatioUndefined.
    """
    pts = points.points
    if len(pts) < 2:
        raise AllPointsCoincide("need at least two points")
    if lmap.source_dim != pts.shape[1]:
        raise DomainError(f"map source_dim {lmap.source_dim} != point dim {pts.shape[1]}")
    if source_norm is not None and source_norm.dim != pts.shape[1]:
        raise DomainError(f"source norm dim {source_norm.dim} != point dim {pts.shape[1]}")
    return _scan(pts, source_norm, [lmap.apply(pts)])[0]


def jl_embed(points: PointSet | np.ndarray, eps: float, constant: float = 8.0,
             seed: int = 0, max_retries: int = 100) -> tuple[LinearMap, DistortionReport]:
    """Random projection into d = ceil(constant * ln(n) / eps^2) dimensions
    (capped at the source dimension).

    Each draw orthonormalizes a Gaussian matrix, i.e. the map is a multiple
    of a uniformly random orthogonal projection scaled by sqrt(D/d).  When d
    is a sizable fraction of D this concentrates markedly better than raw
    i.i.d. Gaussian entries, whose extra spectral spread would miss the
    1 + eps target at the default operating point.  After each draw the map
    is rescaled so the smallest pairwise ratio is exactly 1, and the draw is
    accepted when the distortion is at most 1 + eps.  Raises EmbeddingFailed
    (carrying the best attempt) when the retry budget runs out.
    """
    if not 0 < eps <= 1:
        raise BadEpsilon(f"eps must lie in (0, 1], got {eps}")
    if not (0 < constant < math.inf):
        raise DomainError(f"constant must be positive and finite, got {constant}")
    if max_retries < 1:
        raise DomainError(f"max_retries must be >= 1, got {max_retries}")
    pts = (points if isinstance(points, PointSet) else PointSet(points)).points
    n, source_dim = pts.shape
    if n < 2:
        raise AllPointsCoincide("need at least two points")
    if source_dim < 1:
        raise DomainError("points need at least one coordinate")
    # a quotient past the float range, or over eps**2 = 0, is at least the source dimension
    q = constant * math.log(n) / eps**2 if eps**2 else math.inf
    d = math.ceil(q) if q < source_dim else source_dim
    rng = seeded_rng(seed)
    best: tuple[float, LinearMap, DistortionReport] | None = None
    for _ in range(max_retries):
        G = rng.standard_normal((source_dim, d))
        Q, _ = np.linalg.qr(G)
        M = math.sqrt(source_dim / d) * Q.T
        rep = _scan(pts, None, [pts @ M.T])[0]
        if rep.min_ratio <= 0:
            continue  # degenerate draw; cannot normalize
        scale = 1.0 / rep.min_ratio
        normalized = LinearMap(M, scale)
        report = replace(rep, min_ratio=1.0, max_ratio=rep.distortion)
        if best is None or report.distortion < best[0]:
            best = (report.distortion, normalized, report)
        if report.distortion <= 1.0 + eps:
            return normalized, report
    assert best is not None
    raise EmbeddingFailed(
        f"no draw met distortion {1 + eps:g} within {max_retries} retries "
        f"(best attempt {best[0]:.6g})",
        best_map=best[1],
        best_report=best[2],
    )


# --------------------------------------------------------------------------
# Walsh ensembles
# --------------------------------------------------------------------------

def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0.

    Row e of the result equals sum_a (-1)^{popcount(e & a)} * input[a]: with
    sign vectors encoded as bitmasks of their -1 positions, this evaluates
    all 2^m Walsh-weighted sums at once.
    """
    a = np.array(a, dtype=float, order="C")  # reshape below must be a view
    n = a.shape[0]
    if n & (n - 1):
        raise DomainError(f"length {n} is not a power of 2")
    h = 1
    while h < n:
        # pairs (start + r, start + h + r) for every block start at once
        v = a.reshape(n // (2 * h), 2, h, *a.shape[1:])
        x = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(x, v[:, 1], out=v[:, 1])
        h *= 2
    return a


def _walsh_m(rows: int) -> int:
    """m for 2^m rows, after checking that 1 <= m <= WALSH_M_CAP."""
    m = rows.bit_length() - 1
    if m < 1 or rows != 1 << m:
        raise DomainError(f"need 2^m rows with m >= 1, got {rows}")
    if m > WALSH_M_CAP:
        raise MTooLarge(f"m={m} exceeds cap {WALSH_M_CAP}")
    return m


@dataclass(frozen=True, eq=False)  # arrays have no truth value: == is identity
class WalshEnsemble:
    """Base vectors indexed by subsets of {1..m} plus Gaussian weights; m is
    read off the 2^m rows of ``base``.

    Subset A <-> bitmask a; sign vector eps <-> bitmask e of its -1 entries,
    so W_A(eps) = (-1)^{popcount(a & e)}.
    """

    base: np.ndarray       # (2^m, dim)
    gaussians: np.ndarray  # (2^m,)

    def __post_init__(self) -> None:
        _walsh_m(self.base.shape[0])
        if self.gaussians.shape != self.base.shape[:1]:
            raise DomainError("need exactly 2^m base vectors and 2^m gaussians")

    @property
    def m(self) -> int:
        return _walsh_m(self.base.shape[0])

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[float]], seed: int = 0,
                     m: int | None = None) -> "WalshEnsemble":
        """Pad a finite family with zero vectors up to the next power of two."""
        V = _finite_rows(vectors, "vectors")
        if len(V) < 1:
            raise DomainError("need at least one vector")
        if m is None:
            m = max(1, math.ceil(math.log2(len(V))))
        if m < 1:
            raise DomainError("m must be >= 1")
        if (len(V) - 1).bit_length() > m:  # len(V) > 2^m, without building 2^m
            raise DomainError(f"{len(V)} vectors do not fit in 2^{m}")
        if m > WALSH_M_CAP:  # before 2^m rows are allocated
            raise MTooLarge(f"m={m} exceeds cap {WALSH_M_CAP}")
        base = np.zeros((1 << m, V.shape[1]))
        base[: len(V)] = V
        return cls(base, seeded_rng(seed).standard_normal(1 << m))


def walsh_pointset(ensemble: WalshEnsemble) -> PointSet:
    """All 2^m values of Phi_g, the 2^m base vectors, and the origin."""
    weighted = ensemble.gaussians[:, None] * ensemble.base
    phi = fwht(weighted)
    zero = np.zeros((1, ensemble.base.shape[1]))
    return PointSet(np.vstack([phi, ensemble.base, zero]))


@dataclass(frozen=True)
class WalshOrthogonality:
    passed: bool
    residual: float
    lhs: float
    rhs: float


def walsh_orthogonality_check(z: np.ndarray) -> WalshOrthogonality:
    """Verify mean_eps || sum_A W_A(eps) z_A ||_2^2 == sum_A || z_A ||_2^2
    over the 2^m rows z_A of ``z``.

    The identity is exact for real inputs; the reported relative residual is
    pure float roundoff, and passes up to ORTHOGONALITY_TOL.
    """
    z = _finite_rows(z, "z")
    _walsh_m(z.shape[0])
    sums = fwht(z)
    lhs = float(np.mean(np.sum(sums * sums, axis=1)))
    rhs = float(np.sum(z * z))
    residual = abs(lhs - rhs) / max(1.0, abs(rhs))
    return WalshOrthogonality(residual <= ORTHOGONALITY_TOL, residual, lhs, rhs)


# --------------------------------------------------------------------------
# Mechanism experiment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MechanismTrial:
    trial: int
    lhs: float
    rhs: float
    ratio: float
    d_composite: float
    d_jl: float
    delta_proxy: float
    target_dim: int
    point_count: int


@dataclass(frozen=True)
class MechanismReport:
    trials: tuple[MechanismTrial, ...]
    max_ratio: float | None
    mean_lhs: float | None
    m: int
    space_tag: str
    note: str = field(
        default="source points are embedded through their coordinates "
        "(Euclidean proxy); constants are measured, not optimized"
    )


def jl_mechanism_experiment(space: SpaceOracle, vectors: Sequence[Sequence[float]],
                            eps: float = 0.5, constant: float = 8.0, seed: int = 0,
                            trials: int = 10) -> MechanismReport:
    """Probe the inequality that caps sign-averaged functionals via embeddability.

    Per trial: draw Gaussian weights, build the Walsh point set U_g, embed its
    coordinates with ``jl_embed``, and measure the composite bi-Lipschitz
    constant D of (space norm -> embedded Euclidean) over U_g, normalized so
    the lower ratio is 1.  Then

        lhs = mean_eps ||Phi_g(eps)||^2   <=   D^2 * sum_A g_A^2 ||x_A||^2 = rhs

    is a theorem for the measured D (Walsh orthogonality holds exactly in the
    Euclidean target), so ratio = lhs/rhs must stay <= 1 up to float noise;
    any violation is an implementation bug.  D plays the role of the product
    of the embedding distortion and the target's Euclidean distortion in the
    recursive bound; both factors are also reported separately.
    """
    V = _finite_rows(vectors, "family")
    if len(V) < 1:
        raise DomainError("need a nonempty family of vectors")
    if V.shape[1] != space.dim:
        raise DomainError("family vectors do not match the space dimension")
    m = max(1, math.ceil(math.log2(len(V))))
    if m > MECHANISM_M_CAP:
        raise MTooLarge(f"padded family needs m={m} > cap {MECHANISM_M_CAP}")
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    rows: list[MechanismTrial] = []
    for t in range(trials):
        ens = WalshEnsemble.from_vectors(V, seed=derive_seed(seed, "walsh-g", t))
        pts = walsh_pointset(ens).points
        lmap, rep = jl_embed(pts, eps, constant, derive_seed(seed, "jl", t))
        # composite: space norm on the source, Euclidean on the image; proxy
        # spread: how non-Euclidean the space norm is on these pairs
        comp, proxy = _scan(pts, space, [lmap.apply(pts), pts])
        d_comp = comp.distortion
        norms = space.norm_array(pts[:len(ens.base)])  # Phi values are the first 2^m rows
        lhs = float(np.mean(norms**2))
        base_norms = space.norm_array(ens.base)
        rhs = d_comp**2 * float(np.sum(ens.gaussians**2 * base_norms**2))
        rows.append(
            MechanismTrial(
                trial=t,
                lhs=lhs,
                rhs=rhs,
                ratio=lhs / rhs if rhs > 0 else math.inf,
                d_composite=d_comp,
                d_jl=rep.distortion,
                delta_proxy=proxy.distortion,
                target_dim=lmap.target_dim,
                point_count=len(pts),
            )
        )
    max_ratio = max((r.ratio for r in rows), default=None)
    mean_lhs = float(np.mean([r.lhs for r in rows])) if rows else None
    return MechanismReport(tuple(rows), max_ratio, mean_lhs, m, space.tag)
