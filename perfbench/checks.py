"""Output checks that do not trust the timed path.

Each check re-derives what it can from the inputs with an engine other than
the one that produced the answer (the all-subsets oracle against the interval
DP, integer arithmetic against the ``gauss`` sign loop, certificate
re-evaluation against the DP's value) or checks an identity the answer must
satisfy.  ``check`` returns a list of problems; empty means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from outputs import stable_output

from banach_gauge.seqvec import FinVec, abs_square, l1_norm, sup_norm
from banach_gauge.tsirelson import (
    certificate_from_json,
    certificate_value,
    tsirelson_norm,
    tsirelson_norm_bruteforce,
)

#: relative tolerance for floats compared against the recorded outputs
FLOAT_RTOL = 1e-9
#: absolute floor, for roundoff residuals that are ~1e-16 by design
FLOAT_ATOL = 1e-12
BRUTE_MAX = 12


def target_dim(n: int, source_dim: int, eps: float, constant: float = 8.0) -> int:
    """The jl-embed target dimension: ceil(C ln n / eps^2), capped at D."""
    return min(max(1, math.ceil(constant * math.log(n) / eps**2)), source_dim)


def options(argv: list[str]) -> dict:
    opts = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opts[tok[2:]] = nxt if nxt is not None and not nxt.startswith("--") else True
    return opts


def _load(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _tail(x: FinVec) -> Fraction:
    return sum((v for j, v in x.items() if j >= 3), Fraction(0))


def _flat_search(out: dict, opts: dict) -> list[str]:
    errs = []
    if out.get("converged") is not True:
        errs.append("flat-search did not converge")
    x = FinVec.from_json(out["witness"])
    theta = Fraction(out["theta"])
    norm = theta * _tail(x)
    if len(x) <= BRUTE_MAX and norm != tsirelson_norm_bruteforce(x):
        errs.append("theta * tail differs from the brute-force norm of the witness")
    if Fraction(out["lp_value"]) != theta:
        errs.append("converged LP value differs from theta")
    if certificate_value(certificate_from_json(out["certificate"]), x) != norm:
        errs.append("returned certificate does not attain the witness norm")
    return errs


def _cotype_cert(out: dict, opts: dict) -> list[str]:
    x = FinVec.from_json(_load(opts["witness"]))
    norm = tsirelson_norm_bruteforce(x) if len(x) <= BRUTE_MAX else tsirelson_norm(x).value
    total = sum((v for _, v in x.items()), Fraction(0))
    errs = []
    if Fraction(out["ratio"]) != total / norm:
        errs.append("cotype ratio differs from sum(x) / ||x||_T")
    if Fraction(out["theta"]) != norm / _tail(x):
        errs.append("theta differs from ||x||_T / tail")
    if not math.isclose(out["c2_lower"], math.sqrt(float(total / norm)), rel_tol=1e-12):
        errs.append("c2_lower is not sqrt(ratio)")
    return errs


def _norm(out: dict, opts: dict) -> list[str]:
    x = FinVec.from_json(_load(opts["vec"]))
    space = opts["space"]
    squared = space in ("T2", "mod2")
    y = abs_square(x) if squared else x  # the vector the recursion runs on
    value = Fraction(out["value_sq"] if squared else out["value"])
    errs = []
    if not sup_norm(y) <= value <= l1_norm(y):
        errs.append("value outside [sup norm, l1 norm]")
    if squared and not math.isclose(out["value"], math.sqrt(float(value)), rel_tol=1e-12):
        errs.append("value is not sqrt(value_sq)")
    if space in ("mod", "mod2"):
        # modified families include every Tsirelson family
        if value < tsirelson_norm(y).value:
            errs.append("modified norm below the Tsirelson norm")
    elif opts.get("brute"):
        if value != tsirelson_norm(y).value:
            errs.append("brute-force value differs from the interval DP")
    else:
        cert = certificate_from_json(_load(opts["cert-out"]))
        if cert.value != value or certificate_value(cert, y) != value:
            errs.append("certificate does not re-evaluate to the value")
        if len(y) <= BRUTE_MAX and value != tsirelson_norm_bruteforce(y):
            errs.append("interval DP differs from the brute-force oracle")
    return errs


def _lp_sign_average(rows: list[list[Fraction]], p: float) -> tuple[Fraction, Fraction]:
    """(sum ||x_i||^2, mean over signs ||sum eps_i x_i||^2) in exact integers."""
    lcm = math.lcm(*(v.denominator for r in rows for v in r))
    ints = np.array([[int(v * lcm) for v in r] for r in rows], dtype=np.int64)
    n = len(rows)
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int64)
    sums = signs @ ints

    def sq(a: np.ndarray) -> list[int]:
        if p == 1:
            return [int(v) ** 2 for v in np.abs(a).sum(axis=1)]
        if p == 2:
            return [int(v) for v in (a * a).sum(axis=1)]
        return [int(v) ** 2 for v in np.abs(a).max(axis=1)]

    scale = lcm * lcm
    return Fraction(sum(sq(ints)), scale), Fraction(sum(sq(sums)), scale * len(signs))


_LP = {"l1": 1, "l2": 2, "linf": math.inf}


def _ratio(out: dict, opts: dict) -> list[str]:
    rows = _load(opts["vecs"])
    n, kind, space = len(rows), opts["kind"], opts["space"]
    errs = []
    if opts.get("mode") == "exact":
        if out.get("exact") is None:
            return ["exact mode on rational inputs returned no exact ratio"]
        ratio = Fraction(out["exact"])
        if not Fraction(1, n) <= ratio <= n:
            errs.append("exact ratio outside [1/n, n]")
        if space in _LP:
            S, mean = _lp_sign_average([[Fraction(v) for v in r] for r in rows], _LP[space])
            if ratio != (mean / S if kind == "type" else S / mean):
                errs.append("exact ratio differs from the integer sign average")
        return errs
    if out.get("samples") != int(opts["samples"]):
        errs.append("sample count differs from --samples")
    lo, hi = out["ci"]
    if not lo <= out["point"] <= hi:
        errs.append("point estimate outside its confidence interval")
    if space == "l2" and abs(out["point"] - 1) > 1.5 * (hi - lo):
        errs.append("Euclidean Gaussian ratio far from 1")
    return errs


def _jl_embed(out: dict, opts: dict) -> list[str]:
    pts = _load(opts["points"])
    n, dim, eps = len(pts), len(pts[0]), float(opts["eps"])
    errs = []
    if (out["n"], out["source_dim"]) != (n, dim):
        errs.append("reported shape differs from the input")
    if out["target_dim"] != target_dim(n, dim, eps, float(opts.get("constant", 8.0))):
        errs.append("target_dim is not ceil(C ln n / eps^2) capped at D")
    if not out["distortion"] <= 1 + eps:
        errs.append("distortion exceeds 1 + eps")
    if out["min_ratio"] != 1.0 or out["max_ratio"] != out["distortion"]:
        errs.append("map is not normalized to min ratio 1")
    for i, j in (out["argmin"], out["argmax"]):
        if not 0 <= i < j < n:
            errs.append("argmin/argmax is not a pair of input points")
    return errs


def _jl_mechanism(out: dict, opts: dict) -> list[str]:
    rows = _load(opts["family"])
    m = max(1, math.ceil(math.log2(len(rows))))
    errs = []
    if out["m"] != m or len(out["trials"]) != int(opts["trials"]):
        errs.append("wrong m or trial count")
    count = 2 * (1 << m) + 1
    for t in out["trials"]:
        if t["ratio"] > 1 + 1e-9:
            errs.append(f"trial {t['trial']}: lhs/rhs exceeds 1")
        if t["point_count"] != count or t["target_dim"] != target_dim(count, len(rows[0]), 0.5):
            errs.append(f"trial {t['trial']}: wrong point count or target dimension")
        if not t["d_jl"] <= 1.5:
            errs.append(f"trial {t['trial']}: embedding distortion exceeds 1 + eps")
    return errs


def _walsh(out: dict, opts: dict) -> list[str]:
    m = int(opts["m"])
    errs = []
    if not (out["orthogonality_ok"] is True and out["orthogonality_residual"] <= 1e-10):
        errs.append("Walsh orthogonality residual above 1e-10")
    if out["size"] != (1 << (m + 1)) + 1 or out["size_bound"] != out["size"]:
        errs.append("point set size is not 2^(m+1) + 1")
    if not 1 <= out["distinct"] <= out["size"]:
        errs.append("distinct count outside [1, size]")
    return errs


def _caratheodory(out: dict, opts: dict) -> list[str]:
    d = len(_load(opts["vecs"])[0])
    errs = []
    if out["bound"] != d * (d + 1) // 2 or out["nonzero_weights"] > out["bound"]:
        errs.append("more nonzero weights than d(d+1)/2")
    if out["cov_residual"] > 1e-9 or out["norm_identity_residual"] > 1e-9:
        errs.append("reduction does not preserve the covariance")
    if out["c1"] < 1 - 1e-12:
        errs.append("largest weight below 1")
    return errs


_BY_KIND = {
    "flat-search": _flat_search,
    "cotype-cert": _cotype_cert,
    "norm-dp": _norm,
    "norm-oracle": _norm,
    "ratio-exact": _ratio,
    "ratio-mc": _ratio,
    "jl-embed": _jl_embed,
    "jl-mechanism": _jl_mechanism,
    "walsh": _walsh,
    "caratheodory": _caratheodory,
}


#: fields left out of the recorded outputs: file paths, and how much work an
#: engine did or which of several valid certificates it found, which an
#: optimisation may change while the answers stay the same
NOT_ANSWERS = {"cert_out", "source", "stats", "lp_rounds", "pool_size", "certificate"}
#: jl-embed fields left out when target_dim == source_dim: the map is then a
#: rotation, every pair ratio is 1 to within roundoff, and roundoff alone
#: picks the extreme pairs (the jl-embed check still covers these fields)
ROTATION_TIES = {"argmin", "argmax", "map_scale"}


def answers(obj):
    """The output with NOT_ANSWERS (and ROTATION_TIES) removed at every level."""
    if isinstance(obj, dict):
        drop = set(NOT_ANSWERS)
        if "target_dim" in obj and obj["target_dim"] == obj.get("source_dim"):
            drop |= ROTATION_TIES
        return {k: answers(v) for k, v in obj.items() if k not in drop}
    if isinstance(obj, list):
        return [answers(v) for v in obj]
    return obj


def check(kind: str, argv: list[str], rc: int, text: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {text.strip()[-300:]}"]
    try:
        out = stable_output(text)
        return _BY_KIND[kind](out, options(argv))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


def compare_golden(expected, actual, where: str = "") -> list[str]:
    """Rationals (strings) and ints must match exactly, floats within FLOAT_RTOL/ATOL."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        return [e for k in expected for e in compare_golden(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        return [e for i, (a, b) in enumerate(zip(expected, actual))
                for e in compare_golden(a, b, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)
            and (isinstance(expected, float) or isinstance(actual, float))):
        if math.isclose(expected, actual, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{where}: expected {expected!r}, got {actual!r}"]
