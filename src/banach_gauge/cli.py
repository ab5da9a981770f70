"""banach-gauge: single entry point for all calculators and experiments.

Output conventions:
  * JSON on stdout (CSV with --csv where offered); growth calculators print
    plain decimals or the token EXCEEDS_CAP.
  * exit 0 on success, 1 on domain errors (structured error JSON), 2 on
    usage errors.
  * rationals are serialized as exact "p/q" strings, floats with 17
    significant digits.
  * every seeded command embeds a run manifest; outputs are byte-identical
    for identical argv + seed up to the wall_time_s field.
  * BANACH_GAUGE_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import BanachGaugeError, DomainError
from .flatsearch import FlatWitness, cotype_certificate_from_witness, flatness, search_flat
from .gauss import (
    SpaceOracle,
    VectorFamily,
    caratheodory_reduce,
    gaussian_ratio,
    rademacher_ratio,
)
from .growth import ackermann_g, alpha, alpha_diag, delta_bound, log_star
from .jl import (
    WalshEnsemble,
    jl_embed,
    jl_mechanism_experiment,
    walsh_orthogonality_check,
    walsh_pointset,
)
from .seeds import derive_seed
from .seqvec import FinVec, float_sqrt
from .tsirelson import (
    certificate_to_json,
    modified_norm,
    modified_t2_norm_sq,
    t2_norm_sq,
    tsirelson_norm,
    tsirelson_norm_bruteforce,
)

SEEDED_COMMANDS = {"ratio", "jl-embed", "jl-mechanism", "walsh", "compare-norms"}


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def render_json(obj, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, rationals as 'p/q' strings, floats with
    17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        return _braced(_dict_items(obj, indent)[1], pad)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f) or math.isinf(f):
            return json.dumps(str(f))
        return f"{f:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dict_items(obj: dict, indent: int) -> tuple[list[str], list[str]]:
    """The sorted keys of ``obj`` and its rendered '"key": value' items."""
    keys = sorted(obj, key=str)
    pad = "  " * indent
    return keys, [f'{pad}  {json.dumps(str(k))}: {render_json(obj[k], indent + 1)}' for k in keys]


def _braced(items: list[str], pad: str = "") -> str:
    return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else _csv_cell(v) for v in row])
    return buf.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


@dataclass
class Output:
    """What a handler produced: JSON payload, CSV, or plain text."""

    payload: dict | None = None
    text: str | None = None
    csv: tuple[list[str], list[list]] | None = None


@dataclass(frozen=True)
class RunManifest:
    command: str
    argv: tuple[str, ...]
    seed: int | None
    version: str
    wall_time_s: float
    output_digest: str

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "seed": self.seed,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "output_digest": self.output_digest,
        }


# --------------------------------------------------------------------------
# Input parsing
# --------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc


def _load_finvec(path: str) -> FinVec:
    try:
        return FinVec.from_json(_load_json(path))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _parse_entry(v):
    if isinstance(v, bool):
        raise DomainError(f"cannot use boolean {v} as a vector entry")
    if isinstance(v, (str, int)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad vector entry {v!r}: {exc}") from exc
    if isinstance(v, float):
        if not math.isfinite(v):
            raise DomainError(f"vector entry {v} is not finite")
        return v
    raise DomainError(f"bad vector entry {v!r}")


def _load_rows(path: str) -> list[list]:
    data = _load_json(path)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise DomainError(f"{path}: expected a JSON list of vectors")
    if len({len(r) for r in data}) != 1:
        raise DomainError(f"{path}: vectors have mixed lengths")
    return data


def _load_vectors(path: str) -> list[list]:
    """Exact entries (ints and "p/q" strings as Fractions, floats as is)."""
    return [[_parse_entry(v) for v in r] for r in _load_rows(path)]


def _load_float_array(path: str) -> np.ndarray:
    """The vectors as one float64 (n, dim) array, for the float-only commands.

    JSON floats pass as is; other entries are parsed as in _load_vectors and
    rounded once.  Finiteness is checked on the whole array.
    """
    rows = [[v if type(v) is float else _parse_entry(v) for v in r]
            for r in _load_rows(path)]
    try:
        arr = np.array(rows, dtype=float)
    except OverflowError as exc:
        raise DomainError(f"{path}: a vector entry is out of the float range: {exc}") from exc
    bad = ~np.isfinite(arr)
    if bad.any():
        raise DomainError(f"vector entry {arr[bad][0]} is not finite")
    return arr


# --------------------------------------------------------------------------
# Handlers
# --------------------------------------------------------------------------

def _float_only(handler):
    """Run a float-only command with numpy overflow and invalid operations
    raised: an input whose squares or Gram products leave the float range
    ends in DomainError, not in warnings and non-finite fields."""
    @functools.wraps(handler)
    def run(args) -> Output:
        try:
            with np.errstate(over="raise", invalid="raise"):
                return handler(args)
        except FloatingPointError as exc:
            raise DomainError(f"the input leaves the float range: {exc}") from exc
    return run


def cmd_norm(args) -> Output:
    x = _load_finvec(args.vec)
    space = args.space
    payload: dict = {"space": space}
    cert = None
    if space == "T":
        if args.brute:
            payload["value"] = tsirelson_norm_bruteforce(x)
            payload["engine"] = "bruteforce"
        else:
            res = tsirelson_norm(x)
            payload["value"] = res.value
            payload["stats"] = {
                "memo_entries": res.stats.memo_entries,
                "expansions": res.stats.expansions,
            }
            cert = res.certificate
    elif space == "T2":
        if args.brute:
            from .seqvec import abs_square

            payload["value_sq"] = tsirelson_norm_bruteforce(abs_square(x))
            payload["engine"] = "bruteforce"
        else:
            res = t2_norm_sq(x)
            payload["value_sq"] = res.value
            cert = res.certificate
        payload["value"] = float_sqrt(payload["value_sq"])
    elif space == "mod":
        payload["value"] = modified_norm(x)
        payload["engine"] = "exhaustive"
    elif space == "mod2":
        payload["value_sq"] = modified_t2_norm_sq(x)
        payload["value"] = float_sqrt(payload["value_sq"])
        payload["engine"] = "exhaustive"
    if args.cert_out:
        if cert is None:
            raise DomainError("certificates are only produced by the T/T2 interval engine")
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            fh.write(render_json(certificate_to_json(cert)) + "\n")
        payload["cert_out"] = args.cert_out
    return Output(payload=payload)


def cmd_ratio(args) -> Output:
    rows = _load_vectors(args.vecs)
    space = SpaceOracle.from_tag(args.space, len(rows[0]))
    family = VectorFamily.make(rows, space)
    if args.mode == "exact":
        est = rademacher_ratio(family, args.kind)
    else:
        est = gaussian_ratio(family, args.kind, samples=args.samples, seed=args.seed)
    payload = {
        "point": est.point,
        "ci": [est.ci_low, est.ci_high],
        "mode": est.mode,
        "kind": est.kind,
        "samples": est.samples,
        "exact": None if est.exact is None else est.exact,
        "witness": {"n": len(family), "space": args.space, "source": args.vecs},
    }
    return Output(payload=payload)


@_float_only
def cmd_caratheodory(args) -> Output:
    U = _load_float_array(args.vecs)
    dim = args.dim if args.dim is not None else U.shape[1]
    red = caratheodory_reduce(U, dim)
    target = U.T @ U  # = sum of outer products
    reduced = red.vectors.T @ (red.weights[:, None] * red.vectors)
    denom = float(np.linalg.norm(target)) or 1.0
    cov_residual = float(np.linalg.norm(reduced - target)) / denom
    norm_gap = abs(
        float(np.sum(red.v**2) + np.sum(red.w**2) - np.sum(U**2))
    ) / max(1.0, float(np.sum(U**2)))
    payload = {
        "bound": dim * (dim + 1) // 2,
        "nonzero_weights": int(np.count_nonzero(red.weights)),
        "weights": [float(c) for c in red.weights],
        "permutation": list(red.permutation),
        "cov_residual": cov_residual,
        "norm_identity_residual": norm_gap,
        "c1": float(red.weights[0]),
    }
    return Output(payload=payload)


@_float_only
def cmd_jl_embed(args) -> Output:
    pts = _load_float_array(args.points)
    lmap, rep = jl_embed(pts, args.eps, constant=args.constant, seed=args.seed,
                         max_retries=args.retries)
    payload = {
        "n": len(pts),
        "source_dim": int(pts.shape[1]),
        "target_dim": lmap.target_dim,
        "eps": args.eps,
        "constant": args.constant,
        "distortion": rep.distortion,
        "min_ratio": rep.min_ratio,
        "max_ratio": rep.max_ratio,
        "argmin": list(rep.argmin),
        "argmax": list(rep.argmax),
        "map_scale": lmap.scale,
    }
    return Output(payload=payload)


@_float_only
def cmd_walsh(args) -> Output:
    ens = WalshEnsemble.from_vectors(_load_float_array(args.family), seed=args.seed, m=args.m)
    pset = walsh_pointset(ens)
    distinct = len(np.unique(pset.points, axis=0))
    check = walsh_orthogonality_check(ens.m, ens.gaussians[:, None] * ens.base)
    payload = {
        "m": ens.m,
        "size": len(pset),
        "distinct": distinct,
        "size_bound": (1 << (ens.m + 1)) + 1,
        "orthogonality_residual": check.residual,
        "orthogonality_ok": check.passed,
    }
    return Output(payload=payload)


@_float_only
def cmd_jl_mechanism(args) -> Output:
    family = _load_float_array(args.family)
    space = SpaceOracle.from_tag(args.space, family.shape[1])
    rep = jl_mechanism_experiment(
        space,
        family,
        eps=args.eps,
        constant=args.constant,
        seed=args.seed,
        trials=args.trials,
    )
    trial_rows = [
        {
            "trial": t.trial,
            "lhs": t.lhs,
            "rhs": t.rhs,
            "ratio": t.ratio,
            "d_composite": t.d_composite,
            "d_jl": t.d_jl,
            "delta_proxy": t.delta_proxy,
            "target_dim": t.target_dim,
            "point_count": t.point_count,
        }
        for t in rep.trials
    ]
    if args.csv:
        header = ["trial", "lhs", "rhs", "ratio", "d_composite", "d_jl",
                  "delta_proxy", "target_dim", "point_count"]
        return Output(csv=(header, [[r[h] for h in header] for r in trial_rows]))
    payload = {
        "space": args.space,
        "m": rep.m,
        "max_ratio": rep.max_ratio,
        "mean_lhs": rep.mean_lhs,
        "note": rep.note,
        "trials": trial_rows,
    }
    return Output(payload=payload)


def _parse_intish(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        pass
    try:
        f = float(s)
    except ValueError:
        f = math.nan
    if not math.isfinite(f):
        raise DomainError(f"{s!r} is not a finite number")
    return int(f)


def cmd_growth(args) -> Output:
    sub = args.growth_cmd
    if sub == "log-star":
        return Output(text=str(log_star(float(args.x))))
    if sub == "g":
        res = ackermann_g(args.k, args.n, cap=_parse_intish(args.cap))
        return Output(text=str(res))
    if sub == "alpha":
        return Output(text=str(alpha(args.n)))
    if sub == "alpha-diag":
        return Output(text=str(alpha_diag(args.n)))
    if sub == "delta-bound":
        return cmd_delta_bound(args)
    raise DomainError(f"unknown growth subcommand {sub!r}")


def cmd_delta_bound(args) -> Output:
    return Output(text=f"{delta_bound(float(args.n), args.K, args.D):.17g}")


def cmd_flat_search(args) -> Output:
    res = search_flat(args.N, max_rounds=args.rounds)
    payload = {
        "N": args.N,
        "witness": res.witness.x.to_json(),
        "theta": res.witness.theta,
        "lp_rounds": res.rounds,
        "lp_value": res.lp_value,
        "converged": res.converged,
        "pool_size": len(res.pool),
        "certificate": certificate_to_json(res.witness.certificate),
    }
    return Output(payload=payload)


def cmd_cotype_cert(args) -> Output:
    x = _load_finvec(args.witness)
    if not x:
        raise DomainError("witness vector is zero")
    N = args.N if args.N is not None else max(x.support())
    if N < max(x.support()):
        raise DomainError(f"span bound N={N} does not contain the witness support")
    theta = flatness(x)
    cert = tsirelson_norm(x).certificate
    witness = FlatWitness(x, N, theta, cert)
    cc = cotype_certificate_from_witness(witness)
    payload = {
        "n": cc.N,
        "theta": theta,
        "ratio": cc.ratio,
        "c2_lower": cc.c2_lower,
        "paper_claimed": cc.claimed_c2_lower,
        "note": cc.claimed_note or "certified by the exact sign-averaged ratio",
    }
    return Output(payload=payload)


_COMPARE_VALUES = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                   Fraction(2), Fraction(-2), Fraction(3, 2)]


def cmd_compare_norms(args) -> Output:
    rows = []
    if args.vec:
        vecs = [_load_finvec(args.vec)]
    else:
        if args.max_support < 1:
            raise DomainError(f"--max-support must be >= 1, got {args.max_support}")
        rng = random.Random(args.seed)
        vecs = []
        for _ in range(args.count):
            size = rng.randint(1, args.max_support)
            support = rng.sample(range(1, args.max_support + 1), size)
            vecs.append(FinVec({j: rng.choice(_COMPARE_VALUES) for j in support}))
    for v in vecs:
        t2 = t2_norm_sq(v).value
        mod2 = modified_t2_norm_sq(v)
        rows.append(
            {
                "vec": json.dumps(v.to_json()["v"], sort_keys=True),
                "t2_sq": t2,
                "mod2_sq": mod2,
                "ratio": float(t2 / mod2) if mod2 else math.nan,
            }
        )
    if args.csv:
        header = ["vec", "t2_sq", "mod2_sq", "ratio"]
        return Output(csv=(header, [[r[h] for h in header] for r in rows]))
    return Output(payload={"count": len(rows), "rows": rows})


def cmd_sweep(args) -> Output:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise DomainError(f"{args.config}: a sweep config must be a JSON object")
    command = cfg.get("command")
    if not isinstance(command, str) or command not in HANDLERS or command == "sweep":
        raise DomainError(f"sweep cannot run command {command!r}")
    grid = cfg.get("grid", {})
    fixed = cfg.get("fixed", {})
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise DomainError(f"{args.config}: the grid must map option names to lists of values")
    if not isinstance(fixed, dict):
        raise DomainError(f"{args.config}: fixed must map option names to values")
    try:
        root_seed = int(cfg.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{args.config}: bad seed: {exc}") from exc
    keys = sorted(grid)
    value_lists = [grid[k] for k in keys]
    cells = list(itertools.product(*value_lists)) if keys else [()]
    if any(len(v) == 0 for v in value_lists):
        cells = []
    results: list[tuple[dict, dict | None, str | None]] = []
    for idx, cell in enumerate(cells):
        params = dict(fixed)
        params.update(dict(zip(keys, cell)))
        argv = [command]
        for k, v in params.items():
            argv += [f"--{k}", str(v)]
        if command in SEEDED_COMMANDS and "seed" not in params:
            argv += ["--seed", str(derive_seed(root_seed, command, idx))]
        cell_params = dict(zip(keys, cell))
        try:
            with contextlib.redirect_stderr(io.StringIO()):  # argparse's usage text
                ns = build_parser().parse_args(argv)
            out = HANDLERS[command](ns)
            flat: dict = {}
            if out.payload is not None:
                for k, v in out.payload.items():
                    if isinstance(v, (str, int, float, bool, Fraction)) or v is None:
                        flat[k] = v
            elif out.text is not None:
                flat["value"] = out.text
            results.append((cell_params, flat, None))
        except SystemExit:
            results.append((cell_params, None, "usage error"))
        except BanachGaugeError as exc:
            results.append((cell_params, None, f"{type(exc).__name__}: {exc}"))
    field_set: set[str] = set()
    for _, flat, _err in results:
        if flat:
            field_set.update(flat)
    field_set -= set(keys)  # grid columns already lead every row
    header = keys + sorted(field_set) + ["error"]
    rows = []
    for cell_params, flat, err in results:
        row = [cell_params.get(k) for k in keys]
        row += [(flat or {}).get(f) for f in sorted(field_set)]
        row.append(err or "")
        rows.append(row)
    return Output(csv=(header, rows))


HANDLERS = {
    "norm": cmd_norm,
    "ratio": cmd_ratio,
    "caratheodory": cmd_caratheodory,
    "jl-embed": cmd_jl_embed,
    "jl-mechanism": cmd_jl_mechanism,
    "walsh": cmd_walsh,
    "growth": cmd_growth,
    "delta-bound": cmd_delta_bound,
    "flat-search": cmd_flat_search,
    "cotype-cert": cmd_cotype_cert,
    "compare-norms": cmd_compare_norms,
    "sweep": cmd_sweep,
}


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared:
    parsing leaves it unchanged, so ``main`` and each ``sweep`` cell reuse
    it.  Callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="banach-gauge",
        description="Desk-scale Banach geometry: exact norms, type/cotype ratios, "
        "random projections, growth calculators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="evaluate a norm on a vector file")
    p.add_argument("--space", required=True, choices=["T", "T2", "mod", "mod2"])
    p.add_argument("--vec", required=True, help='JSON file {"v": {"3": "1/2", ...}}')
    p.add_argument("--brute", action="store_true", help="use the all-subsets oracle")
    p.add_argument("--cert-out", help="write the certificate JSON here")

    p = sub.add_parser("ratio", help="type/cotype ratio of a vector family")
    p.add_argument("--space", required=True, help="l1|l2|linf|lp<p>|T|T2|mod2")
    p.add_argument("--kind", required=True, choices=["type", "cotype"])
    p.add_argument("--mode", default="exact", choices=["exact", "mc"])
    p.add_argument("--vecs", required=True, help="JSON list of vectors")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("caratheodory", help="cone-weight reduction of outer products")
    p.add_argument("--vecs", required=True)
    p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("jl-embed", help="random projection with distortion report")
    p.add_argument("--points", required=True, help="JSON list of vectors")
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--constant", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=100)

    p = sub.add_parser("walsh", help="Walsh point set and orthogonality check")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--family", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("jl-mechanism", help="embeddability-vs-type/cotype experiment")
    p.add_argument("--space", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--constant", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("growth", help="growth-hierarchy calculators")
    gsub = p.add_subparsers(dest="growth_cmd", required=True)
    g = gsub.add_parser("log-star")
    g.add_argument("x", type=float)
    g = gsub.add_parser("g")
    g.add_argument("k", type=int)
    g.add_argument("n", type=int)
    g.add_argument("--cap", default=str(10**100))
    g = gsub.add_parser("alpha")
    g.add_argument("n", type=int)
    g = gsub.add_parser("alpha-diag")
    g.add_argument("n", type=int)
    for p in (gsub.add_parser("delta-bound"),
              sub.add_parser("delta-bound", help="recursive distortion bound")):
        p.add_argument("n", type=float)
        p.add_argument("--K", type=float, default=1.0)
        p.add_argument("--D", type=float, default=1.0)

    p = sub.add_parser("flat-search", help="cutting-plane search for flat vectors")
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--rounds", type=int, default=200)

    p = sub.add_parser("cotype-cert", help="cotype certificate from a flat witness")
    p.add_argument("--witness", required=True, help="FinVec JSON file")
    p.add_argument("--N", type=int, default=None)

    p = sub.add_parser("compare-norms", help="empirical T2-vs-mod2 comparison sweep")
    p.add_argument("--vec", default=None)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-support", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("sweep", help="run a parameter grid, one CSV row per cell")
    p.add_argument("--config", required=True)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.monotonic()
    try:
        env_seed = os.environ.get("BANACH_GAUGE_SEED")
        if env_seed is not None and hasattr(args, "seed"):
            try:
                args.seed = int(env_seed)
            except ValueError as exc:
                raise DomainError(f"BANACH_GAUGE_SEED={env_seed!r} is not an integer") from exc
        out = HANDLERS[args.command](args)
    except BanachGaugeError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(render_json(err))
        return 1

    if out.text is not None:
        print(out.text)
    elif out.csv is not None:
        sys.stdout.write(_csv_text(*out.csv))
    else:
        payload = out.payload or {}
        if args.command not in SEEDED_COMMANDS:
            print(render_json(payload))
            return 0
        # the payload is rendered once: its items give the digest, and the
        # manifest item is spliced in at its sorted place
        keys, items = _dict_items(payload, 0)
        manifest = RunManifest(
            command=args.command,
            argv=tuple(argv),
            seed=getattr(args, "seed", None),
            version=__version__,
            wall_time_s=time.monotonic() - start,
            output_digest=hashlib.sha256(_braced(items).encode()).hexdigest(),
        )
        items.insert(bisect.bisect(keys, "manifest"),
                     f'  "manifest": {render_json(manifest.to_json(), 1)}')
        print(_braced(items))
    return 0


if __name__ == "__main__":
    sys.exit(main())
