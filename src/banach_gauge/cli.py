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
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .errors import BanachGaugeError, DomainError, SupportTooLarge
from .flatsearch import cotype_certificate, search_flat
from .growth import ackermann_g, alpha, alpha_diag, delta_bound, log_star
from .seeds import derive_seed
from .seqvec import FinVec, abs_square, as_rat, float_sqrt
from .tsirelson import (
    MAX_DP_SUPPORT,
    MAX_MODIFIED_SUPPORT,
    certificate_to_json,
    modified_norm,
    modified_t2_norm_sq,
    t2_norm_sq,
    tsirelson_norm,
    tsirelson_norm_bruteforce,
)


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
    if isinstance(obj, numbers.Integral):  # also numpy's integers
        return str(int(obj))
    if isinstance(obj, numbers.Real):  # also numpy's floats
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
    if isinstance(v, numbers.Real) and not isinstance(v, (Fraction, numbers.Integral)):
        return f"{float(v):.17g}"  # a float, or one of numpy's
    return str(v)


@dataclass
class Output:
    """What a handler produced: JSON payload, CSV, or plain text."""

    payload: dict | None = None
    text: str | None = None
    csv: tuple[list[str], list[list]] | None = None


# --------------------------------------------------------------------------
# Input parsing
# --------------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_json(path: str, text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, deep nesting
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc


def _load_json(path: str):
    return _parse_json(path, _read_text(path))


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
            return as_rat(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad vector entry {v!r}: {exc}") from exc
    if isinstance(v, float):
        if not math.isfinite(v):
            raise DomainError(f"vector entry {v} is not finite")
        return v
    raise DomainError(f"bad vector entry {v!r}")


def _check_rows(path: str, data) -> list[list]:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise DomainError(f"{path}: expected a JSON list of vectors")
    if len({len(r) for r in data}) != 1:
        raise DomainError(f"{path}: vectors have mixed lengths")
    return data


def _load_vectors(path: str) -> list[list]:
    """Exact entries (ints and "p/q" strings as Fractions, floats as is)."""
    return [[_parse_entry(v) for v in r] for r in _check_rows(path, _load_json(path))]


def _load_float_array(path: str):
    """The vectors as one float64 (n, dim) array, for the float-only commands.

    A text with no '"' and no t, f or n (no string, true, false or null)
    holds only numbers, or nested lists and objects, which numpy rejects:
    numpy converts its rows in one call, rounding ints as float() does.
    Otherwise, or when numpy rejects the rows, JSON floats pass as is and
    other entries are parsed as in _load_vectors and rounded once.
    Finiteness is checked on the whole array.
    """
    import numpy as np

    text = _read_text(path)
    numbers_only = not any(c in text for c in '"tfn')  # one memchr pass each
    rows = _check_rows(path, _parse_json(path, text))
    del text  # freed before the array is built
    arr = None
    if numbers_only:
        try:
            arr = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass  # the entry parser below names the bad entry
    if arr is None or arr.ndim != 2:
        rows = [[v if type(v) is float else _parse_entry(v) for v in r] for r in rows]
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

def _open_out(path: str | None):
    """``path`` opened for writing, or a null context when it is None; a path
    that cannot be written is a DomainError."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_norm(args) -> Output:
    squared = args.space.endswith("2")  # T2 and mod2 are T and mod on the squares
    exhaustive = args.space.startswith("mod")
    if args.brute and exhaustive:
        raise DomainError("--brute selects the T/T2 all-subsets oracle; mod and mod2 have one engine")
    if args.cert_out and (args.brute or exhaustive):
        raise DomainError("certificates are only produced by the T/T2 interval engine")
    x = _load_finvec(args.vec)
    with _open_out(args.cert_out) as cert_file:  # before the engine runs
        if squared:
            x = abs_square(x)
        payload: dict = {"space": args.space}
        cert = None
        if exhaustive:
            value, payload["engine"] = modified_norm(x), "exhaustive"
        elif args.brute:
            value, payload["engine"] = tsirelson_norm_bruteforce(x), "bruteforce"
        else:
            res = tsirelson_norm(x)
            value, cert = res.value, res.certificate
            if not squared:
                payload["stats"] = {
                    "memo_entries": res.stats.memo_entries,
                    "expansions": res.stats.expansions,
                }
        if squared:
            payload["value_sq"], payload["value"] = value, float_sqrt(value)
        else:
            payload["value"] = value
        if cert_file:
            cert_file.write(render_json(certificate_to_json(cert)) + "\n")
            payload["cert_out"] = args.cert_out
    return Output(payload=payload)


def cmd_ratio(args) -> Output:
    from .gauss import SpaceOracle, VectorFamily, gaussian_ratio, rademacher_ratio

    rows = _load_vectors(args.vecs)
    space = SpaceOracle(args.space, len(rows[0]))
    family = VectorFamily.make(rows, space)
    if args.mode == "exact":
        est = rademacher_ratio(family, args.kind)
    else:
        est = gaussian_ratio(family, args.kind, samples=args.samples, seed=args.seed)
    return Output(payload={
        "point": est.point,
        "ci": [est.ci_low, est.ci_high],
        "mode": est.mode,
        "kind": est.kind,
        "samples": est.samples,
        "exact": est.exact,
        "witness": {"n": len(family), "space": args.space, "source": args.vecs},
    })


def cmd_caratheodory(args) -> Output:
    import numpy as np

    from .gauss import caratheodory_reduce

    U = _load_float_array(args.vecs)
    red = caratheodory_reduce(U)
    target = U.T @ U  # = sum of outer products
    reduced = red.vectors.T @ (red.weights[:, None] * red.vectors)
    denom = float(np.linalg.norm(target)) or 1.0
    cov_residual = float(np.linalg.norm(reduced - target)) / denom
    norm_gap = (abs(float(np.sum(red.v**2) + np.sum(red.w**2) - np.sum(U**2)))
                / max(1.0, float(np.sum(U**2))))
    return Output(payload={
        "bound": U.shape[1] * (U.shape[1] + 1) // 2,
        "nonzero_weights": int(np.count_nonzero(red.weights)),
        "weights": [float(c) for c in red.weights],
        "permutation": list(red.permutation),
        "cov_residual": cov_residual,
        "norm_identity_residual": norm_gap,
        "c1": float(red.weights[0]),
    })


def cmd_jl_embed(args) -> Output:
    from .jl import jl_embed

    pts = _load_float_array(args.points)
    lmap, rep = jl_embed(pts, args.eps, constant=args.constant, seed=args.seed,
                         max_retries=args.retries)
    return Output(payload={
        **dataclasses.asdict(rep),
        "n": len(pts),
        "source_dim": int(pts.shape[1]),
        "target_dim": lmap.target_dim,
        "eps": args.eps,
        "constant": args.constant,
        "map_scale": lmap.scale,
    })


def cmd_walsh(args) -> Output:
    import numpy as np

    from .jl import WalshEnsemble, walsh_orthogonality_check, walsh_pointset

    ens = WalshEnsemble.from_vectors(_load_float_array(args.family), seed=args.seed, m=args.m)
    pset = walsh_pointset(ens)
    distinct = len(np.unique(pset.points, axis=0))
    check = walsh_orthogonality_check(ens.gaussians[:, None] * ens.base)
    return Output(payload={
        "m": ens.m,
        "size": len(pset),
        "distinct": distinct,
        "size_bound": (1 << (ens.m + 1)) + 1,
        "orthogonality_residual": check.residual,
        "orthogonality_ok": check.passed,
    })


def cmd_jl_mechanism(args) -> Output:
    from .gauss import SpaceOracle
    from .jl import MechanismTrial, jl_mechanism_experiment

    family = _load_float_array(args.family)
    space = SpaceOracle(args.space, family.shape[1])
    rep = jl_mechanism_experiment(space, family, eps=args.eps, constant=args.constant,
                                  seed=args.seed, trials=args.trials)
    trial_rows = [dataclasses.asdict(t) for t in rep.trials]
    if args.csv:
        header = [f.name for f in dataclasses.fields(MechanismTrial)]
        return Output(csv=(header, [list(r.values()) for r in trial_rows]))
    return Output(payload={
        "space": args.space,
        "m": rep.m,
        "max_ratio": rep.max_ratio,
        "mean_lhs": rep.mean_lhs,
        "note": rep.note,
        "trials": trial_rows,
    })


def cmd_flat_search(args) -> Output:
    res = search_flat(args.N, max_rounds=args.rounds)
    return Output(payload={
        "N": args.N,
        "witness": res.x.to_json(),
        "theta": res.theta,
        "lp_rounds": res.rounds,
        "lp_value": res.lp_value,
        "converged": res.converged,
        "pool_size": len(res.pool),
        "certificate": certificate_to_json(res.certificate),
    })


def cmd_cotype_cert(args) -> Output:
    cc = cotype_certificate(_load_finvec(args.witness), args.N)
    return Output(payload={
        "n": cc.N,
        "theta": cc.theta,
        "ratio": cc.ratio,
        "c2_lower": cc.c2_lower,
        "paper_claimed": cc.claimed_c2_lower,
        "note": cc.claimed_note or "certified by the exact sign-averaged ratio",
    })


_COMPARE_VALUES = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                   Fraction(2), Fraction(-2), Fraction(3, 2)]


def cmd_compare_norms(args) -> Output:
    if args.vec:
        vecs = [_load_finvec(args.vec)]
    else:
        for flag, value, low in (("--max-support", args.max_support, 1), ("--count", args.count, 0)):
            if value < low:
                raise DomainError(f"{flag} must be >= {low}, got {value}")
        rng = random.Random(args.seed)
        vecs = []
        for _ in range(args.count):
            size = rng.randint(1, args.max_support)
            # refuse a support that t2, then mod2, would refuse, before it is drawn
            for cap, engine in ((MAX_DP_SUPPORT, "interval-DP"),
                                (MAX_MODIFIED_SUPPORT, "modified-norm")):
                if size > cap:
                    raise SupportTooLarge(f"support {size} exceeds {engine} cap {cap}")
            support = rng.sample(range(1, args.max_support + 1), size)
            vecs.append(FinVec({j: rng.choice(_COMPARE_VALUES) for j in support}))
    rows = []
    for v in vecs:
        t2, mod2 = t2_norm_sq(v).value, modified_t2_norm_sq(v)
        rows.append({"vec": json.dumps(v.to_json()["v"], sort_keys=True), "t2_sq": t2,
                     "mod2_sq": mod2, "ratio": float(t2 / mod2) if mod2 else math.nan})
    if args.csv:
        header = ["vec", "t2_sq", "mod2_sq", "ratio"]
        return Output(csv=(header, [[r[h] for h in header] for r in rows]))
    return Output(payload={"count": len(rows), "rows": rows})


SWEEP_CELL_CAP = 10_000  # cells in one sweep grid; a larger grid exits 1 before any cell runs


def cmd_sweep(args) -> Output:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise DomainError(f"{args.config}: a sweep config must be a JSON object")
    command = cfg.get("command")
    # sweep itself, and a command with subcommands, whose cells would all be usage errors
    if (not isinstance(command, str) or command not in COMMANDS or command == "sweep"
            or COMMANDS[command].subcommands):
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
    count = math.prod(len(grid[k]) for k in keys)
    if count > SWEEP_CELL_CAP:
        raise DomainError(f"{args.config}: the grid has {count} cells, over the cap of "
                          f"{SWEEP_CELL_CAP}")
    cells: list[tuple[dict, str]] = []  # (the grid's values and the scalar results, error)
    for idx, values in enumerate(itertools.product(*(grid[k] for k in keys))):
        cell = dict(zip(keys, values))
        params = {**fixed, **cell}
        argv = [command, *(a for k, v in params.items() for a in (f"--{k}", str(v)))]
        try:
            # argparse writes usage errors to stderr, and a --help key's text to stdout
            sink = io.StringIO()
            with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
                ns = build_parser().parse_args(argv)
            if hasattr(ns, "seed") and "seed" not in params:
                ns.seed = derive_seed(root_seed, command, idx)
            out = _run(ns)
            found = {k: v for k, v in (out.payload or {}).items()
                     if isinstance(v, (str, int, float, bool, Fraction)) or v is None}
            cells.append(({**found, **cell}, ""))
        except SystemExit:
            cells.append((cell, "usage error"))
        except BanachGaugeError as exc:
            cells.append((cell, f"{type(exc).__name__}: {exc}"))
    columns = keys + sorted({f for found, _ in cells for f in found} - set(keys))
    rows = [[found.get(c) for c in columns] + [err] for found, err in cells]
    return Output(csv=(columns + ["error"], rows))


# --------------------------------------------------------------------------
# Command table, parser and dispatch
# --------------------------------------------------------------------------

class Command(NamedTuple):
    """One subcommand: its handler, its help line, its arguments in order
    (each flag or positional name with its add_argument keywords), and
    whether it runs on float arrays.  A command with ``subcommands`` runs the
    one named by its first word."""

    run: Callable[[argparse.Namespace], Output] | None
    help: str | None
    args: dict[str, dict]
    float_only: bool = False
    subcommands: dict[str, Command] | None = None


def _growth_g(args) -> Output:
    try:
        cap = int(as_rat(args.cap))  # exact: a float would round a cap past 2^53
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad --cap {args.cap!r}: {exc}") from exc
    return Output(text=str(ackermann_g(args.k, args.n, cap=cap)))


_SEED = {"type": int, "default": 0}
_CSV = {"action": "store_true"}

GROWTH = {
    "log-star": Command(lambda a: Output(text=str(log_star(float(a.x)))), None,
                        {"x": {"type": float}}),
    "g": Command(_growth_g, None, {"k": {"type": int}, "n": {"type": int},
                                   "--cap": {"default": str(10**100)}}),
    "alpha": Command(lambda a: Output(text=str(alpha(a.n))), None, {"n": {"type": int}}),
    "alpha-diag": Command(lambda a: Output(text=str(alpha_diag(a.n))), None, {"n": {"type": int}}),
    "delta-bound": Command(lambda a: Output(text=f"{delta_bound(float(a.n), a.K, a.D):.17g}"),
                           "recursive distortion bound",
                           {"n": {"type": float}, "--K": {"type": float, "default": 1.0},
                            "--D": {"type": float, "default": 1.0}}),
}

COMMANDS = {
    "norm": Command(cmd_norm, "evaluate a norm on a vector file", {
        "--space": {"required": True, "choices": ["T", "T2", "mod", "mod2"]},
        "--vec": {"required": True, "help": 'JSON file {"v": {"3": "1/2", ...}}'},
        "--brute": {"action": "store_true", "help": "use the all-subsets oracle (T, T2 only)"},
        "--cert-out": {"help": "write the certificate JSON here"},
    }),
    "ratio": Command(cmd_ratio, "type/cotype ratio of a vector family", {
        "--space": {"required": True, "help": "l1|l2|linf|lp<p>|T|T2|mod2"},
        "--kind": {"required": True, "choices": ["type", "cotype"]},
        "--mode": {"default": "exact", "choices": ["exact", "mc"]},
        "--vecs": {"required": True, "help": "JSON list of vectors"},
        "--samples": {"type": int, "default": 100_000},
        "--seed": _SEED,
    }),
    "caratheodory": Command(cmd_caratheodory, "cone-weight reduction of outer products", {
        "--vecs": {"required": True},
    }, float_only=True),
    "jl-embed": Command(cmd_jl_embed, "random projection with distortion report", {
        "--points": {"required": True, "help": "JSON list of vectors"},
        "--eps": {"required": True, "type": float},
        "--constant": {"type": float, "default": 8.0},
        "--seed": _SEED,
        "--retries": {"type": int, "default": 100},
    }, float_only=True),
    "walsh": Command(cmd_walsh, "Walsh point set and orthogonality check", {
        "--m": {"type": int, "default": None},
        "--family": {"required": True},
        "--seed": _SEED,
    }, float_only=True),
    "jl-mechanism": Command(cmd_jl_mechanism, "embeddability-vs-type/cotype experiment", {
        "--space": {"required": True},
        "--family": {"required": True},
        "--trials": {"type": int, "default": 10},
        "--eps": {"type": float, "default": 0.5},
        "--constant": {"type": float, "default": 8.0},
        "--seed": _SEED,
        "--csv": _CSV,
    }, float_only=True),
    "growth": Command(None, "growth-hierarchy calculators", {}, subcommands=GROWTH),
    "flat-search": Command(cmd_flat_search, "cutting-plane search for flat vectors", {
        "--N": {"required": True, "type": int},
        "--rounds": {"type": int, "default": 200},
    }),
    "cotype-cert": Command(cmd_cotype_cert, "cotype certificate from a flat witness", {
        "--witness": {"required": True, "help": "FinVec JSON file"},
        "--N": {"type": int, "default": None},
    }),
    "compare-norms": Command(cmd_compare_norms, "empirical T2-vs-mod2 comparison sweep", {
        "--vec": {"default": None},
        "--count": {"type": int, "default": 20},
        "--max-support": {"type": int, "default": 6},
        "--seed": _SEED,
        "--csv": _CSV,
    }),
    "sweep": Command(cmd_sweep, "run a parameter grid, one CSV row per cell", {
        "--config": {"required": True},
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand in ``COMMANDS``, built once per process
    and shared: parsing leaves it unchanged, so ``main`` and each ``sweep``
    cell reuse it.  Callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="banach-gauge",
        description="Desk-scale Banach geometry: exact norms, type/cotype ratios, "
        "random projections, growth calculators.",
    )
    _add_commands(parser.add_subparsers(dest="command", required=True), COMMANDS)
    return parser


def _add_commands(sub, table: dict[str, Command]) -> None:
    for name, row in table.items():
        # help=None would still give the name a line of its own in the help
        p = sub.add_parser(name, **({"help": row.help} if row.help else {}))
        p.set_defaults(row=row)  # a subcommand's row replaces its command's
        for flag, kw in row.args.items():
            p.add_argument(flag, **kw)
        if row.subcommands:
            _add_commands(p.add_subparsers(dest=f"{name}_cmd", required=True), row.subcommands)


def _run(args) -> Output:
    """The one call site of every handler, for ``main`` and each sweep cell.
    A float-only command runs with numpy's overflow and invalid operations
    raised: an input whose squares or Gram products leave the float range
    ends in DomainError, not in warnings and non-finite fields."""
    row = args.row
    if not row.float_only:
        return row.run(args)
    import numpy as np

    try:
        with np.errstate(over="raise", invalid="raise"):
            return row.run(args)
    except FloatingPointError as exc:
        raise DomainError(f"the input leaves the float range: {exc}") from exc


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
        text = _stdout(_run(args), args, argv, start)
    except BanachGaugeError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(render_json(err))
        return 1
    sys.stdout.write(text)
    return 0


def _stdout(out: Output, args, argv: list, start: float) -> str:
    """What ``main`` prints for a handler's output.  A number past Python's
    int-to-str digit limit raises DomainError instead of ValueError."""
    try:
        if out.text is not None:
            return out.text + "\n"
        if out.csv is not None:
            return _csv_text(*out.csv)
        payload = out.payload or {}
        if not hasattr(args, "seed"):
            return render_json(payload) + "\n"
        # the payload is rendered once: its items give the digest, and the
        # manifest item is spliced in at its sorted place
        keys, items = _dict_items(payload, 0)
        manifest = {
            "command": args.command,
            "argv": argv,
            "seed": args.seed,
            "version": __version__,
            "wall_time_s": time.monotonic() - start,
            "output_digest": hashlib.sha256(_braced(items).encode()).hexdigest(),
        }
        items.insert(bisect.bisect(keys, "manifest"),
                     f'  "manifest": {render_json(manifest, 1)}')
        return _braced(items) + "\n"
    except ValueError as exc:
        raise DomainError(f"a result has too many digits to print: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
