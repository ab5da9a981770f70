"""banach-gauge benchmark: closed-loop CLI workloads with output checks.

Run one workload:

    python3 perfbench/run.py --workload flat-lp --seed 3 --trace 0

or every workload in turn (exits nonzero if any output check fails):

    python3 perfbench/run.py
    python3 perfbench/run.py --smoke          # tiny sizes, same checks, seconds

Each workload is a fixed list of ``banach_gauge.cli.main(argv)`` calls made
by one client in a closed loop: a command starts when the previous one has
returned.  The passes run in a fresh worker process with BLAS/OpenMP pinned
to one thread; this process generates the inputs before and checks every
output after, outside the timed region.  Every latency is reported scaled
to a fixed host speed by the probes of ``probe.py`` timed next to it (see
DESIGN.md).  ``--trace 1`` instead alternates untraced and traced passes and
reports per-layer numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print each metric with its unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# pinned before numpy loads: the checks here use it too
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path(".perfbench")  # relative to ROOT; ignored by git

#: run_seconds (the default --seconds) and the per-layer metric names and units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

DEFAULT_SEED = 0
SETUP_PROBES = 9  # set-up samples per run besides the timed worker's own
WORKER_TIMEOUT_S = 150

SPAN_STATS = ("calls", "busy_s", "self_s")
SPAN_NAMES = {name for _, _, name, _ in tracer.TARGETS}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "threads": THREAD_ENV,
    }


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    env.pop("BANACH_GAUGE_SEED", None)  # the CLI would let it override --seed
    return env


def run_worker(plan: dict, workdir: Path, tag: str) -> dict:
    plan_path, result_path = workdir / f"plan-{tag}.json", workdir / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise HarnessError(f"worker {tag} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise HarnessError(f"worker {tag} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["cli_file"]).resolve().parent.parent != SRC.resolve():
        raise HarnessError(f"worker imported banach_gauge from {result['cli_file']}, not {SRC}")
    return result


def _plan(wl, mode: str, seconds: float, spans_out: Path | None = None) -> dict:
    def cmds(lst):
        return [{"label": c.label, "kind": c.kind, "argv": c.argv, "witness_of": c.witness_of}
                for c in lst]

    return {"mode": mode, "seconds": seconds, "commands": cmds(wl.commands), "probes": wl.probes,
            "warmup": cmds(wl.warmup), "spans_out": str(spans_out) if spans_out else None}


def check_outputs(wl, result: dict, golden: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass the worker ran."""
    import checks  # imports banach_gauge, so only once main() has found the source

    problems = []
    bad_labels = set()
    first = result["first_outputs"]
    for c in wl.commands:
        rc = next(r["rc"] for r in result["passes"][0]["commands"] if r["label"] == c.label)
        errs = checks.check(c.kind, c.argv, rc, first[c.label])
        if golden is not None and not errs:
            errs = checks.compare_golden(golden.get(c.label),
                                         checks.answers(checks.stable_output(first[c.label])),
                                         c.label)[:3]
        if errs:
            bad_labels.add(c.label)
            problems += [f"{c.label}: {e}" for e in errs]
    reference = {r["label"]: r["digest"] for r in result["passes"][0]["commands"]}
    attempted = failed = 0
    passes = result["passes"] + result.get("traced", [])
    for i, p in enumerate(passes):
        for r in p["commands"]:
            attempted += 1
            if r["rc"] != 0 or r["digest"] != reference[r["label"]] or r["label"] in bad_labels:
                failed += 1
                if r["digest"] != reference[r["label"]]:
                    problems.append(f"{r['label']}: pass {i} output differs from pass 0")
    for c, rc in zip(wl.warmup, result["warmup_rc"]):
        attempted += 1
        if rc != 0:
            failed += 1
            problems.append(f"warm-up {c.label}: exit code {rc}")
    return attempted, failed, problems


def kind_sums(p: dict) -> Counter:
    sums: Counter = Counter()
    for r in p["commands"]:
        sums[r["kind"]] += r["seconds"]
    return sums


def scaled(row: dict) -> float:
    """A command's latency at the fixed host speed of ``probe.NOMINAL_S``."""
    return row["seconds"] / probe.slowdown(row["probe_s"])


def scaled_setup(result: dict) -> float:
    return result["setup_s"] / probe.slowdown(result["setup_probe_s"])


def latency(wl, passes: list[dict], stat=statistics.median, time_of=scaled) -> dict[str, float]:
    """Each command's latency over the passes, reduced by ``stat``."""
    return {c.label: stat([time_of(r) for p in passes for r in p["commands"]
                           if r["label"] == c.label]) for c in wl.commands}


def end_to_end(wl, setup_runs: list[dict], result: dict) -> tuple[dict, list[str]]:
    """Times are sums of per-command medians over the run's passes, each
    latency scaled to a fixed host speed by the probes around it.

    Co-tenants of a shared host slow the same work by up to 2x for stretches
    of seconds to minutes; the probe just before and just after a command
    sees the same slowdown (see DESIGN.md).  A median, unlike a minimum,
    does not drift with the number of passes a run holds.
    """
    passes = result["passes"]
    setups = [scaled_setup(p) for p in setup_runs + [result]]
    raw_setups = [p["setup_s"] for p in setup_runs + [result]]
    kind_of = {c.label: c.kind for c in wl.commands}
    median = latency(wl, passes)
    raw = latency(wl, passes, time_of=lambda r: r["seconds"])

    def total(kinds, per=median) -> float:
        return sum(v for label, v in per.items() if kind_of[label] in kinds)

    counts = Counter(c.kind for c in wl.commands)
    n = len(passes)

    def note(kinds) -> str:
        return " + ".join(f"{workloads.KIND_METRIC[k]} ({counts[k]} commands)" for k in kinds)

    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh-process set-ups, scaled;"
                    f" unscaled {statistics.median(raw_setups):.4g} s"),
        "wall_s": (total(counts), "s", f"{len(wl.commands)} commands, median of {n} passes"
                   f" each, scaled; unscaled {total(counts, raw):.4g} s"),
        "primary_s": (total(wl.primary), "s", note(wl.primary)),
        "secondary_s": (total(wl.secondary), "s", note(wl.secondary)),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", "ru_maxrss of the timed worker"),
    }
    lines = []
    for k, c in counts.items():
        lines.append(f"  {workloads.KIND_METRIC[k]:<28} {total((k,)):>14.6g} s       "
                     f"{c} commands, median of {n} passes each; unscaled {total((k,), raw):.6g} s")
    speeds = [1 / statistics.median(probe.slowdown(r["probe_s"]) for r in p["commands"])
              for p in passes]
    lines.append(f"  {'host speed per pass':<28} " + " ".join(f"{v:.3g}" for v in speeds))
    return metrics, lines


def per_layer(wl, result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and any count mismatch."""
    traced = result["traced"]
    outputs = result["first_outputs"]

    def value(t: dict, name: str):  # a span statistic or a hook's count
        prefix, _, stat = name.rpartition(".")
        if stat in SPAN_STATS and prefix in SPAN_NAMES:
            return t["trace"]["spans"].get(prefix, {}).get(stat, 0)
        return t["trace"]["counts"].get(name, 0)

    flats = []
    for c in wl.commands:
        if c.kind == "flat-search":
            try:
                flats.append(json.loads(outputs[c.label]))
            except ValueError:  # a failed command; check_outputs reports it
                flats.append({})
    special = {
        "cli.ops": len(wl.commands),
        "cli.input_bytes": sum(os.path.getsize(f) for f in wl.input_files()),
        "flatsearch.lp_rounds": sum(f.get("lp_rounds", 0) for f in flats),
        "flatsearch.pool_size": sum(f.get("pool_size", 0) for f in flats),
        "flatsearch.converged_ratio": (sum(f.get("converged") is True for f in flats)
                                       / len(flats) if flats else 0.0),
        # the statistic of the end-to-end wall_s, traced over untraced
        "trace_overhead": sum(latency(wl, traced).values())
        / sum(latency(wl, result["passes"]).values()) - 1,
    }
    metrics, mismatches = {}, []
    for name, unit in PER_LAYER.items():
        if name in special:
            metrics[name] = (special[name], unit)
            continue
        vals = [value(t, name) for t in traced]
        if unit == "s":
            metrics[name] = (statistics.median(vals), unit)
        else:
            metrics[name] = (vals[0], unit)
            if len(set(vals)) > 1:
                mismatches.append(f"{name}: traced passes counted {vals}")
    return metrics, mismatches


def design_shapes(wl, result: dict) -> list[str]:
    """The layer shares the workloads were designed around (reported, not gated)."""
    t = result["traced"][0]

    def stat(name: str, key: str, trace: dict = t["trace"]):
        return trace["spans"].get(name, {}).get(key, 0)

    out = []
    if wl.name == "flat-lp":
        flat = kind_sums(t).get("flat-search", 0.0)
        share = stat("simplex.solve_lp", "busy_s") / flat if flat else 0.0
        out.append((f"simplex.solve_lp.busy_s is {share:.1%} of flat_search_s", share >= 0.9))
    elif wl.name == "exact-norms":
        busy = {k: v["busy_s"] for k, v in t["trace"]["spans"].items() if k != "cli"}
        top = max(busy, key=busy.get, default=None)
        out.append((f"largest child span of the norm commands is {top}", top == "tsirelson.norm"))
    elif wl.name == "ratios":
        for c in wl.commands:
            if c.kind == "ratio-exact" and "l1" in c.argv:
                per = t["trace"]["by_command"].get(c.label, {"spans": {}})
                selfs = stat("gauss.rademacher", "self_s", per)
                norms = stat("tsirelson.norm", "calls", per)
                out.append((f"{c.label}: gauss.rademacher.self_s {selfs:.4f} s, "
                            f"tsirelson.norm.calls {norms}", selfs > 0 and norms == 0))
    elif wl.name == "embed":
        norms = stat("tsirelson.norm", "calls")
        out.append((f"tsirelson.norm.calls is {norms}", norms == 0))
    return [f"  {'holds' if ok else 'DOES NOT HOLD'}: {text}" for text, ok in out]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 write_golden: bool = False) -> dict:
    tag = f"{name}-s{seed}{'-smoke' if smoke else ''}{'-trace' if trace else ''}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(seed)
    wl = workloads.build(name, seed, smoke, workdir)
    golden_path = BENCH / "golden" / f"{name}{'-smoke' if smoke else ''}.json"
    golden = None
    if seed == DEFAULT_SEED and golden_path.is_file() and not write_golden:
        golden = json.loads(golden_path.read_text(encoding="utf-8"))

    lines = [f"# workload {name}  seed {seed}  trace {int(trace)}  smoke {int(smoke)}"
             f"  closed loop, 1 client",
             "# env " + json.dumps(env)]
    if trace:
        spans_out = OUT / f"spans-{tag}.json"
        result = run_worker(_plan(wl, "traced", seconds, spans_out), workdir, "traced")
        setup_runs: list[dict] = []
    else:
        # the first set-up run fills the bytecode and file caches and is not counted
        setup_runs = [run_worker(_plan(wl, "setup", 0), workdir, f"setup{i}")
                      for i in range((1 if smoke else SETUP_PROBES) + 1)][1:]
        result = run_worker(_plan(wl, "timed", seconds), workdir, "timed")

    attempted, failed, problems = check_outputs(wl, result, golden)
    lines.append(f"# checks: {failed} of {attempted} commands failed"
                 + ("" if golden is not None or write_golden
                    else " (no recorded outputs for this seed)"))
    if trace:
        metrics, mismatches = per_layer(wl, result)
        problems += mismatches
        shown = {k: (v, u, "") for k, (v, u) in metrics.items()}
        lines.append(f"# per layer: {len(result['traced'])} traced passes, whose counts must"
                     " agree; times are their median")
        extra = ["# design shares"] + design_shapes(wl, result)
        missing = result["traced"][0]["trace"]["missing"]
        if missing:  # a renamed function is not an output error; its metrics read 0
            extra.append("# trace targets not found: " + ", ".join(missing))
    else:
        shown, extra = end_to_end(wl, setup_runs, result)
        extra = ["# per-kind sums (primary_s and secondary_s add these)"] + extra
    error_rate = failed / attempted
    lines.append(f"  {'error_rate':<28} {error_rate:>14.6g} ratio   {failed}/{attempted}")
    for k, (v, unit, note) in shown.items():
        text = str(v) if isinstance(v, int) else f"{v:.6g}"
        lines.append(f"  {k:<28} {text:>14} {unit:<7} {note}")
    lines += extra
    lines += [f"# problem: {p}" for p in problems[:40]]

    correct = not problems
    if write_golden:
        import checks

        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(
            {c.label: checks.answers(checks.stable_output(result["first_outputs"][c.label]))
             for c in wl.commands}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        lines.append(f"# recorded outputs to {golden_path.relative_to(ROOT)}")
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, *_) in shown.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**summary, "env": env, "problems": problems,
         "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                     "seconds": {r["label"]: r["seconds"] for r in p["commands"]},
                     "probe_s": {r["label"]: r["probe_s"] for r in p["commands"]}}
                    for p in result["passes"] + result.get("traced", [])],
         "setup_samples": [[p["setup_s"], p["setup_probe_s"]] for p in setup_runs + [result]],
         "trace": result.get("traced", [{}])[0].get("trace")}, indent=1), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    return {"summary": summary, "lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOAD_NAMES,
                    help="run one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json;"
                         " 0 in smoke mode)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes through the same checks")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's outputs as the expected outputs of the default seed")
    args = ap.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        ap.error("--write-golden records the default seed only")
    seconds = args.seconds if args.seconds is not None else (0 if args.smoke
                                                             else SPEC["run_seconds"])

    os.chdir(ROOT)
    if not (SRC / "banach_gauge" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [args.workload] if args.workload else list(workloads.WORKLOAD_NAMES)
    results = {}
    try:
        for name in names:
            t0 = time.perf_counter()
            res = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke,
                               args.write_golden)
            results[name] = res["summary"]
            print("\n".join(res["lines"]))
            print(f"# {name} took {time.perf_counter() - t0:.1f} s", flush=True)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
