"""One fresh process: import the CLI, warm up, then run closed-loop passes.

Usage: ``python3 perfbench/worker.py PLAN.json RESULT.json``

The plan (written by run.py) names the commands, the warm-up commands, the
measuring time and the mode:

* ``setup``  -- import ``banach_gauge.cli`` and run the warm-ups, then stop;
* ``timed``  -- also run passes over the command list until ``seconds`` is
  used up; each command starts only after the previous one returned;
* ``traced`` -- alternate untraced passes and passes with the layer wrappers
  of ``tracer.py`` installed, for ``seconds`` and at least two of each.

Timed and traced passes run the workload's probes of ``probe.py`` before the
first command and after each one, and set-up is bracketed by the ``python``
probe, so that run.py can scale every latency to a fixed host speed.  The
probes are outside every timed region.

Nothing is checked here beyond exit codes: run.py checks the outputs in its
own process, after this one has ended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import probe
from outputs import stable_output

PYTHON_PROBES = 3  # runs of the python probe before and after set-up


def _run(cli, argv: list[str]) -> tuple[int, float, str]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a traceback is a failed command, not a crashed benchmark
        rc, buf = -1, io.StringIO(traceback.format_exc())
    return rc, time.perf_counter() - t0, buf.getvalue()


def _write_witness(output: str, path: str) -> None:
    """Client glue of flat-lp: save the witness a flat-search returned."""
    try:
        witness = json.loads(output)["witness"]
    except (ValueError, KeyError):
        witness = {"v": {}}
    Path(path).write_text(json.dumps(witness), encoding="utf-8")


def run_pass(cli, commands: list[dict], tracer=None, probes: tuple[str, ...] = ()) -> dict:
    """One closed-loop pass, with the named host-speed probes run between commands."""
    outputs: dict[str, str] = {}
    rows = []
    c0, t0 = time.process_time(), time.perf_counter()
    before = probe.probe(probes)
    for cmd in commands:
        if cmd["witness_of"]:
            _write_witness(outputs[cmd["witness_of"]], cmd["argv"][-1])
        if tracer is not None:
            tracer.command = cmd["label"]
        rc, dt, out = _run(cli, cmd["argv"])
        after = probe.probe(probes)
        outputs[cmd["label"]] = out
        rows.append({"label": cmd["label"], "kind": cmd["kind"], "rc": rc, "seconds": dt,
                     "probe_s": {k: (before[k] + after[k]) / 2 for k in probes},
                     "digest": hashlib.sha256(_stable(out).encode()).hexdigest()})
        before = after
    return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0,
            "commands": rows, "outputs": outputs}


def _stable(output: str) -> str:
    try:
        return json.dumps(stable_output(output), sort_keys=True)
    except ValueError:  # a traceback or other non-JSON text is compared as is
        return output


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    probes = [probe.probe(["python"]) for _ in range(PYTHON_PROBES)]
    t0 = time.perf_counter()
    from banach_gauge import cli

    warm = run_pass(cli, plan["warmup"])
    setup_s = time.perf_counter() - t0
    probes += [probe.probe(["python"]) for _ in range(PYTHON_PROBES)]
    result: dict = {"setup_s": setup_s,
                    "setup_probe_s": {"python": statistics.median(p["python"] for p in probes)},
                    "cli_file": cli.__file__,
                    "warmup_rc": [c["rc"] for c in warm["commands"]]}
    passes = []
    if plan["mode"] == "timed":
        start = time.perf_counter()
        while True:
            passes.append(run_pass(cli, plan["commands"], probes=plan["probes"]))
            used = time.perf_counter() - start
            # stop when one more pass of average length would overrun
            if used + used / len(passes) > plan["seconds"]:
                break
    elif plan["mode"] == "traced":
        import tracer

        traced, spans = [], []
        start = time.perf_counter()
        while True:  # alternate untraced and traced passes; at least two traced
            passes.append(run_pass(cli, plan["commands"], probes=plan["probes"]))
            tr = tracer.Tracer()
            with tr.installed():
                p = run_pass(cli, plan["commands"], tracer=tr, probes=plan["probes"])
            p["trace"] = tr.summary()
            traced.append(p)
            if len(spans) < 2:  # keep the written spans file small
                spans.append(tr.spans)
            used = time.perf_counter() - start
            if len(traced) >= 2 and used + used / len(traced) > plan["seconds"]:
                break
        result["traced"] = [{k: v for k, v in p.items() if k != "outputs"} for p in traced]
        Path(plan["spans_out"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "command"],
                        "passes": spans}), encoding="utf-8")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if passes:
        result["first_outputs"] = passes[0]["outputs"]
    result["passes"] = [{k: v for k, v in p.items() if k != "outputs"} for p in passes]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
