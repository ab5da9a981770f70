"""Every subcommand, in process, on junk files and bad flags.

Each call must end in exit 0, exit 1 with the structured error JSON, or exit
2, with nothing on stderr and no warning raised, and no exception may escape
``cli.main``.  An alarm bounds every test, so a hang fails instead of
stalling the suite.
"""

import contextlib
import io
import json
import os
import signal
import time
import warnings

import pytest

from banach_gauge.cli import main

BIG = "1" + "0" * 400

JUNK = {
    "null": b"null",
    "list": b"[1, 2]",
    "string": b'"abc"',
    "10**400": BIG.encode(),
    "1e300": b"1e300",
    "non-utf8": b"\xff\xfe junk",
    "empty": b"",
    # shapes that pass the top-level type checks of some loaders
    "v-null": b'{"v": null}',
    "v-list": b'{"v": [1, 2]}',
    "v-10**400": ('{"v": {"3": %s, "5": 1}}' % BIG).encode(),
    "rows-1e300": b"[[1e300, 1e300], [1e300, -1e300]]",
    "rows-10**400": ("[[%s, 1], [1, 2]]" % BIG).encode(),
    # past Python's int digit limit: an int literal, a decimal exponent (which
    # Fraction would spend seconds expanding) and a result's denominator
    "rows-5000-digits": ("[[%s, 2]]" % ("1" * 5000)).encode(),
    "v-1e10000000": b'{"v": {"3": "1e10000000"}}',
    "rows-1e10000000": b'[["1e10000000", 1], [1, 2]]',
    "v-4500-digit-value": ('{"v": {%s}}' % ", ".join(
        f'"{j}": "1/{10**1500 + k}"' for j, k in ((4, 1), (5, 3), (6, 7)))).encode(),
    "nested-100000": b"[" * 100000 + b"]" * 100000,
    "sweep-grid-list": b'{"command": "flat-search", "grid": [1]}',
    "sweep-grid-scalar": b'{"command": "flat-search", "grid": {"N": 5}}',
    "sweep-fixed-list": b'{"command": "flat-search", "grid": {"N": [3]}, "fixed": [1]}',
    "sweep-command-list": b'{"command": ["norm"]}',
    "sweep-seed": b'{"command": "flat-search", "grid": {"N": [3]}, "seed": "x"}',
}

_SPACES = ["l1", "l2", "linf", "lp3", "T", "T2", "mod2"]


def _file_commands(path: str) -> dict[str, list[str]]:
    cmds = {f"norm-{sp}": ["norm", "--space", sp, "--vec", path] for sp in ["T", "T2", "mod", "mod2"]}
    cmds["norm-brute"] = ["norm", "--space", "T", "--brute", "--vec", path]
    for sp in _SPACES:
        cmds[f"ratio-exact-{sp}"] = ["ratio", "--space", sp, "--kind", "cotype", "--vecs", path]
        cmds[f"ratio-mc-{sp}"] = ["ratio", "--space", sp, "--kind", "type", "--mode", "mc",
                                  "--samples", "200", "--vecs", path]
    cmds["caratheodory"] = ["caratheodory", "--vecs", path]
    cmds["jl-embed"] = ["jl-embed", "--points", path, "--eps", "0.5", "--retries", "2"]
    cmds["walsh"] = ["walsh", "--family", path, "--m", "2"]
    cmds["jl-mechanism"] = ["jl-mechanism", "--space", "l1", "--family", path, "--trials", "1"]
    cmds["cotype-cert"] = ["cotype-cert", "--witness", path]
    cmds["compare-norms"] = ["compare-norms", "--vec", path]
    cmds["sweep"] = ["sweep", "--config", path]
    return cmds


# The float-only commands on entries whose squares leave the float range:
# besides ending cleanly, each must exit 1 with the DomainError JSON.
_FLOAT_OVERFLOW = {("rows-1e300", name)
                   for name in ("caratheodory", "jl-embed", "jl-mechanism", "walsh")}


def _bad_flags(rows: str, witness: str) -> list[list[str]]:
    mc = ["ratio", "--space", "l2", "--kind", "type", "--mode", "mc", "--samples", "200",
          "--vecs", rows]
    return [
        ["flat-search", "--N", "4", "--rounds", "0"],
        ["flat-search", "--N", "4", "--rounds", "-3"],
        ["flat-search", "--N", "40"],
        ["compare-norms", "--max-support", "0"],
        ["compare-norms", "--max-support", "-2"],
        ["compare-norms", "--count", "-1"],
        mc + ["--seed", "-1"],
        ["ratio", "--space", "lpx", "--kind", "type", "--vecs", rows],
        ["ratio", "--space", "lp0.5", "--kind", "type", "--vecs", rows],
        ["jl-embed", "--points", rows, "--eps", "0.5", "--retries", "0"],
        ["jl-embed", "--points", rows, "--eps", "0.5", "--seed", "-1"],
        ["jl-embed", "--points", rows, "--eps", "0"],
        ["jl-embed", "--points", rows, "--eps", "1e-200"],
        ["jl-embed", "--points", rows, "--eps", "0.5", "--constant", "1e308"],
        ["walsh", "--family", rows, "--m", "-1"],
        ["walsh", "--family", rows, "--m", "0"],
        ["walsh", "--family", rows, "--m", "40"],
        ["walsh", "--family", rows, "--m", str(2**62)],
        ["walsh", "--family", rows, "--m", str(2**70)],
        ["walsh", "--family", rows, "--seed", "-1"],
        ["jl-mechanism", "--space", "l1", "--family", rows, "--trials", "0"],
        ["jl-mechanism", "--space", "l1", "--family", rows, "--eps", "1e-200"],
        ["jl-mechanism", "--space", "l1", "--family", rows, "--constant", "1e308"],
        ["cotype-cert", "--witness", witness, "--N", "0"],
        ["norm", "--space", "T", "--vec", rows + ".missing"],
        ["norm", "--space", "T", "--vec", witness, "--cert-out", witness + ".missing/c.json"],
        ["norm", "--space", "T", "--vec", witness, "--cert-out", os.path.dirname(witness)],
        ["growth", "delta-bound", "0"],
        ["growth", "delta-bound", "nan"],
        ["growth", "alpha", "0"],
        ["growth", "alpha-diag", "1"],
        ["growth", "log-star", "0.5"],
        ["growth", "g", "3", "3", "--cap", "abc"],
    ]


@pytest.fixture
def alarm():
    def hung(signum, frame):
        raise TimeoutError("a fuzzed command did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _outcome(argv: list[str]) -> str | None:
    """None if the call ended cleanly, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except TimeoutError:
            raise
        except BaseException as exc:  # noqa: BLE001 - any escape is the failure
            return f"{type(exc).__name__}: {exc}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if caught:
        return f"warning: {caught[0].message}"
    if err.getvalue():
        return f"stderr: {err.getvalue()[:200]}"
    if code == 1 and "error" not in json.loads(out.getvalue()):
        return "exit 1 without the error JSON"
    return None


@pytest.mark.parametrize("junk", sorted(JUNK))
def test_every_file_command_on_junk_ends_cleanly(tmp_path, alarm, junk):
    path = tmp_path / "junk.json"
    path.write_bytes(JUNK[junk])
    failures = [(name, why) for name, argv in _file_commands(str(path)).items()
                if (why := _outcome(argv))]
    assert failures == []


def test_bad_flags_end_cleanly(tmp_path, alarm):
    rows = tmp_path / "rows.json"
    rows.write_text("[[1, 2], [3, -1]]")
    witness = tmp_path / "witness.json"
    witness.write_text('{"v": {"3": 1, "4": 1}}')
    failures = [(argv, why) for argv in _bad_flags(str(rows), str(witness))
                if (why := _outcome(argv))]
    assert failures == []


def test_non_integer_env_seed_exits_1(tmp_path, alarm, monkeypatch, capsys):
    rows = tmp_path / "rows.json"
    rows.write_text("[[1, 2], [3, -1]]")
    monkeypatch.setenv("BANACH_GAUGE_SEED", "abc")
    code = main(["ratio", "--space", "l2", "--kind", "type", "--mode", "mc", "--vecs", str(rows)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("junk,name", sorted(_FLOAT_OVERFLOW))
def test_float_commands_on_huge_entries_end_cleanly(tmp_path, alarm, junk, name):
    path = tmp_path / "junk.json"
    path.write_bytes(JUNK[junk])
    argv = _file_commands(str(path))[name]
    assert _outcome(argv) is None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 1
    assert json.loads(out.getvalue())["error"]["type"] == "DomainError"


@pytest.mark.parametrize("junk,argv", [
    ("rows-5000-digits", ["ratio", "--space", "l1", "--kind", "type", "--vecs"]),
    ("v-4500-digit-value", ["norm", "--space", "T", "--vec"]),
    ("v-1e10000000", ["norm", "--space", "T", "--vec"]),
    ("rows-1e10000000", ["jl-embed", "--eps", "0.5", "--points"]),
])
def test_inputs_past_the_int_digit_limit_exit_1_fast(tmp_path, alarm, junk, argv):
    # exit 0 would pass the fuzz above, so the bound on time is stated here
    path = tmp_path / "junk.json"
    path.write_bytes(JUNK[junk])
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv + [str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and json.loads(out.getvalue())["error"]["type"] == "DomainError"


@pytest.mark.parametrize("m", [2**62, 2**70])
def test_walsh_huge_m_exits_1_fast(tmp_path, alarm, m):
    # 2^m used to be built before the cap was checked
    rows = tmp_path / "rows.json"
    rows.write_text("[[1, 2], [3, -1]]")
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["walsh", "--family", str(rows), "--m", str(m)])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and json.loads(out.getvalue())["error"]["type"] == "MTooLarge"


def test_sweep_over_the_cell_cap_exits_1_before_any_cell(tmp_path, alarm):
    from banach_gauge.cli import SWEEP_CELL_CAP

    # every cell would be a usage error (no --bogus option), so only the cap
    # keeps this grid from running SWEEP_CELL_CAP + 1 parses
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"command": "flat-search",
                                  "grid": {"bogus": list(range(SWEEP_CELL_CAP + 1))}}))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--config", str(config)])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and json.loads(out.getvalue())["error"]["type"] == "DomainError"


def test_sweep_usage_error_cell_keeps_stderr_empty(tmp_path, capsys):
    # a missing required option, and a "help" key, whose --help text
    # argparse prints to stdout
    for text in ['{"command": "flat-search", "grid": {}}',
                 '{"command": "flat-search", "fixed": {"help": "x"}}']:
        config = tmp_path / "sweep.json"
        config.write_text(text)
        assert main(["sweep", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == ["error", "usage error"]
