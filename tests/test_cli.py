import argparse
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import banach_gauge
from banach_gauge.cli import build_parser, main, render_json

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_vec(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"v": {str(j): str(v) for j, v in entries.items()}}))
    return str(path)


def write_vectors(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps(rows))
    return str(path)


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def test_render_json_fractions_and_floats():
    text = render_json({"a": F(2, 3), "b": 0.1, "c": [1, None, True]})
    obj = json.loads(text)
    assert obj["a"] == "2/3"
    assert obj["b"] == 0.1
    assert obj["c"] == [1, None, True]
    assert "0.10000000000000001" in text  # 17 significant digits


# --------------------------------------------------------------------------
# dispatch basics
# --------------------------------------------------------------------------

def test_growth_examples(capsys):
    assert run(capsys, "growth", "g", "3", "2") == (0, "2048\n")
    assert run(capsys, "growth", "g", "4", "2") == (0, "EXCEEDS_CAP\n")
    assert run(capsys, "growth", "alpha", "2049") == (0, "4\n")
    assert run(capsys, "growth", "alpha-diag", "9") == (0, "2\n")
    assert run(capsys, "growth", "log-star", "16") == (0, "3\n")
    code, out = run(capsys, "growth", "delta-bound", "4")
    assert code == 0 and float(out) == 2.0
    code, out = run(capsys, "growth", "delta-bound", "1000000")
    assert code == 0 and float(out) < 1000


@pytest.mark.parametrize("x", ["1e400", "inf", "nan"])
def test_growth_log_star_non_finite_exits_1(capsys, x):
    # log(inf) is inf, so an unchecked loop would never end: guard with an alarm
    def hung(signum, frame):
        raise TimeoutError(f"growth log-star {x} did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        code, out = run(capsys, "growth", "log-star", x)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("cap", ["inf", "nan", "lots", "1e5000"])
def test_growth_g_bad_cap_exits_1(capsys, cap):
    code, out = run(capsys, "growth", "g", "3", "5", "--cap", cap)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("cap", ["9007199254740993", "9.007199254740993e15", "1e400"])
def test_growth_g_cap_is_parsed_exactly(capsys, cap):
    # g_0(n) = n + 1; as a float the second cap rounds down to 2^53 = n
    assert run(capsys, "growth", "g", "0", "9007199254740992", "--cap", cap) == (
        0, "9007199254740993\n")


@pytest.mark.parametrize("command", [["growth", "delta-bound"]])
@pytest.mark.parametrize("args", [["nan"], ["inf"], ["1e400"], ["10", "--K", "nan"],
                                  ["10", "--K", "1e400"], ["10", "--D", "nan"],
                                  ["10", "--D", "inf"], ["4", "--K", "0"], ["4", "--D", "0.5"]])
def test_delta_bound_non_finite_exits_1(capsys, command, args):
    code, out = run(capsys, *command, *args)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_norm_command(capsys, tmp_path):
    vec = write_vec(tmp_path, "x.json", {3: 1, 4: 1})
    code, out = run(capsys, "norm", "--space", "T", "--vec", vec)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1"
    code, out = run(capsys, "norm", "--space", "T", "--vec", vec, "--brute")
    assert json.loads(out)["value"] == "1"
    code, out = run(capsys, "norm", "--space", "T2", "--vec", vec)
    data = json.loads(out)
    assert data["value_sq"] == "1" and data["value"] == 1.0
    code, out = run(capsys, "norm", "--space", "mod", "--vec", vec)
    assert json.loads(out)["value"] == "1"


def test_norm_cert_out(capsys, tmp_path):
    vec = write_vec(tmp_path, "x.json", {3: 1, 4: 1, 5: 1, 6: 1})
    cert_path = tmp_path / "cert.json"
    code, out = run(capsys, "norm", "--space", "T", "--vec", vec, "--cert-out", str(cert_path))
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["value"] == "3/2"
    assert "split" in cert["tree"] or "leaf" in cert["tree"]


def test_norm_oracle_paths_match_their_engines(capsys, tmp_path):
    from banach_gauge.seqvec import FinVec, abs_square
    from banach_gauge.tsirelson import modified_t2_norm_sq, tsirelson_norm_bruteforce

    entries = {3: F(1, 2), 4: -1, 6: F(2, 3), 7: 2, 9: F(-3, 4)}
    x = FinVec(entries)
    vec = write_vec(tmp_path, "x.json", entries)
    code, out = run(capsys, "norm", "--space", "mod2", "--vec", vec)
    assert code == 0
    data = json.loads(out)
    assert Fraction(data["value_sq"]) == modified_t2_norm_sq(x)
    assert data["value"] == math.sqrt(modified_t2_norm_sq(x)) and data["engine"] == "exhaustive"
    code, out = run(capsys, "norm", "--space", "T2", "--brute", "--vec", vec)
    assert code == 0
    data = json.loads(out)
    assert Fraction(data["value_sq"]) == tsirelson_norm_bruteforce(abs_square(x))
    assert data["engine"] == "bruteforce"


@pytest.mark.parametrize("flags", [["--space", "T", "--brute"], ["--space", "T2", "--brute"],
                                   ["--space", "mod"], ["--space", "mod2"]])
def test_norm_cert_out_without_a_certificate_exits_1(capsys, tmp_path, flags):
    vec = write_vec(tmp_path, "x.json", {3: 1, 4: 1})
    cert_path = tmp_path / "cert.json"
    code, out = run(capsys, "norm", *flags, "--vec", vec, "--cert-out", str(cert_path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    assert not cert_path.exists()


@pytest.mark.parametrize("flags", [["--space", "T", "--brute"], ["--space", "T2", "--brute"],
                                   ["--space", "mod"], ["--space", "mod2"]])
def test_norm_cert_out_is_refused_before_any_engine_runs(capsys, tmp_path, monkeypatch, flags):
    # on 12 labels these engines take up to a second: the refusal comes first
    for name in ("tsirelson_norm_bruteforce", "modified_norm", "modified_t2_norm_sq"):
        monkeypatch.setattr(f"banach_gauge.cli.{name}",
                            lambda *a, **k: pytest.fail("an engine ran before the refusal"))
    vec = write_vec(tmp_path, "x.json", {j: 1 for j in range(1, 13)})
    cert_path = tmp_path / "cert.json"
    code, out = run(capsys, "norm", *flags, "--vec", vec, "--cert-out", str(cert_path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    assert not cert_path.exists()


@pytest.mark.parametrize("space", ["mod", "mod2"])
def test_norm_brute_on_a_modified_space_is_refused_before_loading(capsys, tmp_path, monkeypatch,
                                                                   space):
    # --brute names the T/T2 all-subsets oracle; the modified spaces have one
    # engine, so the flag exits 1 before the (missing) vector file is read
    for name in ("modified_norm", "modified_t2_norm_sq", "tsirelson_norm_bruteforce"):
        monkeypatch.setattr(f"banach_gauge.cli.{name}",
                            lambda *a, **k: pytest.fail("an engine ran before the refusal"))
    code, out = run(capsys, "norm", "--space", space, "--brute", "--vec",
                    str(tmp_path / "missing.json"))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "DomainError" and "--brute" in err["message"]


def test_usage_error_exit_2(capsys):
    assert main(["norm", "--space", "T"]) == 2  # missing --vec
    assert main(["--bogus"]) == 2
    assert main(["norm", "--space", "XX", "--vec", "nope.json"]) == 2
    assert main(["caratheodory", "--vecs", "nope.json", "--dim", "3"]) == 2  # d is read off the rows


def test_domain_error_exit_1(capsys, tmp_path):
    vec = write_vec(tmp_path, "big.json", {j: 1 for j in range(1, 14)})
    code, out = run(capsys, "norm", "--space", "mod", "--vec", vec)
    assert code == 1
    err = json.loads(out)
    assert err["error"]["type"] == "SupportTooLarge"


def test_norm_support_over_dp_cap_exits_1(capsys, tmp_path, monkeypatch):
    from banach_gauge.tsirelson import MAX_DP_SUPPORT

    monkeypatch.setattr("banach_gauge.tsirelson._interval_plan",
                        lambda sup: pytest.fail("the DP ran past its support cap"))
    vec = write_vec(tmp_path, "big.json", {j: 1 for j in range(1, MAX_DP_SUPPORT + 2)})
    for space in ("T", "T2"):
        code, out = run(capsys, "norm", "--space", space, "--vec", vec)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SupportTooLarge"


def test_norm_cert_out_unwritable_exits_1_before_the_engine(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("banach_gauge.cli.tsirelson_norm", lambda x: pytest.fail("the engine ran"))
    vec = write_vec(tmp_path, "x.json", {3: 1, 4: "1/2"})
    for target in (tmp_path / "missing" / "c.json", tmp_path):
        code, out = run(capsys, "norm", "--space", "T2", "--vec", vec, "--cert-out", str(target))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DomainError"


def test_norm_zero_denominator_entry_exits_1(capsys, tmp_path):
    vec = write_vec(tmp_path, "x.json", {3: "1/0"})
    code, out = run(capsys, "norm", "--space", "T", "--vec", vec)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_ratio_exact_float_family_is_exact(capsys, tmp_path):
    rows = [[0.1, 0.2], [0.3, 0.7], [0.5, -0.25]]
    floats = write_vectors(tmp_path, "floats.json", rows)
    fractions = write_vectors(tmp_path, "fractions.json",
                              [[str(F(v)) for v in r] for r in rows])
    code, out = run(capsys, "ratio", "--space", "l2", "--kind", "type", "--mode", "exact",
                    "--vecs", floats)
    assert code == 0 and json.loads(out)["exact"] == "1"
    for space in ("T", "T2"):
        exact = []
        for vecs in (floats, fractions):
            code, out = run(capsys, "ratio", "--space", space, "--kind", "cotype",
                            "--mode", "exact", "--vecs", vecs)
            assert code == 0
            exact.append(json.loads(out)["exact"])
        assert exact[0] is not None and exact[0] == exact[1]


def test_ratio_exact_lp_tiny_entry_stays_in_float_range(capsys, tmp_path):
    # 1e-310 puts 2^1074 into the common denominator, so the scaled sign sums
    # are ints far beyond the float range; the lp3 oracle still sees them in
    # range, and the tiny entry moves the ratio by ~1e-620 relative
    vecs = write_vectors(tmp_path, "tiny.json", [[1e-310, 1], [1, 2]])
    code, out = run(capsys, "ratio", "--space", "lp3", "--kind", "type", "--mode", "exact",
                    "--vecs", vecs)
    assert code == 0
    ratio = (28 ** (2 / 3) + 2 ** (2 / 3)) / 2 / (1 + 9 ** (2 / 3))
    assert json.loads(out)["point"] == pytest.approx(ratio, rel=1e-14)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", '"1/0"', '"one"'])
def test_ratio_exact_bad_entry_exits_1(capsys, tmp_path, entry):
    path = tmp_path / "fam.json"
    path.write_text(f'[[{entry}, 1], [1, 2]]')
    code, out = run(capsys, "ratio", "--space", "l1", "--kind", "type",
                    "--mode", "exact", "--vecs", str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_ratio_on_rows_of_mixed_lengths_exits_1(capsys, tmp_path):
    path = write_vectors(tmp_path, "fam.json", [[1, 2], [3]])
    code, out = run(capsys, "ratio", "--space", "l1", "--kind", "type", "--vecs", path)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "DomainError",
                                        "message": f"{path}: vectors have mixed lengths"}


def test_unreadable_and_malformed_inputs_exit_1(capsys, tmp_path):
    code, out = run(capsys, "norm", "--space", "T", "--vec", str(tmp_path / "missing.json"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "norm", "--space", "T", "--vec", str(bad))
    assert code == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"w": {}}))
    code, out = run(capsys, "norm", "--space", "T", "--vec", str(wrong))
    assert code == 1


def test_ratio_exact(capsys, tmp_path):
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0"], ["0", "1"]])
    code, out = run(capsys, "ratio", "--space", "l1", "--kind", "type",
                    "--mode", "exact", "--vecs", vecs)
    assert code == 0
    data = json.loads(out)
    assert data["point"] == 2.0
    assert data["exact"] == "2"
    assert data["mode"] == "rademacher-exact"
    assert data["ci"] == [2.0, 2.0]


def test_ratio_mc_manifest_and_determinism(capsys, tmp_path):
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0"], ["0", "1"]])
    args = ["ratio", "--space", "l2", "--kind", "type", "--mode", "mc",
            "--vecs", vecs, "--samples", "2000", "--seed", "5"]
    code, out1 = run(capsys, *args)
    assert code == 0
    code, out2 = run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    m1, m2 = d1.pop("manifest"), d2.pop("manifest")
    assert d1 == d2
    assert m1["output_digest"] == m2["output_digest"]
    assert m1["seed"] == 5
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


_SEEDED_ARGV = {
    "ratio": ["ratio", "--space", "T2", "--kind", "cotype", "--mode", "exact", "--vecs"],
    "jl-embed": ["jl-embed", "--eps", "0.9", "--seed", "4", "--points"],
    "jl-mechanism": ["jl-mechanism", "--space", "l1", "--trials", "1", "--family"],
    "walsh": ["walsh", "--seed", "3", "--family"],
    "compare-norms": ["compare-norms", "--count", "3", "--seed", "2", "--vec"],
}


def _seeded_commands() -> set[str]:
    """The subcommands that take --seed, and so print a run manifest."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name for name, p in sub.choices.items() if any(a.dest == "seed" for a in p._actions)}


@pytest.mark.parametrize("command", sorted(_SEEDED_ARGV))
def test_output_digest_is_the_digest_of_the_printed_payload(capsys, tmp_path, command):
    assert set(_SEEDED_ARGV) == _seeded_commands()
    if command == "compare-norms":
        path = write_vec(tmp_path, "x.json", {3: F(1, 2), 4: -1, 7: F(2, 3)})
    else:
        path = write_vectors(tmp_path, "fam.json", [["1/3", 2, -0.5], [0.25, "3", 1], [-1, 0, 2]])
    code, out = run(capsys, *_SEEDED_ARGV[command], path)
    assert code == 0
    data = json.loads(out)
    manifest = data.pop("manifest")
    assert render_json({"manifest": manifest, **data}) + "\n" == out
    assert manifest["output_digest"] == hashlib.sha256(render_json(data).encode()).hexdigest()


@pytest.mark.parametrize("command", [
    ["jl-mechanism", "--trials", "1", "--family"],
    ["ratio", "--kind", "type", "--vecs"],
    ["ratio", "--kind", "cotype", "--mode", "mc", "--samples", "100", "--vecs"],
])
def test_lp_nan_space_exits_1(capsys, tmp_path, command):
    # (tag, rows, message): the tag is read first, then the dimension, then p;
    # a message of None means the tag is accepted
    two, empty = [[1, 2], [3, 4]], [[]]
    table = [
        ("lpnan", two, "lp oracle needs p >= 1"),
        *((tag, rows, f"unknown space tag {tag!r}")
          for tag in ("foo", "lpx", "polytope") for rows in (empty, two)),
        ("lp0.5", empty, "dimension must be >= 1"),
        ("LINF", two, None), ("Mod2", two, None), ("lpinf", two, None),
    ]
    for tag, rows, message in table:
        path = write_vectors(tmp_path, "fam.json", rows)
        code, out = run(capsys, command[0], "--space", tag, *command[1:], path)
        if message is None:
            assert code == 0, (tag, out)
        else:
            assert code == 1, tag
            assert json.loads(out)["error"] == {"message": message, "type": "DomainError"}


def test_ratio_mc_sample_cap_exits_1(capsys, tmp_path):
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    code, out = run(capsys, "ratio", "--space", "l2", "--kind", "type", "--mode", "mc",
                    "--vecs", vecs, "--samples", "10000000000000")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_ratio_mc_on_t_and_t2_deterministic_per_seed(capsys, tmp_path):
    import numpy as np

    rows = np.random.default_rng(3).standard_normal((4, 8)).tolist()  # T is linf below index 6
    vecs = write_vectors(tmp_path, "fam.json", rows)
    points = {}
    for space in ("T", "T2"):
        args = ["ratio", "--space", space, "--kind", "cotype", "--mode", "mc",
                "--vecs", vecs, "--samples", "2000", "--seed", "6"]
        outs = [json.loads(run(capsys, *args)[1]) for _ in range(2)]
        for out in outs:
            out.pop("manifest")
        assert outs[0] == outs[1]
        points[space] = outs[0]["point"]
    assert points["T"] != points["T2"]


def test_env_seed_override(capsys, tmp_path, monkeypatch):
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0"], ["0", "1"]])
    args = ["ratio", "--space", "l2", "--kind", "type", "--mode", "mc",
            "--vecs", vecs, "--samples", "2000", "--seed", "5"]
    monkeypatch.setenv("BANACH_GAUGE_SEED", "77")
    code, out = run(capsys, *args)
    assert json.loads(out)["manifest"]["seed"] == 77


def test_caratheodory_command(capsys, tmp_path):
    vecs = write_vectors(tmp_path, "u.json", [[1.0], [1.0], [1.0]])
    code, out = run(capsys, "caratheodory", "--vecs", vecs)
    assert code == 0
    data = json.loads(out)
    assert data["nonzero_weights"] == 1
    assert data["weights"][0] == 3.0
    assert data["cov_residual"] <= 1e-12


def test_jl_embed_command(capsys, tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    pts = write_vectors(tmp_path, "pts.json", rng.standard_normal((40, 60)).tolist())
    code, out = run(capsys, "jl-embed", "--points", pts, "--eps", "0.9", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    assert data["target_dim"] == math.ceil(8 * math.log(40) / 0.81)
    assert data["min_ratio"] == 1.0
    assert data["distortion"] <= 1.9
    assert "manifest" in data


@pytest.mark.parametrize("constant", ["-1", "0", "nan", "inf"])
def test_jl_embed_rejects_bad_constant(capsys, tmp_path, constant):
    pts = write_vectors(tmp_path, "pts.json", [[0, 0], [1, 0], [0, 1]])
    code, out = run(capsys, "jl-embed", "--points", pts, "--eps", "0.5",
                    "--constant", constant)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


_FLOAT_COMMANDS = {
    "jl-embed": ["jl-embed", "--eps", "0.5", "--seed", "3", "--points"],
    "jl-mechanism": ["jl-mechanism", "--space", "l1", "--trials", "1", "--family"],
    "walsh": ["walsh", "--seed", "3", "--family"],
    "caratheodory": ["caratheodory", "--vecs"],
}


@pytest.mark.parametrize("command", sorted(_FLOAT_COMMANDS))
@pytest.mark.parametrize("entry", ['"1e400"', pytest.param("1" + "0" * 400, id="10**400"), "NaN",
                                   "-Infinity", "true", '"1/0"', '"one"', "null"])
def test_float_commands_reject_bad_entries(capsys, tmp_path, command, entry):
    path = tmp_path / "pts.json"
    path.write_text(f"[[1, 2], [{entry}, 1], [0, 1]]")
    code, out = run(capsys, *_FLOAT_COMMANDS[command], str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("command", sorted(_FLOAT_COMMANDS))
@pytest.mark.parametrize("text", ["[[1, 2], [{}, 1]]", "[[1, 2], [[1, 2], 1]]",
                                  "[[[1, 2]], [[3, 4]]]", "[[[]], [[]]]"])
def test_float_commands_reject_nested_entries(capsys, tmp_path, command, text):
    # numbers-only text: numpy sees these rows first, the entry parser names them
    path = tmp_path / "pts.json"
    path.write_text(text)
    code, out = run(capsys, *_FLOAT_COMMANDS[command], str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_float_loader_numbers_only_text_matches_entry_parser(tmp_path):
    from banach_gauge.cli import _load_float_array

    ints = [2**64 + 1, 10**30, -(2**53) - 1, 0, 7, -3]
    floats = [-0.0, 1e-310, 0.1, 1e308, -2.5, 3.0]
    numbers = tmp_path / "numbers.json"
    numbers.write_text(json.dumps([ints, floats]))
    quoted = tmp_path / "quoted.json"
    quoted.write_text(json.dumps([[str(v) for v in ints], floats]))
    fast, parsed = _load_float_array(str(numbers)), _load_float_array(str(quoted))
    assert fast.shape == (2, 6)
    assert fast.tobytes() == parsed.tobytes()


def test_jl_embed_zero_width_points_exit_1(capsys, tmp_path):
    code, out = run(capsys, *_FLOAT_COMMANDS["jl-embed"], write_vectors(tmp_path, "e.json", [[], []]))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("command", sorted(_FLOAT_COMMANDS))
def test_float_commands_round_exact_entries_once(capsys, tmp_path, command):
    # "p/q" strings and ints give the same output as the floats they round to
    rows = [["1/3", 2, "-5/7"], [0.5, "3", 1], [-1, "1/1024", 2.25], [4, 0, "-1/3"]]
    floats = [[float(F(v)) if isinstance(v, str) else float(v) for v in r] for r in rows]
    outs = []
    for name, data in (("exact.json", rows), ("floats.json", floats)):
        code, out = run(capsys, *_FLOAT_COMMANDS[command], write_vectors(tmp_path, name, data))
        assert code == 0
        payload = json.loads(out)
        payload.pop("manifest", None)
        outs.append(payload)
    assert outs[0] == outs[1]


def test_non_utf8_input_exits_1(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[[1, 2], [\xff, 1]]')
    commands = [argv + [str(path)] for argv in _FLOAT_COMMANDS.values()] + [
        ["ratio", "--space", "l1", "--kind", "type", "--vecs", str(path)],
        ["norm", "--space", "T", "--vec", str(path)],
        ["cotype-cert", "--witness", str(path)],
        ["compare-norms", "--vec", str(path)],
        ["sweep", "--config", str(path)],
    ]
    for argv in commands:
        code, out = run(capsys, *argv)
        assert code == 1, argv
        assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("space", ["l1", "l2", "linf", "lp3", "T", "T2"])
def test_ratio_mc_overflow_exits_1_without_warnings(capsys, tmp_path, space):
    vecs = write_vectors(tmp_path, "huge.json", [[1e300, 1e300], [1e300, -1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ratio", "--space", space, "--kind", "cotype", "--mode", "mc",
                     "--samples", "200", "--vecs", vecs])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    assert err == ""


def test_ratio_mc_ci_finite_near_float_max(capsys, tmp_path):
    # squared norms of ~1e300 are in range, but their squared deviations are not
    vecs = write_vectors(tmp_path, "big.json", [[1e150, 0], [0, 1e150]])
    code = main(["ratio", "--space", "l2", "--kind", "type", "--mode", "mc",
                 "--samples", "200", "--vecs", vecs])
    out, err = capsys.readouterr()
    assert code == 0
    lo, hi = json.loads(out)["ci"]
    assert 0 < lo <= hi < math.inf
    assert err == ""


def test_walsh_command(capsys, tmp_path):
    import numpy as np

    rng = np.random.default_rng(1)
    fam = write_vectors(tmp_path, "fam.json", rng.standard_normal((8, 4)).tolist())
    code, out = run(capsys, "walsh", "--m", "3", "--family", fam, "--seed", "2")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 17
    assert data["size_bound"] == 17
    assert data["orthogonality_ok"] is True


def test_jl_mechanism_csv(capsys, tmp_path):
    fam = write_vectors(tmp_path, "fam.json", [[0, 0], [1, 0], [0, 1], [1, 1]])
    code, out = run(capsys, "jl-mechanism", "--space", "l1", "--family", fam,
                    "--trials", "3", "--seed", "8", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("trial,lhs,rhs,ratio")
    assert len(lines) == 4
    for line in lines[1:]:
        ratio = float(line.split(",")[3])
        assert ratio <= 1.0 + 1e-9


def test_jl_mechanism_on_t2(capsys, tmp_path):
    import numpy as np

    rows = np.random.default_rng(5).standard_normal((8, 4)).tolist()
    fam = write_vectors(tmp_path, "fam.json", rows)
    code, out = run(capsys, "jl-mechanism", "--space", "T2", "--family", fam,
                    "--trials", "2", "--seed", "1")
    assert code == 0
    trials = json.loads(out)["trials"]
    assert len(trials) == 2
    assert all(t["ratio"] <= 1.0 + 1e-9 for t in trials)


@pytest.mark.parametrize("argv, key", [
    (["compare-norms", "--count"], "rows"),
    (["jl-mechanism", "--space", "l1", "--family", "FAMILY", "--trials"], "trials"),
])
def test_a_negative_count_exits_1_and_zero_gives_an_empty_result(capsys, tmp_path, argv, key):
    fam = write_vectors(tmp_path, "fam.json", [[0, 0], [1, 0], [0, 1], [1, 1]])
    argv = [fam if a == "FAMILY" else a for a in argv]
    code, out = run(capsys, *argv, "-1")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "DomainError"
    assert err["message"].endswith("must be >= 0, got -1")
    code, out = run(capsys, *argv, "0")
    assert code == 0
    assert json.loads(out)[key] == []


def test_flat_search_and_cotype_cert(capsys, tmp_path):
    code, out = run(capsys, "flat-search", "--N", "4")
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == "1/2"
    assert data["converged"] is True
    assert data["witness"]["v"] == {"3": "1/2", "4": "1/2"}

    witness_path = tmp_path / "w.json"
    witness_path.write_text(json.dumps(data["witness"]))
    code, out = run(capsys, "cotype-cert", "--witness", str(witness_path))
    assert code == 0
    cert = json.loads(out)
    assert cert["ratio"] == "2"
    assert cert["c2_lower"] == pytest.approx(math.sqrt(2))
    assert cert["paper_claimed"] == pytest.approx(2.0)


@pytest.mark.parametrize("entries,N,kind,message", [
    ({}, None, "DomainError", "witness vector is zero"),
    ({3: 1, 5: 1}, "4", "DomainError", "span bound N=4 does not contain the witness support"),
    ({3: -1, 9: 1}, "4", "DomainError", "span bound N=4 does not contain the witness support"),
    ({3: 1, 4: F(-1, 2)}, None, "NegativeEntry", "entry 4 is -1/2 < 0"),
    ({1: -1, 2: 3}, None, "NegativeEntry", "entry 1 is -1 < 0"),
    ({1: 1, 2: 3}, None, "ZeroTail", "sum of entries at indices >= 3 is zero"),
])
def test_cotype_cert_rejections(capsys, tmp_path, entries, N, kind, message):
    path = write_vec(tmp_path, "w.json", entries)
    code, out = run(capsys, "cotype-cert", "--witness", path, *(["--N", N] if N else []))
    assert code == 1
    assert json.loads(out)["error"] == {"type": kind, "message": message}


def test_cotype_cert_evaluates_the_norm_once(capsys, tmp_path, monkeypatch):
    real = banach_gauge.tsirelson.tsirelson_norm
    calls = []

    def counted(x):
        calls.append(x)
        return real(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("banach_gauge") and getattr(module, "tsirelson_norm", None) is real:
            monkeypatch.setattr(module, "tsirelson_norm", counted)
    path = write_vec(tmp_path, "w.json", {3: F(1, 3), 5: F(1, 3), 6: F(1, 3)})
    code, _ = run(capsys, "cotype-cert", "--witness", path, "--N", "8")
    assert code == 0
    assert len(calls) == 1


def test_compare_norms(capsys):
    code, out = run(capsys, "compare-norms", "--count", "5", "--max-support", "4",
                    "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    for row in data["rows"]:
        assert Fraction(row["t2_sq"]) >= 0
        # base-space families are a subset of the modified ones, so the
        # squared values can only drop when switching to the modified norm
        assert Fraction(row["mod2_sq"]) >= Fraction(row["t2_sq"])


def test_compare_norms_on_the_zero_vector_prints_a_nan_ratio(capsys, tmp_path):
    code, out = run(capsys, "compare-norms", "--vec", write_vec(tmp_path, "zero.json", {}))
    assert code == 0
    row, = json.loads(out)["rows"]
    assert (row["t2_sq"], row["mod2_sq"], row["ratio"]) == ("0", "0", "nan")


def test_compare_norms_refuses_an_oversize_support_before_drawing_it(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out = run(capsys, "compare-norms", "--count", "1", "--max-support", "1000000",
                        "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert json.loads(out)["error"] == {"type": "SupportTooLarge",
                                        "message": "support 140892 exceeds interval-DP cap 200"}
    assert peak < 4 << 20


def test_compare_norms_csv_matches_json(capsys):
    import csv

    argv = ["compare-norms", "--count", "6", "--max-support", "6", "--seed", "4"]
    code, out = run(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    code, out = run(capsys, *argv, "--csv")
    assert code == 0
    header, *cells = list(csv.reader(out.splitlines()))
    assert header == ["vec", "t2_sq", "mod2_sq", "ratio"]
    assert len(cells) == len(rows) == 6
    assert any(row["ratio"] != 1 for row in rows)
    for row, cell in zip(rows, cells):
        assert cell[:3] == [row["vec"], row["t2_sq"], row["mod2_sq"]]
        assert float(cell[3]) == row["ratio"]


def test_sweep_flat_search(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "flat-search", "grid": {"N": [3, 4, 5, 6, 7, 8]}}))
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "N" and header[-1] == "error"
    assert header.count("N") == 1  # grid column not duplicated from payloads
    assert len(lines) == 7
    ti = header.index("theta")
    thetas = [Fraction(line.split(",")[ti]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(thetas, thetas[1:]))


def test_sweep_empty_grid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "flat-search", "grid": {"N": []}}))
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "N,error"


def test_sweep_records_cell_errors(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "flat-search", "grid": {"N": [3, 40]}}))
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert "BadSupportBound" in lines[2]


def test_sweep_derives_cell_seeds(capsys, tmp_path, monkeypatch):
    from banach_gauge.seeds import derive_seed

    monkeypatch.delenv("BANACH_GAUGE_SEED", raising=False)
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0"], ["0", "1"]])
    fixed = {"space": "l1", "kind": "type", "mode": "mc", "vecs": vecs}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "ratio", "fixed": fixed,
                               "grid": {"samples": [200, 300, 400]}, "seed": 9}))
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    pi = lines[0].split(",").index("point")
    points = [float(line.split(",")[pi]) for line in lines[1:]]
    alone = []
    for idx, samples in enumerate([200, 300, 400]):
        argv = ["ratio", *(a for k, v in fixed.items() for a in (f"--{k}", v)),
                "--samples", str(samples), "--seed", str(derive_seed(9, "ratio", idx))]
        alone.append(json.loads(run(capsys, *argv)[1])["point"])
    assert points == alone


def test_sweep_cells_keep_the_float_range_check(capsys, tmp_path):
    # a sweep cell reaches a float-only command through the same call as main
    vecs = write_vectors(tmp_path, "huge.json", [[1e300, 1e300], [1e300, -1e300]])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "walsh", "grid": {"family": [vecs]}}))
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out.strip().split("\n")[1].endswith("DomainError: the input leaves the float range: "
                                                "overflow encountered in multiply")


@pytest.mark.parametrize("command", ["growth", "sweep"])
def test_sweep_refuses_a_command_it_cannot_run(capsys, tmp_path, command):
    # growth takes its calculator as a subcommand, so every cell would be a
    # usage error: it is refused before any cell runs, as sweep itself is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "grid": {"n": [1, 2]}}))
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["error"] == {"type": "DomainError",
                                        "message": f"sweep cannot run command {command!r}"}


# --------------------------------------------------------------------------
# one parser per process
# --------------------------------------------------------------------------

def _call(capsys, argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', cap.out), cap.err


def _alone(capsys, argv):
    build_parser.cache_clear()  # a parser of its own, as in a fresh process
    return _call(capsys, argv)


def _sequences(tmp_path):
    vec = write_vec(tmp_path, "x.json", {3: 1, 4: "1/2", 5: 1, 7: "-1/3"})
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0"], ["0", "1"]])
    fam = write_vectors(tmp_path, "walsh.json", [[0, 0], [1, 0], [0, 1], [1, 1]])
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"command": "norm", "grid": {"space": ["T", "T2", "mod"]},
                               "fixed": {"vec": vec}}))
    norm = ["norm", "--space", "T", "--vec", vec]
    ratio = ["ratio", "--space", "l2", "--kind", "type", "--mode", "mc",
             "--vecs", vecs, "--samples", "2000"]
    mech = ["jl-mechanism", "--space", "l1", "--family", fam, "--trials", "2"]
    return {
        "brute-then-dp": [norm + ["--brute"], norm],
        "seed-then-default": [ratio + ["--seed", "5"], ratio],
        "csv-then-json": [mech + ["--csv"], mech],
        "cert-out-then-none": [norm + ["--cert-out", str(tmp_path / "cert.json")], norm],
        "sweep-of-norms": [norm + ["--brute"], ["sweep", "--config", str(cfg)], norm],
    }


@pytest.mark.parametrize("name", ["brute-then-dp", "seed-then-default", "csv-then-json",
                                  "cert-out-then-none", "sweep-of-norms"])
def test_reused_parser_matches_commands_run_alone(capsys, tmp_path, name):
    seq = _sequences(tmp_path)[name]
    alone = [_alone(capsys, argv) for argv in seq]
    build_parser.cache_clear()
    together = [_call(capsys, argv) for argv in seq + seq]
    assert together == alone + alone
    assert all(code == 0 and not err for code, _, err in alone)
    assert build_parser.cache_info().misses == 1  # sweep cells reuse it too


def test_reused_parser_keeps_usage_and_help_text(capsys, tmp_path):
    cases = [["norm", "--space", "T"], ["--bogus"], ["norm", "--space", "XX", "--vec", "v"],
             ["-h"], ["ratio", "-h"], ["growth", "g", "-h"]]
    alone = [_alone(capsys, argv) for argv in cases]
    assert [code for code, _, _ in alone] == [2, 2, 2, 0, 0, 0]
    assert alone[0][2].startswith("usage: banach-gauge norm")
    assert alone[3][1].startswith("usage: banach-gauge")
    build_parser.cache_clear()
    _call(capsys, ["norm", "--space", "T", "--vec", write_vec(tmp_path, "x.json", {3: 1})])
    assert [_call(capsys, argv) for argv in cases + cases] == alone + alone


def test_env_seed_overrides_on_a_reused_parser(capsys, tmp_path, monkeypatch):
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0"], ["0", "1"]])
    args = ["ratio", "--space", "l2", "--kind", "type", "--mode", "mc",
            "--vecs", vecs, "--samples", "2000"]

    def seed(*extra):
        code, out, _ = _call(capsys, args + list(extra))
        assert code == 0
        return json.loads(out)["manifest"]["seed"]

    assert seed("--seed", "5") == 5
    monkeypatch.setenv("BANACH_GAUGE_SEED", "77")
    assert (seed("--seed", "5"), seed()) == (77, 77)
    monkeypatch.delenv("BANACH_GAUGE_SEED")
    assert (seed("--seed", "5"), seed()) == (5, 0)


def _fresh_python(code: str, *args: str) -> str:
    src = str(Path(banach_gauge.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


def test_cli_import_loads_no_optional_module():
    # scipy, mpmath and hypothesis are test-side tools, not dependencies, and
    # numpy loads only with the float and batched commands
    probe = ("import sys, banach_gauge.cli; print(sorted({m.split('.')[0] for m in sys.modules}"
             " & {'scipy', 'mpmath', 'hypothesis', 'numpy'}))")
    assert _fresh_python(probe).strip() == "[]"


_RUN_AND_REPORT_NUMPY = """
import contextlib, io, json, sys
from banach_gauge import cli
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append((argv[0], code, "numpy" in sys.modules))
print(json.dumps(report))
"""


def test_exact_commands_never_import_numpy(tmp_path):
    vec = write_vec(tmp_path, "x.json", {3: "1/2", 4: -1, 5: 2, 7: "1/3"})
    witness = write_vec(tmp_path, "w.json", {3: 1, 5: 1, 6: 1})
    vecs = write_vectors(tmp_path, "fam.json", [["1", "0"], ["0", "1"]])
    sweeps = {
        "norm": {"grid": {"space": ["T", "T2", "mod", "mod2"]}, "fixed": {"vec": vec}},
        "flat-search": {"grid": {"N": [3, 5]}},
        "cotype-cert": {"grid": {"N": [6, 8]}, "fixed": {"witness": witness}},
        "compare-norms": {"grid": {"count": [2]}},
    }
    configs = []
    for command, cfg in sweeps.items():
        path = tmp_path / f"sweep-{command}.json"
        path.write_text(json.dumps({"command": command, **cfg}))
        configs.append(["sweep", "--config", str(path)])
    free = [
        *(["norm", "--space", space, "--vec", vec] for space in ("T", "T2", "mod", "mod2")),
        *(["norm", "--space", space, "--vec", vec, "--brute"] for space in ("T", "T2")),
        ["norm", "--space", "T", "--vec", vec, "--cert-out", str(tmp_path / "cert.json")],
        ["flat-search", "--N", "6"],
        ["cotype-cert", "--witness", witness, "--N", "6"],
        ["growth", "g", "3", "2"], ["growth", "alpha", "2049"], ["growth", "alpha-diag", "5"],
        ["growth", "log-star", "16"], ["growth", "delta-bound", "1000"],
        ["compare-norms", "--count", "3"], ["compare-norms", "--vec", vec, "--csv"],
        *configs,
    ]
    argvs = free + [["ratio", "--space", "l2", "--kind", "type", "--vecs", vecs]]
    report = json.loads(_fresh_python(_RUN_AND_REPORT_NUMPY, json.dumps(argvs)))
    assert [code for _, code, _ in report] == [0] * len(argvs)
    assert [loaded for _, _, loaded in report] == [False] * len(free) + [True]
