import hashlib
import json
import math
import re
import signal
import warnings
from fractions import Fraction

import pytest

from banach_gauge.cli import SEEDED_COMMANDS, build_parser, main, render_json

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


@pytest.mark.parametrize("cap", ["1e400", "inf", "nan", "lots"])
def test_growth_g_bad_cap_exits_1(capsys, cap):
    code, out = run(capsys, "growth", "g", "3", "5", "--cap", cap)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("command", [["growth", "delta-bound"], ["delta-bound"]])
@pytest.mark.parametrize("args", [["nan"], ["inf"], ["1e400"], ["10", "--K", "nan"],
                                  ["10", "--K", "1e400"], ["10", "--D", "nan"],
                                  ["10", "--D", "inf"]])
def test_delta_bound_non_finite_exits_1(capsys, command, args):
    code, out = run(capsys, *command, *args)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_top_level_delta_bound(capsys):
    code, out = run(capsys, "delta-bound", "1000000")
    assert code == 0
    assert float(out) < 1000


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


def test_usage_error_exit_2(capsys):
    assert main(["norm", "--space", "T"]) == 2  # missing --vec
    assert main(["--bogus"]) == 2
    assert main(["norm", "--space", "XX", "--vec", "nope.json"]) == 2


def test_domain_error_exit_1(capsys, tmp_path):
    vec = write_vec(tmp_path, "big.json", {j: 1 for j in range(1, 14)})
    code, out = run(capsys, "norm", "--space", "mod", "--vec", vec)
    assert code == 1
    err = json.loads(out)
    assert err["error"]["type"] == "SupportTooLarge"


def test_norm_support_over_dp_cap_exits_1(capsys, tmp_path, monkeypatch):
    from banach_gauge.tsirelson import MAX_DP_SUPPORT

    monkeypatch.setattr("banach_gauge.tsirelson._scaled_weights",
                        lambda x: pytest.fail("the DP ran past its support cap"))
    vec = write_vec(tmp_path, "big.json", {j: 1 for j in range(1, MAX_DP_SUPPORT + 2)})
    for space in ("T", "T2"):
        code, out = run(capsys, "norm", "--space", space, "--vec", vec)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SupportTooLarge"


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


def test_ratio_exact_float_norm_out_of_range_exits_1(capsys, tmp_path):
    # 1e-310 puts 2^1074 into the common denominator, so the scaled sign sums
    # are ints too large for the float-valued lp3 oracle
    vecs = write_vectors(tmp_path, "tiny.json", [[1e-310, 1], [1, 2]])
    code, out = run(capsys, "ratio", "--space", "lp3", "--kind", "type", "--mode", "exact",
                    "--vecs", vecs)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("entry", ["NaN", "Infinity", '"1/0"', '"one"'])
def test_ratio_exact_bad_entry_exits_1(capsys, tmp_path, entry):
    path = tmp_path / "fam.json"
    path.write_text(f'[[{entry}, 1], [1, 2]]')
    code, out = run(capsys, "ratio", "--space", "l1", "--kind", "type",
                    "--mode", "exact", "--vecs", str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


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


@pytest.mark.parametrize("command", sorted(_SEEDED_ARGV))
def test_output_digest_is_the_digest_of_the_printed_payload(capsys, tmp_path, command):
    assert set(_SEEDED_ARGV) == SEEDED_COMMANDS
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
    code, out = run(capsys, "caratheodory", "--vecs", vecs, "--dim", "1")
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
        code, out = run(capsys, "ratio", "--space", space, "--kind", "cotype", "--mode", "mc",
                        "--samples", "200", "--vecs", vecs)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    assert capsys.readouterr().err == ""


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


def test_sweep_growth_plain_text(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "delta-bound", "grid": {}}))
    # delta-bound takes a positional, so grid-less sweep cannot drive it;
    # the cell records a usage error instead of crashing the sweep
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1].endswith("usage error")


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
