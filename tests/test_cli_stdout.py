"""Every subcommand's stdout, pinned by digest on small fixed inputs.

Inputs are written into a fresh directory and named relative to it, so the
argv that seeded manifests echo is the same on every run.  The manifest's
``wall_time_s`` is the only varying field and is masked before hashing.
"""

import hashlib
import json
import re

import pytest

from banach_gauge.cli import main

INPUTS = {
    "x.json": {"v": {"3": "1/2", "4": -1, "7": "2/3", "9": "3/2"}},
    "flat.json": {"v": {"3": "1/3", "5": "1/3", "6": "1/3"}},
    "half.json": {"v": {"3": "1/2", "4": "1/2"}},
    "rows.json": [["1/3", 2, -0.5], [0.25, "3", 1], [-1, 0, 2]],
    "cloud.json": [[1.0, 0.5, -2.0, 0.0, 3.0], [0.0, 1.5, 1.0, -1.0, 0.5],
                   [2.0, -0.5, 0.0, 1.0, 1.0], [-1.0, 2.0, 0.5, 0.5, -2.0],
                   [0.5, 0.0, -1.5, 2.5, 0.0], [1.5, 1.0, 1.0, -0.5, -1.0]],
    "sweep-norm.json": {"command": "norm", "grid": {"space": ["T", "T2", "mod", "mod2"]},
                        "fixed": {"vec": "x.json"}},
    "sweep-embed.json": {"command": "jl-embed", "grid": {"eps": [0.9, 1.0]},
                         "fixed": {"points": "cloud.json", "constant": 1}, "seed": 5},
}

MECHANISM = ["jl-mechanism", "--space", "l1", "--family", "rows.json", "--trials", "2"]
COMPARE = ["compare-norms", "--count", "4", "--max-support", "5", "--seed", "3"]

CASES = {
    **{f"norm-{space}{'-brute' * brute}": ["norm", "--space", space, "--vec", "x.json"]
       + ["--brute"] * brute for space in ("T", "T2", "mod", "mod2") for brute in (0, 1)},
    "ratio-exact": ["ratio", "--space", "T2", "--kind", "cotype", "--vecs", "rows.json"],
    "ratio-mc": ["ratio", "--space", "l1", "--kind", "type", "--mode", "mc",
                 "--samples", "500", "--seed", "2", "--vecs", "rows.json"],
    "caratheodory": ["caratheodory", "--vecs", "rows.json"],
    "jl-embed": ["jl-embed", "--points", "cloud.json", "--eps", "0.9", "--constant", "1",
                 "--seed", "4"],
    "jl-mechanism": MECHANISM,
    "jl-mechanism-csv": MECHANISM + ["--csv"],
    "walsh": ["walsh", "--family", "rows.json", "--seed", "3"],
    "growth": ["growth", "g", "3", "2"],
    "flat-search": ["flat-search", "--N", "5"],
    "cotype-cert": ["cotype-cert", "--witness", "flat.json"],
    "cotype-cert-N": ["cotype-cert", "--witness", "flat.json", "--N", "8"],
    "cotype-cert-claimed": ["cotype-cert", "--witness", "half.json", "--N", "4"],
    "compare-norms": COMPARE,
    "compare-norms-csv": COMPARE + ["--csv"],
    "compare-norms-vec": ["compare-norms", "--vec", "x.json"],
    "sweep-norm": ["sweep", "--config", "sweep-norm.json"],
    "sweep-embed": ["sweep", "--config", "sweep-embed.json"],
}

# sha256 of each case's stdout (wall_time_s masked), recorded at the commit
# before the CLI handlers were reduced to one library call each; the two
# REFUSED cases were re-recorded when --brute on mod/mod2 became an error
PINNED = {
    "caratheodory": "9ffb2ccb3d7063454d88f6ce4c0f23d551f1897ffa54537fe3010eadf1127016",
    "compare-norms": "f68fa42a916664cdc33c81fb95990c158a0ecdcbefa4f2cbc6381f3f1e40dcad",
    "compare-norms-csv": "9ed15de15f632735cc16795fd6f214ce212cd2d28d22c674c7393e0753ed88be",
    "compare-norms-vec": "5c70e67324683a310ab9dfea1363860113339e271001cb9e4d9ad6d3928885d8",
    "cotype-cert": "cac9328da96af8f9eca6a7289278993e0892db67d9012f0311839cbc6bfc2885",
    "cotype-cert-N": "84018607706a0447ec0dab5ffe33b38e790608aea4184d1aa2e6f1e88009de55",
    "cotype-cert-claimed": "c3f0ccb383d6eb6a8c413c04ca3b3c079e2454137c18064f2eb95c16366a0c31",
    "flat-search": "95af264cf66f34ba57738bba9d64fe8bf2eb352e8ffc5069e8995c42d8654034",
    "growth": "3ed26e56eb4e40cb4d731e5e170955b7d03de05ec5486ef291e950aa119ba250",
    "jl-embed": "e614534f3f751766a93d75956b3850bf5f84abe0a8c7d6dd9e85ad5e998bb9f7",
    "jl-mechanism": "83d91c863f22d00fd346b3ecef248cd91a77ae81cc0c21bd2bf1b1de264cebe7",
    "jl-mechanism-csv": "f7cd1fa73e9613f8001b36b6d6055b5a781e91402ca13fe6a33d934e509c75af",
    "norm-T": "ae20cf5a565a25a21bb5a30a87fe8fe921bbbd534ffbf5d98d1d246918b92951",
    "norm-T-brute": "f08e205d605e8ea231af4b92190ba9d164b001d74038025674340c5ae66d5a59",
    "norm-T2": "62855b36eae329222fc4e32650bacafd0d9bc503a8e3b85292ef17be2b10b0ea",
    "norm-T2-brute": "d2c7f27e98ba8e64b16b80f1a9d069e777f7da7bfec709ff00b17a7d17211707",
    "norm-mod": "c0d4cd70c07c22feedf5bf17ea8f527cd732f3cfadc0773e58d4f1662cfde0fd",
    "norm-mod-brute": "9e080f5ea1b7cd82b4e5f8d6b156e17adcb680755807899f2225e84048562ae9",
    "norm-mod2": "b2735e2a4fdbf3ad736e1a8816f30d031c5afef3a3a5178e854440743a0d712b",
    "norm-mod2-brute": "9e080f5ea1b7cd82b4e5f8d6b156e17adcb680755807899f2225e84048562ae9",
    "ratio-exact": "5da2a047f2973b54e3407d05fa3b9ed6b01151127190df5462a4ef16dd09c9ab",
    "ratio-mc": "7868222a9fc36c18f3cfbf34bf2ed66f1cbfbe6c3ea24a1d730bc2ace0f458c1",
    "sweep-embed": "d53158213ebd8251f11daeee370f6dc47023e54a95133c90e5da509ed26668b5",
    "sweep-norm": "bed97d5f7d3599fc5d31d9db754b48b442035d5186fc1c2f7af397bf174d1eab",
    "walsh": "9639e3507d65b74f9e97fb20452c3c58b95cba584cf051479050dedaf9094687",
}


# --brute names the T/T2 all-subsets oracle: mod and mod2 refuse it (exit 1)
REFUSED = {"norm-mod-brute", "norm-mod2-brute"}


def stdout_digest(argv: list[str], capsys, expected_code: int = 0) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expected_code, out
    out = re.sub(r'"wall_time_s": [^,\n]*', '"wall_time_s": 0', out)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_pinned(inputs, capsys, case):
    assert stdout_digest(CASES[case], capsys, 1 if case in REFUSED else 0) == PINNED[case]
