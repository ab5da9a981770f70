"""Engines and CLI commands leave no reference cycles behind.

With the automatic collector off, whatever a call leaves in a cycle stays
allocated until the next full pass, so memo tables held by recursive
closures, or a parser dropped per call, pile up between passes.  Each case
makes one warm-up call (imports, plan caches, the parser), then one call
with the collector off, and counts what ``gc.collect`` finds after it.
"""

import contextlib
import gc
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from banach_gauge import FinVec
from banach_gauge.cli import main
from banach_gauge.batch import _modified_plan, modified_norm_batch
from banach_gauge.growth import ackermann_g
from banach_gauge.tsirelson import (
    modified_norm,
    norming_functional,
    t2_norm_sq,
    tsirelson_norm,
    tsirelson_norm_bruteforce,
)

X = FinVec({3: Fraction(1, 2), 4: Fraction(-1), 5: Fraction(2), 7: Fraction(1, 3), 9: Fraction(1)})


# from label 1 every subset is evaluated; ten labels from 2 make threshold 2 bind
X1 = FinVec({1: Fraction(1, 2), 2: Fraction(-1), 3: Fraction(2), 5: Fraction(1, 3), 6: Fraction(1)})
BINDING = FinVec({j: Fraction(j % 4 + 1, 2) for j in range(2, 12)})
# the brute-force oracle at its cap, on the labels of the benchmark's T vector
BRUTE12 = FinVec({j: Fraction(j % 5 + 1, 3) for j in range(2, 14)})


def compile_and_run_modified_plan():
    _modified_plan.cache_clear()  # so the measured call compiles the plan again
    modified_norm_batch([[0.5, 1.0, 2.0, 0.25, 1.0], [1.0, 0.0, 3.0, 1.0, 0.5]], [3, 4, 5, 7, 9])


def compile_and_run_modified_plan_on(labels):
    _modified_plan.cache_clear()
    modified_norm_batch(np.arange(2 * len(labels)).reshape(2, -1) / 2, labels)


def cyclic_garbage(call) -> int:
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("call", [
    lambda: tsirelson_norm(X),
    lambda: t2_norm_sq(X),
    lambda: tsirelson_norm_bruteforce(X),
    lambda: tsirelson_norm_bruteforce(BRUTE12),
    lambda: modified_norm(X),
    lambda: modified_norm(X1),
    lambda: modified_norm(BINDING),
    compile_and_run_modified_plan,
    lambda: compile_and_run_modified_plan_on((1, 2, 4, 5, 7)),
    lambda: compile_and_run_modified_plan_on(tuple(range(2, 12))),
    lambda: norming_functional(tsirelson_norm(X).certificate),
    lambda: ackermann_g(3, 2),
    lambda: ackermann_g(4, 2),  # exceeds the cap: leaves by an exception
], ids=["tsirelson_norm", "t2_norm_sq", "bruteforce", "bruteforce-12", "modified_norm",
        "modified_norm-from-1", "modified_norm-binding", "modified_plan", "modified_plan-from-1",
        "modified_plan-binding", "norming_functional", "ackermann_g", "ackermann_g-exceeds-cap"])
def test_engines_leave_no_cycles(call):
    assert cyclic_garbage(call) == 0


@pytest.fixture
def inputs(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    vec = write("vec.json", {"v": {"3": "1/2", "4": "-1", "5": "2", "7": "1/3", "9": "1"}})
    return {
        "vec": vec,
        "vecs": write("vecs.json", [[1, 0, "1/2"], [0, 1, -1], [1, 1, 0]]),
        "points": write("points.json", [[i % 3, i % 5, i / 2, 1.0] for i in range(12)]),
        "family": write("family.json", [[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.5, 0.0, 1.0]]),
        "witness": write("witness.json", {"v": {"3": "1", "4": "1", "5": "1"}}),
        "sweep": write("sweep.json", {"command": "norm", "grid": {"space": ["T", "mod"]},
                                      "fixed": {"vec": vec}}),
        "cert": str(tmp_path / "cert.json"),
    }


COMMANDS = {
    "norm-T": "norm --space T --vec {vec} --cert-out {cert}",
    "norm-T2": "norm --space T2 --vec {vec}",
    "norm-brute": "norm --space T --vec {vec} --brute",
    "norm-mod2": "norm --space mod2 --vec {vec}",
    "ratio-exact": "ratio --space T2 --kind cotype --vecs {vecs}",
    "ratio-mc": "ratio --space l2 --kind type --mode mc --samples 200 --vecs {vecs}",
    "caratheodory": "caratheodory --vecs {family}",
    "jl-embed": "jl-embed --points {points} --eps 0.9",
    "walsh": "walsh --family {family}",
    "jl-mechanism": "jl-mechanism --space l1 --family {family} --trials 2 --eps 0.9",
    "growth": "growth g 3 2",
    "delta-bound": "growth delta-bound 4",
    "flat-search": "flat-search --N 6",
    "flat-search-replay": "flat-search --N 10",  # 17 rounds, each replaying the last path
    "cotype-cert": "cotype-cert --witness {witness}",
    "compare-norms": "compare-norms --count 3 --max-support 5",
    "sweep": "sweep --config {sweep}",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_leave_no_cycles(inputs, name):
    argv = COMMANDS[name].format(**inputs).split()
    codes = []

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))

    assert cyclic_garbage(call) == 0
    assert codes == [0, 0]
