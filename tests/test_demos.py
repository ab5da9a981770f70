"""The demos that print exact Rademacher ratios, run in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo, expected", [
    ("03_type_cotype_ratios.py", [
        "l1   basis family, type   ratio = 2",
        "l2   basis family, cotype ratio = 1",
        "linf basis family, cotype ratio = 2",
        "family e_3, e_4: cotype ratio = 2 (exact)",
    ]),
    ("07_flat_search_cotype.py", [
        "N=4: flat-search ratio 2  == sign-enumeration 2",
        "N=8: flat-search ratio 19/5  == sign-enumeration 19/5",
    ]),
])
def test_demo_prints_exact_ratios(capsys, demo, expected):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for line in expected:
        assert line in lines
