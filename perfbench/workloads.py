"""Seeded inputs and command lists for the four benchmark workloads.

A workload is a fixed list of ``banach_gauge.cli.main(argv)`` calls.  The
benchmark generates every input file from ``--seed`` and the program sees
only those files.  Each command carries a *kind*; the per-kind latency sums
are the workload's end-to-end breakdown.

Why these four (see DESIGN.md for the layer interaction table):

* ``flat-lp`` is the only user of ``simplex``.  ``solve_lp`` is almost all of
  ``search_flat`` from N = 10 on, so warm-started column generation shows here
  and a DP change should not.
* ``exact-norms`` is a few large interval-DP calls at three index offsets
  (the offset decides whether the part budget binds) and the exhaustive
  oracles, which have their own sum so they cannot share a DP speed-up.
* ``ratios`` uses the same DP differently: thousands of small calls, many on
  ``Fraction(float)`` inputs, and an l1 family whose time is the ``gauss``
  sign-sum loop with no DP call at all.
* ``embed`` is numpy only: pairwise distances, JSON point loading and the
  mechanism experiment.  Exact-path changes must leave it unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: kind -> the end-to-end name of its per-pass latency sum
KIND_METRIC = {
    "flat-search": "flat_search_s",
    "cotype-cert": "cotype_cert_s",
    "norm-dp": "norm_dp_s",
    "norm-oracle": "norm_oracle_s",
    "ratio-exact": "ratio_exact_s",
    "ratio-mc": "ratio_mc_s",
    "jl-embed": "jl_embed_s",
    "jl-mechanism": "jl_mechanism_s",
    "walsh": "walsh_s",
    "caratheodory": "caratheodory_s",
}


@dataclass
class Command:
    label: str
    kind: str
    argv: list[str]
    #: label of an earlier flat-search whose witness this command reads
    witness_of: str | None = None


@dataclass
class Workload:
    name: str
    #: the kinds summed into ``primary_s`` and ``secondary_s``
    primary: tuple[str, ...]
    secondary: tuple[str, ...]
    #: the host-speed probes (``probe.WORK``) run between its commands
    probes: tuple[str, ...]
    commands: list[Command] = field(default_factory=list)
    #: one small command per kind, run untimed inside set-up
    warmup: list[Command] = field(default_factory=list)

    def input_files(self) -> list[str]:
        """Paths of the files the timed commands read (witnesses are written in the pass)."""
        flags = {"--vec", "--vecs", "--points", "--family", "--witness"}
        return [c.argv[i + 1] for c in self.commands
                for i, a in enumerate(c.argv[:-1]) if a in flags]


WORKLOAD_NAMES = ("flat-lp", "exact-norms", "ratios", "embed")


# --------------------------------------------------------------------------
# Input writers
# --------------------------------------------------------------------------

def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# The exact engines' cost depends on the magnitudes of their rational inputs
# (denominator sizes, which families tie).  So magnitudes come from a stream
# fixed by the command's label, and the seed only chooses changes that leave
# the work the same: entry signs of a vector (every norm here depends on
# |x|), and sign flips and order of a family's vectors (the set of sign sums
# stays the same).

def _rat(fixed: random.Random) -> str:
    numerator = fixed.randint(1, 9) * fixed.choice((-1, 1))
    return f"{numerator}/{fixed.randint(1, 9)}"


def _finvec(rng: random.Random, label: str, support: int, start: int) -> dict:
    """Contiguous support start..start+support-1 with p/q entries of seeded sign."""
    fixed = random.Random(label)
    mags = [_rat(fixed).lstrip("-") for _ in range(support)]
    return {"v": {str(start + i): m if rng.random() < 0.5 else _negate(m)
                  for i, m in enumerate(mags)}}


def _rational_family(rng: random.Random, label: str, n: int, d: int) -> list[list[str]]:
    """n dense vectors of length d, so every sign sum has full support."""
    fixed = random.Random(label)
    rows = [[_rat(fixed) for _ in range(d)] for _ in range(n)]
    rows = [r if rng.random() < 0.5 else [_negate(v) for v in r] for r in rows]
    rng.shuffle(rows)
    return rows


def _negate(v: str) -> str:
    return v[1:] if v.startswith("-") else "-" + v


def _float_rows(rng: random.Random, n: int, d: int) -> list[list[float]]:
    g = np.random.default_rng(rng.getrandbits(63)).standard_normal((n, d))
    return [[float(f"{v:.6g}") for v in row] for row in g]


# --------------------------------------------------------------------------
# Workload builders.  ``sizes`` holds the full or the smoke parameters.
# --------------------------------------------------------------------------

def _flat_lp(rng: random.Random, d: Path, sizes: dict) -> list[Command]:
    # flat-search has no input file; the seed has no effect on this workload
    cmds = []
    for n in sizes["N"]:
        cmds.append(Command(f"flat-{n}", "flat-search", ["flat-search", "--N", str(n)]))
        cmds.append(Command(f"cert-{n}", "cotype-cert",
                            ["cotype-cert", "--witness", str(d / f"witness-{n}.json")],
                            witness_of=f"flat-{n}"))
    return cmds


def _norm_commands(rng: random.Random, d: Path, sizes: dict) -> list[Command]:
    cmds = []
    for s, starts in sizes["T"]:
        for start in starts:
            label = f"T-s{s}-at{start}"
            vec = _write(d / f"{label}.json", _finvec(rng, label, s, start))
            cmds.append(Command(label, "norm-dp", ["norm", "--space", "T", "--vec", vec,
                                                   "--cert-out", str(d / f"{label}.cert.json")]))
    for s, start in sizes["T2"]:
        label = f"T2-s{s}-at{start}"
        vec = _write(d / f"{label}.json", _finvec(rng, label, s, start))
        cmds.append(Command(label, "norm-dp", ["norm", "--space", "T2", "--vec", vec,
                                               "--cert-out", str(d / f"{label}.cert.json")]))
    for space, brute, s, start in sizes["oracle"]:
        label = f"{space}{'-brute' if brute else ''}-s{s}-at{start}"
        vec = _write(d / f"{label}.json", _finvec(rng, label, s, start))
        argv = ["norm", "--space", space, "--vec", vec] + (["--brute"] if brute else [])
        cmds.append(Command(label, "norm-oracle", argv))
    return cmds


def _ratio_commands(rng: random.Random, d: Path, sizes: dict) -> list[Command]:
    cmds = []
    for space, kind, n, dim in sizes["exact"]:
        label = f"exact-{space}-{kind}-n{n}"
        vecs = _write(d / f"{label}.json", _rational_family(rng, label, n, dim))
        cmds.append(Command(label, "ratio-exact", ["ratio", "--space", space, "--kind", kind,
                                                   "--mode", "exact", "--vecs", vecs]))
    for space, kind, n, dim, samples in sizes["mc"]:
        label = f"mc-{space}-{kind}-n{n}"
        vecs = _write(d / f"{label}.json", _float_rows(rng, n, dim))
        cmds.append(Command(label, "ratio-mc", [
            "ratio", "--space", space, "--kind", kind, "--mode", "mc", "--vecs", vecs,
            "--samples", str(samples), "--seed", str(rng.randrange(1 << 31))]))
    return cmds


def _embed(rng: random.Random, d: Path, sizes: dict) -> list[Command]:
    cmds = []
    for n, dim, eps in sizes["clouds"]:
        label = f"embed-{n}x{dim}"
        pts = _write(d / f"{label}.json", _float_rows(rng, n, dim))
        cmds.append(Command(label, "jl-embed", ["jl-embed", "--points", pts, "--eps", str(eps),
                                                "--seed", str(rng.randrange(1 << 31))]))
    for space, n, dim, trials in sizes["mechanism"]:
        label = f"mech-{space}-{n}x{dim}"
        fam = _write(d / f"{label}.json", _float_rows(rng, n, dim))
        cmds.append(Command(label, "jl-mechanism", [
            "jl-mechanism", "--space", space, "--family", fam, "--trials", str(trials),
            "--seed", str(rng.randrange(1 << 31))]))
    m, n, dim = sizes["walsh"]
    fam = _write(d / "walsh.json", _float_rows(rng, n, dim))
    cmds.append(Command(f"walsh-m{m}", "walsh", ["walsh", "--m", str(m), "--family", fam,
                                                 "--seed", str(rng.randrange(1 << 31))]))
    n, dim = sizes["caratheodory"]
    vecs = _write(d / "caratheodory.json", _float_rows(rng, n, dim))
    cmds.append(Command(f"caratheodory-{n}x{dim}", "caratheodory",
                        ["caratheodory", "--vecs", vecs]))
    return cmds


_BUILDERS = {"flat-lp": _flat_lp, "exact-norms": _norm_commands, "ratios": _ratio_commands,
             "embed": _embed}

_GROUPS = {
    "flat-lp": (("flat-search",), ("cotype-cert",)),
    "exact-norms": (("norm-dp",), ("norm-oracle",)),
    "ratios": (("ratio-exact",), ("ratio-mc",)),
    "embed": (("jl-embed",), ("jl-mechanism",)),
}

# The probes whose speed tracked the workload's own from run to run on a
# busy host (see DESIGN.md): exact arithmetic everywhere, numpy for embed.
_PROBES = {
    "flat-lp": ("fraction",),
    "exact-norms": ("fraction",),
    "ratios": ("fraction",),
    "embed": ("fraction", "numpy"),
}

FULL = {
    # Passes are kept to a few seconds on a 2-core Xeon so that a run holds
    # many and each command's median is well sampled (see DESIGN.md); the
    # pass times below are for a quiet and a busy host.
    # 0.9-1.6 s per pass; the LP is ~97% of flat-search time from N = 10 on
    "flat-lp": {"N": range(3, 11)},
    # 1.2-2.1 s per pass; at s = 40 the offset moves memo_entries 5 491 / 7 672 / 1 600
    "exact-norms": {
        "T": [(12, (1,)), (16, (1, 4, 48)), (32, (1, 8, 96)), (40, (1, 10, 120))],
        "T2": [(24, 1), (32, 8), (28, 84)],
        "oracle": [("T", True, 12, 2), ("T2", True, 11, 3), ("mod", False, 10, 1),
                   ("mod2", False, 10, 1)],
    },
    # 1.7-2.8 s per pass
    "ratios": {
        "exact": [("T2", "cotype", 8, 8), ("T", "cotype", 8, 8), ("mod2", "cotype", 7, 7),
                  ("l1", "cotype", 10, 10), ("l2", "type", 9, 9), ("T2", "type", 7, 7)],
        "mc": [("T2", "type", 6, 6, 2500), ("T", "cotype", 6, 6, 2500),
               ("l1", "type", 8, 8, 100_000), ("l2", "type", 8, 8, 100_000),
               ("linf", "cotype", 8, 8, 100_000)],
    },
    # 1.4-2.3 s per pass; eps and sizes chosen so the first draw meets 1 + eps
    "embed": {
        "clouds": [(1500, 300, 0.5), (2000, 100, 0.5), (1200, 200, 0.6), (1000, 250, 0.5)],
        "mechanism": [("l1", 250, 8, 3), ("l2", 200, 8, 3), ("linf", 250, 10, 3)],
        "walsh": (12, 3000, 8),
        "caratheodory": (60, 6),
    },
}

SMOKE = {
    "flat-lp": {"N": range(3, 6)},
    "exact-norms": {
        "T": [(6, (1, 2, 18)), (10, (1,))],
        "T2": [(8, 2)],
        "oracle": [("T", True, 6, 2), ("T2", True, 5, 3), ("mod", False, 5, 1),
                   ("mod2", False, 5, 1)],
    },
    "ratios": {
        "exact": [("T2", "cotype", 3, 3), ("T", "cotype", 3, 3), ("mod2", "cotype", 3, 3),
                  ("l1", "cotype", 4, 4), ("l2", "type", 3, 3)],
        "mc": [("T2", "type", 3, 3, 200), ("T", "cotype", 3, 3, 200),
               ("l1", "type", 3, 3, 1000), ("l2", "type", 3, 3, 1000),
               ("linf", "cotype", 3, 3, 1000)],
    },
    "embed": {
        "clouds": [(40, 10, 0.5), (30, 6, 0.5)],
        "mechanism": [("l1", 6, 3, 1), ("l2", 5, 3, 1), ("linf", 6, 3, 1)],
        "walsh": (4, 10, 3),
        "caratheodory": (8, 3),
    },
}


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    """Write the inputs for one workload under ``workdir`` and list its commands.

    The same (name, seed, smoke) always gives the same files and argv.
    """
    primary, secondary = _GROUPS[name]
    wl = Workload(name, primary, secondary, _PROBES[name])
    main_dir = workdir / "inputs"
    warm_dir = workdir / "warmup"
    main_dir.mkdir(parents=True, exist_ok=True)
    warm_dir.mkdir(parents=True, exist_ok=True)
    sizes = SMOKE if smoke else FULL
    wl.commands = _BUILDERS[name](random.Random(f"{name}/{seed}"), main_dir, sizes[name])
    warm = _BUILDERS[name](random.Random(f"{name}/warmup"), warm_dir, SMOKE[name])
    wl.warmup = _first_per_kind(warm)
    return wl


def _first_per_kind(cmds: list[Command]) -> list[Command]:
    """One command of each kind, keeping a flat-search that a cotype-cert reads."""
    out: list[Command] = []
    kinds: set[str] = set()
    for c in cmds:
        if c.kind in kinds:
            continue
        if c.witness_of is not None and all(o.label != c.witness_of for o in out):
            continue
        kinds.add(c.kind)
        out.append(c)
    return out

