"""Fixed reference computations that measure the host's speed of the moment.

On a shared host the same work runs up to 2x slower for stretches of
seconds to minutes.  The worker times a workload's probes between
consecutive commands, and run.py reports each command's latency at a fixed
host speed:

    latency / slowdown,  slowdown = mean over the workload's probes of
                                    (probe time around the command / NOMINAL_S)

where a probe's time around a command is the mean of its runs just before
and just after it.  The probes never call the program, so a change to the
program moves the scaled time exactly as it moves the raw time.

Each probe imitates one kind of the program's work: ``fraction`` its exact
``Fraction`` arithmetic, ``numpy`` its dense kernels, and ``python`` (builtins
only, so set-up can be probed before the program is imported) big-integer
sums with dict lookups.  ``NOMINAL_S`` holds their median times on a 2-core
Xeon VM (Python 3.11, numpy 2.4); it only fixes the unit, since every
comparison is a ratio of two scaled times.
"""

from __future__ import annotations

import time
from math import gcd

NOMINAL_S = {"python": 0.0030, "fraction": 0.0040, "numpy": 0.0022}

_MATRIX = None


def python_work() -> int:
    """Rational sums with big-integer gcds, and dict stores and lookups."""
    memo = {}
    num, den = 0, 1
    for i in range(1, 400):
        a, b = (i * 7919) % 1009 + 1, i + 3
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        memo[(i % 97, i % 13)] = (num, den)
    hits = 0
    for k in range(6000):
        if (k % 97, k % 13) in memo:
            hits += 1
    return hits


def fraction_work() -> None:
    """Gauss-Jordan elimination of the 8 x 8 Hilbert matrix, then a sum of products."""
    from fractions import Fraction  # only once the program has loaded it

    rows = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    for k in range(8):
        pivot = rows[k]
        for i in range(8):
            if i != k:
                f = rows[i][k] / pivot[k]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, i % 11 + 1)


def numpy_work() -> float:
    """Gram matrix, squared distances and a sort of a fixed 300 x 120 cloud."""
    import numpy as np  # only once the program has loaded it

    global _MATRIX
    if _MATRIX is None:
        _MATRIX = np.random.default_rng(1).standard_normal((300, 120))
    gram = _MATRIX @ _MATRIX.T
    diag = np.diag(gram)
    dist = diag[:, None] + diag[None, :] - 2.0 * gram
    return float(np.sort(dist, axis=None)[-1])


WORK = {"python": python_work, "fraction": fraction_work, "numpy": numpy_work}


def probe(kinds) -> dict[str, float]:
    """Seconds each of the named probes took, run once each."""
    times = {}
    for kind in kinds:
        t0 = time.perf_counter()
        WORK[kind]()
        times[kind] = time.perf_counter() - t0
    return times


def slowdown(times: dict[str, float]) -> float:
    """The host's slowdown against the nominal speed, from probe times."""
    return sum(t / NOMINAL_S[kind] for kind, t in times.items()) / len(times)
