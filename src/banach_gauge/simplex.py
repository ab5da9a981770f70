"""Exact simplex for the flat-vector master LP, in integer arithmetic.

Given cuts lambda_1..lambda_m (nonnegative rational functionals on [1, N]),
the master LP is

    minimize t  subject to  <lambda_k, x> - t <= 0  (k = 1..m),
                            sum_{j>=3} x_j = 1,  x >= 0,  t >= 0.

Its tableau has columns x_1..x_N, t, one slack per cut and one artificial
for the tail row; phase 1 drives the artificial to zero, phase 2 minimizes t.

Small and deliberately boring: Bland's rule everywhere (no cycling).  Each
tableau row is kept as a list of Python ints, a positive integer multiple of
the true rational row whose scale is the row's entry in its basic column.  A
pivot sets ``row_i <- piv*row_i - row_i[enter]*row_leave`` and divides out
the row's gcd (fraction-free elimination in the style of Bareiss, 1968); a
row whose pivot entry is negative is negated first.  Positive scaling keeps
every sign and every ratio, so the entering column (first negative reduced
cost), the ratio test (compared by cross-multiplying) and its tie-break on
the basis pick exactly the pivots a ``Fraction`` tableau would, and the
solver returns the same vertex.  The objective row is a positive multiple of
the reduced costs; only its signs are read.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _reduce(row):
    g = math.gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _eliminate(row, prow, col):
    """Clear row[col] with the pivot row prow, whose entry prow[col] is > 0."""
    piv, f = prow[col], row[col]
    return _reduce([piv * v - f * p for v, p in zip(row, prow)])


def _pivot(rows, basis, leave, enter):
    """Make column enter basic in row leave, negating that row if its entry is < 0."""
    if rows[leave][enter] < 0:
        rows[leave] = [-v for v in rows[leave]]
    prow = rows[leave]
    for i, row in enumerate(rows):
        if i != leave and row[enter]:
            rows[i] = _eliminate(row, prow, enter)
    basis[leave] = enter


def _optimize(rows, basis, cost, ncols):
    """Bland-rule simplex to an optimum on a feasible tableau for an integer
    cost row; mutates rows/basis in place.  Both phases minimize a column
    that is >= 0 (the artificial, then t), so every entering column has a
    leaving row."""
    zrow = list(cost) + [0]
    for row, b in zip(rows, basis):
        if zrow[b]:
            zrow = _eliminate(zrow, row, b)
    while True:
        enter = next((j for j in range(ncols) if zrow[j] < 0), -1)
        if enter < 0:
            return
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = row[-1] * rows[leave][enter], rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        assert leave >= 0, "the master LP is bounded: t >= 0"
        _pivot(rows, basis, leave, enter)
        if zrow[enter]:
            zrow = _eliminate(zrow, rows[leave], enter)


def solve_lp(cuts, N: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal (x_1..x_N, t) of the master LP over the ``FinVec`` list ``cuts``.

    The LP is always feasible and bounded (t >= 0 on x >= 0), so phase 1
    ends with the artificial at zero and phase 2 at an optimum.
    """
    m = len(cuts)
    art = N + 1 + m  # the artificial's column; the rhs follows it
    rows = []
    for k, lam in enumerate(cuts):
        scale = math.lcm(*(v.denominator for _, v in lam.items()))
        row = [0] * (art + 2)
        for j, v in lam.items():
            row[j - 1] = v.numerator * (scale // v.denominator)
        row[N], row[N + 1 + k] = -scale, scale
        rows.append(_reduce(row))
    rows.append([0, 0] + [1] * (N - 2) + [0] * (m + 1) + [1, 1])
    basis = list(range(N + 1, art + 1))  # the slacks, then the artificial

    _optimize(rows, basis, [0] * art + [1], art + 1)
    # drive a zero-valued artificial out of the basis.  Its row is a
    # combination of the original rows that is nonzero on x, t or the slacks:
    # each slack is a unit column of its cut row, and the tail row is nonzero
    # on x_3, so a combination vanishing there is the zero row.
    if art in basis:
        i = basis.index(art)
        _pivot(rows, basis, i, next(j for j in range(art) if rows[i][j]))
    rows = [_reduce(row[:art] + row[-1:]) for row in rows]

    _optimize(rows, basis, [0] * N + [1] + [0] * m, art)
    x_full = [Fraction(0)] * art
    for row, b in zip(rows, basis):
        x_full[b] = Fraction(row[-1], row[b])
    return tuple(x_full[:N]), x_full[N]
