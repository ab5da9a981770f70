"""Dense two-phase simplex over exact rationals, in integer arithmetic.

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

    minimize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    objective: Fraction | None


def _reduce(row):
    g = math.gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _int_row(row):
    """The rational row times the least common multiple of its denominators."""
    scale = math.lcm(*(v.denominator for v in row))
    return _reduce([v.numerator * (scale // v.denominator) for v in row])


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
    """Bland-rule simplex on a feasible tableau; mutates rows/basis in place.

    Returns the status and a positive multiple of the reduced-cost row.
    """
    zrow = _int_row(list(cost) + [Fraction(0)])
    for row, b in zip(rows, basis):
        if zrow[b]:
            zrow = _eliminate(zrow, row, b)
    while True:
        enter = next((j for j in range(ncols) if zrow[j] < 0), -1)
        if enter < 0:
            return "optimal", zrow
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
        if leave < 0:
            return "unbounded", zrow
        _pivot(rows, basis, leave, enter)
        if zrow[enter]:
            zrow = _eliminate(zrow, rows[leave], enter)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    c = [Fraction(v) for v in c]
    A_ub = [[Fraction(v) for v in row] for row in (A_ub or [])]
    b_ub = [Fraction(v) for v in (b_ub or [])]
    A_eq = [[Fraction(v) for v in row] for row in (A_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    n = len(c)
    m1, m2 = len(A_ub), len(A_eq)
    if any(len(r) != n for r in A_ub + A_eq):
        raise ValueError("constraint row length does not match len(c)")

    base_cols = n + m1
    raw = []
    for i in range(m1):
        row = A_ub[i] + [Fraction(0)] * m1
        row[n + i] = Fraction(1)
        raw.append((row, b_ub[i]))
    for i in range(m2):
        raw.append((A_eq[i] + [Fraction(0)] * m1, b_eq[i]))
    raw = [([-v for v in row], -rhs) if rhs < 0 else (row, rhs) for row, rhs in raw]

    # initial basis: the slack where it survived sign normalization, else artificial
    basis = [-1] * (m1 + m2)
    art_rows = []
    for i, (row, _) in enumerate(raw):
        if i < m1 and row[n + i] == 1:
            basis[i] = n + i
        else:
            art_rows.append(i)

    ncols = base_cols + len(art_rows)
    rows = [row + [Fraction(0)] * len(art_rows) + [rhs] for row, rhs in raw]
    for j, i in enumerate(art_rows):
        rows[i][base_cols + j] = Fraction(1)
        basis[i] = base_cols + j
    rows = [_int_row(row) for row in rows]

    if art_rows:
        phase1 = [Fraction(0)] * base_cols + [Fraction(1)] * len(art_rows)
        status, zrow = _optimize(rows, basis, phase1, ncols)
        if zrow[-1] < 0:
            return LPResult("infeasible", None, None)
        # drive leftover zero-value artificials out of the basis
        for i in range(len(rows)):
            if basis[i] >= base_cols:
                pivot_col = next(
                    (j for j in range(base_cols) if rows[i][j] != 0), None
                )
                if pivot_col is None:
                    continue  # redundant row; dropped below
                _pivot(rows, basis, i, pivot_col)
        # drop redundant rows still pinned to an artificial, excise artificial columns
        keep = [i for i in range(len(rows)) if basis[i] < base_cols]
        rows = [_reduce(rows[i][:base_cols] + rows[i][-1:]) for i in keep]
        basis = [basis[i] for i in keep]
        ncols = base_cols

    cost = c + [Fraction(0)] * (ncols - n)
    status, _ = _optimize(rows, basis, cost, ncols)
    if status == "unbounded":
        return LPResult("unbounded", None, None)

    x_full = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            x_full[b] = Fraction(rows[i][-1], rows[i][b])
    x = tuple(x_full[:n])
    objective = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult("optimal", x, objective)
