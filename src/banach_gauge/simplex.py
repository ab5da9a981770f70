"""Exact simplex for the flat-vector master LP, in integer arithmetic.

Given cuts lambda_1..lambda_m (nonnegative rational functionals on [1, N]),
the master LP is

    minimize t  subject to  <lambda_k, x> - t <= 0  (k = 1..m),
                            sum_{j>=3} x_j = 1,  x >= 0,  t >= 0.

The tableau's columns are [rhs, x_1..x_N, t, art, s_1..s_m]: row 0 is the
tail row with the artificial basic in it, row k is cut k with its slack s_k
basic.  A row shorter than the tableau reads as zero-padded, so appending a
cut never re-lays out an old row.  Phase 1 drives the artificial to zero,
phase 2 minimizes t; the artificial's column stays and never enters.

Small and deliberately boring: Bland's rule everywhere (no cycling), in the
order x, t, s_1..s_m, art.  Each tableau row is a list of Python ints, a
positive integer multiple of the true rational row whose scale is the row's
entry in its basic column.  A pivot builds ``piv*row_i - row_i[enter]*
row_leave`` and divides out the row's gcd (fraction-free elimination in the
style of Bareiss, 1968).  Positive scaling keeps every sign and every ratio,
so the entering column (first negative reduced cost), the ratio test
(compared by cross-multiplying) and its tie-break on the basis pick exactly
the pivots a ``Fraction`` tableau would.  The artificial's place in the
order is never read: it never enters, and while it is basic its row has a
positive rhs and every other row rhs 0, so it never ties in a ratio test.

**Replay.**  A cutting-plane round adds one cut to the last round's LP: one
row, and one slack column that is zero in every old row.  Solved from
scratch, the new LP follows the old Bland path step for step until the
first step whose ratio test the new row wins (a strictly smaller ratio, or
a tie in which its slack ranks before the leaving variable).  Until then the
new slack stays a unit column with zero reduced cost, so no entering choice
changes, and old rows are eliminated only by old pivot rows, so no old row
changes either.  ``solve_lp`` therefore keeps the path it took (the tableau
before each pivot, with the pivot) and the next call pushes only the new
rows through it, one elimination per step, then resumes the Bland loop from
the first step the new rows change.  Every pivot, and so the returned vertex,
is the one-shot solve's; when no new row ever wins, the old optimum stands.
Rows are never mutated in place, so a recorded step holds references, and
the objective row, a function of the basis, is recomputed, not recorded.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _reduce(row):
    g = math.gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _sparse(prow):
    return [(j, p) for j, p in enumerate(prow) if p]


def _eliminate(row, prow, col, nonzero):
    """Clear row[col] with the pivot row prow, whose entry prow[col] is > 0
    and whose nonzero entries are ``nonzero``; prow may be shorter than row
    (zero-padded)."""
    piv, f = prow[col], row[col]
    out = [piv * v for v in row]
    for j, p in nonzero:
        out[j] -= f * p
    return _reduce(out)


def _objective(rows, basis, col):
    """The reduced costs of minimizing column col, as an integer row: the
    primitive positive multiple, so it depends on the basis alone."""
    zrow = [0] * len(rows[0])
    zrow[col] = 1
    for row, b in zip(rows, basis):
        if zrow[b]:
            zrow = _eliminate(zrow, row, b, _sparse(row))
    return zrow


def _leaving_row(rows, basis, enter):
    """Bland's ratio test: the row with the least rhs/row[enter] over
    row[enter] > 0, ties to the lowest basic column."""
    leave = -1
    for i, row in enumerate(rows):
        a = row[enter]
        if a > 0:
            if leave < 0:
                leave = i
                continue
            lhs, rhs = row[0] * rows[leave][enter], rows[leave][0] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
    return leave


def _pivot(rows, basis, leave, enter):
    """The tableau after column enter becomes basic in row leave."""
    prow = rows[leave]
    nonzero = _sparse(prow)
    rows = [row if i == leave or not row[enter] else _eliminate(row, prow, enter, nonzero)
            for i, row in enumerate(rows)]
    basis = basis.copy()
    basis[leave] = enter
    return rows, basis


def _bland(rows, basis, art, path):
    """Bland-rule pivots from a feasible tableau to the phase-2 optimum,
    appending (rows, basis, enter, leave) before each pivot and
    (rows, basis, 0, 0) at the optimum, which it returns with its objective
    row.  Phase 1 minimizes the artificial while it is basic (in row 0),
    phase 2 minimizes t; both columns are >= 0, so every entering column has
    a leaving row, and phase 1 ends with the artificial nonbasic."""
    while True:
        zrow = _objective(rows, basis, art if basis[0] == art else art - 1)
        enter = next((j for j in range(1, len(zrow)) if zrow[j] < 0 and j != art), 0)
        if not enter:
            path.append((rows, basis, 0, 0))
            return rows, basis, zrow
        leave = _leaving_row(rows, basis, enter)
        assert leave >= 0, "the master LP is bounded: t >= 0"
        path.append((rows, basis, enter, leave))
        rows, basis = _pivot(rows, basis, leave, enter)


def _cut_row(lam, N, slack):
    """lambda.x - t + s = 0, scaled to integers, with its slack in column slack."""
    scale = math.lcm(*(v.denominator for _, v in lam.items()))
    row = [0] * (slack + 1)
    for j, v in lam.items():
        row[j] = v.numerator * (scale // v.denominator)
    row[N + 1], row[slack] = -scale, scale
    return _reduce(row)


def solve_lp(cuts, N: int,
             path: list | None = None) -> tuple[tuple[Fraction, ...], Fraction, list[int]]:
    """Optimal (x_1..x_N, t) of the master LP over the ``FinVec`` list
    ``cuts``, with the entries of the final objective row in the slack
    columns, one per cut: they are >= 0, and normalized to sum 1 they are
    the optimal dual weights mu_k of the cuts.

    ``path`` is empty, or the path a call left there whose cuts were a
    prefix of ``cuts``: it is replayed for the cuts added since, and
    overwritten with this solve's path.  Without it the solve is one-shot,
    the replay of the empty LP.  The LP is always feasible and bounded
    (t >= 0 on x >= 0), so phase 1 ends with the artificial at zero and
    phase 2 at an optimum.
    """
    art = N + 2
    if path:
        steps = path
    else:  # the LP with no cuts, not yet solved: every cut is new
        steps = [([[1, 0, 0] + [1] * (N - 2) + [0, 1]], [art], 0, 0)]
    known = len(steps[0][0]) - 1  # cuts the recorded path already holds
    new = [_cut_row(lam, N, art + k) for k, lam in enumerate(cuts[known:], start=known + 1)]
    new_basis = list(range(art + known + 1, art + len(cuts) + 1))
    replayed = []
    for rows, basis, enter, leave in steps:
        if not enter or _leaving_row([rows[leave], *new], [basis[leave], *new_basis], enter):
            break
        replayed.append((rows + new, basis + new_basis, enter, leave))
        prow = rows[leave]
        new = [_eliminate(row, prow, enter, _sparse(prow)) if row[enter] else row for row in new]
    width = art + len(cuts) + 1
    rows, basis, zrow = _bland([row + [0] * (width - len(row)) for row in rows + new],
                               basis + new_basis, art, replayed)
    if path is not None:
        path[:] = replayed
    x_full = [Fraction(0)] * (art - 1)
    for row, b in zip(rows, basis):
        if b < art:
            x_full[b - 1] = Fraction(row[0], row[b])
    return tuple(x_full[:N]), x_full[N], zrow[art + 1:]
