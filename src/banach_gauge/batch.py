"""Batched norm engines: ``tsirelson``'s compiled plans run on numpy columns.

The interval DP's ``_interval_plan`` and the modified rules
(``_modified_rules``) read the index labels alone, so many vectors on the
same labels share one plan, run on the columns of a (labels, rows) table:
``_run_plan`` and ``_run_modified_plan``, in float64 for
``tsirelson_norm_batch`` and ``modified_norm_batch``, and exactly on integer
columns (int64 when an up-front bound allows, else Python ints) for
``tsirelson_norm_batch_exact`` and ``modified_norm_batch_exact``.  ``_batch``
is their one runner.  The modified plan is compiled here (``_modified_plan``),
since only the batches read it.

Of the norm engines, only these import numpy: ``tsirelson``'s single-vector
engines run on Python ints, so the commands that use only them (``norm``,
``flat-search``, ``cotype-cert``) never load it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .errors import DomainError, SupportTooLarge
from .tsirelson import (
    MAX_DP_SUPPORT,
    MAX_MODIFIED_SUPPORT,
    _chain_rows,
    _interval_plan,
    _modified_rules,
)


# --------------------------------------------------------------------------
# Batched evaluation: float64 columns, or exact integer columns
# --------------------------------------------------------------------------

#: Cells per table in one chunk of rows (2 MiB of float64): rows are
#: evaluated in chunks of ``_BATCH_CELLS // cells per row``, so memory stays
#: bounded whatever the batch size.
_BATCH_CELLS = 1 << 18

#: Exact batches run in int64 when an up-front bound keeps every value of the
#: recursion below this, and on Python ints (dtype=object) otherwise.
INT64_BOUND = 1 << 62


def exact_dtype(bound: int):
    """Dtype of integer columns whose values all stay below ``bound``:
    int64 when ``bound`` is below ``INT64_BOUND``, Python ints (object)
    otherwise.  The choice is made up front, not on overflow."""
    return np.int64 if bound < INT64_BOUND else object


def _run_plan(plan: tuple, wt: np.ndarray) -> np.ndarray:
    """Norms of the columns of ``wt`` (shape (s, rows)) by a compiled plan.

    float64 columns halve by ``0.5 *``; integer columns (int64 or object)
    by ``// 2``, which is exact on columns from ``_exact_columns``.
    """
    exact = wt.dtype != np.float64
    s, r = wt.shape
    iv = np.zeros((s, s, r), dtype=wt.dtype)  # iv[i, j]: norms of positions [i, j]
    for j, t_max, steps in plan:
        iv[j, j] = wt[j]
        # val[t, i]: best cover of [i, j], <= t blocks
        val = np.zeros((t_max + 1, j + 1, r), dtype=wt.dtype)
        val[:, j] = wt[j]
        leaf, g_best = wt[j], None
        for i, b, k in steps:
            leaf = top = np.maximum(leaf, wt[i])
            if b is not None:
                row = iv[i, i:j]
                cover = (row + val[b, i + 1:]).max(axis=0)
                g_best = cover if g_best is None else np.maximum(g_best, cover)
            if g_best is not None:
                top = np.maximum(leaf, g_best // 2 if exact else 0.5 * g_best)
            iv[i, j] = top
            if k:
                unb = cover if b == 0 else (row + val[0, i + 1:]).max(axis=0)
                for t, src in enumerate(_chain_rows(j - i + 1)[:k]):
                    if src is None:
                        val[t, i] = top
                    else:
                        cov = unb if src == 0 else (row + val[src, i + 1:]).max(axis=0)
                        np.maximum(cov, top, out=val[t, i])
    return iv[0, s - 1]


def _batch_rows(weights, indices: Sequence[int], cap: int, engine: str,
                exact: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """Checked (rows, s) weights and their s index labels.

    Float batches take anything numpy reads as float64; exact ones an
    integer array, or an object array of Python ints.
    """
    s = len(indices)
    if s > cap:
        raise SupportTooLarge(f"support {s} exceeds {engine} cap {cap}")
    sup = tuple(int(j) for j in indices)
    if (sup and sup[0] < 1) or any(a >= b for a, b in zip(sup, sup[1:])):
        raise DomainError("index labels must be strictly increasing positive integers")
    w = np.asarray(weights) if exact else np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != s:
        raise DomainError(f"weights of shape {w.shape} do not match {s} index labels")
    if exact and not (w.dtype.kind in "iu" or w.size == 0 or (
            w.dtype == object and all(type(v) is int for v in w.flat))):
        raise DomainError("exact weights must be integers")
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    return w, sup


def _exact_columns(w: np.ndarray, s: int) -> tuple[np.ndarray, int]:
    """Integer weights times 2^(s-1), and that scale.

    Every value of either recursion is a max over sums of w * 2^-depth with
    depth < s, so on the scaled weights all values are ints, and the parts
    of a split (each on fewer labels than their union) are all even: ``// 2``
    is exact.  Every value is at most its row's sum, so at most
    s * max(w) * scale, and ``exact_dtype`` of that bound is the columns' dtype.
    """
    scale = 1 << max(0, s - 1)
    top = int(w.max()) if w.size else 0
    return w.astype(exact_dtype(scale * max(top * s, 1))) * scale, scale


# --------------------------------------------------------------------------
# Modified norms in batches: the compiled bitmask plan
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _modified_plan(sup: tuple[int, ...]) -> tuple:
    """``modified_norm``'s state graph for index labels ``sup``, compiled
    into levels of one value table.

    ``_modified_rules`` hands over the recursion's states with table slots
    as handles: the states and the terms each maxes over depend only on the
    labels, and here the states are only numbered.  Slot 0 of the table
    holds 0, slots 1..s the weights, and every other slot one state: the max
    over its terms of table[a] + table[b] (a partition: a block's norm plus
    the rest; a subset's sum or max; a norm: its max or the half of a
    partition, plus 0), or the half of a slot that some norm reads.  Slots
    are numbered by dependency level, so each level is one gather, one add
    and one ``np.maximum.reduceat`` into a contiguous block, after which its
    halves are written.  Returns (slots, cells per row, root slot, levels),
    each level (lo, a, b, starts, halves).  At s = 12 from label 1 a plan
    holds ~16k slots and ~196k terms in 3.1 MiB (22 levels).
    """
    s = len(sup)
    level = [0] * (s + 1)
    terms: list = [None] * (s + 1)  # a node's (a, b) list, or a half's source slot
    half_of: dict[int, int] = {}

    def node(ts: list) -> int:
        level.append(1 + max(max(level[a], level[b]) for a, b in ts))
        terms.append(ts)
        return len(level) - 1

    def half(slot: int) -> int:
        if slot not in half_of:
            level.append(level[slot])
            terms.append(slot)
            half_of[slot] = len(level) - 1
        return half_of[slot]

    root = _modified_rules(sup, lambda p: 1 + p, half, node)
    # number the states by level, a level's nodes before its halves
    order = sorted(range(s + 1, len(level)),
                   key=lambda k: (level[k], isinstance(terms[k], int)))
    new = list(range(len(level)))
    for k, old in enumerate(order, start=s + 1):
        new[old] = k
    levels, cells = [], len(level)
    for _, group in itertools.groupby(order, key=level.__getitem__):
        group = list(group)
        nodes = [terms[k] for k in group if not isinstance(terms[k], int)]
        pairs = [(new[a], new[b]) for ts in nodes for a, b in ts]
        a, b = np.array(pairs, dtype=np.intp).T
        starts = np.cumsum([0] + [len(ts) for ts in nodes[:-1]])
        halves = np.array([new[terms[k]] for k in group if isinstance(terms[k], int)],
                          dtype=np.intp)
        levels.append((new[group[0]], a, b, starts, halves))
        cells = max(cells, len(pairs))
    return len(level), cells, new[root], tuple(levels)


def _run_modified_plan(plan: tuple, wt: np.ndarray) -> np.ndarray:
    """Modified norms of the columns of ``wt`` (shape (s, rows)) by a
    compiled plan; halving as in ``_run_plan``."""
    slots, _, root, levels = plan
    s, r = wt.shape
    exact = wt.dtype != np.float64
    val = np.empty((slots, r), dtype=wt.dtype)
    val[0] = 0
    val[1:s + 1] = wt
    for lo, a, b, starts, halves in levels:
        hi = lo + len(starts)
        val[lo:hi] = np.maximum.reduceat(val[a] + val[b], starts, axis=0)
        if len(halves):
            h = val[halves]
            val[hi:hi + len(halves)] = h // 2 if exact else 0.5 * h
    return val[root]


# --------------------------------------------------------------------------
# The batch engines: one runner
# --------------------------------------------------------------------------

def _batch(weights, indices: Sequence[int], interval: bool, exact: bool) -> tuple:
    """(values, scale) of a batch of the interval DP (``interval``) or of
    the modified norm: the one runner of the four batch engines.

    It checks the rows (``_batch_rows``), scales exact ones to integer
    columns of their own width (``_exact_columns``), and runs the labels'
    cached plan in chunks of rows (``_BATCH_CELLS``).  Float values come
    back as a float64 array over scale 1, exact ones as Python ints.
    """
    cap = MAX_DP_SUPPORT if interval else MAX_MODIFIED_SUPPORT
    engine = "interval-DP" if interval else "modified-norm"
    w, sup = _batch_rows(weights, indices, cap, engine, exact)
    wt, scale = _exact_columns(w, len(sup)) if exact else (w, 1)
    out = np.zeros(len(w), dtype=wt.dtype)
    if sup:
        plan = _interval_plan(sup) if interval else _modified_plan(sup)
        run = _run_plan if interval else _run_modified_plan
        chunk = max(1, _BATCH_CELLS // (len(sup) ** 2 if interval else plan[1]))
        for lo in range(0, len(w), chunk):
            out[lo:lo + chunk] = run(plan, np.ascontiguousarray(wt[lo:lo + chunk].T))
    return (out.tolist() if exact else out), scale


def tsirelson_norm_batch(weights, indices: Sequence[int]) -> np.ndarray:
    """Float ||x||_T of many vectors at once.

    ``weights`` has shape (rows, s) and holds |x| on the index labels
    ``indices`` (s strictly increasing positive ints, shared by all rows).
    It runs the labels' cached ``_interval_plan`` on float64 columns of the
    batch with max, + and halving, in chunks of rows.  Every DP value is a max over
    sums of w * 2^-depth and halving is exact, so each result is within a
    few ulps of the exact norm.  A zero weight is harmless: a block may hold
    zeros, and a block starting at a zero only has a smaller threshold.

    Labels above ``MAX_DP_SUPPORT`` in number raise SupportTooLarge before
    any table is allocated.
    """
    return _batch(weights, indices, interval=True, exact=False)[0]


def tsirelson_norm_batch_exact(weights, indices: Sequence[int]) -> tuple[list[int], int]:
    """Exact ||x||_T of many vectors with integer entries, as integer
    numerators over one denominator.

    Same batch layout as ``tsirelson_norm_batch``, but the weights are
    nonnegative integers and the plan runs on ``_exact_columns``: int64 when
    its bound allows, Python ints otherwise.  Row r's norm is
    ``Fraction(nums[r], scale)``, equal to ``tsirelson_norm(x_r).value``.
    """
    return _batch(weights, indices, interval=True, exact=True)


def modified_norm_batch(weights, indices: Sequence[int]) -> np.ndarray:
    """Float ``modified_norm`` of many vectors at once.

    Batch layout as in ``tsirelson_norm_batch``, with at most
    ``MAX_MODIFIED_SUPPORT`` labels.  Runs the labels' cached
    ``_modified_plan`` on float64 columns in chunks of rows, so each result
    is within a few ulps of the exact value and does not depend on the batch
    it came in.  Zero weights are harmless, as for T.
    """
    return _batch(weights, indices, interval=False, exact=False)[0]


def modified_norm_batch_exact(weights, indices: Sequence[int]) -> tuple[list[int], int]:
    """Exact ``modified_norm`` of many vectors with integer entries, as
    integer numerators over one denominator, like
    ``tsirelson_norm_batch_exact``: the compiled plan on ``_exact_columns``.
    """
    return _batch(weights, indices, interval=False, exact=True)
