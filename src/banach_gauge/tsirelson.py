"""Exact evaluation of the Tsirelson-type norms with verifiable certificates.

The base norm ``T`` is the fixed point of the recursion

    ||x|| = max( max_j |x_j|,
                 1/2 * sup { sum_j ||P_{A_j} x|| } )

where the sup ranges over finite families A_1 < A_2 < ... < A_n of finite
index sets with n < min A_1 (writing A < B for max A < min B).  Splits with
fewer than two nonempty parts can never attain the max (they contribute at
most half the norm of a restriction), so skipping them makes the recursion
terminate and this module computes the fixed point directly.

Three statements of rules live here: the interval DP, the all-subsets
oracle, and the modified recursion.

* ``tsirelson_norm`` -- a dynamic program over ranges of support positions,
  filled bottom-up in one table (no Python recursion, support capped at
  ``MAX_DP_SUPPORT``).  Fattening each A_j to an interval can only increase
  its term while preserving admissibility (the norm is 1-unconditional and
  monotone under restriction), so intervals suffice; the reduction is
  cross-checked against the all-subsets oracle rather than assumed.  The
  fill depends only on the index labels, so its rules are compiled once per
  label tuple into a cached plan (``_interval_plan``).  ``tsirelson_norm``
  runs the plan on Python ints and records argmax tables for the
  certificate; ``batch`` runs it on numpy columns of many vectors.  Covers
  whose budget cannot bind are l1 sums, which the exact run reads off a
  running sum; ``batch`` keeps their float max, which a float sum may miss.
* ``_all_subsets`` -- ``tsirelson_norm_bruteforce``, a memoized recursion
  on support bitmasks over successive parts of arbitrary finite sets,
  deliberately independent of the interval argument.  What may follow a
  part depends only on its top element m, so one term per m reads the best
  norm over every part with top m (memoized per segment of the mask).
  That regroups the same max over every subset; neither monotonicity nor
  intervals are assumed.  Norms and bests are lists indexed by mask, and
  family states int keys of one dict: at 12 labels a call takes 10-14 ms
  and 0.47 MiB (Python 3.11 on one core of a shared 2-core Xeon).
* ``_modified_rules`` -- the modified norm, with up to (n+1)^n disjoint
  blocks inside [n, oo), left endpoint included, where disjoint arbitrary
  sets defeat the interval DP.  The norm is 1-unconditional, so splitting
  a block never lowers a family's sum: a threshold whose budget covers its
  tail gives half the tail's sum, and only the thresholds where the budget
  binds are searched, n = 1 (2 blocks) and n = 2 (9 blocks, with >= 10
  labels >= 2).  The rules read the labels alone, so they are evaluated
  two ways through callbacks: on values in ``modified_norm``, and on table
  slots in ``batch._modified_plan``, which compiles them into a plan for
  numpy columns.

Both exhaustive engines are capped, and one vector compiles nothing.  This
module imports no numpy; the batched engines live in ``batch``.

A ``NormCertificate`` is one unfolding of the recursion's sup: a tree whose
leaves name coordinates and whose splits record the family intervals.  Its
value (leaf -> |x_j|, split -> half the sum of the children) is a certified
lower bound for ||x||_T of *any* vector, which is what makes certificates
usable as cutting planes (see ``norming_functional``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import MalformedCertificate, SupportTooLarge
from .seqvec import FinVec, Rat, abs_square, float_sqrt


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    """Terminal node: pick coordinate ``index``."""

    index: int


@dataclass(frozen=True)
class Part:
    """One member of a split family: the index interval [lo, hi] and its subtree."""

    lo: int
    hi: int
    child: "CertNode"


@dataclass(frozen=True)
class Split:
    """An admissible family with threshold n: intervals above n, at most n of them."""

    n: int
    parts: tuple[Part, ...]


CertNode = Union[Leaf, Split]


@dataclass(frozen=True)
class NormCertificate:
    """A certificate tree together with the value it claims."""

    root: CertNode
    value: Rat


@dataclass(frozen=True)
class EvalStats:
    memo_entries: int
    expansions: int


@dataclass(frozen=True)
class NormResult:
    value: Rat
    certificate: NormCertificate
    stats: EvalStats


def _leaves(node: CertNode, ancestors: tuple[tuple[int, int], ...] = ()) -> Iterator[tuple[int, Rat]]:
    """The one walk of a certificate: check each node, parents before their
    children, and yield (index, 2^-depth) at each leaf in tree order.

    Sibling intervals are disjoint and every leaf lies in all its ancestors'
    intervals, so a tree that passes the checks has distinct leaves.
    """
    if isinstance(node, Leaf):
        if not isinstance(node.index, int) or node.index < 1:
            raise MalformedCertificate(f"leaf index {node.index!r} must be a positive integer")
        for lo, hi in ancestors:
            if not lo <= node.index <= hi:
                raise MalformedCertificate(
                    f"leaf index {node.index} escapes ancestor interval [{lo}, {hi}]"
                )
        yield node.index, Fraction(1, 2 ** len(ancestors))
        return
    if isinstance(node, Split):
        if not isinstance(node.n, int) or node.n < 1:
            raise MalformedCertificate(f"split threshold {node.n!r} must be a positive integer")
        if not node.parts:
            raise MalformedCertificate("split with no parts")
        if len(node.parts) > node.n:
            raise MalformedCertificate(
                f"split has {len(node.parts)} parts but threshold n={node.n} allows at most n"
            )
        prev_hi = node.n  # enforces min of first interval > n
        for part in node.parts:
            if part.lo > part.hi:
                raise MalformedCertificate(f"empty interval [{part.lo}, {part.hi}]")
            if part.lo <= prev_hi:
                raise MalformedCertificate(
                    f"interval [{part.lo}, {part.hi}] not strictly above {prev_hi}"
                )
            prev_hi = part.hi
        for part in node.parts:
            yield from _leaves(part.child, ancestors + ((part.lo, part.hi),))
        return
    raise MalformedCertificate(f"unknown certificate node {node!r}")


def norming_functional(cert: NormCertificate | CertNode) -> FinVec:
    """Linearize a certificate: coefficient 2^(-depth) at each leaf index.

    Raises MalformedCertificate if any structural invariant fails.  The
    result lam gives ``certificate_value(cert, z)`` = sum_j lam_j * |z_j|,
    hence <lam, |z|> <= ||z||_T for every z: a reusable dual certificate.
    """
    return FinVec(_leaves(cert.root if isinstance(cert, NormCertificate) else cert))


def certificate_value(cert: NormCertificate | CertNode, x: FinVec) -> Rat:
    """Evaluate a certificate tree on ``x`` after checking its structure:
    sum_j lam_j * |x_j| for lam its ``norming_functional``, which equals the
    tree's sum of leaves halved once per split above them.

    Raises MalformedCertificate if any structural invariant fails.  For a
    well-formed tree the returned value is a lower bound for ||x||_T.
    """
    return sum((c * abs(x[j]) for j, c in norming_functional(cert).items()), Fraction(0))


def validate_certificate(cert: NormCertificate, x: FinVec) -> bool:
    """True iff the tree is well formed, reproduces the claimed value on ``x``,
    and does not exceed the true norm."""
    try:
        val = certificate_value(cert, x)
    except MalformedCertificate:
        return False
    return val == cert.value and val <= tsirelson_norm(x).value


# -- certificate JSON: {"leaf": 5} / {"split": {"n":, "parts":[{"lo","hi","child"}]}}

def _node_to_json(node: CertNode) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.index}
    return {
        "split": {
            "n": node.n,
            "parts": [
                {"lo": p.lo, "hi": p.hi, "child": _node_to_json(p.child)} for p in node.parts
            ],
        }
    }


def _node_from_json(obj: dict) -> CertNode:
    if "leaf" in obj:
        return Leaf(int(obj["leaf"]))
    if "split" in obj:
        sp = obj["split"]
        parts = tuple(
            Part(int(p["lo"]), int(p["hi"]), _node_from_json(p["child"])) for p in sp["parts"]
        )
        return Split(int(sp["n"]), parts)
    raise MalformedCertificate(f"unrecognized certificate node {obj!r}")


def certificate_to_json(cert: NormCertificate) -> dict:
    return {"value": str(cert.value), "tree": _node_to_json(cert.root)}


def certificate_from_json(obj: dict) -> NormCertificate:
    return NormCertificate(_node_from_json(obj["tree"]), Fraction(str(obj["value"])))


# --------------------------------------------------------------------------
# Shared integer scaling
# --------------------------------------------------------------------------

def _scaled_weights(x: FinVec, cap: int, engine: str) -> tuple[tuple[int, ...], list[int], int]:
    """Support, |entries| scaled to ints, and the scale factor: the one gate
    of every single-vector engine, which refuses a support above ``cap``
    with SupportTooLarge before any scaling, plan or table.

    Scale = lcm of entry denominators * 2^(s-1): every value of the norm
    recursion has halving depth < s, so all scaled values are integers and
    every scaled part value inside a split is even (parts are strictly
    smaller, so they carry at least one spare factor of 2).
    """
    if len(x) > cap:
        raise SupportTooLarge(f"support {len(x)} exceeds {engine} cap {cap}")
    scale = math.lcm(*(v.denominator for _, v in x.items())) << max(0, len(x) - 1)
    return x.support(), [abs(v.numerator) * (scale // v.denominator) for _, v in x.items()], scale


# --------------------------------------------------------------------------
# Interval dynamic program: the plan, and its exact evaluation
# --------------------------------------------------------------------------

#: Largest support the interval DP accepts.  At this size one call takes ~4 s
#: from index 1 and ~8.5 s at worst (from near index s/2, where most budgets
#: bind), with 12-20 MiB of tables (Python 3.11, shared 2-core Xeon).
MAX_DP_SUPPORT = 200


@functools.lru_cache(maxsize=256)
def _interval_plan(sup: tuple[int, ...]) -> tuple:
    """The table fill of the interval DP for index labels ``sup``, as data:
    the one statement of the DP rules, read by ``tsirelson_norm`` and
    ``_run_plan``.

    Ranges [i, j] of support positions are filled j ascending, i descending.
    A range's value is the max of its best coordinate and half the best
    cover of [p, j] by 2..b+1 successive blocks over first-block starts
    p >= i with sup[p] >= 3; b = sup[p]-2 is the part budget of the largest
    admissible threshold n = sup[p]-1.  The cover does not depend on i, so
    the max over p is a running suffix max.  Covers of [i, j] by at most t
    blocks ("chains") are kept per column only for unbounded t and for
    t <= t_max, the largest budget that binds (b < j-p) in the column.  Past
    index s no budget binds and every cover is an l1 sum: O(s^2) exactly,
    O(s^3) in floats; binding budgets add a factor up to s.

    One entry (j, t_max, steps) per column filled (a column labelled below 3
    is only read by the root range).  ``steps`` runs i = j-1 down to 0, each
    (i, b, k): b is the chain row a first block at i reads (0 is unbounded,
    None if no block starts at i), and k the number of chain budgets kept
    at i, with rows ``_chain_rows(j-i+1)[:k]`` (a chain follows a first
    block, so at most sup[i]-3 blocks).  A plan at s = 200 holds ~1.4 MiB.
    """
    s = len(sup)
    plan, q, t_max = [], 0, 0
    for j in range(s):
        # sup[p] + p increases with p, so the starts p < j whose budget binds
        # (sup[p] - 2 < j - p) are a prefix, and t_max is its last budget
        while q < j and sup[q] + q < j + 2:
            t_max = sup[q] - 2 if sup[q] >= 3 else t_max
            q += 1
        if sup[j] < 3 and j < s - 1:
            continue
        plan.append((j, t_max, tuple(
            (i, (sup[i] - 2 if sup[i] - 2 < j - i else 0) if sup[i] >= 3 else None,
             min(t_max + 1, sup[i] - 2) if sup[i] >= 4 else 0)
            for i in range(j - 1, -1, -1))))
    return tuple(plan)


@functools.lru_cache(maxsize=None)
def _chain_rows(n: int) -> tuple:
    """Row each budget-t chain of an n-position range reads: a first block,
    then the budget t-1 chain; row 0 (unbounded) for t = 0 and t >= n, where
    the budget cannot bind; None for t = 1, the range's own value."""
    return tuple(0 if t == 0 or t >= n else None if t == 1 else t - 1
                 for t in range(MAX_DP_SUPPORT))


def tsirelson_norm(x: FinVec) -> NormResult:
    """Exact ||x||_T with a certificate attaining it.

    Runs the support's cached ``_interval_plan`` on Python ints and reads
    the certificate off argmax tables: each range's first block with the
    chain row its rest was read from, and each chain cell's first-block end.
    Ties keep the leaf, then the smallest start, then the smallest end; the
    tests pin the trees this order picks.  An unbounded cover is its range's
    l1 sum, first attained by singletons (no block beats its l1 sum; weights
    are positive); other covers pair ``iv[i]`` with a chain row in place.

    ``stats.expansions`` counts the ranges evaluated (s(s+1)/2 once the
    support starts at index 3) and ``stats.memo_entries`` the chain cells
    stored.  Supports above ``MAX_DP_SUPPORT`` raise SupportTooLarge before
    the plan is built or any table is allocated.
    """
    sup, w, scale = _scaled_weights(x, MAX_DP_SUPPORT, "interval-DP")
    s = len(sup)
    if s == 0:
        return NormResult(Fraction(0), NormCertificate(Leaf(1), Fraction(0)), EvalStats(0, 0))

    plan = _interval_plan(sup)
    iv = [[0] * (plan[0][0] - i) for i in range(plan[0][0])]  # iv[i][k - i]: norm of [i, k]
    cut: list = [None] * s  # [j][i]: first block and chain row of [i, j], None for a leaf
    chain_end: list = [None] * s  # [j][t][j - i]: first block's end, -1 if one block
    cells = ranges = 0
    for j, t_max, steps in plan:
        ranges += j + 1
        iv.append([w[j]])
        cut[j] = cut_j = [None] * (j + 1)
        # val[t][j - i]: best cover of [i, j] by <= t blocks (0: unbounded), read reversed
        val = [[w[j]] for _ in range(t_max + 1)] if t_max else [[w[j]]]
        chain_end[j] = end = [[-1] for _ in range(t_max + 1)] if t_max else [[-1]]
        leaf, g_best, g_cut, ell = j, -1, None, w[j]
        for i, b, k in steps:
            ell += w[i]  # the l1 sum of [i, j]
            leaf = i if w[i] >= w[leaf] else leaf
            row = iv[i]
            if b:
                sums = list(map(operator.add, row, reversed(val[b])))
                g = max(sums)
                if g >= g_best:
                    g_best, g_cut = g, (i, i + sums.index(g), b)
            elif b == 0:  # the l1 sum, above every cover from a later start
                g_best, g_cut = ell, (i, i, 0)
            top = w[leaf]
            if g_best // 2 > top:
                top, cut_j[i] = g_best // 2, g_cut
            if k:
                rows = _chain_rows(j - i + 1)
                for t in range(k - 1, -1, -1):  # descending: row t - 1 does not hold i yet
                    src = rows[t]
                    if src:
                        sums = list(map(operator.add, row, reversed(val[src])))
                        lv = max(sums)
                        lv, lc = (lv, i + sums.index(lv)) if lv > top else (top, -1)
                    else:  # one block (None), or the l1 sum, which tops the range's value
                        lv, lc = (top, -1) if src is None else (ell, i)
                    val[t].append(lv)
                    end[t].append(lc)
                cells += k
            row.append(top)

    def node(i: int, j: int) -> CertNode:
        if cut[j][i] is None:
            return Leaf(sup[max(range(i, j + 1), key=w.__getitem__)])
        p, c, t = cut[j][i]
        blocks = [(p, c)]
        while c >= 0:
            a, c = c + 1, chain_end[j][t][j - c - 1]
            blocks.append((a, j if c < 0 else c))
            t = _chain_rows(j - a + 1)[t]
        return Split(sup[p] - 1, tuple(Part(sup[a], sup[b], node(a, b)) for a, b in blocks))

    root = node(0, s - 1)
    del node  # empty its cell: the tables go by refcount, not at a gc pass
    value = Fraction(iv[0][-1], scale)
    return NormResult(value, NormCertificate(root, value), EvalStats(cells, ranges))


# --------------------------------------------------------------------------
# Exhaustive bitmask recursions: the all-subsets oracle and the modified norm
# --------------------------------------------------------------------------

#: Support caps of ``modified_norm`` (and of its batches) and of
#: ``tsirelson_norm_bruteforce``.
MAX_MODIFIED_SUPPORT = 12
MAX_BRUTE_SUPPORT = 12


def _all_subsets(sup: tuple[int, ...], w: list[int]) -> int:
    """The all-subsets recursion on bitmasks of the positions of the labels
    ``sup``, on the scaled weights ``w``; returns the full mask's norm.

    A norm is the max of its weights and the halves of its best families of
    2 .. sup[p] - 1 successive parts above each start p.  A family state
    (mask, t, need) -- at most t parts, at least ``need`` -- is the max over
    a first part's norm plus the family of what remains.  That remainder is
    the family of mask ∩ (m, oo) for m the part's top element, so the parts
    are grouped by m: one term per m reads ``best`` of mask ∩ (-oo, m], the
    largest norm of a part of it that holds m, over every such part (plus
    the empty family when need is 0).  This is the max over all parts
    regrouped, not a bound.  Norms and bests are lists by mask, families a
    dict by the int (t << s | mask) << 2 | need; callers of ``family`` cap t
    at the labels of the mask and look up the memo themselves.
    """
    s = len(sup)
    norm_of: list = [None] * (1 << s)
    best_of: list = [None] * (1 << s)
    family_of: dict = {}

    def norm(mask: int) -> int:
        ps = [p for p in range(s) if mask >> p & 1]
        v = max([w[p] for p in ps])
        for p in ps:
            tail = mask >> p << p  # positions >= p
            c = tail.bit_count()
            t = c if c < sup[p] else sup[p] - 1
            if t >= 2:
                f = family_of.get((t << s | tail) << 2 | 2)
                f = _half(family(tail, t, 2) if f is None else f)
                v = f if f > v else v
        norm_of[mask] = v
        return v

    def best(seg: int) -> int:
        # a part of seg holding its top element is seg itself, or such a
        # part of seg without one of the other elements
        a = norm_of[seg]
        v = norm(seg) if a is None else a
        rest = seg ^ (1 << seg.bit_length() - 1)
        while rest:
            e = rest & -rest
            rest ^= e
            a = best_of[seg ^ e]
            a = best(seg ^ e) if a is None else a
            v = a if a > v else v
        best_of[seg] = v
        return v

    def family(mask: int, t: int, need: int) -> int:
        need2 = need - 1 if need else 0
        v, seg, tail = 0, 0, mask  # values are >= 0, so 0 stands in for the empty family
        while tail:
            top = tail & -tail
            seg |= top  # mask ∩ (-oo, top]
            tail ^= top  # mask ∩ (top, oo)
            if tail and t > 1:  # the memo lookup inline: most terms need no call
                c = tail.bit_count()
                c = c if c < t else t - 1
                b = family_of.get((c << s | tail) << 2 | need2)
                b = family(tail, c, need2) if b is None else b
            elif need2:  # no room for the part still needed
                continue
            else:
                b = 0
            a = best_of[seg]
            a = (best(seg) if a is None else a) + b
            v = a if a > v else v
        family_of[(t << s | mask) << 2 | need] = v
        return v

    root = norm((1 << s) - 1)
    del norm, best, family  # empty the closures' cells: the memo tables go by refcount
    return root


def _modified_rules(sup: tuple[int, ...], leaf, half, node):
    """The one statement of the modified recursion, on bitmasks of the
    positions of the labels ``sup``; returns the handle of the full mask.

    For disjoint A and B, f(A ∪ B) <= f(A) + f(B), so the best family of at
    most k blocks is a best partition into min(k, labels) blocks: where a
    threshold's budget covers its tail, the singletons, worth the tail's
    sum.  That sum bounds every later threshold's family, so a norm reads
    its thresholds in label order up to the first whose budget covers its
    tail.  The best
    partition into at most k blocks, ``part(mask, k)``, is the sum when k
    covers the mask, the norm when k = 1, and otherwise the max over the
    block holding the lowest label of its norm plus the best k - 1 blocks
    of the rest.  At n = 1 that is f(S) >= ½ max over nonempty B ⊆ S∖{1} of
    f(S∖B) + f(B): 3^(s-1) terms over the 2^(s-1) sets S holding label 1.

    If the first threshold binds, every subset's norm is evaluated, masks
    ascending, so each norm's subsets are plain lookups (from label 1 every
    subset is some family's block); otherwise the norm is
    max(‖x‖∞, ½‖x‖₁) and nothing else is evaluated.  ``leaf(p)`` is the
    handle of the weight at position p, ``half(h)`` of a handle's half and
    ``node(terms)`` of the max of a + b over terms (a, b); handle 0 is zero.
    """
    s = len(sup)
    norm_of: list = [None] * (1 << s)
    top_of: list = [None] * (1 << s)  # max of the weights
    sum_of: list = [None] * (1 << s)
    for p in range(s):
        norm_of[1 << p] = top_of[1 << p] = sum_of[1 << p] = leaf(p)
    part_of: dict = {}

    def table(of: list, mask: int):
        # the sum or the max of the entry without the lowest label and its weight
        low = mask & -mask
        a = of[mask ^ low]
        if a is None:
            a = table(of, mask ^ low)
        v = of[mask] = node([(a, of[low])] if of is sum_of else [(a, 0), (of[low], 0)])
        return v

    def part(mask: int, k: int):  # k >= 2
        if mask.bit_count() <= k:
            v = sum_of[mask]
            return table(sum_of, mask) if v is None else v
        v = part_of.get((mask, k))
        if v is None:
            # the labels the other blocks take: nonempty subsets of the rest
            outs = _submasks(mask ^ (mask & -mask))
            if k == 2:  # the rest is one block
                ts = [(norm_of[mask ^ o], norm_of[o]) for o in outs]
            else:
                ts = [(norm_of[mask ^ o], part(o, k - 1)) for o in outs if o.bit_count() >= k - 1]
            v = part_of[mask, k] = node(ts)
        return v

    def norm(mask: int):
        v = top_of[mask]
        ts = [(table(top_of, mask) if v is None else v, 0)]
        tail = mask
        while tail & (tail - 1):  # a family needs two labels
            low = tail & -tail
            n = sup[low.bit_length() - 1]
            k = (n + 1) ** n if n < 5 else s  # from n = 5 on, (n+1)^n exceeds any cap
            ts.append((half(part(tail, k)), 0))
            if k >= tail.bit_count():
                break
            tail ^= low
        v = norm_of[mask] = node(ts)
        return v

    full, n = (1 << s) - 1, sup[0]
    if n < 5 and (n + 1) ** n < s:  # the first threshold binds
        for mask in _submasks(full):
            if norm_of[mask] is None:
                norm(mask)
    elif s > 1:
        norm(full)
    root = norm_of[full]
    del table, part, norm  # empty the closures' cells: the memo tables go by refcount
    return root


def _submasks(mask: int) -> list[int]:
    """The nonempty submasks of ``mask`` in increasing order, so each
    follows its own submasks."""
    subs = [0]
    while mask:
        low = mask & -mask
        mask ^= low
        subs += [m | low for m in subs]
    return subs[1:]


def _half(v: int) -> int:
    assert v % 2 == 0  # the integer scaling keeps every family sum even
    return v // 2


def _best(terms: list) -> int:
    return max(itertools.starmap(operator.add, terms))


def tsirelson_norm_bruteforce(x: FinVec) -> Rat:
    """||x||_T by exhaustive recursion over all admissible subset families.

    A family A_1 < ... < A_k of arbitrary finite sets is admissible for some
    threshold n iff k >= 2 and min A_1 >= k + 1 (choose n between k and
    min A_1 - 1; bigger budgets only widen the search), so the threshold is
    eliminated and the recursion enumerates ordered part families directly
    (``_all_subsets``).  Parts are grouped by their top element, whose tail
    alone decides what may follow; the best norm of a part with a given top
    is a max over every such subset, so nothing of the interval DP is
    assumed.  Exponential: at most ``MAX_BRUTE_SUPPORT`` labels.
    """
    sup, w, scale = _scaled_weights(x, MAX_BRUTE_SUPPORT, "brute-force")
    return Fraction(_all_subsets(sup, w), scale) if sup else Fraction(0)


def modified_norm(x: FinVec) -> Rat:
    """Exact value of the modified recursion with disjoint-set families.

    max( sup-norm, 1/2 * best over n >= 1 of partitions of support(x) n [n, oo)
    into at least 2 and at most min((n+1)^n, support size) disjoint nonempty
    blocks ).  The norm is 1-unconditional, so splitting a block never lowers
    a family's sum, and a threshold whose budget covers its tail gives half
    the tail's sum.  Under the cap the budget binds only at n = 1 (2 blocks)
    and at n = 2 (9 blocks, with >= 10 labels >= 2), and only there are
    partitions searched (``_modified_rules`` on the scaled weights).  At
    most ``MAX_MODIFIED_SUPPORT`` labels, checked before any table is built.
    """
    sup, w, scale = _scaled_weights(x, MAX_MODIFIED_SUPPORT, "modified-norm")
    return Fraction(_modified_rules(sup, w.__getitem__, _half, _best), scale) if sup else Fraction(0)


# --------------------------------------------------------------------------
# 2-convexified norms
# --------------------------------------------------------------------------

def t2_norm_sq(x: FinVec) -> NormResult:
    """Exact squared norm in the 2-convexified space: ||(x_j^2)_j||_T.

    The certificate in the result witnesses the squared-coordinate vector
    abs_square(x), which is where the recursion actually runs.
    """
    return tsirelson_norm(abs_square(x))


def t2_norm(x: FinVec) -> float:
    """Float norm in the 2-convexified space, within 1 ulp (``float_sqrt``)."""
    return float_sqrt(t2_norm_sq(x).value)


def modified_t2_norm_sq(x: FinVec) -> Rat:
    """Squared norm of the 2-convexified modified space: modified_norm of (x_j^2)."""
    return modified_norm(abs_square(x))
