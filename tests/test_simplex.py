import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from banach_gauge import FinVec
from banach_gauge.simplex import solve_lp

F = Fraction


def _coordinate_cuts(N):
    return [FinVec.basis(j) for j in range(1, N + 1)]


def _check_point(cuts, N, x, t):
    """x is feasible, tail-normalized, and t is the largest cut value at x."""
    assert len(x) == N and all(v >= 0 for v in x)
    assert sum(x[2:]) == 1
    assert t == max(sum((lam[j + 1] * v for j, v in enumerate(x)), F(0)) for lam in cuts)


def test_simple_bounded():
    # coordinate cuts only: min max_j x_j over the tail simplex is 1/(N - 2)
    for N in range(3, 8):
        cuts = _coordinate_cuts(N)
        x, t, _ = solve_lp(cuts, N)
        assert t == F(1, N - 2)
        assert x[2:] == (F(1, N - 2),) * (N - 2)
        _check_point(cuts, N, x, t)


def test_equality_and_inequality():
    # the tail equality holds exactly and the binding cut is the head-heavy one:
    # max(x_1, .., x_4, x_1 + x_3) under x_3 + x_4 = 1 is 1/2 at x_1 = 0
    cuts = _coordinate_cuts(4) + [FinVec({1: 1, 3: 1})]
    x, t, _ = solve_lp(cuts, 4)
    assert t == F(1, 2)
    assert x == (0, 0, F(1, 2), F(1, 2))
    _check_point(cuts, 4, x, t)


def test_exact_fractions():
    # max(x_3, x_4, x_3 + x_4/2) under x_3 + x_4 = 1 is 2/3 at x_3 = 1/3
    cuts = _coordinate_cuts(4) + [FinVec({3: 1, 4: F(1, 2)})]
    x, t, _ = solve_lp(cuts, 4)
    assert t == F(2, 3)
    assert x[2:] == (F(1, 3), F(2, 3))
    _check_point(cuts, 4, x, t)


def test_trivial_optimum_at_origin():
    # N = 3: the tail is x_3 alone, and the head coordinates stay at 0
    cuts = _coordinate_cuts(3)
    assert solve_lp(cuts, 3) == ((0, 0, 1), 1, [0, 0, 1])


def test_degenerate_does_not_cycle():
    # repeated cuts that are all tight at the unique optimum x_3 = x_4 = x_5 = 1/3
    mean = FinVec({3: F(1, 3), 4: F(1, 3), 5: F(1, 3)})
    cuts = _coordinate_cuts(5) + [mean, FinVec.basis(3), mean, FinVec.basis(5), mean]
    x, t, _ = solve_lp(cuts, 5)
    assert t == F(1, 3)
    assert x == (0, 0, F(1, 3), F(1, 3), F(1, 3))
    _check_point(cuts, 5, x, t)


# --------------------------------------------------------------------------
# differential property test against exact vertex enumeration
# --------------------------------------------------------------------------

def _solve_square(M, rhs):
    """Unique solution of the square system M x = rhs, or None if singular."""
    n = len(M)
    aug = [list(row) + [r] for row, r in zip(M, rhs)]
    for col in range(n):
        p = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if p is None:
            return None
        aug[col], aug[p] = aug[p], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


def _vertex_oracle(cuts, N):
    """Minimum of t over the vertices of the master LP's polyhedron.

    The cuts are nonnegative, so x_1 = x_2 = 0 at some optimum, and the
    minimum is taken over (x_3..x_N, t).  Every vertex there lies on the tail
    plane and on N - 2 more of the hyperplanes <lambda_k, x> = t and
    x_j = 0 (t >= 0 is implied by the coordinate cuts and never binds)."""
    def dot(row, z):
        return sum((a * v for a, v in zip(row, z)), F(0))

    n = N - 1  # x_3..x_N, then t
    cut_rows = [[lam[j] for j in range(3, N + 1)] + [F(-1)] for lam in cuts]
    planes = [(row, F(0)) for row in cut_rows]
    planes += [([F(int(i == j)) for i in range(n)], F(0)) for j in range(n - 1)]
    tail = ([F(1)] * (n - 1) + [F(0)], F(1))
    best = None
    for subset in itertools.combinations(planes, n - 1):
        z = _solve_square([tail[0]] + [p[0] for p in subset], [tail[1]] + [p[1] for p in subset])
        if z is not None and all(v >= 0 for v in z) and all(dot(r, z) <= 0 for r in cut_rows):
            best = z[-1] if best is None else min(best, z[-1])
    return best


rationals = st.builds(F, st.integers(0, 4), st.integers(1, 3))


@st.composite
def master_lps(draw):
    N = draw(st.integers(3, 5))
    extra = draw(st.lists(st.lists(rationals, min_size=N, max_size=N), max_size=3))
    cuts = _coordinate_cuts(N) + [FinVec(enumerate(row, start=1)) for row in extra]
    return draw(st.permutations(cuts)), N


@settings(max_examples=100, deadline=None)
@given(master_lps())
def test_matches_vertex_enumeration(lp):
    cuts, N = lp
    x, t, _ = solve_lp(cuts, N)
    _check_point(cuts, N, x, t)
    assert t == _vertex_oracle(cuts, N)


# --------------------------------------------------------------------------
# replay: a path-carrying solve returns the one-shot answer after every append
# --------------------------------------------------------------------------

def _certifies(cuts, N, weights, t):
    """The final objective row's slack entries, normalized, are a probability
    vector mu with min_{j>=3} (sum_k mu_k lambda_k)_j = t."""
    assert len(weights) == len(cuts) and all(w >= 0 for w in weights)
    total = sum(weights)
    mix = [sum((F(w, total) * lam[j] for w, lam in zip(weights, cuts)), F(0))
           for j in range(3, N + 1)]
    return min(mix) == t


@st.composite
def cut_sequences(draw):
    """Nonnegative rational cuts on [1, N], heavy in ties: coordinate cuts,
    tail means, zero cuts, repeats of earlier cuts and random rows."""
    N = draw(st.integers(3, 6))
    mean = FinVec({j: F(1, N - 2) for j in range(3, N + 1)})
    cuts = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["coordinate", "mean", "zero", "repeat", "random"]))
        if kind == "coordinate":
            cut = FinVec.basis(draw(st.integers(1, N)))
        elif kind == "mean":
            cut = mean
        elif kind == "zero":
            cut = FinVec()
        elif kind == "repeat" and cuts:
            cut = draw(st.sampled_from(cuts))
        else:
            cut = FinVec(enumerate(draw(st.lists(rationals, min_size=N, max_size=N)), start=1))
        cuts.append(cut)
    steps = draw(st.lists(st.integers(1, 3), min_size=len(cuts), max_size=len(cuts)))
    return cuts, N, steps


@settings(max_examples=150, deadline=None)
@given(cut_sequences())
def test_replay_matches_one_shot_after_every_append(case):
    # appended one to three at a time: cuts that are not violated, or repeat a
    # cut already held, leave the path's optimum standing
    cuts, N, steps = case
    path, m = [], 0
    for step in steps:
        m = min(m + step, len(cuts))
        got = solve_lp(cuts[:m], N, path)
        assert got == solve_lp(cuts[:m], N)
        x, t, weights = got
        _check_point(cuts[:m], N, x, t)
        if t > 0:
            assert _certifies(cuts[:m], N, weights, t)


def test_replay_of_a_cut_that_is_not_violated_keeps_the_optimum():
    cuts = _coordinate_cuts(5)
    path = []
    first = solve_lp(cuts, 5, path)
    pivots = len(path)
    # the mean of the tail is exactly t at the optimum: the new row never wins
    cuts = cuts + [FinVec({3: F(1, 3), 4: F(1, 3), 5: F(1, 3)})]
    x, t, weights = solve_lp(cuts, 5, path)
    # the new cut's slack stays basic, so its weight is 0
    assert (x, t, weights) == (*first[:2], first[2] + [0]) and len(path) == pivots
    assert _certifies(cuts, 5, weights, t)
