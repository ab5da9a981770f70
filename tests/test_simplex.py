import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from banach_gauge.simplex import solve_lp

F = Fraction


def test_simple_bounded():
    # min -x - y  s.t. x + y <= 1  ->  objective -1 anywhere on the segment
    res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[1])
    assert res.status == "optimal"
    assert res.objective == -1
    assert sum(res.x) == 1


def test_equality_and_inequality():
    # min t s.t. x - t <= 0, y - t <= 0, x + y = 1 -> t = 1/2 at x = y = 1/2
    res = solve_lp(
        [0, 0, 1],
        A_ub=[[1, 0, -1], [0, 1, -1]],
        b_ub=[0, 0],
        A_eq=[[1, 1, 0]],
        b_eq=[1],
    )
    assert res.status == "optimal"
    assert res.objective == F(1, 2)
    assert res.x[0] == res.x[1] == F(1, 2)


def test_exact_fractions():
    # min x + y s.t. 3x + y >= 1, x + 3y >= 1   (as <= with negation)
    res = solve_lp([1, 1], A_ub=[[-3, -1], [-1, -3]], b_ub=[-1, -1])
    assert res.status == "optimal"
    assert res.x == (F(1, 4), F(1, 4))
    assert res.objective == F(1, 2)


def test_infeasible():
    # x <= -1 with x >= 0
    res = solve_lp([1], A_ub=[[1]], b_ub=[-1])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([-1], A_ub=[], b_ub=[])
    assert res.status == "unbounded"


def test_trivial_optimum_at_origin():
    res = solve_lp([2, 3], A_ub=[[1, 1]], b_ub=[5])
    assert res.status == "optimal"
    assert res.x == (0, 0)
    assert res.objective == 0


def test_degenerate_does_not_cycle():
    # several redundant constraints active at the optimum
    res = solve_lp(
        [0, 1],
        A_ub=[[1, -1], [1, -1], [2, -2], [-1, 0]],
        b_ub=[0, 0, 0, 0],
        A_eq=[[1, 0]],
        b_eq=[1],
    )
    assert res.status == "optimal"
    assert res.x[1] == 1
    assert res.objective == 1


def test_redundant_equalities():
    res = solve_lp(
        [1, 1],
        A_eq=[[1, 1], [2, 2]],
        b_eq=[1, 2],
    )
    assert res.status == "optimal"
    assert res.objective == 1


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


def _feasible(x, A_ub, b_ub, A_eq, b_eq):
    def dot(row):
        return sum((a * v for a, v in zip(row, x)), F(0))

    return (
        all(v >= 0 for v in x)
        and all(dot(row) <= b for row, b in zip(A_ub, b_ub))
        and all(dot(row) == b for row, b in zip(A_eq, b_eq))
    )


def _vertex_oracle(c, A_ub, b_ub, A_eq, b_eq):
    """Minimum of c.x over the vertices of a bounded polyhedron, or None.

    Every vertex solves some square subsystem of the constraint hyperplanes
    (rows of A_ub, rows of A_eq, and the coordinate planes x_j = 0)."""
    n = len(c)
    planes = [(row, b) for row, b in zip(A_ub + A_eq, b_ub + b_eq)]
    planes += [([F(int(i == j)) for i in range(n)], F(0)) for j in range(n)]
    best = None
    for subset in itertools.combinations(planes, n):
        x = _solve_square([p[0] for p in subset], [p[1] for p in subset])
        if x is not None and _feasible(x, A_ub, b_ub, A_eq, b_eq):
            val = sum((ci * xi for ci, xi in zip(c, x)), F(0))
            best = val if best is None else min(best, val)
    return best


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def bounded_lps(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(rationals, min_size=n, max_size=n)
    c = draw(row)
    A_ub = draw(st.lists(row, max_size=5))
    b_ub = draw(st.lists(rationals, min_size=len(A_ub), max_size=len(A_ub)))
    A_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(rationals, min_size=len(A_eq), max_size=len(A_eq)))
    if A_eq and draw(st.booleans()):  # duplicated or scaled equality row
        k = draw(rationals.filter(bool))
        A_eq.append([k * v for v in A_eq[0]])
        b_eq.append(k * b_eq[0])
    A_ub.append([F(1)] * n)  # sum(x) <= K keeps every LP bounded
    b_ub.append(F(draw(st.integers(0, 5))))
    return c, A_ub, b_ub, A_eq, b_eq


@settings(max_examples=150, deadline=None)
@given(bounded_lps())
def test_matches_vertex_enumeration(lp):
    c, A_ub, b_ub, A_eq, b_eq = lp
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    best = _vertex_oracle(c, A_ub, b_ub, A_eq, b_eq)
    if best is None:
        assert res.status == "infeasible"
        return
    assert res.status == "optimal"
    assert res.objective == best
    assert _feasible(res.x, A_ub, b_ub, A_eq, b_eq)
