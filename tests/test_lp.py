import random
from fractions import Fraction
from itertools import combinations

from primalcount.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    coordinate_range,
    interior_point,
    lp_feasible,
    lp_maximize,
    remove_redundant,
)
from primalcount.linalg import det, dot, solve


def test_simple_box_max():
    # max x + y over the unit square
    A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    b = [1, 0, 1, 0]
    status, value, x = lp_maximize([1, 1], A, b)
    assert status == OPTIMAL
    assert value == 2
    assert x == (1, 1)


def test_negative_rhs_needs_phase_one():
    # x >= 3 written as -x <= -3, maximize -x
    status, value, x = lp_maximize([-1], [[-1], [1]], [-3, 10])
    assert status == OPTIMAL
    assert value == -3
    assert x == (3,)


def test_infeasible():
    status, _, _ = lp_maximize([1], [[1], [-1]], [0, -1])
    assert status == INFEASIBLE
    assert not lp_feasible([[1], [-1]], [0, -1])


def test_unbounded():
    status, _, _ = lp_maximize([1], [[-1]], [0])
    assert status == UNBOUNDED


def test_degenerate_does_not_cycle():
    # Many hyperplanes through one vertex; Bland's rule must terminate.
    A = [[1, 1], [1, 2], [2, 1], [-1, 0], [0, -1]]
    b = [0, 0, 0, 0, 0]
    status, value, x = lp_maximize([1, 1], A, b)
    assert status == OPTIMAL
    assert value == 0


def test_fractional_data():
    A = [[Fraction(1, 3), Fraction(1, 2)], [-1, 0], [0, -1]]
    b = [1, 0, 0]
    status, value, x = lp_maximize([1, 0], A, b)
    assert status == OPTIMAL
    assert value == 3


def brute_max(c, A, b):
    """Independent optimum over a bounded feasible region: best feasible
    basic point from every square subsystem."""
    n = len(c)
    best = None
    for rows in combinations(range(len(A)), n):
        M = [A[i] for i in rows]
        if det(M) == 0:
            continue
        x = solve(M, [b[i] for i in rows])
        if all(dot(A[i], x) <= b[i] for i in range(len(A))):
            v = dot(c, x)
            if best is None or v > best:
                best = v
    return best


def test_random_bounded_lps_match_vertex_enumeration():
    rng = random.Random(424242)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(n + 1, 6))]
        b = [rng.randint(0, 6) for _ in A]
        for j in range(n):  # box rows keep it bounded
            e = [0] * n
            e[j] = 1
            A.append(e[:])
            b.append(7)
            A.append([-x for x in e])
            b.append(7)
        c = [rng.randint(-3, 3) for _ in range(n)]
        status, value, x = lp_maximize(c, A, b)
        assert status == OPTIMAL
        assert all(dot(row, x) <= rhs for row, rhs in zip(A, b))
        assert value == brute_max(c, A, b)
        done += 1


def test_interior_point():
    A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    b = [1, 0, 1, 0]
    p = interior_point(A, b)
    assert p is not None
    assert all(dot(row, p) < rhs for row, rhs in zip(A, b))
    # A segment in the plane has no interior.
    assert interior_point([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 0, 0]) is None


def test_coordinate_range():
    A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    b = [3, 1, 2, 0]
    assert coordinate_range(A, b, 0) == (-1, 3)
    assert coordinate_range(A, b, 1) == (0, 2)
    lo, hi = coordinate_range([[-1]], [0], 0)
    assert lo == 0 and hi is None


def test_remove_redundant():
    A = [[1, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]
    b = [1, 1, 0, 1, 0, 5]
    A2, b2 = remove_redundant(A, b)
    assert ([1, 1], Fraction(5)) not in list(zip(A2, b2))
    assert len(A2) == 4
    kept = {(tuple(r), h) for r, h in zip(A2, b2)}
    assert ((1, 0), 1) in kept and ((-1, 0), 0) in kept
