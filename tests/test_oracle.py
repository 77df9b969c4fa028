"""Tests for the brute-force counting oracle."""

import random
from fractions import Fraction

import pytest

from primalcount.errors import (
    NotFullDimensionalError,
    OracleTooLargeError,
    UnboundedError,
)
from primalcount.genfun import count_polytope
from primalcount.halfopen import HalfOpenCone, HalfOpenPolyhedron, halfopen_triangulate
from primalcount.oracle import Box, bounding_box, brute_count
from primalcount.polytope import ClosedCone, HPolytope, SimplicialCone


def poly(A, b):
    return HPolytope(A=tuple(map(tuple, A)), b=tuple(b))


def test_box_volume():
    assert Box(lower=(0, 0), upper=(2, 3)).volume == 12
    with pytest.raises(ValueError):
        Box(lower=(1,), upper=(0,))


def test_bounding_box():
    P = poly([(2, 0), (-1, 0), (0, 1), (0, -1)], [7, 0, 2, 1])
    box = bounding_box(P)
    assert box == Box(lower=(0, -1), upper=(3, 2))
    assert bounding_box(poly([(1,), (-1,)], [-1, 0])) is None
    with pytest.raises(UnboundedError):
        bounding_box(poly([(1, 0), (0, 1), (0, -1)], [0, 1, 1]))
    # no rows: all of space, whose dimension the rows would have carried
    with pytest.raises(UnboundedError):
        bounding_box(poly([], []))
    with pytest.raises(UnboundedError):
        brute_count(poly([], []))


def test_bounding_box_no_integer_candidates():
    # nonempty slab 1/3 <= x <= 2/3 holds no integers
    assert bounding_box(poly([(3,), (-3,)], [2, -1])) is None
    assert brute_count(poly([(3,), (-3,)], [2, -1])) == 0


def test_brute_count_basics():
    square = poly([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 0, 0])
    assert brute_count(square) == 4
    simplex = poly([(-1, 0), (0, -1), (1, 1)], [0, 0, 10])
    assert brute_count(simplex) == 66
    assert brute_count(poly([(1, 0), (-1, 0), (0, 1), (0, -1)], [-1, 0, 1, 1])) == 0


def test_brute_count_one_dim():
    assert brute_count(poly([(2,), (-2,)], [7, 3])) == 5  # -3/2 <= x <= 7/2


def test_brute_count_cap():
    big = poly([(1, 0), (0, 1), (-1, 0), (0, -1)], [10 ** 5, 10 ** 5, 0, 0])
    with pytest.raises(OracleTooLargeError, match="oracle too large"):
        brute_count(big, cap=10 ** 6)
    assert brute_count(big, cap=(10 ** 5 + 1) ** 2) == (10 ** 5 + 1) ** 2


def test_brute_count_matches_algebraic_pipeline():
    rng = random.Random(11)
    built = 0
    while built < 25:
        d = rng.choice([2, 3])
        m = d + rng.randint(1, 3)
        A = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(m)]
        if any(all(a == 0 for a in row) for row in A):
            continue
        b = [rng.randint(-9, 9) for _ in range(m)]
        # bound the instance with a box
        for j in range(d):
            A.append(tuple(1 if t == j else 0 for t in range(d)))
            b.append(8)
            A.append(tuple(-1 if t == j else 0 for t in range(d)))
            b.append(8)
        P = poly(A, b)
        try:
            expected = brute_count(P)
            got = count_polytope(P)
        except NotFullDimensionalError:
            continue
        built += 1
        assert got == expected, (A, b)


def test_contains_on_halfopen_regions():
    strict_halfline = HalfOpenPolyhedron.from_inequalities([(-1,)], [0], strict=[True])
    assert not strict_halfline.contains((0,))
    assert strict_halfline.contains((1,))

    quadrant = HalfOpenCone(
        base=SimplicialCone(apex=(Fraction(0), Fraction(0)), rays=((1, 0), (0, 1))),
        sigma=(1, 1))
    assert quadrant.contains((0, 0))

    C = ClosedCone(apex=(Fraction(0), Fraction(0)),
                   rays=((1, 0), (1, 1), (0, 1)), normals=())
    pieces = halfopen_triangulate(C)
    assert sum(p.contains((1, 1)) for p in pieces) == 1
