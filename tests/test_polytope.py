import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from primalcount.errors import NotFullDimensionalError, UnboundedError
from primalcount.linalg import det, dot, rank, solve, vec_sub
from primalcount.polytope import (
    ClosedCone,
    HPolytope,
    SimplicialCone,
    enumerate_vertices,
    extreme_rays,
    triangulate,
    vertex_cone,
)
from primalcount.errors import SingularMatrixError


def square():
    return HPolytope(A=((1, 0), (-1, 0), (0, 1), (0, -1)), b=(1, 0, 1, 0))


def test_unit_square_vertices():
    vs = enumerate_vertices(square())
    assert [v.point for v in vs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(len(v.tight) == 2 for v in vs)


def test_redundant_row_ignored():
    P = HPolytope(A=((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)),
                  b=(1, 0, 1, 0, 3))
    vs = enumerate_vertices(P)
    assert [v.point for v in vs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(4 not in v.tight for v in vs)


def test_standard_simplex_3d():
    P = HPolytope(A=((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)),
                  b=(0, 0, 0, 1))
    vs = enumerate_vertices(P)
    assert [v.point for v in vs] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_empty_polytope():
    P = HPolytope(A=((1,), (-1,)), b=(0, -1))
    assert enumerate_vertices(P) == []


def test_unbounded_raises():
    with pytest.raises(UnboundedError):
        enumerate_vertices(HPolytope(A=((-1, 0), (0, -1)), b=(0, 0)))


def test_lower_dimensional_raises():
    P = HPolytope(A=((1, 0), (-1, 0), (0, 1), (0, -1)), b=(1, 0, 0, 0))
    with pytest.raises(NotFullDimensionalError):
        enumerate_vertices(P)


def test_zero_row_rejected():
    with pytest.raises(ValueError):
        HPolytope(A=((0, 0),), b=(1,))


def brute_vertices(P):
    """Independent oracle: basic solutions of all d-subsets, Cramer style."""
    d = P.dim
    found = set()
    for subset in combinations(range(P.nrows), d):
        M = [P.A[i] for i in subset]
        if det(M) == 0:
            continue
        x = solve(M, [P.b[i] for i in subset])
        if all(dot(P.A[i], x) <= P.b[i] for i in range(P.nrows)):
            found.add(tuple(Fraction(c) for c in x))
    return found


def random_bounded_polytope(rng, d):
    while True:
        m = rng.randint(d + 1, d + 4)
        A = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(m)]
        if any(all(x == 0 for x in row) for row in A):
            continue
        b = [rng.randint(1, 6) for _ in range(m)]
        for j in range(d):  # box rows guarantee boundedness
            e = [0] * d
            e[j] = 1
            A.append(tuple(e))
            b.append(rng.randint(2, 7))
            A.append(tuple(-x for x in e))
            b.append(rng.randint(2, 7))
        P = HPolytope(A=tuple(A), b=tuple(b))
        try:
            vs = enumerate_vertices(P)
        except (UnboundedError, NotFullDimensionalError):
            continue
        if vs:
            return P, vs


def test_random_vertices_match_brute_force():
    rng = random.Random(31415)
    for _ in range(20):
        P, vs = random_bounded_polytope(rng, 3)
        assert {v.point for v in vs} == brute_vertices(P)
        for v in vs:
            assert all(dot(P.A[i], v.point) == P.b[i] for i in v.tight)
            assert rank([P.A[i] for i in v.tight]) == P.dim


# ---------------------------------------------------------------------------
# vertex cones and extreme rays


def test_square_corner_cone():
    vs = enumerate_vertices(square())
    origin = next(v for v in vs if v.point == (0, 0))
    cone = vertex_cone(square(), origin)
    assert cone.rays == ((0, 1), (1, 0))
    assert cone.apex == (0, 0)


def test_cross_polytope_degenerate_vertex():
    rows = tuple(tuple(s) for s in product((1, -1), repeat=3))
    P = HPolytope(A=rows, b=(1,) * 8)
    vs = enumerate_vertices(P)
    apex = next(v for v in vs if v.point == (1, 0, 0))
    assert len(apex.tight) == 4
    cone = vertex_cone(P, apex)
    assert len(cone.rays) == 4
    assert sorted(cone.rays) == [(-1, -1, 0), (-1, 0, -1), (-1, 0, 1), (-1, 1, 0)]


def test_extreme_rays_simplicial():
    rays = extreme_rays([(-1, 0), (0, -1)])
    assert rays == [(0, 1), (1, 0)]


def test_extreme_rays_scaled_input_gives_primitive():
    rays = extreme_rays([(-2, 0), (0, -3)])
    assert rays == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# triangulation


def in_simplicial(cone: SimplicialCone, x) -> bool:
    return all(c >= 0 for c in cone.coefficients(x))


def test_triangulate_simplicial_is_identity():
    C = ClosedCone(apex=(0, 0), rays=((0, 1), (1, 0)), normals=((-1, 0), (0, -1)))
    pieces = triangulate(C)
    assert len(pieces) == 1
    assert pieces[0].rays == ((0, 1), (1, 0))


def test_triangulate_square_cone():
    rays = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))
    normals = ((-1, 0, 0), (0, -1, 0), (1, 0, -1), (0, 1, -1))
    C = ClosedCone(apex=(0, 0, 0), rays=rays, normals=normals)
    pieces = triangulate(C)
    assert len(pieces) == 2
    for piece in pieces:
        assert set(piece.rays) <= set(rays)


def test_triangulate_hexagonal_cone_piece_count():
    # Any triangulation of a cone over an n-gon has n - 2 simplices.
    pts = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    rays = tuple(sorted((x, y, 1) for x, y in pts))
    normals = []
    for i in range(6):
        a = pts[i]
        b = pts[(i + 1) % 6]
        # plane through origin containing both lifted points
        n = _cross((a[0], a[1], 1), (b[0], b[1], 1))
        if dot(n, (0, 0, 1)) > 0:
            n = tuple(-x for x in n)
        normals.append(n)
    C = ClosedCone(apex=(0, 0, 0), rays=rays, normals=tuple(normals))
    pieces = triangulate(C)
    assert len(pieces) == 4
    _assert_pieces_cover(C, pieces, random.Random(5))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _assert_pieces_cover(C, pieces, rng, samples=400):
    d = len(C.rays[0])
    for _ in range(samples):
        x = tuple(rng.randint(-6, 6) for _ in range(d))
        inside = C.contains(x)
        hits = sum(1 for p in pieces if in_simplicial(p, x))
        if inside:
            assert hits >= 1
        else:
            assert hits == 0


def test_triangulate_random_cones_cover():
    rng = random.Random(777)
    done = 0
    while done < 15:
        d = rng.randint(2, 3)
        k = rng.randint(d, d + 3)
        gens = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
        if rank(gens) != d:
            continue
        try:
            normals = _cone_facets(gens, d)
        except ValueError:
            continue
        if not normals:
            continue  # not pointed
        rays = extreme_rays(normals)
        C = ClosedCone(apex=(0,) * d, rays=tuple(rays), normals=tuple(normals))
        pieces = triangulate(C)
        for piece in pieces:
            assert set(piece.rays) <= set(C.rays)
        _assert_pieces_cover(C, pieces, rng)
        done += 1


def _cone_facets(gens, d):
    """All facet normals of cone(gens) by brute subset scan; [] if not pointed."""
    normals = set()
    for subset in combinations(gens, d - 1):
        if rank(subset) != d - 1:
            continue
        n = _null_direction(subset, d)
        if n is None:
            continue
        pos = [dot(n, g) for g in gens]
        if all(v <= 0 for v in pos):
            normals.add(n)
        elif all(v >= 0 for v in pos):
            normals.add(tuple(-x for x in n))
    normals = sorted(normals)
    if not normals:
        raise ValueError("no facets")
    if rank(normals) != d:
        return []  # cone contains a line; skip
    return normals


def _null_direction(rows, d):
    from primalcount.linalg import vec_primitive
    import itertools
    for cols in itertools.combinations(range(d), d - 1):
        M = [[row[c] for c in cols] for row in rows]
        if det(M) != 0:
            missing = next(j for j in range(d) if j not in cols)
            rhs = [-row[missing] for row in rows]
            partial = solve(M, rhs)
            full = [Fraction(0)] * d
            for c, val in zip(cols, partial):
                full[c] = val
            full[missing] = Fraction(1)
            return vec_primitive(tuple(full))
    return None


def test_simplicial_cone_duals():
    # the dual basis of the rays is the integer normals over the index
    cone = SimplicialCone(apex=(0, 0), rays=((1, 0), (1, 2)))
    duals = [tuple(Fraction(x, cone.index) for x in nj)
             for nj in cone.normals]
    for j, nj in enumerate(duals):
        for i, ri in enumerate(cone.rays):
            assert dot(nj, ri) == (-1 if i == j else 0)
    assert cone.index == 2
    assert cone.coefficients((2, 2)) == (1, 1)


def test_simplicial_cone_normals():
    # both orientations of the ray matrix: det 2 and det -2
    for rays in (((1, 0), (1, 2)), ((1, 2), (1, 0))):
        cone = SimplicialCone(apex=(0, 0), rays=rays)
        assert cone.index == 2
        for j, nj in enumerate(cone.normals):
            assert all(isinstance(x, int) for x in nj)
            for i, ri in enumerate(cone.rays):
                assert dot(nj, ri) == (-cone.index if i == j else 0)
        assert sorted(cone.coefficients((2, 2))) == [1, 1]


def test_simplicial_cone_rejects_dependent_rays():
    from primalcount.errors import DegenerateConeError
    with pytest.raises(DegenerateConeError):
        SimplicialCone(apex=(0, 0), rays=((1, 0), (2, 0)))
