import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb

import pytest

from primalcount.errors import (
    DegenerateConeError,
    NotFullDimensionalError,
    UnboundedError,
)
from primalcount.linalg import (
    adjugate_int,
    det,
    dot,
    rank,
    solve,
    transpose,
    vec_primitive,
)
from primalcount import lp, polytope
from primalcount.genfun import count_polytope
from primalcount.lp import OPTIMAL, interior_point, lp_feasible, lp_maximize
from primalcount.polytope import (
    ClosedCone,
    HPolytope,
    SimplicialCone,
    Vertex,
    _first_basis,
    _generators,
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


@pytest.mark.parametrize("A", [((1, 0), (-1, 0)), ((0, 0, 1), (0, 0, -1))])
def test_line_and_plane_are_not_full_dimensional(A):
    # x = 0 in R^2 and z = 0 in R^3 contain lines, but are lower-dimensional first
    with pytest.raises(NotFullDimensionalError):
        enumerate_vertices(HPolytope(A=A, b=(0, 0)))


def test_empty_set_with_recession_direction():
    # x <= -1 and x >= 0 contradict; the rows also allow y -> infinity
    P = HPolytope(A=((1, 0), (-1, 0), (0, -1)), b=(-1, 0, 0))
    assert enumerate_vertices(P) == []


def test_no_rows_is_unbounded():
    with pytest.raises(UnboundedError):
        enumerate_vertices(HPolytope(A=(), b=()))


ERROR_CORPUS = (
    # (A, b, outcome): the line x = 0, the plane z = 0, an empty set, an
    # empty set with a recession direction, a wedge, no rows and a slab
    (((1, 0), (-1, 0)), (0, 0), NotFullDimensionalError),
    (((0, 0, 1), (0, 0, -1)), (0, 0), NotFullDimensionalError),
    (((1,), (-1,)), (0, -1), []),
    (((1, 0), (-1, 0), (0, -1)), (-1, 0, 0), []),
    (((-1, 0), (0, -1)), (0, 0), UnboundedError),
    ((), (), UnboundedError),
    (((1, 0), (-1, 0)), (1, 0), UnboundedError),
)


def test_bad_input_is_classified_without_lps(monkeypatch):
    calls = []

    def counted(c, A, b):
        calls.append(1)
        return lp_maximize(c, A, b)

    monkeypatch.setattr(lp, "lp_maximize", counted)
    for A, b, outcome in ERROR_CORPUS:
        P = HPolytope(A=A, b=b)
        if isinstance(outcome, list):
            assert enumerate_vertices(P) == outcome
        else:
            with pytest.raises(outcome):
                enumerate_vertices(P)
    assert calls == []


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


def extreme_rays_reference(normals):
    """Extreme rays of {x : n . x <= 0} by the rank-based double description.

    An incremental double description like extreme_rays', but started
    from the simplicial cone of the first basis of normals found by a
    subset search, and two rays are adjacent when the normals tight at
    both have rank d - 2, computed by elimination for every pair, so it
    shares no start and no adjacency code with the incidence bitmasks.
    """
    normals = [tuple(n) for n in normals]
    d = len(normals[0])
    for base in combinations(range(len(normals)), d):
        try:
            adj, det_m = adjugate_int([normals[i] for i in base])
        except SingularMatrixError:
            continue
        break
    else:
        raise DegenerateConeError("cone is not pointed")
    rays = [vec_primitive(tuple(-det_m * row[j] for row in adj)) for j in range(d)]
    processed = [normals[i] for i in base]

    for i in range(len(normals)):
        if i in base:
            continue
        n = normals[i]
        vals = [dot(n, r) for r in rays]
        keep = [r for r, v in zip(rays, vals) if v <= 0]
        new = []
        for (r1, v1), (r2, v2) in combinations(zip(rays, vals), 2):
            if v1 * v2 >= 0:
                continue
            tight_both = [m for m in processed
                          if dot(m, r1) == 0 and dot(m, r2) == 0]
            if rank(tight_both) != d - 2:
                continue
            if v1 < 0:
                (r1, v1), (r2, v2) = (r2, v2), (r1, v1)
            new.append(vec_primitive(tuple(v1 * b - v2 * a
                                           for a, b in zip(r1, r2))))
        processed.append(n)
        rays = keep + [r for r in new if r not in keep]

    rays = sorted(set(rays))
    if rank(rays) != d:
        raise DegenerateConeError("cone is not full-dimensional")
    return rays


def _has_recession_ray(A):
    """Whether {x : A x <= 0} is nontrivial: 2d LPs over its unit box."""
    d = len(A[0])
    box_A = [list(row) for row in A]
    box_b = [0] * len(A)
    for j in range(d):
        for sign in (1, -1):
            e = [0] * d
            e[j] = sign
            box_A.append(e)
            box_b.append(1)
    for c in box_A[len(A):]:
        status, value, _ = lp_maximize(c, box_A, box_b)
        if status == OPTIMAL and value > 0:
            return True
    return False


def vertices_reference(P):
    """Vertices by LP checks and basic solutions of every d-subset of rows.

    An independent route to enumerate_vertices' result: feasibility,
    interior and recession LPs decide [] and the exceptions in that
    order, then brute_vertices gives the points, and
    extreme_rays_reference the rays at each.
    """
    if P.nrows == 0:
        raise UnboundedError("polyhedron unbounded")
    if not lp_feasible(P.A, P.b):
        return []
    if interior_point(P.A, P.b) is None:
        raise NotFullDimensionalError("polyhedron not full-dimensional")
    if _has_recession_ray(P.A):
        raise UnboundedError("polyhedron unbounded")
    vertices = []
    for x in sorted(brute_vertices(P)):
        tight = frozenset(i for i in range(P.nrows) if dot(P.A[i], x) == P.b[i])
        rays = extreme_rays_reference([P.A[i] for i in sorted(tight)])
        vertices.append(Vertex(point=x, tight=tight, rays=tuple(rays)))
    return vertices


def found(find, P):
    """The vertex list, or the type of the exception raised."""
    try:
        return find(P)
    except (UnboundedError, NotFullDimensionalError) as exc:
        return type(exc)


def assert_same_outcome(P):
    """Check enumerate_vertices against vertices_reference.

    Returns the (point, tight) pairs, or the type of the exception both
    raise.  The tight sets of the reference are the Fraction ones,
    dot(A_i, x) == b_i, and every vertex cone must equal the one built
    from the reference's rank-based double description of its tight rows.
    """
    vertices, reference = found(enumerate_vertices, P), found(vertices_reference, P)
    if isinstance(vertices, type) or isinstance(reference, type):
        assert vertices == reference, P
        return vertices
    got = [(v.point, v.tight) for v in vertices]
    assert got == [(v.point, v.tight) for v in reference], P
    assert all(isinstance(c, Fraction) for x, _ in got for c in x)
    for v, ref in zip(vertices, reference):
        normals = tuple(P.A[i] for i in sorted(ref.tight))
        assert vertex_cone(P, v) == ClosedCone(apex=ref.point, rays=ref.rays,
                                               normals=normals), (P, v)
    return got


def test_vertices_match_reference_on_random_systems():
    # few rows with small entries, often with a planted equality a.x = c
    # or a repeated row, so empty, lower-dimensional, unbounded and
    # bounded systems all occur
    rng = random.Random(2718)
    kinds = []
    for _ in range(1000):
        d = rng.randint(1, 3)
        A, b = [], []
        for _ in range(rng.randint(1, 2 * d + 2)):
            row = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(row):
                A.append(row)
                b.append(rng.randint(-2, 3))
        if A and rng.random() < 0.4:
            i = rng.randrange(len(A))
            A.append(tuple(-x for x in A[i]))
            b.append(-b[i])
        if A and rng.random() < 0.2:
            i = rng.randrange(len(A))
            A.append(A[i])
            b.append(b[i])
        got = assert_same_outcome(HPolytope(A=tuple(A), b=tuple(b)))
        kinds.append(got if isinstance(got, type) else bool(got))
    assert all(kinds.count(kind) >= 50 for kind in
               (UnboundedError, NotFullDimensionalError, False, True))


def test_vertices_match_reference_on_boxes_with_cuts():
    # 3-d boxes with sides in [0, 9] and 0-3 random cuts, unfiltered
    rng = random.Random(1618)
    for k in range(200):
        A, b = [], []
        for j in range(3):
            for sign in (1, -1):
                e = [0, 0, 0]
                e[j] = sign
                A.append(tuple(e))
                b.append(rng.randint(0, 9))
        for _ in range(k % 4):
            cut = tuple(rng.randint(-9, 9) for _ in range(3))
            if any(cut):
                A.append(cut)
                b.append(rng.randint(-9, 9))
        assert_same_outcome(HPolytope(A=tuple(A), b=tuple(b)))


def test_vertices_match_reference_on_degenerate_vertices():
    # square pyramid over [0, 2]^2: four sides meet at the apex (1, 1, 1)
    pyramid = HPolytope(A=((0, 0, -1), (-1, 0, 1), (0, -1, 1), (1, 0, 1),
                           (0, 1, 1)),
                        b=(0, 0, 0, 2, 2))
    got = assert_same_outcome(pyramid)
    assert got[-1] == ((2, 2, 0), frozenset({0, 3, 4}))
    assert ((1, 1, 1), frozenset({1, 2, 3, 4})) in got
    octahedron = HPolytope(A=tuple(product((1, -1), repeat=3)), b=(1,) * 8)
    got = assert_same_outcome(octahedron)
    assert len(got) == 6 and all(len(tight) == 4 for _, tight in got)
    assert all(len(v.rays) == 4 for v in enumerate_vertices(octahedron))
    # the cube [0, 2]^3 with the cut x + y + z <= 6 through its vertex (2, 2, 2)
    cube = HPolytope(A=((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1), (1, 1, 1)),
                     b=(2, 0, 2, 0, 2, 0, 6))
    got = assert_same_outcome(cube)
    assert got[-1] == ((2, 2, 2), frozenset({0, 2, 4, 6}))
    corner = enumerate_vertices(cube)[-1]
    assert corner.rays == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_vertices_match_reference_on_duplicate_and_rational_rows():
    rows = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1))
    rhs = (2, 0, 2, 0, 3)
    doubled = HPolytope(A=rows + rows[:2] + ((2, 0),), b=rhs + rhs[:2] + (4,))
    got = assert_same_outcome(doubled)
    assert [x for x, _ in got] == [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)]
    assert got[3][1] == frozenset({0, 3, 5, 7})
    # x <= 3/2, x >= 0, y >= 0 and 4x + 3y <= 6, written with fractions
    rational = HPolytope(A=((Fraction(1, 2), 0), (-1, 0), (0, Fraction(-1, 3)),
                            (Fraction(1, 3), Fraction(1, 4))),
                         b=(Fraction(3, 4), 0, 0, Fraction(1, 2)))
    got = assert_same_outcome(rational)
    assert got == [((0, 0), frozenset({1, 2})), ((0, 2), frozenset({1, 3})),
                   ((Fraction(3, 2), 0), frozenset({0, 2, 3}))]


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


def rays_outcome(find, normals):
    """The rays, or the DegenerateConeError message."""
    try:
        return find(normals)
    except DegenerateConeError as exc:
        return str(exc)


def test_extreme_rays_match_reference_on_random_cones():
    # d = 2..5: random normals, turned against a hidden interior direction
    # most of the time, with duplicate, scaled, redundant (a sum of two
    # others) and opposite normals planted, so pointed, not pointed and
    # lower-dimensional cones all occur
    rng = random.Random(1123)
    kinds = []
    for case in range(600):
        d = 2 + case % 4
        y = tuple(rng.randint(-3, 3) for _ in range(d))
        normals = []
        for _ in range(rng.randint(1, d + 5)):
            n = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(n):
                continue
            if rng.random() < 0.8 and dot(n, y) > 0:
                n = tuple(-x for x in n)
            normals.append(n)
        if not normals:
            continue
        for _ in range(rng.randint(0, 3)):
            plant = rng.random()
            a, b = rng.choice(normals), rng.choice(normals)
            if plant < 0.3:
                normals.append(a)
            elif plant < 0.5:
                normals.append(tuple(2 * x for x in a))
            elif plant < 0.85:
                if any(p + q for p, q in zip(a, b)):
                    normals.append(tuple(p + q for p, q in zip(a, b)))
            else:
                normals.append(tuple(-x for x in a))
        rng.shuffle(normals)
        got = rays_outcome(extreme_rays, normals)
        assert got == rays_outcome(extreme_rays_reference, normals), normals
        lines = _generators(normals)[0]
        assert len(lines) == d - rank(normals), normals
        assert all(dot(n, line) == 0 for n in normals for line in lines)
        kinds.append(got if isinstance(got, str) else len(got) > d)
    assert all(kinds.count(kind) >= 40 for kind in
               ("cone is not pointed", "cone is not full-dimensional", False, True))


def first_basis_reference(vectors):
    """The first subset of size rank(vectors), in combinations order, of
    independent vectors."""
    r = rank(vectors)
    return next(s for s in combinations(range(len(vectors)), r)
                if rank([vectors[i] for i in s]) == r)


def test_first_basis_is_the_first_in_combinations_order():
    # vectors drawn from a random subspace of dimension k <= n, so rows
    # depend on each other, with zero rows and repeats planted
    rng = random.Random(1019)
    ranks = []
    for case in range(400):
        n = 1 + case % 5
        k = rng.randint(0, n)
        span = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        vectors = []
        for _ in range(rng.randint(1, n + 4)):
            c = [rng.randint(-2, 2) for _ in span]
            vectors.append(tuple(sum(a * v[j] for a, v in zip(c, span))
                                 for j in range(n)))
        vectors.insert(rng.randint(0, len(vectors)), rng.choice(vectors))
        got = _first_basis(vectors)
        assert got == first_basis_reference(vectors), vectors
        ranks.append((len(got), n))
    assert sum(r < n for r, n in ranks) >= 60
    assert sum(r == n for r, n in ranks) >= 60


# ---------------------------------------------------------------------------
# triangulation


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def coefficients(cone: SimplicialCone, x):
    """Fraction ray coordinates lam of x: x - apex == sum lam_j rays[j]."""
    return solve(transpose(cone.rays), vec_sub(x, cone.apex))


def in_simplicial(cone: SimplicialCone, x) -> bool:
    return all(c >= 0 for c in coefficients(cone, x))


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
        assert rays == extreme_rays_reference(normals)
        C = ClosedCone(apex=(0,) * d, rays=tuple(rays), normals=tuple(normals))
        pieces = triangulate(C)
        for piece in pieces:
            assert set(piece.rays) <= set(C.rays)
        _assert_pieces_cover(C, pieces, rng)
        done += 1


def triangulate_reference(C):
    """triangulate's placing triangulation with every piece eliminated
    from its own rays and the boundary recounted from all pieces for each
    inserted ray: a face is on the boundary when one piece has it."""
    rays = C.rays
    d = len(rays[0])

    def piece(simplex):
        return SimplicialCone(apex=C.apex, rays=tuple(rays[i] for i in simplex))

    def boundary(pieces):
        counts, normal = {}, {}
        for simplex, cone in pieces.items():
            for j in range(d):
                face = simplex[:j] + simplex[j + 1:]
                counts[face] = counts.get(face, 0) + 1
                normal[face] = cone.normals[j]
        return [(face, normal[face]) for face, cnt in counts.items() if cnt == 1]

    start = tuple(range(d)) if len(rays) == d else _first_basis(rays)
    pieces = {start: piece(start)}
    for t in range(len(rays)):
        if t not in start:
            new = [tuple(sorted(face + (t,))) for face, n in boundary(pieces)
                   if dot(n, rays[t]) > 0]
            pieces.update((simplex, piece(simplex)) for simplex in new)
    return [pieces[simplex] for simplex in sorted(pieces)]


def cross_polytope(d, r=3):
    """sum_i +-x_i <= r, one row per sign vector."""
    A = tuple(product((1, -1), repeat=d))
    return HPolytope(A=A, b=(r,) * len(A))


@cache
def non_simplicial_vertex_cones():
    """One vertex cone of each cross-polytope, d = 3..9 (2d - 2 rays), and
    every vertex cone with more than d rays of 60 random polytopes in
    d = 3..5 whose rows in {-1, 0, 1}^d make many vertices degenerate."""
    cones = []
    for d in range(3, 10):
        P = cross_polytope(d)
        cones.append(vertex_cone(P, enumerate_vertices(P)[0]))
    rng = random.Random(24)
    for k in range(60):
        d = 3 + k % 3
        A = [row for row in (tuple(rng.randint(-1, 1) for _ in range(d))
                             for _ in range(rng.randint(d + 2, d + 6))) if any(row)]
        b = [rng.randint(1, 2) for _ in A]
        for j in range(d):  # box rows keep it bounded; 0 is interior
            A += [tuple(s * (i == j) for i in range(d)) for s in (1, -1)]
            b += [2, 2]
        P = HPolytope(A=tuple(A), b=tuple(b))
        cones += [vertex_cone(P, v) for v in enumerate_vertices(P)
                  if len(v.rays) > d]
    return cones


def test_triangulate_matches_the_eliminating_reference():
    cones = non_simplicial_vertex_cones()
    assert len(cones) >= 300
    for C in cones:
        pieces, reference = triangulate(C), triangulate_reference(C)
        assert pieces == reference, C
        assert ([(p.normals, p.index) for p in pieces]
                == [(p.normals, p.index) for p in reference]), C


def test_triangulation_pieces_match_fresh_cones():
    # the rank-one update gives each piece the normals and index that
    # one elimination of its own rays gives
    for C in non_simplicial_vertex_cones():
        for piece in triangulate(C):
            fresh = SimplicialCone(apex=piece.apex, rays=piece.rays)
            assert (piece.normals, piece.index) == (fresh.normals, fresh.index)


def test_triangulate_eliminates_only_start_simplices(monkeypatch):
    # 18 vertex cones of the 9-d cross-polytope, 128 pieces each: one
    # elimination per cone, where eliminating every piece took 2304
    P = cross_polytope(9)
    cones = [vertex_cone(P, v) for v in enumerate_vertices(P)]
    calls = []

    def counted(M):
        calls.append(1)
        return adjugate_int(M)

    monkeypatch.setattr(polytope, "adjugate_int", counted)
    pieces = [piece for C in cones for piece in triangulate(C)]
    assert (len(cones), len(pieces), len(calls)) == (18, 2304, 18)


def test_cross_polytope_counts_match_the_closed_form():
    # |{x in Z^d : sum |x_i| <= r}| = sum_k 2^k C(d, k) C(r, k): choose the
    # k nonzero coordinates, their signs, and k positive parts summing to
    # at most r; no oracle needed, and it reaches d = 9
    counts = {d: count_polytope(cross_polytope(d)) for d in range(5, 10)}
    assert counts == {d: sum(2 ** k * comb(d, k) * comb(3, k) for k in range(4))
                      for d in range(5, 10)}
    assert (counts[8], counts[9]) == (833, 1159)


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
    assert coefficients(cone, (2, 2)) == (1, 1)
    for x in ((2, 2), (3, -1), (0, 5)):
        assert coefficients(cone, x) == tuple(
            Fraction(-dot(n, x), cone.index) for n in cone.normals)


def test_simplicial_cone_normals():
    # both orientations of the ray matrix: det 2 and det -2
    for rays in (((1, 0), (1, 2)), ((1, 2), (1, 0))):
        cone = SimplicialCone(apex=(0, 0), rays=rays)
        assert cone.index == 2
        for j, nj in enumerate(cone.normals):
            assert all(isinstance(x, int) for x in nj)
            for i, ri in enumerate(cone.rays):
                assert dot(nj, ri) == (-cone.index if i == j else 0)
        assert sorted(coefficients(cone, (2, 2))) == [1, 1]


def test_simplicial_cone_rejects_dependent_rays():
    from primalcount.errors import DegenerateConeError
    with pytest.raises(DegenerateConeError):
        SimplicialCone(apex=(0, 0), rays=((1, 0), (2, 0)))


# ---------------------------------------------------------------------------
# shortcuts at simple vertices against the general path


def random_box_with_cuts(rng, d, cuts):
    """A box with sides in [0, 9] and `cuts` random cuts, as count-random
    draws them, unfiltered: it may be empty or lower-dimensional."""
    A, b = [], []
    for j in range(d):
        for sign in (1, -1):
            A.append(tuple(sign * (i == j) for i in range(d)))
            b.append(rng.randint(0, 9))
    for _ in range(cuts):
        cut = tuple(rng.randint(-9, 9) for _ in range(d))
        if any(cut):
            A.append(cut)
            b.append(rng.randint(-9, 9))
    return HPolytope(A=tuple(A), b=tuple(b))


CUBE_ROWS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


@cache
def shortcut_corpus():
    """Bounded full-dimensional polytopes with their vertices: boxes with
    0-3 cuts in d = 2..4, and degenerate vertices: the octahedron, a
    square pyramid's apex, the cube [0, 4]^3 with a duplicated row, a
    rescaled copy 2y <= 8 and the redundant cut x + y + z <= 12 through
    (4, 4, 4) (tests/data/cube_redundant.txt), and a square with a
    duplicated and a rescaled row."""
    rng = random.Random(2718)
    polytopes = [random_box_with_cuts(rng, 2 + k % 3, k % 4) for k in range(240)]
    polytopes += [
        cross_polytope(3, 1),
        HPolytope(A=((0, 0, -1), (-1, 0, 1), (0, -1, 1), (1, 0, 1), (0, 1, 1)),
                  b=(0, 0, 0, 2, 2)),
        HPolytope(A=CUBE_ROWS + ((1, 0, 0), (0, 2, 0), (1, 1, 1)),
                  b=(4, 0, 4, 0, 4, 0, 4, 8, 12)),
        HPolytope(A=((1, 0), (-1, 0), (0, 1), (0, -1), (1, 0), (3, 0)),
                  b=(2, 0, 2, 0, 2, 6)),
    ]
    corpus = []
    for P in polytopes:
        try:
            vertices = enumerate_vertices(P)
        except (UnboundedError, NotFullDimensionalError):
            continue
        if vertices:
            corpus.append((P, vertices))
    return corpus


def rays_by_adjacency_test(P):
    """Each vertex point's edge directions, with every pair of extreme rays
    of the homogenized cone tested by _adjacent, simple vertices too."""
    d = P.dim
    _, rays, masks = _generators([(*row, -bi) for row, bi in zip(P.A, P.b)]
                                 + [(0,) * d + (-1,)])
    found = {}
    for k, (*x, t) in enumerate(rays):
        edges = {vec_primitive(tuple(t * a - s * b for a, b in zip(y, x)))
                 for j, (*y, s) in enumerate(rays)
                 if j != k and polytope._adjacent(masks, masks[j] & masks[k], d - 1)}
        found[tuple(Fraction(a, t) for a in x)] = tuple(sorted(edges))
    return found


def test_popcount_edges_match_the_adjacency_test():
    # a simple vertex takes every vertex sharing d - 1 tight rows as a
    # neighbour, any other vertex runs _adjacent; both give the same rays
    simple = other = 0
    for P, vertices in shortcut_corpus():
        assert {v.point: v.rays for v in vertices} == rays_by_adjacency_test(P), P
        assert [v.point for v in vertices] == sorted(v.point for v in vertices)
        for v in vertices:
            if len(v.tight) == P.dim:
                simple += 1
                assert len(v.rays) == P.dim
            else:
                other += 1
    assert simple > 1000 and other > 20


def test_simplicial_vertex_cones_from_rows_match_eliminated_cones():
    # a cone with d rays and d normals is one piece, with the normals
    # and index that one elimination of its rays gives
    from_rows = 0
    for P, vertices in shortcut_corpus():
        for v in vertices:
            C = vertex_cone(P, v)
            pieces = triangulate(C)
            if len(C.normals) == P.dim:
                from_rows += 1
                assert polytope._from_rows(C) is not None
                assert len(pieces) == 1
            if len(pieces) == 1:
                fresh = SimplicialCone(apex=C.apex, rays=C.rays)
                assert pieces[0] == fresh
                assert (pieces[0].normals, pieces[0].index) == (fresh.normals,
                                                               fresh.index)
    assert from_rows > 1000


@pytest.mark.parametrize("rays, normals, from_rows", [
    # facet rows of any positive scale give the eliminated normals
    (((1, 2), (1, 0)), ((-4, 2), (0, -3)), True),
    (((0, 1, 1), (1, 0, 1), (1, 1, 0)),
     ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)), True),
    # rows that do not pair one per ray leave the cone to elimination
    (((0, 1), (1, 0)), ((-1, 0), (-1, -1)), False),
    (((0, 1), (1, 0)), ((-1, 0), (-2, 0)), False),
    (((0, 1), (1, 0)), ((1, 0), (0, -1)), False),
])
def test_simplicial_cone_rows_that_do_not_pair_fall_back(rays, normals, from_rows):
    C = ClosedCone(apex=(0,) * len(rays), rays=rays, normals=normals)
    assert (polytope._from_rows(C) is not None) == from_rows
    (piece,) = triangulate(C)
    fresh = SimplicialCone(apex=C.apex, rays=rays)
    assert (piece.rays, piece.normals, piece.index) == (fresh.rays, fresh.normals,
                                                        fresh.index)


def test_simple_vertex_cones_are_not_eliminated(monkeypatch):
    # the vertex cones of simple vertices of count-random-style boxes with
    # cuts are built from their rows: no adjugate is taken
    rng = random.Random(5)
    cones = []
    for k in range(120):
        P = random_box_with_cuts(rng, 3, k % 4)
        try:
            vertices = enumerate_vertices(P)
        except NotFullDimensionalError:
            continue
        cones += [vertex_cone(P, v) for v in vertices if len(v.tight) == 3]
    calls = []

    def counted(M):
        calls.append(1)
        return adjugate_int(M)

    monkeypatch.setattr(polytope, "adjugate_int", counted)
    pieces = [piece for C in cones for piece in triangulate(C)]
    assert len(pieces) == len(cones) > 500
    assert calls == []
