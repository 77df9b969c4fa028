"""Polytopes in inequality form and the cones at their vertices."""

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import (
    DegenerateConeError,
    NotFullDimensionalError,
    SingularMatrixError,
    UnboundedError,
)
from .linalg import (
    _apex_rows,
    _gauss_jordan,
    _int_row,
    _rows_hold,
    _scaled_point,
    adjugate_int,
    dot,
    is_zero_vec,
    transpose,
    vec_primitive,
)


@dataclass(frozen=True)
class HPolytope:
    """The set {x : A x <= b} with integer A and b.

    Rational input rows (ints and Fractions) are scaled row by row to
    integers by linalg._int_row, exactly.
    Rows are validated to be rectangular, nonzero and at least
    1-dimensional; boundedness is a property of the data and is checked
    by the operations that need it, not by the constructor.
    """

    A: tuple
    b: tuple

    def __post_init__(self):
        if len(self.A) != len(self.b):
            raise ValueError("row count mismatch between A and b")
        rows, rhs = [], []
        for row, bi in zip(self.A, self.b):
            ints = _int_row((*row, bi))[1]
            rows.append(tuple(ints[:-1]))
            rhs.append(ints[-1])
        A, b = tuple(rows), tuple(rhs)
        if A:
            d = len(A[0])
            if d < 1:
                raise ValueError("dimension must be positive")
            if any(len(row) != d for row in A):
                raise ValueError("ragged constraint matrix")
            if any(is_zero_vec(row) for row in A):
                raise ValueError("zero row in constraint matrix")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return len(self.A[0]) if self.A else 0

    @property
    def nrows(self) -> int:
        return len(self.A)


@dataclass(frozen=True)
class Vertex:
    """A vertex of an HPolytope, as enumerate_vertices returns it.

    tight holds the indices of all rows active at the point, and rays the
    primitive integer directions of the edges leaving it, sorted: the
    extreme rays of its tangent cone.  Vertices compare by point and
    tight set only.
    """

    point: tuple          # Fractions
    tight: frozenset
    rays: tuple = field(repr=False, compare=False)


@dataclass(frozen=True)
class ClosedCone:
    """A pointed full-dimensional cone, rays plus valid outer normals.

    Every normal n satisfies n . (x - apex) <= 0 on the cone, and the
    normals cut out the cone exactly; redundant normals are permitted.
    """

    apex: tuple
    rays: tuple           # primitive integer vectors, sorted
    normals: tuple        # integer outer normals

    @cached_property
    def int_rows(self):
        return _apex_rows(self.apex, self.normals, [False] * len(self.normals))

    def contains(self, x) -> bool:
        """Whether x lies in the cone; ValueError for another dimension."""
        return _rows_hold(self.int_rows, *_scaled_point(self.int_rows, x))


@dataclass(frozen=True)
class SimplicialCone:
    """A full-dimensional cone on exactly d linearly independent integer rays.

    normals[j] is the integer outer normal of the facet opposite ray j,
    with normals[j] . rays[i] == -index * delta_ij, and index is |det| of
    the ray matrix (1 means unimodular).  So
    index * lam_j == -normals[j] . (x - apex) in ray coordinates, and the
    signs of those products decide facet sides without any Fraction.
    Built from its rays (a start simplex of triangulate, or a cone made
    directly), a cone gets both from one fraction-free elimination of
    the d x 2d matrix [rays^T | I] (adjugate_int).  A simplicial vertex
    cone gets them from its facet rows and one d x d determinant
    (_from_rows), and any other cone from the cone it derives from, by
    the rank-one update _with_ray.
    """

    apex: tuple
    rays: tuple
    normals: tuple = field(init=False, repr=False, compare=False)
    index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = len(self.rays)
        if d == 0 or any(len(r) != d for r in self.rays):
            raise DegenerateConeError("need d rays of dimension d")
        try:
            adj, det_r = adjugate_int(transpose(self.rays))
        except SingularMatrixError:
            raise DegenerateConeError("rays are linearly dependent") from None
        sign = -1 if det_r > 0 else 1
        object.__setattr__(self, "normals",
                           tuple(tuple(sign * x for x in row) for row in adj))
        object.__setattr__(self, "index", abs(det_r))

    def _with_ray(self, m, w, num, at=None):
        """The cone with rays[m] replaced by w, normals by a rank-one update.

        num[j] = -normals[j] . w, so w = sum (num[j] / index) rays[j], and
        num[m] != 0.  The new cone has index |num[m]|, normal s normals[m]
        opposite w and s (num[m] normals[j] - num[j] normals[m]) / index
        opposite every other ray j, with s = sign(num[m]).  These meet the
        new rays as the normal identity requires, which determines them,
        so they are the integer normals an elimination would give and the
        division is exact.  w and its normal go to position at (m if None).
        """
        n_m, c_m = self.normals[m], num[m]
        s = 1 if c_m > 0 else -1
        at = m if at is None else at
        normals = [
            tuple(s * (c_m * a - c_j * b) // self.index for a, b in zip(n, n_m))
            for j, (n, c_j) in enumerate(zip(self.normals, num)) if j != m]
        normals.insert(at, tuple(s * x for x in n_m))
        rays = self.rays[:m] + self.rays[m + 1:]
        return _simplicial(self.apex, rays[:at] + (w,) + rays[at:],
                           tuple(normals), abs(c_m))


def _simplicial(apex, rays, normals, index):
    """The SimplicialCone with the given normals and index, which the
    caller has derived, without an elimination."""
    cone = object.__new__(SimplicialCone)
    object.__setattr__(cone, "apex", apex)
    object.__setattr__(cone, "rays", rays)
    object.__setattr__(cone, "normals", normals)
    object.__setattr__(cone, "index", index)
    return cone


def _from_rows(C):
    """The SimplicialCone on the d rays of C from C's d normals, or None
    when they are not one facet row per ray.

    Each ray r_j of a simplicial cone lies on every facet but the one
    opposite it, so exactly one row A_i has A_i . r_j != 0, and
    c_j = -A_i . r_j > 0.  The normal opposite r_j vanishes on the other
    rays and meets r_j in -index, so it is index A_i / c_j, integral
    because the adjugate is.  Only index = |det| of the rays is
    eliminated for, with no identity block.  Rows that pair with the rays
    otherwise (a ClosedCone whose normals do not cut it out) give None.
    """
    rays = C.rays
    facets = [None] * len(rays)
    for n in C.normals:
        meets = [(j, v) for j, r in enumerate(rays) if (v := sum(map(mul, n, r)))]
        if len(meets) != 1:
            return None
        j, v = meets[0]
        if v > 0 or facets[j] is not None:
            return None
        facets[j] = (n, -v)
    # rows meeting one ray each make the rays independent: det != 0
    index = abs(_gauss_jordan([list(r) for r in rays], len(rays))[2])
    return _simplicial(C.apex, rays, tuple([tuple([index * a // c for a in n])
                                           for n, c in facets]), index)


def enumerate_vertices(P: HPolytope):
    """All vertices of a bounded full-dimensional polytope, sorted.

    One double description of the homogenized cone
    {(x, t) : A x - b t <= 0, t >= 0} gives everything (_generators):
    its extreme rays (x, t), all with t > 0, are the vertices x / t; a
    ray's incidence mask is its tight set, the rows with
    A_i . x == b_i t; and rays adjacent in that cone span the edges, so
    the rays of the vertex cone at x / t are primitive(t x' - t' x) over
    its neighbours (x', t').  A simple vertex, with exactly d tight rows,
    is adjacent to every vertex that shares d - 1 of them: those rows
    are independent and cut out one edge of the polytope, whose other
    end is the only other vertex tight on them.  Any other vertex is
    tested by _adjacent.  Vertices are sorted by point, compared as the
    integers x L / t over L the lcm of the t.  The same generators
    classify bad input, without an LP: no ray with t > 0 means the
    polytope is empty (returns []); generators of rank at most dim mean
    it is lower-dimensional (NotFullDimensionalError), found by
    _first_basis, which stops at rank dim + 1; and a line or a ray with
    t = 0 is a recession direction (UnboundedError), as is a polytope
    without rows.
    """
    if not P.A:
        raise UnboundedError("polyhedron unbounded")
    d = P.dim
    lines, rays, masks = _generators([(*row, -bi) for row, bi in zip(P.A, P.b)]
                                     + [(0,) * d + (-1,)])
    if all(ray[-1] == 0 for ray in rays):
        return []
    if len(_first_basis(lines + rays)) <= d:
        raise NotFullDimensionalError("polyhedron not full-dimensional")
    if lines or any(ray[-1] == 0 for ray in rays):
        raise UnboundedError("polyhedron unbounded")
    L = lcm(*[t for *_, t in rays])
    keyed = []
    # the homogenized cone lies in R^(d + 1), so adjacency needs d - 1
    for k, (*x, t) in enumerate(rays):
        mask = masks[k]
        if mask.bit_count() == d:
            near = [j for j, z in enumerate(masks)
                    if (z & mask).bit_count() >= d - 1 and j != k]
        else:
            near = [j for j, z in enumerate(masks)
                    if j != k and _adjacent(masks, z & mask, d - 1)]
        edges = {vec_primitive([t * a - s * b for a, b in zip(y, x)])
                 for *y, s in map(rays.__getitem__, near)}
        vertex = Vertex(point=tuple(Fraction(a, t) for a in x),
                        tight=frozenset(i for i in range(P.nrows) if mask >> i & 1),
                        rays=tuple(sorted(edges)))
        keyed.append(([a * (L // t) for a in x], vertex))
    keyed.sort(key=lambda pair: pair[0])
    return [vertex for _, vertex in keyed]


def _adjacent(masks, common, need):
    """Whether two extreme rays whose incidence masks meet in common are
    adjacent, by the combinatorial test.

    masks are the incidence masks of all extreme rays of a cone in R^d
    with a lineality space of dimension k, and need = d - 2 - k.  Two
    rays are adjacent exactly when their common incidence set has at
    least need members and no third ray's incidence set contains it
    (Fukuda & Prodon 1996): the smallest face holding both is then
    (k + 2)-dimensional.
    """
    return (common.bit_count() >= need
            and sum(z & common == common for z in masks) == 2)


def extreme_rays(normals):
    """Extreme rays of the pointed cone {x : n . x <= 0} for integer normals n.

    Primitive and sorted; the rays of _generators without their
    incidence masks.  Raises DegenerateConeError if the cone has lines
    (is not pointed) or its rays have rank below the dimension (it is
    not full-dimensional).
    """
    lines, rays, _ = _generators(normals)
    if lines:
        raise DegenerateConeError("cone is not pointed")
    if len(_first_basis(rays)) != len(normals[0]):
        raise DegenerateConeError("cone is not full-dimensional")
    return rays


def _first_basis(vectors):
    """Indices of the first basis of the span of vectors: each vector kept
    raises the rank of those kept before it.

    A matroid's greedy basis is its lexicographically first basis, so
    this is the first independent subset of size rank(vectors) in
    combinations order, found by one incremental fraction-free
    elimination: each vector is reduced against the rows kept so far,
    each with its own pivot column, and kept when something is left.
    Stops at full rank.  Integer entries.
    """
    kept, pivots = [], []
    n = len(vectors[0]) if vectors else 0
    for i, v in enumerate(vectors):
        row = v
        for c, top in pivots:
            f = row[c]
            if f:
                p = top[c]
                row = [p * x - f * y for x, y in zip(row, top)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        g = gcd(*row)
        pivots.append((c, [x // g for x in row] if g > 1 else row))
        kept.append(i)
        if len(kept) == n:
            break
    return tuple(kept)


def _generators(normals):
    """Generators of the cone {x : n . x <= 0} for integer normals n.

    Incremental double description with lines (Motzkin et al. 1953;
    Fukuda & Prodon 1996): start from R^d, the d unit lines and no rays,
    and cut with the normals in order, one _cut each.  Returns
    (lines, rays, masks): a basis of the lineality space, one
    representative of each extreme ray modulo the lines, primitive and
    sorted, and the rays' incidence masks, aligned, with bit i set when
    normals[i] . ray == 0.  A pointed cone has no lines and its extreme
    rays themselves, the {0} cone none at all.  No rank is taken:
    callers that need a pointed or full-dimensional cone test the
    generators themselves.
    """
    d = len(normals[0])
    generators = ([tuple(int(i == j) for i in range(d)) for j in range(d)],
                  [], [])
    for i, n in enumerate(normals):
        generators = _cut(generators, n, 1 << i)
    lines, rays, masks = generators
    order = sorted(range(len(rays)), key=rays.__getitem__)
    return lines, [rays[k] for k in order], [masks[k] for k in order]


def _cut(generators, n, bit):
    """One double-description step: the generators (lines, rays, masks)
    of a cone cut by n . z <= 0.

    bit is the new normal's mask bit, and the normals cut before it hold
    every lower bit, so a line is tight on all of them.  When n vanishes
    on every line, the rays with value <= 0 stay, with bit set in the
    masks of those on the new hyperplane, and each adjacent pair that n
    separates (_adjacent, read off the masks) is joined by a ray on the
    hyperplane whose mask is the pair's common mask plus bit; the kept
    rays come first, in order.  Otherwise a line l, oriented so that
    n . l < 0, becomes a ray tight on every earlier normal, and each
    other generator moves along l onto n . z = 0, which keeps its
    incidences.
    """
    lines, rays, masks = generators
    k = next((k for k, line in enumerate(lines) if sum(map(mul, n, line))),
             None)
    if k is None:
        vals = [sum(map(mul, n, r)) for r in rays]
        need = len(n) - 2 - len(lines)
        keep = [(r, z | bit if v == 0 else z)
                for r, z, v in zip(rays, masks, vals) if v <= 0]
        for a, va in enumerate(vals):
            if va <= 0:
                continue
            for b, vb in enumerate(vals):
                if vb >= 0:
                    continue
                common = masks[a] & masks[b]
                if not _adjacent(masks, common, need):
                    continue
                keep.append((vec_primitive(tuple(va * y - vb * x for x, y
                                                 in zip(rays[a], rays[b]))),
                             common | bit))
        return lines, [r for r, _ in keep], [z for _, z in keep]
    line = lines[k]
    s = sum(map(mul, n, line))
    if s > 0:
        line, s = tuple(-x for x in line), -s

    def onto(z):
        v = sum(map(mul, n, z))
        return vec_primitive(tuple(v * b - s * a for a, b in zip(z, line)))

    return ([onto(m) for j, m in enumerate(lines) if j != k],
            [onto(r) for r in rays] + [line],
            [z | bit for z in masks] + [bit - 1])


def vertex_cone(P: HPolytope, v: Vertex) -> ClosedCone:
    """The cone of feasible directions at a vertex, shifted to its apex.

    v must come from enumerate_vertices(P): the rays are the edge
    directions it recorded, and the normals the rows tight at v.
    """
    normals = tuple(P.A[i] for i in sorted(v.tight))
    return ClosedCone(apex=v.point, rays=v.rays, normals=normals)


def triangulate(C: ClosedCone):
    """Split a pointed full-dimensional cone into simplicial cones.

    A cone with d rays and d normals is one piece, built from its facet
    rows (_from_rows) when they pair with the rays as a simplicial
    cone's facets do; the vertex cone of a simple vertex is such a cone.
    Otherwise a placing triangulation: the start simplex is the first
    basis of the rays (_first_basis), and the other rays are inserted as
    given (ClosedCone keeps them sorted).  Ray t joins each boundary
    face it sees (outer normal n with n . rays[t] > 0): the new piece is
    the one behind the face with the opposite ray swapped for rays[t]
    (_with_ray), so only the start simplex is eliminated.  boundary maps
    each face to the piece behind it and the position opposite; a face
    of two pieces is interior.  Pieces keep rays in index order, share
    facets exactly, cover C, use only C's own rays, and come sorted by
    ray indices.
    """
    rays = C.rays
    d = len(rays[0])
    if len(rays) == d == len(C.normals):
        piece = _from_rows(C)
        if piece is not None:
            return [piece]
    # d rays admit no other start, and the piece checks their independence
    start = tuple(range(d)) if len(rays) == d else _first_basis(rays)
    if len(start) < d:
        raise DegenerateConeError("cone is not full-dimensional")
    pieces, boundary = {}, {}

    def add(simplex, piece):
        pieces[simplex] = piece
        for j in range(d):
            face = simplex[:j] + simplex[j + 1:]
            if boundary.pop(face, None) is None:
                boundary[face] = (piece, j)

    add(start, SimplicialCone(apex=C.apex, rays=tuple(rays[i] for i in start)))
    for t, r in enumerate(rays):
        if t in start:
            continue
        seen = [(face, piece, j) for face, (piece, j) in boundary.items()
                if dot(piece.normals[j], r) > 0]
        for face, piece, j in seen:
            at = bisect(face, t)
            num = [-dot(n, r) for n in piece.normals]
            add(face[:at] + (t,) + face[at:], piece._with_ray(j, r, num, at))
    return [pieces[simplex] for simplex in sorted(pieces)]
