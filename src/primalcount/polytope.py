"""Polytopes in inequality form and the cones at their vertices."""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import lp
from .errors import (
    DegenerateConeError,
    NotFullDimensionalError,
    SingularMatrixError,
    UnboundedError,
)
from .linalg import (
    _int_row,
    adjugate_int,
    dot,
    is_zero_vec,
    rank,
    transpose,
    vec_primitive,
    vec_sub,
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

    def contains(self, x) -> bool:
        shifted = vec_sub(x, self.apex)
        return all(dot(n, shifted) <= 0 for n in self.normals)


@dataclass(frozen=True)
class SimplicialCone:
    """A full-dimensional cone on exactly d linearly independent integer rays.

    One fraction-free elimination of the ray matrix gives everything the
    cone is asked about later: normals[j] is the integer outer normal of
    the facet opposite ray j, with normals[j] . rays[i] == -index * delta_ij,
    and index is |det| of the ray matrix (1 means unimodular).  So
    index * lam_j == -normals[j] . (x - apex) in ray coordinates, and the
    signs of those products decide facet sides without any Fraction.
    Built from rays, a cone eliminates once; a signed-decomposition child
    instead takes its normals from its parent's (_with_ray).
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

    def _with_ray(self, m, w, num):
        """The cone with rays[m] replaced by w, normals by a rank-one update.

        num[j] = -normals[j] . w, so w = sum (num[j] / index) rays[j], and
        num[m] != 0.  The new cone has index |num[m]|, normal s normals[m]
        opposite w and s (num[m] normals[j] - num[j] normals[m]) / index
        opposite every other ray j, with s = sign(num[m]).  These meet the
        new rays as the normal identity requires, which determines them,
        so they are the integer normals an elimination would give and the
        division is exact.
        """
        n_m, c_m = self.normals[m], num[m]
        s = 1 if c_m > 0 else -1
        normals = tuple(
            tuple(s * x for x in n_m) if j == m else
            tuple(s * (c_m * a - c_j * b) // self.index for a, b in zip(n, n_m))
            for j, (n, c_j) in enumerate(zip(self.normals, num)))
        child = object.__new__(SimplicialCone)
        object.__setattr__(child, "apex", self.apex)
        object.__setattr__(child, "rays", self.rays[:m] + (w,) + self.rays[m + 1:])
        object.__setattr__(child, "normals", normals)
        object.__setattr__(child, "index", abs(c_m))
        return child


def enumerate_vertices(P: HPolytope):
    """All vertices of a bounded full-dimensional polytope, sorted.

    One double description of the homogenized cone
    {(x, t) : A x - b t <= 0, t >= 0} gives everything: its extreme rays
    (x, t), all with t > 0, are the vertices x / t; a ray's incidence
    mask is its tight set, the rows with A_i . x == b_i t; and rays
    adjacent in that cone span the edges, so the rays of the vertex cone
    at x / t are primitive(t x' - t' x) over its neighbours (x', t').
    Returns [] for an empty polytope and raises for unbounded or
    lower-dimensional input.  LPs run only when that cone is not pointed
    or not full-dimensional, to tell those cases apart.
    """
    cone = _homogenized_cone(P.A, P.b)
    if cone is None:
        if not lp.lp_feasible(P.A, P.b):
            return []
        if lp.interior_point(P.A, P.b) is None:
            raise NotFullDimensionalError("polyhedron not full-dimensional")
        raise UnboundedError("polyhedron unbounded")
    rays, masks = cone
    if any(ray[-1] == 0 for ray in rays):
        raise UnboundedError("polyhedron unbounded")
    vertices = []
    # the homogenized cone lies in R^(dim + 1), so adjacency needs dim - 1
    for k, (*x, t) in enumerate(rays):
        edges = set()
        for j, (*y, s) in enumerate(rays):
            if j != k and _adjacent(masks, masks[j] & masks[k], P.dim - 1):
                edges.add(vec_primitive(tuple(t * a - s * b for a, b in zip(y, x))))
        vertices.append(Vertex(point=tuple(Fraction(a, t) for a in x),
                               tight=frozenset(i for i in range(P.nrows)
                                               if masks[k] >> i & 1),
                               rays=tuple(sorted(edges))))
    vertices.sort(key=lambda v: v.point)
    return vertices


def _homogenized_cone(A, b):
    """Double description (rays, masks) of {(x, t) : A x - b t <= 0, t >= 0}.

    Bit i of a mask, for i < len(A), is row i of A x <= b; the last bit
    is t >= 0.  When {A x <= b} is nonempty and full-dimensional, the
    rays with t > 0 are its vertices scaled by t and the rays with t = 0
    its extreme recession directions.  None when the cone is not pointed
    or not full-dimensional: the set is empty, lower-dimensional,
    contains a line, or has no rows.
    """
    if not A:
        return None
    normals = [tuple(row) + (-bi,) for row, bi in zip(A, b)]
    normals.append((0,) * len(A[0]) + (-1,))
    try:
        return _double_description(normals)
    except DegenerateConeError:
        return None


def _homogenized_rays(A, b):
    """The rays of _homogenized_cone(A, b), or None."""
    cone = _homogenized_cone(A, b)
    return None if cone is None else cone[0]


def _adjacent(masks, common, need):
    """Whether two extreme rays whose incidence masks meet in common are
    adjacent, by the combinatorial test.

    masks are the incidence masks of all extreme rays of a pointed cone
    in R^d, and need = d - 2.  Two rays are adjacent exactly when their
    common incidence set has at least d - 2 members and no third ray's
    incidence set contains it (Fukuda & Prodon 1996): the smallest face
    holding both is then 2-dimensional.
    """
    return (common.bit_count() >= need
            and sum(z & common == common for z in masks) == 2)


def extreme_rays(normals):
    """Extreme rays of the pointed cone {x : n . x <= 0} for integer normals n.

    Primitive and sorted; the rays of _double_description without its
    incidence masks.  Raises DegenerateConeError if the cone is not
    pointed or not full-dimensional.
    """
    return _double_description(normals)[0]


def _double_description(normals):
    """Extreme rays of {x : n . x <= 0} and their incidence bitmasks.

    Incremental double description: start from a simplicial subcone
    given by the first d independent normals, then cut with the
    remaining ones in order (Motzkin et al. 1953; Fukuda & Prodon 1996).
    Bit i of a ray's mask is set when normals[i] . ray == 0 among the
    normals cut so far.  A cut keeps the rays it does not separate and
    joins each adjacent pair it separates (_adjacent, read off the
    masks); the joined ray's mask is the pair's common mask plus the new
    normal.  No rank is taken until the final full-dimensionality test.
    Returns (rays, masks), rays primitive and sorted, masks aligned.
    Raises DegenerateConeError if the cone is not pointed or not
    full-dimensional.
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
    # the columns of -M^-1 = -adj / det, scaled by det^2 > 0; ray j lies
    # on every base hyperplane but its own
    rays = [vec_primitive(tuple(-det_m * row[j] for row in adj)) for j in range(d)]
    full = sum(1 << i for i in base)
    masks = [full ^ (1 << i) for i in base]

    for i, n in enumerate(normals):
        if i in base:
            continue
        bit = 1 << i
        vals = [sum(map(mul, n, r)) for r in rays]
        keep = [(r, z | bit if v == 0 else z)
                for r, z, v in zip(rays, masks, vals) if v <= 0]
        for a, va in enumerate(vals):
            if va <= 0:
                continue
            for b, vb in enumerate(vals):
                if vb >= 0:
                    continue
                common = masks[a] & masks[b]
                if not _adjacent(masks, common, d - 2):
                    continue
                keep.append((vec_primitive(tuple(va * y - vb * x for x, y
                                                 in zip(rays[a], rays[b]))),
                             common | bit))
        rays = [r for r, _ in keep]
        masks = [z for _, z in keep]

    if rank(rays) != d:
        raise DegenerateConeError("cone is not full-dimensional")
    order = sorted(range(len(rays)), key=rays.__getitem__)
    return [rays[k] for k in order], [masks[k] for k in order]


def vertex_cone(P: HPolytope, v: Vertex) -> ClosedCone:
    """The cone of feasible directions at a vertex, shifted to its apex.

    v must come from enumerate_vertices(P): the rays are the edge
    directions it recorded, and the normals the rows tight at v.
    """
    normals = tuple(P.A[i] for i in sorted(v.tight))
    return ClosedCone(apex=v.point, rays=v.rays, normals=normals)


def _boundary_facets(pieces):
    """Boundary (d-1)-faces of a triangulated convex cone with outer normals.

    pieces maps each simplex (a sorted tuple of ray indices) to its
    SimplicialCone.  A face lies on the boundary exactly when it belongs
    to a single simplex; its outer normal is that cone's normal opposite
    the dropped ray.
    """
    counts = {}
    normal = {}
    for simplex, cone in pieces.items():
        for j in range(len(simplex)):
            face = simplex[:j] + simplex[j + 1:]
            counts[face] = counts.get(face, 0) + 1
            normal[face] = cone.normals[j]
    return [(face, normal[face]) for face, cnt in counts.items() if cnt == 1]


def triangulate(C: ClosedCone):
    """Split a pointed full-dimensional cone into simplicial cones.

    Placing order: rays are inserted as given (ClosedCone keeps them
    sorted), each new ray joined to the boundary faces it sees.  Pieces
    share facets exactly, cover C, and use only C's own rays.
    """
    rays = list(C.rays)
    d = len(rays[0])

    def piece(simplex):
        return SimplicialCone(apex=C.apex, rays=tuple(rays[i] for i in simplex))

    for start in combinations(range(len(rays)), d):
        try:
            pieces = {start: piece(start)}
            break
        except DegenerateConeError:
            continue
    else:
        raise DegenerateConeError("cone is not full-dimensional")
    for t in range(len(rays)):
        if t in start:
            continue
        new = [tuple(sorted(face + (t,)))
               for face, n in _boundary_facets(pieces) if dot(n, rays[t]) > 0]
        pieces.update((simplex, piece(simplex)) for simplex in new)

    return [pieces[simplex] for simplex in sorted(pieces)]
