"""Polytopes in inequality form and the cones at their vertices."""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

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
    point: tuple          # Fractions
    tight: frozenset      # indices of all rows active at the point


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

    def coefficients(self, x):
        """Coefficients lam with x - apex == sum lam_j rays[j]."""
        shifted = vec_sub(x, self.apex)
        return tuple(Fraction(-dot(n, shifted), self.index) for n in self.normals)


def enumerate_vertices(P: HPolytope):
    """All vertices of a bounded full-dimensional polytope, sorted.

    The vertices are the extreme rays (x, t) with t > 0 of the homogenized
    cone {(x, t) : A x - b t <= 0, t >= 0}, each giving the point x / t;
    each vertex records the full set of rows tight at it.  Returns [] for
    an empty polytope and raises for unbounded or lower-dimensional input.
    LPs run only when that cone is not pointed or not full-dimensional,
    to tell those cases apart.
    """
    rays = _homogenized_rays(P.A, P.b)
    if rays is None:
        if not lp.lp_feasible(P.A, P.b):
            return []
        if lp.interior_point(P.A, P.b) is None:
            raise NotFullDimensionalError("polyhedron not full-dimensional")
        raise UnboundedError("polyhedron unbounded")
    if any(ray[-1] == 0 for ray in rays):
        raise UnboundedError("polyhedron unbounded")
    vertices = []
    for x in sorted(tuple(Fraction(xi, ray[-1]) for xi in ray[:-1])
                    for ray in rays):
        tight = frozenset(i for i in range(P.nrows)
                          if dot(P.A[i], x) == P.b[i])
        vertices.append(Vertex(point=x, tight=tight))
    return vertices


def _homogenized_rays(A, b):
    """Extreme rays (x, t) of the cone {(x, t) : A x - b t <= 0, t >= 0}.

    When {A x <= b} is nonempty and full-dimensional, the rays with t > 0
    are its vertices scaled by t and the rays with t = 0 its extreme
    recession directions.  None when the cone is not pointed or not
    full-dimensional: the set is empty, lower-dimensional, contains a
    line, or has no rows.
    """
    if not A:
        return None
    normals = [tuple(row) + (-bi,) for row, bi in zip(A, b)]
    normals.append((0,) * len(A[0]) + (-1,))
    try:
        return extreme_rays(normals)
    except DegenerateConeError:
        return None


def extreme_rays(normals):
    """Extreme rays of the pointed cone {x : n . x <= 0} for integer normals n.

    Incremental double description: start from a simplicial subcone
    given by d independent normals, then cut with the remaining ones
    (Motzkin et al. 1953; Fukuda & Prodon 1996).  Serves the cones at
    vertices and, through the homogenized cone, vertex enumeration itself.
    Rays come back primitive and sorted.  Raises DegenerateConeError if
    the cone is not pointed or not full-dimensional.
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
    # the columns of -M^-1 = -adj / det, scaled by det^2 > 0
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


def vertex_cone(P: HPolytope, v: Vertex) -> ClosedCone:
    """The cone of feasible directions at a vertex, shifted to its apex."""
    normals = [P.A[i] for i in sorted(v.tight)]
    rays = extreme_rays(normals)
    return ClosedCone(apex=v.point, rays=tuple(rays), normals=tuple(normals))


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
