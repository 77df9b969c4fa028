"""Parametric polytopes: vertices, chambers, and counting functions.

A family P_q = {x : A x <= E q + f} over parameters q has finitely many
parametric vertices, each an affine map v(q) = M q + c valid on its
activity region in q-space.  The regions overlap only in walls; cutting
the parameter space along all activity boundaries yields chambers on
which the vertex set is constant.  Vertex maps, cells, regions and
chamber samples are all read off the generators of homogenized cones,
a basis of their lines and their extreme rays with incidence masks,
from the one double description polytope._generators and its cut
step, so the setup runs no LP: the maps are faces of one combined
cone, a hyperplane splits a cell when it takes both signs on its
generators, a row is a facet when the generators tight on it have rank
p, and a chamber's sample is the sum of its cell's rays.  Each cell
carries the side of every hyperplane it lies on, so a chamber's active
vertices are read off bitmasks.  Making chambers and activity regions
half-open with one shared generic direction gives every parameter point
exactly one evaluation formula, including points on the walls.  A wall
is read off the chambers' own rows: a facet whose hyperplane bounds
some chamber from the other side.  On a chamber the count is the sum of
its active vertices' leaf cones moved to v(q) (Brion), and only their
apexes move, so each vertex is compiled once per specialization
direction into integer arithmetic, each chamber adds up its vertices'
programs, and a parameter point finds its chamber by a search of the
split tree.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateConeError, NotFullDimensionalError, UnboundedError
from .genfun import (
    DEFAULT_MAX_INDEX,
    CompiledLeaves,
    CompiledSum,
    count_leaves,
)
from .halfopen import (
    HalfOpenPolyhedron,
    _check_max_index,
    exactify,
    integral_row,
    perturbed_direction,
    signed_decompose,
)
from .linalg import (
    _int_row,
    _rows_hold,
    adjugate_int,
    dot,
    identity,
    is_zero_vec,
)
# Not called here: chamber samples are sums of rays.  The name stays bound
# because perfbench's tracer test looks for it in this module.
from .lp import interior_point  # noqa: F401
from .polytope import ClosedCone, _cut, _first_basis, _generators, extreme_rays


class ParametricPolytope:
    """The family {x : A x <= E q + f} with q restricted to a closed set Q.

    Q's rows must have nonzero normals, as HPolytope's rows must.
    """

    def __init__(self, A, E, f, qset=None):
        if not A:
            raise ValueError("constraint matrix must have at least one row")
        if len(A) != len(E) or len(A) != len(f):
            raise ValueError("A, E, f must have matching row counts")
        self.dim = len(A[0])
        self.qdim = len(E[0])
        if self.dim < 1 or self.qdim < 1:
            raise ValueError("dimension must be positive")
        if any(len(r) != self.dim for r in A):
            raise ValueError("ragged constraint matrix")
        if any(len(r) != self.qdim for r in E):
            raise ValueError("ragged parameter matrix")
        rows = [integral_row(tuple(arow) + tuple(erow), fi)
                for arow, erow, fi in zip(A, E, f)]
        self.A = tuple(row[:self.dim] for row, _ in rows)
        self.E = tuple(row[self.dim:] for row, _ in rows)
        self.f = tuple(fi for _, fi in rows)
        if qset is None:
            qset = HalfOpenPolyhedron(rows=())
        if not qset.is_closed():
            raise ValueError("parameter set must be closed")
        if qset.rows and len(qset.rows[0][0]) != self.qdim:
            raise ValueError("parameter set dimension mismatch")
        if any(is_zero_vec(g) for g, _, _ in qset.rows):
            raise ValueError("zero row in parameter set")
        self.qset = qset
        self._analyses = {}

    def analysis(self, max_index=DEFAULT_MAX_INDEX):
        if max_index not in self._analyses:
            self._analyses[max_index] = ParametricAnalysis(self, max_index)
        return self._analyses[max_index]


@dataclass(frozen=True)
class ParametricVertex:
    """One vertex map v(q) = M q + c with its validity region and cone."""

    basis: tuple
    map_M: tuple  # d x p Fractions
    map_c: tuple  # d Fractions
    activity: HalfOpenPolyhedron  # closed region in q-space
    cone: ClosedCone  # the cone of the rows tight at the vertex, at apex 0

    def value(self, q):
        return tuple(dot(row, q) + c for row, c in zip(self.map_M, self.map_c))


@dataclass(frozen=True)
class Chamber:
    """A chamber: its region in q-space, the vertices active on it and a
    point of its interior.  chambers_max_dim gives closed regions;
    halfopen_chambers gives the same chambers with the walls that
    exactify opens, rows read off the other chambers (_walls), strict."""

    region: HalfOpenPolyhedron
    active: tuple  # of ParametricVertex
    sample: tuple  # interior point


def enumerate_parametric_vertices(pp: ParametricPolytope):
    """The vertex maps of the family whose activity regions are
    full-dimensional, in sorted (M, c) order.

    One double description of the homogenized combined cone
    K = {(x, q, t) : A x - E q - f t <= 0, Q's rows, t >= 0} gives them
    (Loechner & Wilde 1997).  A vertex map v(q) = M q + c with a
    full-dimensional activity region is the face of K on which its
    tight rows hold with equality.  On such a face x = M q + c t, so the
    face is as large as its projection to (q, t), the homogenized
    activity region: it has dimension p + 1, and the rows tight on it
    are those tight identically in q.  Conversely a face of dimension
    p + 1 whose tight rows of A have rank d is such a map.  Its basis is
    the first basis of those rows (polytope._first_basis), the first
    basis in combinations order that gives the map.  A is integral, so
    with (adj, det) = adjugate_int(A_B) the map is
    M = adj E_B / det and c = adj f_B / det, Fractions in lowest terms.
    Each map gets its activity region, the rows of A not tight on it
    with Q's and only their facets kept (_region), and the q-independent
    cone of its tight rows.  The activity rows A_i M - E_i <= f_i - A_i c
    are formed times |det| from adj E_B and adj f_B, in integers once f
    is scaled to integers, and then made primitive.
    Raises UnboundedError when the family has a recession direction,
    read off the generators of {x : A x <= 0} without an LP, and
    NotFullDimensionalError when some vertex map forces the polytope
    into a hyperplane on a full-dimensional part of Q.
    """
    d, p = pp.dim, pp.qdim
    # every nonempty P_q has the recession cone {A x <= 0}, so the family
    # is bounded exactly when that cone is {0}: no lines and no rays
    lines, rays, _ = _generators(pp.A)
    if lines or rays:
        raise UnboundedError("polyhedron unbounded")
    fden, fint = _int_row(pp.f)  # f = fint / fden
    maps = []
    for tight in _faces_of_dimension_p1(pp):
        basis = tuple(tight[k] for k in _first_basis([pp.A[i] for i in tight]))
        if len(basis) < d:
            continue
        adj, det_b = adjugate_int([pp.A[i] for i in basis])
        ecols = list(zip(*(pp.E[i] for i in basis)))
        fsub = [fint[i] for i in basis]
        adj_e = [[dot(row, col) for col in ecols] for row in adj]
        adj_f = [dot(row, fsub) for row in adj]
        M = tuple(tuple(Fraction(x, det_b) for x in row) for row in adj_e)
        c = tuple(Fraction(x, det_b * fden) for x in adj_f)
        maps.append((M, c, basis, tight, list(zip(*adj_e)), adj_f, det_b))

    qrows = [(g, h) for g, h, _ in pp.qset.rows]
    vertices = []
    for M, c, basis, tight, adj_e_cols, adj_f, det_b in sorted(maps):
        sign, scale = (1, det_b) if det_b > 0 else (-1, -det_b)
        rows = []
        for arow, erow, fi in zip(pp.A, pp.E, fint):
            # A_i (M q + c) <= E_i q + f_i as a row in q, times |det|
            gq = tuple(sign * dot(arow, col) - scale * e
                       for col, e in zip(adj_e_cols, erow))
            if any(gq):
                rhs = scale * fi - sign * dot(arow, adj_f)
                common = gcd(*gq)
                rows.append((tuple(x // common for x in gq),
                             Fraction(rhs, fden * common)))
        rows += qrows
        activity = _region(rows, _generators(_homogenized_rows(rows, p)), p)
        normals = tuple(pp.A[i] for i in tight)
        try:
            cone = ClosedCone(apex=(Fraction(0),) * d,
                              rays=tuple(extreme_rays(normals)), normals=normals)
        except DegenerateConeError:
            raise NotFullDimensionalError(
                "polyhedron not full-dimensional over a parameter region") from None
        vertices.append(ParametricVertex(basis=basis, map_M=M, map_c=c,
                                         activity=activity, cone=cone))
    return vertices


def _faces_of_dimension_p1(pp: ParametricPolytope):
    """The rows of A tight on each face of dimension p + 1 of the
    combined cone K of enumerate_parametric_vertices, as sorted tuples.

    Every face of K contains K's lineality space L, the linear space
    K's normals vanish on, of dimension at most p for a bounded family:
    a line of K has t = 0 and x fixed by q.  The double description
    (polytope._generators) gives a basis of L and K's extreme rays
    modulo L with their incidence masks: the faces of dimension
    dim L + 1.  A face is its mask, and the faces one dimension up from
    a face F are the largest masks among F & mask(r) over the rays r
    outside F, so p - dim L steps up reach dimension p + 1.
    """
    m = len(pp.A)
    normals = [tuple(_int_row((*a, *(-x for x in e), -fi))[1])
               for a, e, fi in zip(pp.A, pp.E, pp.f)]
    normals += [(0,) * pp.dim + tuple(_int_row((*g, -h))[1])
                for g, h, _ in pp.qset.rows]
    normals.append((0,) * (pp.dim + pp.qdim) + (-1,))
    lines, _, masks = _generators(normals)
    faces = set(masks)
    for _ in range(pp.qdim - len(lines)):
        up = set()
        for face in faces:
            joins = {face & z for z in masks if z & face != face}
            up.update(j for j in joins
                      if not any(k != j and k & j == j for k in joins))
        faces = up
    return [tuple(i for i in range(m) if face >> i & 1) for face in faces]


def chambers_max_dim(vertices, qset=None, qdim=None):
    """Maximal-dimension chambers: cells of the activity-boundary arrangement.

    Splits Q along every activity facet hyperplane, keeps the cells that
    are full-dimensional, reads off the set of vertices active on each
    cell interior, and drops cells where no vertex is active (the
    polytope is empty there).  Chambers meet only in their boundaries.

    The cells come from _arrangement_cells with the generators of their
    homogenized cones and their side masks, and _region reads each
    chamber's facets off those generators.  A vertex is active on a cell
    when the cell lies on the inner side of each of its activity rows,
    two integer ANDs of its masks (_activity_masks) with the cell's side
    mask, without a point test.  Each chamber's sample is s_q / s_t for
    the sum (s_q, s_t) of its cell's rays, without an LP: each row is
    <= 0 on the rays, 0 on the lines and not 0 on all rays, or the cell
    would lie in its hyperplane, so it is strict at the sum; s_t > 0,
    the cell not empty.
    """
    if qset is None:
        qset = HalfOpenPolyhedron(rows=())
    if qset.rows:
        qdim = len(qset.rows[0][0])
    elif qdim is None:
        if not vertices:
            return []
        qdim = len(vertices[0].map_M[0])

    hyperplanes = sorted({_oriented(g, h)
                          for v in vertices for g, h, _ in v.activity.rows})
    masks = _activity_masks(vertices, hyperplanes)

    chambers = []
    for cell, generators, side in _arrangement_cells(
            [(g, h) for g, h, _ in qset.rows], qdim, hyperplanes):
        active = tuple(v for v, (le, ge) in zip(vertices, masks)
                       if side & le == le and not side & ge)
        if active:
            *s_q, s_t = map(sum, zip(*generators[1]))
            sample = tuple(Fraction(x, s_t) for x in s_q)
            chambers.append(Chamber(region=_region(cell, generators, qdim),
                                    active=active, sample=sample))
    chambers.sort(key=lambda ch: ch.region.rows)
    return chambers


def _arrangement_cells(base, qdim, hyperplanes):
    """The full-dimensional cells of Q = base cut by the hyperplanes, each
    with the generators of its homogenized cone and its side mask.

    Returns (rows, generators, side) triples, or [] when Q is not
    full-dimensional.  rows is a list of (g, h) rows g . q <= h, in the
    order the splits made them, and generators = (lines, rays, masks)
    is polytope._generators of _homogenized_rows(rows, qdim), up to the
    order of the rays.  A full-dimensional cell meets the open side
    g . q < h exactly when some generator z has (g, -h) . z < 0, a line
    counting with both signs, so the hyperplane splits the cell when
    its values have both signs.  Each side's generators then come from
    one polytope._cut.  Bit j of side is set when the cell lies on the
    side g . q <= h of hyperplanes[j]: the side that a split gives it,
    or else the side of all its rays, which some ray takes strictly.
    _split_tree repeats these splits over the final chambers alone, by
    their samples, to find a point's chamber.
    """
    cone = _generators(_homogenized_rows(base, qdim))
    if len(_first_basis(cone[0] + cone[1])) <= qdim:
        return []
    cells = [(base, cone, 0)]
    for j, (g, h) in enumerate(hyperplanes):
        n = _homogenized(g, h)
        flip = tuple(-x for x in n)
        below = 1 << j
        next_cells = []
        for cell, cone, side in cells:
            lines, rays, _ = cone
            vals = [sum(map(mul, n, r)) for r in rays]
            if (any(sum(map(mul, n, line)) for line in lines)
                    or min(vals) < 0 < max(vals)):
                bit = 2 << len(cell)
                next_cells.append((cell + [(g, h)], _cut(cone, n, bit),
                                   side | below))
                next_cells.append((cell + [(tuple(-x for x in g), -h)],
                                   _cut(cone, flip, bit), side))
            else:
                next_cells.append((cell, cone,
                                   side | below if min(vals) < 0 else side))
        cells = next_cells
    return cells


def _activity_masks(vertices, hyperplanes):
    """(le, ge) for each vertex: the bits j of the hyperplanes whose
    side g . q <= h, respectively g . q >= h, each of its activity rows
    is (_oriented).  A cell whose side mask (_arrangement_cells) holds
    every bit of le and none of ge lies in the vertex's activity region,
    and only then: it lies on one side of every hyperplane."""
    bits = {plane: 1 << j for j, plane in enumerate(hyperplanes)}
    masks = []
    for v in vertices:
        le = ge = 0
        for g, h, _ in v.activity.rows:
            plane = _oriented(g, h)
            if plane == (g, h):
                le |= bits[plane]
            else:
                ge |= bits[plane]
        masks.append((le, ge))
    return masks


def _oriented(g, h):
    """The hyperplane g . q = h, g nonzero, with the first nonzero entry
    of g positive, so that each hyperplane has one key."""
    if next(x for x in g if x) > 0:
        return g, h
    return tuple(-x for x in g), -h


def _homogenized(g, h):
    """The row g . q <= h, g integral, as the integer normal of
    (g, -h) . (q, t) <= 0."""
    den = h.denominator
    return (*(den * x for x in g), -h.numerator)


def _homogenized_rows(rows, p):
    """The normals of the homogenized cone of the rows (g, h), g . q <= h,
    {(q, t) : g . q - h t <= 0 for each row, t >= 0} in R^(p + 1).

    t >= 0 comes first, so bit 0 of a generator's mask is t >= 0 and
    bit i + 1 is rows[i].
    """
    return [(0,) * p + (-1,)] + [_homogenized(g, h) for g, h in rows]


def _region(rows, generators, p):
    """The closed region of the rows (g, h), g . q <= h with g integral,
    with only its facet rows, for a full-dimensional region in R^p.

    generators are those of the region's homogenized cone
    (_generators of _homogenized_rows(rows, p)).  A row is a facet
    exactly when the generators tight on it, the lines and the rays
    whose mask holds the row, have rank p.  Rows on one facet resolve
    the way an LP redundancy pass in row order does: exact duplicates
    keep the first, rescaled copies (equal _row_key keys) keep the
    last.  Rows with one key are positive multiples of each other, so
    their normals tell them apart.
    """
    lines, rays, masks = generators
    facets = {}  # _row_key -> {normal: (first position, row)} in row order
    for i, row in enumerate(rows):
        tight = lines + [r for r, z in zip(rays, masks) if z >> (i + 1) & 1]
        if len(tight) >= p and len(_first_basis(tight)) == p:
            facets.setdefault(_row_key(*row), {}).setdefault(row[0], (i, row))
    kept = sorted(next(reversed(copies.values())) for copies in facets.values())
    return HalfOpenPolyhedron(rows=tuple((g, h, False) for _, (g, h) in kept))


def _row_key(g, h):
    """The row g . q <= h, g integral and nonzero, as integers
    (g', num, den): g' = g / gcd(g) and num / den = h / gcd(g) in lowest
    terms.  Rows share a key exactly when they are positive multiples of
    each other, and a primitive row is keyed without Fraction arithmetic."""
    common = gcd(*g)
    if common > 1:
        g, h = tuple(x // common for x in g), Fraction(h, common)
    return g, h.numerator, h.denominator


def _walls(chambers):
    """The _row_key keys of the closed chambers' rows.

    An opened row (g, h) is a wall when _row_key(-g, -h) is a key.
    The chambers are the full-dimensional cells of one hyperplane
    arrangement inside Q, and their closures cover a convex set, the
    closure of {q in Q : P_q full-dimensional}, which is a projection.
    So if any chamber lies beyond a hyperplane, chambers lie directly
    beyond every relative-interior point of every facet on it.  Keys
    are compared because Q's rows are not made primitive.
    """
    return {_row_key(g, h) for ch in chambers for g, h, _ in ch.region.rows}


def _opening(chambers, y_q=None):
    """(y_q, walls) that open both the chambers and the activity regions:
    y_q, or else the first chamber's sample, moved off the rows of every
    chamber and of every vertex active on one, which are all the vertices
    (halfopen.perturbed_direction), and _walls(chambers)."""
    regions = [ch.region for ch in chambers]
    # each vertex once, by identity: hashing a vertex hashes all its fields
    active = {id(v): v for ch in chambers for v in ch.active}
    regions += [v.activity for v in active.values()]
    seed = y_q if y_q is not None else chambers[0].sample
    y_q = perturbed_direction(seed, identity(len(seed)),
                              [g for region in regions for g, _, _ in region.rows])
    return y_q, _walls(chambers)


def _halfopen_region(region, y_q, walls):
    """Open the region's wall facets against y_q; keep outer facets closed.

    A facet is a wall when a chamber lies directly beyond it (_walls);
    walls that exactify opens against y_q become strict, so each wall
    point stays in exactly one of the adjacent regions.
    """
    opened = exactify([g for g, _, _ in region.rows], y_q)
    return HalfOpenPolyhedron(rows=tuple(
        (g, h, strict and _row_key(tuple(-x for x in g), -h) in walls)
        for (g, h, _), strict in zip(region.rows, opened)))


def _open_chambers(chambers, y_q, walls):
    return [Chamber(region=_halfopen_region(ch.region, y_q, walls),
                    active=ch.active, sample=ch.sample) for ch in chambers]


def halfopen_chambers(chambers, y_q=None):
    """Half-open chambers that partition the union of the closed chambers.

    Returns one Chamber per input chamber, with the same active vertices
    and sample and a region whose wall rows may be strict.  Every
    parameter point in any chamber closure lands in exactly one
    half-open chamber.  y_q must not be orthogonal to any wall normal;
    it is repaired by perturbation when it is (_opening).
    """
    if not chambers:
        return []
    return _open_chambers(chambers, *_opening(chambers, y_q))


def halfopen_activity_regions(vertices, chambers, y_q=None):
    """Half-open activity regions consistent with the half-open chambers.

    Under the same direction y_q, a parameter point q lies in the
    half-open activity region of exactly the vertices active on the
    half-open chamber containing q.  Returns (vertex, region) pairs.
    Each vertex is active in some chamber, so chambers is not empty.
    """
    if not vertices:
        return []
    y_q, walls = _opening(chambers, y_q)
    return [(v, _halfopen_region(v.activity, y_q, walls)) for v in vertices]


def _split_tree(chambers, walls, y_q):
    """The chambers' split tree: nested (n, up, below, above) nodes with
    chamber indices at the leaves, or None without chambers.  walls is
    _walls(chambers), the keys of the chambers' facet rows.

    The chambers are full-dimensional cells of one hyperplane arrangement
    cut from Q, so each lies on one side of every hyperplane, the side its
    sample is strictly on, and any two are separated by a facet hyperplane
    of either one.  Splitting them by their own facet hyperplanes in
    sorted order, as _arrangement_cells splits Q, with a node wherever a
    hyperplane separates chambers, therefore ends in one chamber per leaf.
    A node holds the integer row n = _homogenized(g, h) of g . q <= h
    (_oriented): the chambers below it have n . (z, D) < 0 at their
    samples z / D, those above > 0.  A point on the hyperplane goes to the
    side that q + eps y_q lies in first, above when up = g . y_q > 0, the
    rule exactify uses to open the walls, and then to the other side
    (ParametricAnalysis._chamber_at).  Q's rows and cells without a
    chamber separate no chambers and get no node.
    """
    if not chambers:
        return None
    hyperplanes = sorted({_oriented(g, Fraction(num, den))
                          for g, num, den in walls})
    points = [(*z, D) for D, z in (_int_row(ch.sample) for ch in chambers)]

    def split(ks, i):
        for j in range(i, len(hyperplanes)):
            g, h = hyperplanes[j]
            n = _homogenized(g, h)
            below, above = sides = [], []
            for k in ks:
                sides[sum(map(mul, n, points[k])) > 0].append(k)
            if below and above:
                return (n, dot(g, y_q) > 0, split(below, j + 1), split(above, j + 1))
        (k,) = ks
        return k

    return split(range(len(chambers)), 0)


def _integer_map(vertex):
    """v(q) = M q + c as (M', c', m) with M = M' / m and c = c' / m."""
    width = len(vertex.map_M[0]) + 1
    m, ints = _int_row([x for row, c in zip(vertex.map_M, vertex.map_c)
                        for x in (*row, c)])
    rows = [ints[i:i + width] for i in range(0, len(ints), width)]
    return tuple(tuple(r[:-1]) for r in rows), tuple(r[-1] for r in rows), m


@dataclass(frozen=True)
class _CompiledChamber:
    mu: tuple  # the direction of its programs
    programs: tuple  # one shared CompiledLeaves per active vertex
    leaves: CompiledSum  # their sum
    stats: tuple  # (num_vertices, num_cones, max_depth)


class ParametricAnalysis:
    """Precomputed chambers, half-open regions, and cone decompositions.

    Evaluation through the chambers is compiled: q is found by an exact
    search of the chambers' split tree (_split_tree), which tests the
    int_rows of the half-open chambers it reaches (_chamber_at), and the
    chamber becomes a _CompiledChamber on the first evaluation that lands
    in it.  The chamber picks its direction mu from its active vertices'
    leaf rays, the first generic_directions of their union, found from
    one memoized answer per (vertex, candidate) (_is_generic).  Each
    active vertex's leaves at its integer map are compiled once per
    (vertex, mu) into a program (_program) that every chamber under mu
    with that vertex active shares; the chamber counts as the
    CompiledSum of its programs.
    Compiling rounds the facets that do not move with q and tabulates
    each leaf whose grid of residue cells has at most max_index cells
    (rows of several moving facets are filled on first use), so an
    evaluation does only the work that depends on q.  Every chamber
    region is a cell cut from Q's rows, with only redundant rows removed
    and walls opened, so it lies inside Q, and this route runs no Q
    test.  Evaluation through the activity regions tests Q, finds the
    active vertices by their half-open activity regions, takes their
    values at q as Fractions, and counts their leaves there with
    count_leaves.  Both routes count with CompiledLeaves under the same
    mu, so they differ only in how they find the region and the vertex
    values and in how they add up the vertices' shares, and the second
    checks the first on those.  Decompositions are cached by the
    vertex's position in self.vertices, and programs by (position, mu).
    A max_index below 1 raises ValueError before anything is computed.
    """

    def __init__(self, pp: ParametricPolytope,
                 max_index: int = DEFAULT_MAX_INDEX):
        _check_max_index(max_index)
        # qset and qdim, not pp: pp caches this analysis, and a reference
        # back would make a cycle that outlives pp until a full collection
        self.qset, self.qdim, self.dim = pp.qset, pp.qdim, pp.dim
        self.max_index = max_index
        self.vertices = enumerate_parametric_vertices(pp)
        self.chambers = chambers_max_dim(self.vertices, pp.qset, qdim=pp.qdim)
        # no chambers means no vertices: each vertex is active in one
        self.y_q, walls = (_opening(self.chambers) if self.chambers
                           else (None, set()))
        self.open_chambers = _open_chambers(self.chambers, self.y_q, walls)
        self.open_activities = [(v, _halfopen_region(v.activity, self.y_q, walls))
                                for v in self.vertices]
        # decompositions by position in self.vertices, which keeps each
        # vertex alive, so that no lookup hashes a vertex's fields
        self._decomps = {}
        self._position = {id(v): i for i, v in enumerate(self.vertices)}
        self._chamber_rows = [ho.region.int_rows for ho in self.open_chambers]
        self._tree = _split_tree(self.chambers, walls, self.y_q)
        self._generic = {}  # (position, M) -> whether M suits its leaf rays
        self._programs = {}  # (position, mu) -> CompiledLeaves
        self._denominators = {}  # mu -> the one denominator of its programs
        self._compiled = {}  # chamber index -> _CompiledChamber

    def _decomposition(self, i):
        """(leaves, depth): the signed half-open low-index leaves of the
        cone of self.vertices[i] at apex 0, and the depth of their
        decomposition."""
        if i not in self._decomps:
            stats = {}
            result = signed_decompose(self.vertices[i].cone,
                                      max_index=self.max_index, stats=stats)
            self._decomps[i] = (result.terms, stats["max_depth"])
        return self._decomps[i]

    def _program(self, i, mu):
        """The CompiledLeaves of self.vertices[i]'s leaves at its
        _integer_map under the direction mu, compiled once per (i, mu).

        Every program under mu counts over self._denominators[mu], the
        lcm of their own denominators, so a chamber's programs add up
        with no scale (CompiledSum).  A program whose denominator does
        not divide it raises it: the programs under mu are rescaled and
        the compiled chambers under mu summed again."""
        key = (i, mu)
        if key not in self._programs:
            program = CompiledLeaves(
                [self._decomposition(i)[0]], [_integer_map(self.vertices[i])],
                max_index=self.max_index, mu=mu)
            old = self._denominators.get(mu, 1)
            common = self._denominators[mu] = lcm(old, program.denominator)
            if common != old:
                for (_, nu), other in self._programs.items():
                    if nu == mu:
                        other.rescale(common // old)
                for k, chamber in self._compiled.items():
                    if chamber.mu == mu:
                        self._compiled[k] = replace(
                            chamber, leaves=CompiledSum(chamber.programs))
            if common != program.denominator:
                program.rescale(common // program.denominator)
            self._programs[key] = program
        return self._programs[key]

    def _is_generic(self, i, M):
        """Whether mu = (1, M, M^2, ...) pairs nonzero with every leaf ray
        of self.vertices[i], decided once per (i, M)."""
        key = (i, M)
        if key not in self._generic:
            mu = tuple(M ** j for j in range(self.dim))
            rays = {ray for _, leaf in self._decomposition(i)[0]
                    for ray in leaf.base.rays}
            self._generic[key] = all(dot(mu, ray) != 0 for ray in rays)
        return self._generic[key]

    def _compile(self, k):
        """Chamber k's compiled counting function, made on first use: the
        CompiledSum of its active vertices' programs under the first
        generic direction of all their leaf rays, mu = (1, M, M^2, ...)
        for the least M that is generic for each vertex's rays
        (_is_generic)."""
        if k not in self._compiled:
            positions = [self._position[id(v)] for v in self.open_chambers[k].active]
            decomps = [self._decomposition(i) for i in positions]
            M = 1
            while not all(self._is_generic(i, M) for i in positions):
                M += 1
            mu = tuple(M ** j for j in range(self.dim))
            programs = tuple(self._program(i, mu) for i in positions)
            stats = (len(positions), sum(len(leaves) for leaves, _ in decomps),
                     max(depth for _, depth in decomps))
            self._compiled[k] = _CompiledChamber(
                mu=mu, programs=programs, leaves=CompiledSum(programs), stats=stats)
        return self._compiled[k]

    def _chamber_at(self, z, D):
        """The index of the half-open chamber holding z / D, or None.

        Searches the split tree.  Off a node's hyperplane the point goes
        to its own side; on it, first to the side y_q picks, then to the
        other.  The first leaf whose chamber's rows hold answers.  This is
        exact: each chamber lies on one closed side of every node
        hyperplane, and the half-open chambers are disjoint."""
        zD, node, pending = (*z, D), self._tree, []
        while node is not None:
            while type(node) is tuple:
                n, up, below, above = node
                v = sum(map(mul, n, zD))
                if v == 0:
                    pending.append(below if up else above)
                node = above if v > 0 or (v == 0 and up) else below
            if _rows_hold(self._chamber_rows[node], D, z):
                return node
            node = pending.pop() if pending else None
        return None

    def _count_compiled(self, q0, stats):
        D, z = _int_row(q0)
        k = self._chamber_at(z, D)
        if k is None:
            return None
        chamber = self._compile(k)
        if stats is not None:
            (stats["num_vertices"], stats["num_cones"],
             stats["max_depth"]) = chamber.stats
        return chamber.leaves.count(z, D)

    def _count_activities(self, q0, stats):
        if not self.qset.contains(q0):
            return None
        active = [(i, v) for i, (v, region) in enumerate(self.open_activities)
                  if region.contains(q0)]
        if not active:
            return None
        decomps = [self._decomposition(i) for i, _ in active]
        pairs = [(v.value(q0), leaves) for (_, v), (leaves, _) in zip(active, decomps)]
        if stats is not None:
            stats["num_vertices"] = len(active)
            stats["num_cones"] = sum(len(leaves) for leaves, _ in decomps)
            stats["max_depth"] = max(depth for _, depth in decomps)
        return count_leaves(pairs)

    def count_at(self, q0, via="chambers", stats=None):
        """Exact |P_q0 intersect Z^d|, or 0 outside Q and every chamber.

        via="chambers" finds the half-open chamber containing q0 by a
        search of the split tree and evaluates its compiled counting
        function in integers;
        via="activities" sums count_leaves over the vertices whose
        half-open activity region contains q0.  Both report num_vertices,
        num_cones and max_depth in stats, or stats["outside"] for 0
        outside.  Entries of q0 other than ints and Fractions raise TypeError.
        """
        if len(q0) != self.qdim:
            raise ValueError("parameter dimension mismatch")
        if via == "chambers":
            count = self._count_compiled(q0, stats)
        elif via == "activities":
            count = self._count_activities(q0, stats)
        else:
            raise ValueError(f"unknown evaluation mode: {via}")
        if count is None:
            if stats is not None:
                stats["outside"] = True
            return 0
        return count


def evaluate_count(pp: ParametricPolytope, q0,
                   max_index: int = DEFAULT_MAX_INDEX, stats=None,
                   via="chambers") -> int:
    """Exact |P_q0 intersect Z^d| for one parameter value.

    Returns 0 when q0 lies outside Q or outside every chamber (the
    polytope is empty there); stats["outside"] reports that case.
    """
    return pp.analysis(max_index).count_at(q0, via=via, stats=stats)
