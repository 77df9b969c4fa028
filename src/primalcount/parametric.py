"""Parametric polytopes: vertices, chambers, and counting functions.

A family P_q = {x : A x <= E q + f} over parameters q has finitely many
parametric vertices, each an affine map v(q) = M q + c valid on its
activity region in q-space.  The regions overlap only in walls; cutting
the parameter space along all activity boundaries yields chambers on
which the vertex set is constant.  Making chambers and activity regions
half-open with one shared generic direction gives every parameter point
exactly one evaluation formula, including points on the walls.  On a
chamber only the apexes of the fixed leaf cones move, so that formula is
compiled once per chamber into integer arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .errors import (
    DegenerateConeError,
    NotFullDimensionalError,
    SingularMatrixError,
    UnboundedError,
)
from .genfun import (
    DEFAULT_MAX_INDEX,
    CompiledLeaves,
    count_leaves,
    generic_directions,
    leaf_program,
    leaf_residues,
)
from .halfopen import (
    HalfOpenPolyhedron,
    exactify,
    integral_row,
    perturbed_direction,
    signed_decompose,
)
from .linalg import _int_row, adjugate_int, dot, identity
from .lp import (
    OPTIMAL,
    interior_point,
    lp_feasible,
    lp_maximize,
    remove_redundant,
)
from .polytope import ClosedCone, _homogenized_rays, extreme_rays


class ParametricPolytope:
    """The family {x : A x <= E q + f} with q restricted to a closed set Q."""

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
    cone: ClosedCone  # recession structure at the vertex; None when degenerate

    def value(self, q):
        return tuple(dot(row, q) + c for row, c in zip(self.map_M, self.map_c))


@dataclass(frozen=True)
class Chamber:
    """A chamber: its region in q-space, the vertices active on it and a
    point of its interior.  chambers_max_dim gives closed regions;
    halfopen_chambers gives the same chambers with their walls opened,
    so some region rows may be strict."""

    region: HalfOpenPolyhedron
    active: tuple  # of ParametricVertex
    sample: tuple  # interior point


def _integer_row(g, h):
    """Scale a rational inequality g . q <= h to a primitive integer normal."""
    g, h = integral_row(g, h)
    common = gcd(*g)
    if common > 1:
        return tuple(x // common for x in g), h / common
    return g, h


def enumerate_parametric_vertices(pp: ParametricPolytope):
    """All distinct vertex maps of the family, with activity regions.

    Walks every full-rank d-subset B of rows and solves for the basic
    solution as an affine map of q.  A is integral, so with
    (adj, det) = adjugate_int(A_B) the map is M = adj E_B / det and
    c = adj f_B / det, Fractions in lowest terms, with no rational
    elimination.  Deduplicates identical maps, keeping the first basis,
    keeps the maps feasible somewhere in Q in sorted (M, c) order, and
    attaches the q-independent cone spanned by the rows that are tight
    identically in q.  Raises UnboundedError when the family has a
    recession direction, read off the homogenized cone of {x : A x <= 1}
    without an LP, and NotFullDimensionalError when some vertex map
    forces the polytope into a hyperplane on a full-dimensional part of Q.
    """
    d, p = pp.dim, pp.qdim
    # Every nonempty P_q has the recession cone {A x <= 0} of {A x <= 1},
    # a set with 0 in its interior: bounded exactly when its homogenized
    # cone is pointed and no ray has t = 0.
    rays = _homogenized_rays(pp.A, [1] * len(pp.A))
    if rays is None or any(ray[-1] == 0 for ray in rays):
        raise UnboundedError("polyhedron unbounded")
    seen = {}
    order = []
    for basis in combinations(range(len(pp.A)), d):
        try:
            adj, det_b = adjugate_int([pp.A[i] for i in basis])
        except SingularMatrixError:
            continue
        ecols = list(zip(*(pp.E[i] for i in basis)))
        fsub = [pp.f[i] for i in basis]
        M = tuple(tuple(Fraction(dot(row, col), det_b) for col in ecols)
                  for row in adj)
        c = tuple(dot(row, fsub) / det_b for row in adj)
        key = (M, c)
        if key in seen:
            continue
        seen[key] = basis
        order.append(key)

    vertices = []
    for key in sorted(order):
        M, c = key
        basis = seen[key]
        rows = []
        tight = []
        feasible = True
        for i, (arow, erow, fi) in enumerate(zip(pp.A, pp.E, pp.f)):
            # A_i (M q + c) <= E_i q + f_i as a row in q
            gq = tuple(dot(arow, [M[r][j] for r in range(d)]) - erow[j]
                       for j in range(p))
            rhs = fi - dot(arow, c)
            if all(x == 0 for x in gq):
                if rhs == 0:
                    tight.append(i)
                elif rhs < 0:
                    feasible = False
                    break
                continue
            rows.append(_integer_row(gq, rhs))
        if not feasible:
            continue
        all_rows = [(g, h, False) for g, h in rows] + list(pp.qset.rows)
        A_act = [g for g, h, _ in all_rows]
        b_act = [h for _, h, _ in all_rows]
        if all_rows and not lp_feasible(A_act, b_act):
            continue
        if all_rows:
            A_red, b_red = remove_redundant(A_act, b_act)
            activity = HalfOpenPolyhedron.from_inequalities(A_red, b_red)
        else:
            activity = HalfOpenPolyhedron(rows=())
        normals = [pp.A[i] for i in tight]
        try:
            rays = extreme_rays(normals)
            cone = ClosedCone(apex=(Fraction(0),) * d, rays=tuple(rays),
                              normals=tuple(normals))
        except DegenerateConeError:
            if not all_rows or interior_point(A_act, b_act) is not None:
                raise NotFullDimensionalError(
                    "polyhedron not full-dimensional over a parameter region")
            cone = None
        vertices.append(ParametricVertex(basis=tuple(basis), map_M=M, map_c=c,
                                         activity=activity, cone=cone))
    return vertices


def chambers_max_dim(vertices, qset=None, qdim=None):
    """Maximal-dimension chambers: cells of the activity-boundary arrangement.

    Splits Q along every activity facet hyperplane, keeps the cells that
    are full-dimensional, reads off the set of vertices active on each
    cell interior, and drops cells where no vertex is active (the
    polytope is empty there).  Chambers meet only in their boundaries.

    The cells come from _arrangement_cells, which needs one LP per split
    side that the cell's carried interior point does not settle.  Each
    chamber's sample is a fresh interior_point of its cell's rows, so it
    does not depend on the points carried.
    """
    if qset is None:
        qset = HalfOpenPolyhedron(rows=())
    if qset.rows:
        qdim = len(qset.rows[0][0])
    elif qdim is None:
        if not vertices:
            return []
        qdim = len(next(iter(vertices)).map_M[0]) if vertices[0].map_M else 1

    hyperplanes = set()
    for v in vertices:
        for g, h, _ in v.activity.rows:
            lead = next((x for x in g if x != 0), 0)
            if lead < 0:
                hyperplanes.add((tuple(-x for x in g), -h))
            else:
                hyperplanes.add((g, h))
    hyperplanes = sorted(hyperplanes)

    chambers = []
    for cell in _arrangement_cells([(g, h) for g, h, _ in qset.rows], qdim,
                                   hyperplanes):
        if cell:
            A = [g for g, _ in cell]
            b = [h for _, h in cell]
            sample = interior_point(A, b)
            if sample is None:
                continue
            A, b = remove_redundant(A, b)
            region = HalfOpenPolyhedron.from_inequalities(A, b)
        else:
            sample = (Fraction(0),) * qdim
            region = HalfOpenPolyhedron(rows=())
        active = tuple(v for v in vertices if v.activity.contains(sample))
        if not active:
            continue
        chambers.append(Chamber(region=region, active=active, sample=sample))
    chambers.sort(key=lambda ch: ch.region.rows)
    return chambers


def _arrangement_cells(base, qdim, hyperplanes):
    """The full-dimensional cells of Q = base cut by the hyperplanes.

    Cells are lists of (g, h) rows g . q <= h, in the order the splits
    made them.  Each cell carries an interior point: Q's interior_point,
    or 0 when Q has no rows, and then the point an LP found or the
    parent's.  A split by g . q = h runs the interior_point LP only on
    the sides that point does not already show to have an interior (both
    sides when g . point == h).
    """
    point = (Fraction(0),) * qdim
    if base:
        point = _interior(base)
        if point is None:
            return []
    cells = [(base, point)]
    for g, h in hyperplanes:
        next_cells = []
        for cell, point in cells:
            low = cell + [(g, h)]
            high = cell + [(tuple(-x for x in g), -h)]
            side = dot(g, point) - h
            low_point = point if side < 0 else _interior(low)
            high_point = point if side > 0 else _interior(high)
            if low_point is not None and high_point is not None:
                next_cells.append((low, low_point))
                next_cells.append((high, high_point))
            else:
                next_cells.append((cell, point))
        cells = next_cells
    return [cell for cell, _ in cells]


def _interior(rows):
    """interior_point of the (normal, rhs) rows."""
    return interior_point([g for g, _ in rows], [h for _, h in rows])


def _facet_relint_point(rows, idx):
    """A point in the relative interior of facet idx of a full-dim region."""
    g, h, _ = rows[idx]
    p = len(g)
    # variables (q, t): maximize t with g.q = h, other rows slack >= t, t <= 1
    A, b, c = [], [], [Fraction(0)] * p + [Fraction(1)]
    A.append(tuple(list(g) + [0]))
    b.append(h)
    A.append(tuple([-x for x in g] + [0]))
    b.append(-h)
    for j, (g2, h2, _) in enumerate(rows):
        if j == idx:
            continue
        A.append(tuple(list(g2) + [1]))
        b.append(h2)
    A.append(tuple([0] * p + [1]))
    b.append(Fraction(1))
    status, value, point = lp_maximize(c, A, b)
    if status != OPTIMAL or value <= 0:
        return None
    return tuple(point[:p])


def _is_wall(row, q_f, chambers):
    """Whether crossing this facet from q_f leads into some chamber."""
    g = row[0]
    return any(ch.region.contains_nearby(q_f, g) for ch in chambers)


def _halfopen_region(region, y_q, chambers):
    """Open the region's wall facets against y_q; keep outer facets closed.

    A facet is a wall when a chamber lies directly beyond it; walls that
    exactify opens against y_q become strict, so each wall point stays
    in exactly one of the adjacent regions.  A region without full
    dimension has every row opened by exactify, which empties it.
    """
    rows = region.rows
    if not rows:
        return region
    full_dim = interior_point([g for g, h, _ in rows],
                              [h for _, h, _ in rows]) is not None
    opened = exactify([g for g, _, _ in rows], y_q)
    out = []
    for idx, ((g, h, _), strict) in enumerate(zip(rows, opened)):
        if strict and full_dim:
            q_f = _facet_relint_point(rows, idx)
            strict = q_f is not None and _is_wall((g, h), q_f, chambers)
        out.append((g, h, strict))
    return HalfOpenPolyhedron(rows=tuple(out))


def halfopen_chambers(chambers, y_q=None):
    """Half-open chambers that partition the union of the closed chambers.

    Returns one Chamber per input chamber, with the same active vertices
    and sample and a region whose wall rows may be strict.  Every
    parameter point in any chamber closure lands in exactly one
    half-open chamber.  y_q must not be orthogonal to any wall normal;
    it is repaired by perturbation when it is.
    """
    if not chambers:
        return []
    normals = [g for ch in chambers for g, h, _ in ch.region.rows]
    seed = y_q if y_q is not None else chambers[0].sample
    y_q = perturbed_direction(seed, identity(len(seed)), normals)
    out = []
    for ch in chambers:
        region = _halfopen_region(ch.region, y_q, chambers)
        out.append(Chamber(region=region, active=ch.active, sample=ch.sample))
    return out


def halfopen_activity_regions(vertices, chambers, y_q=None):
    """Half-open activity regions consistent with the half-open chambers.

    Under the same direction y_q, a parameter point q lies in the
    half-open activity region of exactly the vertices active on the
    half-open chamber containing q.  Returns (vertex, region) pairs.
    """
    if not vertices:
        return []
    if not chambers:
        # No full-dimensional chamber: nothing may be kept anywhere.
        p = len(vertices[0].map_M[0])
        never = HalfOpenPolyhedron(rows=(((0,) * p, Fraction(-1), False),))
        return [(v, never) for v in vertices]
    normals = [g for ch in chambers for g, h, _ in ch.region.rows]
    normals += [g for v in vertices for g, h, _ in v.activity.rows]
    seed = y_q if y_q is not None else chambers[0].sample
    y_q = perturbed_direction(seed, identity(len(seed)), normals)
    return [(v, _halfopen_region(v.activity, y_q, chambers)) for v in vertices]


def _integer_rows(region):
    """A region's rows g . q <= h as (g * den(h), num(h), strict).

    At q = z / D with integer z and D > 0 the row holds iff
    g' . z <= h' * D (< when strict), so membership needs no Fraction.
    """
    return tuple((tuple(x * h.denominator for x in g), h.numerator, strict)
                 for g, h, strict in region.rows)


def _contains_scaled(rows, z, D):
    for g, h, strict in rows:
        v = sum(map(mul, g, z))
        rhs = h * D
        if v > rhs or (strict and v == rhs):
            return False
    return True


def _integer_map(vertex):
    """v(q) = M q + c as (M', c', m) with M = M' / m and c = c' / m."""
    width = len(vertex.map_M[0]) + 1
    m, ints = _int_row([x for row, c in zip(vertex.map_M, vertex.map_c)
                        for x in (*row, c)])
    rows = [ints[i:i + width] for i in range(0, len(ints), width)]
    return tuple(tuple(r[:-1]) for r in rows), tuple(r[-1] for r in rows), m


@dataclass(frozen=True)
class _CompiledChamber:
    maps: tuple  # per active vertex, _integer_map
    leaves: CompiledLeaves  # one group of leaves per active vertex
    stats: tuple  # (num_vertices, num_cones, max_depth)


class ParametricAnalysis:
    """Precomputed chambers, half-open regions, and cone decompositions.

    Evaluation through the chambers is compiled: every half-open chamber
    and Q keep their rows as integers (_integer_rows), and a chamber's
    active vertex maps and leaves become a _CompiledChamber on the first
    evaluation that lands in it.  Evaluation through the activity regions
    stays on Fractions, count_leaves and the generating-function terms,
    as an independent check of the compiled route.
    """

    def __init__(self, pp: ParametricPolytope,
                 max_index: int = DEFAULT_MAX_INDEX):
        # qset and qdim, not pp: pp caches this analysis, and a reference
        # back would make a cycle that outlives pp until a full collection
        self.qset, self.qdim = pp.qset, pp.qdim
        self.max_index = max_index
        self.vertices = enumerate_parametric_vertices(pp)
        self.chambers = chambers_max_dim(self.vertices, pp.qset, qdim=pp.qdim)
        wall_normals = [g for ch in self.chambers for g, h, _ in ch.region.rows]
        act_normals = [g for v in self.vertices for g, h, _ in v.activity.rows]
        if self.chambers:
            seed = self.chambers[0].sample
            self.y_q = perturbed_direction(seed, identity(len(seed)),
                                           wall_normals + act_normals)
        else:
            self.y_q = None
        self.open_chambers = halfopen_chambers(self.chambers, self.y_q)
        self.open_activities = halfopen_activity_regions(self.vertices,
                                                         self.chambers, self.y_q)
        self._decomps = {}
        self._residues = {}
        self._programs = {}
        self._qset_rows = _integer_rows(pp.qset)
        self._chamber_rows = [_integer_rows(ho.region) for ho in self.open_chambers]
        self._compiled = {}

    def _decomposition(self, vertex: ParametricVertex):
        """(leaves, depth): the signed half-open low-index leaves of the
        vertex cone at apex 0, and the depth of their decomposition."""
        if vertex not in self._decomps:
            stats = {}
            result = signed_decompose(vertex.cone, max_index=self.max_index,
                                      stats=stats)
            self._decomps[vertex] = (result.terms, stats["max_depth"])
        return self._decomps[vertex]

    def _program(self, vertex, direction):
        """leaf_program of the vertex's leaves, once per direction; the
        leaves' residue points are computed once per vertex."""
        key = (vertex, direction)
        if key not in self._programs:
            leaves, _ = self._decomposition(vertex)
            if vertex not in self._residues:
                self._residues[vertex] = [leaf_residues(leaf) for _, leaf in leaves]
            self._programs[key] = leaf_program(leaves, self._residues[vertex],
                                               direction)
        return self._programs[key]

    def _compile(self, k):
        if k not in self._compiled:
            active = self.open_chambers[k].active
            decomps = [self._decomposition(v) for v in active]
            direction = next(generic_directions(
                {ray for leaves, _ in decomps for _, leaf in leaves
                 for ray in leaf.base.rays}))
            leaves = CompiledLeaves([self._program(v, direction) for v in active])
            stats = (len(active), sum(len(leaves) for leaves, _ in decomps),
                     max(depth for _, depth in decomps))
            self._compiled[k] = _CompiledChamber(
                maps=tuple(_integer_map(v) for v in active), leaves=leaves,
                stats=stats)
        return self._compiled[k]

    def _count_compiled(self, q0, stats):
        D, z = _int_row(q0)
        if not _contains_scaled(self._qset_rows, z, D):
            return None
        k = next((k for k, rows in enumerate(self._chamber_rows)
                  if _contains_scaled(rows, z, D)), None)
        if k is None:
            return None
        chamber = self._compile(k)
        apexes = [(tuple(sum(map(mul, row, z)) + D * ci for row, ci in zip(M, c)),
                   m * D) for M, c, m in chamber.maps]
        if stats is not None:
            (stats["num_vertices"], stats["num_cones"],
             stats["max_depth"]) = chamber.stats
        return chamber.leaves.count(apexes)

    def _count_activities(self, q0, stats):
        if not self.qset.contains(q0):
            return None
        active = tuple(v for v, region in self.open_activities
                       if region.contains(q0))
        if not active:
            return None
        decomps = [self._decomposition(v) for v in active]
        pairs = [(v.value(q0), leaves) for v, (leaves, _) in zip(active, decomps)]
        if stats is not None:
            stats["num_vertices"] = len(active)
            stats["num_cones"] = sum(len(leaves) for leaves, _ in decomps)
            stats["max_depth"] = max(depth for _, depth in decomps)
        return count_leaves(pairs)

    def count_at(self, q0, via="chambers", stats=None):
        """Exact |P_q0 intersect Z^d|, or 0 outside Q and every chamber.

        via="chambers" finds the first half-open chamber containing q0
        and evaluates its compiled counting function in integers;
        via="activities" sums count_leaves over the vertices whose
        half-open activity region contains q0.  Both report num_vertices,
        num_cones and max_depth in stats, or stats["outside"] for 0
        outside.
        """
        q0 = tuple(Fraction(x) for x in q0)
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
