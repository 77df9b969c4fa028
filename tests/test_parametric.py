"""Parametric vertices, chambers, and counting-function evaluation."""

import gc
import importlib.util
import random
import tracemalloc
from functools import cache
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest

from primalcount import genfun, linalg, lp, parametric
from primalcount.cli import parse_parametric
from primalcount.errors import (
    DegenerateConeError,
    NotFullDimensionalError,
    SingularMatrixError,
    UnboundedError,
)
from primalcount.genfun import count_leaves, count_polytope
from primalcount.halfopen import HalfOpenPolyhedron, exactify, signed_decompose
from primalcount.lp import OPTIMAL, interior_point, lp_maximize
from primalcount.oracle import brute_count
from primalcount.parametric import (
    ParametricAnalysis,
    ParametricPolytope,
    ParametricVertex,
    chambers_max_dim,
    enumerate_parametric_vertices,
    evaluate_count,
    halfopen_activity_regions,
    halfopen_chambers,
)
from primalcount.polytope import (
    ClosedCone,
    HPolytope,
    _generators,
    enumerate_vertices,
    extreme_rays,
)

from lp_reference import (
    cells_and_sides_reference,
    cells_reference,
    cells_with_generators,
    lp_route,
    region_reference,
    remove_redundant,
)


def interval_family():
    """P_q = {x : 0 <= x, 2x <= q + 6, x <= q} over q >= 0."""
    return ParametricPolytope(
        A=[[-1], [2], [1]],
        E=[[0], [1], [1]],
        f=[0, 6, 0],
        qset=HalfOpenPolyhedron.from_inequalities([[-1]], [0]),
    )


def min_family():
    """P_q = {x : 0 <= x <= min(q1, q2)} over q1, q2 >= 0."""
    return ParametricPolytope(
        A=[[-1], [1], [1]],
        E=[[0, 0], [1, 0], [0, 1]],
        f=[0, 0, 0],
        qset=HalfOpenPolyhedron.from_inequalities([[-1, 0], [0, -1]], [0, 0]),
    )


def region_set(region, points):
    return {p for p in points if region.contains((Fraction(p),))}


class TestEnumerateParametricVertices:
    def test_interval_family_maps(self):
        verts = enumerate_parametric_vertices(interval_family())
        maps = {(v.map_M[0][0], v.map_c[0]) for v in verts}
        assert maps == {(Fraction(0), Fraction(0)),
                        (Fraction(1, 2), Fraction(3)),
                        (Fraction(1), Fraction(0))}

    def test_interval_family_activity_regions(self):
        verts = enumerate_parametric_vertices(interval_family())
        by_map = {(v.map_M[0][0], v.map_c[0]): v for v in verts}
        pts = range(-3, 10)
        zero = by_map[(Fraction(0), Fraction(0))]
        mid = by_map[(Fraction(1, 2), Fraction(3))]
        diag = by_map[(Fraction(1), Fraction(0))]
        assert region_set(zero.activity, pts) == set(range(0, 10))
        assert region_set(mid.activity, pts) == set(range(6, 10))
        assert region_set(diag.activity, pts) == set(range(0, 7))

    def test_vertex_value(self):
        verts = enumerate_parametric_vertices(interval_family())
        values = sorted(v.value((Fraction(8),))[0] for v in verts)
        assert values == [0, Fraction(7), Fraction(8)]

    def test_cones_are_q_independent(self):
        verts = enumerate_parametric_vertices(interval_family())
        for v in verts:
            assert v.cone is not None
            assert v.cone.apex == (Fraction(0),)
            assert len(v.cone.rays) == 1

    def test_unbounded_family_rejected(self):
        with pytest.raises(UnboundedError):
            enumerate_parametric_vertices(ParametricPolytope(
                A=[[1, 0], [0, 1]], E=[[1], [1]], f=[0, 0]))

    def test_family_with_a_line_rejected(self):
        # -q <= x <= q leaves y free: the recession cone is a line
        with pytest.raises(UnboundedError):
            enumerate_parametric_vertices(ParametricPolytope(
                A=[[1, 0], [-1, 0]], E=[[1], [1]], f=[0, 0]))

    def test_always_lower_dimensional_family_rejected(self):
        # x <= q and -x <= -q pin x = q on a full-dimensional q-region.
        with pytest.raises(NotFullDimensionalError):
            enumerate_parametric_vertices(ParametricPolytope(
                A=[[1], [-1], [1], [-1]],
                E=[[1], [-1], [0], [0]],
                f=[0, 0, 5, 0]))

    def test_thin_activity_degenerate_vertex_dropped(self):
        # x = q is forced, and x = 0 as well, so every vertex map is
        # feasible only at q = 0: no map has a full-dimensional activity
        # region, so none is kept and no chamber exists.
        pp = ParametricPolytope(
            A=[[1], [-1], [1], [-1]],
            E=[[1], [-1], [0], [0]],
            f=[0, 0, 0, 0])
        verts = enumerate_parametric_vertices(pp)
        assert verts == []
        assert chambers_max_dim(verts, pp.qset, qdim=1) == []
        stats = {}
        assert evaluate_count(pp, [0], stats=stats) == 0
        assert stats.get("outside") is True

    def test_zero_parameter_row_rejected(self):
        for g, h in (((0,), 0), ((0,), 5), ((0,), -1)):
            with pytest.raises(ValueError, match="zero row in parameter set"):
                ParametricPolytope(
                    A=[[-1], [1]], E=[[0], [1]], f=[0, 0],
                    qset=HalfOpenPolyhedron.from_inequalities([[-1], g], [0, h]))

    def test_deduplicates_bases_with_equal_maps(self):
        # Rows 1 and 2 define the same vertex map x = q.
        pp = ParametricPolytope(
            A=[[-1], [1], [2]],
            E=[[0], [1], [2]],
            f=[0, 0, 0])
        verts = enumerate_parametric_vertices(pp)
        assert len(verts) == 2


class TestChambers:
    def test_interval_family_chambers(self):
        pp = interval_family()
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        assert len(chambers) == 2
        pts = range(-2, 13)
        sets = sorted((region_set(ch.region, pts) for ch in chambers),
                      key=min)
        assert sets[0] == set(range(0, 7))
        assert sets[1] == set(range(6, 13))
        for ch in chambers:
            assert len(ch.active) == 2

    def test_single_chamber_when_no_walls(self):
        # Unit square scaled by q: vertex activities all equal Q.
        pp = ParametricPolytope(
            A=[[-1, 0], [1, 0], [0, -1], [0, 1]],
            E=[[0], [1], [0], [1]],
            f=[0, 0, 0, 0],
            qset=HalfOpenPolyhedron.from_inequalities([[-1]], [0]))
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        assert len(chambers) == 1
        assert len(chambers[0].active) == 4

    def test_min_family_two_chambers(self):
        pp = min_family()
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        assert len(chambers) == 2
        actives = sorted(len(ch.active) for ch in chambers)
        assert actives == [2, 2]

    def test_empty_parameter_set(self):
        pp = ParametricPolytope(
            A=[[-1], [1]], E=[[0], [1]], f=[0, 0],
            qset=HalfOpenPolyhedron.from_inequalities([[1], [-1]], [-1, 0]))
        verts = enumerate_parametric_vertices(pp)
        assert chambers_max_dim(verts, pp.qset) == []


class TestHalfOpenChambers:
    def test_interval_family_partition(self):
        pp = interval_family()
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        halfopen = halfopen_chambers(chambers, y_q=(Fraction(1),))
        pts = [Fraction(k, 2) for k in range(-4, 30)]
        for q in pts:
            owners = [ho for ho in halfopen if ho.region.contains((q,))]
            if q < 0:
                assert owners == []
            else:
                assert len(owners) == 1

    def test_interval_family_boundary_assignment(self):
        pp = interval_family()
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        halfopen = halfopen_chambers(chambers, y_q=(Fraction(1),))
        low = next(ho for ho in halfopen if ho.region.contains((Fraction(3),)))
        high = next(ho for ho in halfopen if ho.region.contains((Fraction(9),)))
        assert low.region.contains((Fraction(0),))
        assert not low.region.contains((Fraction(6),))
        assert high.region.contains((Fraction(6),))

    def test_direction_flip_moves_the_wall(self):
        pp = interval_family()
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        halfopen = halfopen_chambers(chambers, y_q=(Fraction(-1),))
        low = next(ho for ho in halfopen if ho.region.contains((Fraction(3),)))
        high = next(ho for ho in halfopen if ho.region.contains((Fraction(9),)))
        assert low.region.contains((Fraction(6),))
        assert not high.region.contains((Fraction(6),))

    def test_min_family_diagonal_partition(self):
        pp = min_family()
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        halfopen = halfopen_chambers(chambers)
        pts = [(Fraction(a), Fraction(b))
               for a in range(0, 6) for b in range(0, 6)]
        for q in pts:
            owners = [ho for ho in halfopen if ho.region.contains(q)]
            assert len(owners) == 1, q


class TestHalfOpenActivityRegions:
    def test_interval_family_regions(self):
        pp = interval_family()
        verts = enumerate_parametric_vertices(pp)
        chambers = chambers_max_dim(verts, pp.qset)
        pairs = halfopen_activity_regions(verts, chambers, y_q=(Fraction(1),))
        by_map = {(v.map_M[0][0], v.map_c[0]): region for v, region in pairs}
        pts = range(-2, 10)
        zero = by_map[(Fraction(0), Fraction(0))]
        mid = by_map[(Fraction(1, 2), Fraction(3))]
        diag = by_map[(Fraction(1), Fraction(0))]
        assert region_set(zero, pts) == set(range(0, 10))
        assert region_set(mid, pts) == set(range(6, 10))
        assert region_set(diag, pts) == set(range(0, 6))  # q = 6 excluded

    def test_agreement_with_chambers_everywhere(self):
        pp = interval_family()
        analysis = pp.analysis()
        pts = [Fraction(k, 3) for k in range(0, 40)]
        for q in pts:
            chamber = next(ho for ho in analysis.open_chambers
                           if ho.region.contains((q,)))
            from_chamber = {id(v) for v in chamber.active}
            from_activity = {id(v) for v, region in analysis.open_activities
                             if region.contains((q,))}
            assert from_chamber == from_activity, q

    def test_min_family_agreement_on_grid(self):
        pp = min_family()
        analysis = pp.analysis()
        pts = [(Fraction(a, 2), Fraction(b, 2))
               for a in range(0, 9) for b in range(0, 9)]
        for q in pts:
            chamber = next(ho for ho in analysis.open_chambers
                           if ho.region.contains(q))
            from_chamber = {id(v) for v in chamber.active}
            from_activity = {id(v) for v, region in analysis.open_activities
                             if region.contains(q)}
            assert from_chamber == from_activity, q


class TestEvaluateCount:
    def test_interval_family_counts(self):
        pp = interval_family()
        got = [evaluate_count(pp, [q]) for q in range(0, 13)]
        assert got == [1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 9, 9, 10]

    def test_interval_family_counts_via_activities(self):
        pp = interval_family()
        got = [evaluate_count(pp, [q], via="activities") for q in range(0, 13)]
        assert got == [1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 9, 9, 10]

    def test_interval_family_with_decomposition(self):
        pp = interval_family()
        got = [evaluate_count(pp, [q], max_index=10) for q in range(0, 13)]
        assert got == [1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 9, 9, 10]

    def test_outside_parameter_set(self):
        pp = interval_family()
        stats = {}
        assert evaluate_count(pp, [-1], stats=stats) == 0
        assert stats["outside"] is True

    def test_matches_direct_count_when_parameter_free(self):
        polys = [
            ([[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 5, 4]),
            ([[-1, 0], [0, -1], [1, 1]], [0, 0, 7]),
            ([[-1, 0], [0, -1], [2, 3]], [1, 2, 12]),
        ]
        for A, b in polys:
            pp = ParametricPolytope(
                A=A, E=[[0]] * len(A), f=b,
                qset=HalfOpenPolyhedron.from_inequalities([[-1], [1]], [0, 1]))
            want = count_polytope(HPolytope(
                A=tuple(tuple(r) for r in A),
                b=tuple(Fraction(x) for x in b)))
            assert evaluate_count(pp, [0]) == want
            assert evaluate_count(pp, [1]) == want

    def test_dilated_triangle(self):
        pp = ParametricPolytope(
            A=[[-1, 0], [0, -1], [1, 1]],
            E=[[0], [0], [1]],
            f=[0, 0, 0],
            qset=HalfOpenPolyhedron.from_inequalities([[-1]], [0]))
        for t in range(0, 11):
            assert evaluate_count(pp, [t]) == (t + 1) * (t + 2) // 2

    def test_dilated_tetrahedron(self):
        pp = ParametricPolytope(
            A=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
            E=[[0], [0], [0], [1]],
            f=[0, 0, 0, 0],
            qset=HalfOpenPolyhedron.from_inequalities([[-1]], [0]))
        for t in range(0, 8):
            assert evaluate_count(pp, [t]) == \
                (t + 1) * (t + 2) * (t + 3) // 6

    def test_min_family_counts(self):
        pp = min_family()
        for a in range(0, 6):
            for b in range(0, 6):
                assert evaluate_count(pp, [a, b]) == min(a, b) + 1

    def test_rectangle_two_parameters(self):
        pp = ParametricPolytope(
            A=[[-1, 0], [1, 0], [0, -1], [0, 1]],
            E=[[0, 0], [1, 0], [0, 0], [0, 1]],
            f=[0, 0, 0, 0],
            qset=HalfOpenPolyhedron.from_inequalities(
                [[-1, 0], [0, -1]], [0, 0]))
        for a in range(0, 5):
            for b in range(0, 5):
                assert evaluate_count(pp, [a, b]) == (a + 1) * (b + 1)

    def test_rational_parameter_values(self):
        pp = interval_family()
        # P_{1/2} = [0, 1/2]: one integer point.
        assert evaluate_count(pp, [Fraction(1, 2)]) == 1
        # P_{13/2} = [0, 25/4]: seven integer points (chamber q >= 6).
        assert evaluate_count(pp, [Fraction(13, 2)]) == 7

    def test_stats_reported(self):
        pp = interval_family()
        stats = {}
        assert evaluate_count(pp, [3], stats=stats) == 4
        assert stats["num_vertices"] == 2
        assert stats["num_cones"] >= 2

    def test_stats_do_not_depend_on_earlier_evaluations(self):
        # x >= 0 and five rows a.x <= e.q + f over q >= 0: vertex cones of
        # different decomposition depths are active at different q.  Depths
        # differ only when cones are decomposed to unimodular leaves.
        def family():
            return ParametricPolytope(
                A=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 2, 3], [3, 2, 1],
                   [1, 1, 1], [2, 1, 0], [0, 1, 2]],
                E=[[0, 0], [0, 0], [0, 0], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]],
                f=[0, 0, 0, 0, 0, 0, 4, 3],
                qset=HalfOpenPolyhedron.from_inequalities([[-1, 0], [0, -1]], [0, 0]),
            )

        q = (100, 3)
        fresh = {}
        want = evaluate_count(family(), q, max_index=1, stats=fresh)
        warm_pp = family()
        depths = []
        for earlier in ((1, 1), (7, 9)):
            stats = {}
            evaluate_count(warm_pp, earlier, max_index=1, stats=stats)
            depths.append(stats["max_depth"])
        assert max(depths) > fresh["max_depth"]  # a deeper cone came first
        warm = {}
        assert evaluate_count(warm_pp, q, max_index=1, stats=warm) == want
        assert warm == fresh

    def test_parameter_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_count(interval_family(), [1, 2])


class TestRandomFamiliesAgainstEnumeration:
    def test_random_one_parameter_families(self):
        import random

        from primalcount.lp import interior_point
        from primalcount.oracle import brute_count

        rng = random.Random(20240816)
        box = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        for _ in range(25):
            A = list(box)
            E = [[rng.randint(0, 2)] for _ in box]
            f = [rng.randint(1, 6) for _ in box]
            for _ in range(2):
                row = (rng.randint(-3, 3), rng.randint(-3, 3))
                if row == (0, 0):
                    row = (1, 1)
                A.append(row)
                E.append([rng.randint(-2, 2)])
                f.append(rng.randint(-4, 8))
            pp = ParametricPolytope(
                A=A, E=E, f=f,
                qset=HalfOpenPolyhedron.from_inequalities([[-1], [1]], [0, 5]))
            try:
                pp.analysis()
            except NotFullDimensionalError:
                continue
            for q in [Fraction(k, 2) for k in range(0, 11)]:
                b = tuple(Fraction(E[i][0]) * q + f[i] for i in range(len(A)))
                poly = HPolytope(A=tuple(tuple(r) for r in A), b=b)
                want = brute_count(poly)
                stats = {}
                got = evaluate_count(pp, [q], stats=stats)
                if stats.get("outside") and want > 0:
                    # Valid only when the slice carries no interior.
                    assert interior_point(list(poly.A), list(poly.b)) is None
                    continue
                assert got == want, (A, E, f, q)
                assert evaluate_count(pp, [q], via="activities") == want


class TestRepresentationEquivalence:
    def test_interval_family_all_points(self):
        pp = interval_family()
        pts = [Fraction(k, 2) for k in range(0, 30)]
        for q in pts:
            assert evaluate_count(pp, [q]) == \
                evaluate_count(pp, [q], via="activities"), q

    def test_min_family_diagonal(self):
        pp = min_family()
        for a in range(0, 6):
            assert evaluate_count(pp, [a, a]) == \
                evaluate_count(pp, [a, a], via="activities")


class TestRationalRows:
    def test_rational_constraint_row_is_scaled_not_truncated(self):
        # x >= 0 and x / 2 <= q: P_3 = [0, 6] holds 7 integer points.
        pp = ParametricPolytope(A=[[-1], [Fraction(1, 2)]], E=[[0], [1]],
                                f=[0, 0],
                                qset=HalfOpenPolyhedron.from_inequalities([[-1]], [0]))
        assert pp.A == ((-1,), (1,))
        assert pp.E == ((0,), (2,))
        for q in (0, 3, Fraction(7, 2)):
            want = brute_count(HPolytope(A=((-1,), (Fraction(1, 2),)), b=(0, q)))
            assert evaluate_count(pp, [q]) == want
            assert evaluate_count(pp, [q], via="activities") == want
        assert evaluate_count(pp, [3]) == 7

    def test_rational_parameter_row_is_scaled_not_truncated(self):
        # Q: -q / 2 <= -1, that is q >= 2; truncation made it 0 <= -1.
        qset = HalfOpenPolyhedron.from_inequalities([[Fraction(-1, 2)]], [-1])
        assert qset.rows == (((-1,), Fraction(-2), False),)
        pp = ParametricPolytope(A=[[-1], [1]], E=[[0], [1]], f=[0, 0], qset=qset)
        assert [evaluate_count(pp, [q]) for q in (1, 2, 3)] == [0, 3, 4]
        assert [evaluate_count(pp, [q], via="activities") for q in (1, 2, 3)] \
            == [0, 3, 4]

    def test_integer_rows_are_unchanged(self):
        pp = interval_family()
        assert pp.A == ((-1,), (2,), (1,))
        assert pp.f == (0, 6, 0)
        region = HalfOpenPolyhedron.from_inequalities([[2, 0]], [Fraction(7, 2)])
        assert region.rows == (((2, 0), Fraction(7, 2), False),)


# The benchmark's pcount-sweep family (tests/data/sweep_family.txt): x >= 0
# and five rows a.x <= e.q + f over q >= 0, 20 vertex maps, 21 chambers.
SWEEP_A = ((-1, 0, 0), (0, -1, 0), (0, 0, -1),
           (1, 2, 3), (3, 2, 1), (1, 1, 1), (2, 1, 0), (0, 1, 2))
SWEEP_E = ((0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (1, 0), (0, 1))
SWEEP_F = (0, 0, 0, 0, 0, 0, 4, 3)


def sweep_family():
    return ParametricPolytope(
        SWEEP_A, SWEEP_E, SWEEP_F,
        qset=HalfOpenPolyhedron.from_inequalities([[-1, 0], [0, -1]], [0, 0]))


def test_sweep_family_data_file():
    path = Path(__file__).parent / "data" / "sweep_family.txt"
    pp = parse_parametric(path.read_text())
    assert (pp.A, pp.E, pp.f) == (SWEEP_A, SWEEP_E, SWEEP_F)
    assert pp.qset == sweep_family().qset


def sweep_points(seed, count):
    """Small or up to 1e6, integral or rational, a quarter of each."""
    rng = random.Random(seed)
    points = []
    for k in range(count):
        den = rng.choice((2, 3, 5)) if k % 2 else 1
        if k % 4 < 2:
            points.append(tuple(Fraction(rng.randint(0, 24 * den), den)
                                for _ in range(2)))
        else:
            points.append(tuple(Fraction(rng.randint(1, 10 ** 6) * den
                                         + rng.randrange(den), den)
                                for _ in range(2)))
    return points


def rows_hold_fraction(region, q):
    """Membership of q in a half-open region, row by row in Fractions."""
    return all(linalg.dot(g, q) < h if strict else linalg.dot(g, q) <= h
               for g, h, strict in region.rows)


def reference_count(analysis, q, cache):
    """count_leaves over the active vertices of the Fraction-tested chamber."""
    q = tuple(Fraction(x) for x in q)
    if not rows_hold_fraction(analysis.qset, q):
        return 0
    hits = [ho for ho in analysis.open_chambers if rows_hold_fraction(ho.region, q)]
    if not hits:
        return 0
    pairs = []
    for v in hits[0].active:
        if v not in cache:
            cache[v] = signed_decompose(v.cone, max_index=analysis.max_index).terms
        pairs.append((v.value(q), cache[v]))
    return count_leaves(pairs)


def acceptance_families():
    """The acceptance-11 families with wall, negative and outside-Q points."""
    nonneg1 = HalfOpenPolyhedron.from_inequalities([[-1]], [0])
    nonneg2 = HalfOpenPolyhedron.from_inequalities([[-1, 0], [0, -1]], [0, 0])
    rectangle = ParametricPolytope(
        A=[[-1, 0], [1, 0], [0, -1], [0, 1]],
        E=[[0, 0], [1, 0], [0, 0], [0, 1]], f=[0, 0, 0, 0], qset=nonneg2)
    triangle = ParametricPolytope(
        A=[[-1, 0], [0, -1], [1, 1]], E=[[0], [0], [1]], f=[0, 0, 0],
        qset=nonneg1)
    half = [Fraction(k, 2) for k in range(-4, 27)]
    grid = [Fraction(k, 2) for k in range(-3, 12)]
    pairs = [(a, b) for a in grid for b in grid]
    return ((interval_family(), [(q,) for q in half]),
            (min_family(), pairs),
            (rectangle, pairs),
            (triangle, [(q,) for q in half]))


class TestCompiledChambers:
    @pytest.mark.parametrize("max_index", [1, 5])
    def test_sweep_family_matches_both_references(self, max_index):
        analysis = sweep_family().analysis(max_index)
        cache = {}
        for q in sweep_points(max_index, 400):
            got = analysis.count_at(q)
            assert got == reference_count(analysis, q, cache), q
            assert got == analysis.count_at(q, via="activities"), q

    @pytest.mark.parametrize("max_index", [1, 5])
    def test_acceptance_families_match_both_references(self, max_index):
        for pp, points in acceptance_families():
            analysis = pp.analysis(max_index)
            cache = {}
            for q in points:
                got = analysis.count_at(q)
                assert got == reference_count(analysis, q, cache), q
                assert got == analysis.count_at(q, via="activities"), q

    def test_chambers_lie_inside_q(self):
        # The compiled route runs no Q test, so no half-open chamber may
        # hold a point outside Q.
        rng = random.Random(17)
        outside = 0
        for pp in [sweep_family()] + [pp for pp, _ in acceptance_families()]:
            chambers = pp.analysis().open_chambers
            for _ in range(500):
                q = tuple(Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3)))
                          for _ in range(pp.qdim))
                if not pp.qset.contains(q):
                    outside += 1
                    assert not any(ch.region.contains(q) for ch in chambers), q
        assert outside >= 1000

    def test_outside_points_report_outside(self):
        pp = sweep_family()
        for q in [(-1, 2), (Fraction(-1, 2), 3), (5, Fraction(-1, 3))]:
            stats = {}
            assert evaluate_count(pp, q, stats=stats) == 0
            assert stats == {"outside": True}

    def test_stats_match_the_activities_route(self):
        pp = sweep_family()
        for q in [(7, 9), (Fraction(13, 2), 4), (100, 3), (10 ** 6, 3)]:
            compiled, reference = {}, {}
            assert evaluate_count(pp, q, stats=compiled) == \
                evaluate_count(pp, q, stats=reference, via="activities")
            assert compiled == reference

    def test_non_rational_parameters_rejected(self):
        # Floats and strings are not counted at a guessed value: both
        # routes reject them, as polytope and family input do.
        pp = sweep_family()
        for q in [(0.1, 2), ("7/3", "11/3")]:
            for via in ("chambers", "activities"):
                with pytest.raises(TypeError, match="int or Fraction"):
                    evaluate_count(pp, q, via=via)
        assert evaluate_count(pp, (Fraction(7, 3), Fraction(11, 3))) == 3

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluation mode"):
            evaluate_count(interval_family(), [1], via="vertices")

    def test_max_index_below_one_rejected_before_any_work(self):
        # An empty polytope and a point outside Q count 0 without
        # decomposing any cone; max_index is checked first all the same,
        # and no analysis that cannot count is cached.
        empty = HPolytope(A=((1,), (-1,)), b=(-1, 0))
        pp = interval_family()
        for max_index in (0, -3):
            with pytest.raises(ValueError, match="max_index must be at least 1"):
                count_polytope(empty, max_index=max_index)
            with pytest.raises(ValueError, match="max_index must be at least 1"):
                evaluate_count(pp, (-5,), max_index=max_index)
            with pytest.raises(ValueError, match="max_index must be at least 1"):
                pp.analysis(max_index)
        assert pp._analyses == {}
        assert count_polytope(empty, max_index=1) == 0
        assert evaluate_count(pp, (-5,), max_index=1) == 0

    @pytest.mark.parametrize("max_index", [1, 5])
    def test_no_smith_form_after_each_chamber_is_compiled(self, max_index,
                                                           monkeypatch):
        # Each chamber compiles once; later evaluations run no Smith form,
        # no parallelepiped walk and no compilation.
        pp = sweep_family()
        analysis = pp.analysis(max_index)
        for chamber in analysis.chambers:
            evaluate_count(pp, chamber.sample, max_index=max_index)
        assert len(analysis._compiled) == len(analysis.open_chambers)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (genfun, linalg):
            monkeypatch.setattr(module, "smith_normal_form",
                                counted("smith", module.smith_normal_form))
        monkeypatch.setattr(genfun, "parallelepiped_points",
                            counted("pp", genfun.parallelepiped_points))
        monkeypatch.setattr(genfun, "_walk", counted("walk", genfun._walk))
        monkeypatch.setattr(genfun, "_box_columns", counted("box", genfun._box_columns))
        monkeypatch.setattr(parametric, "CompiledLeaves",
                            counted("compile", parametric.CompiledLeaves))
        counts = [evaluate_count(pp, q, max_index=max_index)
                  for q in sweep_points(7, 100)]
        assert calls == []
        assert sum(counts) > 0
        evaluate_count(pp, (7, 9), max_index=max_index, via="activities")
        # the walk counter does count (count_leaves walks each leaf's
        # residues, along a unit generator or its Hermite box, without
        # building its points), so even the activities route takes no
        # Smith form
        assert "walk" in calls
        assert "smith" not in calls


def grid_rows(analysis):
    """The row stores of the compiled programs' leaves that fill on use."""
    return [rows for program in analysis._programs.values()
            for _, tabled, _ in program.groups for *_, rows in tabled
            if isinstance(rows, genfun._GridRows)]


class TestGridRows:
    def test_fill_order_does_not_change_counts(self):
        # Rows of leaves with several moving facets fill on first use, so
        # two fresh analyses that meet the pool in opposite orders fill
        # their rows in different orders.  Their counts agree, with each
        # other and with the activities route, and so do the rows.
        pool = pcount_sweep_pool(1)
        forwards = ParametricAnalysis(sweep_family())
        backwards = ParametricAnalysis(sweep_family())
        got = [forwards.count_at(q) for q in pool]
        assert [backwards.count_at(q) for q in reversed(pool)] == got[::-1]
        assert got == [forwards.count_at(q, via="activities") for q in pool]
        filled = [sorted(sorted(rows.items()) for rows in grid_rows(a))
                  for a in (forwards, backwards)]
        assert filled[0] and filled[0] == filled[1]

    @pytest.mark.parametrize("max_index", [5, 20, 200])
    def test_no_leaf_holds_more_rows_than_max_index(self, max_index):
        # Every chamber compiled, and rows filled by two pools.  A leaf is
        # tabulated only when its grid has at most max_index cells, so at
        # 5 some leaf still walks.  At 200 every leaf of the sweep is
        # tabulated.
        analysis = ParametricAnalysis(sweep_family(), max_index)
        for q in [ch.sample for ch in analysis.chambers] + pcount_sweep_pool(1) \
                + sweep_points(3, 400):
            analysis.count_at(q)
        groups = [group for program in analysis._programs.values()
                  for group in program.groups]
        assert len(analysis._compiled) == len(analysis.open_chambers)
        assert all(len(rows) <= max_index for _, tabled, _ in groups
                   for *_, rows in tabled)
        assert max(map(len, grid_rows(analysis))) > 1
        walked = sum(len(walked) for _, _, walked in groups)
        assert (walked > 0) == (max_index < 200)


def compile_every_chamber(analysis, order=1):
    for chamber in analysis.chambers[::order]:
        analysis.count_at(chamber.sample)
    assert len(analysis._compiled) == len(analysis.open_chambers)


class TestSharedPrograms:
    # A vertex's program depends on the vertex and the direction mu, not
    # on the chamber, so each (vertex, mu) is compiled once and every
    # chamber under mu that has the vertex active shares it.

    @pytest.mark.parametrize("name, incidences, programs",
                             [("sweep", 114, 31), ("chambers1178", 9608, 138)])
    def test_one_program_per_vertex_and_direction(self, name, incidences,
                                                  programs):
        analysis = ParametricAnalysis(sweep_family() if name == "sweep"
                                      else chambers1178())
        compile_every_chamber(analysis)
        assert sum(len(ch.active) for ch in analysis.chambers) == incidences
        assert len(analysis._programs) == programs
        for k, chamber in analysis._compiled.items():
            positions = [analysis._position[id(v)]
                         for v in analysis.open_chambers[k].active]
            assert len(chamber.programs) == len(positions)
            for i, program in zip(positions, chamber.programs):
                assert program is analysis._programs[i, chamber.mu]
                assert analysis._program(i, chamber.mu) is program
                assert program.denominator == analysis._denominators[chamber.mu]
            assert len(chamber.leaves.groups) == sum(
                len(program.groups) for program in chamber.programs)
        assert len(analysis._programs) == programs

    @pytest.mark.parametrize("name", ["sweep", "chambers1178"])
    def test_chamber_direction_is_the_first_generic_for_all_its_rays(self, name):
        # mu comes from memoized answers per (vertex, M), and is the first
        # generic direction of the union of the active vertices' leaf rays
        analysis = ParametricAnalysis(sweep_family() if name == "sweep"
                                      else chambers1178())
        compile_every_chamber(analysis)
        for k, chamber in analysis._compiled.items():
            rays = {ray for v in analysis.open_chambers[k].active
                    for _, leaf in analysis._decomposition(analysis._position[id(v)])[0]
                    for ray in leaf.base.rays}
            assert chamber.mu == next(genfun.generic_directions(rays))
        assert len({chamber.mu for chamber in analysis._compiled.values()}) == 3
        assert len(analysis._generic) <= 3 * len(analysis.vertices)

    @pytest.mark.parametrize("max_index", [1, 5, 200])
    def test_shared_programs_count_as_the_activities_route(self, max_index):
        analysis = ParametricAnalysis(sweep_family(), max_index)
        compile_every_chamber(analysis)
        for q in [ch.sample for ch in analysis.chambers] + sweep_points(max_index, 400):
            assert analysis.count_at(q) == analysis.count_at(q, via="activities"), q

    @pytest.mark.parametrize("name", ["sweep", "chambers1178"])
    def test_compile_order_does_not_change_programs(self, name):
        # Under one mu, each new program whose denominator does not divide
        # the common one rescales the others, so the two orders rescale at
        # different steps.  Both end at the lcm over all programs, with the
        # same rows, and count as the activities route.
        pp = sweep_family() if name == "sweep" else chambers1178()
        forwards, backwards = ParametricAnalysis(pp), ParametricAnalysis(pp)
        compile_every_chamber(forwards)
        compile_every_chamber(backwards, order=-1)
        assert forwards._denominators == backwards._denominators
        assert len(forwards._denominators) == 3
        for key, program in forwards._programs.items():
            other = backwards._programs[key]
            assert (program.denominator, program.constant) == (
                other.denominator, other.constant)
            assert program.groups == other.groups
        rng = random.Random(29)
        points = [ch.sample for ch in forwards.chambers[::7]] + [
            tuple(Fraction(rng.randint(0, 60 * den), den) for _ in range(2))
            for den in (1, 2, 3, 7) for _ in range(25)]
        for q in points:
            want = forwards.count_at(q, via="activities")
            assert forwards.count_at(q) == backwards.count_at(q) == want, q

    def test_compiling_every_chamber_keeps_under_8_mb(self):
        # One program per chamber and active vertex kept 33.8 MB live on
        # this family; one per vertex and direction keeps about 2 MB.
        analysis = ParametricAnalysis(chambers1178())
        gc.collect()
        tracemalloc.start()
        try:
            compile_every_chamber(analysis)
            gc.collect()
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live < 8 * 10 ** 6


def pcount_sweep_pool(seed):
    """The parameter points of the pcount-sweep benchmark for seed."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(seed)
    return [workloads.sweep_point(rng, k)
            for k in range(workloads.PcountSweep.pool_size)]


def tree_and_scan(analysis, points, monkeypatch):
    """(chamber the split tree finds, chamber the scan finds, row tests
    the tree lookup made) for each point; the scan tests every half-open
    chamber with contains, in order."""
    real, calls = linalg._rows_hold, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(parametric, "_rows_hold", counted)
    out = []
    for q in points:
        calls.clear()
        D, z = linalg._int_row(q)
        k = analysis._chamber_at(z, D)
        scan = next((j for j, ho in enumerate(analysis.open_chambers)
                     if ho.region.contains(q)), None)
        out.append((k, scan, len(calls)))
    return out


@cache
def chambers1178():
    """The 1178-chamber family, parsed once, so its analysis is made once."""
    return parse_parametric((Path(__file__).parent / "data" /
                             "chambers1178.txt").read_text())


def closed_owners(analysis, q):
    return sum(ch.region.contains(q) for ch in analysis.chambers)


class TestSplitTree:
    # The compiled route finds a point's chamber by an exact search of the
    # split tree: on a node's hyperplane it tries the side y_q picks, then
    # the other.  These tests check the search against a scan of every
    # chamber: the same chamber, with one row test wherever q + eps y_q
    # lies inside a chamber, and never more than two here.

    def test_sweep_pools_take_one_row_test(self, monkeypatch):
        analysis = sweep_family().analysis()
        for seed in (1, 2, 3):
            pool = pcount_sweep_pool(seed)
            for q, (k, scan, calls) in zip(pool, tree_and_scan(analysis, pool,
                                                               monkeypatch)):
                assert k == scan is not None and calls == 1, (seed, q)

    def test_wall_points_follow_y_q(self, monkeypatch):
        # Rational points on every hyperplane of the arrangement inside Q;
        # those inside Q's interior lie on walls between chambers, where
        # only the tie rule by y_q lands on the chamber that holds them.
        analysis = sweep_family().analysis()
        hyperplanes = {(g, h) for v in analysis.vertices for g, h, _ in v.activity.rows}
        points = [(4, 12), (6, 1)]
        for (g1, g2), h in sorted(hyperplanes):
            base = (h / g1, 0) if g1 else (0, h / g2)
            points += [(base[0] - Fraction(t, 3) * g2, base[1] + Fraction(t, 3) * g1)
                       for t in range(-90, 91)]
        points = [q for q in points if min(q) >= 0]
        walls = 0
        for q, (k, scan, calls) in zip(points, tree_and_scan(analysis, points,
                                                             monkeypatch)):
            assert k == scan is not None, q
            if min(q) > 0:
                assert closed_owners(analysis, q) >= 2 and calls == 1, q
                walls += 1
        assert walls >= 500
        assert closed_owners(analysis, (4, 12)) == 8

    def test_points_outside_q_find_no_chamber(self, monkeypatch):
        # the tree lands on a chamber whose rows fail; (-1/2, 3) lies on a
        # node hyperplane, so the other side's chamber is tested too
        analysis = sweep_family().analysis()
        points = [(-1, 2), (Fraction(-1, 2), 3), (5, Fraction(-1, 3)), (-7, -7),
                  (-1, 0), (0, Fraction(-1, 10 ** 6))]
        assert [(k, scan, calls) for k, scan, calls in
                tree_and_scan(analysis, points, monkeypatch)] == (
            [(None, None, 1), (None, None, 2)] + [(None, None, 1)] * 4)

    def test_points_outside_every_chamber_find_none(self, monkeypatch):
        # Without Q, the min family is empty wherever q1 < 0 or q2 < 0:
        # those cells have no chamber and no leaf, so the tree lands on a
        # chamber that does not hold the point, and the search finds none.
        # The complex's outer facets separate no chambers and are never
        # walked; here every point on them still takes one row test.
        analysis = without_q(min_family()).analysis()
        assert len(analysis.open_chambers) == 2
        grid = [Fraction(k, 2) for k in range(-6, 7)]
        points = [(a, b) for a in grid for b in grid]
        outside = 0
        for q, (k, scan, calls) in zip(points, tree_and_scan(analysis, points,
                                                             monkeypatch)):
            assert k == scan, q
            if scan is None:
                assert min(q) < 0 and calls <= 2, q
                outside += 1
            else:
                assert calls == 1, q
        assert outside == 13 * 13 - 7 * 7

    def test_many_chamber_family(self, monkeypatch):
        # 600 seeded points of the 1178-chamber family, near the origin,
        # where most chambers are, and out to the largest samples.  Every
        # point of Q here lies in a chamber, some on walls or on Q's
        # boundary, and y_q points into Q, so each takes one row test;
        # the points outside Q find none after one or two.
        analysis = chambers1178().analysis()
        assert len(analysis.open_chambers) == 1178
        rng = random.Random(1178)
        points = []
        for k in range(600):
            den = rng.randint(1, 6)
            top = 12 if k % 3 else 2000
            points.append(tuple(Fraction(rng.randint(-den, top * den), den)
                                for _ in range(2)))
        inside = 0
        for q, (k, scan, calls) in zip(points, tree_and_scan(analysis, points,
                                                             monkeypatch)):
            assert k == scan, q
            if k is not None:
                assert calls == 1, q
                inside += 1
            else:
                assert calls <= 2, q
        assert inside >= 500

    def test_points_outside_q_skip_the_scan(self, monkeypatch):
        # At q1 = -1, left of Q = {q >= 0}, the tree lands on a chamber
        # whose rows fail, and only a tied node sends the search to a
        # second: at most two row tests per point, where a scan of all
        # 1178 chambers makes up to 1178.
        analysis = chambers1178().analysis()
        points = [(-1, k) for k in range(-3, 60)]
        points += [(Fraction(-1, 7), Fraction(k, 3)) for k in range(0, 200, 7)]
        for q, (k, scan, calls) in zip(points, tree_and_scan(analysis, points,
                                                             monkeypatch)):
            assert k is scan is None and calls <= 2, q


def box_q(rng, p):
    """Q = [0, 5]^p."""
    qrows = [[-1 if i == j else 0 for j in range(p)] for i in range(p)]
    qrows += [[1 if i == j else 0 for j in range(p)] for i in range(p)]
    return HalfOpenPolyhedron.from_inequalities(qrows, [0] * p + [5] * p)


def random_families(seed, count, make_q=box_q, ps=(1, 2)):
    """Random boxes with two cuts in d = 2, p taking the values ps in
    turn, over make_q(rng, p), with their vertex maps."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = ps[len(out) % len(ps)]
        box = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        A = list(box)
        E = [[rng.randint(0, 2) for _ in range(p)] for _ in box]
        f = [rng.randint(1, 6) for _ in box]
        for _ in range(2):
            row = (rng.randint(-3, 3), rng.randint(-3, 3))
            A.append(row if row != (0, 0) else (1, 1))
            E.append([rng.randint(-2, 2) for _ in range(p)])
            f.append(rng.randint(-4, 8))
        pp = ParametricPolytope(A=A, E=E, f=f, qset=make_q(rng, p))
        try:
            vertices = enumerate_parametric_vertices(pp)
        except NotFullDimensionalError:
            continue
        out.append((pp, vertices))
    return out


class TestChamberSplit:
    def split_cases(self):
        pp = sweep_family()
        return [(pp, enumerate_parametric_vertices(pp))] + random_families(6, 20)

    def test_cells_match_the_two_lp_split(self, monkeypatch):
        seen = []
        original = parametric._arrangement_cells

        def recording(base, qdim, hyperplanes):
            cells = original(base, qdim, hyperplanes)
            seen.append([(rows, side) for rows, _, side in cells]
                        == cells_and_sides_reference(base, hyperplanes))
            return cells

        monkeypatch.setattr(parametric, "_arrangement_cells", recording)
        for pp, vertices in self.split_cases():
            chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)
        assert len(seen) == 21 and all(seen)

    def test_chambers_match_the_two_lp_split(self, monkeypatch):
        cases = self.split_cases()
        fast = [chambers_max_dim(v, pp.qset, qdim=pp.qdim) for pp, v in cases]
        monkeypatch.setattr(parametric, "_arrangement_cells",
                            cells_with_generators)
        slow = [chambers_max_dim(v, pp.qset, qdim=pp.qdim) for pp, v in cases]
        assert fast == slow
        assert sum(len(chambers) > 1 for chambers in fast) >= 10

    def test_no_interior_point_lp(self, monkeypatch):
        pp = sweep_family()
        vertices = enumerate_parametric_vertices(pp)
        calls = []

        def counted(A, b):
            calls.append(1)
            return interior_point(A, b)

        monkeypatch.setattr(lp, "interior_point", counted)
        monkeypatch.setattr(parametric, "interior_point", counted)
        fast = chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)
        assert calls == []
        monkeypatch.setattr(parametric, "_arrangement_cells",
                            lambda base, qdim, hyperplanes:
                            cells_with_generators(base, qdim, hyperplanes,
                                                  counted))
        slow = chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)
        assert fast == slow and len(fast) == 21
        assert calls


class TestActiveMasks:
    # chambers_max_dim reads a cell's active vertices off its side mask and
    # two masks per vertex; the sample test it replaces must agree on
    # every cell, those without an active vertex included.

    @staticmethod
    def families():
        data = Path(__file__).parent / "data"
        return ([parse_parametric((data / f"{name}.txt").read_text())
                 for name in ("sweep_family", "sweep_family_noq", "cross_family5")]
                + [chambers1178()] + [pp for pp, _ in random_families(6, 20)])

    def test_mask_active_sets_match_the_sample_test(self, monkeypatch):
        split = parametric._arrangement_cells
        calls = []

        def recording(base, qdim, hyperplanes):
            cells = split(base, qdim, hyperplanes)
            calls.append((hyperplanes, cells))
            return cells

        monkeypatch.setattr(parametric, "_arrangement_cells", recording)
        checked = 0
        for pp in self.families():
            vertices = enumerate_parametric_vertices(pp)
            chambers = chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)
            ((hyperplanes, cells),) = calls
            calls.clear()
            masks = parametric._activity_masks(vertices, hyperplanes)
            samples = {}
            for rows, (_, rays, _), side in cells:
                *s_q, s_t = map(sum, zip(*rays))
                sample = tuple(Fraction(x, s_t) for x in s_q)
                by_mask = [v for v, (le, ge) in zip(vertices, masks)
                           if side & le == le and not side & ge]
                assert by_mask == [v for v in vertices if v.activity.contains(sample)]
                if by_mask:
                    samples[sample] = tuple(by_mask)
                checked += 1
            assert {ch.sample: ch.active for ch in chambers} == samples
        assert checked >= 1290


CROSS_FAMILY5 = Path(__file__).parent / "data" / "cross_family5.txt"


def without_q(pp):
    return ParametricPolytope(pp.A, pp.E, pp.f)


def sweep_over(qrows, qrhs):
    return ParametricPolytope(SWEEP_A, SWEEP_E, SWEEP_F,
                              qset=HalfOpenPolyhedron.from_inequalities(qrows, qrhs))


def repeated_q_family():
    """The sweep family over q >= 0, q1 + q2 <= 30 and q1 <= 20, written
    with rows that are not primitive, exact duplicates and rescaled
    copies; the activity rows -q1 <= 0 and -q2 <= 0 repeat Q's rows."""
    return sweep_over([[-2, 0], [0, -1], [-1, 0], [0, -1], [3, 3], [0, -3],
                       [1, 1], [2, 0], [1, 0], [2, 0]],
                      [0, 0, 0, 0, 90, 0, 30, 40, 20, 40])


def thin_q_family():
    """The sweep family over the ray q1 = q2 >= 0: no chambers."""
    return sweep_over([[1, -1], [-1, 1], [-1, 0]], [0, 0, 0])


def three_parameter_family():
    """A 3-d box under x1 + x2 + x3 <= q1 + q2 + q3 - 2, with x_i <= q_i."""
    A = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
         (1, 1, 1)]
    E = [(0, 0, 0)] * 3 + [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    qset = HalfOpenPolyhedron.from_inequalities(
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], [0, 0, 0])
    return ParametricPolytope(A, E, [0] * 6 + [-2], qset=qset)


def generator_rule_families():
    """The sweep, 5-d cross-polytope and acceptance families and
    random_families(6, 20), each also without Q; Q rows that repeat, a
    lower-dimensional Q, and p = 3 families with and without Q."""
    base = ([sweep_family(), parse_parametric(CROSS_FAMILY5.read_text())]
            + [pp for pp, _ in acceptance_families()]
            + [pp for pp, _ in random_families(6, 20)])
    three = [three_parameter_family()] + [
        pp for pp, _ in random_families(12, 2, ps=(3,))]
    return (base + [without_q(pp) for pp in base] + [repeated_q_family(),
            thin_q_family()] + three + [without_q(pp) for pp in three])


def setup_outcome(pp):
    """The vertex maps and closed chambers, or the type of the exception."""
    try:
        vertices = enumerate_parametric_vertices(pp)
    except NotFullDimensionalError as exc:
        return type(exc)
    return vertices, chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)


def recorded_setups(monkeypatch, families):
    """setup_outcome of each family, and the rows of every list of cells
    _arrangement_cells gave."""
    cells = []
    split = parametric._arrangement_cells

    def recording(base, qdim, hyperplanes):
        out = split(base, qdim, hyperplanes)
        cells.append([rows for rows, _, _ in out])
        return out

    monkeypatch.setattr(parametric, "_arrangement_cells", recording)
    return [setup_outcome(pp) for pp in families], cells


def setup_lps(name, monkeypatch):
    """lp_maximize calls while a data family is analysed and each of its
    chambers compiled, and its number of chambers."""
    calls = []

    def counted(c, A, b):
        calls.append(1)
        return lp_maximize(c, A, b)

    monkeypatch.setattr(lp, "lp_maximize", counted)
    path = Path(__file__).parent / "data" / f"{name}.txt"
    analysis = parse_parametric(path.read_text()).analysis()
    for chamber in analysis.chambers:
        analysis.count_at(chamber.sample)
    return len(calls), len(analysis.chambers)


class TestGeneratorRule:
    def test_regions_and_cells_match_the_lp_route(self, monkeypatch):
        families = generator_rule_families()
        fast, fast_cells = recorded_setups(monkeypatch, families)
        lp_route(monkeypatch)
        slow, slow_cells = recorded_setups(monkeypatch, families)
        assert fast_cells == slow_cells
        for pp, got, want in zip(families, fast, slow):
            assert got == want, (pp.A, pp.E, pp.f, pp.qset)
        chambers = [len(out[1]) for out in fast if not isinstance(out, type)]
        assert sum(n > 1 for n in chambers) >= 30
        assert setup_outcome(thin_q_family()) == ([], [])

    def test_rows_on_one_facet_resolve_as_the_lp_pass(self):
        # q1 >= 0 three times (one exact duplicate, one rescaled copy),
        # q2 >= 0, q1 + q2 <= 5 twice, and two redundant rows: q1 <= 7
        # misses the triangle and q1 + 2 q2 >= 0 touches it at 0 only
        rows = [((-1, 0), Fraction(0)), ((-2, 0), Fraction(0)),
                ((-1, 0), Fraction(0)), ((0, -1), Fraction(0)),
                ((1, 1), Fraction(5)), ((2, 2), Fraction(10)),
                ((1, 0), Fraction(7)), ((-1, -2), Fraction(0))]
        generators = _generators(parametric._homogenized_rows(rows, 2))
        region = parametric._region(rows, generators, 2)
        assert region.rows == (((-2, 0), 0, False), ((0, -1), 0, False),
                               ((2, 2), 10, False))
        assert region == region_reference(rows, generators, 2)

    def test_cells_with_lines(self):
        # Without Q the first cells are half-planes and a strip; the
        # arrangement of q1 = 0, q1 = 1 and q2 = 0 has six cells
        hyperplanes = [((1, 0), Fraction(0)), ((1, 0), Fraction(1)),
                       ((0, 1), Fraction(0))]
        cells = [rows for rows, _, _ in
                 parametric._arrangement_cells([], 2, hyperplanes)]
        assert cells == cells_reference([], hyperplanes)
        assert len(cells) == 6

    def test_sides_of_cells_with_lines(self):
        # Strips q1 <= 0, 0 <= q1 <= 1 and q1 >= 1 keep their line; q1 = 2
        # splits only the last, so the first two take its side from the
        # values at their rays, and q2 = 5 splits every strip
        hyperplanes = [((1, 0), Fraction(0)), ((1, 0), Fraction(1)),
                       ((1, 0), Fraction(2)), ((0, 1), Fraction(5))]
        for planes in (hyperplanes[:3], hyperplanes):
            cells = parametric._arrangement_cells([], 2, planes)
            assert [(rows, side) for rows, _, side in cells] == \
                cells_and_sides_reference([], planes)
            assert sum(bool(lines) for _, (lines, _, _), _ in cells) == (
                4 if len(planes) == 3 else 0)
        assert [side for *_, side in parametric._arrangement_cells(
            [], 2, hyperplanes[:3])] == [0b111, 0b110, 0b100, 0b000]

    def test_no_cells_in_a_lower_dimensional_or_empty_q(self):
        hyperplanes = [((1, 0), Fraction(1)), ((0, 1), Fraction(1))]
        segment = [((1, -1), Fraction(0)), ((-1, 1), Fraction(0)),
                   ((-1, 0), Fraction(0)), ((1, 0), Fraction(3))]
        empty = [((1, 0), Fraction(-1)), ((-1, 0), Fraction(0))]
        for base in (segment, empty):
            assert parametric._arrangement_cells(base, 2, hyperplanes) == []
            assert cells_reference(base, hyperplanes) == []

    @pytest.mark.parametrize("name", ["sweep_family", "sweep_family_noq",
                                      "cross_family5", "chambers1178"])
    def test_setup_runs_no_lp(self, name, monkeypatch):
        chambers = {"sweep_family": 21, "sweep_family_noq": 21,
                    "cross_family5": 1, "chambers1178": 1178}[name]
        assert setup_lps(name, monkeypatch) == (0, chambers)

    def test_samples_from_generators_match_the_lp_samples(self, monkeypatch):
        # Every cell's sample, the sum of its rays, satisfies each of its
        # rows strictly, and the vertices active there are those active
        # at the cell's interior_point LP sample, the former rule.
        cells = []
        split = parametric._arrangement_cells

        def recording(base, qdim, hyperplanes):
            out = split(base, qdim, hyperplanes)
            cells.extend((rows, gens, qdim) for rows, gens, _ in out)
            return out

        monkeypatch.setattr(parametric, "_arrangement_cells", recording)
        checked = 0
        for pp in generator_rule_families():
            outcome = setup_outcome(pp)
            if isinstance(outcome, type):
                continue
            vertices, chambers = outcome
            samples = []
            for rows, (_, rays, _), qdim in cells:
                *s_q, s_t = map(sum, zip(*rays))
                sample = tuple(Fraction(x, s_t) for x in s_q)
                assert all(linalg.dot(g, sample) < h for g, h in rows)
                reference = (interior_point([g for g, _ in rows],
                                            [h for _, h in rows])
                             if rows else (Fraction(0),) * qdim)
                active = [v for v in vertices if v.activity.contains(sample)]
                assert active == [v for v in vertices
                                  if v.activity.contains(reference)]
                if active:
                    samples.append(sample)
                checked += 1
            assert sorted(samples) == sorted(ch.sample for ch in chambers)
            cells.clear()
        assert checked >= 900


# ---------------------------------------------------------------------------
# walls against the facet-point rule


def facet_point_reference(rows, idx):
    """A point in the relative interior of facet idx of a full-dimensional
    region, by one LP: maximize t with g . q = h and every other row
    slack by at least t, t <= 1; None when t cannot be positive."""
    g, h, _ = rows[idx]
    p = len(g)
    A = [(*g, 0), (*(-x for x in g), 0)]
    b = [h, -h]
    for j, (g2, h2, _) in enumerate(rows):
        if j != idx:
            A.append((*g2, 1))
            b.append(h2)
    A.append((0,) * p + (1,))
    b.append(Fraction(1))
    status, value, point = lp_maximize((0,) * p + (1,), A, b)
    if status != OPTIMAL or value <= 0:
        return None
    return tuple(point[:p])


def nearby_reference(region, x, direction):
    """Whether x + t * direction lies in the region for every small t > 0,
    in Fractions: a tight row must strictly improve along direction, or
    stay level when it is weak."""
    for g, h, strict in region.rows:
        v = linalg.dot(g, x)
        if v > h:
            return False
        if v == h:
            slope = linalg.dot(g, direction)
            if slope > 0 or (slope == 0 and strict):
                return False
    return True


def facet_point_halfopen(region, y_q, chambers):
    """The former wall rule: a row exactify opens stays strict only when
    the region is full-dimensional and some closed chamber lies directly
    beyond a relative-interior point of its facet."""
    rows = region.rows
    if not rows:
        return region
    full_dim = interior_point([g for g, _, _ in rows],
                              [h for _, h, _ in rows]) is not None
    out = []
    for idx, ((g, h, _), strict) in enumerate(
            zip(rows, exactify([g for g, _, _ in rows], y_q))):
        if strict and full_dim:
            q_f = facet_point_reference(rows, idx)
            strict = q_f is not None and any(
                nearby_reference(ch.region, q_f, g) for ch in chambers)
        out.append((g, h, strict))
    return HalfOpenPolyhedron(rows=tuple(out))


def scaled_q(rng, p):
    """Q = {k_i q_i >= 0, k_i q_i <= r_i} with k_i in 2..3: rows that are
    not primitive, such as 2 q1 <= 7."""
    qrows, rhs = [], []
    for i in range(p):
        k = rng.randint(2, 3)
        qrows += [[-k * (i == j) for j in range(p)],
                  [k * (i == j) for j in range(p)]]
        rhs += [0, rng.randint(7, 16)]
    return HalfOpenPolyhedron.from_inequalities(qrows, rhs)


def wall_families():
    """The sweep and 5-d cross-polytope families, the acceptance families,
    random families over a box, over a Q with rows that are not
    primitive and over no Q, and the interval and min families without Q."""
    free = [without_q(pp) for pp in (interval_family(), min_family())]
    return ([sweep_family(), parse_parametric(CROSS_FAMILY5.read_text())]
            + [pp for pp, _ in acceptance_families()]
            + [pp for pp, _ in random_families(6, 20)]
            + [pp for pp, _ in random_families(8, 6, scaled_q)]
            + [pp for pp, _ in random_families(9, 6, lambda rng, p: None)]
            + free)


class TestWallRule:
    def test_open_regions_match_the_facet_point_rule(self):
        strict_rows = 0
        for pp in wall_families():
            analysis = pp.analysis()
            chambers = analysis.chambers
            assert [ho.region for ho in analysis.open_chambers] == [
                facet_point_halfopen(ch.region, analysis.y_q, chambers)
                for ch in chambers]
            assert [region for _, region in analysis.open_activities] == [
                facet_point_halfopen(v.activity, analysis.y_q, chambers)
                for v in analysis.vertices]
            strict_rows += sum(strict for ho in analysis.open_chambers
                               for _, _, strict in ho.region.rows)
        assert strict_rows >= 100

    def test_no_lp_opens_a_wall(self, monkeypatch):
        analysis = sweep_family().analysis()
        calls = []

        def counted(c, A, b):
            calls.append(1)
            return lp_maximize(c, A, b)

        monkeypatch.setattr(lp, "lp_maximize", counted)
        halfopen_chambers(analysis.chambers, analysis.y_q)
        halfopen_activity_regions(analysis.vertices, analysis.chambers,
                                  analysis.y_q)
        assert calls == []

    def test_one_opening_per_analysis(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(parametric, name, wrapper)

        counted("perturbed_direction", parametric.perturbed_direction)
        counted("_walls", parametric._walls)
        for pp in (sweep_family(), without_q(sweep_family()),
                   parse_parametric(CROSS_FAMILY5.read_text())):
            analysis = pp.analysis()
            assert sorted(calls) == ["_walls", "perturbed_direction"]
            calls.clear()
            # the public functions open with the same direction unasked
            assert halfopen_chambers(analysis.chambers) == analysis.open_chambers
            assert halfopen_activity_regions(
                analysis.vertices, analysis.chambers) == analysis.open_activities
            calls.clear()


# ---------------------------------------------------------------------------
# vertex maps against the subset walk


def primitive_row(g, h):
    """The rational row g . q <= h scaled to a primitive integer normal,
    by Fraction arithmetic."""
    scale = lcm(*(Fraction(x).denominator for x in g))
    gi = [int(Fraction(x) * scale) for x in g]
    common = gcd(*gi)
    return tuple(v // common for v in gi), Fraction(h) * scale / common


def subset_walk_vertices(pp):
    """The vertex maps by the former walk over every d-subset of rows,
    kept when their activity region has an interior point.

    Each full-rank basis gives a map; equal maps keep their first basis
    in combinations order.  A map identically violated by some row, or
    whose activity rows with Q's have no interior point, is dropped.
    The others get the activity and cone that enumerate_parametric_vertices
    gives, in sorted (M, c) order, and a degenerate cone raises
    NotFullDimensionalError."""
    d, p = pp.dim, pp.qdim
    # {x : A x <= 1} has 0 in its interior, so it raises only when unbounded
    enumerate_vertices(HPolytope(A=pp.A, b=(1,) * len(pp.A)))
    seen = {}
    for basis in combinations(range(len(pp.A)), d):
        try:
            adj, det_b = linalg.adjugate_int([pp.A[i] for i in basis])
        except SingularMatrixError:
            continue
        ecols = list(zip(*(pp.E[i] for i in basis)))
        fsub = [pp.f[i] for i in basis]
        M = tuple(tuple(Fraction(linalg.dot(row, col), det_b) for col in ecols)
                  for row in adj)
        c = tuple(linalg.dot(row, fsub) / det_b for row in adj)
        seen.setdefault((M, c), basis)
    vertices = []
    for (M, c), basis in sorted(seen.items()):
        rows, tight, feasible = [], [], True
        for i, (arow, erow, fi) in enumerate(zip(pp.A, pp.E, pp.f)):
            gq = tuple(linalg.dot(arow, [M[r][j] for r in range(d)]) - erow[j]
                       for j in range(p))
            rhs = fi - linalg.dot(arow, c)
            if all(x == 0 for x in gq):
                if rhs == 0:
                    tight.append(i)
                feasible = feasible and rhs >= 0
                continue
            rows.append(primitive_row(gq, rhs))
        all_rows = [(g, h) for g, h in rows] + [(g, h) for g, h, _ in pp.qset.rows]
        A_act = [g for g, _ in all_rows]
        b_act = [h for _, h in all_rows]
        if not feasible or (all_rows and interior_point(A_act, b_act) is None):
            continue
        if all_rows:
            activity = HalfOpenPolyhedron.from_inequalities(
                *remove_redundant(A_act, b_act))
        else:
            activity = HalfOpenPolyhedron(rows=())
        normals = tuple(pp.A[i] for i in tight)
        try:
            cone = ClosedCone(apex=(Fraction(0),) * d,
                              rays=tuple(extreme_rays(normals)), normals=normals)
        except DegenerateConeError:
            raise NotFullDimensionalError("degenerate vertex cone") from None
        vertices.append(ParametricVertex(basis=basis, map_M=M, map_c=c,
                                         activity=activity, cone=cone))
    return vertices


def vertices_outcome(find, pp):
    """The vertex list, or the type of the exception raised."""
    try:
        return find(pp)
    except (UnboundedError, NotFullDimensionalError) as exc:
        return type(exc)


def random_walk_family(rng, case):
    """A small random family: boxes, cuts and translations in d = 1..3
    with p = 1 or 2, and planted equalities and duplicate rows.

    Q cycles through none (translation families then have a lineality
    space), q >= 0, a box, a thin box with q_1 = 1 and an empty set; a
    family without its box rows may be unbounded."""
    d, p = 1 + case % 3, 1 + case // 3 % 2
    A, E, f = [], [], []
    if rng.random() < 0.9:
        for j in range(d):
            for s in (1, -1):
                A.append(tuple(s * int(i == j) for i in range(d)))
                E.append(tuple(rng.randint(-1, 2) for _ in range(p)))
                f.append(rng.randint(0, 4))
    for _ in range(rng.randint(1, 3)):
        row = tuple(rng.randint(-2, 2) for _ in range(d))
        A.append(row if any(row) else (1,) * d)
        E.append(tuple(rng.randint(-2, 2) for _ in range(p)))
        f.append(rng.randint(-3, 6))
    if rng.random() < 0.5:  # a translation: P_q = P_0 + T q
        T = [[rng.randint(-1, 1) for _ in range(p)] for _ in range(d)]
        E = [tuple(linalg.dot(a, col) for col in zip(*T)) for a in A]
    if rng.random() < 0.25:  # a planted equality
        i = rng.randrange(len(A))
        A.append(tuple(-x for x in A[i]))
        E.append(tuple(-x for x in E[i]))
        f.append(-f[i])
    if rng.random() < 0.3:  # a duplicate row, scaled
        i = rng.randrange(len(A))
        A.append(tuple(2 * x for x in A[i]))
        E.append(tuple(2 * x for x in E[i]))
        f.append(2 * f[i])
    unit = [tuple(int(i == j) for j in range(p)) for i in range(p)]
    neg = [tuple(-x for x in u) for u in unit]
    kind = case // 6 % 5
    if kind == 0:
        qrows, qrhs = [], []
    elif kind == 1:
        qrows, qrhs = neg, [0] * p
    elif kind == 2:
        qrows, qrhs = neg + unit, [0] * p + [4] * p
    elif kind == 3:
        qrows, qrhs = neg + unit, [-1] + [0] * (p - 1) + [1] + [4] * (p - 1)
    else:
        qrows, qrhs = neg[:1] + unit[:1], [-2, 1]
    return ParametricPolytope(A, E, f, qset=HalfOpenPolyhedron.from_inequalities(
        qrows, qrhs))


def combined_cone_normals(pp):
    """The normals of K = {(x, q, t) : A x - E q - f t <= 0, Q's rows,
    t >= 0}, with int and Fraction entries."""
    n = pp.dim + pp.qdim + 1
    normals = [(*a, *(-x for x in e), -fi) for a, e, fi in zip(pp.A, pp.E, pp.f)]
    normals += [(0,) * pp.dim + (*g, -h) for g, h, _ in pp.qset.rows]
    return normals + [(0,) * (n - 1) + (-1,)]


class TestVertexMapsAgainstSubsetWalk:
    def test_sweep_family(self):
        pp = sweep_family()
        got = enumerate_parametric_vertices(pp)
        assert got == subset_walk_vertices(pp)
        assert len(got) == 20

    def test_acceptance_families(self):
        for pp, _ in acceptance_families():
            got = enumerate_parametric_vertices(pp)
            assert got and got == subset_walk_vertices(pp)

    def test_random_families(self):
        rng = random.Random(20261019)
        kinds = []
        with_lines = 0
        for case in range(540):
            pp = random_walk_family(rng, case)
            got = vertices_outcome(enumerate_parametric_vertices, pp)
            assert got == vertices_outcome(subset_walk_vertices, pp), \
                (pp.A, pp.E, pp.f, pp.qset)
            if not isinstance(got, type):
                # every listed map is active in some chamber
                chambers = chambers_max_dim(got, pp.qset, qdim=pp.qdim)
                assert {v for ch in chambers for v in ch.active} == set(got)
                normals = combined_cone_normals(pp)  # K has lines at low rank
                with_lines += linalg.rank(normals) < len(normals[0])
            kinds.append(got if isinstance(got, type) else bool(got))
        assert all(kinds.count(kind) >= 25 for kind in
                   (True, False, NotFullDimensionalError, UnboundedError)), \
            [kinds.count(k) for k in (True, False, NotFullDimensionalError,
                                      UnboundedError)]
        # the faces of a combined cone with lines are climbed from fewer levels
        assert with_lines >= 25, with_lines
