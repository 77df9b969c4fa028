"""Parametric vertices, chambers, and counting-function evaluation."""

from fractions import Fraction

import pytest

from primalcount.errors import NotFullDimensionalError, UnboundedError
from primalcount.genfun import count_polytope
from primalcount.halfopen import HalfOpenPolyhedron
from primalcount.parametric import (
    ParametricPolytope,
    chambers_max_dim,
    enumerate_parametric_vertices,
    evaluate_count,
    halfopen_activity_regions,
    halfopen_chambers,
)
from primalcount.polytope import HPolytope


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

    def test_always_lower_dimensional_family_rejected(self):
        # x <= q and -x <= -q pin x = q on a full-dimensional q-region.
        with pytest.raises(NotFullDimensionalError):
            enumerate_parametric_vertices(ParametricPolytope(
                A=[[1], [-1], [1], [-1]],
                E=[[1], [-1], [0], [0]],
                f=[0, 0, 5, 0]))

    def test_degenerate_vertex_on_thin_activity_is_kept(self):
        # x = q is forced, and x = 0 as well, so every vertex map is
        # feasible only at q = 0; no full-dimensional chamber exists.
        pp = ParametricPolytope(
            A=[[1], [-1], [1], [-1]],
            E=[[1], [-1], [0], [0]],
            f=[0, 0, 0, 0])
        verts = enumerate_parametric_vertices(pp)
        assert verts
        assert all(v.cone is None for v in verts)
        assert chambers_max_dim(verts, pp.qset, qdim=1) == []
        stats = {}
        assert evaluate_count(pp, [0], stats=stats) == 0
        assert stats.get("outside") is True

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
        # different decomposition depths are active at different q.
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
        want = evaluate_count(family(), q, stats=fresh)
        warm_pp = family()
        depths = []
        for earlier in ((1, 1), (7, 9)):
            stats = {}
            evaluate_count(warm_pp, earlier, stats=stats)
            depths.append(stats["max_depth"])
        assert max(depths) > fresh["max_depth"]  # a deeper cone came first
        warm = {}
        assert evaluate_count(warm_pp, q, stats=warm) == want
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
