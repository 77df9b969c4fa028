"""Parametric vertices, chambers, and counting-function evaluation."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from primalcount import genfun, linalg, parametric
from primalcount.cli import parse_parametric
from primalcount.errors import NotFullDimensionalError, UnboundedError
from primalcount.genfun import count_leaves, count_polytope
from primalcount.halfopen import HalfOpenPolyhedron, signed_decompose
from primalcount.lp import interior_point
from primalcount.oracle import brute_count
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
# and five rows a.x <= e.q + f over q >= 0, 29 vertex maps, 21 chambers.
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


def reference_count(analysis, q, cache):
    """count_leaves over the active vertices of the Fraction-tested chamber."""
    q = tuple(Fraction(x) for x in q)
    if not analysis.qset.contains(q):
        return 0
    hits = [ho for ho in analysis.open_chambers if ho.region.contains(q)]
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

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluation mode"):
            evaluate_count(interval_family(), [1], via="vertices")

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
        monkeypatch.setattr(parametric, "CompiledLeaves",
                            counted("compile", parametric.CompiledLeaves))
        counts = [evaluate_count(pp, q, max_index=max_index)
                  for q in sweep_points(7, 100)]
        assert calls == []
        assert sum(counts) > 0
        evaluate_count(pp, (7, 9), max_index=max_index, via="activities")
        # the walk counter does count; residue classes come from the
        # Hermite box, so even the activities route takes no Smith form
        assert "pp" in calls
        assert "smith" not in calls


def cells_reference(base, hyperplanes, interior_point=interior_point):
    """The split loop with both interior_point LPs at every split."""
    if base and interior_point([g for g, _ in base], [h for _, h in base]) is None:
        return []
    cells = [base]
    for g, h in hyperplanes:
        next_cells = []
        for cell in cells:
            low = cell + [(g, h)]
            high = cell + [(tuple(-x for x in g), -h)]
            low_ok = interior_point([r[0] for r in low],
                                    [r[1] for r in low]) is not None
            high_ok = interior_point([r[0] for r in high],
                                     [r[1] for r in high]) is not None
            if low_ok and high_ok:
                next_cells.append(low)
                next_cells.append(high)
            else:
                next_cells.append(cell)
        cells = next_cells
    return cells


def random_families(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = 1 + len(out) % 2
        box = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        A = list(box)
        E = [[rng.randint(0, 2) for _ in range(p)] for _ in box]
        f = [rng.randint(1, 6) for _ in box]
        for _ in range(2):
            row = (rng.randint(-3, 3), rng.randint(-3, 3))
            A.append(row if row != (0, 0) else (1, 1))
            E.append([rng.randint(-2, 2) for _ in range(p)])
            f.append(rng.randint(-4, 8))
        qrows = [[-1 if i == j else 0 for j in range(p)] for i in range(p)]
        qrows += [[1 if i == j else 0 for j in range(p)] for i in range(p)]
        qset = HalfOpenPolyhedron.from_inequalities(qrows, [0] * p + [5] * p)
        pp = ParametricPolytope(A=A, E=E, f=f, qset=qset)
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
            seen.append(cells == cells_reference(base, hyperplanes))
            return cells

        monkeypatch.setattr(parametric, "_arrangement_cells", recording)
        for pp, vertices in self.split_cases():
            chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)
        assert len(seen) == 21 and all(seen)

    def test_chambers_match_the_two_lp_split(self, monkeypatch):
        cases = self.split_cases()
        fast = [chambers_max_dim(v, pp.qset, qdim=pp.qdim) for pp, v in cases]
        monkeypatch.setattr(parametric, "_arrangement_cells",
                            lambda base, qdim, hyperplanes:
                            cells_reference(base, hyperplanes))
        slow = [chambers_max_dim(v, pp.qset, qdim=pp.qdim) for pp, v in cases]
        assert fast == slow
        assert sum(len(chambers) > 1 for chambers in fast) >= 10

    def test_fewer_interior_point_lps(self, monkeypatch):
        pp = sweep_family()
        vertices = enumerate_parametric_vertices(pp)
        calls = []

        def counted(A, b):
            calls.append(1)
            return interior_point(A, b)

        monkeypatch.setattr(parametric, "interior_point", counted)
        fast = chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)
        fast_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(parametric, "_arrangement_cells",
                            lambda base, qdim, hyperplanes:
                            cells_reference(base, hyperplanes, counted))
        slow = chambers_max_dim(vertices, pp.qset, qdim=pp.qdim)
        assert fast == slow and len(fast) == 21
        assert fast_calls < len(calls)
