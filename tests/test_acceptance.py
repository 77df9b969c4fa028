"""End-to-end acceptance checks for the whole package.

Each test covers one acceptance criterion and prints a single summary line
on success, so ``pytest -v`` yields one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import floor, lcm, log2
from pathlib import Path

from primalcount.cli import main, parse_parametric, parse_polytope
from primalcount.genfun import (
    GenFun,
    count_polytope,
    generic_directions,
    gf_term,
    parallelepiped_points,
    specialize_at_one,
)
from primalcount.halfopen import (
    HalfOpenCone,
    HalfOpenPolyhedron,
    facet_strictness,
    halfopen_triangulate,
    signed_decompose,
)
from primalcount.linalg import det, rank, solve, transpose, vec_primitive
from primalcount.lp import interior_point
from primalcount.oracle import brute_count
from primalcount.parametric import ParametricPolytope, evaluate_count
from primalcount.polytope import (
    ClosedCone,
    HPolytope,
    SimplicialCone,
    enumerate_vertices,
    vertex_cone,
)


# ---------------------------------------------------------------------------
# shared instance generators (cached so several criteria reuse one corpus)
# ---------------------------------------------------------------------------


def _random_polytope(rng, d):
    """A random bounded full-dimensional polytope: a box plus a few cuts."""
    while True:
        A, b = [], []
        for j in range(d):
            row = [0] * d
            row[j] = 1
            A.append(tuple(row))
            b.append(rng.randint(0, 9))
            row = [0] * d
            row[j] = -1
            A.append(tuple(row))
            b.append(rng.randint(0, 9))
        for _ in range(rng.randint(0, 3)):
            extra = tuple(rng.randint(-9, 9) for _ in range(d))
            if any(extra):
                A.append(extra)
                b.append(rng.randint(-9, 9))
        if interior_point([list(r) for r in A], list(b)) is not None:
            return HPolytope(A=tuple(A), b=tuple(b))


@lru_cache(maxsize=None)
def _counting_corpus():
    """200 random bounded polytopes with their exact counts at max_index=1."""
    rng = random.Random(20260816)
    out = []
    for d, n in ((2, 100), (3, 60), (4, 40)):
        for _ in range(n):
            P = _random_polytope(rng, d)
            out.append((P, count_polytope(P, max_index=1)))
    return tuple(out)


def _random_halfopen_cone(rng, d, entry, index_cap):
    """A random half-open simplicial cone with index in [2, index_cap]."""
    while True:
        rays = tuple(tuple(rng.randint(-entry, entry) for _ in range(d)) for _ in range(d))
        cols = transpose(rays)
        index = abs(det(cols))
        if not 2 <= index <= index_cap:
            continue
        sigma = tuple(rng.choice((1, -1)) for _ in range(d))
        apex = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
        return HalfOpenCone(base=SimplicialCone(apex=apex, rays=rays), sigma=sigma), index


@lru_cache(maxsize=None)
def _decomposition_runs():
    """50 signed decompositions of random half-open simplicial cones."""
    rng = random.Random(5)
    runs = []
    for d, n, entry, index_cap in ((2, 25, 50, 5000), (3, 15, 8, 5000), (4, 10, 3, 12)):
        for _ in range(n):
            parent, index = _random_halfopen_cone(rng, d, entry, index_cap)
            stats = {"splits": []}
            result = signed_decompose(parent, stats=stats)
            runs.append((parent, result, stats, index, d))
    return tuple(runs)


# ---------------------------------------------------------------------------
# criterion 1: the worked one-parameter family
# ---------------------------------------------------------------------------


def test_acceptance_01_interval_family_counting_function(tmp_path, capsys):
    start = time.monotonic()
    path = tmp_path / "family.txt"
    path.write_text("1 3 1\n-1 | 0 | 0\n2 | 1 | 6\n1 | 1 | 0\nQ:\n-1 | 0\n")
    got = []
    for q in range(13):
        assert main(["pcount", str(path), "--at", str(q)]) == 0
        got.append(int(capsys.readouterr().out.strip()))
    want = [1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 9, 9, 10]
    assert got == want
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"acceptance 1 PASS: 13 interval-family counts match in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: the frozen facet-strictness table
# ---------------------------------------------------------------------------


def test_acceptance_02_facet_strictness_table():
    sigma = (-1, 1, -1)
    alpha = (Fraction(-2), Fraction(1), Fraction(3))
    want = {
        (0, 1): 1,
        (0, 2): 1,
        (0, 3): -1,
        (1, 2): -1,
        (1, 3): -1,
        (2, 1): -1,
        (2, 3): 1,
        (3, 1): -1,
        (3, 2): -1,
    }
    got = {
        (ell, m): facet_strictness(sigma, alpha, ell, m)
        for m in range(1, 4)
        for ell in range(0, 4)
        if ell != m
    }
    assert got == want
    print("acceptance 2 PASS: all nine frozen strictness values reproduced")


# ---------------------------------------------------------------------------
# criterion 3: random polytopes against brute enumeration
# ---------------------------------------------------------------------------


def test_acceptance_03_random_polytopes_match_enumeration():
    start = time.monotonic()
    corpus = _counting_corpus()
    assert len(corpus) == 200
    for P, got in corpus:
        assert got == brute_count(P)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"acceptance 3 PASS: 200 random polytopes match enumeration in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: half-open triangulation is a partition
# ---------------------------------------------------------------------------


def _random_pointed_cone(rng, d):
    """A pointed full-dimensional cone lifted from a bounded (d-1)-polytope."""
    while True:
        base = _random_polytope(rng, d - 1)
        verts = enumerate_vertices(base)
        if len(verts) < 2:
            continue
        rays = set()
        for v in verts:
            den = lcm(*(Fraction(x).denominator for x in v.point))
            vec = tuple(int(Fraction(x) * den) for x in v.point) + (den,)
            rays.add(vec_primitive(vec))
        rays = tuple(sorted(rays))
        if rank(list(rays)) < d:
            continue
        apex = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        normals = tuple(tuple(row) + (-bb,) for row, bb in zip(base.A, base.b))
        normals += ((0,) * (d - 1) + (-1,),)
        return ClosedCone(apex=apex, rays=rays, normals=normals)


def test_acceptance_04_halfopen_triangulation_partitions():
    rng = random.Random(44)
    built = 0
    for d, n in ((2, 20), (3, 20), (4, 10)):
        for _ in range(n):
            cone = _random_pointed_cone(rng, d)
            pieces = halfopen_triangulate(cone)
            base_pt = tuple(int(a) for a in cone.apex)
            points = [base_pt]
            for r in cone.rays:
                for k in (1, 2, 3):
                    points.append(tuple(p + k * x for p, x in zip(base_pt, r)))
            for ri, rj in combinations(cone.rays, 2):
                for a, b in ((1, 1), (1, 2), (2, 1)):
                    points.append(tuple(p + a * x + b * y
                                        for p, x, y in zip(base_pt, ri, rj)))
            while len(points) < 10000:
                points.append(tuple(base_pt[i] + rng.randint(-7, 7) for i in range(d)))
            for x in points:
                hits = sum(1 for piece in pieces if piece.contains(x))
                assert hits == (1 if cone.contains(x) else 0)
            built += 1
    assert built == 50
    print("acceptance 4 PASS: 50 cones, 10^4 points each, exactly-one-piece holds")


# ---------------------------------------------------------------------------
# criterion 5: the signed decomposition identity
# ---------------------------------------------------------------------------


def test_acceptance_05_signed_decomposition_identity():
    runs = _decomposition_runs()
    assert len(runs) == 50
    rng = random.Random(55)
    for parent, result, _stats, _index, d in runs:
        for x in product(range(-7, 8), repeat=d):
            want = 1 if parent.contains(x) else 0
            assert result.evaluate(x) == want
        apex = parent.base.apex
        rays = parent.base.rays
        for _ in range(1000):
            lam = [Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4))) for _ in range(d)]
            lam[rng.randrange(d)] = Fraction(0)
            x = tuple(
                apex[i] + sum(lam[j] * rays[j][i] for j in range(d))
                for i in range(d)
            )
            want = 1 if parent.contains(x) else 0
            assert result.evaluate(x) == want
    print("acceptance 5 PASS: 50 decompositions verified on grids and boundary points")


# ---------------------------------------------------------------------------
# criterion 6: index descent and the depth bound
# ---------------------------------------------------------------------------


def test_acceptance_06_index_descent_and_depth_bound():
    for _parent, _result, stats, index, d in _decomposition_runs():
        assert stats["splits"], "a cone with index >= 2 must split at least once"
        for parent_index, child_index in stats["splits"]:
            assert child_index < parent_index
        if index > 2:
            bound = floor(1 + log2(log2(index)) / log2(Fraction(d, d - 1))) + 1
        else:
            bound = 2
        assert stats["max_depth"] <= max(bound, 1)
    print("acceptance 6 PASS: child indices always drop and depths respect the bound")


# ---------------------------------------------------------------------------
# criterion 7: fundamental parallelepiped enumeration
# ---------------------------------------------------------------------------


def test_acceptance_07_parallelepiped_points():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        d = rng.choice((2, 3))
        rays = tuple(tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d))
        cols = transpose(rays)
        index = abs(det(cols))
        if index == 0:
            continue
        sigma = tuple(rng.choice((1, -1)) for _ in range(d))
        apex = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d))
        cone = HalfOpenCone(base=SimplicialCone(apex=apex, rays=rays), sigma=sigma)
        pts = parallelepiped_points(cone, apex)
        assert len(pts) == index
        assert len(set(pts)) == index
        for p in pts:
            lam = solve([list(r) for r in cols], [Fraction(a) - b for a, b in zip(p, apex)])
            for j in range(d):
                if cone.sigma[j] == 1:
                    assert 0 <= lam[j] < 1
                else:
                    assert 0 < lam[j] <= 1
        checked += 1
    print("acceptance 7 PASS: 100 parallelepipeds have |det| distinct valid points")


# ---------------------------------------------------------------------------
# criterion 8: counts do not depend on the decomposition threshold
# ---------------------------------------------------------------------------


def test_acceptance_08_count_invariant_under_max_index():
    for P, got in _counting_corpus():
        assert count_polytope(P, max_index=10) == got
        assert count_polytope(P, max_index=100) == got
    print("acceptance 8 PASS: max_index in {1, 10, 100} gives identical counts")


def test_default_max_index_counts_match_unimodular_leaves():
    # the default stopping index changes the leaves, never a count: the
    # acceptance corpus, the polytopes of tests/data and the sweep family
    # at its chamber samples and a few wall and rational points
    for P, got in _counting_corpus():
        assert count_polytope(P) == got
    data = Path(__file__).parent / "data"
    for name in ("octahedron.txt", "skew4.txt"):
        P = parse_polytope((data / name).read_text())
        assert count_polytope(P) == count_polytope(P, max_index=1), name
    pp = parse_parametric((data / "sweep_family.txt").read_text())
    points = [ch.sample for ch in pp.analysis().chambers]
    points += [(0, 0), (7, 9), (Fraction(7, 3), Fraction(11, 3)), (100, 3)]
    for q in points:
        want = evaluate_count(pp, q, max_index=1)
        assert evaluate_count(pp, q) == want, q
        assert evaluate_count(pp, q, via="activities") == want, q
    print("default max_index: counts equal max_index 1 on the corpus and tests/data")


# ---------------------------------------------------------------------------
# criterion 9: specialization is direction-independent
# ---------------------------------------------------------------------------


def test_acceptance_09_specialization_direction_independent():
    corpus = _counting_corpus()
    picks = list(corpus[0:10]) + list(corpus[100:110]) + list(corpus[160:170])
    for P, want in picks:
        terms = []
        for v in enumerate_vertices(P):
            for piece in halfopen_triangulate(vertex_cone(P, v)):
                for eps, leaf in signed_decompose(piece, max_index=1).terms:
                    terms.append(gf_term(leaf, v.point, sign=eps))
        g = GenFun(terms=tuple(terms))
        rays = {ray for t in terms for ray in t.denominator_rays}
        values = set()
        for direction in generic_directions(rays, count=3):
            values.add(specialize_at_one(g, direction=direction))
        assert values == {want}
    print("acceptance 9 PASS: 30 instances specialize identically in 3 directions")


# ---------------------------------------------------------------------------
# criterion 10: dilated simplices via the parametric pipeline
# ---------------------------------------------------------------------------


def test_acceptance_10_dilated_simplices():
    start = time.monotonic()
    qset = HalfOpenPolyhedron(rows=(((-1,), Fraction(0), False),))
    for d in (2, 3):
        A = []
        for j in range(d):
            row = [0] * d
            row[j] = -1
            A.append(tuple(row))
        A.append((1,) * d)
        A = tuple(A)
        E = tuple((0,) for _ in range(d)) + ((1,),)
        f = (0,) * (d + 1)
        pp = ParametricPolytope(A=A, E=E, f=f, qset=qset)
        for t in range(11):
            got = evaluate_count(pp, (t,))
            want = brute_count(HPolytope(A=A, b=(0,) * d + (t,)))
            assert got == want
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"acceptance 10 PASS: dilated simplices d=2,3 match for t=0..10 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 11: chamber and activity-region evaluation agree
# ---------------------------------------------------------------------------


def _acceptance_families():
    nonneg1 = HalfOpenPolyhedron(rows=(((-1,), Fraction(0), False),))
    nonneg2 = HalfOpenPolyhedron(
        rows=(((-1, 0), Fraction(0), False), ((0, -1), Fraction(0), False))
    )
    interval = ParametricPolytope(
        A=((-1,), (2,), (1,)), E=((0,), (1,), (1,)), f=(0, 6, 0), qset=nonneg1
    )
    minimum = ParametricPolytope(
        A=((-1,), (1,), (1,)),
        E=((0, 0), (1, 0), (0, 1)),
        f=(0, 0, 0),
        qset=nonneg2,
    )
    rectangle = ParametricPolytope(
        A=((-1, 0), (1, 0), (0, -1), (0, 1)),
        E=((0, 0), (1, 0), (0, 0), (0, 1)),
        f=(0, 0, 0, 0),
        qset=nonneg2,
    )
    triangle = ParametricPolytope(
        A=((-1, 0), (0, -1), (1, 1)),
        E=((0,), (0,), (1,)),
        f=(0, 0, 0),
        qset=nonneg1,
    )
    return (
        (interval, [(Fraction(6),), (Fraction(0),), (Fraction(13, 2),)]),
        (minimum, [(Fraction(k), Fraction(k)) for k in range(4)]),
        (rectangle, [(Fraction(0), Fraction(3)), (Fraction(3), Fraction(0))]),
        (triangle, [(Fraction(0),), (Fraction(5),)]),
    )


def test_acceptance_11_chamber_and_activity_evaluation_agree():
    rng = random.Random(11)
    for pp, boundary in _acceptance_families():
        p = len(pp.E[0])
        qs = list(boundary)
        while len(qs) < 50:
            qs.append(
                tuple(Fraction(rng.randint(-2, 12), rng.choice((1, 2))) for _ in range(p))
            )
        for q in qs:
            a = evaluate_count(pp, q, via="chambers")
            b = evaluate_count(pp, q, via="activities")
            assert a == b
    print("acceptance 11 PASS: both evaluation routes agree at 50 parameters per family")
