"""Tests for generating functions, parallelepiped points, and counting."""

import random
from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm

import pytest

from primalcount import genfun
from primalcount.genfun import (
    CompiledLeaves,
    GenFun,
    GenFunTerm,
    count_leaves,
    count_polytope,
    generic_directions,
    gf_term,
    leaf_program,
    leaf_residues,
    parallelepiped_points,
    specialize_at_one,
)
from primalcount.errors import NotFullDimensionalError
from primalcount.halfopen import HalfOpenCone, signed_decompose
from primalcount.linalg import det, dot, identity, smith_normal_form, solve, transpose
from primalcount.polytope import HPolytope, SimplicialCone, enumerate_vertices, vertex_cone


def hoc(rays, sigma, apex=None):
    d = len(rays[0])
    if apex is None:
        apex = (Fraction(0),) * d
    return HalfOpenCone(base=SimplicialCone(apex=tuple(apex), rays=tuple(map(tuple, rays))),
                        sigma=tuple(sigma))


def brute_parallelepiped(rays, sigma, apex):
    """Scan a bounding box for the half-open parallelepiped's lattice points."""
    d = len(rays)
    corners = []
    for lam in product([0, 1], repeat=d):
        corners.append([apex[t] + sum(l * r[t] for l, r in zip(lam, rays))
                        for t in range(d)])
    bounds = [(min(c[t] for c in corners), max(c[t] for c in corners))
              for t in range(d)]
    cone = hoc(rays, sigma, apex)
    found = []
    for x in product(*(range(int(lo) - 1, int(hi) + 2) for lo, hi in bounds)):
        lam = cone.base.coefficients(x)
        ok = True
        for l, s in zip(lam, sigma):
            if s > 0 and not (0 <= l < 1):
                ok = False
            if s < 0 and not (0 < l <= 1):
                ok = False
        if ok:
            found.append(x)
    return sorted(found)


def test_parallelepiped_known_cones():
    pts = parallelepiped_points(hoc([(1, 0), (1, 2)], (1, 1)), (0, 0))
    assert sorted(pts) == [(0, 0), (1, 1)]

    pts = parallelepiped_points(hoc([(1, 0), (1, 2)], (-1, 1)), (0, 0))
    assert sorted(pts) == [(1, 0), (1, 1)]

    pts = parallelepiped_points(hoc([(1, 0), (0, 1)], (1, 1)),
                                (Fraction(1, 2), Fraction(1, 2)))
    assert pts == [(1, 1)]


def test_parallelepiped_against_box_scan():
    rng = random.Random(3)
    checked = 0
    while checked < 30:
        d = rng.choice([2, 3])
        rays = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        index = abs(det(transpose(rays)))
        if index == 0 or index > 40:
            continue
        checked += 1
        sigma = tuple(rng.choice([1, -1]) for _ in range(d))
        apex = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                     for _ in range(d))
        got = parallelepiped_points(hoc(rays, sigma), apex)
        assert len(got) == index
        assert len(set(got)) == index
        assert sorted(got) == brute_parallelepiped(rays, sigma, apex), (rays, sigma, apex)


def parallelepiped_reference(cone, apex):
    """parallelepiped_points in Fraction arithmetic, from rational dual normals.

    With R the matrix of ray rows, dual_j = -(row j of (R^T)^-1) = -R^-1 e_j
    has dual_j . rays[i] == -delta_ij, so
    mu_j = dual_j . (apex - x) is x's j-th ray coordinate relative to
    the apex, rounded by floor and ceil of Fractions.
    """
    rays = cone.base.rays
    d = len(rays)
    cols = transpose(rays)
    snf = smith_normal_form(cols)
    duals = [tuple(-x for x in solve(rays, e)) for e in identity(d)]
    base_mu = [dot(n, apex) for n in duals]
    wcols = transpose(snf.W)
    shift = [[dot(n, w) for w in wcols] for n in duals]
    points = []
    for k in product(*(range(s) for s in snf.s)):
        x = [sum(k_i * w[t] for k_i, w in zip(k, wcols)) for t in range(d)]
        for j in range(d):
            mu = base_mu[j] - sum(k_i * s for k_i, s in zip(k, shift[j]))
            n_j = -floor(mu) if cone.sigma[j] > 0 else 1 - ceil(mu)
            if n_j:
                for t in range(d):
                    x[t] += n_j * rays[j][t]
        points.append(tuple(int(v) for v in x))
    return points


def test_parallelepiped_matches_fraction_reference():
    # Same points in the same order as the rational-dual computation,
    # for d = 2..4, both signs of det, mixed flags and apexes with
    # denominators 1..7 and negative coordinates.
    rng = random.Random(11)
    seen = {"det": set(), "den": set(), "mixed": 0, "negative": 0}
    checked = 0
    while checked < 240:
        d = 2 + checked % 3
        rays = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        D = det(transpose(rays))
        if D == 0 or abs(D) > 60:
            continue
        checked += 1
        sigma = tuple(rng.choice([1, -1]) for _ in range(d))
        den = 1 + checked % 7
        apex = tuple(Fraction(rng.randint(-6 * den, 6 * den), den) for _ in range(d))
        cone = hoc(rays, sigma)
        got = parallelepiped_points(cone, apex)
        assert got == parallelepiped_reference(cone, apex), (rays, sigma, apex)
        assert len(got) == abs(D)
        seen["det"].add(D > 0)
        seen["den"].add(max(a.denominator for a in apex))
        seen["mixed"] += len(set(sigma)) == 2
        seen["negative"] += any(a < 0 for a in apex)
    assert seen["det"] == {True, False}
    assert seen["den"] == set(range(1, 8))
    assert seen["mixed"] >= 50 and seen["negative"] >= 50


def test_unimodular_parallelepiped_needs_no_smith_form(monkeypatch):
    # Index-1 cones have one residue class: the same single point as the
    # Fraction reference, for rational apexes and mixed flags, and no
    # Smith form; cones of larger index still take one.
    calls = []
    real = genfun.smith_normal_form
    monkeypatch.setattr(genfun, "smith_normal_form",
                        lambda B: calls.append(B) or real(B))
    rng = random.Random(19)
    seen = {1: 0, "big": 0, "mixed": 0}
    while seen[1] < 150 or seen["big"] < 30:
        d = rng.choice((2, 3, 4))
        rays = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        D = abs(det(transpose(rays)))
        if D == 0 or D > 30:
            continue
        sigma = tuple(rng.choice([1, -1]) for _ in range(d))
        den = rng.randint(1, 6)
        apex = tuple(Fraction(rng.randint(-5 * den, 5 * den), den) for _ in range(d))
        cone = hoc(rays, sigma)
        before = len(calls)
        got = parallelepiped_points(cone, apex)
        assert got == parallelepiped_reference(cone, apex), (rays, sigma, apex)
        assert len(calls) - before == (D > 1)
        seen[1 if D == 1 else "big"] += 1
        seen["mixed"] += D == 1 and len(set(sigma)) == 2
    assert seen["mixed"] >= 50


def test_parallelepiped_halfopen_lambda_membership():
    cone = hoc([(2, 1), (0, 3)], (-1, 1))
    pts = parallelepiped_points(cone, (0, 0))
    assert len(pts) == 6
    for p in pts:
        lam = cone.base.coefficients(p)
        assert 0 < lam[0] <= 1
        assert 0 <= lam[1] < 1


def test_gf_term_structure():
    quadrant = gf_term(hoc([(1, 0), (0, 1)], (1, 1)), (0, 0))
    assert quadrant.sign == 1
    assert quadrant.numerator_exponents == ((0, 0),)
    assert quadrant.denominator_rays == ((1, 0), (0, 1))

    halfline = gf_term(hoc([(1,)], (-1,)), (0,))
    assert halfline.numerator_exponents == ((1,),)  # z/(1-z)

    two = gf_term(hoc([(1, 0), (1, 2)], (1, 1)), (0, 0))
    assert sorted(two.numerator_exponents) == [(0, 0), (1, 1)]
    assert two.denominator_rays == ((1, 0), (1, 2))


def test_specialize_segment():
    # [0,2] as two vertex cones: 1/(1-z) + z^2/(1-z^-1)
    g = GenFun(terms=(
        GenFunTerm(1, ((0,),), ((1,),)),
        GenFunTerm(1, ((2,),), ((-1,),)),
    ))
    assert specialize_at_one(g) == 3


def test_specialize_empty():
    assert specialize_at_one(GenFun(terms=())) == 0


def square_genfun():
    return GenFun(terms=(
        GenFunTerm(1, ((0, 0),), ((1, 0), (0, 1))),
        GenFunTerm(1, ((1, 0),), ((-1, 0), (0, 1))),
        GenFunTerm(1, ((0, 1),), ((1, 0), (0, -1))),
        GenFunTerm(1, ((1, 1),), ((-1, 0), (0, -1))),
    ))


def test_specialize_unit_square():
    assert specialize_at_one(square_genfun()) == 4


def test_specialize_direction_invariance():
    g = square_genfun()
    values = {specialize_at_one(g, direction=mu)
              for mu in [(1, 2), (2, 1), (3, 5), (1, -2)]}
    assert values == {4}


def test_specialize_rejects_orthogonal_direction():
    with pytest.raises(ValueError):
        specialize_at_one(square_genfun(), direction=(0, 1))


def specialize_reference(g, direction):
    """Independent specialization at z = 1 by Fraction series division."""
    def binomials(N, order):
        out = [1]
        for k in range(1, order + 1):
            out.append(out[-1] * (N - k + 1) // k)
        return out

    def mul_trunc(a, b, order):
        out = [Fraction(0)] * (order + 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j <= order:
                    out[i + j] += ai * bj
        return out

    def div_trunc(num, den, order):
        q = [Fraction(0)] * (order + 1)
        for k in range(order + 1):
            acc = Fraction(num[k]) if k < len(num) else Fraction(0)
            for i in range(1, min(k, len(den) - 1) + 1):
                acc -= den[i] * q[k - i]
            q[k] = acc / den[0]
        return q

    d = len(g.terms[0].denominator_rays)
    total = Fraction(0)
    for term in g.terms:
        exps = [dot(direction, b) for b in term.denominator_rays]
        shift = sum(-e for e in exps if e < 0)
        nneg = sum(1 for e in exps if e < 0)
        sgn = term.sign * (-1 if (nneg + d) % 2 else 1)
        num = [Fraction(0)] * (d + 1)
        for p in term.numerator_exponents:
            for k, c in enumerate(binomials(dot(direction, p) + shift, d)):
                num[k] += c
        H = [Fraction(1)]
        for e in exps:
            H = mul_trunc(H, [Fraction(c) for c in binomials(abs(e), d + 1)[1:]], d)
        total += sgn * div_trunc(num, H, d)[d]
    assert total.denominator == 1
    return int(total)


def random_box_with_cuts(rng, d):
    """A random full-dimensional nonempty d-box with up to two cuts."""
    while True:
        A, b = [], []
        for j in range(d):
            for s in (1, -1):
                A.append(tuple(s * int(i == j) for i in range(d)))
                b.append(rng.randint(0, 6))
        for _ in range(rng.randint(0, 2)):
            extra = tuple(rng.randint(-7, 7) for _ in range(d))
            if any(extra):
                A.append(extra)
                b.append(rng.randint(-3, 20))
        P = HPolytope(A=tuple(A), b=tuple(b))
        try:
            if enumerate_vertices(P):
                return P
        except NotFullDimensionalError:
            continue


def test_specialize_matches_fraction_reference():
    rng = random.Random(53)
    negative = 0
    for case in range(40):
        P = random_box_with_cuts(rng, 2 + case % 2)
        terms = tuple(gf_term(leaf, v.point, sign=eps)
                      for v in enumerate_vertices(P)
                      for eps, leaf in signed_decompose(vertex_cone(P, v)).terms)
        g = GenFun(terms=terms)
        rays = {ray for t in terms for ray in t.denominator_rays}
        for mu in generic_directions(rays, count=3):
            negative += sum(dot(mu, b) < 0 for t in terms for b in t.denominator_rays)
            assert specialize_at_one(g, mu) == specialize_reference(g, mu), (P, mu)
    assert negative > 100


@pytest.mark.parametrize("max_index", [1, 20])
def test_compiled_leaves_match_count_leaves(max_index):
    # Leaves of random polytopes' vertex cones, counted at their vertices
    # and at vertices moved by a random rational translation.
    rng = random.Random(61 + max_index)
    for case in range(24):
        P = random_box_with_cuts(rng, 2 + case % 2)
        vertices = enumerate_vertices(P)
        groups = [signed_decompose(vertex_cone(P, v), max_index=max_index).terms
                  for v in vertices]
        mu = next(generic_directions({ray for leaves in groups for _, leaf in leaves
                                      for ray in leaf.base.rays}))
        compiled = CompiledLeaves([
            leaf_program(leaves, [leaf_residues(leaf) for _, leaf in leaves], mu)
            for leaves in groups])
        for shift in [(0,) * P.dim] + [tuple(Fraction(rng.randint(-9, 9),
                                                      rng.choice((1, 2, 3, 7)))
                                             for _ in range(P.dim))
                                       for _ in range(3)]:
            apexes = [tuple(x + t for x, t in zip(v.point, shift)) for v in vertices]
            want = count_leaves(list(zip(apexes, groups)))
            scaled = []
            for apex in apexes:
                den = lcm(*(Fraction(x).denominator for x in apex))
                scaled.append((tuple(int(x * den) for x in apex), den))
            assert compiled.count(scaled) == want, (P, shift)
            # any common denominator of an apex works, not only the least
            assert compiled.count([(tuple(3 * x for x in a), 3 * den)
                                   for a, den in scaled]) == want


def test_generic_directions():
    rays = [(1, -1), (0, 1)]
    mus = list(generic_directions(rays, count=3))
    assert len(mus) == 3
    assert len(set(mus)) == 3
    for mu in mus:
        assert all(dot(mu, b) != 0 for b in rays)


def brute_box_count(A, b, box):
    total = 0
    for x in product(*(range(lo, hi + 1) for lo, hi in box)):
        if all(dot(row, x) <= rhs for row, rhs in zip(A, b)):
            total += 1
    return total


def test_count_unit_cube():
    A = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    b = [1, 1, 1, 0, 0, 0]
    assert count_polytope(HPolytope(A=tuple(A), b=tuple(b))) == 8


def test_count_simplex():
    A = [(-1, 0), (0, -1), (1, 1)]
    b = [0, 0, 10]
    assert count_polytope(HPolytope(A=tuple(A), b=tuple(b))) == 66


def test_count_empty():
    A = [(1,), (-1,)]
    b = [-1, 0]
    assert count_polytope(HPolytope(A=tuple(A), b=tuple(b))) == 0


def test_count_fractional_vertices():
    # triangle with vertices (0,0), (7/2,0), (0,7/3)
    A = [(-1, 0), (0, -1), (2, 3)]
    b = [0, 0, 7]
    expected = brute_box_count(A, b, [(0, 4), (0, 3)])
    assert count_polytope(HPolytope(A=tuple(A), b=tuple(b))) == expected


def test_count_skew_triangle_and_stop_levels():
    # vertex cones have index > 1, so the decomposition actually recurses
    A = [(-2, 1), (1, -3), (1, 1)]
    b = [0, 0, 11]
    P = HPolytope(A=tuple(A), b=tuple(b))
    expected = brute_box_count(A, b, [(-1, 12), (-1, 12)])
    counts = {ell: count_polytope(P, max_index=ell) for ell in (1, 10, 100)}
    assert set(counts.values()) == {expected}


def test_count_stats():
    A = [(-1, 0), (0, -1), (1, 1)]
    b = [0, 0, 10]
    stats = {}
    n = count_polytope(HPolytope(A=tuple(A), b=tuple(b)), stats=stats)
    assert n == 66
    assert stats["num_vertices"] == 3
    assert stats.get("num_cones", 0) >= 3

