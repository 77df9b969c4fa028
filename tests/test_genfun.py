"""Tests for generating functions, parallelepiped points, and counting."""

import random
import sys
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, lcm
from pathlib import Path

import pytest

from primalcount import genfun, linalg
from primalcount.cli import parse_parametric
from primalcount.genfun import (
    CompiledLeaves,
    GenFun,
    GenFunTerm,
    count_leaves,
    count_polytope,
    generic_directions,
    gf_term,
    parallelepiped_points,
    specialize_at_one,
)
from primalcount.errors import NotFullDimensionalError
from primalcount.halfopen import HalfOpenCone, signed_decompose
from primalcount.linalg import det, dot, identity, smith_normal_form, solve, transpose
from primalcount.oracle import brute_count
from primalcount.polytope import HPolytope, SimplicialCone, enumerate_vertices, vertex_cone

DATA = Path(__file__).parent / "data"


def hoc(rays, sigma, apex=None):
    d = len(rays[0])
    if apex is None:
        apex = (Fraction(0),) * d
    return HalfOpenCone(base=SimplicialCone(apex=tuple(apex), rays=tuple(map(tuple, rays))),
                        sigma=tuple(sigma))


def coefficients(cone, x):
    """Fraction ray coordinates lam of x: x - apex == sum lam_j rays[j]."""
    shifted = tuple(a - b for a, b in zip(x, cone.base.apex))
    return solve(transpose(cone.base.rays), shifted)


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
        lam = coefficients(cone, x)
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
    # The points of the rational-dual computation on a Smith walk, sorted,
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
        assert got == sorted(parallelepiped_reference(cone, apex)), (rays, sigma, apex)
        assert len(got) == abs(D)
        seen["det"].add(D > 0)
        seen["den"].add(max(a.denominator for a in apex))
        seen["mixed"] += len(set(sigma)) == 2
        seen["negative"] += any(a < 0 for a in apex)
    assert seen["det"] == {True, False}
    assert seen["den"] == set(range(1, 8))
    assert seen["mixed"] >= 50 and seen["negative"] >= 50


def test_no_smith_form_for_any_index(monkeypatch):
    # Residue classes come from a unit generator or the Hermite box at
    # every index: with every
    # binding of smith_normal_form made to raise, the walk still gives the
    # sorted points of the Smith-walk reference on cones of index 1..30
    # with rational apexes and mixed flags, and fixed counts, both
    # parametric routes and chamber compilation run at indices above 1.
    def refuse(B):
        raise AssertionError("smith_normal_form called")

    real = linalg.smith_normal_form
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "primalcount"
                and vars(module).get("smith_normal_form") is real):
            monkeypatch.setattr(module, "smith_normal_form", refuse)
    assert linalg.smith_normal_form is refuse
    rng = random.Random(19)
    seen = {1: 0, "big": 0, "mixed": 0}
    while seen[1] < 60 or seen["big"] < 200:
        d = rng.choice((2, 3, 4))
        rays = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        D = abs(det(transpose(rays)))
        if D == 0 or D > 30:
            continue
        sigma = tuple(rng.choice([1, -1]) for _ in range(d))
        den = rng.randint(1, 6)
        apex = tuple(Fraction(rng.randint(-5 * den, 5 * den), den) for _ in range(d))
        cone = hoc(rays, sigma)
        want = sorted(parallelepiped_reference(cone, apex))  # its own Smith form
        assert parallelepiped_points(cone, apex) == want, (rays, sigma, apex)
        seen[1 if D == 1 else "big"] += 1
        seen["mixed"] += len(set(sigma)) == 2
    assert seen["mixed"] >= 100

    A = [(-2, 1), (1, -3), (1, 1)]  # vertex cones of index 5, 3 and 4
    b = [0, 0, 11]
    assert count_polytope(HPolytope(A=tuple(A), b=tuple(b))) == \
        brute_box_count(A, b, [(-1, 12), (-1, 12)])
    pp = parse_parametric((DATA / "sweep_family.txt").read_text())
    for max_index in (5, 20):
        analysis = pp.analysis(max_index)
        for ch in analysis.chambers:
            assert analysis.count_at(ch.sample) == \
                analysis.count_at(ch.sample, via="activities")
        leaves = {leaf for i in range(len(analysis.vertices))
                  for _, leaf in analysis._decomposition(i)[0]}
        assert max(leaf.index for leaf in leaves) > 1


def test_parallelepiped_halfopen_lambda_membership():
    cone = hoc([(2, 1), (0, 3)], (-1, 1))
    pts = parallelepiped_points(cone, (0, 0))
    assert len(pts) == 6
    for p in pts:
        lam = coefficients(cone, p)
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
    total = sum(reference_share(term, direction) for term in g.terms)
    assert total.denominator == 1
    return int(total)


def reference_share(term, direction):
    """One term's share of specialize_reference, a Fraction."""
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

    d = len(term.denominator_rays)
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
    return sgn * div_trunc(num, H, d)[d]


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


def halfopen_simplex_count(apex, rays, strict):
    """Lattice points of the half-open simplex apex + conv(0, rays), by scan.

    With x = apex + sum lam_j rays[j], strict[j] (j < d) makes the facet
    lam_j = 0 strict and strict[d] the facet sum lam_j = 1.  Integer
    arithmetic: apex = a / q and the Fraction inverse of the ray matrix
    scaled by m give lam_j * q * m as integers.
    """
    d = len(rays)
    inverse_rows = transpose([solve(transpose(rays), e) for e in identity(d)])
    q = lcm(*(Fraction(x).denominator for x in apex))
    m = lcm(*(x.denominator for row in inverse_rows for x in row))
    rows = [[int(x * m) for x in row] for row in inverse_rows]
    a = [int(x * q) for x in apex]
    corners = [apex] + [tuple(x + r for x, r in zip(apex, ray)) for ray in rays]
    box = [range(floor(min(c[t] for c in corners)), ceil(max(c[t] for c in corners)) + 1)
           for t in range(d)]
    one = q * m
    total = 0
    for x in product(*box):
        y = [q * xt - at for xt, at in zip(x, a)]
        lam = [dot(row, y) for row in rows]
        if all(v > 0 if f else v >= 0 for v, f in zip(lam, strict)):
            s = sum(lam)
            total += s < one if strict[d] else s <= one
    return total


def test_count_leaves_matches_specialized_terms():
    # count_leaves sums each leaf's share over its residues, along a
    # unit generator or through its Hermite box (genfun._walk);
    # it must equal specialize_at_one of the leaves' gf_terms and the
    # scanned count.  Each case is a signed sum of half-open simplices
    # with a common rational vertex; by Brion's theorem a simplex is the
    # sum of its half-open tangent cones, the cone at a vertex keeping
    # the flags of the facets through it.  Cones at one vertex share an
    # apex group.  Indices reach 300, above the default max_index, and
    # unimodular cones, scaled ones (Hermite diagonal c, ..., c) and
    # random ones with several Hermite entries above 1 all occur; the
    # multi-axis boxes, whether walked along a unit generator or not,
    # are where a wrong walk would show.
    rng = random.Random(71)
    spans = {2: 15, 3: 6, 4: 3}
    seen = {"unimodular": 0, "above_default": 0, "multi_axis": 0, "mixed": 0,
            "twin_index": 0, "den": set(), "eps": set()}
    for case in range(90):
        d = 2 + case % 3
        den = 1 + case % 7
        apex = tuple(Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(d))
        groups = {}
        expected = 0
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("random", "large", "unimodular", "scaled"))
            while True:
                if kind in ("random", "large"):
                    span = spans[d]
                    rays = [tuple(rng.randint(-span, span) for _ in range(d))
                            for _ in range(d)]
                else:
                    rays = [list(row) for row in identity(d)]
                    for _ in range(6):  # row additions keep |det| = 1
                        i, j = rng.sample(range(d), 2)
                        c = rng.choice((-1, 1))
                        rays[i] = [x + c * y for x, y in zip(rays[i], rays[j])]
                    c = rng.choice((2, 3)) if kind == "scaled" else 1
                    rays = [tuple(c * x for x in row) for row in rays]
                if (200 if kind == "large" else 0) < abs(det(rays)) <= 300:
                    break
            strict = [rng.random() < 0.5 for _ in range(d + 1)]
            eps = rng.choice((1, -1))
            expected += eps * halfopen_simplex_count(apex, rays, strict)
            seen["eps"].add(eps)
            corners = [(0,) * d] + rays
            for i, ci in enumerate(corners):
                vertex = tuple(x + c for x, c in zip(apex, ci))
                others = [j for j in range(d + 1) if j != i]
                cone_rays = [tuple(x - y for x, y in zip(corners[j], ci)) for j in others]
                # the cone's facet opposite the ray to corner j is the
                # simplex's facet opposite corner j
                sigma = [-1 if strict[j - 1 if j else d] else 1 for j in others]
                leaf = hoc(cone_rays, sigma, vertex)
                groups.setdefault(vertex, []).append((eps, leaf))
                seen["unimodular"] += leaf.index == 1
                seen["above_default"] += leaf.index > genfun.DEFAULT_MAX_INDEX
                if leaf.index > 1:
                    seen["multi_axis"] += sum(
                        h > 1 for h in linalg.hermite_diagonal(leaf.base.rays)) > 1
                seen["mixed"] += len(set(sigma)) == 2
        seen["den"].add(den)
        # Brion sums hide some errors that every cone makes alike (a walk
        # whose <mu, k> ignores all but the fastest axis still sums to the
        # count), so
        # one leaf is also swapped for its twin: the same half-open cone
        # on rescaled, reordered rays, which has another Hermite box.
        vertex = rng.choice(sorted(groups))
        eps, leaf = rng.choice(groups[vertex])
        order = rng.sample(range(d), d)
        twin_rays = []
        for j in order:
            ray = leaf.base.rays[j]
            c, g = rng.randint(1, 3), gcd(*ray)
            twin_rays.append(tuple(c * x // g for x in ray))
        twin = hoc(twin_rays, [leaf.sigma[j] for j in order], vertex)
        groups[vertex] += [(-eps, leaf), (eps, twin)]
        seen["twin_index"] += twin.index != leaf.index
        pairs = list(groups.items())
        terms = tuple(gf_term(leaf, vertex, sign=eps)
                      for vertex, leaves in pairs for eps, leaf in leaves)
        assert count_leaves(pairs) == specialize_at_one(GenFun(terms=terms)) == expected, \
            (apex, pairs)
    assert seen["unimodular"] >= 100 and seen["above_default"] >= 100
    assert seen["multi_axis"] >= 200 and seen["mixed"] >= 300
    assert seen["twin_index"] >= 50
    assert seen["den"] == set(range(1, 8)) and seen["eps"] == {1, -1}


def residue_group(rays):
    """The kind of the group Z^d / lattice(rays), by Fractions.

    The order of e_i is the lcm of the denominators of its coordinates
    in the rays; the group is cyclic when its Smith form has at most one
    entry above 1."""
    index = abs(det(transpose(rays)))
    if index == 1:
        return "index 1"
    orders = [lcm(*(x.denominator for x in solve(transpose(rays), e)))
              for e in identity(len(rays))]
    if index in orders:
        axes = sum(h > 1 for h in linalg.hermite_diagonal(rays))
        return "generator, one axis" if axes == 1 else "generator, several axes"
    if sum(s > 1 for s in smith_normal_form(rays).s) == 1:
        return "cyclic, no unit generator"
    return "not cyclic"


def test_leaves_walk_a_unit_generator_or_their_hermite_box(monkeypatch):
    # One leaf at a time at a fractional apex, with mixed strict flags,
    # compiled as a fixed count: its share, the compiled constant over
    # the compiled denominator, must equal the share of its gf_term, whose
    # points come from its Hermite box, in the Fraction reference of
    # specialize_at_one.  A leaf walks along a unit vector e_i when e_i
    # generates Z^d / lattice(rays), and then builds no Hermite form; a
    # leaf whose group is not cyclic, or is cyclic with no unit
    # generator, walks its Hermite box.  Every kind of leaf occurs, with
    # gains <mu, ray> of both signs, and direction mu of both kinds: the
    # first generic one and one with a zero entry.
    herm = []
    real = genfun.hermite_diagonal
    monkeypatch.setattr(genfun, "hermite_diagonal",
                        lambda rays: herm.append(rays) or real(rays))
    rng = random.Random(37)
    fixed = [((2, 0, 0), (0, 2, 0), (0, 0, 1)), ((2, 0), (0, 3)),
             ((1, 0, 0), (0, 1, 0), (1, 2, 5)), ((2, 1), (0, 3)),
             ((1, 2, 0), (0, 1, 0), (0, 0, 1))]
    seen = {}
    signs, zeros = set(), set()
    case = 0
    while case < len(fixed) or min(seen.values()) < 40 or len(seen) < 5:
        if case < len(fixed):
            rays = fixed[case]
        else:
            d = rng.choice((2, 3, 4))
            rays = tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d))
            if not 0 < abs(det(transpose(rays))) <= 40:
                continue
        case += 1
        d = len(rays)
        kind = residue_group(rays)
        seen[kind] = seen.get(kind, 0) + 1
        sigma = rng.sample([1, -1] + [rng.choice((1, -1)) for _ in range(d - 2)], d)
        leaf = hoc(rays, sigma)
        den = rng.randint(2, 7)
        apex = tuple(Fraction(rng.randint(-6 * den, 6 * den), den) for _ in range(d))
        q, a = linalg._int_row(apex)
        eps = rng.choice((1, -1))
        mu = next(generic_directions(rays))
        if case % 2:
            # a direction with a zero entry, where one pairs with every ray
            mu = next((m for m in product(range(-3, 4), repeat=d)
                       if 0 in m and all(dot(m, r) for r in rays)), mu)
        signs.update(dot(mu, r) > 0 for r in rays)
        zeros.add(0 in mu)
        del herm[:]
        compiled = CompiledLeaves([[(eps, leaf)]], [((), a, q)], mu=mu)
        assert herm == ([] if kind.startswith(("index", "generator")) else [rays])
        assert compiled.groups == []
        want = reference_share(gf_term(leaf, apex, eps), mu)
        assert Fraction(compiled.constant, compiled.denominator) == want, \
            (rays, sigma, apex, mu)
    assert signs == zeros == {True, False}
    assert len(seen) == 5 and min(seen.values()) >= 40


@pytest.mark.parametrize("max_index", [1, 20])
def test_compiled_leaves_match_count_leaves(max_index):
    # Leaves of random polytopes' vertex cones, compiled at the maps
    # t -> vertex + t of a translation t = z / D in d parameters, so each
    # vertex a / q has M = q I, c = a and m = q.  The moved leaves count
    # the translated polytope {A x <= b + A t}, which the oracle scans.
    rng = random.Random(61 + max_index)
    for case in range(24):
        P = random_box_with_cuts(rng, 2 + case % 2)
        vertices = enumerate_vertices(P)
        groups = [signed_decompose(vertex_cone(P, v), max_index=max_index).terms
                  for v in vertices]
        maps = []
        for v in vertices:
            q = lcm(*(Fraction(x).denominator for x in v.point))
            a = [int(x * q) for x in v.point]
            maps.append(([[q * (i == j) for j in range(P.dim)] for i in range(P.dim)],
                         a, q))
        compiled = CompiledLeaves(groups, maps)
        for shift in [(0,) * P.dim] + [tuple(Fraction(rng.randint(-9, 9),
                                                      rng.choice((1, 2, 3, 7)))
                                             for _ in range(P.dim))
                                       for _ in range(3)]:
            moved = HPolytope(A=P.A, b=tuple(bi + dot(row, shift)
                                             for row, bi in zip(P.A, P.b)))
            want = brute_count(moved)
            D = lcm(*(Fraction(t).denominator for t in shift))
            z = [int(t * D) for t in shift]
            assert compiled.count(z, D) == want, (P, shift)
            # any common denominator of t works, not only the least
            assert compiled.count([3 * x for x in z], 3 * D) == want


def test_fixed_facets_fold_into_the_compiled_constant():
    # The half-open simplices of test_count_leaves_matches_specialized_terms,
    # as sums of tangent cones, translated by t = T z / D with T of rank
    # at most one, often along one of the simplex's rays, so some facets
    # of a leaf have rows without a parameter part (fixed, rounded at
    # compile time) and others move with z.  Each vertex a / q is the map
    # (k q T, k a, k q) for a scale k, so m > 1 occurs with c_j divisible
    # by m and not.  The compiled count must equal count_leaves at the
    # Fraction apex and the scanned count at every D.
    rng = random.Random(83)
    seen = set()
    for case in range(36):
        d, p = 2 + case % 2, 1 + case % 3 % 2
        den = 1 + case % 4
        apex = tuple(Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(d))
        while True:
            rays = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
            if 0 < abs(det(rays)) <= 12:
                break
        strict = [rng.random() < 0.5 for _ in range(d + 1)]
        w = [rng.randint(-2, 2) for _ in range(p)]
        along = rng.choice([rng.choice(rays), (0,) * d,
                            tuple(rng.randint(-2, 2) for _ in range(d))])
        T = [[x * y for y in w] for x in along]
        corners = [(0,) * d] + rays
        groups, maps = [], []
        for i, ci in enumerate(corners):
            vertex = tuple(x + c for x, c in zip(apex, ci))
            others = [j for j in range(d + 1) if j != i]
            cone_rays = [tuple(x - y for x, y in zip(corners[j], ci)) for j in others]
            sigma = [-1 if strict[j - 1 if j else d] else 1 for j in others]
            leaf = hoc(cone_rays, sigma, vertex)
            k = rng.choice((1, 2, 3))
            q = lcm(*(x.denominator for x in vertex))
            M = [[k * q * x for x in row] for row in T]
            c = [k * int(x * q) for x in vertex]
            groups.append([(1, leaf)])
            maps.append((M, c, k * q))
            fixed = [not any(dot(n, col) for col in zip(*M)) for n in leaf.base.normals]
            seen.add(("leaf fixed facets", min(sum(fixed), 2 - all(fixed))))
            for n, s, f in zip(leaf.base.normals, sigma, fixed):
                seen.add((f, s < 0))
                if f and k * q > 1:
                    seen.add(("divisible", dot(n, c) % (k * q) == 0))
        compiled = CompiledLeaves(groups, maps)
        for D in (1, 2, 3, 7, 10 ** 6 + 3):
            z = [rng.randint(-3 * D, 3 * D) for _ in range(p)]
            t = [Fraction(dot(row, z), D) for row in T]
            moved = [(tuple(x + y for x, y in zip(leaf.base.apex, t)), leaves)
                     for leaves in groups for _, leaf in leaves]
            want = halfopen_simplex_count(tuple(x + y for x, y in zip(apex, t)),
                                          rays, strict)
            assert compiled.count(z, D) == count_leaves(moved) == want, \
                (apex, rays, strict, T, z, D)
    assert seen >= {(True, True), (True, False), (False, True), (False, False),
                    ("divisible", True), ("divisible", False),
                    ("leaf fixed facets", 0), ("leaf fixed facets", 1),
                    ("leaf fixed facets", 2)}


def test_fixed_counts_leave_no_work_per_evaluation():
    # With p = 0 every facet row is fixed: compiling rounds them all, so
    # no leaf is kept for count and the count is the compiled constant.
    P = HPolytope(A=((-2, 1), (1, -3), (1, 1)), b=(0, 0, 11))
    groups, maps = [], []
    for v in enumerate_vertices(P):
        groups.append(signed_decompose(vertex_cone(P, v), max_index=20).terms)
        q = lcm(*(Fraction(x).denominator for x in v.point))
        maps.append(((), [int(x * q) for x in v.point], q))
    assert max(leaf.index for leaves in groups for _, leaf in leaves) > 1
    compiled = CompiledLeaves(groups, maps)
    assert compiled.groups == []
    assert compiled.constant == compiled.count((), 1) * compiled.denominator
    assert compiled.count((), 1) == brute_box_count(P.A, P.b, [(-1, 12), (-1, 12)])


def counted_box_sums(monkeypatch):
    """A list that gets one entry per _box_sums call from now on."""
    calls, real = [], genfun._box_sums

    def counted(Ns, order):
        calls.append(len(Ns))
        return real(Ns, order)

    monkeypatch.setattr(genfun, "_box_sums", counted)
    return calls


def test_residue_tables_match_count_leaves(monkeypatch):
    # The half-open simplices of test_count_leaves_matches_specialized_terms,
    # as sums of tangent cones, of index up to 200, dilated about their
    # first vertex: vertex i sits at (c + corner_i y / D) / m with
    # y = w . z > 0.  It moves along its edge to the first vertex, a ray
    # of its cone, so each cone but the first has one moving facet and is
    # counted from its residue table, walking no box.  m is a multiple of
    # the index, so m D >= index and z puts f = index Q + r of the second
    # vertex's cone at any value above its value at y = 1: r = 0, 1 and
    # index - 1, and Q of both signs, so f < 0 and X = -g Q of both
    # signs, at every D.  The cones have different weight denominators,
    # so a table built before its weights are scaled would count wrong.
    rng = random.Random(97)
    calls = counted_box_sums(monkeypatch)
    seen = set()
    for case in range(30):
        d, p = 2 + case % 2, 1 + case // 2 % 2
        span = {2: 15, 3: 6}[d]
        while True:
            rays = [tuple(rng.randint(-span, span) for _ in range(d)) for _ in range(d)]
            index = abs(det(rays))
            if 0 < index <= 200 and (case % 3 or index > 100):
                break
        strict = [rng.random() < 0.5 for _ in range(d + 1)]
        w = (1, rng.randint(-2, 2))[:p]
        m = index * rng.choice((1, 2, 3))
        c = [rng.randint(-12 * m, 4 * m) for _ in range(d)]
        corners = [(0,) * d] + rays
        groups, maps = [], []
        for i, ci in enumerate(corners):
            others = [j for j in range(d + 1) if j != i]
            cone_rays = [tuple(x - y for x, y in zip(corners[j], ci)) for j in others]
            sigma = [-1 if strict[j - 1 if j else d] else 1 for j in others]
            groups.append([(1, hoc(cone_rays, sigma))])
            maps.append(([[x * y for y in w] for x in ci], c, m))
        compiled = CompiledLeaves(groups, maps)
        assert [len(facets) for _, tabled, walked in compiled.groups
                for facets, *_ in tabled + walked] == [1] * d
        # the second vertex's cone: its ray 0 points back to the first
        # vertex, and its facet 0 moves, with normal n . corner_1 = index
        leaf = groups[1][0][1]
        n, s = leaf.base.normals[0], leaf.sigma[0] < 0
        assert dot(n, corners[1]) == index
        mu = next(generic_directions({ray for leaves in groups
                                      for _, leaf in leaves for ray in leaf.base.rays}))
        g = dot(mu, leaf.base.rays[0])
        for D in (1, 7, 10 ** 6 + 3):
            low = (index + D * dot(n, c) - s) // (m * D) // index + 1
            for target_q in sorted({low, low + 2} | {q for q in (-1, 0, 2) if q >= low}):
                for target_r in sorted({0, 1, index - 1}):
                    # the least y with (index y + D n . c - s) // (m D) = f
                    f = index * target_q + target_r
                    y = -((D * dot(n, c) - s - f * m * D) // index)
                    t = rng.randint(-5, 5)
                    z = (y,) if p == 1 else (y - w[1] * t, t)
                    assert y >= 1 and (index * y + D * dot(n, c) - s) // (m * D) == f
                    apexes = [tuple(Fraction(x * y + D * cj, m * D) for x, cj in zip(ci, c))
                              for ci in corners]
                    del calls[:]
                    got = compiled.count(z, D)
                    assert calls == []
                    assert got == count_leaves(list(zip(apexes, groups))), \
                        (rays, strict, w, c, m, z, D)
                    if index > 2:
                        kind = {0: "0", 1: "1", index - 1: "index - 1"}[target_r]
                        seen.add((D, "r = " + kind))
                    seen.add((D, "f < 0", f < 0))
                    seen.add((D, "X sign", (-g * target_q > 0) - (-g * target_q < 0)))
        seen.add(("index above 100", index > 100))
        seen.add(("p", p))
    for D in (1, 7, 10 ** 6 + 3):
        assert {(D, "r = 0"), (D, "r = 1"), (D, "r = index - 1")} <= seen
        assert {(D, "f < 0", True), (D, "f < 0", False)} <= seen
        assert {(D, "X sign", 1), (D, "X sign", -1), (D, "X sign", 0)} <= seen
    assert {("index above 100", True), ("index above 100", False),
            ("p", 1), ("p", 2)} <= seen


def grid_cells(leaf):
    """The cells of a leaf whose every facet moves: the product over its
    facets of one more than the number of distinct nonzero residues
    normals . k mod index over the points k of its parallelepiped."""
    points = parallelepiped_points(leaf, (0,) * len(leaf.base.rays))
    cells = 1
    for n in leaf.base.normals:
        cells *= len({dot(n, k) % leaf.index for k in points} - {0}) + 1
    return cells


def grid_rows(compiled):
    """The row stores of the leaves of compiled that fill on use."""
    return [rows for _, tabled, _ in compiled.groups for *_, rows in tabled
            if isinstance(rows, genfun._GridRows)]


def test_only_multi_facet_leaves_above_index_1_walk(monkeypatch):
    # Leaves of random polytopes' vertex cones at max_index 20, compiled
    # at the maps t -> vertex + t of a translation t = z / D in d
    # parameters, as in test_compiled_leaves_match_count_leaves: every
    # facet of every leaf moves.  A leaf is tabulated when its grid has
    # at most max_index cells (grid_cells, from its parallelepiped): an
    # index-1 leaf has one table row for all d moving facets (each with
    # r = 0), and any other tabulated leaf starts with no row.  The rest
    # keep their columns.  One evaluation calls _box_sums once per walked
    # leaf and once per row it fills, and no leaf holds more rows than
    # max_index.  Leaves of one polytope have many weight denominators,
    # so a table built before its weights are scaled would count wrong.
    rng = random.Random(29)
    seen = set()
    for case in range(16):
        P = random_box_with_cuts(rng, 2 + case % 2)
        vertices = enumerate_vertices(P)
        groups = [signed_decompose(vertex_cone(P, v), max_index=20).terms
                  for v in vertices]
        maps = []
        for v in vertices:
            q = lcm(*(Fraction(x).denominator for x in v.point))
            maps.append(([[q * (i == j) for j in range(P.dim)] for i in range(P.dim)],
                         [int(x * q) for x in v.point], q))
        for max_index in (5, 200):
            compiled = CompiledLeaves(groups, maps, max_index=max_index)
            for leaves, (_, tabled, walked) in zip(groups, compiled.groups):
                fits = [grid_cells(leaf) <= max_index for _, leaf in leaves]
                assert len(tabled) == fits.count(True)
                assert len(walked) == fits.count(False)
                assert [len(facets) for facets, *_ in tabled + walked] \
                    == [P.dim] * len(leaves)
                ones = [leaf.index == 1 for _, leaf in leaves]
                assert [index == 1 for *_, index, _, _ in tabled] == \
                    [one for one, fit in zip(ones, fits) if fit]
                for *_, index, ranks, rows in tabled:
                    if index == 1:
                        assert ranks == ((0,),) * P.dim and len(rows) == 1
                    else:
                        assert type(rows) is genfun._GridRows and rows == {}
                seen.add((max_index, "index 1", any(ones)))
                seen.add((max_index, "grid", any(f and not o for f, o in zip(fits, ones))))
                seen.add((max_index, "walked", bool(walked)))
            walks = sum(len(walked) for _, _, walked in compiled.groups)
            calls = counted_box_sums(monkeypatch)
            for _ in range(3):
                shift = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                              for _ in range(P.dim))
                D = lcm(*(Fraction(t).denominator for t in shift))
                z = [int(t * D) for t in shift]
                moved = [(tuple(x + t for x, t in zip(v.point, shift)), leaves)
                         for v, leaves in zip(vertices, groups)]
                want = count_leaves(moved)
                for again in (False, True):
                    filled = sum(map(len, grid_rows(compiled)))
                    del calls[:]
                    assert compiled.count(z, D) == want, (P, shift)
                    fills = sum(map(len, grid_rows(compiled))) - filled
                    assert len(calls) == walks + fills
                    assert fills == 0 or not again
                    seen.add((max_index, "fills", fills > 0))
            assert all(len(rows) <= max_index for _, tabled, _ in compiled.groups
                       for *_, rows in tabled)
    for max_index in (5, 200):
        assert {(max_index, "index 1", True), (max_index, "grid", True),
                (max_index, "fills", True)} <= seen
    assert (5, "walked", True) in seen


def test_grid_rows_match_count_leaves():
    # The tangent cones of random simplices in d = 2 and 3, moved by the
    # translation z / (L D), with L a multiple of the index of the cone at
    # the first vertex.  Every facet of every cone moves, so that cone has
    # d moving facets and, at a large max_index, rows by cell filled on
    # use.  As normals[j] . rays[j] = -index, z = -sum_j y_j rays[j] gives
    # normals[j] . z = index y_j, and L D >= index, so y_j puts
    # f_j = index Q_j + r_j at any value: r_j of 0, 1 and index - 1 on
    # each facet together, with Q_j and X = -sum_j g_j Q_j of both signs,
    # at every D.  The cones have different weight denominators, so a row
    # filled from unscaled weights would count wrong.
    rng = random.Random(53)
    seen = set()
    for case in range(6):
        d = 2 + case % 2
        span = {2: 6, 3: 3}[d]
        while True:
            rays = [tuple(rng.randint(-span, span) for _ in range(d)) for _ in range(d)]
            index = abs(det(rays))
            if 3 <= index <= 16:
                break
        strict = [rng.random() < 0.5 for _ in range(d + 1)]
        c = [rng.randint(-4, 4) for _ in range(d)]
        L = index * rng.choice((1, 2, 3))
        corners = [(0,) * d] + rays
        groups, maps = [], []
        for i, ci in enumerate(corners):
            others = [j for j in range(d + 1) if j != i]
            cone_rays = [tuple(x - y for x, y in zip(corners[j], ci)) for j in others]
            sigma = [-1 if strict[j - 1 if j else d] else 1 for j in others]
            groups.append([(1, hoc(cone_rays, sigma))])
            maps.append((identity(d), [L * (x + y) for x, y in zip(c, ci)], L))
        compiled = CompiledLeaves(groups, maps, max_index=10 ** 4)
        (_, tabled, walked) = compiled.groups[0]
        assert walked == [] and len(tabled) == 1
        facets, _, gains, _, _, rows = tabled[0]
        assert type(rows) is genfun._GridRows and len(facets) == d
        leaf = groups[0][0][1]
        for D in (1, 7, 10 ** 6 + 3):
            for residues in product(sorted({0, 1, index - 1}), repeat=d):
                Qs = [rng.randint(-3, 3) for _ in range(d)]
                ys = []
                for n, s, Q, r in zip(leaf.base.normals, leaf.sigma, Qs, residues):
                    f, s = index * Q + r, s < 0
                    # the least y with (index y + L D n . c - s) // (L D) = f
                    y = -((L * D * dot(n, c) - s - f * L * D) // index)
                    assert (index * y + L * D * dot(n, c) - s) // (L * D) == f
                    ys.append(y)
                z = [-sum(y * ray[t] for y, ray in zip(ys, leaf.base.rays))
                     for t in range(d)]
                assert [dot(n, z) for n in leaf.base.normals] == [index * y for y in ys]
                apexes = [tuple(x + y + Fraction(t, L * D) for x, y, t in zip(c, ci, z))
                          for ci in corners]
                assert compiled.count(z, D) == count_leaves(list(zip(apexes, groups))), \
                    (rays, strict, c, L, z, D)
                X = -sum(g * Q for g, Q in zip(gains, Qs))
                seen.add((d, D, "X sign", (X > 0) - (X < 0)))
        assert 1 < len(rows) <= grid_cells(leaf)
    for d, D in product((2, 3), (1, 7, 10 ** 6 + 3)):
        assert {(d, D, "X sign", 1), (d, D, "X sign", -1)} <= seen


def test_generic_directions():
    rays = [(1, -1), (0, 1)]
    mus = list(generic_directions(rays, count=3))
    assert len(mus) == 3
    assert len(set(mus)) == 3
    for mu in mus:
        assert all(dot(mu, b) != 0 for b in rays)


def test_weights_are_shared_by_multisets_of_absolute_gains():
    # The series H depends only on the |e|: one _leaf_weights per multiset,
    # negated when the sign and the parity of the negative gains disagree,
    # gives every term's weights, as a new list each time.
    rng = random.Random(44)
    cache, calls, mixed = {}, 0, 0
    for d in range(2, 6):
        for _ in range(30):
            exps = [rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(d)]
            for sign in (1, -1):
                calls += 1
                u, den = genfun._signed_weights(cache, exps, sign)
                assert (u, den) == genfun._leaf_weights(exps, sign), (exps, sign)
                u[0] += 1  # CompiledLeaves scales the weights in place
            mixed += min(exps) < 0 < max(exps)
    assert mixed > 60 and len(cache) < calls // 2
    for key, (u, den) in cache.items():
        assert (u, den) == genfun._leaf_weights(key, 1)


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


def test_repeated_counts_keep_no_memory():
    # A count leaves nothing allocated behind.  tuple() of a generator is
    # resized after it is built, and a resized tuple of fewer than 20
    # items stays on CPython's tuple free list when freed, so leaf terms
    # built that way kept one block per count.
    pyramid = HPolytope(A=((0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
                        b=(0, 1, 1, 1, 1))
    stats = {}
    count_polytope(pyramid, stats=stats)
    n = stats["num_cones"]  # the size of the term tuple, used by nothing else
    assert n == 6
    for _ in range(100):
        count_polytope(pyramid)
    # holding 2000 tuples of that size empties its free list, whatever
    # earlier tests left there
    held = [tuple([k] * n) for k in range(2000)]
    # Building held also drains other free lists and pools, which the
    # next few hundred counts refill (about 260 blocks when this test
    # runs alone); one window of 500 counts settles them.  A tuple per
    # count refills the emptied tuple free list through both windows.
    for _ in range(500):
        count_polytope(pyramid)
    before = sys.getallocatedblocks()
    for _ in range(500):
        count_polytope(pyramid)
    assert sys.getallocatedblocks() - before < 100
    del held


def test_count_stats():
    A = [(-1, 0), (0, -1), (1, 1)]
    b = [0, 0, 10]
    stats = {}
    n = count_polytope(HPolytope(A=tuple(A), b=tuple(b)), stats=stats)
    assert n == 66
    assert stats["num_vertices"] == 3
    assert stats.get("num_cones", 0) >= 3

