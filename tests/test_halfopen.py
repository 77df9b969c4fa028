"""Tests for half-open cones and signed decompositions."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from primalcount import halfopen
from primalcount.halfopen import (
    HalfOpenCone,
    HalfOpenPolyhedron,
    SignedConeSum,
    decompose_step,
    exactify,
    facet_strictness,
    find_w,
    halfopen_triangulate,
    perturbed_direction,
    signed_decompose,
)
from primalcount.linalg import det, dot, identity, solve, transpose
from primalcount.polytope import (
    ClosedCone,
    HPolytope,
    SimplicialCone,
    enumerate_vertices,
    triangulate,
    vertex_cone,
)


def mat_mul(A, B):
    return tuple(tuple(dot(row, col) for col in transpose(B)) for row in A)


def contains_reference(cone, x):
    """HalfOpenCone.contains in Fractions, from the ray coordinates of x."""
    shifted = tuple(Fraction(a) - b for a, b in zip(x, cone.base.apex))
    lam = solve(transpose(cone.base.rays), shifted)
    return all(l > 0 if s < 0 else l >= 0 for l, s in zip(lam, cone.sigma))


def hoc(rays, sigma, apex=None):
    d = len(rays[0])
    if apex is None:
        apex = (Fraction(0),) * d
    return HalfOpenCone(base=SimplicialCone(apex=tuple(apex), rays=tuple(map(tuple, rays))),
                        sigma=tuple(sigma))


# ---------------------------------------------------------------------------
# membership


def test_halfopen_cone_contains_quadrant():
    closed = hoc([(1, 0), (0, 1)], (1, 1))
    assert closed.contains((0, 0))
    assert closed.contains((3, 0))
    assert not closed.contains((-1, 2))

    # sigma[0] governs the facet where the ray-0 coefficient is 0: the y-axis
    strict_y_axis = hoc([(1, 0), (0, 1)], (-1, 1))
    assert strict_y_axis.contains((3, 1))
    assert strict_y_axis.contains((3, 0))
    assert not strict_y_axis.contains((0, 1))
    assert not strict_y_axis.contains((0, 0))


def test_halfopen_cone_contains_matches_coefficients():
    # The integer test q (normals . y) <= p c_j, x = y / p, against the
    # Fraction ray coordinates, in d = 2..4 with rational apexes, at
    # integer points, rational points and points on the facets.
    rng = random.Random(29)
    seen = {"in": 0, "out": 0, "facet": 0}
    cones = 0
    while cones < 120:
        d = 2 + cones % 3
        rays = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        if det(transpose(rays)) == 0:
            continue
        cones += 1
        sigma = tuple(rng.choice([1, -1]) for _ in range(d))
        den = rng.randint(1, 5)
        apex = tuple(Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(d))
        cone = hoc(rays, sigma, apex)
        for k in range(30):
            if k % 3 == 0:
                x = tuple(rng.randint(-6, 6) for _ in range(d))
            elif k % 3 == 1:
                x = tuple(Fraction(rng.randint(-18, 18), rng.randint(1, 3))
                          for _ in range(d))
            else:
                # a point on a facet hyperplane, in the cone or not
                lam = [Fraction(rng.randint(-2, 6), rng.randint(1, 3)) for _ in range(d)]
                lam[rng.randrange(d)] = 0
                x = tuple(a + sum(l * r[t] for l, r in zip(lam, rays))
                          for t, a in enumerate(apex))
                seen["facet"] += 1
            want = contains_reference(cone, x)
            assert cone.contains(x) == want, (rays, sigma, apex, x)
            seen["in" if want else "out"] += 1
    assert min(seen.values()) >= 300


def test_halfopen_cone_fractional_apex():
    cone = hoc([(1, 0), (0, 1)], (1, 1), apex=(Fraction(1, 2), Fraction(1, 2)))
    assert cone.contains((1, 1))
    assert cone.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not cone.contains((0, 1))


def test_halfopen_polyhedron_membership():
    # square [0,2]^2 with the x <= 2 side strict
    P = HalfOpenPolyhedron.from_inequalities(
        [(-1, 0), (0, -1), (1, 0), (0, 1)],
        [0, 0, 2, 2],
        strict=[False, False, True, False],
    )
    assert P.contains((0, 0))
    assert P.contains((1, 2))
    assert not P.contains((2, 1))
    assert not P.contains((3, 1))
    assert not P.is_closed()


def test_contains_nearby_directional():
    P = HalfOpenPolyhedron.from_inequalities(
        [(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 0, 0])
    corner = (Fraction(1), Fraction(1))
    assert P.contains_nearby(corner, (-1, -1))
    assert not P.contains_nearby(corner, (1, 0))
    assert P.contains_nearby(corner, (0, -1))  # slides along the tight row x = 1
    strict = HalfOpenPolyhedron.from_inequalities(
        [(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 0, 0],
        strict=[True, False, False, False])
    assert not strict.contains_nearby(corner, (0, -1))
    assert strict.contains_nearby(corner, (-1, -1))


# ---------------------------------------------------------------------------
# exactification


def test_exactify_split_square():
    # [0,4]^2 split by the line x = 2: [left] + [right] - [whole] == 0
    # must stay an exact identity after opening facets along y
    left = HalfOpenPolyhedron.from_inequalities(
        [(-1, 0), (0, -1), (1, 0), (0, 1)], [0, 0, 2, 4])
    right = HalfOpenPolyhedron.from_inequalities(
        [(-1, 0), (0, -1), (1, 0), (0, 1)], [-2, 0, 4, 4])
    whole = HalfOpenPolyhedron.from_inequalities(
        [(-1, 0), (0, -1), (1, 0), (0, 1)], [0, 0, 4, 4])
    for y in [(1, Fraction(1, 3)), (-1, Fraction(1, 3))]:
        pieces = []
        for weight, poly in [(1, left), (1, right), (-1, whole)]:
            flags = exactify([normal for normal, _, _ in poly.rows], y)
            rows = tuple((normal, rhs, strict)
                         for (normal, rhs, _), strict in zip(poly.rows, flags))
            pieces.append((weight, HalfOpenPolyhedron(rows=rows)))
        for px in range(-1, 6):
            for py in range(-1, 6):
                assert sum(w for w, poly in pieces
                           if poly.contains((px, py))) == 0
        # the shared wall x = 2 goes to exactly one of the two pieces
        half_left, half_right, half_whole = (poly for _, poly in pieces)
        wall = (2, 1)
        assert half_left.contains(wall) + half_right.contains(wall) == 1
        assert half_whole.contains(wall) == 1


def test_exactify_rejects_bad_input():
    assert exactify([(1,), (-1,)], (1,)) == (True, False)
    with pytest.raises(ValueError, match="generic"):
        exactify([(1,), (-1,)], (0,))


def test_perturbed_direction_halving():
    # triangulation use: seed = sum of rays, basis = rays
    y = perturbed_direction((1, 1), [(1, 0), (0, 1)], [(1, -1)])
    assert y == (Fraction(3, 2), Fraction(5, 4))  # seed and gamma = 1 tie, 1/2 works
    y2 = perturbed_direction((1, 1), [(1, 0), (0, 1)], [(0, 1)])
    assert y2 == (1, 1)  # the seed is already generic


def _closed_cone_from_rays(rays):
    # outer normals for a 2-d pointed cone, or a known 3-d example below
    return ClosedCone(apex=(Fraction(0),) * len(rays[0]), rays=tuple(rays),
                      normals=())


def test_halfopen_triangulate_single_piece():
    C = _closed_cone_from_rays([(1, 0), (0, 1)])
    pieces = halfopen_triangulate(C)
    assert len(pieces) == 1
    assert pieces[0].sigma == (1, 1)


def test_halfopen_triangulate_quadrant_split():
    C = _closed_cone_from_rays([(1, 0), (1, 1), (0, 1)])
    pieces = halfopen_triangulate(C)
    assert len(pieces) == 2
    lower = next(p for p in pieces if p.contains((2, 1)))
    upper = next(p for p in pieces if p.contains((1, 2)))
    assert lower is not upper
    assert lower.sigma == (1, 1)  # keeps all facets, including the diagonal
    assert -1 in upper.sigma  # gives the diagonal up
    for x in range(0, 5):
        for y in range(0, 5):
            assert lower.contains((x, y)) + upper.contains((x, y)) == 1


def test_halfopen_triangulate_partition_random_cones():
    rng = random.Random(23)
    built = 0
    while built < 12:
        d = rng.choice([2, 3])
        m = d + rng.randint(1, 2)
        rays = []
        for _ in range(m):
            v = tuple(rng.randint(0, 4) for _ in range(d - 1)) + (1,)
            if v not in rays:
                rays.append(v)
        try:
            pieces_closed = triangulate(
                ClosedCone(apex=(Fraction(0),) * d, rays=tuple(rays), normals=()))
        except Exception:
            continue
        if len(pieces_closed) < 2:
            continue
        C = ClosedCone(apex=(Fraction(0),) * d, rays=tuple(rays), normals=())
        pieces = halfopen_triangulate(C)
        built += 1
        closure_cover = ClosedCone(apex=C.apex, rays=C.rays, normals=())
        for _ in range(200):
            # random nonnegative ray combinations, including facet points
            coeffs = [rng.choice([0, 0, 1, 2, Fraction(1, 2)]) for _ in rays]
            x = tuple(sum(c * r[k] for c, r in zip(coeffs, rays))
                      for k in range(d))
            hits = sum(p.contains(x) for p in pieces)
            assert hits == 1, (rays, x)


# ---------------------------------------------------------------------------
# strictness flags


def test_facet_strictness_three_dim_table():
    # parent flags (-1, +1, -1), new ray w = (-1, 1, 1) on rays e1, e2, e3
    sigma = (-1, 1, -1)
    alpha = (Fraction(-1), Fraction(1), Fraction(1))
    expected = {
        (0, 1): 1, (2, 1): -1, (3, 1): -1,
        (0, 2): 1, (1, 2): -1, (3, 2): -1,
        (0, 3): -1, (1, 3): -1, (2, 3): 1,
    }
    for (l, m), val in expected.items():
        assert facet_strictness(sigma, alpha, l, m) == val, (l, m)


def test_decompose_step_three_dim_children():
    parent = hoc([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (-1, 1, -1))
    w = (-1, 1, 1)
    num = (-1, 1, 1)  # index 1, so num = alpha
    children = decompose_step(parent, w, num)
    by_slot = {}
    for eps, child in children:
        slot = child.base.rays.index(w)
        by_slot[slot] = (eps, child.sigma)
    assert by_slot[0] == (-1, (1, -1, -1))
    assert by_slot[1] == (1, (-1, 1, -1))
    assert by_slot[2] == (1, (-1, 1, -1))


def test_facet_strictness_perturbation_oracle():
    """The case table must match the defining small-perturbation rule.

    The flag of a child facet is determined by which side of the facet
    hyperplane a point slightly inside the parent's kept region lies on.
    With y = sum_i sigma_i (|alpha_i| + gamma^i) b_i and the child facet
    functional written in the dual basis, the sign of the pairing decides,
    and a tiny positive gamma breaks every tie in exact arithmetic.
    """
    rng = random.Random(99)
    gamma = Fraction(1, 2 ** 20)
    d = 4
    for _ in range(300):
        sigma = [rng.choice([1, -1]) for _ in range(d)]
        alpha = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(d)]
        for k in range(d):
            if rng.random() < 0.25:
                alpha[k] = Fraction(0)
        # pairing of each dual vector with y, using <b*_i, y> = -sigma_i (|alpha_i| + gamma^i)
        pair = [-sigma[i] * (abs(alpha[i]) + gamma ** (i + 1)) for i in range(d)]
        for m in range(1, d + 1):
            am = alpha[m - 1]
            if am == 0:
                continue
            sgn_am = 1 if am > 0 else -1
            for l in range(0, d + 1):
                if l == m:
                    continue
                if l == 0:
                    value = am * pair[m - 1]
                else:
                    value = abs(am) * pair[l - 1] - sgn_am * alpha[l - 1] * pair[m - 1]
                assert value != 0
                want = -1 if value > 0 else 1
                assert facet_strictness(sigma, alpha, l, m) == want, (sigma, alpha, l, m)


# ---------------------------------------------------------------------------
# auxiliary ray search


def cone_of(rays):
    return SimplicialCone(apex=(0,) * len(rays), rays=tuple(map(tuple, rays)))


def test_find_w_known_cones():
    # find_w returns the numerators num = index * alpha
    w, num = find_w(cone_of(((1, 0), (0, 2))))
    assert w == (0, 1)
    assert num == (0, 1)  # alpha = (0, 1/2), index 2

    w, num = find_w(cone_of(((1, 0), (1, 3))))
    index = abs(det(transpose(((1, 0), (1, 3)))))
    assert index == 3
    assert all(isinstance(a, int) for a in num)
    assert max(abs(Fraction(a, index)) for a in num) <= Fraction(2, 3)
    for a in num:
        assert abs(a) <= 2  # every child has index at most 2


def test_find_w_rejects_unimodular():
    with pytest.raises(ValueError):
        find_w(cone_of(((1, 0), (0, 1))))


def test_find_w_properties_random():
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        d = rng.choice([2, 3])
        rays = tuple(tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d))
        dcol = det(transpose(rays))
        if abs(dcol) < 2:
            continue
        checked += 1
        w, num = find_w(cone_of(rays))
        assert all(isinstance(a, int) for a in num)
        alpha = tuple(Fraction(a, abs(dcol)) for a in num)
        assert any(x != 0 for x in w)
        assert gcd(*(abs(x) for x in w)) == 1
        # consistency: w = sum alpha_i rays_i
        recon = tuple(sum(a * r[k] for a, r in zip(alpha, rays)) for k in range(d))
        assert recon == tuple(Fraction(x) for x in w)
        nonzero = [a for a in alpha if a != 0]
        assert nonzero
        assert all(abs(a) < 1 for a in nonzero)
        assert any(a > 0 for a in nonzero)


def _box_reference(rays):
    """Exhaustive search for the minimal admissible (sup-norm, w).

    Any w with every |alpha_i| < 1 has |w_j| below the j-th column's
    absolute sum, so that box holds them all.
    """
    d = len(rays)
    cols = transpose(rays)
    best = None
    for w in product(*(range(-sum(map(abs, c)), sum(map(abs, c)) + 1) for c in cols)):
        if not any(w):
            continue
        g = gcd(*w)
        w = tuple(x // g for x in w)
        alpha = solve(cols, w)
        if all(a <= 0 for a in alpha):
            w, alpha = tuple(-x for x in w), tuple(-a for a in alpha)
        top = max(abs(a) for a in alpha)
        if top < 1 and (best is None or (top, w) < best[:2]):
            best = (top, w, alpha)
    return best[1], best[2]


def test_find_w_box_fallback(monkeypatch):
    # Rays diag(1, ..., 1, n) V, V unimodular: w is admissible only when
    # w V^-1 is a multiple of e_{d-1}.  A transform L V, L lower
    # bidiagonal with 3 below the diagonal, makes no {-1, 0, 1}
    # combination admissible, so the box search has to run.
    rng = random.Random(8)
    fallbacks = []
    real_root = halfopen._int_root
    monkeypatch.setattr(halfopen, "_int_root",
                        lambda n, d: fallbacks.append(n) or real_root(n, d))
    for case in range(12):
        d = 2 + case % 2
        V = [list(row) for row in identity(d)]
        for _ in range(4):
            i, j = rng.sample(range(d), 2)
            step = rng.choice((-1, 1))
            V[i] = [a + step * b for a, b in zip(V[i], V[j])]
        n = rng.randint(5, 12)
        rays = mat_mul(tuple(tuple(n if i == j == d - 1 else int(i == j) for j in range(d))
                             for i in range(d)), V)
        L = tuple(tuple(1 if i == j else 3 if i == j + 1 else 0 for j in range(d))
                  for i in range(d))
        U = mat_mul(L, V)
        monkeypatch.setattr(halfopen, "lll_reduce", lambda basis: (mat_mul(U, basis), U))
        cone = cone_of(rays)
        w_ref, alpha_ref = _box_reference(rays)
        assert find_w(cone) == (w_ref, tuple(cone.index * a for a in alpha_ref)), rays
    assert len(fallbacks) == 12


def test_int_root_brackets_the_root():
    # the box radius stays exact far beyond float range
    ns = list(range(1, 2001)) + [2 ** k + e for k in range(1, 200) for e in (-1, 1)]
    ns += [10 ** 400, 10 ** 60]
    for d in range(1, 7):
        for n in ns:
            r = halfopen._int_root(n, d)
            assert r ** d <= n < (r + 1) ** d, (n, d, r)


def find_w_reference(cone):
    """The full candidate search: every c in {-1, 0, 1}^d, then the box.

    c and -c are scored separately, and every candidate is made
    primitive and turned by the same rule as the box candidates.
    """
    rays, index = cone.rays, cone.index
    d = len(rays)
    outer = [[-x for x in n] for n in cone.normals]
    reduced, U = halfopen.lll_reduce([list(col) for col in zip(*outer)])

    def admissible(pairs):
        for w, num in pairs:
            g = gcd(*w)
            if g > 1:
                w = tuple(x // g for x in w)
                num = tuple(a // g for a in num)
            if all(a <= 0 for a in num):
                w = tuple(-x for x in w)
                num = tuple(-a for a in num)
            top = max(abs(a) for a in num)
            if top < index:
                yield top, w, num

    rows = [u + r for u, r in zip(U, reduced)]

    def combos(k, acc):
        if k == d:
            yield acc[:d], acc[d:]
            return
        yield from combos(k + 1, acc)
        yield from combos(k + 1, tuple(a + b for a, b in zip(acc, rows[k])))
        yield from combos(k + 1, tuple(a - b for a, b in zip(acc, rows[k])))

    pairs = combos(0, (0,) * (2 * d))
    next(pairs)  # c = 0
    best = min(admissible(pairs), default=None)
    if best is None:
        r = halfopen._int_root(index, d)
        bounds = [sum(abs(x) for x in col) for col in zip(*rays)]
        ranges = [range(-((s + r - 1) // r), (s + r - 1) // r + 1) for s in bounds]
        box = ((w, tuple(sum(a * b for a, b in zip(col, w)) for col in outer))
               for w in product(*ranges) if any(w))
        best = min(admissible(box))
    _, w, num = best
    return w, tuple(Fraction(a, index) for a in num)


def test_find_w_matches_full_search():
    # 3000 random cones, d = 2..4; the winner's alphas have mixed signs
    # in many of them, where the half search must pick the lexicographic
    # minimum of w and -w.
    rng = random.Random(29)
    checked, mixed = 0, 0
    while checked < 3000:
        d = 2 + checked % 3
        lim = rng.choice((3, 8, 30))
        rays = tuple(tuple(rng.randint(-lim, lim) for _ in range(d)) for _ in range(d))
        if abs(det(transpose(rays))) < 2:
            continue
        checked += 1
        cone = cone_of(rays)
        got = find_w(cone)
        w_ref, alpha_ref = find_w_reference(cone)
        assert got == (w_ref, tuple(cone.index * a for a in alpha_ref)), rays
        assert all(isinstance(a, int) for a in got[1])
        mixed += min(got[1]) < 0 < max(got[1])
    assert mixed >= 300


def test_find_w_deterministic():
    rays = ((2, 1, 0), (0, 3, 1), (1, 0, 4))
    assert find_w(cone_of(rays)) == find_w(cone_of(rays))


# ---------------------------------------------------------------------------
# one decomposition step and the full recursion


def _grid_points(d, lo, hi):
    return list(product(range(lo, hi + 1), repeat=d))


def test_decompose_step_identity_random():
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        d = rng.choice([2, 3])
        rays = tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d))
        if abs(det(transpose(rays))) < 2:
            continue
        checked += 1
        sigma = tuple(rng.choice([1, -1]) for _ in range(d))
        parent = hoc(rays, sigma)
        w, num = find_w(parent.base)
        children = decompose_step(parent, w, num)
        points = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(60)]
        points += [tuple(2 * x for x in w), tuple(-1 * x for x in w)]
        points += [r for r in rays]
        points.append((0,) * d)
        for x in points:
            total = sum(eps for eps, child in children if child.contains(x))
            assert total == (1 if parent.contains(x) else 0), (rays, sigma, x)


def assert_children_match_fresh_cones(children):
    # the rank-one update gives the normals and index that one
    # elimination of the child's own rays gives
    for _, child in children:
        fresh = SimplicialCone(apex=child.base.apex, rays=child.base.rays)
        assert child.base.normals == fresh.normals, child.base.rays
        assert child.base.index == fresh.index, child.base.rays
        assert child.base == fresh


def test_decompose_step_children_match_fresh_cones():
    rng = random.Random(13)
    checked = 0
    while checked < 400:
        d = 2 + checked % 3
        rays = tuple(tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d))
        if abs(det(transpose(rays))) < 2:
            continue
        checked += 1
        apex = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
        parent = hoc(rays, [rng.choice((1, -1)) for _ in range(d)], apex)
        w, num = find_w(parent.base)
        children = decompose_step(parent, w, num)
        assert len(children) == sum(a != 0 for a in num)
        assert_children_match_fresh_cones(children)


def test_signed_decompose_children_match_fresh_cones(monkeypatch):
    # every split of every vertex cone of the 4-d skew simplex
    # x >= 0, 5 x1 + 7 x2 + 9 x3 + 11 x4 <= 40 (vertex indices up to 1331)
    real_step = halfopen.decompose_step
    seen = []

    def checked_step(cone, w, num):
        children = real_step(cone, w, num)
        assert_children_match_fresh_cones(children)
        seen.append(cone.index)
        return children

    monkeypatch.setattr(halfopen, "decompose_step", checked_step)
    A = tuple(tuple(-int(i == j) for j in range(4)) for i in range(4)) + ((5, 7, 9, 11),)
    P = HPolytope(A=A, b=(0, 0, 0, 0, 40))
    for v in enumerate_vertices(P):
        signed_decompose(vertex_cone(P, v))
    assert max(seen) == 1331 and len(seen) > 50


def test_signed_decompose_two_dim():
    parent = hoc([(1, 0), (1, 4)], (1, 1))
    stats = {}
    result = signed_decompose(parent, stats=stats)
    assert all(cone.index == 1 for _, cone in result.terms)
    for parent_idx, child_idx in stats["splits"]:
        assert child_idx < parent_idx
    for x in _grid_points(2, -8, 8):
        assert result.evaluate(x) == (1 if parent.contains(x) else 0)


def test_signed_decompose_three_dim_strict_parent():
    parent = hoc([(1, 0, 0), (0, 1, 0), (1, 1, 5)], (-1, 1, -1))
    result = signed_decompose(parent)
    assert all(cone.index == 1 for _, cone in result.terms)
    for x in _grid_points(3, -4, 4):
        assert result.evaluate(x) == (1 if parent.contains(x) else 0)


def test_signed_decompose_respects_max_index():
    parent = hoc([(1, 0), (1, 7)], (1, 1))
    result = signed_decompose(parent, max_index=3)
    assert all(cone.index <= 3 for _, cone in result.terms)
    for x in _grid_points(2, -8, 8):
        assert result.evaluate(x) == (1 if parent.contains(x) else 0)


def test_signed_decompose_unimodular_passthrough():
    parent = hoc([(1, 0), (0, 1)], (1, -1))
    result = signed_decompose(parent)
    assert result.terms == ((1, parent),)


def test_signed_decompose_canonical_order():
    parent = hoc([(2, 1, 1), (1, 3, 0), (0, 1, 4)], (1, 1, 1))
    result = signed_decompose(parent)
    keys = [(eps, cone.base.rays, cone.sigma) for eps, cone in result.terms]
    assert keys == sorted(keys)
    # deterministic end to end
    again = signed_decompose(parent)
    assert again == result


def test_signed_decompose_closed_cone_concatenates_pieces():
    rays = ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))  # square cone, index 2 pieces
    C = ClosedCone(apex=(Fraction(0),) * 3, rays=rays, normals=())
    pieces = halfopen_triangulate(C)
    assert len(pieces) > 1
    stats = {}
    result = signed_decompose(C, stats=stats)
    assert result.terms == tuple(term for piece in pieces
                                 for term in signed_decompose(piece).terms)
    assert stats["num_cones"] == len(result.terms)
    for x in _grid_points(3, -3, 3):
        assert result.evaluate(x) == sum(p.contains(x) for p in pieces)


def test_signed_decompose_depth_bound():
    from math import log2, floor
    rng = random.Random(17)
    for _ in range(10):
        d = rng.choice([2, 3])
        while True:
            rays = tuple(tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d))
            index = abs(det(transpose(rays)))
            if index >= 2:
                break
        stats = {}
        parent = hoc(rays, (1,) * d)
        signed_decompose(parent, stats=stats)
        bound = floor(1 + log2(log2(index)) / log2(Fraction(d, d - 1))) + 1 \
            if index > 2 else 2
        assert stats["max_depth"] <= max(bound, 1), (rays, index, stats["max_depth"])


def test_signed_cone_sum_json():
    parent = hoc([(1, 0), (1, 2)], (1, -1))
    result = signed_decompose(parent)
    payload = result.to_json()
    assert isinstance(payload, list) and payload
    for entry in payload:
        assert set(entry) == {"sign", "apex", "rays", "sigma"}
        assert entry["sign"] in ("1", "-1")
        assert all(isinstance(s, str) for s in entry["apex"])
