"""linalg._int_row, the one denominator-clearing rule, against the former copies.

Each module used to clear denominators with its own code.  Those copies
are kept here as references: every caller of _int_row must give the same
values and the same types (ints, never integral Fractions) as the copy
it replaced.  The parametric vertex maps are checked against the
rational inverse route they used to take.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from primalcount import halfopen
from primalcount.cli import parse_parametric
from primalcount.errors import NotFullDimensionalError, SingularMatrixError
from primalcount.halfopen import HalfOpenPolyhedron, integral_row
from primalcount.linalg import _int_row, adjugate_int, as_int, is_zero_vec, vec_primitive
from primalcount.parametric import (
    ParametricPolytope,
    _integer_map,
    _row_key,
    enumerate_parametric_vertices,
)
from primalcount.polytope import HPolytope

# ---------------------------------------------------------------------------
# the former copies


def int_row_reference(row):
    if all(isinstance(x, int) for x in row):
        return 1, list(row)
    row = [x if isinstance(x, int) else Fraction(x) for x in row]
    mult = lcm(*(x.denominator for x in row if not isinstance(x, int)))
    return mult, [x * mult if isinstance(x, int) else x.numerator * (mult // x.denominator)
                  for x in row]


def hpolytope_reference(A, b):
    rows, rhs = [], []
    for row, bi in zip(A, b):
        entries = [Fraction(x) for x in row] + [Fraction(bi)]
        scale = lcm(*(e.denominator for e in entries))
        ints = [int(e * scale) for e in entries]
        rows.append(tuple(ints[:-1]))
        rhs.append(ints[-1])
    return tuple(rows), tuple(rhs)


def integral_row_reference(normal, rhs):
    normal = [Fraction(x) for x in normal]
    scale = lcm(*(x.denominator for x in normal))
    return tuple(int(x * scale) for x in normal), Fraction(rhs) * scale


def integer_row_reference(g, h):
    denoms = [Fraction(x).denominator for x in g]
    scale = lcm(*denoms) if denoms else 1
    gi = [int(Fraction(x) * scale) for x in g]
    common = gcd(*(abs(v) for v in gi)) if any(gi) else 1
    if common > 1:
        gi = [v // common for v in gi]
        scale = Fraction(scale, common)
    return tuple(gi), Fraction(h) * scale


def integer_map_reference(vertex):
    m = lcm(*(x.denominator for row in vertex.map_M for x in row),
            *(x.denominator for x in vertex.map_c))
    return (tuple(tuple(int(x * m) for x in row) for row in vertex.map_M),
            tuple(int(x * m) for x in vertex.map_c), m)


def vec_primitive_reference(v):
    if is_zero_vec(v):
        raise ValueError("zero vector has no primitive form")
    fracs = [Fraction(a) for a in v]
    scale = lcm(*(f.denominator for f in fracs))
    ints = [as_int(f * scale) for f in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


def inverse_reference(M):
    scales, rows = zip(*(int_row_reference(row) for row in M))
    adj, d = adjugate_int(rows)
    return tuple(tuple(Fraction(a * s, d) for a, s in zip(row, scales)) for row in adj)


def vertex_maps_reference(pp):
    """{(M, c): bases giving it, in order} over the full-rank bases, by the
    inverse route."""
    d, p = pp.dim, pp.qdim
    seen = {}
    for basis in combinations(range(len(pp.A)), d):
        try:
            inv = inverse_reference([pp.A[i] for i in basis])
        except SingularMatrixError:
            continue
        Esub = [pp.E[i] for i in basis]
        fsub = [pp.f[i] for i in basis]
        M = tuple(tuple(sum(inv[r][k] * Esub[k][j] for k in range(d))
                        for j in range(p)) for r in range(d))
        c = tuple(sum(inv[r][k] * fsub[k] for k in range(d)) for r in range(d))
        seen.setdefault((M, c), []).append(basis)
    return seen


# ---------------------------------------------------------------------------
# helpers


def assert_same(got, want):
    """Equal values of equal types, container types included."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got == want, (got, want)


def random_entry(rng, kind):
    num = rng.choice((0, rng.randint(-12, 12), rng.randint(-10 ** 6, 10 ** 6)))
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return num
    den = rng.choice((1, 2, 3, 4, 6, 7, 12))
    # a Fraction with denominator 1, or an integral one entered as 4/2
    return Fraction(num * den, den) if rng.random() < 0.2 else Fraction(num, den)


def random_rows(seed, count, width):
    rng = random.Random(seed)
    for k in range(count):
        kind = ("int", "fraction", "mixed")[k % 3]
        yield tuple(random_entry(rng, kind) for _ in range(rng.randint(1, width)))


# ---------------------------------------------------------------------------
# the rule and each caller against the copy it replaced


def test_int_row_matches_reference():
    for row in random_rows(1, 600, 6):
        assert_same(_int_row(row), int_row_reference(row))
    assert _int_row((Fraction(4, 2), -3)) == (1, [2, -3])
    assert _int_row([]) == (1, [])


def test_hpolytope_rows_match_reference():
    rng = random.Random(2)
    for k in range(200):
        d = rng.randint(1, 4)
        kind = ("int", "fraction", "mixed")[k % 3]
        n = rng.randint(1, 5)
        A, b = [], []
        while len(A) < n:
            row = tuple(random_entry(rng, kind) for _ in range(d))
            if not is_zero_vec(row):
                A.append(row)
                b.append(random_entry(rng, kind))
        P = HPolytope(A=tuple(A), b=tuple(b))
        assert_same((P.A, P.b), hpolytope_reference(A, b))


def test_integral_row_matches_reference():
    rng = random.Random(3)
    for row in random_rows(3, 400, 5):
        rhs = random_entry(rng, "mixed")
        assert_same(integral_row(row, rhs), integral_row_reference(row, rhs))


def test_row_key_matches_reference():
    # _row_key takes the integer rows that integral_row makes and keys
    # them by the primitive row of the reference, as integers
    rng = random.Random(4)
    for row in random_rows(4, 400, 4):
        if is_zero_vec(row):
            continue
        h = random_entry(rng, "mixed")
        g, hp = integer_row_reference(row, h)
        assert_same(_row_key(*integral_row(row, h)), (g, hp.numerator, hp.denominator))
    # a common factor of the normal is divided out of both sides
    assert _row_key((2, 4), Fraction(3)) == ((1, 2), 3, 2)
    assert _row_key((2, 4), Fraction(3)) == _row_key((1, 2), Fraction(3, 2))


def test_integer_map_matches_reference():
    rng = random.Random(5)
    for _ in range(300):
        d, p = rng.randint(1, 4), rng.randint(1, 3)
        vertex = SimpleNamespace(
            map_M=tuple(tuple(random_entry(rng, "fraction") for _ in range(p))
                        for _ in range(d)),
            map_c=tuple(random_entry(rng, "fraction") for _ in range(d)))
        assert_same(_integer_map(vertex), integer_map_reference(vertex))


def test_vec_primitive_matches_reference():
    for row in random_rows(6, 600, 5):
        if not is_zero_vec(row):
            assert_same(vec_primitive(row), vec_primitive_reference(row))


def test_type_check_catches_integral_fractions(monkeypatch):
    """A copy of the rule that returns integral Fractions when m = 1 gives
    equal values, so only the type comparison shows it is wrong."""

    def scale_as_fractions(row):
        if all(isinstance(x, int) for x in row):
            return 1, list(row)
        m = lcm(*[x.denominator for x in row])
        return m, [x * m for x in row]

    row, rhs = (Fraction(4, 2), Fraction(-3), 5), Fraction(1, 2)
    want = integral_row_reference(row, rhs)
    assert_same(integral_row(row, rhs), want)
    monkeypatch.setattr(halfopen, "_int_row", scale_as_fractions)
    got = integral_row(row, rhs)
    assert got == want
    with pytest.raises(AssertionError):
        assert_same(got, want)


@pytest.mark.parametrize("bad", [1.5, "1/2", 2.0])
def test_float_and_str_entries_raise_type_error(bad):
    # exact input only: a float, even an integral one, or a str is refused
    # by name instead of failing on a missing attribute
    message = "int or Fraction, not " + type(bad).__name__
    with pytest.raises(TypeError, match=message):
        _int_row((Fraction(1, 2), bad))
    with pytest.raises(TypeError, match=message):
        HPolytope(A=((1,), (-1,)), b=(bad, 0))
    with pytest.raises(TypeError, match=message):
        HPolytope(A=((bad,), (-1,)), b=(1, 0))
    with pytest.raises(TypeError, match=message):
        integral_row((1, bad), 0)
    with pytest.raises(TypeError, match=message):
        integral_row((1, 2), bad)
    with pytest.raises(TypeError, match=message):
        ParametricPolytope(A=[[1], [-1]], E=[[1], [0]], f=[bad, 0])
    with pytest.raises(TypeError, match=message):
        ParametricPolytope(A=[[1], [-1]], E=[[bad], [0]], f=[1, 0])
    # the all-int rows of the fast path and exact rationals still pass
    assert _int_row((1, 2)) == (1, [1, 2])
    assert HPolytope(A=((2,), (-1,)), b=(Fraction(3, 2), 0)).b == (3, 0)


# ---------------------------------------------------------------------------
# parametric vertex maps against the inverse route


def assert_maps_match_inverse_route(pp):
    """Same maps, types, order and first bases as the inverse route.

    Returns (vertices, repeats): repeats counts the bases that gave a kept
    map that an earlier basis gave first."""
    vertices = enumerate_parametric_vertices(pp)
    reference = vertex_maps_reference(pp)
    keys = [(v.map_M, v.map_c) for v in vertices]
    assert keys == sorted(keys)
    for v, key in zip(vertices, keys):
        assert key in reference
        want = next(k for k in reference if k == key)
        assert_same(key, want)
        assert v.basis == reference[key][0]
    return len(vertices), sum(len(reference[key]) - 1 for key in keys)


def test_sweep_family_maps_match_inverse_route():
    pp = parse_parametric((Path(__file__).parent / "data" / "sweep_family.txt").read_text())
    assert assert_maps_match_inverse_route(pp)[0] == 20


def test_random_family_maps_match_inverse_route():
    rng = random.Random(20261018)
    done = repeats = 0
    while done < 20:
        d, p = rng.choice((2, 3)), rng.choice((1, 2))
        A = [tuple(s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
        E = [tuple(rng.randint(0, 2) for _ in range(p)) for _ in A]
        f = [rng.randint(1, 6) for _ in A]
        for _ in range(rng.randint(1, 3)):
            row = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d))
            if is_zero_vec(row):
                continue
            A.append(row)
            E.append(tuple(rng.randint(-2, 2) for _ in range(p)))
            f.append(Fraction(rng.randint(-6, 12), rng.choice((1, 2))))
        # a doubled copy of a row gives bases with equal maps; the first is kept
        i = rng.randrange(len(A))
        A.append(tuple(2 * x for x in A[i]))
        E.append(tuple(2 * x for x in E[i]))
        f.append(2 * f[i])
        qset = HalfOpenPolyhedron.from_inequalities(
            [tuple(-int(i == j) for j in range(p)) for i in range(p)], [0] * p)
        pp = ParametricPolytope(A, E, f, qset=qset)
        try:
            repeats += assert_maps_match_inverse_route(pp)[1]
        except NotFullDimensionalError:
            continue
        done += 1
    assert repeats > 0
