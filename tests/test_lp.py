import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from primalcount import lp
from primalcount.cli import parse_parametric
from primalcount.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    coordinate_range,
    interior_point,
    lp_feasible,
    lp_maximize,
)
from primalcount.linalg import det, dot, solve

from lp_reference import lp_route, remove_redundant


def test_simple_box_max():
    # max x + y over the unit square
    A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    b = [1, 0, 1, 0]
    status, value, x = lp_maximize([1, 1], A, b)
    assert status == OPTIMAL
    assert value == 2
    assert x == (1, 1)


def test_negative_rhs_needs_phase_one():
    # x >= 3 written as -x <= -3, maximize -x
    status, value, x = lp_maximize([-1], [[-1], [1]], [-3, 10])
    assert status == OPTIMAL
    assert value == -3
    assert x == (3,)


def test_infeasible():
    status, _, _ = lp_maximize([1], [[1], [-1]], [0, -1])
    assert status == INFEASIBLE
    assert not lp_feasible([[1], [-1]], [0, -1])


def test_unbounded():
    status, _, _ = lp_maximize([1], [[-1]], [0])
    assert status == UNBOUNDED


def test_degenerate_does_not_cycle():
    # Many hyperplanes through one vertex; Bland's rule must terminate.
    A = [[1, 1], [1, 2], [2, 1], [-1, 0], [0, -1]]
    b = [0, 0, 0, 0, 0]
    status, value, x = lp_maximize([1, 1], A, b)
    assert status == OPTIMAL
    assert value == 0


def test_fractional_data():
    A = [[Fraction(1, 3), Fraction(1, 2)], [-1, 0], [0, -1]]
    b = [1, 0, 0]
    status, value, x = lp_maximize([1, 0], A, b)
    assert status == OPTIMAL
    assert value == 3


def brute_max(c, A, b):
    """Independent optimum over a bounded feasible region: best feasible
    basic point from every square subsystem."""
    n = len(c)
    best = None
    for rows in combinations(range(len(A)), n):
        M = [A[i] for i in rows]
        if det(M) == 0:
            continue
        x = solve(M, [b[i] for i in rows])
        if all(dot(A[i], x) <= b[i] for i in range(len(A))):
            v = dot(c, x)
            if best is None or v > best:
                best = v
    return best


def test_random_bounded_lps_match_vertex_enumeration():
    rng = random.Random(424242)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(n + 1, 6))]
        b = [rng.randint(0, 6) for _ in A]
        for j in range(n):  # box rows keep it bounded
            e = [0] * n
            e[j] = 1
            A.append(e[:])
            b.append(7)
            A.append([-x for x in e])
            b.append(7)
        c = [rng.randint(-3, 3) for _ in range(n)]
        status, value, x = lp_maximize(c, A, b)
        assert status == OPTIMAL
        assert all(dot(row, x) <= rhs for row, rhs in zip(A, b))
        assert value == brute_max(c, A, b)
        done += 1


def test_interior_point():
    A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    b = [1, 0, 1, 0]
    p = interior_point(A, b)
    assert p is not None
    assert all(dot(row, p) < rhs for row, rhs in zip(A, b))
    # A segment in the plane has no interior.
    assert interior_point([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 0, 0]) is None


def test_coordinate_range():
    A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    b = [3, 1, 2, 0]
    assert coordinate_range(A, b, 0) == (-1, 3)
    assert coordinate_range(A, b, 1) == (0, 2)
    lo, hi = coordinate_range([[-1]], [0], 0)
    assert lo == 0 and hi is None


def test_remove_redundant():
    A = [[1, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]
    b = [1, 1, 0, 1, 0, 5]
    A2, b2 = remove_redundant(A, b)
    assert ([1, 1], Fraction(5)) not in list(zip(A2, b2))
    assert len(A2) == 4
    kept = {(tuple(r), h) for r, h in zip(A2, b2)}
    assert ((1, 0), 1) in kept and ((-1, 0), 0) in kept


# The Fraction two-phase simplex that the integer tableau replaced, kept as
# the reference: same columns, same Bland's rule, Fraction pivots.

def _reference_pivot(rows, zrow, basis, r, s):
    pivot = rows[r][s]
    rows[r] = [a / pivot for a in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][s] != 0:
            f = rows[i][s]
            rows[i] = [a - f * p for a, p in zip(rows[i], rows[r])]
    if zrow[s] != 0:
        f = zrow[s]
        zrow[:] = [a - f * p for a, p in zip(zrow, rows[r])]
    basis[r] = s


def _reference_run_simplex(rows, zrow, basis, allowed):
    while True:
        enter = next((j for j in allowed if zrow[j] > 0), None)
        if enter is None:
            return OPTIMAL
        best = None
        for r in range(len(rows)):
            coef = rows[r][enter]
            if coef > 0:
                ratio = rows[r][-1] / coef
                if best is None or ratio < best[0] or (ratio == best[0]
                                                       and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return UNBOUNDED
        _reference_pivot(rows, zrow, basis, best[1], enter)


def lp_reference(c, A, b):
    """Maximize c . x over A x <= b, x free, in Fraction arithmetic."""
    m, n = len(A), len(c)
    nvars = 2 * n + m
    rows = []
    art_cols = []
    basis = []
    for i in range(m):
        coeffs = [Fraction(x) for x in A[i]]
        row = coeffs + [-x for x in coeffs] + [Fraction(0)] * m + [Fraction(b[i])]
        row[2 * n + i] = Fraction(1)
        if row[-1] < 0:
            row = [-x for x in row]
        if row[2 * n + i] == 1:
            basis.append(2 * n + i)
        else:
            col = nvars + len(art_cols)
            art_cols.append(col)
            basis.append(col)
        rows.append(row)

    total = nvars + len(art_cols)
    for i, row in enumerate(rows):
        body = row[:-1] + [Fraction(0)] * len(art_cols) + [row[-1]]
        if basis[i] >= nvars:
            body[basis[i]] = Fraction(1)
        rows[i] = body

    if art_cols:
        zrow = [Fraction(0)] * (total + 1)
        for a in art_cols:
            zrow[a] = Fraction(-1)
        for i, bv in enumerate(basis):
            if bv >= nvars:
                zrow = [a + p for a, p in zip(zrow, rows[i])]
        status = _reference_run_simplex(rows, zrow, basis, range(total))
        assert status == OPTIMAL
        if any(basis[i] >= nvars and rows[i][-1] != 0 for i in range(m)):
            return INFEASIBLE, None, None
        for i in range(m):
            if basis[i] >= nvars:
                s = next((j for j in range(nvars) if rows[i][j] != 0), None)
                if s is not None:
                    _reference_pivot(rows, zrow, basis, i, s)
        keep = [i for i in range(m) if basis[i] < nvars]
        rows = [rows[i][:nvars] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    cost = [Fraction(x) for x in c] + [-Fraction(x) for x in c] + [Fraction(0)] * m
    zrow = cost + [Fraction(0)]
    for i, bv in enumerate(basis):
        if cost[bv] != 0:
            f = cost[bv]
            zrow = [a - f * p for a, p in zip(zrow, rows[i])]
    status = _reference_run_simplex(rows, zrow, basis, range(nvars))
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    values = {bv: rows[i][-1] for i, bv in enumerate(basis)}
    x = tuple(values.get(j, Fraction(0)) - values.get(n + j, Fraction(0))
              for j in range(n))
    value = sum((Fraction(cj) * xj for cj, xj in zip(c, x)), Fraction(0))
    return OPTIMAL, value, x


def assert_matches_reference(c, A, b):
    got = lp_maximize(c, A, b)
    want = lp_reference(c, A, b)
    assert got == want, (c, A, b)
    if want[0] == OPTIMAL:
        assert type(got[1]) is Fraction
        assert all(type(v) is Fraction for v in got[2])
    return want[0]


# lp_maximize([-2], [[1], [-1], [-3]], [3/2, -3/2, 2]): x = 3/2 exactly.
# Driving the zero-level artificial out after phase 1 pivots on a negative
# entry, so the tableau must be negated to keep the determinant positive.
DRIVE_OUT_NEGATIVE = ([-2], [[1], [-1], [-3]], [Fraction(3, 2), Fraction(-3, 2), 2])

NAMED_LPS = {
    "box": ([1, 1], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0]),
    "negative_rhs": ([-1], [[-1], [1]], [-3, 10]),
    "infeasible": ([1], [[1], [-1]], [0, -1]),
    "unbounded": ([1], [[-1]], [0]),
    "degenerate": ([1, 1], [[1, 1], [1, 2], [2, 1], [-1, 0], [0, -1]], [0] * 5),
    # Beale's classic cycling example (optimum 1/20), with x >= 0 as rows.
    "beale": ([Fraction(3, 4), -150, Fraction(1, 50), -6],
              [[Fraction(1, 4), -60, Fraction(-1, 25), 9],
               [Fraction(1, 2), -90, Fraction(-1, 50), 3],
               [0, 0, 1, 0],
               [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
              [0, 0, 1, 0, 0, 0, 0]),
    "fractional": ([1, 0], [[Fraction(1, 3), Fraction(1, 2)], [-1, 0], [0, -1]], [1, 0, 0]),
    "no_rows": ([Fraction(2, 3), 0], [], []),
    # Two rows with negative right-hand sides and different scales: phase 1
    # must weigh each scaled artificial by 1 / scale to pivot as the
    # unscaled tableau does and return the same feasible point.
    "phase_one_scales": ([0, 0], [[1, Fraction(1, 2)], [4, -1], [1, 3]],
                         [-1, -2, Fraction(3, 4)]),
    "drive_out_negative": DRIVE_OUT_NEGATIVE,
}


@pytest.mark.parametrize("name", sorted(NAMED_LPS))
def test_named_lps_match_reference(name):
    assert_matches_reference(*NAMED_LPS[name])


def test_negative_drive_out_pivot(monkeypatch):
    pivots = []
    real = lp._pivot

    def spy(rows, zrow, basis, r, s, d):
        pivots.append(rows[r][s])
        return real(rows, zrow, basis, r, s, d)

    monkeypatch.setattr(lp, "_pivot", spy)
    result = lp_maximize(*DRIVE_OUT_NEGATIVE)
    assert result == (OPTIMAL, -3, (Fraction(3, 2),))
    assert any(p < 0 for p in pivots)


def _random_entry(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_lps(seed, count):
    """Rational LPs, d = 1..4 and m = 0..8, some with a duplicated row."""
    rng = random.Random(seed)
    for _ in range(count):
        d, m = rng.randint(1, 4), rng.randint(0, 8)
        A = [[_random_entry(rng) for _ in range(d)] for _ in range(m)]
        b = [_random_entry(rng) for _ in range(m)]
        if m and rng.random() < 0.3:
            i = rng.randrange(m)
            A.append(list(A[i]))
            b.append(b[i])
        yield [_random_entry(rng) for _ in range(d)], A, b


def test_random_lps_match_reference():
    statuses = {}
    for c, A, b in random_lps(20240607, 2000):
        status = assert_matches_reference(c, A, b)
        statuses[status] = statuses.get(status, 0) + 1
    assert set(statuses) == {OPTIMAL, UNBOUNDED, INFEASIBLE}
    assert min(statuses.values()) >= 200


def sweep_family_setup():
    """Analyse the pcount-sweep family and compile each chamber, as the
    benchmark's setup does: 21 LPs, one sample per chamber."""
    path = Path(__file__).parent / "data" / "sweep_family.txt"
    analysis = parse_parametric(path.read_text()).analysis()
    for chamber in analysis.chambers:
        analysis.count_at(chamber.sample)


def test_sweep_family_setup_lps_match_reference(monkeypatch):
    # The setup itself runs only the chamber samples' LPs, so the LP
    # routes it replaced (tests/lp_reference.py) give the corpus of real
    # LPs: redundancy pruning and both interior points at every split.
    captured = []

    def recorder(c, A, b):
        captured.append(([*c], [list(row) for row in A], [*b]))
        return lp_maximize(c, A, b)

    monkeypatch.setattr(lp, "lp_maximize", recorder)
    lp_route(monkeypatch)
    sweep_family_setup()
    assert len(captured) > 100
    for c, A, b in captured:
        assert_matches_reference(c, A, b)


def test_tableau_stays_integral(monkeypatch):
    pivots = []
    real = lp._pivot

    def check(rows, zrow, d):
        for row in rows + [zrow]:
            assert all(type(a) is int for a in row)
        assert type(d) is int and d > 0

    def checked(rows, zrow, basis, r, s, d):
        check(rows, zrow, d)
        new_d = real(rows, zrow, basis, r, s, d)
        check(rows, zrow, new_d)
        pivots.append(new_d)
        return new_d

    monkeypatch.setattr(lp, "_pivot", checked)
    assert lp_maximize(*NAMED_LPS["fractional"])[0] == OPTIMAL
    assert lp_maximize(*DRIVE_OUT_NEGATIVE)[0] == OPTIMAL
    rational = len(pivots)
    assert rational > 0
    sweep_family_setup()
    assert len(pivots) > rational
