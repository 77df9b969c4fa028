"""Exact rational linear programming with the two-phase primal simplex.

Variables are free (positive and negative parts are split internally),
constraints are A x <= b with integer or Fraction data, and Bland's rule
guarantees termination.  The tableau is fraction-free: each row
[A_i | b_i] is scaled to integers, and every pivot is Edmonds' integer
pivot (*J. Res. NBS* 71B, 1967), the rule of the Bareiss elimination in
`linalg._gauss_jordan`.  The stored tableau T holds integers only; the
true tableau is T / D with D > 0 the determinant of the current basis,
so every division in a pivot is exact.  Fractions appear only in the
returned x and value.  LPs serve the oracle only, its feasibility test
and bounding box; vertices, cones, chambers and their samples are read
off double-description generators instead.  Deliberately dense and
small: those systems have a handful of rows.
"""

from fractions import Fraction
from math import lcm

from .linalg import _int_row

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(rows, zrow, basis, r, s, d):
    """Integer pivot on (r, s) of the tableau T / d; returns the new d.

    Every other row, and the objective row, becomes
    (T_i * p - T_is * T_r) / d with p = T_rs, exact by Sylvester's
    identity; row r stays and p is the new determinant.  A negative p
    (possible only when an artificial is driven out after phase 1)
    negates the whole tableau so that the determinant stays positive.
    """
    prow = rows[r]
    p = prow[s]
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _eliminate(row, prow, p, d, s)
    zrow[:] = _eliminate(zrow, prow, p, d, s)
    basis[r] = s
    if p < 0:
        for i, row in enumerate(rows):
            rows[i] = [-a for a in row]
        zrow[:] = [-a for a in zrow]
        p = -p
    return p


def _eliminate(row, prow, p, d, s):
    f = row[s]
    if f == 0:
        return row if p == d else [a * p // d for a in row]
    return [(a * p - f * b) // d for a, b in zip(row, prow)]


def _run_simplex(rows, zrow, basis, allowed, d):
    """Pivot until no allowed column improves; Bland's rule throughout.

    Returns (status, d).  Ratios rhs / T_rs are compared by
    cross-multiplication, ties going to the smaller basic column.
    """
    while True:
        enter = next((j for j in allowed if zrow[j] > 0), None)
        if enter is None:
            return OPTIMAL, d
        best = None
        for r, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                if best is None:
                    best = r
                    continue
                lhs = row[-1] * rows[best][enter]
                rhs = rows[best][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best = r
        if best is None:
            return UNBOUNDED, d
        d = _pivot(rows, zrow, basis, best, enter, d)


def lp_maximize(c, A, b):
    """Maximize c . x subject to A x <= b with x free.

    Returns (status, value, x): (OPTIMAL, Fraction, tuple), or
    (UNBOUNDED, None, None), or (INFEASIBLE, None, None).
    """
    m, n = len(A), len(c)
    nvars = 2 * n + m  # x = u - v, then one scaled slack per row
    # Row i times its scale lam: lam A_i x + (lam s_i) = lam b_i keeps the
    # scaled slack's column a unit column.
    scaled = [_int_row([*A[i], b[i]]) for i in range(m)]
    total = nvars + sum(1 for _, row in scaled if row[-1] < 0)
    rows = []
    basis = []
    art_weights = []
    for i, (lam, coeffs) in enumerate(scaled):
        rhs = coeffs.pop()
        row = coeffs + [-x for x in coeffs] + [0] * (total - 2 * n) + [rhs]
        row[2 * n + i] = 1
        if rhs < 0:
            row = [-x for x in row]
            col = nvars + len(art_weights)
            row[col] = 1
            art_weights.append(lam)
            basis.append(col)
        else:
            basis.append(2 * n + i)
        rows.append(row)

    d = 1
    if art_weights:
        # The artificial of row i is lam_i times the unscaled one, so phase 1
        # maximizes -sum(a_i / lam_i), scaled by L = lcm(lam): the reduced
        # costs are those of the unscaled tableau times positive factors,
        # which keeps Bland's choices.
        big = lcm(*art_weights)
        zrow = [0] * (total + 1)
        for i, bv in enumerate(basis):
            if bv >= nvars:
                w = big // art_weights[bv - nvars]
                zrow = [a + w * p for a, p in zip(zrow, rows[i])]
                zrow[bv] = 0  # cost -w cancels the unit entry
        status, d = _run_simplex(rows, zrow, basis, range(total), d)
        assert status == OPTIMAL  # phase 1 objective is bounded above by 0
        if any(basis[i] >= nvars and rows[i][-1] != 0 for i in range(m)):
            return INFEASIBLE, None, None
        for i in range(m):
            if basis[i] >= nvars:
                s = next((j for j in range(nvars) if rows[i][j] != 0), None)
                if s is not None:
                    d = _pivot(rows, zrow, basis, i, s, d)
        keep = [i for i in range(m) if basis[i] < nvars]
        rows = [rows[i][:nvars] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    cint = _int_row(c)[1]
    cost = cint + [-x for x in cint] + [0] * m
    zrow = [d * x for x in cost] + [0]  # d times the reduced costs
    for i, bv in enumerate(basis):
        f = cost[bv]
        if f != 0:
            zrow = [a - f * p for a, p in zip(zrow, rows[i])]
    status, d = _run_simplex(rows, zrow, basis, range(nvars), d)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    values = {bv: rows[i][-1] for i, bv in enumerate(basis)}
    x = tuple(Fraction(values.get(j, 0) - values.get(n + j, 0), d)
              for j in range(n))
    value = sum((Fraction(cj) * xj for cj, xj in zip(c, x)), Fraction(0))
    return OPTIMAL, value, x


def lp_feasible(A, b) -> bool:
    if not A:
        return True
    status, _, _ = lp_maximize([0] * len(A[0]), A, b)
    return status != INFEASIBLE


def interior_point(A, b):
    """A point with strictly positive slack on every row, or None.

    None means the polyhedron is empty or has no interior.  The returned
    point maximizes the smallest slack, capped at 1.
    """
    if not A:
        return ()
    n = len(A[0])
    rows = [list(row) + [1] for row in A]
    rows.append([0] * n + [1])  # t <= 1 keeps the LP bounded
    status, value, x = lp_maximize([0] * n + [1], rows, list(b) + [1])
    if status != OPTIMAL or value <= 0:
        return None
    return tuple(x[:n])


def coordinate_range(A, b, j):
    """(lo, hi) of coordinate j over {A x <= b}; None marks unbounded ends."""
    n = len(A[0])
    c = [0] * n
    c[j] = 1
    status, hi, _ = lp_maximize(c, A, b)
    hi = hi if status == OPTIMAL else None
    c[j] = -1
    status, lo, _ = lp_maximize(c, A, b)
    lo = -lo if status == OPTIMAL else None
    return lo, hi

