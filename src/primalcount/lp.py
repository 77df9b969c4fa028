"""Exact rational linear programming with the two-phase primal simplex.

Variables are free (positive and negative parts are split internally),
constraints are A x <= b over Fractions, and Bland's rule guarantees
termination.  Deliberately dense and small: the systems that arise in
vertex, cone and chamber analysis have a handful of rows.
"""

from fractions import Fraction

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(rows, zrow, basis, r, s):
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


def _run_simplex(rows, zrow, basis, allowed):
    """Pivot until no allowed column improves; Bland's rule throughout."""
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
        _pivot(rows, zrow, basis, best[1], enter)


def lp_maximize(c, A, b):
    """Maximize c . x subject to A x <= b with x free.

    Returns (status, value, x): (OPTIMAL, Fraction, tuple), or
    (UNBOUNDED, None, None), or (INFEASIBLE, None, None).
    """
    m, n = len(A), len(c)
    nvars = 2 * n + m  # x = u - v, then one slack per row
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
            if bv >= nvars:  # artificial cost -1 folded into reduced costs
                zrow = [a + p for a, p in zip(zrow, rows[i])]
        status = _run_simplex(rows, zrow, basis, range(total))
        assert status == OPTIMAL  # phase 1 objective is bounded above by 0
        if any(basis[i] >= nvars and rows[i][-1] != 0 for i in range(m)):
            return INFEASIBLE, None, None
        for i in range(m):
            if basis[i] >= nvars:
                s = next((j for j in range(nvars) if rows[i][j] != 0), None)
                if s is not None:
                    _pivot(rows, zrow, basis, i, s)
        keep = [i for i in range(m) if basis[i] < nvars]
        rows = [rows[i][:nvars] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    cost = [Fraction(x) for x in c] + [-Fraction(x) for x in c] + [Fraction(0)] * m
    zrow = cost + [Fraction(0)]
    for i, bv in enumerate(basis):
        if cost[bv] != 0:
            f = cost[bv]
            zrow = [a - f * p for a, p in zip(zrow, rows[i])]
    status = _run_simplex(rows, zrow, basis, range(nvars))
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    values = {bv: rows[i][-1] for i, bv in enumerate(basis)}
    x = tuple(values.get(j, Fraction(0)) - values.get(n + j, Fraction(0))
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


def remove_redundant(A, b):
    """Prune rows implied by the rest; exact, order-deterministic.

    Assumes the system is feasible.  Duplicate rows collapse first, then
    each remaining row is kept only if its hyperplane can be pushed past
    the others.
    """
    seen = set()
    rows = []
    for row, rhs in zip(A, b):
        key = (tuple(row), Fraction(rhs))
        if key not in seen:
            seen.add(key)
            rows.append((tuple(row), Fraction(rhs)))
    kept = list(rows)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        g, h = kept[i]
        test_A = [list(r) for r, _ in others] + [list(g)]
        test_b = [rh for _, rh in others] + [h + 1]
        status, value, _ = lp_maximize(list(g), test_A, test_b)
        if status == OPTIMAL and value <= h:
            kept.pop(i)
        else:
            i += 1
    return [list(g) for g, _ in kept], [h for _, h in kept]
