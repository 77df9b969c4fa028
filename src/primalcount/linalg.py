"""Exact linear algebra over the integers and rationals.

Vectors are tuples of ints or Fractions and matrices are tuples of row
tuples; everything is immutable and every result is exact.  Python ints
already provide arbitrary precision and Fraction keeps rationals in
lowest terms, so the numeric types here are the builtins.

_int_row is the one rule that turns a row of ints and Fractions into
integers over a common denominator; every module that clears
denominators calls it.  _rows_hold is the one membership rule: cones
(rows from _apex_rows), half-open polyhedra and chambers test a point
against integer rows.  There is one Gaussian elimination, the
fraction-free Gauss-Jordan _gauss_jordan: det, rank and solve scale
their rows to integers with _int_row and call it, and adjugate_int
calls it on integer rows.  The Hermite diagonal, the Smith normal form
and LLL take integer rows only.  Counting walks residue classes with
hermite_diagonal; smith_normal_form is kept as the classical reference
walk that the tests compare against.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import SingularMatrixError


# ---------------------------------------------------------------------------
# vectors


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def is_zero_vec(v) -> bool:
    return all(a == 0 for a in v)


def as_int(x) -> int:
    """Convert an exactly integral number to int, rejecting anything else."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return f.numerator


def vec_primitive(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    The direction is preserved: the result is the unique integer vector
    with coprime entries that is a positive multiple of v.  An int
    vector takes one gcd and no scaling; gcd refuses anything else, and
    a rational vector is scaled to integers by _int_row first.
    """
    try:
        g = gcd(*v)
        ints = v
    except TypeError:
        ints = _int_row(v)[1]
        g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(ints) if g == 1 else tuple([a // g for a in ints])


# ---------------------------------------------------------------------------
# matrices


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def _check_square(M):
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    return n


def _int_row(row):
    """(m, m * row) for the least positive integer m making m * row integral.

    row holds ints and Fractions (any numbers.Rational).  m is the lcm of
    their denominators and m * row a new list of ints, integral Fractions
    included, read from each entry's numerator and denominator without
    Fraction arithmetic; each denominator is read once.  A row of ints
    alone is copied; the loop that tells stops at the first other entry,
    so a row of Fractions pays one type test for it.  Any other entry,
    such as a float or a str, raises TypeError.
    """
    for x in row:
        if type(x) is not int:
            break
    else:
        return 1, list(row)
    try:
        dens = [x.denominator for x in row]
    except AttributeError:
        bad = next(x for x in row if not hasattr(x, "denominator"))
        raise TypeError("entries must be int or Fraction, not "
                        f"{type(bad).__name__}") from None
    m = lcm(*dens)
    return m, [x.numerator * (m // d) for x, d in zip(row, dens)]


def _rows_hold(rows, p, y):
    """Whether x = y / p (integer y, p > 0) satisfies every integer row
    (g, h, strict), that is g . y <= h * p, or < where strict."""
    for g, h, strict in rows:
        v = sum(map(mul, g, y))
        rhs = h * p
        if v > rhs or (strict and v == rhs):
            return False
    return True


def _scaled_point(rows, x):
    """_int_row(x) for a point x, checked against the dimension of the
    _rows_hold rows; ValueError when they differ.  The one dimension check
    of every contains, kept out of _rows_hold, which runs in hot loops."""
    if rows and len(x) != len(rows[0][0]):
        raise ValueError("dimension mismatch")
    return _int_row(x)


def _apex_rows(apex, normals, strict):
    """The cone {x : n . (x - apex) <= 0} as _rows_hold rows, < where
    strict: with apex = a / q (_int_row) each n gives (q n, n . a)."""
    q, a = _int_row(apex)
    return tuple((tuple(q * x for x in n), sum(map(mul, n, a)), s)
                 for n, s in zip(normals, strict))


def det(M):
    """Exact determinant of a square matrix of ints or Fractions.

    Rational input is scaled row by row to integers first and the scale
    divided back out, so the elimination does no Fraction arithmetic.
    """
    n = _check_square(M)
    scales, rows = zip(*(_int_row(row) for row in M))
    r, sign, pivot = _gauss_jordan(list(rows), n)
    if r < n:
        return 0
    d = Fraction(sign * pivot, prod(scales))
    return d.numerator if d.denominator == 1 else d


def rank(M):
    """Rank of a matrix of ints or Fractions, rows scaled to integers."""
    if not M:
        return 0
    return _gauss_jordan([_int_row(row)[1] for row in M], len(M[0]))[0]


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan on the first ncols columns of integer rows.

    Bareiss elimination above and below each pivot, in place: a column
    without a pivot among the remaining rows is skipped, and after each
    pivot every entry is a minor of the row-permuted input, so each
    division by the previous pivot is exact.  Returns (rank, sign, pivot)
    with sign that of the row permutation P and pivot the last pivot.
    When the first ncols columns are a nonsingular square M and the rest
    are B, pivot = det(P M) = sign * det(M) and B ends as pivot * M^-1 B.
    """
    r = 0
    sign = 1
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        pk = top[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            # column c becomes zero and earlier columns are never read again
            for j in range(c + 1, len(row)):
                row[j] = (pk * row[j] - f * top[j]) // prev
        prev = pk
        r += 1
    return r, sign, prev


def solve(M, rhs):
    """Solve M x = rhs exactly; raises SingularMatrixError if M is singular.

    Each row of [M | rhs] is scaled to integers, which keeps the solution,
    and the system is solved fraction-free.  Returns a tuple of Fractions.
    """
    if len(rhs) != len(M):
        raise ValueError("dimension mismatch")
    n = _check_square(M)
    rows = [_int_row(tuple(row) + (r,))[1] for row, r in zip(M, rhs)]
    r, _, d = _gauss_jordan(rows, n)
    if r < n:
        raise SingularMatrixError("singular matrix")
    return tuple(Fraction(row[n], d) for row in rows)


def adjugate_int(M):
    """(adj(M), det(M)) of an integer matrix, from one fraction-free pass.

    adj(M) = det(M) M^-1 is integral, so sign tests and coordinates in
    M^-1 can stay in integer arithmetic.  Entries must be integral (ints
    or integral Fractions).  Raises SingularMatrixError when det(M) = 0.
    """
    n = _check_square(M)
    rows = [[as_int(x) for x in row] + list(e) for row, e in zip(M, identity(n))]
    r, sign, d = _gauss_jordan(rows, n)
    if r < n:
        raise SingularMatrixError("singular matrix")
    return tuple(tuple(sign * x for x in row[n:]) for row in rows), sign * d


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g and |g| = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def hermite_diagonal(rows):
    """Diagonal h of the lower-triangular Hermite normal form of integer rows.

    Unimodular row operations bring a nonsingular integer matrix R to a
    lower-triangular H = U R with positive diagonal h, and the rows of H
    generate the lattice of the rows of R.  So the box 0 <= k_i < h_i
    holds exactly one point of each class of Z^n modulo that lattice:
    row n of H reduces k's last coordinate into [0, h_n), then row n - 1
    the one before, without touching the last, and so on.  prod(h) is
    |det R|, the number of classes.  Columns are cleared from the last:
    an extended-gcd step on two rows is unimodular and leaves one of
    them without an entry in the column, so the rows end with one entry
    left, +-h for that column, and that row leaves the elimination.
    Only the diagonal is kept, so no other entry of H is reduced.
    Raises SingularMatrixError when R is singular.
    """
    n = _check_square(rows)
    M = [list(row) for row in rows]
    h = []
    for c in range(n - 1, -1, -1):
        top = None  # the row that keeps column c, at full width c + 1
        rest = []  # the others, cut to columns 0 .. c - 1
        for row in M:
            b = row[c]
            if b == 0:
                rest.append(row[:c])
            elif top is None:
                top = row
            else:
                a = top[c]
                g, s, t = _xgcd(a, b)
                ua, ub = a // g, b // g
                rest.append([ua * y - ub * x for x, y in zip(top[:c], row)])
                top = [s * x + t * y for x, y in zip(top, row)]
        if top is None:
            raise SingularMatrixError("singular matrix")
        h.append(abs(top[c]))
        M = rest
    return tuple(reversed(h))


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular V, W and positive diagonal s with B V = W diag(s)."""

    V: tuple
    W: tuple
    s: tuple


def smith_normal_form(B):
    """Smith normal form of a nonsingular integer matrix.

    Returns SmithDecomposition(V, W, s) with B V = W diag(s), V and W
    unimodular, every s_j positive and s_1 | s_2 | ... | s_n.  The
    reduction is deterministic: pivots are chosen by minimal absolute
    value, then by row and column position.
    """
    n = _check_square(B)
    M = [[as_int(x) for x in row] for row in B]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # Row ops on M mirror onto W as the inverse op applied to columns,
    # keeping W equal to the inverse of the accumulated row transform.
    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        for r in W:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, k):  # row dst += k * row src
        M[dst] = [a + k * b for a, b in zip(M[dst], M[src])]
        for r in W:
            r[src] -= k * r[dst]

    def negate_row(i):
        M[i] = [-a for a in M[i]]
        for r in W:
            r[i] = -r[i]

    def swap_cols(i, j):
        for r in M:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_col(src, dst, k):  # col dst += k * col src
        for r in M:
            r[dst] += k * r[src]
        for r in V:
            r[dst] += k * r[src]

    for t in range(n):
        while True:
            pivot = None
            for i in range(t, n):
                for j in range(t, n):
                    if M[i][j] != 0 and (pivot is None
                                         or abs(M[i][j]) < abs(M[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                raise SingularMatrixError("singular matrix")
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, n):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    add_row(t, i, -q)
                    dirty = dirty or M[i][t] != 0
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    q = M[t][j] // M[t][t]
                    add_col(t, j, -q)
                    dirty = dirty or M[t][j] != 0
            if dirty:
                continue
            # Entries not divisible by the pivot must fold into column t
            # so the divisibility chain s_1 | s_2 | ... comes out right.
            fixup = next(((i, j) for i in range(t + 1, n) for j in range(t + 1, n)
                          if M[i][j] % M[t][t] != 0), None)
            if fixup is None:
                break
            add_col(fixup[1], t, 1)

    for t in range(n):
        if M[t][t] < 0:
            negate_row(t)
    return SmithDecomposition(
        V=tuple(tuple(r) for r in V),
        W=tuple(tuple(r) for r in W),
        s=tuple(M[t][t] for t in range(n)),
    )


# ---------------------------------------------------------------------------
# lattice basis reduction


def _round_half_even(a, b):
    """round(a / b) for ints a and b > 0, ties to even as Python's round."""
    q, r = divmod(2 * a + b, 2 * b)
    if r == 0 and q % 2:
        q -= 1
    return q


def lll_reduce(basis):
    """LLL-reduce a basis given as integer rows; returns (reduced, transform).

    Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7) with delta = 3/4: instead of rational
    Gram-Schmidt data it keeps the Gram determinants
    D[i] = |b*_0|^2 ... |b*_{i-1}|^2 and the integers
    lam[k][j] = D[j+1] mu_kj, and updates both in place on each size
    reduction and swap.  Row k is size-reduced against rows k-1 ... 0
    (rounding mu half to even) before the Lovasz test
    |b*_k|^2 >= (3/4 - mu_{k,k-1}^2) |b*_{k-1}|^2.

    The rows must be integers (find_w passes the adjugate lattice); they
    are copied, not changed.  transform is unimodular with
    transform * basis == reduced, so the reduced rows generate exactly
    the input lattice.  Raises ValueError on linearly dependent rows.
    """
    m = len(basis)
    if m == 0:
        return (), ()
    rows = [list(row) for row in basis]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    D = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for k in range(m):
        for j in range(k + 1):
            u = dot(rows[k], rows[j])
            for i in range(j):
                u = (D[i + 1] * u - lam[k][i] * lam[j][i]) // D[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("linearly dependent rows")
            else:
                D[k + 1] = u

    k = 1
    while k < m:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) > D[j + 1]:
                r = _round_half_even(lk[j], D[j + 1])
                rows[k] = [a - r * b for a, b in zip(rows[k], rows[j])]
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                lk[j] -= r * D[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
        t = lk[k - 1]
        # the Lovasz test with delta = 3/4, multiplied by 4 D[k] D[k-1]
        if 4 * (D[k + 1] * D[k - 1] + t * t) >= 3 * D[k] * D[k]:
            k += 1
            continue
        # swap rows k-1 and k (Cohen's SWAPI); lam[k][k-1] is unchanged
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
        U[k - 1], U[k] = U[k], U[k - 1]
        lam[k - 1][:k - 1], lk[:k - 1] = lk[:k - 1], lam[k - 1][:k - 1]
        B = (D[k - 1] * D[k + 1] + t * t) // D[k]
        for i in range(k + 1, m):
            li = lam[i]
            old = li[k]
            li[k] = (D[k + 1] * li[k - 1] - t * old) // D[k]
            li[k - 1] = (B * old + t * li[k]) // D[k + 1]
        D[k] = B
        k = max(k - 1, 1)

    return tuple(tuple(r) for r in rows), tuple(tuple(r) for r in U)
