"""Exact linear algebra over the integers and rationals.

Vectors are tuples of ints or Fractions and matrices are tuples of row
tuples; everything is immutable and every result is exact.  Python ints
already provide arbitrary precision and Fraction keeps rationals in
lowest terms, so the numeric types here are the builtins.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import SingularMatrixError


# ---------------------------------------------------------------------------
# vectors


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


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
    with coprime entries that is a positive multiple of v.
    """
    if is_zero_vec(v):
        raise ValueError("zero vector has no primitive form")
    fracs = [Fraction(a) for a in v]
    scale = lcm(*(f.denominator for f in fracs))
    ints = [as_int(f * scale) for f in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


# ---------------------------------------------------------------------------
# matrices


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def mat_vec(M, v):
    return tuple(dot(row, v) for row in M)


def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def _check_square(M):
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    return n


def _int_row(row):
    """(m, m * row) for the least positive integer m making m * row integral."""
    if all(isinstance(x, int) for x in row):
        return 1, list(row)
    fracs = [Fraction(x) for x in row]
    mult = lcm(*(f.denominator for f in fracs))
    return mult, [as_int(f * mult) for f in fracs]


def det(M):
    """Exact determinant of a square matrix of ints or Fractions.

    Rational input is scaled row by row to integers first and the scale
    divided back out, so the fraction-free (Bareiss) elimination does no
    Fraction arithmetic.
    """
    _check_square(M)
    scales, rows = zip(*(_int_row(row) for row in M))
    d = Fraction(_det_bareiss(list(rows)), prod(scales))
    return d.numerator if d.denominator == 1 else d


def _det_bareiss(rows):
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def rank(M):
    if not M:
        return 0
    rows = [[Fraction(x) for x in row] for row in M]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _gauss_jordan(M, rhs_cols):
    """Fraction-free Gauss-Jordan on integer [M | rhs]: (det(M) M^-1 rhs, det(M)).

    Bareiss elimination above and below each pivot: after step k every
    entry is a (k+1)-minor of the row-permuted [M | rhs], so the division
    by the previous pivot is exact and the right block ends as
    det(P M) (P M)^-1 P rhs.  Raises SingularMatrixError when det(M) = 0.
    """
    n = _check_square(M)
    rows = [[as_int(x) for x in row] + [as_int(x) for x in extra]
            for row, extra in zip(M, rhs_cols)]
    width = len(rows[0])
    sign = 1
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular matrix")
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk = rows[k][k]
        top = rows[k]
        for i in range(n):
            if i == k:
                continue
            row = rows[i]
            f = row[k]
            # column k becomes zero and earlier columns are never read again
            for j in range(k + 1, width):
                row[j] = (pk * row[j] - f * top[j]) // prev
        prev = pk
    return tuple(tuple(sign * x for x in row[n:]) for row in rows), sign * prev


def solve(M, rhs):
    """Solve M x = rhs exactly; raises SingularMatrixError if M is singular.

    Each row of [M | rhs] is scaled to integers, which keeps the solution,
    and the system is solved fraction-free.  Returns a tuple of Fractions.
    """
    if len(rhs) != len(M):
        raise ValueError("dimension mismatch")
    rows = [_int_row(tuple(row) + (r,))[1] for row, r in zip(M, rhs)]
    cols, d = _gauss_jordan([row[:-1] for row in rows], [row[-1:] for row in rows])
    return tuple(Fraction(col[0], d) for col in cols)


def inverse(M):
    """Exact inverse of a square matrix of ints or Fractions, as Fractions.

    With S the diagonal of row scales that make S M integral,
    M^-1 = adj(S M) S / det(S M), so no Fraction arithmetic is needed.
    """
    _check_square(M)
    scales, rows = zip(*(_int_row(row) for row in M))
    adj, d = adjugate_int(rows)
    return tuple(tuple(Fraction(a * s, d) for a, s in zip(row, scales)) for row in adj)


def adjugate_int(M):
    """(adj(M), det(M)) of an integer matrix, from one fraction-free pass.

    adj(M) = det(M) M^-1 is integral, so sign tests and coordinates in
    M^-1 can stay in integer arithmetic.  Entries must be integral (ints
    or integral Fractions).  Raises SingularMatrixError when det(M) = 0.
    """
    return _gauss_jordan(M, identity(len(M)))


# ---------------------------------------------------------------------------
# Smith normal form


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


def lll_reduce(basis, delta=Fraction(3, 4)):
    """LLL-reduce a basis given as matrix rows; returns (reduced, transform).

    Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): instead of rational Gram-Schmidt data it keeps
    the Gram determinants D[i] = |b*_0|^2 ... |b*_{i-1}|^2 and the
    integers lam[k][j] = D[j+1] mu_kj, and updates both in place on each
    size reduction and swap.  Row k is size-reduced against rows k-1 ... 0
    (rounding mu half to even) before the Lovasz test
    |b*_k|^2 >= (delta - mu_{k,k-1}^2) |b*_{k-1}|^2.

    The rows may be rational; denominators are cleared up front and the
    scale divided back out at the end, which leaves the transform intact.
    transform is unimodular with transform * basis == reduced, so the
    reduced rows generate exactly the input lattice.  Raises ValueError
    on linearly dependent rows.
    """
    m = len(basis)
    if m == 0:
        return (), ()
    scale = lcm(*(Fraction(x).denominator for row in basis for x in row))
    rows = [[as_int(Fraction(x) * scale) for x in row] for row in basis]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    p, q = Fraction(delta).numerator, Fraction(delta).denominator

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
        # the Lovasz test multiplied by D[k] D[k-1], with delta = p / q
        if q * (D[k + 1] * D[k - 1] + t * t) >= p * D[k] * D[k]:
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

    if scale == 1:
        reduced = tuple(tuple(r) for r in rows)
    else:
        reduced = tuple(tuple(Fraction(x, scale) for x in r) for r in rows)
    return reduced, tuple(tuple(r) for r in U)
