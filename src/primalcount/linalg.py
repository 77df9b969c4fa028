"""Exact linear algebra over the integers and rationals.

Vectors are tuples of ints or Fractions and matrices are tuples of row
tuples; everything is immutable and every result is exact.  Python ints
already provide arbitrary precision and Fraction keeps rationals in
lowest terms, so the numeric types here are the builtins.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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


def det(M):
    """Exact determinant of a square matrix of ints or Fractions.

    Integer input goes through fraction-free (Bareiss) elimination;
    rational input is scaled row by row to integers first and the scale
    divided back out, so no Fraction arithmetic happens in the pivoting.
    """
    n = _check_square(M)
    if all(isinstance(x, int) for row in M for x in row):
        return _det_bareiss([list(row) for row in M])
    scale = Fraction(1)
    rows = []
    for row in M:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs))
        scale *= mult
        rows.append([as_int(f * mult) for f in fracs])
    d = Fraction(_det_bareiss(rows), 1) / scale
    return as_int(d) if d.denominator == 1 else d


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
    """Reduce [M | rhs] and return the transformed right block, or raise."""
    n = _check_square(M)
    aug = [[Fraction(x) for x in row] + [Fraction(x) for x in extra]
           for row, extra in zip(M, rhs_cols)]
    width = len(aug[0])
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular matrix")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [a / pv for a in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(tuple(aug[i][n:width]) for i in range(n))


def solve(M, rhs):
    """Solve M x = rhs exactly; raises SingularMatrixError if M is singular."""
    if len(rhs) != len(M):
        raise ValueError("dimension mismatch")
    cols = _gauss_jordan(M, [(r,) for r in rhs])
    return tuple(row[0] for row in cols)


def inverse(M):
    n = len(M)
    eye = identity(n)
    return _gauss_jordan(M, eye)


def adjugate_int(M):
    """Adjugate of an integer matrix: adj(M) = det(M) * inverse(M), integral.

    Useful for sign tests of M^{-1} x without leaving integer arithmetic.
    """
    d = det(M)
    if d == 0:
        raise SingularMatrixError("singular matrix")
    inv = inverse(M)
    return tuple(tuple(as_int(x * d) for x in row) for row in inv)


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


def _gram_schmidt(rows):
    star = []
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    for i, v in enumerate(rows):
        w = [Fraction(x) for x in v]
        for j in range(i):
            mu[i][j] = dot(v, star[j]) / dot(star[j], star[j])
            w = [a - mu[i][j] * b for a, b in zip(w, star[j])]
        star.append(w)
    return star, mu


def lll_reduce(basis, delta=Fraction(3, 4)):
    """LLL-reduce a basis given as matrix rows; returns (reduced, transform).

    The rows may be rational; denominators are cleared up front and the
    scale divided back out at the end, which leaves the transform intact.
    transform is unimodular with transform * basis == reduced, so the
    reduced rows generate exactly the input lattice.  Raises ValueError
    on linearly dependent rows.
    """
    m = len(basis)
    if m == 0:
        return (), ()
    if rank(basis) != m:
        raise ValueError("linearly dependent rows")
    scale = lcm(*(Fraction(x).denominator for row in basis for x in row))
    rows = [[as_int(Fraction(x) * scale) for x in row] for row in basis]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    star, mu = _gram_schmidt(rows)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                rows[k] = [a - r * b for a, b in zip(rows[k], rows[j])]
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                star, mu = _gram_schmidt(rows)
        lhs = dot(star[k], star[k])
        rhs = (delta - mu[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            star, mu = _gram_schmidt(rows)
            k = max(k - 1, 1)

    if scale == 1:
        reduced = tuple(tuple(r) for r in rows)
    else:
        reduced = tuple(tuple(Fraction(x, scale) for x in r) for r in rows)
    return reduced, tuple(tuple(r) for r in U)
