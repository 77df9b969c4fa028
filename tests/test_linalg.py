import random
from fractions import Fraction
from itertools import product

import pytest

from primalcount.errors import SingularMatrixError
from primalcount.linalg import (
    adjugate_int,
    det,
    dot,
    identity,
    lll_reduce,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
    solve,
    transpose,
    vec_primitive,
)


def det_cofactor(M):
    """Independent determinant by first-row cofactor expansion."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det_cofactor(minor)
    return total


def random_int_matrix(rng, n, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def test_det_small_cases():
    assert det(((5,),)) == 5
    assert det(((2, 1), (1, 1))) == 1
    assert det(((1, 2), (2, 4))) == 0
    assert det(((0, 1), (1, 0))) == -1


def test_det_matches_cofactor_oracle():
    rng = random.Random(20260816)
    for _ in range(60):
        M = random_int_matrix(rng, rng.randint(2, 5))
        assert det(M) == det_cofactor([list(r) for r in M])


def test_det_rational_entries():
    M = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(2, 7)))
    assert det(M) == Fraction(1, 2) * Fraction(2, 7) - Fraction(1, 3) * Fraction(1, 5)


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))


def test_solve_round_trip():
    rng = random.Random(7)
    done = 0
    while done < 40:
        M = random_int_matrix(rng, rng.randint(1, 5))
        if det(M) == 0:
            continue
        rhs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in M)
        x = solve(M, rhs)
        assert mat_vec(M, x) == rhs
        done += 1


def gauss_jordan_reference(M):
    """Independent inverse and determinant by Fraction Gauss-Jordan."""
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(M)]
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None, 0
        if pivot != c:
            aug[c], aug[pivot] = aug[pivot], aug[c]
            d = -d
        d *= aug[c][c]
        aug[c] = [a / aug[c][c] for a in aug[c]]
        for i in range(n):
            if i != c:
                aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug), d


def test_inverse_adjugate_det_match_reference():
    rng = random.Random(31)
    sizes = [1] * 20 + [rng.randint(2, 5) for _ in range(150)]
    negative = 0
    for n in sizes:
        M = random_int_matrix(rng, n)
        inv_ref, d_ref = gauss_jordan_reference(M)
        assert det(M) == d_ref
        if d_ref == 0:
            with pytest.raises(SingularMatrixError):
                adjugate_int(M)
            continue
        negative += d_ref < 0
        adj, d = adjugate_int(M)
        assert d == d_ref
        assert adj == tuple(tuple(x * d_ref for x in row) for row in inv_ref)
        assert all(type(x) is int for row in adj for x in row)
        rhs = tuple(rng.randint(-9, 9) for _ in range(n))
        x = solve(M, rhs)
        assert x == tuple(sum(a * b for a, b in zip(row, rhs)) for row in inv_ref)
        assert all(type(v) is Fraction for v in x)
    assert negative > 10


def test_rational_det_solve_match_reference():
    # rows are scaled to integers before the fraction-free elimination
    rng = random.Random(37)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 4)
        M = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
                  for _ in range(n))
        inv_ref, d_ref = gauss_jordan_reference(M)
        assert det(M) == d_ref
        if d_ref == 0:
            continue
        rhs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        assert solve(M, rhs) == tuple(sum(a * b for a, b in zip(row, rhs)) for row in inv_ref)
        checked += 1


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve(((1, 2), (2, 4)), (1, 1))
    with pytest.raises(SingularMatrixError):
        smith_normal_form(((1, 2), (2, 4)))


def test_rank():
    assert rank(((1, 2), (2, 4))) == 1
    assert rank(((1, 0), (0, 1))) == 2
    assert rank(((0, 0), (0, 0))) == 0
    assert rank(((1, 2, 3), (4, 5, 6))) == 2


def rank_reference(M):
    """Independent rank by Fraction Gauss-Jordan."""
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


def random_planted_rank_matrix(rng):
    """An m x n matrix, 1 <= m, n <= 6, whose rows combine k <= min(m, n) rows.

    Some basis rows are rational, some rows get a rational scale, and
    some columns are zeroed, so rank deficiency comes in every shape.
    """
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    basis = [[Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(rng.randint(0, min(m, n)))]
    rows = []
    for _ in range(m):
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 4)) if rng.random() < 0.3 else 1
        rows.append([scale * sum((rng.randint(-3, 3) * b[j] for b in basis), Fraction(0))
                     for j in range(n)])
    for j in rng.sample(range(n), rng.randint(0, n // 2)):
        for row in rows:
            row[j] = Fraction(0)
    return tuple(tuple(x.numerator if x.denominator == 1 else x for x in row)
                 for row in rows)


def test_rank_and_det_match_reference_on_planted_rank():
    rng = random.Random(41)
    deficient = square = 0
    for _ in range(600):
        M = random_planted_rank_matrix(rng)
        r = rank_reference(M)
        assert rank(M) == r, M
        deficient += r < min(len(M), len(M[0]))
        if len(M) == len(M[0]):
            square += 1
            assert det(M) == det_cofactor(M), M
            if r < len(M):
                with pytest.raises(SingularMatrixError):
                    solve(M, (0,) * len(M))
    assert deficient > 200 and square > 50


def test_vec_primitive():
    assert vec_primitive((2, 4, 6)) == (1, 2, 3)
    assert vec_primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert vec_primitive((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        vec_primitive((0, 0))


# ---------------------------------------------------------------------------
# Smith normal form


def is_unimodular(M):
    return det(M) in (1, -1)


def diag(s):
    return tuple(tuple(s[i] if i == j else 0 for j in range(len(s))) for i in range(len(s)))


def test_smith_2x2_by_unimodular_search():
    # Independent check: some small unimodular V, W must satisfy B V = W diag(1, 6).
    B = ((2, 0), (0, 3))
    target = diag((1, 6))
    found = False
    entries = range(-3, 4)
    candidates = [m for m in (((a, b), (c, d))
                              for a, b, c, d in product(entries, repeat=4))
                  if is_unimodular(m)]
    for V in candidates:
        BV = mat_mul(B, V)
        for W in candidates:
            if mat_mul(W, target) == BV:
                found = True
                break
        if found:
            break
    assert found

    smf = smith_normal_form(B)
    assert smf.s == (1, 6)
    assert mat_mul(B, smf.V) == mat_mul(smf.W, diag(smf.s))
    assert is_unimodular(smf.V) and is_unimodular(smf.W)


def test_smith_identity():
    smf = smith_normal_form(identity(3))
    assert smf.s == (1, 1, 1)


def test_smith_random_invariants():
    rng = random.Random(2024)
    done = 0
    while done < 40:
        B = random_int_matrix(rng, rng.randint(1, 4))
        d = det(B)
        if d == 0:
            continue
        smf = smith_normal_form(B)
        assert mat_mul(B, smf.V) == mat_mul(smf.W, diag(smf.s))
        assert is_unimodular(smf.V) and is_unimodular(smf.W)
        assert all(x > 0 for x in smf.s)
        assert all(smf.s[i + 1] % smf.s[i] == 0 for i in range(len(smf.s) - 1))
        prod = 1
        for x in smf.s:
            prod *= x
        assert prod == abs(d)
        done += 1


def test_smith_determinism():
    B = ((4, 6, 2), (2, 8, 4), (6, 2, 8))
    assert smith_normal_form(B) == smith_normal_form(B)


# ---------------------------------------------------------------------------
# LLL


def lll_reference(basis, delta=Fraction(3, 4)):
    """Textbook LLL that rebuilds Fraction Gram-Schmidt after every update.

    Same moves as lll_reduce: full size reduction of row k against rows
    k-1 ... 0 with Python's round (half to even) before the Lovasz test.
    """
    m = len(basis)
    rows = [list(row) for row in basis]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    star, mu = gram_schmidt_oracle(rows)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                rows[k] = [a - r * b for a, b in zip(rows[k], rows[j])]
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                star, mu = gram_schmidt_oracle(rows)
        lhs = dot(star[k], star[k])
        rhs = (delta - mu[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            star, mu = gram_schmidt_oracle(rows)
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in rows), tuple(tuple(r) for r in U)


def test_lll_matches_reference_random():
    rng = random.Random(4242)
    done = 0
    while done < 240:
        n = 2 + done % 4
        basis = random_int_matrix(rng, n, -30, 30)
        if done % 3 == 0:  # long, skewed rows force many swaps
            basis = tuple(tuple(x + (rng.choice((50, 1000, 10 ** 5)) if i == j else 0)
                                for j, x in enumerate(row)) for i, row in enumerate(basis))
        if det(basis) == 0:
            continue
        assert lll_reduce(basis) == lll_reference(basis)
        done += 1


def test_lll_integer_input_matches_reference():
    # integer rows as lists, as find_w passes them: copied, not scaled
    rng = random.Random(77)
    done = 0
    while done < 120:
        n = 2 + done % 3
        basis = [list(row) for row in random_int_matrix(rng, n, -40, 40)]
        if det(basis) == 0:
            continue
        before = [row[:] for row in basis]
        reduced, U = lll_reduce(basis)
        assert (reduced, U) == lll_reference(basis)
        assert all(type(x) is int for row in reduced for x in row)
        assert basis == before
        done += 1


def test_lll_half_integer_tie_rounds_to_even():
    # mu_10 = +-5/2 at the first size reduction: half to even takes +-2;
    # for 5/2 half up would take 3 and end at ((-1, 1), (1, 1)), for
    # -5/2 half away from zero would take -3 and end elsewhere too.
    for basis, want in ((((2, 0), (5, 1)), ((1, 1), (1, -1))),
                        (((2, 0), (-5, 1)), ((-1, 1), (1, 1))),
                        (((2, 0), (3, 1)), None)):  # mu = 3/2
        reduced, U = lll_reduce(basis)
        assert (reduced, U) == lll_reference(basis)
        if want is not None:
            assert reduced == want


def gram_schmidt_oracle(rows):
    star = []
    mus = []
    for i, v in enumerate(rows):
        w = [Fraction(x) for x in v]
        mu_row = []
        for j in range(i):
            mu = dot(v, star[j]) / dot(star[j], star[j])
            mu_row.append(mu)
            w = [a - mu * b for a, b in zip(w, star[j])]
        star.append(w)
        mus.append(mu_row)
    return star, mus


def assert_lll_reduced(rows, delta=Fraction(3, 4)):
    star, mus = gram_schmidt_oracle(rows)
    for i in range(len(rows)):
        for j in range(i):
            assert abs(mus[i][j]) <= Fraction(1, 2)
    for k in range(1, len(rows)):
        lhs = dot(star[k], star[k])
        rhs = (delta - mus[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1])
        assert lhs >= rhs


def test_lll_orthogonal_basis_unchanged():
    basis = ((3, 0), (0, 2))
    reduced, U = lll_reduce(basis)
    assert sorted(tuple(map(abs, r)) for r in reduced) == [(0, 2), (3, 0)]
    assert is_unimodular(U)


def test_lll_skew_basis_finds_short_vector():
    basis = ((1, 0), (1000, 1))
    reduced, U = lll_reduce(basis)
    # Exhaustive oracle: the lattice contains (1, 0) and (0, 1), so the
    # shortest achievable sup-norm is exactly 1.
    assert min(max(abs(x) for x in row) for row in reduced) == 1
    assert mat_mul(U, basis) == reduced
    assert is_unimodular(U)
    assert_lll_reduced(reduced)


def test_lll_random_invariants():
    rng = random.Random(99)
    done = 0
    while done < 30:
        n = rng.randint(2, 4)
        basis = random_int_matrix(rng, n, -20, 20)
        if det(basis) == 0:
            continue
        reduced, U = lll_reduce(basis)
        assert mat_mul(U, basis) == reduced
        assert is_unimodular(U)
        assert_lll_reduced(reduced)
        done += 1


def test_lll_dependent_rows_raise():
    with pytest.raises(ValueError):
        lll_reduce(((1, 2), (2, 4)))


def test_transpose_shape():
    assert transpose(((1, 2, 3), (4, 5, 6))) == ((1, 4), (2, 5), (3, 6))
