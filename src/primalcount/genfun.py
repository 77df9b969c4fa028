"""Rational generating functions of half-open simplicial cones.

Each cone contributes a term: the lattice points of its fundamental
parallelepiped as numerator exponents over the product of (1 - z^ray)
denominators.  Lattice point counts come out by specializing the sum of
all terms at z = 1, which every single term has as a pole: substituting
z = t^mu for a direction mu that kills no denominator, then t = 1 + u,
turns the specialization into reading one coefficient of an exact
truncated power series.  leaf_program and CompiledLeaves fix that
direction and the series for leaves that are counted at many apexes,
which leaves only integer rounding and one polynomial per parallelepiped
point.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from .halfopen import HalfOpenCone, signed_decompose
from .linalg import _int_row, dot, smith_normal_form, transpose
from .polytope import HPolytope, enumerate_vertices, vertex_cone


@dataclass(frozen=True)
class GenFunTerm:
    sign: int
    numerator_exponents: tuple  # of integer vectors
    denominator_rays: tuple  # of d integer vectors

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class GenFun:
    terms: tuple


def parallelepiped_points(cone: HalfOpenCone, apex):
    """Lattice points of the half-open fundamental parallelepiped at apex.

    The parallelepiped consists of apex + sum mu_j rays[j] with mu_j in
    [0,1) on closed facets and (0,1] on strict ones.  A Smith
    decomposition of the ray matrix walks one representative x per
    residue class, then each representative is translated into the box
    by rounding its coordinates.  With apex = a / q for an integer vector
    a, the base cone's integer normals give q * index * mu_j(x) =
    normals[j] . (a - q x), so the rounding is floor division of integers.
    Returns exactly index many points.  A unimodular cone (index 1) has
    the one residue class of 0 and needs no Smith form.
    """
    base = cone.base
    rays = base.rays
    d = len(rays)
    if base.index == 1:
        sizes, W = (), ()  # one residue class: the walk yields only k = ()
    else:
        snf = smith_normal_form(transpose(rays))
        sizes, W = snf.s, snf.W
    q, a = _int_row(apex)
    den = q * base.index
    # q * index * mu_j(W k) = <normal_j, a> - q <normal_j, W k>, affine in k
    base_num = [dot(n, a) for n in base.normals]
    wcols = transpose(W)  # wcols[i] is the i-th column of W
    shift = [[q * dot(n, w) for w in wcols] for n in base.normals]
    points = []
    for k in product(*(range(s) for s in sizes)):
        x = [sum(k_i * w[t] for k_i, w in zip(k, wcols)) for t in range(d)]
        for j in range(d):
            num = base_num[j] - sum(k_i * s for k_i, s in zip(k, shift[j]))
            # closed: -floor(mu_j); strict: 1 - ceil(mu_j)
            n_j = -(num // den) if cone.sigma[j] > 0 else 1 + (-num) // den
            if n_j:
                for t in range(d):
                    x[t] += n_j * rays[j][t]
        points.append(tuple(x))
    return points


def gf_term(cone: HalfOpenCone, apex, sign: int = 1) -> GenFunTerm:
    """The generating-function term of one half-open simplicial cone."""
    return GenFunTerm(sign=sign,
                      numerator_exponents=tuple(parallelepiped_points(cone, apex)),
                      denominator_rays=tuple(cone.base.rays))


def generic_directions(rays, count=1):
    """Integer directions mu = (1, M, M^2, ...) with <mu, b> != 0 for all b.

    Each pairing is a nonzero polynomial in M, so increasing M skips
    only finitely many values; yields the first `count` that work.
    """
    if not rays:
        yield from ((1,) for _ in range(count))
        return
    d = len(next(iter(rays)))
    found = 0
    M = 1
    while found < count:
        mu = tuple(M ** i for i in range(d))
        if all(dot(mu, b) != 0 for b in rays):
            found += 1
            yield mu
        M += 1
        if M > 10 ** 6:
            raise RuntimeError("no generic direction found")  # unreachable


def _binomials(N, order):
    """[C(N, k) for k = 0..order] for any integer N, exactly."""
    out = [1]
    c = 1
    for k in range(1, order + 1):
        c = c * (N - k + 1) // k
        out.append(c)
    return out


def _poly_mul_trunc(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def specialize_at_one(g: GenFun, direction=None) -> int:
    """Exact number of lattice points of the set generating g.

    Substitutes z = t^mu for a direction mu not orthogonal to any
    denominator ray, flips factors with negative exponent via
    1/(1 - t^(-a)) = -t^a / (1 - t^a), sets t = 1 + u, and extracts the
    constant term of each Laurent expansion: the coefficient q_d of
    num / H, with num and H integer power series truncated at order d.
    With h0 = H[0], the integers Q_k = h0^(k+1) q_k obey
    Q_k = h0^k num_k - sum_{i>=1} H_i h0^(i-1) Q_{k-i}, so the series
    division stays in integers and each term adds the one rational
    Q_d / h0^(d+1).  The per-term rationals always sum to an integer.
    """
    if not g.terms:
        return 0
    d = len(g.terms[0].denominator_rays)
    all_rays = {ray for t in g.terms for ray in t.denominator_rays}
    if direction is None:
        direction = next(generic_directions(all_rays))
    else:
        direction = tuple(direction)
        if any(dot(direction, b) == 0 for b in all_rays):
            raise ValueError("direction is orthogonal to a denominator ray")

    total = Fraction(0)
    for term in g.terms:
        exps = [dot(direction, b) for b in term.denominator_rays]
        shift = sum(-e for e in exps if e < 0)
        nneg = sum(1 for e in exps if e < 0)
        sgn = term.sign * (-1 if (nneg + d) % 2 else 1)
        num = [0] * (d + 1)
        for p in term.numerator_exponents:
            for k, c in enumerate(_binomials(dot(direction, p) + shift, d)):
                num[k] += c
        H = [1]
        for e in exps:
            # 1 - (1+u)^a = -u * (C(a,1) + C(a,2) u + ...)
            H = _poly_mul_trunc(H, _binomials(abs(e), d + 1)[1:], d)
        pw = [H[0] ** k for k in range(d + 2)]
        Q = []
        for k in range(d + 1):
            Q.append(pw[k] * num[k]
                     - sum(H[i] * pw[i - 1] * Q[k - i] for i in range(1, k + 1)))
        total += Fraction(sgn * Q[d], pw[d + 1])
    assert total.denominator == 1, "specialization must produce an integer"
    return int(total)


def leaf_residues(cone: HalfOpenCone):
    """One lattice point per residue class of the cone's ray lattice.

    These are the cone's parallelepiped points at apex 0.  They do not
    depend on any direction, so a leaf computes them once.
    """
    return parallelepiped_points(cone, (0,) * len(cone.base.rays))


def _falling_weights(exps, sign):
    """f with a term's share of specialize_at_one = sum_k f[k] * S_k.

    S_k sums the falling factorial N (N-1) ... (N-k+1) over the term's
    numerator points, where N = <mu, point> + shift.  Q_d of
    specialize_at_one is linear in num, and num_k sums C(N, k) =
    (falling factorial) / k!, so the share is sgn * Q_d / h0^(d+1) with
    Q_d expanded in the num_k.  exps are the <mu, ray> of the term.
    """
    d = len(exps)
    H = [1]
    for e in exps:
        H = _poly_mul_trunc(H, _binomials(abs(e), d + 1)[1:], d)
    pw = [H[0] ** k for k in range(d + 2)]
    Q = []  # Q[k][i]: the coefficient of num_i in Q_k
    for k in range(d + 1):
        row = [0] * (d + 1)
        row[k] = pw[k]
        for i in range(1, k + 1):
            c = H[i] * pw[i - 1]
            for t, v in enumerate(Q[k - i]):
                row[t] -= c * v
        Q.append(row)
    nneg = sum(1 for e in exps if e < 0)
    sgn = sign * (-1 if (nneg + d) % 2 else 1)
    fact = 1
    out = []
    for k, w in enumerate(Q[d]):
        fact *= max(k, 1)
        out.append(Fraction(sgn * w, fact * pw[d + 1]))
    return out


def leaf_program(leaves, residues, direction):
    """The apex-free part of count_leaves for one group of leaves.

    leaves is a sequence of (sign, HalfOpenCone), residues the matching
    leaf_residues lists.  With mu = direction, each leaf's share of
    specialize_at_one is a fixed polynomial in N = <mu, x> + shift summed
    over its parallelepiped points x (_falling_weights), kept as integer
    weights u over a denominator.  At apex a / den (a integer, den > 0)
    the point of residue r is x_r + sum_j n_j rays[j] with
    n_j = 1 + (t_jr - f_j) // index, where t_jr = normals[j] . x_r - 1
    and f_j = (normals[j] . a - strict_j) // den: the rounding of
    parallelepiped_points, split into a fixed part and one floor division
    by den per facet.  Returns (records, denominators), one record
    (normals, strict, index, <mu, rays>, rows, u) and one denominator per
    leaf; each row is (<mu, x_r> + shift + sum_j <mu, ray_j>, t_r).
    """
    records, dens = [], []
    for (eps, leaf), xs in zip(leaves, residues):
        base = leaf.base
        gains = tuple(dot(direction, ray) for ray in base.rays)
        shift = sum(-e for e in gains if e < 0) + sum(gains)
        rows = tuple((dot(direction, x) + shift,
                      tuple(dot(n, x) - 1 for n in base.normals))
                     for x in xs)
        den, u = _int_row(_falling_weights(gains, eps))
        records.append((base.normals, tuple(int(s < 0) for s in leaf.sigma),
                        base.index, gains, rows, tuple(u)))
        dens.append(den)
    return tuple(records), tuple(dens)


class CompiledLeaves:
    """count_leaves for fixed signed leaves whose apexes move, in integers.

    programs holds one leaf_program per apex group, all made with one
    direction generic for every leaf ray, so that the leaves' shares sum
    to the count.  Every share is scaled to one common denominator L.
    count() then takes d floor divisions per leaf, d more per residue,
    one falling-factorial Horner sum per residue and one exact division
    by L.
    """

    def __init__(self, programs):
        self.denominator = L = lcm(*(den for _, dens in programs for den in dens))
        self.groups = tuple((records, tuple(L // den for den in dens))
                            for records, dens in programs)

    def count(self, apexes) -> int:
        """Lattice points of the signed leaf sum with group i at apexes[i].

        apexes[i] is (a, den): an integer numerator vector and a positive
        common denominator.
        """
        total = 0
        for (a, den), (records, scales) in zip(apexes, self.groups):
            for (normals, strict, index, gains, rows, u), scale in zip(records, scales):
                f = [(sum(map(mul, n, a)) - s) // den for n, s in zip(normals, strict)]
                d = len(u) - 1
                share = 0
                for c, ts in rows:
                    N = c
                    for t, fj, g in zip(ts, f, gains):
                        N += (t - fj) // index * g
                    v = u[d]
                    for k in range(d - 1, -1, -1):
                        v = u[k] + (N - k) * v
                    share += v
                total += scale * share
        count, rem = divmod(total, self.denominator)
        assert rem == 0, "specialization must produce an integer"
        return count


def count_leaves(pairs) -> int:
    """Lattice points of a signed sum of translated leaf cones, exactly.

    pairs holds (apex, leaves) with leaves a sequence of (sign,
    HalfOpenCone) as signed_decompose returns them; each leaf is moved
    to apex.  Sums the leaves' generating-function terms and specializes
    the total at z = 1.
    """
    terms = tuple(gf_term(leaf, apex, sign=eps)
                  for apex, leaves in pairs for eps, leaf in leaves)
    return specialize_at_one(GenFun(terms=terms))


def count_polytope(P: HPolytope, max_index: int = 1, stats=None) -> int:
    """Number of integer points in a bounded polytope, exactly.

    Signed-decomposes every vertex cone down to index at most max_index
    and counts the leaves at their vertex with count_leaves.
    """
    vertices = enumerate_vertices(P)
    if not vertices:
        return 0
    if stats is not None:
        stats["num_vertices"] = len(vertices)
    pairs = []
    for v in vertices:
        leaves = signed_decompose(vertex_cone(P, v), max_index=max_index, stats=stats)
        pairs.append((v.point, leaves.terms))
    return count_leaves(pairs)
