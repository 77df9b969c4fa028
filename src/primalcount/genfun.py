"""Rational generating functions of half-open simplicial cones.

Each cone contributes a term: the lattice points of its fundamental
parallelepiped as numerator exponents over the product of (1 - z^ray)
denominators.  There is one point per residue class of the rays'
lattice, and the box spanned by the diagonal of the rays' Hermite form
holds one of each (_box_columns).  When a unit vector e_i generates the
group of residue classes, its multiples t e_i, t = 0..index-1, hold one
of each too, and everything a count needs is an arithmetic progression
in t (_walk); only a leaf with no such e_i walks its Hermite box.  Lattice
point counts come out by specializing the sum of all terms at z = 1,
which every single term has as a pole: substituting z = t^mu for a
direction mu that kills no denominator, then t = 1 + u, turns a term's
share into one coefficient of an exact truncated power series, a fixed
integer combination of its numerator's binomial sums (_leaf_weights).
specialize_at_one reads it for built terms (gf_term, GenFun).
Counting decomposes cones only down to index DEFAULT_MAX_INDEX, as
LattE does, and CompiledLeaves is the one leaf counter.  It walks each
leaf's residues once, without its apex, and keeps each facet's rounding
as one integer row, affine in the parameters of the leaf's apex map
v(q) = M q + c.  A facet whose row has no parameter part rounds the same
at every parameter point, so it is rounded once when compiling.  A leaf
that moves with q through the floors f_j = index Q_j + r_j of its moving
facets has a share that is a polynomial in the Q_j with coefficients
that depend only on the r_j, the step-polynomial form of Verdoolaege &
Woods, and only through a cell of a small grid (_grid_ranks).  Such a
leaf is tabulated when its grid has at most max_index cells: with one
moving facet, or at index 1, compiling fills every row
(_residue_table); with several, a row is filled the first time a count
needs it (_GridRows).  Each leaf that moves is kept as one flat record,
in one list of tabulated leaves and one of walked leaves, with each of
its moving facets' row, strict flag, gain and rank (or column) zipped
into one tuple when compiling.  A tabulated leaf's rows hold its share
times d! in powers of X, so Horner's rule evaluates them in integers,
and each tabulated leaf is compiled into a closure from a factory
generated once per shape, p parameters, k moving facets and dimension d
(_evaluator).  A count at a parameter point is then one call per
tabulated leaf, which does one dot product and one floor division per
moving facet, one cell lookup and d Horner steps, and integer sums
over the residues of each walked leaf, building no point, apex or term.
count_leaves counts fixed apexes as maps with no parameters, so all its
work is compiling.  The parametric module
compiles each vertex's leaves once per direction mu, and a chamber
counts as the CompiledSum of its active vertices' programs, which
joins their lists, shares their records and compiles nothing.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import add, mul, sub

from .halfopen import HalfOpenCone, _check_max_index, signed_decompose
from .linalg import _int_row, dot, hermite_diagonal, identity
# Not called here: the walk uses hermite_diagonal.  The name stays bound
# because perfbench's tracer test looks for it in this module.
from .linalg import smith_normal_form  # noqa: F401
from .polytope import HPolytope, enumerate_vertices, vertex_cone

# The index at which counting stops decomposing a cone and walks its
# residues instead.  Measured on random boxes, skew simplices and a
# parametric sweep (README, "--max-index"): with a leaf's share summed
# over its residues, a residue costs far less than a split, and 200 was
# the fastest of L = 1, 20, 50, 100, 200 on fixed counts; the sweep does not
# tell 20 to 200 apart.
DEFAULT_MAX_INDEX = 200


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


def _box_columns(cone: HalfOpenCone, rows):
    """The Hermite box of a leaf, walked as integer columns.

    The box 0 <= k_i < h_i, with h the diagonal of the Hermite form of
    the ray rows (linalg.hermite_diagonal), holds one lattice point k per
    residue class of the rays' lattice; an index-1 cone has only k = 0
    and needs no Hermite form.  parallelepiped_points walks it for every
    leaf, and CompiledLeaves only for a leaf whose group of residue
    classes no unit vector generates (_walk).  Returns one list per
    affine row (e, c) of rows, holding e . k + c over the whole box;
    every list runs in the same order, the last axis fastest, and is its
    value at k = 0 spread over the box one axis at a time.
    """
    columns = [[c] for _, c in rows]
    if cone.base.index > 1:
        for i, size in enumerate(hermite_diagonal(cone.base.rays)):
            if size > 1:
                for j, (e, _) in enumerate(rows):
                    steps = [t * e[i] for t in range(size)]
                    columns[j] = [v + s for v in columns[j] for s in steps]
    return columns


def _walk(cone: HalfOpenCone, mu, shift, fixed, normals):
    """(Ns, columns) over one point k per residue class of a leaf's
    rays' lattice: Ns holds N = <mu, k> + shift with each fixed facet
    folded in, and columns holds normals[j] . k for each moving normal.

    fixed holds (normal, g, f) per fixed facet, which moves each N by
    -g ((f - normal . k) // index), as _moved does.  A point x lies in
    the rays' lattice exactly when normals[j] . x = 0 (mod index) for
    every facet j, so the unit vector e_i has order
    index // gcd(index, column i of the normals) in the group of
    residue classes.  When that gcd is 1, e_i generates the group and
    k = t e_i for t = 0..index-1 is one point per class: N, each
    normal . k and each fixed facet's f - normal . k are arithmetic
    progressions in t, so the walk builds no Hermite form and no column
    per fixed facet, and a fixed facet with normal[i] = 0 moves every N
    alike.  A leaf with no such e_i, whose group is not cyclic or is
    generated by no unit vector, walks its Hermite box (_box_columns).
    """
    base = cone.base
    index = base.index
    for i in range(len(mu)):
        if gcd(index, *(n[i] for n in base.normals)) == 1:
            break
    else:
        columns = _box_columns(cone, [(n, 0) for n, _, _ in fixed]
                               + [(n, 0) for n in normals] + [(mu, shift)])
        Ns = columns.pop()
        for (_, g, f), column in zip(fixed, columns):
            Ns = _moved(Ns, g, f, column, index)
        return Ns, columns[len(fixed):]
    Ns = _progression(shift, mu[i], index)
    for n, g, f in fixed:
        a = n[i]
        if a:
            Ns = [N - g * (x // index)
                  for N, x in zip(Ns, range(f, f - index * a, -a))]
        elif f // index:
            drop = g * (f // index)
            Ns = [N - drop for N in Ns]
    return Ns, [_progression(0, n[i], index) for n in normals]


def _progression(start, step, count):
    """start + t step for t = 0..count-1."""
    return range(start, start + count * step, step) if step else [start] * count


def parallelepiped_points(cone: HalfOpenCone, apex):
    """Lattice points of the half-open fundamental parallelepiped at apex.

    The parallelepiped consists of apex + sum lam_j rays[j] with lam_j in
    [0,1) on closed facets and (0,1] on strict ones.  Each point k of the
    Hermite box (_box_columns) is one residue class of the rays' lattice,
    translated into the parallelepiped by whole rays.  With apex = a / q
    for an integer vector a, the base cone's integer normals give
    q * index * lam_j(k) = normals[j] . (a - q k).  With the strict flag
    subtracted from normals[j] . a, -floor(lam_j) on closed facets and
    1 - ceil(lam_j) on strict ones are both -((f_j - normals[j] . k) //
    index) for f_j = (normals[j] . a - strict_j) // q, the rounding that
    CompiledLeaves uses.  Returns exactly index many points, sorted.
    """
    base = cone.base
    d = len(base.rays)
    q, a = _int_row(apex)
    columns = _box_columns(cone, [(n, 0) for n in base.normals]
                           + [(e, 0) for e in identity(d)])
    coords = columns[d:]
    for n, s, ray, column in zip(base.normals, cone.sigma, base.rays, columns):
        f = (sum(map(mul, n, a)) - (s < 0)) // q
        floors = [(f - v) // base.index for v in column]
        coords = [[x - r * m for x, m in zip(xs, floors)] if r else xs
                  for r, xs in zip(ray, coords)]
    return sorted(zip(*coords))


def gf_term(cone: HalfOpenCone, apex, sign: int = 1) -> GenFunTerm:
    """The generating-function term of one half-open simplicial cone."""
    return GenFunTerm(sign=sign,
                      numerator_exponents=tuple(parallelepiped_points(cone, apex)),
                      denominator_rays=tuple(cone.base.rays))


def generic_directions(rays):
    """Integer directions mu = (1, M, M^2, ...) with <mu, b> != 0 for all b.

    Each pairing is a nonzero polynomial in M, so increasing M skips
    only finitely many values; yields every M that works, in increasing
    order, and (1,) forever when rays is empty.
    """
    if not rays:
        yield from repeat((1,))
        return
    d = len(next(iter(rays)))
    for M in range(1, 10 ** 6 + 1):
        mu = tuple(M ** i for i in range(d))
        if all(dot(mu, b) != 0 for b in rays):
            yield mu
    raise RuntimeError("no generic direction found")  # unreachable


def _binomials(N, order):
    """[C(N, k) for k = 0..order] for any integer N, exactly."""
    out = [1]
    c = 1
    for k in range(1, order + 1):
        c = c * (N - k + 1) // k
        out.append(c)
    return out


def _leaf_weights(exps, sign):
    """(u, den) with a term's share of the count sum_t u[t] num_t / den.

    exps are the <mu, ray> of the term's d rays, and num_t sums C(N, t)
    over its numerator points, N = <mu, point> + shift with shift the sum
    of -e over the negative e in exps.  After z = (1+u)^mu and
    1/(1 - t^(-e)) = -t^e / (1 - t^e) for each negative e, the term is
    sign s num(u) / (u^d H(u)) with num(u) = sum_t num_t u^t,
    s = (-1)^(d + #negative) and H the product of C(|e|,1) + C(|e|,2) u
    + ... over exps, truncated at u^d.  The share is its constant term,
    sign s [u^d] num / H.  With h0 = H[0], the integers
    P_k = h0^(k+1) [u^k] 1/H obey P_0 = 1 and
    P_k = -sum_{i>=1} H_i h0^(i-1) P_(k-i), so u[t] = sign s P_(d-t) h0^t
    over den = h0^(d+1), reduced by their common divisor.  H depends on
    exps only through the multiset of |e|, and the sign of the share
    only through s, so every term whose |e| sort the same shares u and
    den up to sign (_signed_weights).
    """
    d = len(exps)
    H = [1]
    for e in exps:
        # 1 - (1+u)^e = -u * (C(e,1) + C(e,2) u + ...)
        b = _binomials(abs(e), d + 1)[1:]
        H = [sum(map(mul, H[:k + 1], b[k::-1])) for k in range(d + 1)]
    h0 = H[0]
    G = [H[i] * h0 ** (i - 1) for i in range(1, d + 1)]  # G[i-1] = H_i h0^(i-1)
    P = [1]
    for _ in range(d):
        P.append(-sum(map(mul, G, P[::-1])))
    nneg = sum(1 for e in exps if e < 0)
    sgn = -sign if (nneg + d) % 2 else sign
    u = [sgn * P[d - t] * h0 ** t for t in range(d + 1)]
    den = h0 ** (d + 1)
    common = gcd(den, *u)
    return [x // common for x in u], den // common


def _signed_weights(cache, exps, sign):
    """(u, den) of _leaf_weights(exps, sign), u a new list, computed once
    per multiset of |e| in cache: the weights for the sorted |e| and
    sign 1, negated when sign and the parity of the negative e disagree."""
    key = tuple(sorted(map(abs, exps)))
    if key not in cache:
        cache[key] = _leaf_weights(key, 1)
    u, den = cache[key]
    odd = sum(e < 0 for e in exps) % 2 == 1
    return ([-x for x in u] if (sign < 0) != odd else list(u)), den


def specialize_at_one(g: GenFun, direction=None) -> int:
    """Exact number of lattice points of the set generating g.

    Substitutes z = t^mu for a direction mu not orthogonal to any
    denominator ray, flips factors with negative exponent via
    1/(1 - t^(-a)) = -t^a / (1 - t^a), sets t = 1 + u, and extracts the
    constant term of each Laurent expansion.  Each term adds the one
    rational of _leaf_weights, from the sums num_t of C(N, t) over its
    numerator points; the per-term rationals always sum to an integer.
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
        num = [0] * (d + 1)
        for p in term.numerator_exponents:
            for k, c in enumerate(_binomials(dot(direction, p) + shift, d)):
                num[k] += c
        u, den = _leaf_weights(exps, term.sign)
        total += Fraction(sum(map(mul, u, num)), den)
    if total.denominator != 1:
        raise AssertionError("specialization must produce an integer")
    return int(total)


def _box_sums(Ns, order):
    """[S_0, ..., S_order], with S_t the sum of C(N, t) over the values N
    of a box, one per residue (_walk), from the falling factorials
    N (N-1) ... (N-t+1) over t!."""
    S = [len(Ns), sum(Ns)]
    falling, fact = Ns, 1
    for t in range(2, order + 1):
        fact *= t
        falling = [x * (N - t + 1) for x, N in zip(falling, Ns)]
        S.append(sum(falling) // fact)
    return S


def _power_table(d):
    """The columns of the change from the binomial basis C(X, i),
    i = 0..d, to powers of X, scaled by d!: column k holds, for each i,
    the coefficient of X^(d-k) in d! C(X, i) = (d! / i!) X (X-1) ...
    (X-i+1), a signed Stirling number of the first kind times d! / i!.
    Made once per d and kept in _POWER_TABLES."""
    if d not in _POWER_TABLES:
        falling = [1]  # X (X-1) ... (X-i+1), lowest power first
        scaled = []  # d! C(X, i), padded to d + 1 powers
        fact = factorial(d)
        for i in range(d + 1):
            scaled.append([fact // factorial(i) * a for a in falling]
                          + [0] * (d - i))
            falling = [0, *falling]
            for k in range(i + 1):
                falling[k] -= i * falling[k + 1]
        _POWER_TABLES[d] = tuple(zip(*scaled))[::-1]
    return _POWER_TABLES[d]


_POWER_TABLES = {}  # d -> _power_table(d)


def _power_row(W):
    """The coefficients of d! sum_i W_i C(X, i) in powers of X, highest
    first, for a binomial row W of length d + 1: integers, so Horner's
    rule evaluates the row exactly."""
    return tuple(sum(map(mul, W, column)) for column in _power_table(len(W) - 1))


def _row(u, S):
    """The power row (_power_row) of W with W_i = sum_(t >= i) u[t]
    S_(t-i): W[0] is the share of a box whose binomial sums are S, and
    W_i the weight of C(X, i) when every N of the box moves by X
    (Vandermonde's identity, _residue_table), so the row's value at X is
    d! times the share of the moved box."""
    return _power_row([sum(map(mul, u[i:], S)) for i in range(len(u))])


def _moved(Ns, g, f, column, index):
    """Ns with each N moved by -g ((f - v) // index), v from column: the
    rounding of one facet at f over the residues."""
    return [N - g * ((f - v) // index) for N, v in zip(Ns, column)]


def _residue_table(u, Ns, column, g, index):
    """The rows W(r), r = 0..index-1, in powers of X (_row), of a leaf
    whose one moving facet has gain g and the column v(k) = normals . k
    over the residues, with Ns the leaf's column of N with every fixed
    facet folded in.

    With f = index Q + r, 0 <= r < index, the facet moves the point of
    residue k to N = B_k(r) + X for B_k(r) = N_k - g ((r - v_k) // index)
    and X = -g Q.  Vandermonde's identity
    C(B + X, t) = sum_i C(B, t - i) C(X, i) makes the share
    sum_i W_i(r) C(X, i) with W(r) = _row(u, S(r)) and
    S_i(r) = sum_k C(B_k(r), i), and _row keeps it in powers of X, times
    d!, for Horner's rule.  For v_k = a index + b, B_k(r) is
    N_k + g (a + 1) while r < b and N_k + g a from r = b on (always when
    b = 0), so S starts at the sums of the first values and changes only
    at the residues b that some v_k has; a residue with none repeats the
    row before it, the same tuple.  An index-1 leaf is the case
    column = [0]: its one row serves every moving facet, each with r = 0.
    """
    order = len(u) - 1
    zero = [0] * (order + 1)
    S = zero
    steps = {}  # b -> the change of S at r = b
    for N, v in zip(Ns, column):
        a, b = divmod(v, index)
        low = _binomials(N + g * a, order)
        if b:
            high = _binomials(N + g * (a + 1), order)
            S = list(map(add, S, high))
            steps[b] = list(map(add, steps.get(b, zero), map(sub, low, high)))
        else:
            S = list(map(add, S, low))
    rows = []
    W = None
    for r in range(index):
        if r in steps:
            S = list(map(add, S, steps[r]))
            W = None
        if W is None:
            W = _row(u, S)
        rows.append(W)
    return rows


class _GridRows(dict):
    """The power rows (_row) of a leaf with several moving facets, keyed
    by cell, each filled the first time a count needs it by one walk of
    the residues.  The leaf's evaluator (_evaluator) holds this dict, so
    a lookup of a missing cell fills it.

    gains, columns and ranks hold per moving facet its gain, its column
    v(k) = normals . k over the residues, and its rank array
    (_grid_ranks).
    The cell's coordinate c on a facet is how many distinct nonzero
    residues v_k mod index are at most r, and every r with the same c
    gives the same B_k(r) (_residue_table).  So the row is the one at
    the least r whose rank is c times the facet's stride, and the
    facet's largest rank, at r = index - 1, gives the next stride.
    """

    __slots__ = ("u", "Ns", "gains", "columns", "ranks", "index")

    def __init__(self, u, Ns, gains, columns, ranks, index):
        super().__init__()
        self.u, self.Ns, self.index = u, Ns, index
        self.gains, self.columns, self.ranks = gains, columns, ranks

    def __missing__(self, cell):
        Ns, stride = self.Ns, 1
        for g, column, rank in zip(self.gains, self.columns, self.ranks):
            size = rank[-1] // stride + 1
            r = rank.index(cell // stride % size * stride)
            Ns = _moved(Ns, g, r, column, self.index)
            stride *= size
        row = self[cell] = _row(self.u, _box_sums(Ns, len(self.u) - 1))
        return row


def _grid_ranks(columns, index, max_index):
    """The rank arrays of a leaf with several moving facets and index
    above 1, or None when its grid has more than max_index cells.

    With v_jk = a_jk index + b_jk on facet j and f_j = index Q_j + r_j,
    B_k = N_k + sum_j g_j (a_jk + [r_j < b_jk]) depends on r_j only
    through how many distinct nonzero b_jk are at most r_j, the facet's
    coordinate of the cell.  With n_j such residues on facet j the grid
    has prod_j (n_j + 1) cells.  ranks[j][r] is the coordinate of r times
    the facet's stride, so a cell is sum_j ranks[j][r_j].  Each rank is
    below the number of cells, so up to 256 cells one byte holds it.
    """
    residues = [{v % index for v in column} - {0} for column in columns]
    cells = 1
    for bs in residues:
        cells *= len(bs) + 1
    if cells > max_index:
        return None
    array = bytes if cells <= 256 else tuple
    ranks, stride = [], 1
    for bs in residues:
        steps = [0] * index  # the rank rises by the stride at each residue
        for b in bs:
            steps[b] = stride
        ranks.append(array(accumulate(steps)))
        stride *= len(bs) + 1
    return ranks


def _evaluator(p, k, d):
    """The factory of evaluators of tabulated leaves with p parameters, k
    moving facets and dimension d, generated once per shape and kept in
    _FACTORIES.

    factory(m, facets, index, rows) takes a tabled record of
    CompiledLeaves and returns leaf(zD): the leaf's share at the
    parameter point z / D (zD = (*z, D)) times the program's
    denominator, its power row at X by Horner's rule.  The source
    unrolls what a loop over the record would do: one dot product and
    floor division per moving facet, the sum of their ranks as the cell
    (with one facet the rank is the identity, so the residue is the
    cell) and d Horner steps.  It is formatted from p, k and d alone and
    the factory binds the record's entries, so leaves of one shape share
    one code object.  rows stays the record's container, which rescale
    and _GridRows change in place.
    """
    shape = (p, k, d)
    if shape not in _FACTORIES:
        zs = [f"z{i}" for i in range(p)]
        facets, floors = [], []
        for j in range(k):
            row = [f"a{j}_{i}" for i in range(p)]
            facets.append(f"(({', '.join(row)}, b{j}), s{j}, g{j}, rank{j})")
            dot = " + ".join(f"{a} * {z}" for a, z in zip(row, zs))
            floors.append(f"        Q{j}, r{j} = divmod(({dot} + b{j} * D - s{j})"
                          f" // mD, index)")
        cell = "r0" if k == 1 else " + ".join(f"rank{j}[r{j}]" for j in range(k))
        horner = "c0"
        for i in range(1, d + 1):
            horner = f"({horner}) * X + c{i}"
        source = "\n".join([
            "def factory(m, facets, index, rows):",
            f"    ({', '.join(facets)},) = facets",
            *(f"    n{j} = -g{j}" for j in range(k)),
            "    def leaf(zD):",
            f"        {', '.join(zs)}, D = zD",
            "        mD = m * D",
            *floors,
            "        X = " + " + ".join(f"n{j} * Q{j}" for j in range(k)),
            f"        {', '.join(f'c{i}' for i in range(d + 1))} = rows[{cell}]",
            f"        return {horner}",
            "    return leaf"])
        namespace = {}
        exec(source, namespace)
        _FACTORIES[shape] = namespace["factory"]
    return _FACTORIES[shape]


_FACTORIES = {}  # (p, k, d) -> _evaluator(p, k, d)


class CompiledLeaves:
    """Signed leaf cones with affine apexes, counted in integers.

    leaf_sets holds one sequence of (sign, HalfOpenCone) per apex, as
    signed_decompose returns them, and maps one integer affine apex map
    (M, c, m) per sequence: M holds d integer rows of p entries (or none
    when p = 0), c is an integer vector of length d and m a positive
    integer.  At the parameter point z / D (integer z, D > 0) sequence i
    sits at apex (M z + D c) / (m D); a fixed apex a / q is the map
    ((), a, q), counted at z = () and D = 1.  One direction mu, generic
    for every leaf ray, makes the leaves' shares of specialize_at_one
    sum to the count: the given mu, or else the first of
    generic_directions over all leaf rays.  A share depends only on the
    leaf, its map and mu, so programs compiled under one mu add up
    (CompiledSum) once they count over one denominator (rescale).  Each
    leaf is walked once (_walk), with no apex, over one point k per
    residue class: the multiples t e_i of a unit vector that generates
    the leaf's group of residue classes, or else its Hermite box
    (_box_columns).  The walk gives the integer columns
    c(k) = <mu, k> + shift and normals[j] . k for each moving facet j.
    Its share's weights (_leaf_weights, computed
    once per multiset of |gains| by _signed_weights) are scaled to one
    common denominator L, the lcm of the leaves' own, and every count
    is over self.denominator = L d!.

    Facet j has the integer row (normals[j] . M columns...,
    normals[j] . c) and its strict flag, so the rounding of
    parallelepiped_points at the apex is the step-polynomial
    f_j = (row_j . (z, D) - strict_j) // (m D), and the parallelepiped
    point of residue k is k - sum_j ((f_j - normals[j] . k) // index)
    rays[j].  So N = <mu, point> + shift is c(k) -
    sum_j g_j ((f_j - normals[j] . k) // index) with g_j = <mu, rays[j]>,
    and the binomial sums of the N over the residues (_box_sums) times the
    weights are the share.  A facet whose row has no parameter part is
    fixed: for every D >= 1, f_j = (c_j D - s_j) // (m D) = (c_j - s_j)
    // m with c_j the row's last entry, so its term is folded into c(k)
    during the walk, once; along e_i, f_j - normals[j] . k is the
    progression f_j - t normals[j][i], and the walk builds no column for
    the facet.  Only the moving facets, with their rows, flags and
    gains, are kept for count.  A leaf with no moving facet adds its
    whole share, times d!, to the constant self.constant and keeps
    nothing; with p = 0 every facet is fixed, so a fixed count is all
    compiled here and count only divides.

    A leaf with moving facets depends on the parameters only through
    f_j = index Q_j + r_j for each of them: its share is
    sum_i W_i(r) C(X, i) with X = -sum_j g_j Q_j, and the row W(r)
    depends on r only through the cell of r (_grid_ranks).  A leaf with
    at most max_index cells is tabulated: it keeps one rank array per
    moving facet, which adds r_j's coordinate to the cell, and its rows
    by cell, each the coefficients of d! sum_i W_i C(X, i) in powers of
    X (_row), an integer polynomial that Horner's rule evaluates in d
    steps.  With one moving facet the ranks are the identity, the
    cells are the index residues, and every row is filled here
    (_residue_table); at index 1 there is one cell, filled here too.
    Any other leaf's rows are filled on first use (_GridRows).  A leaf
    with more cells keeps its facet columns and its column of N, which
    count walks, with its weights u times d!.  So no leaf holds more
    than max_index rows.

    Each leaf with a moving facet is one flat record, whatever its
    apex: self.tabled holds (m, facets, index, rows) per tabulated leaf,
    facets a tuple of (row, strict, gain, rank) per moving facet, and
    self.walked holds (m, facets, index, Ns, u) per walked leaf, facets a
    tuple of (row, strict, gain, column).  Both are zipped once here.
    self.evaluators holds one closure per tabled record, made by the
    factory of its shape (_evaluator), which shares the record's rows.
    So count is the constant plus one call per tabulated leaf, one loop
    over the walked records and one exact division, which raises
    AssertionError if the sum is not a multiple of the denominator.
    """

    def __init__(self, leaf_sets, maps, max_index=DEFAULT_MAX_INDEX, mu=None):
        if mu is None:
            mu = next(generic_directions({ray for leaves in leaf_sets
                                          for _, leaf in leaves
                                          for ray in leaf.base.rays}))
        d = len(mu)
        fact = factorial(d)
        self.tabled, self.walked = [], []
        cache = {}  # sorted |gains| -> their _leaf_weights with sign 1
        weights = []  # (u, den, factor) of each leaf with a moving facet
        shares = []  # (share times den, den) of each leaf without one
        tables = []  # (rows, u, Ns, column, g, index) to fill once u is scaled
        for leaves, (M, c, m) in zip(leaf_sets, maps):
            mcols = list(zip(*M))
            for eps, leaf in leaves:
                base = leaf.base
                index = base.index
                gains = [sum(map(mul, mu, ray)) for ray in base.rays]
                fixed, moving, normals = [], [], []
                for n, s, g in zip(base.normals, leaf.sigma, gains):
                    row = [sum(map(mul, n, col)) for col in mcols]
                    cn = sum(map(mul, n, c))
                    if any(row):
                        moving.append(((*row, cn), s < 0, g))
                        normals.append(n)
                    else:
                        fixed.append((n, g, (cn - (s < 0)) // m))
                Ns, columns = _walk(leaf, mu, sum(-g for g in gains if g < 0),
                                    fixed, normals)
                u, den = _signed_weights(cache, gains, eps)
                if not moving:
                    shares.append((sum(map(mul, u, _box_sums(Ns, len(u) - 1))), den))
                    continue
                if len(moving) > 1 and index > 1:
                    ranks = _grid_ranks(columns, index, max_index)
                    rows = ranks and _GridRows(u, Ns, [g for *_, g in moving],
                                               columns, ranks, index)
                elif index <= max_index:
                    # identity ranks, or one cell; rows filled once u is scaled
                    ranks = ((range(index),) if len(moving) == 1
                             else ((0,),) * len(moving))
                    rows = []
                    tables.append((rows, u, Ns, columns[0], moving[0][2], index))
                else:
                    rows = None
                if rows is None:
                    self.walked.append((m, tuple(
                        (*facet, column) for facet, column in zip(moving, columns)),
                        index, Ns, u))
                else:
                    self.tabled.append((m, tuple(
                        (*facet, rank) for facet, rank in zip(moving, ranks)),
                        index, rows))
                # walked weights take the d! that _row gives power rows
                weights.append((u, den, fact if rows is None else 1))
        # every weight and share over the common denominator L d!, in place
        L = lcm(*[den for _, den, _ in weights], *[den for _, den in shares])
        self.denominator = L * fact
        for u, den, scale in weights:
            scale *= L // den
            u[:] = [scale * x for x in u]
        self.constant = fact * sum(share * (L // den) for share, den in shares)
        for rows, u, Ns, column, g, index in tables:
            rows[:] = _residue_table(u, Ns, column, g, index)
        self.evaluators = [
            _evaluator(len(facets[0][0]) - 1, len(facets), d)(m, facets, index, rows)
            for m, facets, index, rows in self.tabled]

    def count(self, z, D) -> int:
        """Lattice points of the signed leaf sum at the parameter point
        z / D: z an integer vector of length p, D a positive integer."""
        zD = (*z, D)
        total = self.constant
        for leaf in self.evaluators:
            total += leaf(zD)
        for m, facets, index, Ns, u in self.walked:
            mD = m * D
            for row, s, g, column in facets:
                Ns = _moved(Ns, g, (sum(map(mul, row, zD)) - s) // mD, column, index)
            total += sum(map(mul, u, _box_sums(Ns, len(u) - 1)))
        count, rem = divmod(total, self.denominator)
        if rem:
            raise AssertionError("specialization must produce an integer")
        return count

    def rescale(self, factor):
        """Count over factor times self.denominator: the constant and
        every weight and row times factor, in place, so the evaluators,
        which share the rows, see it.  Equal rows of one leaf stay one
        tuple."""
        self.denominator *= factor
        self.constant *= factor
        for *_, rows in self.tabled:
            grid = isinstance(rows, _GridRows)
            if grid:
                rows.u[:] = [factor * x for x in rows.u]
            scaled = {}
            for key in list(rows) if grid else range(len(rows)):
                W = rows[key]
                if W not in scaled:
                    scaled[W] = tuple(factor * x for x in W)
                rows[key] = scaled[W]
        for *_, u in self.walked:
            u[:] = [factor * x for x in u]


class CompiledSum:
    """The sum of CompiledLeaves programs compiled under one mu and over
    one denominator, counted as one program.

    Its tabled, walked and evaluators lists join the programs' lists and
    share their records and closures, so it compiles nothing and a count
    costs what the same leaves cost in one CompiledLeaves.  rescale
    scales the records in place, which the closures see, but the
    constant and denominator are copies: a sum made before a program is
    rescaled must be made again.
    """

    __slots__ = ("tabled", "walked", "evaluators", "constant", "denominator")

    def __init__(self, programs):
        (self.denominator,) = {p.denominator for p in programs}
        self.constant = sum(p.constant for p in programs)
        self.tabled = [leaf for p in programs for leaf in p.tabled]
        self.walked = [leaf for p in programs for leaf in p.walked]
        self.evaluators = [leaf for p in programs for leaf in p.evaluators]

    count = CompiledLeaves.count


def count_leaves(pairs) -> int:
    """Lattice points of a signed sum of translated leaf cones, exactly.

    pairs holds (apex, leaves) with leaves a sequence of (sign,
    HalfOpenCone) as signed_decompose returns them; each leaf is moved
    to apex.  Each apex, split into a / q by linalg._int_row, is the
    constant map ((), a, q), and the leaves are compiled once
    (CompiledLeaves): every facet is fixed, so compiling sums each
    leaf's share, one leaf at a time, and the count at the empty
    parameter point only divides.  The result is specialize_at_one of
    the leaves' gf_terms.
    """
    maps = []
    for apex, _ in pairs:
        q, a = _int_row(apex)
        maps.append(((), a, q))
    return CompiledLeaves([leaves for _, leaves in pairs], maps).count((), 1)


def count_polytope(P: HPolytope, max_index: int = DEFAULT_MAX_INDEX,
                   stats=None) -> int:
    """Number of integer points in a bounded polytope, exactly.

    Signed-decomposes every vertex cone down to index at most max_index
    and counts the leaves at their vertex with count_leaves.  The count
    is the same for every max_index >= 1; a smaller max_index raises
    ValueError before any work is done.
    """
    _check_max_index(max_index)
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
