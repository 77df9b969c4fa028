"""Half-open cones and polyhedra, and signed decompositions of cones.

A half-open simplicial cone keeps one flag per facet: +1 means the facet
is included (weak inequality), -1 means it is excluded (strict).  Making
boundaries half-open turns identities that hold only up to shared faces
into exact identities of indicator functions, so no inclusion-exclusion
over faces is ever needed.  Every opening, of triangulation pieces here
and of chambers and activity regions in parametric, follows one rule,
exactify: a facet is strict when its outer normal points along a
direction y perturbed symbolically by a basis, so ties on y are broken
exactly, with no search for a generic y.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from operator import add, neg, sub

from .linalg import _apex_rows, _int_row, _rows_hold, _scaled_point, dot, lll_reduce
from .polytope import ClosedCone, SimplicialCone, triangulate


@dataclass(frozen=True)
class HalfOpenCone:
    """A simplicial cone with per-facet openness flags.

    sigma[j] governs the facet opposite ray j (the facet with outer
    normal base.normals[j]): +1 keeps it, -1 excludes it.  In ray
    coordinates x - apex = sum lam_j rays[j], flag +1 means lam_j >= 0
    and flag -1 means lam_j > 0.
    """

    base: SimplicialCone
    sigma: tuple

    def __post_init__(self):
        if len(self.sigma) != len(self.base.rays):
            raise ValueError("one flag per facet required")
        if any(s not in (1, -1) for s in self.sigma):
            raise ValueError("flags must be +1 or -1")

    @property
    def index(self) -> int:
        return self.base.index

    @cached_property
    def int_rows(self):
        """The facets as linalg._apex_rows, strict where sigma is -1."""
        return _apex_rows(self.base.apex, self.base.normals,
                          [s < 0 for s in self.sigma])

    def contains(self, x) -> bool:
        """Exact membership from the signs of the base cone's integer normals.

        normals[j] . (x - apex) is -index * lam_j.  With apex = a / q and
        x = y / p for integer vectors a and y, its sign is that of
        q (normals[j] . y) - p (normals[j] . a): linalg._rows_hold on
        int_rows decides it in integers, strict where flagged.  A point of
        another dimension raises ValueError.
        """
        return _rows_hold(self.int_rows, *_scaled_point(self.int_rows, x))


def integral_row(normal, rhs):
    """The inequality normal . x <= rhs scaled to an integer normal.

    Scales by the lcm of the normal's denominators (linalg._int_row), so
    integer rows come back unchanged; the right-hand side stays an exact
    Fraction.  Entries that are not ints or Fractions raise TypeError.
    """
    scale, ints = _int_row(normal)
    den, (num,) = _int_row((rhs,))
    return tuple(ints), Fraction(num * scale, den)


@dataclass(frozen=True)
class HalfOpenPolyhedron:
    """Finitely many rows (normal, rhs, strict): n . x <= rhs or < rhs."""

    rows: tuple  # of (tuple[int], Fraction, bool)

    @classmethod
    def from_inequalities(cls, A, b, strict=None):
        """Rows A[i] . x <= b[i] (< where strict[i]); rational rows are
        scaled to integer normals by integral_row."""
        flags = strict if strict is not None else [False] * len(A)
        return cls(rows=tuple((*integral_row(row, rhs), bool(f))
                              for row, rhs, f in zip(A, b, flags)))

    def is_closed(self) -> bool:
        return all(not strict for _, _, strict in self.rows)

    @cached_property
    def int_rows(self):
        """Each row g . x <= num / den as the _rows_hold row (den g, num)."""
        return tuple((tuple(h.denominator * x for x in g), h.numerator, strict)
                     for g, h, strict in self.rows)

    def contains(self, x) -> bool:
        return _rows_hold(self.int_rows, *_scaled_point(self.int_rows, x))


@dataclass(frozen=True)
class SignedConeSum:
    """A formal integer combination of half-open cones."""

    terms: tuple  # of (eps, HalfOpenCone)

    def evaluate(self, x) -> int:
        """The signed count of terms holding x; other dimensions raise."""
        rows = self.terms[0][1].int_rows if self.terms else ()
        p, y = _scaled_point(rows, x)
        return sum(eps for eps, cone in self.terms
                   if _rows_hold(cone.int_rows, p, y))

    def to_json(self):
        out = []
        for eps, cone in self.terms:
            out.append({
                "sign": str(eps),
                "apex": [str(Fraction(a)) for a in cone.base.apex],
                "rays": [[str(r) for r in ray] for ray in cone.base.rays],
                "sigma": [str(s) for s in cone.sigma],
            })
        return out


# ---------------------------------------------------------------------------
# exactification


def exactify(normals, y, basis=()):
    """Openness flags that make closed pieces sharing facets disjoint.

    A facet is strict when the first nonzero entry of (n . y, n . b_1,
    n . b_2, ...) is positive, for its outer normal n and the vectors b_i
    of basis, and weak otherwise.  This is the sign of n . y' for the
    direction y' = y + eps b_1 + eps^2 b_2 + ... as eps -> 0: a symbolic
    perturbation (Edelsbrunner & Muecke 1990), so y' is generic for every
    nonzero normal when basis spans, and every flag is the one a plain y
    gives wherever y is generic.  Two pieces meeting in a facet see it
    with opposite outer normals, so exactly one of them keeps it and
    double counting disappears.  Returns one flag per normal, True for
    strict.  Raises ValueError when every entry of a normal is zero.
    """
    flags, vectors = [], (y, *basis)
    for normal in normals:
        for v in vectors:
            p = dot(normal, v)
            if p:
                flags.append(p > 0)
                break
        else:
            raise ValueError("y is not generic for these facets")
    return tuple(flags)


def halfopen_triangulate(C: ClosedCone):
    """Partition a closed pointed cone into half-open simplicial cones.

    Triangulates, then opens facets with exactify against one interior
    direction, the sum of C's rays scaled to integers once (_int_row),
    with C's rays as the basis that breaks ties: every point of C lies in
    exactly one output cone.
    """
    pieces = triangulate(C)
    if len(pieces) == 1:
        return [HalfOpenCone(base=pieces[0], sigma=(1,) * len(pieces[0].rays))]
    y = _int_row([sum(coords) for coords in zip(*C.rays)])[1]
    out = []
    for p in pieces:
        flags = exactify(p.normals, y, C.rays)
        sigma = tuple(-1 if strict else 1 for strict in flags)
        out.append(HalfOpenCone(base=p, sigma=sigma))
    return out


# ---------------------------------------------------------------------------
# signed decomposition


def facet_strictness(sigma, alpha, l, m):
    """Openness flag of one child facet in a signed decomposition step.

    The parent has flags sigma and the new ray w has coefficients alpha
    in the parent's rays (both 1-indexed here).  Child m replaces ray m
    by w; l = 0 addresses the child's facet opposite w, any other l
    addresses the child's facet opposite parent ray l.  The flag depends
    only on the signs of the alphas, the parent flags, and the order of
    l and m, so any positive multiple of alpha serves, such as the
    integer numerators index * alpha that find_w returns; case by case:

      l = 0:                     sign(alpha_m) * sigma_m
      alpha_l = 0:               sigma_l
      alpha_l * alpha_m > 0:     sigma_l if l < m else -sigma_l   (when sigma_l == sigma_m)
                                 sigma_l                          (otherwise)
      alpha_l * alpha_m < 0:     sigma_l                          (when sigma_l == sigma_m)
                                 sigma_l if l < m else sigma_m

    Each line is the sign of an exact scalar product against a common
    reference point placed just inside the kept region, with ties broken
    by an infinitesimal that favors lower indices; the table only reads
    off those signs.
    """
    am = alpha[m - 1]
    if am == 0:
        raise ValueError("alpha_m must be nonzero")
    sm = sigma[m - 1]
    if l == 0:
        return sm if am > 0 else -sm
    al = alpha[l - 1]
    sl = sigma[l - 1]
    if al == 0:
        return sl
    if (al > 0) == (am > 0):
        if sl == sm:
            return sl if l < m else -sl
        return sl
    if sl == sm:
        return sl
    return sl if l < m else sm


def _int_root(n: int, d: int) -> int:
    """Largest r with r**d <= n, for n >= 1 and d >= 1.

    Integer Newton iteration from 2^ceil(bits / d) > n^(1/d): the
    iterates fall strictly while r**d > n and never drop below the root.
    """
    r = 1 << -(-n.bit_length() // d)
    while True:
        s = ((d - 1) * r + n // r ** (d - 1)) // d
        if s >= r:
            return r
        r = s


def find_w(cone: SimplicialCone):
    """A short auxiliary ray for one signed decomposition step.

    Returns (w, num) with w a primitive integer vector and num = index *
    alpha the integer numerators of its coefficients alpha in the cone's
    rays, num_j = -normals[j] . w.  Every nonzero |alpha_i| < 1 (so all
    children have strictly smaller index), and not all nonzero alphas
    are negative.

    With R the matrix whose rows are the rays, alpha = w R^-1, so the
    alphas form the lattice spanned by the rows of R^-1.  Scaled by the
    cone's index = |det R| it is the integer lattice of the rows of
    sign(det R) adj(R), which is the transpose of -cone.normals; an
    integral LLL reduces it with a unimodular transform U, and no matrix
    is inverted here.  Each c in {-1, 0, 1}^d gives the candidate w = c U,
    whose alpha numerators over index are c times the reduced rows, so
    candidates are scored in integers.  c and -c give w and -w, one
    candidate up to sign, so only the (3^d - 1) / 2 classes with first
    nonzero entry +1 are scored, each turned to the sign that the full
    search would keep.  If none beats norm 1, an exhaustive box search
    finishes the job (one always exists).  Deterministic: minimal
    sup-norm, ties by lexicographic order.
    """
    rays, index = cone.rays, cone.index
    d = len(rays)
    if index <= 1:
        raise ValueError("cone index must exceed 1")
    outer = [[-x for x in n] for n in cone.normals]  # columns of index * R^-1
    reduced, U = lll_reduce([list(col) for col in zip(*outer)])

    def admissible(pairs):
        """(sup-norm numerator, w, numerators) of each admissible pair.

        w is made primitive and turned so that some alpha is positive;
        the division is exact because num = w (index R^-1).
        """
        for w, num in pairs:
            g = gcd(*w)
            if g > 1:
                w = tuple(x // g for x in w)
                num = tuple(a // g for a in num)
            if all(a <= 0 for a in num):
                w = tuple(-x for x in w)
                num = tuple(-a for a in num)
            top = max(abs(a) for a in num)
            if top < index:
                yield top, w, num

    # c and -c give (w, num) and (-w, -num), one candidate up to sign, so
    # only c whose first nonzero entry is +1 is scored: c = e_k + t, with
    # t any {-1, 0, 1} combination of rows k+1 .. d-1, kept as (t U, t
    # reduced).  w = c U is primitive already, since c is and U is
    # unimodular.
    best = None
    tails = [((0,) * d, (0,) * d)]
    for k in range(d - 1, -1, -1):
        u, r = U[k], reduced[k]
        for tw, tn in tails:
            num = tuple(map(add, r, tn))
            hi, lo = max(num), min(num)
            top = hi if hi > -lo else -lo
            if top >= index:
                continue
            w = tuple(map(add, u, tw))
            minus_w = tuple(map(neg, w))
            # all alphas <= 0, or mixed signs and -w lexicographically smaller
            if hi <= 0 or (lo < 0 and minus_w < w):
                w, num = minus_w, tuple(map(neg, num))
            if best is None or (top, w) < best[:2]:
                best = (top, w, num)
        if k:
            tails += [(tuple(map(f, tw, u)), tuple(map(f, tn, r)))
                      for f in (add, sub) for tw, tn in tails]

    if best is None:
        r = _int_root(index, d)
        bounds = [sum(abs(x) for x in col) for col in zip(*rays)]
        ranges = [range(-((s + r - 1) // r), (s + r - 1) // r + 1) for s in bounds]
        box = ((w, tuple(dot(col, w) for col in outer))
               for w in product(*ranges) if any(w))
        best = min(admissible(box), default=None)

    if best is None:
        raise RuntimeError("no admissible ray found")  # impossible for index > 1
    _, w, num = best
    return w, num


def decompose_step(cone: HalfOpenCone, w, num):
    """One level of signed decomposition: the children replacing each ray.

    (w, num) is find_w's result for the base cone: num = index * alpha,
    with num_j = -normals[j] . w.  Child m swaps ray m for w and inherits
    sign(alpha_m); children with alpha_m = 0 vanish.  Facet flags follow
    facet_strictness, so the signed sum of the children equals the
    parent exactly.  Each child gets its normals and index from the
    parent's by one exact integer rank-one update
    (SimplicialCone._with_ray), with no elimination.
    """
    base = cone.base
    d = len(base.rays)
    children = []
    for m in range(1, d + 1):
        am = num[m - 1]
        if am == 0:
            continue
        eps = 1 if am > 0 else -1
        sigma = tuple(facet_strictness(cone.sigma, num, 0 if j == m - 1 else j + 1, m)
                      for j in range(d))
        child = HalfOpenCone(base=base._with_ray(m - 1, w, num), sigma=sigma)
        children.append((eps, child))
    return children


def _check_max_index(max_index):
    """Raise ValueError unless max_index, the index at which decomposing
    stops, is at least 1; counting calls it before any other work."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")


def signed_decompose(cone, max_index: int = 1, stats=None):
    """Decompose a cone into low-index half-open cones, signed.

    cone is a HalfOpenCone, or a ClosedCone, which halfopen_triangulate
    first partitions into half-open pieces.  Recursion stops once a
    cone's index is at most max_index.  The leaves of each piece come in
    canonical order, concatenated piece by piece.  The result is exact:
    for every point x, the signed count of containing leaves equals 1 or
    0 according to membership in the input cone.  When stats is a dict
    it receives max_depth, num_cones and the (parent, child) index pairs
    of every split.
    """
    _check_max_index(max_index)
    pieces = halfopen_triangulate(cone) if isinstance(cone, ClosedCone) else [cone]
    terms = []
    max_depth = 0
    for piece in pieces:
        leaves = []
        stack = [(1, piece, 0)]
        while stack:
            eps, current, depth = stack.pop()
            max_depth = max(max_depth, depth)
            if current.index <= max_index:
                leaves.append((eps, current))
                continue
            w, num = find_w(current.base)
            for ceps, child in decompose_step(current, w, num):
                if stats is not None:
                    stats.setdefault("splits", []).append((current.index, child.index))
                stack.append((eps * ceps, child, depth + 1))
        terms.extend(sorted(leaves, key=lambda t: (t[0], t[1].base.rays, t[1].sigma)))
    if stats is not None:
        stats["max_depth"] = max(stats.get("max_depth", 0), max_depth)
        stats["num_cones"] = stats.get("num_cones", 0) + len(terms)
    return SignedConeSum(terms=tuple(terms))
