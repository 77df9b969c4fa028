"""Brute-force ground truth: direct lattice scans.

Everything here is deliberately simple so it can serve as an independent
reference for the algebraic counting pipeline.  Not built for speed.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor

from .errors import OracleTooLargeError, UnboundedError
from .linalg import dot
from .lp import coordinate_range, lp_feasible
from .polytope import HPolytope

DEFAULT_CAP = 10 ** 8


@dataclass(frozen=True)
class Box:
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def volume(self) -> int:
        v = 1
        for l, u in zip(self.lower, self.upper):
            v *= u - l + 1
        return v


def bounding_box(P: HPolytope):
    """Smallest integer box containing P, or None when P is empty.

    Raises UnboundedError when P has no rows, or (via the coordinate
    LPs) when some coordinate is unbounded over P.
    """
    if not P.A:
        raise UnboundedError("polyhedron unbounded")
    if not lp_feasible(P.A, P.b):
        return None
    lower, upper = [], []
    for j in range(P.dim):
        lo, hi = coordinate_range(P.A, P.b, j)
        if lo is None or hi is None:
            raise UnboundedError("polyhedron unbounded")
        lower.append(ceil(lo))
        upper.append(floor(hi))
    if any(l > u for l, u in zip(lower, upper)):
        return None  # nonempty but holds no integer point candidates
    return Box(lower=tuple(lower), upper=tuple(upper))


def _last_coordinate_count(A, b, prefix):
    """Number of integers z with (prefix, z) feasible, by interval arithmetic."""
    lo, hi = None, None
    for row, rhs in zip(A, b):
        c = row[-1]
        rest = rhs - dot(row[:-1], prefix)
        if c == 0:
            if rest < 0:
                return 0
            continue
        bound = Fraction(rest, c)
        if c > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    if lo is None or hi is None:
        raise ValueError("last coordinate unbounded")
    lo_i, hi_i = ceil(lo), floor(hi)
    return max(0, hi_i - lo_i + 1)


def brute_count(P: HPolytope, cap: int = DEFAULT_CAP) -> int:
    """Exact |P intersect Z^d| by exhaustive scan over the bounding box.

    The innermost coordinate is resolved by interval arithmetic instead
    of looping.  Boxes with volume above cap raise OracleTooLargeError.
    """
    box = bounding_box(P)
    if box is None:
        return 0
    if box.volume > cap:
        raise OracleTooLargeError("oracle too large")
    d = P.dim
    if d == 1:
        return _last_coordinate_count(P.A, P.b, ())
    total = 0
    for prefix in product(*(range(l, u + 1)
                            for l, u in zip(box.lower[:-1], box.upper[:-1]))):
        total += _last_coordinate_count(P.A, P.b, prefix)
    return total
