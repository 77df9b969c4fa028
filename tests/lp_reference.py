"""The LP routes of the chamber setup, kept as the tests' reference.

parametric reads cell splits and facet rows off the generators of
homogenized cones; these routines answer the same questions with the
exact simplex.  They call lp.lp_maximize through the module, so a test
that patches it sees every LP they run.
"""

from fractions import Fraction

from primalcount import lp, parametric
from primalcount.halfopen import HalfOpenPolyhedron
from primalcount.polytope import _generators


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
        status, value, _ = lp.lp_maximize(list(g), test_A, test_b)
        if status == lp.OPTIMAL and value <= h:
            kept.pop(i)
        else:
            i += 1
    return [list(g) for g, _ in kept], [h for _, h in kept]


def region_reference(rows, generators, p):
    """parametric._region by remove_redundant, ignoring the generators."""
    return HalfOpenPolyhedron.from_inequalities(
        *remove_redundant([g for g, _ in rows], [h for _, h in rows]))


def cells_and_sides_reference(base, hyperplanes, interior_point=None):
    """The split loop with both interior_point LPs at every split: each
    cell with the mask of the hyperplanes whose g . q <= h side holds it,
    the side whose LP found the cell full-dimensional."""
    interior_point = interior_point or lp.interior_point

    def full(rows):
        return interior_point([g for g, _ in rows], [h for _, h in rows]) is not None

    if base and not full(base):
        return []
    cells = [(base, 0)]
    for j, (g, h) in enumerate(hyperplanes):
        next_cells = []
        for cell, side in cells:
            low = cell + [(g, h)]
            high = cell + [(tuple(-x for x in g), -h)]
            low_full = full(low)
            if low_full and full(high):
                next_cells.append((low, side | 1 << j))
                next_cells.append((high, side))
            else:
                next_cells.append((cell, side | 1 << j if low_full else side))
        cells = next_cells
    return cells


def cells_reference(base, hyperplanes, interior_point=None):
    """The rows of the cells of cells_and_sides_reference."""
    return [cell for cell, _ in
            cells_and_sides_reference(base, hyperplanes, interior_point)]


def cells_with_generators(base, qdim, hyperplanes, interior_point=None):
    """parametric._arrangement_cells by cells_and_sides_reference: each
    cell with the generators of its homogenized cone, built from its
    rows, and its side mask."""
    return [(cell, _generators(parametric._homogenized_rows(cell, qdim)), side)
            for cell, side in
            cells_and_sides_reference(base, hyperplanes, interior_point)]


def lp_route(monkeypatch):
    """Make parametric split cells and prune rows by these LPs."""
    monkeypatch.setattr(parametric, "_arrangement_cells", cells_with_generators)
    monkeypatch.setattr(parametric, "_region", region_reference)
