"""Exact model of point configurations, rectangle moves, lattice polytopes
and the two area functionals.

Coordinates are integers throughout, so every area and winding number is
exact.  A lattice polytope is just the pair of its initial and terminal
vertex configurations; edges, boundary cycles and regions are derived.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from . import errors
from .arrangement import Seg


class GridPoint(NamedTuple):
    """A lattice point: an ``(x, y)`` tuple with named coordinates, so it
    can stand wherever a ``Pt`` tuple does."""
    x: int
    y: int

    __repr__ = tuple.__repr__


def P(x: int, y: int) -> GridPoint:
    """Shorthand constructor used heavily in tests."""
    return GridPoint(x, y)


def grid_point(p) -> GridPoint:
    """Parse an input point.  Raises TypeError unless ``p`` has exactly two
    coordinates, each an ``int`` (so not a ``bool`` or a ``float``)."""
    try:
        x, y = p
    except (TypeError, ValueError):
        raise TypeError(f"a point needs exactly two coordinates: {p!r}") from None
    if type(x) is not int or type(y) is not int:
        raise TypeError(f"point coordinates must be integers: {p!r}")
    return p if type(p) is GridPoint else GridPoint(x, y)


@dataclass(frozen=True)
class PointConfig:
    """A finite point set with pairwise-distinct x's and pairwise-distinct y's."""

    points: frozenset[GridPoint]

    @staticmethod
    def of(points) -> "PointConfig":
        pts = frozenset(map(grid_point, points))
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        if len(set(xs)) != len(xs):
            raise errors.DuplicateComponent(f"repeated x-component in {sorted(pts)}")
        if len(set(ys)) != len(ys):
            raise errors.DuplicateComponent(f"repeated y-component in {sorted(pts)}")
        return PointConfig(pts)

    def __iter__(self):
        return iter(sorted(self.points))

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: GridPoint) -> bool:
        return p in self.points

    def by_x(self) -> dict[int, GridPoint]:
        return {p.x: p for p in self.points}

    def by_y(self) -> dict[int, GridPoint]:
        return {p.y: p for p in self.points}


@dataclass(frozen=True)
class Rect:
    """A rectangle named by one diagonal pair of corners."""

    v: GridPoint
    w: GridPoint

    def __post_init__(self):
        if self.v.x == self.w.x or self.v.y == self.w.y:
            raise errors.DegenerateRectangle(f"degenerate rectangle {self.v}..{self.w}")

    def other_diagonal(self) -> tuple[GridPoint, GridPoint]:
        return GridPoint(self.w.x, self.v.y), GridPoint(self.v.x, self.w.y)

    def bounds(self) -> tuple[int, int, int, int]:
        return (min(self.v.x, self.w.x), max(self.v.x, self.w.x),
                min(self.v.y, self.w.y), max(self.v.y, self.w.y))


def rect_area_signed(r: Rect) -> int:
    """Signed area (x(w)-x(v))*(y(w)-y(v)); symmetric in the diagonal pair."""
    return (r.w.x - r.v.x) * (r.w.y - r.v.y)


def rect_transform(delta: PointConfig, v: GridPoint, w: GridPoint) -> PointConfig:
    """Replace the diagonal pair {v, w} by the opposite diagonal of R(v, w).

    The new pair uses the x's and the y's of the old one, so the x's and
    the y's stay pairwise distinct and the result needs no re-validation."""
    if v not in delta or w not in delta:
        raise errors.NotInConfig(f"{v} or {w} not in configuration")
    if v == w or v.x == w.x or v.y == w.y:
        raise errors.DegenerateRectangle(f"degenerate rectangle {v}..{w}")
    vt = GridPoint(w.x, v.y)
    wt = GridPoint(v.x, w.y)
    return PointConfig((delta.points - {v, w}) | {vt, wt})


@dataclass(frozen=True)
class LatticePolytope:
    """The pair (Ver0, Ver1); every geometric feature is derived from it."""

    ver0: PointConfig
    ver1: PointConfig


def validate_polytope(ver0, ver1) -> LatticePolytope:
    """Check the pairing conditions and return the polytope.

    x-edges join the unique initial/terminal vertices sharing a y-value and
    run initial -> terminal; y-edges join vertices sharing an x-value and
    run terminal -> initial.  Points in both configurations are isolated.
    """
    c0 = ver0 if isinstance(ver0, PointConfig) else PointConfig.of(ver0)
    c1 = ver1 if isinstance(ver1, PointConfig) else PointConfig.of(ver1)
    if {p.x for p in c0.points} != {p.x for p in c1.points}:
        raise errors.MismatchedComponents("x-components of Ver0 and Ver1 differ")
    if {p.y for p in c0.points} != {p.y for p in c1.points}:
        raise errors.MismatchedComponents("y-components of Ver0 and Ver1 differ")
    return LatticePolytope(c0, c1)


def isolated_vertices(p: LatticePolytope) -> frozenset[GridPoint]:
    return p.ver0.points & p.ver1.points


def x_edges(p: LatticePolytope) -> list[tuple[GridPoint, GridPoint]]:
    """Horizontal edges, oriented initial -> terminal."""
    by_y1 = p.ver1.by_y()
    out = []
    for v in sorted(p.ver0.points):
        w = by_y1[v.y]
        if w != v:
            out.append((v, w))
    return out


def y_edges(p: LatticePolytope) -> list[tuple[GridPoint, GridPoint]]:
    """Vertical edges, oriented terminal -> initial."""
    by_x0 = p.ver0.by_x()
    out = []
    for w in sorted(p.ver1.points):
        v = by_x0[w.x]
        if v != w:
            out.append((w, v))
    return out


def boundary_segments(p: LatticePolytope) -> list[Seg]:
    return x_edges(p) + y_edges(p)


def boundary_cycles(p: LatticePolytope) -> list[list[GridPoint]]:
    """Oriented closed vertex cycles of the boundary (one list per circle)."""
    by_y1 = p.ver1.by_y()
    by_x0 = p.ver0.by_x()
    iso = isolated_vertices(p)
    cycles = []
    seen: set[GridPoint] = set()
    for start in sorted(p.ver0.points):
        if start in iso or start in seen:
            continue
        cyc = []
        v = start
        while True:
            cyc.append(v)
            seen.add(v)
            w = by_y1[v.y]          # x-edge: initial -> terminal
            cyc.append(w)
            v = by_x0[w.x]          # y-edge: terminal -> initial
            if v == start:
                break
        cycles.append(cyc)
    return cycles


def apply_normal(p: LatticePolytope, r: Rect) -> LatticePolytope:
    """Rectangle move on the initial vertices.

    Either diagonal pair of the rectangle may be the one present in Ver0;
    the other pair is what the move inserts.
    """
    v, w = _present_diagonal(p.ver0, r, errors.NotInitialVertices)
    return LatticePolytope(rect_transform(p.ver0, v, w), p.ver1)


def apply_reversed(p: LatticePolytope, r: Rect) -> LatticePolytope:
    """Rectangle move on the terminal vertices."""
    v, w = _present_diagonal(p.ver1, r, errors.NotTerminalVertices)
    return LatticePolytope(p.ver0, rect_transform(p.ver1, v, w))


def _present_diagonal(config: PointConfig, r: Rect, err) -> tuple[GridPoint, GridPoint]:
    if r.v in config and r.w in config:
        return r.v, r.w
    vt, wt = r.other_diagonal()
    if vt in config and wt in config:
        return vt, wt
    raise err(f"neither diagonal of {r.v}..{r.w} lies in the configuration")


# regions and areas ------------------------------------------------------

class LabelGrid(NamedTuple):
    """A polytope's region labels on its compressed coordinate grid.

    Cell (i, j) is the open box between the grid lines ``xs[i]``,
    ``xs[i + 1]`` and ``ys[j]``, ``ys[j + 1]``; ``labels[i][j]`` is the
    boundary's winding number around it.  ``pos`` and ``neg`` are
    summed-area tables (Crow, 1984): ``pos[i][j]`` counts the cells with a
    positive label in columns below i and rows below j, ``neg`` the
    negative ones.  ``col`` and ``row`` map a coordinate to its line."""
    xs: list[int]
    ys: list[int]
    col: dict[int, int]
    row: dict[int, int]
    labels: list[list[int]]
    pos: list[list[int]]
    neg: list[list[int]]

    def uniform(self, v: GridPoint, w: GridPoint, e: int) -> bool:
        """True when every cell of the box with corners v and w has a label
        of sign e; four table reads, whatever the box's size."""
        i0, i1 = self.col[v.x], self.col[w.x]
        j0, j1 = self.row[v.y], self.row[w.y]
        if i0 > i1:
            i0, i1 = i1, i0
        if j0 > j1:
            j0, j1 = j1, j0
        t = self.pos if e > 0 else self.neg
        return t[i1][j1] - t[i0][j1] - t[i1][j0] + t[i0][j0] == (i1 - i0) * (j1 - j0)


def label_grid(p: LatticePolytope) -> LabelGrid:
    """The label grid of p: its cell labels and their summed-area tables."""
    xs, ys, row, labels = _cell_labels(p)
    zero = [0] * max(len(ys), 1)
    pos, neg = [zero], [zero]
    for column in labels:
        pos.append([a + b for a, b in zip(pos[-1], accumulate(
            (lab > 0 for lab in column), initial=0))])
        neg.append([a + b for a, b in zip(neg[-1], accumulate(
            (lab < 0 for lab in column), initial=0))])
    return LabelGrid(xs, ys, {x: i for i, x in enumerate(xs)}, row, labels, pos, neg)


def _cell_labels(p: LatticePolytope):
    """(xs, ys, row, labels) of the label grid, from one right-to-left sweep
    over the vertical edges: a cell's label counts the edges to its right
    that span its row, upward ones +1 and downward ones -1 (the ray cast of
    ``winding_2x``)."""
    ver0, ver1 = sorted(p.ver0.points), sorted(p.ver1.points)   # by x
    xs = [v.x for v in ver0]
    ys = sorted(v.y for v in ver0)
    row = {y: j for j, y in enumerate(ys)}
    run = [0] * max(len(ys) - 1, 0)
    labels = [run] * max(len(xs) - 1, 0)
    for i in range(len(xs) - 2, -1, -1):
        v, w = ver0[i + 1], ver1[i + 1]       # the edge on line xs[i + 1] runs w -> v
        if v != w:
            run = run[:]
            d = 1 if v.y > w.y else -1
            for j in range(min(row[v.y], row[w.y]), max(row[v.y], row[w.y])):
                run[j] += d
        labels[i] = run
    return xs, ys, row, labels


def area_signed(p: LatticePolytope) -> int:
    """Sum of label * area over the cells of the label grid."""
    return _weighted_area(p, int)


def area_abs(p: LatticePolytope) -> int:
    """Sum of |label| * area over the cells of the label grid."""
    return _weighted_area(p, abs)


def _weighted_area(p: LatticePolytope, f) -> int:
    xs, ys, _, labels = _cell_labels(p)
    heights = [b - a for a, b in zip(ys, ys[1:])]
    return sum((xs[i + 1] - xs[i]) * sum(f(lab) * h for lab, h in zip(column, heights))
               for i, column in enumerate(labels))


def shoelace_total(p: LatticePolytope) -> int:
    """Signed area summed over boundary components; an independent route to
    the same number as :func:`area_signed` (used as a cross-check)."""
    total2 = 0
    for cyc in boundary_cycles(p):
        n = len(cyc)
        for i in range(n):
            a, b = cyc[i], cyc[(i + 1) % n]
            total2 += a.x * b.y - b.x * a.y
    if total2 % 2:
        raise errors.InvalidGraph(f"boundary cycles enclose an odd doubled area {total2}")
    return total2 // 2


def plan_cost(rects) -> tuple[int, int]:
    """(sum of signed areas, sum of absolute areas) of a rectangle list."""
    signed = 0
    absolute = 0
    for r in rects:
        a = rect_area_signed(r)
        signed += a
        absolute += abs(a)
    return signed, absolute


def trivial(p: LatticePolytope) -> bool:
    """True when every vertex is isolated (Ver0 equals Ver1 pointwise)."""
    return p.ver0.points == p.ver1.points
