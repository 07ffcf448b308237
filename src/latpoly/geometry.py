"""Exact model of point configurations, rectangle moves, lattice polytopes
and the two area functionals.

Coordinates are integers throughout, so every area and winding number is
exact.  A lattice polytope is just the pair of its initial and terminal
vertex configurations; edges, boundary cycles and regions are derived.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import errors
from .arrangement import Arrangement, Seg


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
    """Replace the diagonal pair {v, w} by the opposite diagonal of R(v, w)."""
    if v not in delta or w not in delta:
        raise errors.NotInConfig(f"{v} or {w} not in configuration")
    if v == w or v.x == w.x or v.y == w.y:
        raise errors.DegenerateRectangle(f"degenerate rectangle {v}..{w}")
    vt = GridPoint(w.x, v.y)
    wt = GridPoint(v.x, w.y)
    return PointConfig.of((delta.points - {v, w}) | {vt, wt})


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
    p = LatticePolytope(c0, c1)
    _check_transverse(p)
    return p


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


def _check_transverse(p: LatticePolytope) -> None:
    """Reject T-junctions: an endpoint interior to a perpendicular edge.

    The pairing rules make such configurations impossible for valid input,
    but the check is kept as a cheap guard.
    """
    hs = x_edges(p)
    vs = y_edges(p)
    for a, b in hs:
        y = a.y
        lo, hi = sorted((a.x, b.x))
        for c, d in vs:
            x = c.x
            vlo, vhi = sorted((c.y, d.y))
            for q in (c, d):
                if q.y == y and lo < q.x < hi:
                    raise errors.NonTransverse(f"endpoint {q} inside edge {(a, b)}")
            for q in (a, b):
                if q.x == x and vlo < q.y < vhi:
                    raise errors.NonTransverse(f"endpoint {q} inside edge {(c, d)}")


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

@dataclass(frozen=True)
class Region:
    omega: int
    area: int             # finite part only; exact for bounded regions
    unbounded: bool
    sample2: tuple[int, int]


@dataclass(frozen=True)
class RegionDecomposition:
    regions: tuple[Region, ...]


@lru_cache(maxsize=8192)
def _arrangement(p: LatticePolytope) -> Arrangement:
    return Arrangement(boundary_segments(p))


def region_decomposition(p: LatticePolytope) -> RegionDecomposition:
    arr = _arrangement(p)
    regions = tuple(Region(f.omega, f.area, f.unbounded, f.sample2)
                    for f in sorted(arr.faces, key=lambda f: f.sample2))
    return RegionDecomposition(regions)


def area_signed(p: LatticePolytope) -> int:
    """Sum of winding * area over the regions of the boundary arrangement."""
    return sum(f.omega * f.area for f in _arrangement(p).faces if not f.unbounded)


def area_abs(p: LatticePolytope) -> int:
    """Sum of |winding * area| over the regions."""
    return sum(abs(f.omega) * f.area for f in _arrangement(p).faces if not f.unbounded)


def shoelace_total(p: LatticePolytope) -> int:
    """Signed area summed over boundary components; an independent route to
    the same number as :func:`area_signed` (used as a cross-check)."""
    total2 = 0
    for cyc in boundary_cycles(p):
        n = len(cyc)
        for i in range(n):
            a, b = cyc[i], cyc[(i + 1) % n]
            total2 += a.x * b.y - b.x * a.y
    assert total2 % 2 == 0
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
