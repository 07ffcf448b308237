"""Exact planar arrangements of oriented axis-parallel segments.

Everything is integer arithmetic.  Sample points live on the doubled grid
(coordinates multiplied by two), so midpoints of cells and of segment gaps
are exact integers that never collide with input coordinates.

The plane is cut into open cells by the coordinate lines through all
segment endpoints.  Faces of the arrangement are unions of cells glued
across cell borders not covered by a segment.  Each face carries the
winding number of the oriented segment system around any of its points;
cells of one face always agree (``InvalidGraph`` otherwise).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from . import errors

Pt = tuple[int, int]
Seg = tuple[Pt, Pt]


def seg_axis(seg: Seg) -> str:
    (x1, y1), (x2, y2) = seg
    if y1 == y2 and x1 != x2:
        return "h"
    if x1 == x2 and y1 != y2:
        return "v"
    raise ValueError(f"segment is not axis-parallel and nondegenerate: {seg}")


def winding_2x(point2: Pt, segs: list[Seg]) -> int:
    """Winding number of the segment system around a doubled-grid point.

    Casts a ray in +x and counts signed crossings of vertical segments:
    upward segments to the right contribute +1, downward -1.  The point
    must not lie on any segment (doubled coordinates make that automatic
    when at least one of its coordinates is odd).
    """
    px2, py2 = point2
    w = 0
    for (x1, y1), (x2, y2) in segs:
        if x1 != x2:
            continue
        lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
        if 2 * lo < py2 < 2 * hi and 2 * x1 > px2:
            w += 1 if y2 > y1 else -1
    return w


@dataclass(frozen=True)
class Face:
    index: int
    omega: int
    area: int                 # total area of the finite cells of the face
    unbounded: bool
    sample2: Pt               # doubled coordinates of one interior point


class Arrangement:
    """Cell/face decomposition of the plane induced by a segment system.

    With ``face_winding=False`` the input need not be a union of closed
    curves; face omegas are then meaningless and left unchecked.
    """

    def __init__(self, segs: list[Seg], face_winding: bool = True):
        self.face_winding = face_winding
        xs: set[int] = set()
        ys: set[int] = set()
        self._v_by_x: dict[int, list[tuple[int, int, int]]] = {}  # x -> (lo,hi,dir)
        self._h_by_y: dict[int, list[tuple[int, int, int]]] = {}
        for seg in segs:
            (x1, y1), (x2, y2) = seg
            xs.update((x1, x2))
            ys.update((y1, y2))
            if seg_axis(seg) == "v":
                lo, hi = sorted((y1, y2))
                self._v_by_x.setdefault(x1, []).append((lo, hi, 1 if y2 > y1 else -1))
            else:
                lo, hi = sorted((x1, x2))
                self._h_by_y.setdefault(y1, []).append((lo, hi, 1 if x2 > x1 else -1))
        self.xs = sorted(xs)
        self.ys = sorted(ys)
        self._build()

    # -- construction --------------------------------------------------

    def _col_sample2(self, c: int) -> int:
        xs = self.xs
        if not xs:
            return 0
        if c == 0:
            return 2 * xs[0] - 2
        if c == len(xs):
            return 2 * xs[-1] + 2
        return xs[c - 1] + xs[c]

    def _row_sample2(self, r: int) -> int:
        ys = self.ys
        if not ys:
            return 0
        if r == 0:
            return 2 * ys[0] - 2
        if r == len(ys):
            return 2 * ys[-1] + 2
        return ys[r - 1] + ys[r]

    def _build(self) -> None:
        ncol = len(self.xs) + 1
        nrow = len(self.ys) + 1
        # winding per cell, one pass per row using suffix sums
        verticals = []  # (x, lo, hi, d)
        for x, items in self._v_by_x.items():
            for lo, hi, d in items:
                verticals.append((x, lo, hi, d))
        omegas = [[0] * nrow for _ in range(ncol)]
        for r in range(nrow):
            sy2 = self._row_sample2(r)
            hits = sorted((2 * x, d) for x, lo, hi, d in verticals
                          if 2 * lo < sy2 < 2 * hi)
            suffix = [0] * (len(hits) + 1)
            for i in range(len(hits) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + hits[i][1]
            hx = [h[0] for h in hits]
            for c in range(ncol):
                sx2 = self._col_sample2(c)
                omegas[c][r] = suffix[bisect_right(hx, sx2)]

        # union-find over cells
        parent = list(range(ncol * nrow))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        def cid(c: int, r: int) -> int:
            return c * nrow + r

        for c in range(ncol - 1):
            x = self.xs[c]
            covers = sorted(self._v_by_x.get(x, ()))
            for r in range(nrow):
                if 1 <= r <= nrow - 2:
                    lo, hi = self.ys[r - 1], self.ys[r]
                    if any(slo <= lo and hi <= shi for slo, shi, _ in covers):
                        continue
                union(cid(c, r), cid(c + 1, r))
        for r in range(nrow - 1):
            y = self.ys[r]
            covers = sorted(self._h_by_y.get(y, ()))
            for c in range(ncol):
                if 1 <= c <= ncol - 2:
                    lo, hi = self.xs[c - 1], self.xs[c]
                    if any(slo <= lo and hi <= shi for slo, shi, _ in covers):
                        continue
                union(cid(c, r), cid(c, r + 1))

        # cell i is (c, r) = divmod(i, nrow); scanning i in order meets each
        # face first at its smallest cell, which fixes the face order
        self._nrow = nrow
        groups: dict[int, list[int]] = {}
        for i in range(ncol * nrow):
            groups.setdefault(find(i), []).append(i)

        faces: list[Face] = []
        self._cell_face = [0] * (ncol * nrow)
        for cells in groups.values():
            idx = len(faces)
            c0, r0 = divmod(cells[0], nrow)
            om = omegas[c0][r0]
            unbounded = False
            area = 0
            sample2 = None
            for i in cells:
                c, r = divmod(i, nrow)
                if self.face_winding and omegas[c][r] != om:
                    raise errors.InvalidGraph("winding not constant on a face")
                infinite = c == 0 or c == ncol - 1 or r == 0 or r == nrow - 1
                if infinite:
                    unbounded = True
                else:
                    area += (self.xs[c] - self.xs[c - 1]) * (self.ys[r] - self.ys[r - 1])
                    if sample2 is None:
                        sample2 = (self._col_sample2(c), self._row_sample2(r))
                self._cell_face[i] = idx
            if sample2 is None:
                sample2 = (self._col_sample2(c0), self._row_sample2(r0))
            faces.append(Face(idx, om, area, unbounded, sample2))
        self.faces = faces
        unb = [f for f in faces if f.unbounded]
        if len(unb) != 1:
            raise errors.InvalidGraph("unbounded face must be unique")
        if self.face_winding and unb[0].omega != 0:
            raise errors.InvalidGraph("unbounded face must have winding 0")
        self.unbounded_face = unb[0].index

    # -- queries ---------------------------------------------------------

    def face_of_cell(self, cell: tuple[int, int]) -> int:
        c, r = cell
        return self._cell_face[c * self._nrow + r]

    def face_cells(self, f: int) -> set[tuple[int, int]]:
        """The (column, row) cells of face f."""
        nrow = self._nrow
        return {divmod(i, nrow) for i, face in enumerate(self._cell_face) if face == f}

    def face_of_2x(self, p2: Pt) -> int:
        """Face of the cell holding a doubled-grid point (x2, y2).

        The column is the number of grid lines x with 2 * x < x2, that is
        x < (x2 + 1) // 2; rows alike.  A point on a grid line counts to the
        cell left of or below it; odd coordinates, as in face samples and
        crossing quadrants, are interior to their cell."""
        return self.face_of_cell((bisect_left(self.xs, (p2[0] + 1) // 2),
                                  bisect_left(self.ys, (p2[1] + 1) // 2)))

    def on_any_segment(self, p: Pt) -> bool:
        x, y = p
        for lo, hi, _ in self._v_by_x.get(x, ()):
            if lo <= y <= hi:
                return True
        for lo, hi, _ in self._h_by_y.get(y, ()):
            if lo <= x <= hi:
                return True
        return False

    def cell_bounds(self, cell: tuple[int, int]) -> tuple[int | None, int | None, int | None, int | None]:
        """(xlo, xhi, ylo, yhi) of a cell; None marks an unbounded side."""
        c, r = cell
        xlo = self.xs[c - 1] if c > 0 else None
        xhi = self.xs[c] if c < len(self.xs) else None
        ylo = self.ys[r - 1] if r > 0 else None
        yhi = self.ys[r] if r < len(self.ys) else None
        return xlo, xhi, ylo, yhi

    def cells_adjacent(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """True if the shared border of two side-by-side cells is uncovered."""
        (c1, r1), (c2, r2) = a, b
        if abs(c1 - c2) + abs(r1 - r2) != 1:
            return False
        if r1 == r2:
            c = min(c1, c2)
            if r1 == 0 or r1 == len(self.ys):
                return True
            x = self.xs[c]
            lo, hi = self.ys[r1 - 1], self.ys[r1]
            return not any(slo <= lo and hi <= shi for slo, shi, _ in self._v_by_x.get(x, ()))
        r = min(r1, r2)
        if c1 == 0 or c1 == len(self.xs):
            return True
        y = self.ys[r]
        lo, hi = self.xs[c1 - 1], self.xs[c1]
        return not any(slo <= lo and hi <= shi for slo, shi, _ in self._h_by_y.get(y, ()))
