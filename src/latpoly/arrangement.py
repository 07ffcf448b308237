"""Exact planar arrangements of oriented axis-parallel segments.

Everything is integer arithmetic.  Sample points live on the doubled grid
(coordinates multiplied by two), so midpoints of cells and of segment gaps
are exact integers that never collide with input coordinates.

A segment system has one index, ``segments_by_line``: each coordinate
line's segments as sorted ``(lo, hi, dir, curve, seg)`` entries.  A dotted
graph's geometry keeps it to find its crossings and to locate points on
its curves; an ``Arrangement`` is built from it and keeps no copy.

The plane is cut into open cells by the coordinate lines through all
segment endpoints.  One sweep right to left over the vertical segments
gives each column of cells its winding numbers, as the running sum of the
segments crossed so far (the ray cast of ``winding_2x``), and marks the
vertical cell borders they cover; one pass over the horizontal segments
marks the horizontal borders.  Faces are the unions of cells glued across
unmarked borders, numbered in the order of their least cell.

The segments must form closed curves with no collinear overlaps, as
validated dotted graphs and polytope boundaries do.  The winding number
then changes by one across every covered border, so two side-by-side
cells lie in one face exactly when no segment covers the border between
them: face membership answers adjacency, and no border test is kept.
Cells of one face must agree on their winding, and the unbounded face
must be unique with winding 0 (``InvalidGraph`` otherwise).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import errors

Pt = tuple[int, int]
Seg = tuple[Pt, Pt]


def segments_by_line(curves) -> tuple[dict[int, list], dict[int, list]]:
    """The segments of a system, indexed by coordinate line.

    ``curves`` is a sequence of segment sequences; entry ``seg`` of item
    ``curve`` is the directed segment ``((x1, y1), (x2, y2))``, axis-parallel
    and of nonzero length.  Returns x -> the vertical segments on line x and
    y -> the horizontal ones on line y, each list sorted, as entries
    ``(lo, hi, dir, curve, seg)``: the segment's extent along its line and
    ``dir`` +1 when it runs up or right, -1 when it runs down or left.
    """
    v_by_x: dict[int, list] = {}
    h_by_y: dict[int, list] = {}
    for ci, segs in enumerate(curves):
        for si, ((x1, y1), (x2, y2)) in enumerate(segs):
            if x1 == x2:
                entry = (y1, y2, 1, ci, si) if y1 < y2 else (y2, y1, -1, ci, si)
                v_by_x.setdefault(x1, []).append(entry)
            else:
                entry = (x1, x2, 1, ci, si) if x1 < x2 else (x2, x1, -1, ci, si)
                h_by_y.setdefault(y1, []).append(entry)
    for by_line in (v_by_x, h_by_y):
        for entries in by_line.values():
            entries.sort()
    return v_by_x, h_by_y


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


def _sample2(lines: list[int], k: int) -> int:
    """Doubled coordinate inside the k-th gap of sorted grid lines."""
    if not lines:
        return 0
    if k == 0:
        return 2 * lines[0] - 2
    if k == len(lines):
        return 2 * lines[-1] + 2
    return lines[k - 1] + lines[k]


@dataclass(frozen=True)
class Face:
    index: int
    omega: int
    area: int                 # total area of the finite cells of the face
    unbounded: bool
    sample2: Pt               # doubled coordinates of one interior point


class Arrangement:
    """Cell/face decomposition of the plane induced by a segment system."""

    def __init__(self, v_by_x: dict[int, list], h_by_y: dict[int, list]):
        """Build from a system's ``segments_by_line`` index."""
        xs = set(v_by_x)
        ys = set(h_by_y)
        for lines, by_line in ((ys, v_by_x), (xs, h_by_y)):
            for entries in by_line.values():
                for lo, hi, _, _, _ in entries:
                    lines.update((lo, hi))
        self.xs = sorted(xs)
        self.ys = sorted(ys)
        self._build(v_by_x, h_by_y)

    # -- construction --------------------------------------------------

    def _build(self, v_by_x: dict[int, list], h_by_y: dict[int, list]) -> None:
        # cell i = c * nrow + r is column c, row r; line xs[c] is the right
        # border of column c and line ys[r] the top border of row r
        ncol = len(self.xs) + 1
        nrow = len(self.ys) + 1
        row = {y: r for r, y in enumerate(self.ys)}
        covered_right = bytearray(ncol * nrow)
        covered_above = bytearray(ncol * nrow)
        run = [0] * nrow
        omegas = [run] * ncol
        for c in range(ncol - 2, -1, -1):
            verticals = v_by_x.get(self.xs[c])
            if verticals:
                run = run[:]
                for lo, hi, d, _, _ in verticals:
                    r0, r1 = row[lo] + 1, row[hi] + 1
                    for r in range(r0, r1):
                        run[r] += d
                    covered_right[c * nrow + r0:c * nrow + r1] = b"\x01" * (r1 - r0)
            omegas[c] = run
        col = {x: c for c, x in enumerate(self.xs)}
        for y, horizontals in h_by_y.items():
            for lo, hi, _, _, _ in horizontals:
                c0, c1 = col[lo] + 1, col[hi] + 1
                covered_above[c0 * nrow + row[y]:c1 * nrow:nrow] = b"\x01" * (c1 - c0)

        # union-find over cells, glued across uncovered borders
        parent = list(range(ncol * nrow))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range((ncol - 1) * nrow):
            if not covered_right[i]:
                parent[find(i + nrow)] = find(i)
        for i in range(ncol * nrow):
            if not covered_above[i] and i % nrow != nrow - 1:
                parent[find(i + 1)] = find(i)

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
                if omegas[c][r] != om:
                    raise errors.InvalidGraph("winding not constant on a face")
                infinite = c == 0 or c == ncol - 1 or r == 0 or r == nrow - 1
                if infinite:
                    unbounded = True
                else:
                    area += (self.xs[c] - self.xs[c - 1]) * (self.ys[r] - self.ys[r - 1])
                    if sample2 is None:
                        sample2 = (_sample2(self.xs, c), _sample2(self.ys, r))
                self._cell_face[i] = idx
            if sample2 is None:
                sample2 = (_sample2(self.xs, c0), _sample2(self.ys, r0))
            faces.append(Face(idx, om, area, unbounded, sample2))
        self.faces = faces
        unb = [f for f in faces if f.unbounded]
        if len(unb) != 1:
            raise errors.InvalidGraph("unbounded face must be unique")
        if unb[0].omega != 0:
            raise errors.InvalidGraph("unbounded face must have winding 0")
        self.unbounded_face = unb[0].index

    # -- queries ---------------------------------------------------------

    def face_of_cell(self, cell: tuple[int, int]) -> int:
        c, r = cell
        return self._cell_face[c * self._nrow + r]

    def cells_by_face(self) -> list[frozenset[tuple[int, int]]]:
        """The (column, row) cells of every face, by face index."""
        cells: list[list[tuple[int, int]]] = [[] for _ in self.faces]
        for i, face in enumerate(self._cell_face):
            cells[face].append(divmod(i, self._nrow))
        return [frozenset(c) for c in cells]

    def face_of_2x(self, p2: Pt) -> int:
        """Face of the cell holding a doubled-grid point (x2, y2).

        The column is the number of grid lines x with 2 * x < x2, that is
        x < (x2 + 1) // 2; rows alike.  A point on a grid line counts to the
        cell left of or below it; odd coordinates, as in face samples and
        crossing quadrants, are interior to their cell."""
        return self.face_of_cell((bisect_left(self.xs, (p2[0] + 1) // 2),
                                  bisect_left(self.ys, (p2[1] + 1) // 2)))

    def cell_bounds(self, cell: tuple[int, int]) -> tuple[int | None, int | None, int | None, int | None]:
        """(xlo, xhi, ylo, yhi) of a cell; None marks an unbounded side."""
        c, r = cell
        xlo = self.xs[c - 1] if c > 0 else None
        xhi = self.xs[c] if c < len(self.xs) else None
        ylo = self.ys[r - 1] if r > 0 else None
        yhi = self.ys[r] if r < len(self.ys) else None
        return xlo, xhi, ylo, yhi
