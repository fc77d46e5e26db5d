"""Polygon primitives: rings, polygons with holes, and multipolygons.

Rings store their vertices both as Python tuples (for exact iteration) and
as cached numpy edge arrays (for vectorized point-in-polygon and covering
classification). Coordinates are ``(x, y) = (lng, lat)`` in degrees unless a
local projection is applied by the caller. :class:`PolygonColumns` holds
a whole polygon set as three flat arrays, the form an index stores.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import InvalidPolygonError
from .bbox import Rect
from .pip import point_in_rings, points_in_rings
from .segment import segment_intersects_rect

Point = Tuple[float, float]


class Ring:
    """A simple closed ring (first vertex is not repeated at the end)."""

    __slots__ = ("vertices", "__dict__")

    def __init__(self, vertices: Sequence[Point]):
        verts = [(float(x), float(y)) for x, y in vertices]
        if len(verts) >= 2 and verts[0] == verts[-1]:
            verts = verts[:-1]  # normalize away an explicitly closed ring
        if len(verts) < 3:
            raise InvalidPolygonError(
                f"ring needs >= 3 distinct vertices, got {len(verts)}"
            )
        self.vertices: List[Point] = verts

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.vertices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.vertices == other.vertices

    def __repr__(self) -> str:
        return f"Ring({len(self.vertices)} vertices)"

    @cached_property
    def signed_area(self) -> float:
        """Shoelace area: positive for counter-clockwise orientation."""
        total = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % n]
            total += x0 * y1 - x1 * y0
        return 0.5 * total

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area > 0.0

    @cached_property
    def bbox(self) -> Rect:
        return Rect.from_points(self.vertices)

    @cached_property
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edges as ``(xs, ys, xe, ye)`` numpy arrays (closing edge included)."""
        arr = np.asarray(self.vertices, dtype=np.float64)
        nxt = np.roll(arr, -1, axis=0)
        return (arr[:, 0].copy(), arr[:, 1].copy(),
                nxt[:, 0].copy(), nxt[:, 1].copy())

    def edges(self) -> Iterator[Tuple[Point, Point]]:
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            yield verts[i], verts[(i + 1) % n]

    def reversed(self) -> "Ring":
        return Ring(list(reversed(self.vertices)))

    @cached_property
    def perimeter(self) -> float:
        total = 0.0
        for (x0, y0), (x1, y1) in self.edges():
            total += float(np.hypot(x1 - x0, y1 - y0))
        return total


class Polygon:
    """A polygon with one shell ring and zero or more hole rings.

    The shell is normalized to counter-clockwise and holes to clockwise
    orientation on construction, so downstream code can rely on ring
    orientation without re-checking.
    """

    __slots__ = ("shell", "holes", "__dict__")

    def __init__(self, shell: Sequence[Point] | Ring,
                 holes: Iterable[Sequence[Point] | Ring] = ()):
        shell_ring = shell if isinstance(shell, Ring) else Ring(shell)
        if not shell_ring.is_ccw:
            shell_ring = shell_ring.reversed()
        hole_rings: List[Ring] = []
        for hole in holes:
            ring = hole if isinstance(hole, Ring) else Ring(hole)
            if ring.is_ccw:
                ring = ring.reversed()
            hole_rings.append(ring)
        if shell_ring.area == 0.0:
            raise InvalidPolygonError("polygon shell has zero area")
        self.shell = shell_ring
        self.holes = hole_rings

    def __repr__(self) -> str:
        return (f"Polygon(shell={len(self.shell)} vertices, "
                f"holes={len(self.holes)})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polygon)
                and self.shell == other.shell
                and self.holes == other.holes)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def area(self) -> float:
        return self.shell.area - sum(h.area for h in self.holes)

    @cached_property
    def bbox(self) -> Rect:
        return self.shell.bbox

    @property
    def num_vertices(self) -> int:
        return len(self.shell) + sum(len(h) for h in self.holes)

    def rings(self) -> Iterator[Ring]:
        yield self.shell
        yield from self.holes

    @cached_property
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All rings' edges concatenated: ``(xs, ys, xe, ye)``."""
        parts = [ring.edge_arrays for ring in self.rings()]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
            np.concatenate([p[3] for p in parts]),
        )

    def edges(self) -> Iterator[Tuple[Point, Point]]:
        for ring in self.rings():
            yield from ring.edges()

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, x: float, y: float) -> bool:
        """Even/odd containment; inside shell and outside every hole."""
        if not self.bbox.contains_point(x, y):
            return False
        xs, ys, xe, ye = self.edge_arrays
        return point_in_rings(x, y, xs, ys, xe, ye)

    def contains_batch(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Vectorized containment over many points."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        box = self.bbox
        out = np.zeros(px.shape[0], dtype=bool)
        mask = ((px >= box.min_x) & (px <= box.max_x)
                & (py >= box.min_y) & (py <= box.max_y))
        if mask.any():
            xs, ys, xe, ye = self.edge_arrays
            out[mask] = points_in_rings(px[mask], py[mask], xs, ys, xe, ye)
        return out

    def any_edge_intersects_rect(self, rect: Rect) -> bool:
        """True when any ring edge touches ``rect`` (closed semantics).

        Vectorized Cohen–Sutherland over ``edge_arrays``: endpoint
        outcodes answer the trivially-inside and trivially-outside
        edges in a handful of array ops; only the (rare) straddling
        remainder falls back to the exact scalar segment test.
        """
        if not self.bbox.intersects(rect):
            return False
        xs, ys, xe, ye = self.edge_arrays
        code_s = _outcodes(xs, ys, rect)
        code_e = _outcodes(xe, ye, rect)
        if (code_s == 0).any() or (code_e == 0).any():
            return True  # an endpoint inside the closed rect
        for i in np.flatnonzero((code_s & code_e) == 0).tolist():
            if segment_intersects_rect(xs[i], ys[i], xe[i], ye[i], rect):
                return True
        return False

    def distance_sq(self, x: float, y: float) -> float:
        """Squared distance to the polygon (0 when inside).

        One vectorized point-to-segment pass over ``edge_arrays``
        instead of a Python loop per edge.
        """
        if self.contains(x, y):
            return 0.0
        xs, ys, xe, ye = self.edge_arrays
        abx = xe - xs
        aby = ye - ys
        apx = x - xs
        apy = y - ys
        denom = abx * abx + aby * aby
        t = np.zeros_like(denom)
        nz = denom > 0.0
        t[nz] = (apx[nz] * abx[nz] + apy[nz] * aby[nz]) / denom[nz]
        np.clip(t, 0.0, 1.0, out=t)
        qx = t * abx - apx
        qy = t * aby - apy
        return float(np.min(qx * qx + qy * qy))

    def distance(self, x: float, y: float) -> float:
        return float(np.sqrt(self.distance_sq(x, y)))

    @cached_property
    def centroid(self) -> Point:
        """Area-weighted centroid of the shell minus holes.

        Vertices are translated to a local origin before the shoelace
        accumulation: tiny polygons at large coordinates (a 1 m hexagon
        near lng -74) would otherwise lose the centroid to catastrophic
        cancellation in the cross products.
        """
        ox, oy = self.bbox.center
        cx = cy = total = 0.0
        for ring, sign in [(self.shell, 1.0)] + [(h, -1.0) for h in self.holes]:
            verts = ring.vertices
            n = len(verts)
            a = rcx = rcy = 0.0
            for i in range(n):
                x0 = verts[i][0] - ox
                y0 = verts[i][1] - oy
                x1 = verts[(i + 1) % n][0] - ox
                y1 = verts[(i + 1) % n][1] - oy
                cross = x0 * y1 - x1 * y0
                a += cross
                rcx += (x0 + x1) * cross
                rcy += (y0 + y1) * cross
            # ring signed area = a / 2; centroid terms need / (6 * area)
            ring_area = abs(a) * 0.5
            if ring_area == 0.0:
                continue
            factor = sign * ring_area
            denom = 3.0 * a  # == 6 * signed_area
            cx += factor * (rcx / denom)
            cy += factor * (rcy / denom)
            total += factor
        if total == 0.0:
            return self.bbox.center
        return (cx / total + ox, cy / total + oy)


class PolygonColumns:
    """A polygon set as three flat arrays — the form an index stores,
    loads, slices and packs its edge table from:

    * ``xy`` — ``(2, V)`` float64, every ring's vertices (x row, y
      row), rings back to back, no closing vertex repeated;
    * ``ring_ptr`` — ``(R + 1,)`` int64 CSR: ring ``r`` is vertices
      ``ring_ptr[r]:ring_ptr[r + 1]``;
    * ``poly_ptr`` — ``(P + 1,)`` int64 CSR: polygon ``p`` is rings
      ``poly_ptr[p]:poly_ptr[p + 1]``, shell first.

    Rings are stored as :class:`Polygon` normalised them (shell CCW,
    holes CW), so :meth:`to_polygons` rebuilds equal polygons without
    re-checking orientation or re-validating a vertex.
    """

    __slots__ = ("xy", "ring_ptr", "poly_ptr")

    def __init__(self, xy: np.ndarray, ring_ptr: np.ndarray,
                 poly_ptr: np.ndarray):
        self.xy = xy
        self.ring_ptr = ring_ptr
        self.poly_ptr = poly_ptr

    @classmethod
    def from_polygons(cls, polygons: Sequence[Polygon]) -> "PolygonColumns":
        rings = [ring.vertices for polygon in polygons
                 for ring in polygon.rings()]
        ring_ptr = np.zeros(len(rings) + 1, dtype=np.int64)
        np.cumsum([len(ring) for ring in rings], out=ring_ptr[1:])
        poly_ptr = np.zeros(len(polygons) + 1, dtype=np.int64)
        np.cumsum([1 + len(polygon.holes) for polygon in polygons],
                  out=poly_ptr[1:])
        xy = np.array([vertex for ring in rings for vertex in ring],
                      dtype=np.float64).reshape(-1, 2).T.copy()
        return cls(xy, ring_ptr, poly_ptr)

    def __len__(self) -> int:
        return self.poly_ptr.shape[0] - 1

    def check(self) -> None:
        """Raise :class:`ValueError` unless the arrays describe a polygon
        set: both CSRs run from 0 to their target's length, every ring
        has >= 3 vertices and every polygon a shell."""
        xy, ring_ptr, poly_ptr = self.xy, self.ring_ptr, self.poly_ptr
        if (xy.ndim != 2 or xy.shape[0] != 2 or xy.dtype != np.float64
                or ring_ptr.ndim != 1 or poly_ptr.ndim != 1
                or ring_ptr.dtype != np.int64 or poly_ptr.dtype != np.int64
                or ring_ptr.shape[0] < 1 or poly_ptr.shape[0] < 1):
            raise ValueError("polygon columns have the wrong dtype or shape")
        if (ring_ptr[0] != 0 or ring_ptr[-1] != xy.shape[1]
                or poly_ptr[0] != 0 or poly_ptr[-1] != ring_ptr.shape[0] - 1
                or (np.diff(ring_ptr) < 3).any()
                or (np.diff(poly_ptr) < 1).any()):
            raise ValueError("polygon columns' ring/polygon offsets do not "
                             "partition their vertices")

    def to_polygons(self) -> List[Polygon]:
        """The :class:`Polygon` objects, equal to the ones the columns
        were made from."""
        points = list(zip(self.xy[0].tolist(), self.xy[1].tolist()))
        ring_ptr = self.ring_ptr.tolist()
        rings = []
        for start, stop in zip(ring_ptr, ring_ptr[1:]):
            ring = Ring.__new__(Ring)
            ring.vertices = points[start:stop]
            rings.append(ring)
        poly_ptr = self.poly_ptr.tolist()
        polygons = []
        for start, stop in zip(poly_ptr, poly_ptr[1:]):
            polygon = Polygon.__new__(Polygon)
            polygon.shell = rings[start]
            polygon.holes = rings[start + 1:stop]
            polygons.append(polygon)
        return polygons


class MultiPolygon:
    """An ordered collection of polygons treated as one geometry."""

    __slots__ = ("polygons", "__dict__")

    def __init__(self, polygons: Iterable[Polygon]):
        self.polygons: List[Polygon] = list(polygons)
        if not self.polygons:
            raise InvalidPolygonError("MultiPolygon requires >= 1 polygon")

    def __len__(self) -> int:
        return len(self.polygons)

    def __iter__(self) -> Iterator[Polygon]:
        return iter(self.polygons)

    def __repr__(self) -> str:
        return f"MultiPolygon({len(self.polygons)} polygons)"

    @property
    def area(self) -> float:
        return sum(p.area for p in self.polygons)

    @cached_property
    def bbox(self) -> Rect:
        out = self.polygons[0].bbox
        for p in self.polygons[1:]:
            out = out.union(p.bbox)
        return out

    def contains(self, x: float, y: float) -> bool:
        return any(p.contains(x, y) for p in self.polygons)

    def distance(self, x: float, y: float) -> float:
        return min(p.distance(x, y) for p in self.polygons)


def _outcodes(xs: np.ndarray, ys: np.ndarray, rect: Rect) -> np.ndarray:
    """Vectorized Cohen–Sutherland outcodes (zero = inside closed rect)."""
    code = (xs < rect.min_x).astype(np.uint8)
    code |= (xs > rect.max_x).astype(np.uint8) << 1
    code |= (ys < rect.min_y).astype(np.uint8) << 2
    code |= (ys > rect.max_y).astype(np.uint8) << 3
    return code


def regular_polygon(cx: float, cy: float, radius: float, n: int,
                    phase: float = 0.0) -> Polygon:
    """A regular ``n``-gon (handy for tests and examples)."""
    if n < 3:
        raise InvalidPolygonError(f"regular polygon needs n >= 3, got {n}")
    pts = []
    for k in range(n):
        theta = phase + 2.0 * np.pi * k / n
        pts.append((cx + radius * float(np.cos(theta)),
                    cy + radius * float(np.sin(theta))))
    return Polygon(pts)


def box_polygon(rect: Rect) -> Polygon:
    """The rect's boundary as a polygon."""
    return Polygon(list(rect.corners()))
