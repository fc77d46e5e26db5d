"""Synthetic region generators.

The paper evaluates against NYC boroughs (5 large, very complex polygons),
neighborhoods (289 medium polygons), and census blocks (39,184 small
polygons), joined with NYC taxi pickup points. Those datasets are not
shippable here, so this module generates geometry with the same *shape
characteristics*:

* :func:`voronoi_partition` — a seamless partition of a region into n
  convex-ish cells (neighborhood-like);
* :func:`densify_polygon` — deterministic midpoint-displacement noise that
  turns straight borders into complex coastlines **consistently across
  neighbors** (shared edges are displaced identically, so partitions stay
  seamless) — borough-like complexity;
* :func:`street_grid_blocks` — a dense lattice of small rectangular blocks
  separated by streets (census-block-like);
* :func:`overlapping_zones` — overlapping geofence polygons (exercises the
  super covering's conflict resolution, the Uber-products use case).

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import DatasetError
from ..geometry.bbox import Rect
from ..geometry.polygon import Polygon, regular_polygon

Point = Tuple[float, float]


# ----------------------------------------------------------------------
# Voronoi partitions
# ----------------------------------------------------------------------
def voronoi_partition(bounds: Rect, num_cells: int, seed: int = 0,
                      lloyd_iterations: int = 1) -> List[Polygon]:
    """Partition ``bounds`` into ``num_cells`` Voronoi cell polygons.

    Sites are mirrored across all four box edges before triangulating, so
    every interior region is finite and exactly clipped to the box. One
    or two Lloyd relaxation steps make cell sizes more uniform (like real
    administrative regions).
    """
    if num_cells < 1:
        raise DatasetError(f"num_cells must be >= 1, got {num_cells}")
    rng = np.random.default_rng(seed)
    sites = rng.uniform(
        [bounds.min_x, bounds.min_y],
        [bounds.max_x, bounds.max_y],
        (num_cells, 2),
    )
    if num_cells == 1:
        return [Polygon(list(bounds.corners()))]
    for _ in range(max(0, lloyd_iterations)):
        regions = _voronoi_regions(sites, bounds)
        sites = np.asarray([_centroid(region) for region in regions])
    return [Polygon(region) for region in _voronoi_regions(sites, bounds)]


def _voronoi_regions(sites: np.ndarray, bounds: Rect) -> List[List[Point]]:
    # imported here: a serving process imports this package and never
    # generates a dataset, and scipy costs it ~0.3 s and ~30 MiB
    from scipy.spatial import Voronoi

    mirrored = [sites]
    for axis, value in ((0, bounds.min_x), (0, bounds.max_x),
                        (1, bounds.min_y), (1, bounds.max_y)):
        m = sites.copy()
        m[:, axis] = 2.0 * value - m[:, axis]
        mirrored.append(m)
    vor = Voronoi(np.vstack(mirrored))
    regions: List[List[Point]] = []
    for i in range(sites.shape[0]):
        idx = vor.regions[vor.point_region[i]]
        verts = vor.vertices[idx]
        cx, cy = verts.mean(axis=0)
        order = np.argsort(np.arctan2(verts[:, 1] - cy, verts[:, 0] - cx))
        ordered = verts[order]
        regions.append([(float(x), float(y)) for x, y in ordered])
    return regions


def _centroid(ring: Sequence[Point]) -> Point:
    arr = np.asarray(ring)
    return (float(arr[:, 0].mean()), float(arr[:, 1].mean()))


# ----------------------------------------------------------------------
# Midpoint-displacement densification (complex coastlines)
# ----------------------------------------------------------------------
def _edge_seed(p0: Point, p1: Point, salt: int) -> int:
    """Deterministic seed from an *unordered* edge (direction-free)."""
    a = min(p0, p1)
    b = max(p0, p1)
    digest = hashlib.blake2b(
        f"{a[0]:.12e},{a[1]:.12e}|{b[0]:.12e},{b[1]:.12e}|{salt}".encode(),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little")


def _displace(p0: Point, p1: Point, depth: int, amplitude: float,
              rng: np.random.Generator) -> List[Point]:
    """Interior points of a midpoint-displaced polyline p0 -> p1."""
    if depth == 0:
        return []
    mx = 0.5 * (p0[0] + p1[0])
    my = 0.5 * (p0[1] + p1[1])
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    offset = float(rng.uniform(-amplitude, amplitude))
    mid = (mx - dy * offset, my + dx * offset)
    left = _displace(p0, mid, depth - 1, amplitude * 0.55, rng)
    right = _displace(mid, p1, depth - 1, amplitude * 0.55, rng)
    return left + [mid] + right


def displace_edge(p0: Point, p1: Point, depth: int = 3,
                  amplitude: float = 0.12, salt: int = 0) -> List[Point]:
    """Deterministic rough polyline from ``p0`` to ``p1`` (excluding ``p1``).

    The displacement depends only on the *unordered* endpoint pair, so the
    two polygons sharing a border produce the exact same coastline and the
    partition stays seamless.
    """
    if depth <= 0:
        return [p0]
    canonical = min(p0, p1), max(p0, p1)
    rng = np.random.default_rng(_edge_seed(p0, p1, salt))
    interior = _displace(canonical[0], canonical[1], depth, amplitude, rng)
    if (p0, p1) != canonical:
        interior = list(reversed(interior))
    return [p0] + interior


def densify_polygon(polygon: Polygon, depth: int = 3,
                    amplitude: float = 0.12, salt: int = 0) -> Polygon:
    """Replace every edge with a midpoint-displaced coastline.

    ``depth`` levels of displacement multiply the vertex count by
    ``2**depth``; ``amplitude`` is relative to each edge's length.
    """
    def rough_ring(vertices: Sequence[Point]) -> List[Point]:
        out: List[Point] = []
        n = len(vertices)
        for i in range(n):
            p0 = vertices[i]
            p1 = vertices[(i + 1) % n]
            out.extend(displace_edge(p0, p1, depth, amplitude, salt))
        return out

    return Polygon(
        rough_ring(polygon.shell.vertices),
        [rough_ring(h.vertices) for h in polygon.holes],
    )


# ----------------------------------------------------------------------
# Street grids (census blocks)
# ----------------------------------------------------------------------
def street_grid_blocks(bounds: Rect, rows: int, cols: int,
                       street_fraction: float = 0.12,
                       jitter: float = 0.15,
                       seed: int = 0) -> List[Polygon]:
    """A ``rows x cols`` lattice of small blocks separated by streets.

    Each block is an axis-aligned rectangle shrunk by ``street_fraction``
    and perturbed by ``jitter`` (relative to cell size) so blocks are not
    perfectly regular — matching the look of census blocks.
    """
    if rows < 1 or cols < 1:
        raise DatasetError("street_grid_blocks needs rows, cols >= 1")
    if not 0.0 <= street_fraction < 0.9:
        raise DatasetError(f"street_fraction out of range: {street_fraction}")
    rng = np.random.default_rng(seed)
    dx = bounds.width / cols
    dy = bounds.height / rows
    half_street_x = 0.5 * street_fraction * dx
    half_street_y = 0.5 * street_fraction * dy
    blocks: List[Polygon] = []
    for r in range(rows):
        for c in range(cols):
            x0 = bounds.min_x + c * dx + half_street_x
            x1 = bounds.min_x + (c + 1) * dx - half_street_x
            y0 = bounds.min_y + r * dy + half_street_y
            y1 = bounds.min_y + (r + 1) * dy - half_street_y
            jx = float(rng.uniform(-jitter, jitter)) * (x1 - x0) * 0.25
            jy = float(rng.uniform(-jitter, jitter)) * (y1 - y0) * 0.25
            blocks.append(Polygon([
                (x0 + jx, y0 + jy),
                (x1 + jx, y0 - jy),
                (x1 - jx, y1 - jy),
                (x0 - jx, y1 + jy),
            ]))
    return blocks


# ----------------------------------------------------------------------
# Overlapping geofence zones
# ----------------------------------------------------------------------
def overlapping_zones(bounds: Rect, num_zones: int, seed: int = 0,
                      min_vertices: int = 6, max_vertices: int = 24,
                      ) -> List[Polygon]:
    """Overlapping convex zones (think Uber product geofences).

    Zone radii span an order of magnitude and centers cluster toward the
    middle of the region, so many zones overlap — stress-testing the
    super covering's conflict push-down.
    """
    if num_zones < 1:
        raise DatasetError(f"num_zones must be >= 1, got {num_zones}")
    rng = np.random.default_rng(seed)
    cx0, cy0 = bounds.center
    spread_x = bounds.width * 0.25
    spread_y = bounds.height * 0.25
    max_radius = 0.35 * min(bounds.width, bounds.height)
    zones: List[Polygon] = []
    for _ in range(num_zones):
        cx = float(np.clip(rng.normal(cx0, spread_x),
                           bounds.min_x, bounds.max_x))
        cy = float(np.clip(rng.normal(cy0, spread_y),
                           bounds.min_y, bounds.max_y))
        radius = float(rng.uniform(0.08, 1.0)) * max_radius
        sides = int(rng.integers(min_vertices, max_vertices + 1))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        zones.append(regular_polygon(cx, cy, radius, sides, phase))
    return zones
