"""R*-tree over polygon MBRs — the paper's baseline index.

The paper indexes minimum bounding rectangles in the boost R-tree with the
``rstar`` splitting strategy and a maximum of 8 entries per node, and
measures pure lookup performance (candidates are counted, not refined).
This module is a from-scratch R*-tree with the same parameters and the
classic Beckmann et al. heuristics:

* **ChooseSubtree** — least overlap enlargement at the leaf level, least
  area enlargement above;
* **forced reinsertion** — on first overflow per level, the 30% of
  entries farthest from the node center are reinserted;
* **R\\* split** — axis by minimum margin sum, distribution by minimum
  overlap then minimum area.

The tree stores ``(rect, value)`` pairs; for the paper's workload the
value is the polygon id.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import JoinError
from ..geometry.bbox import Rect

#: Fraction of entries evicted by forced reinsertion (Beckmann et al.).
_REINSERT_FRACTION = 0.3


class _Node:
    """Internal or leaf node; leaves hold (rect, value) entries."""

    __slots__ = ("is_leaf", "entries", "children", "mbr")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[Tuple[Rect, int]] = []
        self.children: List["_Node"] = []
        self.mbr: Optional[Rect] = None

    def recompute_mbr(self) -> None:
        rects = ([rect for rect, _ in self.entries] if self.is_leaf
                 else [child.mbr for child in self.children])
        box = rects[0]
        for r in rects[1:]:
            box = box.union(r)
        self.mbr = box

    def fill(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)


class RStarTree:
    """R*-tree with point and window queries.

    Parameters mirror the paper's baseline: ``max_entries=8`` (and the
    usual 40% minimum fill).
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 4:
            raise JoinError(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = max(2, int(0.4 * max_entries))
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, rects: Sequence[Rect], max_entries: int = 8,
              ) -> "RStarTree":
        """Index ``rects``; values are their positions in the sequence."""
        tree = cls(max_entries=max_entries)
        for value, rect in enumerate(rects):
            tree.insert(rect, value)
        return tree

    def insert(self, rect: Rect, value: int) -> None:
        self._insert_entry(rect, value, reinserting=False)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_point(self, x: float, y: float) -> List[int]:
        """Values of all rects containing the point (filter-phase output)."""
        out: List[int] = []
        if self._root.mbr is None:
            return out
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for rect, value in node.entries:
                    if (rect.min_x <= x <= rect.max_x
                            and rect.min_y <= y <= rect.max_y):
                        out.append(value)
            else:
                for child in node.children:
                    box = child.mbr
                    if (box.min_x <= x <= box.max_x
                            and box.min_y <= y <= box.max_y):
                        stack.append(child)
        return out

    def query_rect(self, rect: Rect) -> List[int]:
        """Values of all rects intersecting the window."""
        out: List[int] = []
        if self._root.mbr is None:
            return out
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(value for r, value in node.entries
                           if r.intersects(rect))
            else:
                stack.extend(child for child in node.children
                             if child.mbr.intersects(rect))
        return out

    def count_points(self, lngs: np.ndarray, lats: np.ndarray,
                     num_values: int) -> np.ndarray:
        """Per-value counts of candidate hits over a point batch.

        This reproduces the paper's baseline measurement: "for each
        returned candidate, we simply increase the counter of the
        respective polygon" — no refinement.
        """
        counts = np.zeros(num_values, dtype=np.int64)
        query = self.query_point
        for x, y in zip(lngs.tolist(), lats.tolist()):
            for value in query(x, y):
                counts[value] += 1
        return counts

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    @property
    def size_bytes(self) -> int:
        """C++-layout estimate: per node, entries of (rect = 4 doubles +
        8-byte pointer/value)."""
        per_entry = 4 * 8 + 8
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += node.fill() * per_entry + 16
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _insert_entry(self, rect: Rect, value: int, reinserting: bool) -> None:
        leaf = self._choose_leaf(rect)
        leaf.entries.append((rect, value))
        leaf.mbr = rect if leaf.mbr is None else leaf.mbr.union(rect)
        if len(leaf.entries) > self.max_entries:
            self._handle_overflow(leaf, reinserting)
        else:
            self._tighten_path(rect)

    def _choose_leaf(self, rect: Rect) -> _Node:
        self._path: List[_Node] = []
        node = self._root
        while not node.is_leaf:
            self._path.append(node)
            node = self._choose_subtree(node, rect)
        self._path.append(node)
        return node

    def _choose_subtree(self, node: _Node, rect: Rect) -> _Node:
        children = node.children
        if children[0].is_leaf:
            # minimum overlap enlargement (R* leaf-level rule)
            best = None
            best_key = None
            for child in children:
                enlarged = child.mbr.union(rect)
                overlap_before = sum(
                    child.mbr.overlap_area(other.mbr)
                    for other in children if other is not child
                )
                overlap_after = sum(
                    enlarged.overlap_area(other.mbr)
                    for other in children if other is not child
                )
                key = (
                    overlap_after - overlap_before,
                    enlarged.area - child.mbr.area,
                    child.mbr.area,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = child
            return best
        best = None
        best_key = None
        for child in children:
            key = (child.mbr.enlargement(rect), child.mbr.area)
            if best_key is None or key < best_key:
                best_key = key
                best = child
        return best

    def _tighten_path(self, rect: Rect) -> None:
        for node in getattr(self, "_path", []):
            node.mbr = rect if node.mbr is None else node.mbr.union(rect)

    def _handle_overflow(self, node: _Node, reinserting: bool) -> None:
        if not reinserting and node is not self._root:
            self._reinsert(node)
        else:
            self._split_and_propagate(node)

    def _reinsert(self, node: _Node) -> None:
        """Forced reinsertion of the entries farthest from the node center."""
        node.recompute_mbr()
        cx, cy = node.mbr.center
        count = max(1, int(_REINSERT_FRACTION * len(node.entries)))
        node.entries.sort(
            key=lambda item: -self._center_distance(item[0], cx, cy)
        )
        evicted = node.entries[:count]
        node.entries = node.entries[count:]
        node.recompute_mbr()
        self._refresh_ancestors()
        for rect, value in evicted:
            self._insert_entry(rect, value, reinserting=True)

    @staticmethod
    def _center_distance(rect: Rect, cx: float, cy: float) -> float:
        rx, ry = rect.center
        return math.hypot(rx - cx, ry - cy)

    def _refresh_ancestors(self) -> None:
        for node in reversed(getattr(self, "_path", [])):
            node.recompute_mbr()

    def _split_and_propagate(self, node: _Node) -> None:
        sibling = self._split(node)
        if node is self._root:
            new_root = _Node(is_leaf=False)
            new_root.children = [node, sibling]
            new_root.recompute_mbr()
            self._root = new_root
            self._height += 1
            return
        parent = self._parent_of(node)
        parent.children.append(sibling)
        parent.recompute_mbr()
        if len(parent.children) > self.max_entries:
            self._split_and_propagate(parent)
        else:
            self._refresh_ancestors()

    def _parent_of(self, node: _Node) -> _Node:
        idx = self._path.index(node)
        return self._path[idx - 1]

    def _split(self, node: _Node) -> _Node:
        """R* topological split: margin-minimal axis, overlap-minimal cut."""
        if node.is_leaf:
            items = node.entries
            rect_of = lambda item: item[0]
        else:
            items = node.children
            rect_of = lambda child: child.mbr

        m = self.min_entries
        best = None  # (overlap, area, axis_items, cut)
        for axis in (0, 1):
            if axis == 0:
                by_low = sorted(items, key=lambda it: (rect_of(it).min_x,
                                                       rect_of(it).max_x))
                by_high = sorted(items, key=lambda it: (rect_of(it).max_x,
                                                        rect_of(it).min_x))
            else:
                by_low = sorted(items, key=lambda it: (rect_of(it).min_y,
                                                       rect_of(it).max_y))
                by_high = sorted(items, key=lambda it: (rect_of(it).max_y,
                                                        rect_of(it).min_y))
            for ordered in (by_low, by_high):
                for cut in range(m, len(ordered) - m + 1):
                    left = _mbr_of([rect_of(it) for it in ordered[:cut]])
                    right = _mbr_of([rect_of(it) for it in ordered[cut:]])
                    key = (left.overlap_area(right),
                           left.area + right.area)
                    if best is None or key < best[0]:
                        best = (key, ordered, cut)
        _, ordered, cut = best
        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = list(ordered[:cut])
            sibling.entries = list(ordered[cut:])
        else:
            node.children = list(ordered[:cut])
            sibling.children = list(ordered[cut:])
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling


def _mbr_of(rects: Iterable[Rect]) -> Rect:
    rects = list(rects)
    box = rects[0]
    for rect in rects[1:]:
        box = box.union(rect)
    return box


class RTreeJoinBaseline:
    """The paper's baseline: polygon MBRs in an R*-tree, lookups only.

    ``count_points`` increments the counter of every polygon whose MBR
    contains the point, with no refinement and therefore no precision
    guarantee — exactly how the paper's Figure 3 dashed lines are
    measured. ``query_exact`` adds the PIP refinement for the classic
    filter-and-refine comparator.
    """

    def __init__(self, polygons, max_entries: int = 8):
        self.polygons = list(polygons)
        self.tree = RStarTree.build(
            [p.bbox for p in self.polygons], max_entries=max_entries
        )

    def query_candidates(self, lng: float, lat: float) -> List[int]:
        return self.tree.query_point(lng, lat)

    def query_exact(self, lng: float, lat: float) -> List[int]:
        return [pid for pid in self.tree.query_point(lng, lat)
                if self.polygons[pid].contains(lng, lat)]

    def count_points(self, lngs: np.ndarray, lats: np.ndarray,
                     exact: bool = False) -> np.ndarray:
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        if not exact:
            return self.tree.count_points(lngs, lats, len(self.polygons))
        counts = np.zeros(len(self.polygons), dtype=np.int64)
        query = self.tree.query_point
        contains = [p.contains for p in self.polygons]
        for x, y in zip(lngs.tolist(), lats.tolist()):
            for pid in query(x, y):
                if contains[pid](x, y):
                    counts[pid] += 1
        return counts

    @property
    def size_bytes(self) -> int:
        return self.tree.size_bytes
