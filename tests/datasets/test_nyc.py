"""Tests for the NYC-like polygon datasets."""

import pytest

from repro.config import PAPER_NUM_BOROUGHS, PAPER_NUM_NEIGHBORHOODS
from repro.datasets.nyc import REGION, boroughs, census_blocks, neighborhoods
from repro.errors import DatasetError
from repro.geometry.polygon import Ring
from repro.geometry.segment import segments_intersect


def _ring_is_simple(ring):
    """No two non-adjacent edges of ``ring`` meet."""
    edges = list(ring.edges())
    n = len(edges)
    return not any(
        segments_intersect(*edges[i][0], *edges[i][1],
                           *edges[j][0], *edges[j][1])
        for i in range(n) for j in range(i + 2, n - (i == 0)))


class TestBoroughs:
    def test_default_count(self):
        assert len(boroughs()) == PAPER_NUM_BOROUGHS

    def test_high_complexity(self):
        """The paper: boroughs are few but significantly more complex."""
        b = boroughs()
        n = neighborhoods(60)
        avg_borough_verts = sum(p.num_vertices for p in b) / len(b)
        avg_neighborhood_verts = sum(p.num_vertices for p in n) / len(n)
        assert avg_borough_verts > 3 * avg_neighborhood_verts

    def test_in_region(self):
        for polygon in boroughs():
            assert REGION.expanded(REGION.width * 0.2).contains_rect(
                polygon.bbox
            )

    def test_deterministic(self):
        first = boroughs()
        second = boroughs()
        assert all(a == b for a, b in zip(first, second))


class TestNeighborhoods:
    def test_custom_count(self):
        assert len(neighborhoods(50)) == 50

    def test_paper_count_default(self):
        import inspect

        default = inspect.signature(neighborhoods).parameters["num"].default
        assert default == PAPER_NUM_NEIGHBORHOODS

    def test_tiles_region(self):
        cells = neighborhoods(40)
        total = sum(p.area for p in cells)
        # rough borders wiggle area around the exact partition
        assert total == pytest.approx(REGION.area, rel=0.05)


class TestCensusBlocks:
    def test_count(self):
        assert len(census_blocks(300)) == 300

    def test_blocks_small_and_disjoint(self):
        blocks = census_blocks(200)
        areas = [b.area for b in blocks]
        assert max(areas) < REGION.area / 100
        for i, a in enumerate(blocks[:50]):
            for b in blocks[i + 1:50]:
                assert not a.bbox.intersects(b.bbox)

    def test_invalid_count(self):
        with pytest.raises(DatasetError):
            census_blocks(0)


class TestGeneratedRingsAreValid:
    """The generators emit simple rings (none of them emits holes)."""

    def test_synthetic_datasets_valid(self, nyc_polygons):
        for polygon in nyc_polygons[:10]:
            assert not polygon.holes
            assert all(_ring_is_simple(ring) for ring in polygon.rings())

    def test_census_blocks_valid(self):
        for block in census_blocks(40):
            assert not block.holes
            assert all(_ring_is_simple(ring) for ring in block.rings())

    def test_a_bowtie_is_not_simple(self):
        assert not _ring_is_simple(Ring([(0, 0), (2, 2), (2, 0), (0, 2)]))
        assert _ring_is_simple(Ring([(0, 0), (2, 0), (2, 2), (0, 2)]))


class TestSizeOrdering:
    def test_polygon_size_hierarchy(self):
        """boroughs >> neighborhoods >> census blocks by average area."""
        b = boroughs()
        n = neighborhoods(100)
        c = census_blocks(500)
        avg = lambda ps: sum(p.area for p in ps) / len(ps)
        assert avg(b) > 10 * avg(n) > 10 * avg(c)
