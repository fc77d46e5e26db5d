"""Batch point_keys must partition exactly like scalar point_key."""

import warnings

import numpy as np
import pytest

from repro.datasets import taxi_points
from repro.geometry.bbox import Rect
from repro.grid import INVALID_CELL, INVALID_KEY
from repro.grid.planar import PlanarGrid
from repro.grid.s2like import S2LikeGrid


@pytest.fixture(scope="module")
def planar_grid():
    return PlanarGrid(Rect(-74.30, 40.45, -73.65, 40.95))


@pytest.fixture(scope="module")
def mixed_points():
    """Taxi-like points plus a few guaranteed out-of-domain ones."""
    lngs, lats = taxi_points(500, seed=11)
    lngs = np.concatenate([lngs, [-120.0, 10.0, -74.0]])
    lats = np.concatenate([lats, [40.7, 40.7, -60.0]])
    return lngs, lats


class TestPlanar:
    @pytest.mark.parametrize("level", [6, 10, 14, 18])
    def test_matches_scalar(self, planar_grid, mixed_points, level):
        lngs, lats = mixed_points
        keys = planar_grid.point_keys(lngs, lats, level).tolist()
        for k in range(len(lngs)):
            scalar = planar_grid.point_key(float(lngs[k]), float(lats[k]),
                                           level)
            if scalar is None:
                assert keys[k] == int(INVALID_KEY)
            else:
                assert keys[k] == scalar

    def test_same_cell_same_key(self, planar_grid):
        """Two points in one level-10 cell share a key; neighbors don't."""
        keys = planar_grid.point_keys(
            np.array([-74.0, -74.0 + 1e-7, -73.7]),
            np.array([40.7, 40.7 + 1e-7, 40.9]),
            10,
        )
        assert keys[0] == keys[1]
        assert keys[0] != keys[2]


class TestS2Like:
    @pytest.mark.parametrize("level", [6, 12, 20])
    def test_matches_scalar(self, mixed_points, level):
        grid = S2LikeGrid()
        lngs, lats = mixed_points
        keys = grid.point_keys(lngs, lats, level).tolist()
        for k in range(0, len(lngs), 3):
            scalar = grid.point_key(float(lngs[k]), float(lats[k]), level)
            assert keys[k] == scalar  # global grid: never out of domain

    def test_keys_are_parent_cells(self, mixed_points):
        grid = S2LikeGrid()
        lngs, lats = mixed_points
        keys = grid.point_keys(lngs, lats, 8)
        from repro.grid import cellid

        for key in keys[:50].tolist():
            assert cellid.is_valid(key)
            assert cellid.level(key) == 8


class TestHostileCoordinates:
    """NaN, +-inf and 1e300 arrive in binary frames as easily as real
    coordinates: they get no cell and no key, and numpy stays quiet —
    under ``-W error`` (CI runs this directory that way) an unguarded
    multiply or float -> integer cast would raise instead."""

    NAN, INF = float("nan"), float("inf")
    LNGS = np.array([NAN, INF, -INF, 1e300, -1e300, -74.0, -74.0, -74.0])
    LATS = np.array([40.7, 40.7, 40.7, 40.7, 40.7, NAN, -INF, 40.7])

    def test_planar_answers_invalid_without_warnings(self, planar_grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = planar_grid.leaf_cells_batch(self.LNGS, self.LATS)
            keys = planar_grid.point_keys(self.LNGS, self.LATS, 14)
        assert (cells[:-1] == INVALID_CELL).all()
        assert (keys[:-1] == INVALID_KEY).all()
        assert int(cells[-1]) == planar_grid.leaf_cell(-74.0, 40.7)
        assert int(keys[-1]) == planar_grid.point_key(-74.0, 40.7, 14)

    def test_s2like_answers_invalid_without_warnings(self):
        grid = S2LikeGrid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = grid.leaf_cells_batch(self.LNGS, self.LATS)
            keys = grid.point_keys(self.LNGS, self.LATS, 14)
        # the sphere has no bounds: anything finite has a cell
        finite = np.isfinite(self.LNGS) & np.isfinite(self.LATS)
        assert finite.tolist() == [False] * 3 + [True] * 2 + [False] * 2 \
            + [True]
        assert (cells[~finite] == INVALID_CELL).all()
        assert (keys[~finite] == INVALID_KEY).all()
        for k in np.flatnonzero(finite).tolist():
            lng, lat = float(self.LNGS[k]), float(self.LATS[k])
            assert int(cells[k]) == grid.leaf_cell(lng, lat)
            assert int(keys[k]) == grid.point_key(lng, lat, 14)
