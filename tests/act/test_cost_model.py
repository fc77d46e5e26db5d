"""Validation of the paper's lookup cost model.

Section II: ``c_avg = ceil(k_avg / log2(fanout))`` node accesses, bounded
by ``ceil(k_max / log2(fanout))`` — with fanout 256 and 60 key bits, at
most ``ceil(60/8) = 8`` accesses (the face dispatch counts as the first
in the paper's accounting; our count excludes it, giving 7).
"""

import numpy as np
import pytest

from repro import ACTIndex
from repro.act.core import KEY_BITS, SUPPORTED_FANOUTS


class TestAccessBounds:
    @pytest.mark.parametrize("fanout", SUPPORTED_FANOUTS)
    def test_max_accesses_formula(self, nyc_polygons, taxi_batch, fanout):
        index = ACTIndex.build(nyc_polygons[:6], precision_meters=250.0,
                               fanout=fanout)
        bits = index.core.bits_per_step
        bound = KEY_BITS // bits
        lngs, lats = taxi_batch
        worst = 0
        for k in range(0, 1000, 3):
            leaf = index.grid.leaf_cell(lngs[k], lats[k])
            if leaf is None:
                continue
            worst = max(worst, index.core.node_accesses(leaf))
        assert 0 < worst <= bound

    def test_bigger_fanout_fewer_accesses(self, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        avgs = {}
        for fanout in (4, 256):
            index = ACTIndex.build(nyc_polygons[:6],
                                   precision_meters=250.0, fanout=fanout)
            accesses = []
            for k in range(0, 1000, 3):
                leaf = index.grid.leaf_cell(lngs[k], lats[k])
                if leaf is not None:
                    accesses.append(index.core.node_accesses(leaf))
            avgs[fanout] = float(np.mean(accesses))
        # log2(256)/log2(4) = 4x fewer accesses at equal key depth
        assert avgs[256] < avgs[4] / 2

    def test_interior_hits_resolve_shallow(self, nyc_polygons):
        """The paper's boroughs observation: points deep inside polygons
        hit coarse interior cells indexed in upper trie levels."""
        index = ACTIndex.build(nyc_polygons[:6], precision_meters=60.0)
        deep_inside = []
        near_border = []
        for polygon in nyc_polygons[:6]:
            cx, cy = polygon.centroid
            if polygon.contains(cx, cy):
                leaf = index.grid.leaf_cell(cx, cy)
                deep_inside.append(index.core.node_accesses(leaf))
            vx, vy = polygon.shell.vertices[0]
            leaf = index.grid.leaf_cell(vx, vy)
            if leaf is not None:
                near_border.append(index.core.node_accesses(leaf))
        assert deep_inside and near_border
        assert np.mean(deep_inside) <= np.mean(near_border)

    def test_memory_fanout_tradeoff(self, nyc_polygons):
        """Fanout 256 buys shallow lookups with more bytes (paper: 'a
        fanout of 256 results in sparsely occupied trie nodes and thus in
        a high space consumption')."""
        small = ACTIndex.build(nyc_polygons[:6], precision_meters=250.0,
                               fanout=4)
        large = ACTIndex.build(nyc_polygons[:6], precision_meters=250.0,
                               fanout=256)
        assert large.core.size_bytes > small.core.size_bytes
        assert large.core.max_steps < small.core.max_steps
