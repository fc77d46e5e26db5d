"""Tests of the columnar core: scalar and batch engines must agree."""

import numpy as np

from repro.act import entry as codec
from repro.act.core import ACTCore


class TestScalarLookup:
    def test_scalar_matches_batch(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        cells = nyc_index.grid.leaf_cells_batch(lngs, lats)
        entries = nyc_index.core.lookup_entries(cells)
        for k in range(0, len(lngs), 5):
            cell = int(cells[k])
            want = nyc_index.core.lookup_entry(cell) if cell else 0
            assert int(entries[k]) == want, k

    def test_node_accesses_bounded(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        core = nyc_index.core
        for k in range(0, 200, 7):
            leaf = nyc_index.grid.leaf_cell(lngs[k], lats[k])
            if leaf is None:
                continue
            assert 0 <= core.node_accesses(leaf) <= core.max_steps


class TestLookupEntries:
    def test_invalid_cells_miss(self, nyc_index):
        entries = nyc_index.core.lookup_entries(
            np.zeros(5, dtype=np.uint64)
        )
        assert (entries == 0).all()

    def test_empty_batch(self, nyc_index):
        entries = nyc_index.core.lookup_entries(
            np.empty(0, dtype=np.uint64)
        )
        assert entries.shape == (0,)


class TestCountHits:
    def test_counts_match_decoded_entries(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        entries = nyc_index.lookup_batch(lngs, lats)
        counts = nyc_index.core.count_hits(
            entries, nyc_index.num_polygons, include_candidates=True
        )
        # brute-force decode per entry
        want = np.zeros(nyc_index.num_polygons, dtype=np.int64)
        for e in entries.tolist():
            result = nyc_index.decode_entry(int(e))
            for pid in result.all_ids:
                want[pid] += 1
        assert counts.tolist() == want.tolist()

    def test_true_only_counts(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        entries = nyc_index.lookup_batch(lngs, lats)
        true_counts = nyc_index.core.count_hits(
            entries, nyc_index.num_polygons, include_candidates=False
        )
        all_counts = nyc_index.core.count_hits(
            entries, nyc_index.num_polygons, include_candidates=True
        )
        assert (true_counts <= all_counts).all()
        want = np.zeros(nyc_index.num_polygons, dtype=np.int64)
        for e in entries.tolist():
            for pid in nyc_index.decode_entry(int(e)).true_hits:
                want[pid] += 1
        assert true_counts.tolist() == want.tolist()

    def test_hit_counts_single_pass(self, overlap_index, taxi_batch):
        """hit_counts returns both classifications from one decode."""
        lngs, lats = taxi_batch
        entries = overlap_index.lookup_batch(lngs, lats)
        true_counts, cand_counts = overlap_index.core.hit_counts(
            entries, overlap_index.num_polygons
        )
        assert true_counts.tolist() == overlap_index.core.count_hits(
            entries, overlap_index.num_polygons, include_candidates=False
        ).tolist()
        assert (true_counts + cand_counts).tolist() == \
            overlap_index.core.count_hits(
                entries, overlap_index.num_polygons,
                include_candidates=True,
            ).tolist()


class TestPairs:
    def test_pairs_match_decoded(self, overlap_index, taxi_batch):
        lngs, lats = taxi_batch
        entries = overlap_index.lookup_batch(lngs, lats)
        core = overlap_index.core
        for want_true in (True, False):
            pts, pids = core.pairs(entries, want_true=want_true)
            got = sorted(zip(pts.tolist(), pids.tolist()))
            want = []
            for k, e in enumerate(entries.tolist()):
                result = overlap_index.decode_entry(int(e))
                ids = result.true_hits if want_true else result.candidates
                want.extend((k, pid) for pid in ids)
            assert got == sorted(want)

    def test_candidate_pairs_alias(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        entries = nyc_index.lookup_batch(lngs[:500], lats[:500])
        a = nyc_index.core.candidate_pairs(entries)
        b = nyc_index.core.pairs(entries, want_true=False)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()

    def test_no_pairs_on_empty(self, nyc_index):
        pts, pids = nyc_index.core.pairs(
            np.zeros(4, dtype=np.uint64), want_true=False
        )
        assert pts.shape == (0,) and pids.shape == (0,)


class TestOffsetEntries:
    def test_offset_decoding_through_table(self, overlap_index, taxi_batch):
        """Overlapping zones produce cells with 3+ refs — offset entries."""
        lngs, lats = taxi_batch
        entries = overlap_index.lookup_batch(lngs, lats)
        tags = entries & np.uint64(3)
        has_offsets = bool((tags == np.uint64(codec.TAG_OFFSET)).any())
        # the overlap fixture is designed to produce shared cells
        assert has_offsets, "expected >=3-ref cells in overlapping zones"
        counts = overlap_index.core.count_hits(
            entries, overlap_index.num_polygons, include_candidates=True
        )
        assert counts.sum() > 0

    def test_csr_index_covers_lookup_table(self, overlap_index):
        """The CSR decode must reproduce every interned reference set."""
        core = overlap_index.core
        table = core.lookup_table
        for row, offset in enumerate(core._set_starts.tolist()):
            true_ids, cand_ids = table.get(offset)
            got_true = core._true_ids[
                core._true_indptr[row]:core._true_indptr[row + 1]
            ]
            got_cand = core._cand_ids[
                core._cand_indptr[row]:core._cand_indptr[row + 1]
            ]
            assert tuple(got_true.tolist()) == true_ids
            assert tuple(got_cand.tolist()) == cand_ids

    def test_offset_cache_reused(self, overlap_index, taxi_batch):
        lngs, lats = taxi_batch
        core = overlap_index.core
        entries = core.lookup_entries(
            overlap_index.grid.leaf_cells_batch(lngs, lats)
        )
        for e in entries.tolist():
            core.decode_entry(int(e))
        cache_size = len(core._decoded)
        assert cache_size >= len(set(entries.tolist()))
        for e in entries.tolist():
            core.decode_entry(int(e))
        assert len(core._decoded) == cache_size


class TestEnumeration:
    """The array enumeration's structure (its agreement with the Python
    DFS it replaced is in ``tests/serve/test_shard_differential.py``,
    next to the oracle)."""

    def test_node_arrays_are_the_tree_skeleton(self, nyc_index):
        from repro.act import entry as entry_codec
        from repro.grid import cellid

        core = nyc_index.core
        cells, parent, slot = core.node_arrays()
        assert len(cells) == len(parent) == len(slot) == core.num_nodes
        assert cells.all()  # every row is reached
        for node in range(0, core.num_nodes, 97):
            holder = (core.roots if parent[node] < 0
                      else core.nodes[parent[node]])
            assert (entry_codec.pointer_index(int(holder[slot[node]]))
                    == node)
            if parent[node] >= 0:
                assert cellid.contains(int(cells[parent[node]]),
                                       int(cells[node]))
                assert (cellid.level(int(cells[node]))
                        == cellid.level(int(cells[parent[node]]))
                        + core.levels_per_step)

    def test_empty_core(self):
        core = ACTCore.from_cells((), (), (), 256)
        cells, entries = core.cell_arrays()
        assert cells.size == entries.size == 0
        assert list(core.iter_cells()) == []
        assert not core.node_arrays()[0].any()


class TestIterCells:
    def test_iter_cells_roundtrips_lookups(self, nyc_index):
        """Every yielded (cell, entry) must be what a lookup finds."""
        from repro.grid import cellid

        for (cell, entry), _ in zip(nyc_index.core.iter_cells(), range(300)):
            leaf = cellid.range_min(cell)
            assert nyc_index.core.lookup_entry(leaf) == entry
