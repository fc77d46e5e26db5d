#!/usr/bin/env python3
"""Taxi analytics: the paper's evaluation workload, miniaturized.

Joins a taxi-like point workload against boroughs / neighborhoods /
census blocks, counting points per polygon — comparing the approximate
ACT join, the exact ACT join (true hits skip refinement), the classic
filter-and-refine join, and the R-tree lookup baseline of the paper's
Figure 3.

Run:  python examples/taxi_analytics.py
"""

import time

import numpy as np

from repro import ACTIndex
from repro.baselines import RTreeJoinBaseline
from repro.datasets import boroughs, census_blocks, neighborhoods, taxi_points
from repro.join import FilterRefineJoin


def run_dataset(name, polygons, lngs, lats, precision=15.0):
    print(f"\n--- {name}: {len(polygons)} polygons, "
          f"{len(lngs):,} points, {precision:g} m precision ---")
    start = time.perf_counter()
    index = ACTIndex.build(polygons, precision_meters=precision)
    print(f"build: {time.perf_counter() - start:.1f} s   "
          f"cells={index.stats.indexed_cells:,}   "
          f"trie={index.core.size_bytes / 1e6:.1f} MB")

    approx = index.executor.join(lngs, lats)
    print(f"ACT approximate : {approx.stats.throughput_mpts:6.2f} M pts/s  "
          f"pairs={approx.total_pairs:,}  refinements=0")

    exact = index.executor.join(lngs, lats, exact=True)
    print(f"ACT exact       : {exact.stats.throughput_mpts:6.2f} M pts/s  "
          f"pairs={exact.total_pairs:,}  "
          f"refinements={exact.stats.num_refined:,}")

    sample = slice(0, min(20_000, len(lngs)))
    classic = FilterRefineJoin(polygons).join(lngs[sample], lats[sample])
    print(f"filter+refine   : "
          f"{classic.stats.num_points / classic.stats.seconds / 1e6:6.2f} "
          f"M pts/s  refinements={classic.stats.num_refined:,} "
          f"(on a {classic.stats.num_points:,}-point sample)")

    rtree = RTreeJoinBaseline(polygons)
    start = time.perf_counter()
    rtree.count_points(lngs[sample], lats[sample])
    rtree_seconds = time.perf_counter() - start
    sample_n = sample.stop
    print(f"R-tree lookup   : {sample_n / rtree_seconds / 1e6:6.2f} M pts/s "
          f"(baseline, no precision guarantee)")

    errors = int((approx.counts - exact.counts).sum())
    print(f"approximate error: {errors:,} extra pairs "
          f"({errors / max(1, exact.total_pairs):.3%}), every one within "
          f"{index.guaranteed_precision_meters:.1f} m of its polygon")
    return index


def main() -> None:
    lngs, lats = taxi_points(300_000, seed=42)
    run_dataset("boroughs", boroughs(), lngs, lats)
    run_dataset("neighborhoods", neighborhoods(120), lngs, lats)
    run_dataset("census blocks", census_blocks(400), lngs, lats,
                precision=30.0)


if __name__ == "__main__":
    main()
