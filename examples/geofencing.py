#!/usr/bin/env python3
"""Geofencing: overlapping product zones with streaming requests.

The paper's motivating use case (Uber-style): passenger requests stream
in and must be mapped to *overlapping* product geofences with low
latency. Overlaps stress the super covering's conflict resolution; the
streaming join reports per-batch latency percentiles.

Run:  python examples/geofencing.py
"""

from functools import reduce

import numpy as np

from repro import ACTIndex
from repro.datasets import REGION, overlapping_zones, point_stream
from repro.join import JoinResult, join_stream


PRODUCT_NAMES = [
    "ride-x", "ride-xl", "ride-pool", "ride-lux", "ride-green",
    "delivery", "freight", "scooter", "bike", "shuttle",
    "black", "wav", "taxi", "moto", "boat",
]


def main() -> None:
    # overlapping product zones of very different sizes
    zones = overlapping_zones(REGION, len(PRODUCT_NAMES), seed=4)
    index = ACTIndex.build(zones, precision_meters=10.0)
    print(f"index over {len(zones)} overlapping product zones: {index}")
    print(f"conflict cells materialized by overlap resolution: "
          f"{index.stats.conflict_cells:,}")

    # one dispatch decision
    lng, lat = REGION.center
    products = [PRODUCT_NAMES[pid] for pid in index.query_exact(lng, lat)]
    print(f"\nrequest at {(round(lng, 4), round(lat, 4))} -> "
          f"available products: {products or ['(none)']}")

    # stream micro-batches of requests (exact mode: candidates refined,
    # true hits — the vast majority — skip refinement entirely)
    batches = list(join_stream(
        index.executor, point_stream(100_000, batch_size=10_000, seed=8),
        exact=True))
    total = reduce(JoinResult.merged, batches)
    p50, p95, p99 = np.percentile(
        [batch.stats.seconds * 1e3 for batch in batches], [50, 95, 99])
    print(f"\nstreamed {total.stats.num_points:,} requests in "
          f"{len(batches)} batches")
    print(f"  batch latency p50={p50:.1f} ms  "
          f"p95={p95:.1f} ms  p99={p99:.1f} ms")

    print("\nrequests per product zone:")
    for pid, count in total.top_k(8).items():
        print(f"  {PRODUCT_NAMES[pid]:<12} {count:,}")


if __name__ == "__main__":
    main()
