import numpy as np

from actbench.inputs import SMOKE, sequence, sequence_digest
from actbench.targets import WORKLOADS

POLYGONS = SMOKE.census()


def test_one_seed_gives_byte_identical_sequences():
    for workload in WORKLOADS:
        first = sequence(workload.name, SMOKE, 5, POLYGONS)
        again = sequence(workload.name, SMOKE, 5, POLYGONS)
        other = sequence(workload.name, SMOKE, 6, POLYGONS)
        assert sequence_digest(first) == sequence_digest(again)
        assert sequence_digest(first) != sequence_digest(other)


def test_paired_workloads_send_identical_points():
    hot = sequence("bin_hot_small", SMOKE, 5, POLYGONS)
    http = sequence("http_json_small", SMOKE, 5, POLYGONS)
    assert sequence_digest(hot[:len(http)]) == sequence_digest(http)
    cold = sequence("bin_cold_exact", SMOKE, 5, POLYGONS)
    shard = sequence("shard_cold_exact", SMOKE, 5, POLYGONS)
    assert sequence_digest(cold) == sequence_digest(shard)


def test_hot_pool_fits_the_cache_and_cold_never_repeats():
    hot = sequence("bin_hot_small", SMOKE, 5, POLYGONS)
    distinct = {(x, y) for lngs, lats in hot
                for x, y in zip(lngs.tolist(), lats.tolist())}
    assert len(distinct) <= SMOKE.hot_pool
    cold = sequence("bin_cold_exact", SMOKE, 5, POLYGONS)
    lngs = np.concatenate([r[0] for r in cold])
    assert np.unique(lngs).shape[0] == lngs.shape[0]
