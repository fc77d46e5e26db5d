"""Shared fixtures for the serving-subsystem tests.

Reuses the session-scoped ``nyc_index`` / ``nyc_polygons`` fixtures from
the top-level conftest; adds a deterministic query workload that stays
inside the NYC region so most points actually hit polygons.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import taxi_points
from repro.serve import ACTService, IndexRegistry, Router
from repro.serve.shard import write_slices


@pytest.fixture(scope="session")
def query_points():
    """A fixed (lngs, lats) workload of 400 taxi-like points."""
    return taxi_points(400, seed=77)


@pytest.fixture(scope="session")
def serial_results(nyc_index, query_points):
    """Ground-truth per-point results from the scalar query path."""
    lngs, lats = query_points
    return [nyc_index.query(lng, lat) for lng, lat in zip(lngs, lats)]


@pytest.fixture()
def rng_serve():
    return np.random.default_rng(4242)


@pytest.fixture()
def sharded_service(tmp_path):
    """Factory for one slot's in-process :class:`ACTService` with a
    :class:`Router`, mapped the way a fleet worker is: ``index`` is
    registered as ``name``, its slices cut once per map generation into
    a directory of ``tmp_path`` through :func:`write_slices` (the only
    way a slice is made), the router routes by ``shard_map`` and the
    service serves its own slice. Every service made is closed."""
    made, cut = [], {}

    def make(index, shard_map, slot, name="nyc", addresses=None,
             snapshots=None):
        key = (name, shard_map.generation)
        if key not in cut:
            directory = tmp_path / f"{name}-map{shard_map.generation}"
            directory.mkdir()
            cut[key] = write_slices(index, shard_map, directory, name)
        registry = IndexRegistry()
        registry.register_index(name, index)
        router = Router(slot, addresses, snapshots)
        router.route_by(shard_map)
        service = ACTService(registry=registry, router=router)
        made.append(service)
        service.adopt_generation(name, cut[key][slot], 1)
        return service

    yield make
    for service in made:
        service.close()


@pytest.fixture()
def publishing():
    """Start the publisher tick of in-process fleet workers: every tick
    polls each worker's lifecycle and writes its report where a
    coordinator's admin wait reads it, as a fleet worker's publisher
    thread does with its snapshot. Stopped at teardown."""
    running = []

    def start(lifecycles, snapshots):
        stop = threading.Event()

        def tick():
            while not stop.wait(0.02):
                for lifecycle in lifecycles:
                    snapshots[str(lifecycle.slot)] = lifecycle.poll()

        thread = threading.Thread(target=tick, daemon=True)
        thread.start()
        running.append((stop, thread))

    yield start
    for stop, thread in running:
        stop.set()
        thread.join(timeout=5.0)
