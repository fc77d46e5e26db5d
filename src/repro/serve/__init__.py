"""repro.serve — long-lived query serving over ACT indexes.

Turns the build-then-benchmark library into a service: named indexes are
built or loaded once and pinned (:class:`IndexRegistry`), hot cells
are answered from an LRU cache keyed by boundary-level cell
(:class:`CellResultCache`) and misses by one descent on the calling
thread (scalar per point, vectorized per batch), requests carry
latency budgets with deadline propagation (:class:`Budget`), and the
whole stack is observable — counters/gauges/mergeable histograms
(:class:`MetricsRegistry`), sampled per-request tracing and a
slow-query log (:mod:`repro.obs`), and a Prometheus-style ``GET
/metrics`` exposition — and drivable over
the network by one server (:class:`ACTServer`, :func:`create_server`,
or ``repro-act serve`` from the CLI) that speaks two protocols on every
address it listens on: JSON over HTTP, and a zero-copy binary batch
protocol (:mod:`repro.serve.binproto`) that answers pipelined frames in
order; ``repro-act serve --binary-port`` adds one more address. Each
connection gets a thread; the server's one drain closes connections
parked between messages and answers every request or frame whose first
byte has arrived. For
CPU-bound traffic, :class:`ServingFleet` forks the whole stack
into N supervised worker processes sharing one listening address
(``repro-act serve --workers N``; mmap-loaded indexes share node-pool
pages across workers through the page cache). Indexes are
generation-tagged (:class:`IndexGeneration`) and operable at runtime
through the loopback-only admin API (:mod:`repro.serve.lifecycle`,
``repro-act admin``): register, reload, and retire indexes with zero
downtime, the same way on every server — a single process is a fleet
of one worker (:class:`FleetLifecycle`). Fleets can run
**sharded** (``repro-act serve --shards``): a generation-tagged
:class:`ShardMap` partitions the boundary-level cell-id keyspace
across worker slots, each worker memory-maps only its slice file, and
its service routes through a :class:`Router`: cross-shard requests
scatter/gather over the binary protocol with fleet-aware admission
control.

Quickstart::

    from repro import ACTIndex
    from repro.datasets import nyc
    from repro.serve import ACTService

    service = ACTService()
    service.registry.register(
        "neighborhoods",
        lambda: ACTIndex.build(nyc.neighborhoods(60), precision_meters=30.0),
    )
    result = service.query("neighborhoods", -73.97, 40.75)
"""

from . import binproto, chaos
from .server import ACTServer, create_server
from .budget import Budget
from .cache import CellResultCache
from .fleet import FleetConfig, ServingFleet, fleet_available
from .lifecycle import AdminOp, FleetLifecycle
from ..obs import SlowQueryLog, Trace, Tracer, mint_request_id
from .fleet import aggregate_snapshots
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .registry import IndexGeneration, IndexRegistry, prewarm_index
from .router import Router
from .service import TELEMETRY_MODES, ACTService, ServeConfig
from .shard import (ShardMap, ShardRange, plan_shard_map, shard_keys,
                    slice_index)

__all__ = [
    "ACTServer",
    "ACTService",
    "AdminOp",
    "Budget",
    "CellResultCache",
    "Counter",
    "FleetConfig",
    "FleetLifecycle",
    "Gauge",
    "Histogram",
    "IndexGeneration",
    "IndexRegistry",
    "MetricsRegistry",
    "Router",
    "ServeConfig",
    "ServingFleet",
    "ShardMap",
    "ShardRange",
    "SlowQueryLog",
    "TELEMETRY_MODES",
    "Trace",
    "Tracer",
    "aggregate_snapshots",
    "binproto",
    "chaos",
    "create_server",
    "fleet_available",
    "mint_request_id",
    "plan_shard_map",
    "prewarm_index",
    "shard_keys",
    "slice_index",
]
