"""Command-line interface: ``repro-act``.

Small operational front end over the library:

* ``repro-act info --dataset neighborhoods --precision 15`` — build an
  index over a synthetic dataset and print its Table-I-style metrics;
* ``repro-act query --dataset boroughs --lng -73.97 --lat 40.75`` —
  build (or reuse within the process) and run a point query;
* ``repro-act join --dataset census --points 100000`` — run the
  count-per-polygon workload and print throughput;
* ``repro-act demo`` — a 30-second end-to-end tour;
* ``repro-act serve --dataset neighborhoods --port 8080`` — run the
  long-lived HTTP query service (see :mod:`repro.serve`);
* ``repro-act serve --workers 4 --index-file idx.npz --mmap`` — the
  pre-fork serving fleet: N supervised worker processes on one
  listening address, node-pool pages shared through the page cache;
* ``repro-act admin reload nyc --path new.npz`` — drive a running
  server's (or fleet's) loopback admin API: list, register, reload, and
  retire indexes with zero downtime (see :mod:`repro.serve.lifecycle`);
* ``repro-act admin stats`` — scrape a running server's ``GET /metrics``
  (Prometheus text exposition) and print counters, gauges, and
  histogram quantile summaries (``--raw`` dumps the exposition).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import __version__
from .act.index import ACTIndex
from .datasets import nyc, points
from .serve.cache import DEFAULT_CAPACITY

#: Synthetic datasets the CLI can build indexes over.
DATASET_CHOICES = ("boroughs", "neighborhoods", "census")


def _dataset(name: str, size: Optional[int]):
    if name == "boroughs":
        return nyc.boroughs()
    if name == "neighborhoods":
        return nyc.neighborhoods(size or 289)
    if name == "census":
        return nyc.census_blocks(size or 1000)
    raise SystemExit(f"unknown dataset {name!r} "
                     f"(choose boroughs|neighborhoods|census)")


def _build(args) -> ACTIndex:
    polygons = _dataset(args.dataset, getattr(args, "size", None))
    start = time.perf_counter()
    index = ACTIndex.build(polygons, precision_meters=args.precision)
    elapsed = time.perf_counter() - start
    print(f"built {index} in {elapsed:.1f} s", file=sys.stderr)
    return index


def cmd_info(args) -> int:
    index = _build(args)
    stats = index.stats
    print(f"dataset                 : {args.dataset} "
          f"({stats.num_polygons} polygons)")
    print(f"precision bound         : {stats.precision_meters:g} m "
          f"(realized {index.guaranteed_precision_meters:.2f} m)")
    print(f"boundary level          : {stats.boundary_level}")
    print(f"indexed cells           : {stats.indexed_cells:,} "
          f"({stats.raw_cells:,} before denormalization)")
    print(f"ACT size                : {stats.trie_bytes / 1e6:.2f} MB "
          f"({stats.trie_nodes:,} nodes, fanout {stats.fanout})")
    print(f"lookup table            : {stats.lookup_table_bytes / 1e3:.1f} kB "
          f"({stats.lookup_table_sets} unique reference sets)")
    print(f"build individual covers : {stats.build_coverings_seconds:.2f} s")
    print(f"build super covering    : {stats.build_super_seconds:.2f} s")
    print(f"build trie              : {stats.build_trie_seconds:.2f} s")
    return 0


def cmd_query(args) -> int:
    index = _build(args)
    result = index.query(args.lng, args.lat)
    exact = index.query_exact(args.lng, args.lat)
    print(f"point ({args.lng}, {args.lat})")
    print(f"  true hits   : {list(result.true_hits)}")
    print(f"  candidates  : {list(result.candidates)}")
    print(f"  approximate : {list(result.all_ids)}")
    print(f"  exact       : {list(exact)}")
    return 0


def cmd_join(args) -> int:
    index = _build(args)
    lngs, lats = points.taxi_points(args.points, seed=args.seed)
    result = index.executor.join(lngs, lats, exact=args.exact)
    mode = "exact" if args.exact else "approximate"
    print(f"{mode} join of {args.points:,} points: "
          f"{result.stats.seconds:.3f} s "
          f"({result.stats.throughput_mpts:.2f} M points/s)")
    for pid, count in result.top_k(10).items():
        print(f"  polygon {pid:>6}: {count:,} points")
    return 0


def _serve_registry(args):
    """The registry + index name shared by single-process and fleet serve."""
    from .serve import IndexRegistry

    registry = IndexRegistry()
    name = args.dataset
    if args.mmap and not args.index_file:
        raise SystemExit("--mmap requires --index-file (only a serialized "
                         "index can be memory-mapped)")
    if args.index_file:
        registry.register_path(
            name, args.index_file,
            mmap_mode="r" if args.mmap else None,
            verify=getattr(args, "verify", "header"))
    else:
        dataset, size, precision = args.dataset, args.size, args.precision

        def build() -> ACTIndex:
            polygons = _dataset(dataset, size)
            return ACTIndex.build(polygons, precision_meters=precision)

        registry.register(name, build)
    return registry, name


def _serve_fleet(args, serve_config) -> int:
    """Multiprocess front: ``repro-act serve --workers N``."""
    import signal

    from .serve import FleetConfig, ServingFleet, fleet_available

    if not fleet_available():
        raise SystemExit("--workers > 1 needs the 'fork' start method, "
                         "which this platform lacks; run --workers 1")
    registry, name = _serve_registry(args)
    fleet = ServingFleet(registry, FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        binary_port=args.binary_port,
        serve=serve_config,
        shards=args.workers if args.shards else 0,
    ))
    start = time.perf_counter()
    fleet.start()
    host, port = fleet.address
    mode = "SO_REUSEPORT" if fleet.reuseport else "shared socket"
    sharded = f", {args.workers} shards" if args.shards else ""
    print(f"fleet of {args.workers} workers ({mode}{sharded}) serving "
          f"index {name!r} on http://{host}:{port} "
          f"(prewarmed in {time.perf_counter() - start:.1f} s)",
          file=sys.stderr)
    print(f"  try: curl 'http://{host}:{port}/stats' for fleet-wide "
          f"metrics", file=sys.stderr)
    if fleet.config.binary_port is not None:
        bhost, bport = fleet.binary_address
        print(f"  binary data plane on {bhost}:{bport} "
              f"(repro.serve.binproto.Client)", file=sys.stderr)
    if args.shards:
        from .serve.fleet import describe_cut

        print(f"  {describe_cut(fleet.last_cut)}", file=sys.stderr)
        addrs = ", ".join(f"{slot}={h}:{p}" for slot, (h, p)
                          in sorted(fleet.shard_addresses.items()))
        print(f"  shard binary sockets: {addrs}", file=sys.stderr)

    def on_term(signum, frame):
        fleet.shutdown()

    signal.signal(signal.SIGTERM, on_term)
    try:
        fleet.wait()
    except KeyboardInterrupt:
        pass
    finally:
        fleet.shutdown()
    return 0


def cmd_serve(args) -> int:
    import signal

    from .serve import ACTService, ServeConfig, create_server

    serve_config = ServeConfig(
        cache_capacity=args.cache_capacity,
        default_budget_ms=args.budget_ms,
        telemetry=args.telemetry,
        trace_sample_interval=args.trace_sample_interval,
        slow_query_ms=args.slow_query_ms,
    )
    if args.workers > 1 or args.shards:
        return _serve_fleet(args, serve_config)
    registry, name = _serve_registry(args)
    service = ACTService(registry=registry, config=serve_config)
    start = time.perf_counter()
    index = service.registry.get(name)
    print(f"materialized {index} in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    server = create_server(service, host=args.host, port=args.port,
                           binary_port=args.binary_port)
    (host, port), *more = server.addresses
    print(f"serving index {name!r} on http://{host}:{port}", file=sys.stderr)
    print(f"  try: curl 'http://{host}:{port}/query?index={name}"
          f"&lng=-73.97&lat=40.75'", file=sys.stderr)
    for bhost, bport in more:
        print(f"  binary data plane on {bhost}:{bport} "
              f"(repro.serve.binproto.Client)", file=sys.stderr)
    # SIGTERM drains like Ctrl-C, so the state directory goes too
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()  # the drain
        service.close()
    return 0


def cmd_admin(args) -> int:
    """Drive the admin API of a running server: ``repro-act admin …``."""
    import json
    import urllib.error
    import urllib.request
    from urllib.parse import quote

    base = args.url.rstrip("/")
    command = args.admin_command
    if command == "stats":
        return _admin_stats(base, args)
    if command == "indexes":
        request = urllib.request.Request(f"{base}/admin/indexes")
    elif command == "unregister":
        request = urllib.request.Request(
            f"{base}/admin/index/{quote(args.name, safe='')}",
            method="DELETE")
    else:  # register / reload
        body = {"name": args.name}
        if args.path is not None:
            body["path"] = args.path
        request = urllib.request.Request(
            f"{base}/admin/{command}",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST")
    try:
        with urllib.request.urlopen(request,
                                    timeout=args.timeout) as response:
            payload = json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:  # the error response holds the connection open
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:
                detail = ""
        print(f"admin {command} failed: HTTP {exc.code} {detail}",
              file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(f"cannot reach {base}: {exc.reason}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    if payload.get("complete") is False:
        # a fleet reload that was rolled back, or that some worker did
        # not map before the timeout: surface it in the exit code so
        # scripts notice
        return 1
    return 0


def _bucket_quantile(buckets, count: float, q: float) -> float:
    """Quantile estimate from cumulative ``(le, cumulative)`` buckets."""
    if count <= 0:
        return 0.0
    rank = q * count
    prev_bound, prev_cum = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return prev_bound
            width_count = cumulative - prev_cum
            if width_count <= 0:
                return bound
            frac = (rank - prev_cum) / width_count
            return prev_bound + frac * (bound - prev_bound)
        prev_bound, prev_cum = bound, cumulative
    return prev_bound


def _admin_stats(base: str, args) -> int:
    """``repro-act admin stats``: scrape and summarize ``/metrics``."""
    import urllib.error
    import urllib.request

    from .obs import parse_exposition, validate_exposition

    url = f"{base}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            text = response.read().decode("utf-8")
    except urllib.error.URLError as exc:
        print(f"cannot reach {url}: {exc}", file=sys.stderr)
        return 1
    if args.raw:
        print(text, end="")
        return 0
    problems = validate_exposition(text)
    for problem in problems:
        print(f"invalid exposition: {problem}", file=sys.stderr)
    families = parse_exposition(text)
    for family in sorted(families):
        fam = families[family]
        kind = fam["type"]
        if kind == "histogram":
            # regroup per label set, then summarize count/sum/quantiles
            series = {}
            for name, labels, value in fam["samples"]:
                key = tuple(sorted(
                    (k, v) for k, v in labels.items() if k != "le"))
                entry = series.setdefault(
                    key, {"buckets": [], "sum": 0.0, "count": 0.0})
                if name.endswith("_bucket"):
                    le = labels.get("le", "+Inf")
                    bound = float("inf") if le == "+Inf" else float(le)
                    entry["buckets"].append((bound, value))
                elif name.endswith("_sum"):
                    entry["sum"] = value
                elif name.endswith("_count"):
                    entry["count"] = value
            for key, entry in sorted(series.items()):
                labels = "".join(f" {k}={v}" for k, v in key)
                buckets = sorted(entry["buckets"])
                count = entry["count"]
                mean = entry["sum"] / count if count else 0.0
                p50 = _bucket_quantile(buckets, count, 0.50)
                p99 = _bucket_quantile(buckets, count, 0.99)
                print(f"{family}{labels}: count={count:.0f} "
                      f"mean={mean:.6g} p50~{p50:.6g} p99~{p99:.6g}")
        else:
            for name, labels, value in fam["samples"]:
                rendered = "".join(
                    f" {k}={v}" for k, v in sorted(labels.items()))
                print(f"{name}{rendered}: {value:g}")
    return 1 if problems else 0


def cmd_demo(args) -> int:
    args.dataset = "neighborhoods"
    args.size = 60
    args.precision = 30.0
    index = _build(args)
    lng, lat = index.polygons[7].centroid
    print(f"\nsample query at a polygon centroid ({lng:.4f}, {lat:.4f}):")
    print(f"  -> {index.query_exact(lng, lat)}")
    lngs, lats = points.taxi_points(100_000, seed=0)
    result = index.executor.join(lngs, lats)
    print(f"\njoined 100,000 taxi-like points in "
          f"{result.stats.seconds * 1e3:.0f} ms "
          f"({result.stats.throughput_mpts:.1f} M points/s)")
    print(f"busiest neighborhood: #{int(result.counts.argmax())} "
          f"with {int(result.counts.max()):,} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-act",
        description="Approximate geospatial joins with precision "
                    "guarantees (ACT, ICDE 2018 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", default="neighborhoods",
                       choices=DATASET_CHOICES,
                       help="synthetic dataset to index")
        p.add_argument("--size", type=int, default=None,
                       help="polygon count override")
        p.add_argument("--precision", type=float, default=15.0,
                       help="precision bound in meters (default 15)")

    p_info = sub.add_parser("info", help="build an index, print metrics")
    common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_query = sub.add_parser("query", help="point query")
    common(p_query)
    p_query.add_argument("--lng", type=float, required=True)
    p_query.add_argument("--lat", type=float, required=True)
    p_query.set_defaults(func=cmd_query)

    p_join = sub.add_parser("join", help="count points per polygon")
    common(p_join)
    p_join.add_argument("--points", type=int, default=100_000)
    p_join.add_argument("--seed", type=int, default=0)
    p_join.add_argument("--exact", action="store_true",
                        help="refine candidates (exact counts)")
    p_join.set_defaults(func=cmd_join)

    p_demo = sub.add_parser("demo", help="30-second tour")
    p_demo.set_defaults(func=cmd_demo)

    p_serve = sub.add_parser("serve", help="run the HTTP query service")
    common(p_serve)
    p_serve.add_argument("--index-file", default=None,
                         help="serve a serialized .npz index instead of "
                              "building from --dataset")
    p_serve.add_argument("--mmap", action="store_true",
                         help="memory-map the node pool from --index-file "
                              "(lazy cold start, page-cache sharing)")
    p_serve.add_argument("--verify", default="header",
                         choices=("off", "header", "full"),
                         help="artifact integrity checking on every load "
                              "of --index-file: header = manifest + "
                              "metadata checksums (default, mmap-cheap); "
                              "full = checksum every byte including the "
                              "node pool; off = trust the file")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--binary-port", type=int, default=None,
                         help="one more listening address (0 picks a "
                              "free port); every address speaks both HTTP "
                              "and the binary batch protocol (see "
                              "repro.serve.binproto)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="serving processes; >1 runs the pre-fork "
                              "fleet (shared listening address, "
                              "supervised restart, aggregated /stats)")
    p_serve.add_argument("--shards", action="store_true",
                         help="shard the fleet: one keyspace slice per "
                              "worker, cross-shard requests forwarded "
                              "over the binary protocol (implies a "
                              "binary data plane; see docs/"
                              "ARCHITECTURE.md)")
    p_serve.add_argument("--cache-capacity", type=int,
                         default=DEFAULT_CAPACITY,
                         help="cell result cache entries (0 disables; "
                              "default: %(default)s)")
    p_serve.add_argument("--budget-ms", type=float, default=None,
                         help="default per-request latency budget")
    p_serve.add_argument("--telemetry", default="full",
                         choices=("full", "counters", "off"),
                         help="full = counters + sampled tracing + slow-"
                              "query log (default); counters = bare "
                              "aggregates; off = no-op metrics")
    p_serve.add_argument("--trace-sample-interval", type=int, default=64,
                         help="trace every Nth request (0 disables "
                              "sampling; ?trace=1 still works)")
    p_serve.add_argument("--slow-query-ms", type=float, default=250.0,
                         help="requests slower than this land in the "
                              "slow-query log (GET /admin/slowlog)")
    p_serve.set_defaults(func=cmd_serve)

    p_admin = sub.add_parser(
        "admin", help="administer a running server or fleet (loopback)")
    p_admin.add_argument("--url", default="http://127.0.0.1:8080",
                         help="base URL of the running server")
    p_admin.add_argument("--timeout", type=float, default=60.0,
                         help="HTTP timeout in seconds (fleet reloads "
                              "wait for every worker to map them)")
    admin_sub = p_admin.add_subparsers(dest="admin_command", required=True)
    admin_sub.add_parser("indexes",
                         help="list indexes: name, generation, source, "
                              "bytes, mmap mode")
    p_stats = admin_sub.add_parser(
        "stats", help="scrape GET /metrics and summarize (counters, "
                      "gauges, histogram quantiles)")
    p_stats.add_argument("--raw", action="store_true",
                         help="dump the raw Prometheus exposition text")
    p_reg = admin_sub.add_parser(
        "register", help="publish a serialized index as a new name")
    p_reg.add_argument("name")
    p_reg.add_argument("--path", required=True,
                       help="serialized .npz index to serve")
    p_rel = admin_sub.add_parser(
        "reload", help="swap in a fresh generation with zero downtime "
                       "(on every worker)")
    p_rel.add_argument("name")
    p_rel.add_argument("--path", default=None,
                       help="repoint the index at a new .npz (default: "
                            "re-read its current source)")
    p_unreg = admin_sub.add_parser(
        "unregister", help="retire an index from serving")
    p_unreg.add_argument("name")
    p_admin.set_defaults(func=cmd_admin)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
