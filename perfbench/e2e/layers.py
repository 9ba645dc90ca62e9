"""Which public functions the traced run wraps, and the per-layer metrics.

:func:`install` is the single list of wrap points; :func:`metrics`
turns the resulting span tree into the ``per_layer`` metrics named in
``BENCHMARK.json`` (:data:`e2e.spec.PER_LAYER`).  Every workload reports
every metric; a layer the workload bypasses reads 0.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from . import tracer as tr
from .spec import PER_LAYER

_STORE_WRITES = (
    "store.put_snapshot",
    "store.put_delta",
    "store.put_thresholds",
    "store.put_result",
    "store.commit",
)
_STORE_LOADS = (
    "store.open",
    "store.load_graph",
    "store.load_result",
    "store.load_thresholds",
)


def _tree_bytes(root: Path, relpaths) -> int:
    total = 0
    for relpath in relpaths:
        path = root / relpath
        if path.is_file():
            total += path.stat().st_size
    return total


def install(t: tr.Tracer) -> None:
    """Wrap the service, incremental, graph, pipeline, store and API layers."""
    from repro.core import framework, incremental
    from repro.graph.bipartite import BipartiteGraph
    from repro.graph.indexed import IndexedGraph
    from repro.pipeline import stages
    from repro.serve.api import DetectionAPI
    from repro.serve.queue import BoundedEventQueue
    from repro.serve.service import DetectionService
    from repro.store.store import DetectionStore

    num_edges = BipartiteGraph.__dict__["num_edges"].fget

    def region_share(region, args, kwargs):
        graph = args[0] if args else kwargs["graph"]
        t.add("region_edges", num_edges(region))
        t.add("live_edges", num_edges(graph))

    def extracted(_result, args, _kwargs):
        t.add("screen_in", len(args[1].groups))

    def screened(_result, args, _kwargs):
        t.add("screen_out", len(args[1].groups))

    def drained(events, args, _kwargs):
        t.peak("depth_max", len(args[0]) + len(events))

    def committed(version, args, _kwargs):
        store = args[0]
        t.add("bytes_written", _tree_bytes(store.root, store.entry(version)["checksums"]))

    def compacted(version, args, _kwargs):
        store = args[0]
        entry = store.entry(version)
        snapshot = entry.get("snapshot", "")
        t.add(
            "bytes_written",
            _tree_bytes(store.root, [p for p in entry["checksums"] if p.startswith(snapshot)]),
        )

    # Batch boundaries only: the API's per-record DetectionService.submit
    # calls stay unwrapped and land in api.submit's self time.
    t.wrap(BoundedEventQueue, "submit_many", "queue.submit")
    t.wrap(BoundedEventQueue, "drain", "queue.drain", after=drained)
    t.wrap(DetectionService, "pump", "service.pump")
    t.wrap(DetectionService, "checkpoint", "service.checkpoint")
    t.wrap(DetectionService, "snapshot", "service.snapshot")
    t.wrap(incremental.IncrementalRICD, "ingest", "incremental.ingest")
    t.wrap(incremental.IncrementalRICD, "recheck", "incremental.recheck")
    t.wrap(incremental.IncrementalRICD, "recheck_full", "incremental.recheck_full")
    t.wrap(incremental.IncrementalRICD, "persist_checkpoint", "incremental.persist_checkpoint")
    t.wrap(incremental, "seed_expansion", "graph.region", after=region_share)
    t.wrap(IndexedGraph, "from_graph", "graph.index_build")
    t.wrap(IndexedGraph, "apply_delta", "graph.index_delta")
    t.wrap(BipartiteGraph, "num_edges", "graph.num_edges")
    t.wrap(framework.RICDDetector, "resolve_thresholds", "pipeline.thresholds")
    t.wrap(stages.Extraction, "run", "pipeline.extraction", after=extracted)
    t.wrap(stages.Screening, "run", "pipeline.screening", after=screened)
    t.wrap(stages.SizeCaps, "run", "pipeline.size_caps")
    t.wrap(stages.Identification, "run", "pipeline.identification")
    for name in _STORE_WRITES + _STORE_LOADS:
        after = committed if name == "store.commit" else None
        t.wrap(DetectionStore, name.split(".", 1)[1], name, after=after)
    t.wrap(DetectionStore, "compact", "store.compact", after=compacted)
    t.wrap(DetectionAPI, "submit_clicks", "api.submit")
    t.wrap(DetectionAPI, "verdict", "api.verdict")
    t.wrap(DetectionAPI, "checkpoint", "api.checkpoint")


def _nested(tree: dict, outer: str, inner: str) -> float:
    return sum(
        stat.total
        for path, stat in tree.items()
        if path.split(tr.SEP)[-2:] == [outer, inner]
    )


def metrics(
    tree: dict,
    values: dict,
    *,
    events: int = 0,
    shed: int = 0,
    import_s: float = 0.0,
    client_verdict_s: float = 0.0,
    overhead_s: float = 0.0,
    overhead_share: float = 0.0,
) -> dict:
    """The ``per_layer`` metrics of one traced run."""
    recheck_s = tr.busy(tree, "incremental.recheck")
    recheck_untraced = tr.self_time(tree, "incremental.recheck")
    recheck_ms = [seconds * 1000.0 for seconds in tr.durations(tree, "incremental.recheck")]
    ingest_s = tr.busy(tree, "incremental.ingest")
    verdict_calls = tr.calls(tree, "api.verdict")
    verdict_s = tr.busy(tree, "api.verdict")
    live_edges = values.get("live_edges", 0.0)
    screen_in = values.get("screen_in", 0.0)
    found = {
        "queue.submit_s": tr.busy(tree, "queue.submit"),
        "queue.drain_s": tr.busy(tree, "queue.drain"),
        "queue.shed_events": shed,
        "queue.depth_max": values.get("depth_max", 0),
        "service.pump_calls": tr.calls(tree, "service.pump"),
        "service.pump_self_s": tr.self_time(tree, "service.pump"),
        "incremental.ingest_s": ingest_s,
        "incremental.ingest_us_per_event": ingest_s / events * 1e6 if events else 0.0,
        "incremental.recheck_calls": tr.calls(tree, "incremental.recheck"),
        "incremental.recheck_s": recheck_s,
        "incremental.recheck_p50_ms": statistics.median(recheck_ms) if recheck_ms else 0.0,
        "incremental.recheck_max_ms": max(recheck_ms, default=0.0),
        "incremental.recheck_untraced_s": recheck_untraced,
        "incremental.recheck_named_share": (
            1.0 - recheck_untraced / recheck_s if recheck_s else 0.0
        ),
        "graph.region_s": tr.busy(tree, "graph.region"),
        "graph.region_edge_share": (
            values.get("region_edges", 0.0) / live_edges if live_edges else 0.0
        ),
        "graph.index_build_s": tr.busy(tree, "graph.index_build"),
        "graph.index_builds": tr.calls(tree, "graph.index_build"),
        "graph.index_delta_s": tr.busy(tree, "graph.index_delta"),
        "graph.num_edges_s": tr.busy(tree, "graph.num_edges"),
        "pipeline.thresholds_s": tr.busy(tree, "pipeline.thresholds"),
        "pipeline.extraction_s": tr.busy(tree, "pipeline.extraction"),
        "pipeline.screening_s": tr.busy(tree, "pipeline.screening"),
        "pipeline.identification_s": tr.busy(tree, "pipeline.identification"),
        "pipeline.screen_keep_ratio": (
            values.get("screen_out", 0.0) / screen_in if screen_in else 0.0
        ),
        "store.persist_s": sum(tr.busy(tree, name) for name in _STORE_WRITES),
        "store.commits": tr.calls(tree, "store.commit"),
        "store.bytes_written": values.get("bytes_written", 0),
        "store.compact_s": tr.busy(tree, "store.compact"),
        "store.load_s": sum(tr.busy(tree, name) for name in _STORE_LOADS),
        "restart.import_s": import_s,
        "api.submit_s": tr.busy(tree, "api.submit"),
        "api.verdict_s": verdict_s,
        "api.verdict_lock_wait_s": _nested(tree, "api.verdict", "service.snapshot"),
        "api.transport_ms": (
            (client_verdict_s - verdict_s) / verdict_calls * 1000.0 if verdict_calls else 0.0
        ),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_share,
    }
    if set(found) != set(PER_LAYER):
        differ = sorted(set(found) ^ set(PER_LAYER))
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {differ}")
    return {name: found[name] for name in PER_LAYER}


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` count (best effort, Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass

