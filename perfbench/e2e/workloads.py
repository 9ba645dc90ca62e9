"""The three workloads.

``replay-cold``
    The whole stream into an empty in-process ``DetectionService`` on a
    ``SimulatedClock``: submit a 10k-event chunk, ``pump()``, recheck every
    six pumps, one ``checkpoint()`` at the end.  No store, no HTTP.
``warm-trickle``
    A fresh server process on a store holding the first 97% of the stream.
    One connection POSTs the held-out tail open loop; a second sends
    verdict GETs open loop; the run ends with ``POST /v1/checkpoint``.
``verdict-reads``
    A fresh server process on the same kind of store, no writes; two
    keep-alive connections send verdict GETs back to back.

Every workload reports the same end-to-end metrics (:data:`e2e.spec.E2E`);
what "operation" and "latency" mean per workload is spelled out in
``perfbench/LAYERS.json``.  On the server workloads ``setup_s`` is the
median input and store build plus the median fresh-process restart to the
first verdict, so a slower restart shows in a gated metric.  The
workload-specific figures (restart, checkpoint, write latency, ...) are
printed as detail rows with their sample counts.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.graph import BipartiteGraph
from repro.serve import ClickEvent, DetectionService, ServeConfig, SimulatedClock, StalenessPolicy
from repro.store import DetectionStore
from repro.store.serialization import result_to_json

from . import inputs, layers, stats, tracer as tr
from .checks import Checks, batch_canonical, canonical, expected_verdict, verdict_matches
from .client import Server
from .inputs import PARAMS
from .stats import Cover, Submission

SETUP_REPEATS = 5
RESTARTS = 7

# replay-cold
CHUNK = 10_000
RECHECK_PUMPS = 6
SIM_RATE = 50_000.0  # simulated events per second stamped on the replay

# warm-trickle
WRITE_RATE = 300.0  # events/s offered
WRITE_BATCH = 25  # records per POST; the server rechecks every 40 POSTs
READ_RATE = 10.0  # verdict GETs/s offered

# verdict-reads
READERS = 2
MIN_READS = 100  # enough for a supported p90


@dataclass
class Outcome:
    """Everything one run measured."""

    workload: str
    e2e: dict = field(default_factory=dict)
    detail: list = field(default_factory=list)  # (name, value, unit, samples)
    per_layer: "dict | None" = None
    tree: "dict | None" = None
    checks: Checks = field(default_factory=Checks)
    ops: int = 0
    ops_failed: int = 0

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.ops_failed + self.checks.failed

    def row(self, name: str, value, unit: str, samples: int) -> None:
        self.detail.append((name, value, unit, samples))

    def distribution(self, name: str, unit: str, summary: stats.Summary, scale=1.0) -> None:
        """Detail rows for every supported percentile of ``summary``."""
        if not summary.percentiles:
            self.row(f"{name}_mean", summary.mean * scale, unit, summary.count)
        for pct, value in summary.percentiles.items():
            self.row(f"{name}_p{pct}", value * scale, unit, summary.count)

    def latency(self, summaries: "list[stats.Summary]", scale: float) -> None:
        """Gated p50/p90: the median over ``summaries`` (one per repetition)."""
        for pct in (50, 90):
            values = [summary.get(pct) for summary in summaries]
            if None in values:
                counts = [summary.count for summary in summaries]
                raise RuntimeError(f"p{pct} unsupported by {counts} samples")
            self.e2e[f"latency_p{pct}_ms"] = statistics.median(values) * scale


def _setup(outcome: Outcome, build) -> object:
    """Run ``build()`` :data:`SETUP_REPEATS` times; setup_s starts at the median."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - started)
    outcome.e2e["setup_s"] = statistics.median(seconds)
    outcome.row("build_s", outcome.e2e["setup_s"], "s", len(seconds))
    return built


def _add_restarts(outcome: Outcome, restart_s: list) -> None:
    """Count the median fresh-process restart into setup_s."""
    restart = statistics.median(restart_s)
    outcome.e2e["setup_s"] += restart
    outcome.row("restart_s", restart, "s", len(restart_s))
    outcome.row("setup_s", outcome.e2e["setup_s"], "s", 1)


def _overhead(untraced: float, traced: float, ops: int) -> "tuple[float, float]":
    """Tracing overhead from busy seconds per operation, untraced vs traced."""
    return (traced - untraced) * ops, (traced - untraced) / untraced if untraced else 0.0


# ----------------------------------------------------------------------
# replay-cold
# ----------------------------------------------------------------------
def _events(stream: inputs.Stream) -> list:
    return [
        ClickEvent(user, item, clicks, timestamp=index / SIM_RATE)
        for index, (user, item, clicks) in enumerate(stream.records(), start=1)
    ]


def _replay(events: list, outcome: Outcome, spans: "tr.Tracer | None" = None) -> dict:
    """One replay into a fresh service; checks run after the clock stops."""
    clock = SimulatedClock()
    service = DetectionService.over_graph(
        BipartiteGraph(),
        params=PARAMS,
        engine="auto",
        config=ServeConfig(
            queue_capacity=len(events) + 1,
            max_batch=CHUNK,
            staleness=StalenessPolicy(max_dirty=None, max_batches=RECHECK_PUMPS, max_age=None),
        ),
        clock=clock,
    )
    gc.collect()
    layers.reset_peak_rss()
    if spans is not None:
        layers.install(spans)
    submissions, covers = [], []
    try:
        started = time.perf_counter()
        for start in range(0, len(events), CHUNK):
            window = events[start : start + CHUNK]
            clock.advance_to(window[-1].timestamp)
            due = time.perf_counter()
            service.submit_events(window)
            report = service.pump()
            submissions.append(Submission(due, start, len(window)))
            if report.recheck_reason is not None:
                covers.append(Cover(time.perf_counter(), start + len(window)))
        ingest_done = time.perf_counter()
        result = service.checkpoint()
        done = time.perf_counter()
    finally:
        if spans is not None:
            spans.restore()
    covers.append(Cover(done, len(events)))
    peak = layers.peak_rss_mb()

    snapshot = service.snapshot()
    outcome.ops += len(events)
    outcome.ops_failed += snapshot.queue.shed + (len(events) - snapshot.applied)
    checks = outcome.checks
    checks.check("replay: applied == sent", snapshot.applied == len(events))
    checks.check("replay: nothing shed", snapshot.queue.shed == 0)
    checks.check(
        "replay: checkpoint == batch detect",
        canonical(result_to_json(result)) == batch_canonical(service.online.graph),
    )
    return {
        "ops": len(events),
        "ingest_s": ingest_done - started,
        "checkpoint_s": done - ingest_done,
        "busy_s": done - started,
        "freshness": stats.attribute_freshness(submissions, covers),
        "rechecks": len(covers) - 1,
        "peak_rss_mb": peak,
        "shed": snapshot.queue.shed,
    }


def replay_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome("replay-cold")
    events = _setup(outcome, lambda: _events(inputs.make_stream(seed)))
    # The replayed events are the benchmark's, not the service's: keep the
    # collector from rescanning them during every timed replay.
    gc.collect()
    gc.freeze()
    try:
        return _replay_cold(outcome, events, seconds, trace)
    finally:
        gc.unfreeze()


def _replay_cold(outcome: Outcome, events: list, seconds: float, trace: bool) -> Outcome:
    if trace:
        untraced = _replay(events, outcome)
        spans = tr.Tracer()
        traced = _replay(events, outcome, spans)
        outcome.tree = spans.spans
        per_event = [run["busy_s"] / run["ops"] for run in (untraced, traced)]
        overhead_s, share = _overhead(*per_event, traced["ops"])
        outcome.per_layer = layers.metrics(
            spans.spans,
            spans.values,
            events=traced["ops"],
            shed=traced["shed"],
            overhead_s=overhead_s,
            overhead_share=share,
        )
        return outcome

    runs = []
    timed = 0.0
    while not runs or timed < seconds:
        runs.append(_replay(events, outcome))
        timed += runs[-1]["busy_s"]
    rates = [run["ops"] / run["ingest_s"] for run in runs]
    freshness = stats.summarize_weighted([pair for run in runs for pair in run["freshness"]])
    outcome.e2e["ops_per_s"] = statistics.median(rates)
    # Median over replays, so one replay caught by a host slowdown does not
    # set the tail; the pooled distribution is printed below.
    outcome.latency([stats.summarize_weighted(run["freshness"]) for run in runs], 1000.0)
    outcome.e2e["peak_rss_mb"] = statistics.median([run["peak_rss_mb"] for run in runs])
    outcome.row("setup_s", outcome.e2e["setup_s"], "s", 1)
    outcome.row("replays", len(runs), "count", len(runs))
    outcome.row("events_per_s", outcome.e2e["ops_per_s"], "1/s", len(runs))
    outcome.distribution("freshness", "s", freshness)
    checkpoint = [run["checkpoint_s"] for run in runs]
    outcome.row("checkpoint_s", statistics.median(checkpoint), "s", len(checkpoint))
    outcome.row("rechecks_per_replay", runs[0]["rechecks"], "count", len(runs))
    outcome.row("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB", len(runs))
    return outcome


# ----------------------------------------------------------------------
# Server workloads
# ----------------------------------------------------------------------
def _read_mix(stream: inputs.Stream, size: int = 64) -> list:
    """Verdict targets: planted and ordinary ids on both sides, interleaved."""
    pools = [
        [("user", node) for node in stream.planted_users],
        [("user", node) for node in stream.ordinary_users],
        [("item", node) for node in stream.planted_items],
        [("item", node) for node in stream.ordinary_items],
    ]
    return [pools[index % 4][(index // 4) % len(pools[index % 4])] for index in range(size)]


def _expected(store_root: Path, mix: list) -> "tuple[int, dict]":
    store = DetectionStore.open(store_root)
    version = store.head
    result = store.load_result(version)
    return version, {key: expected_verdict(result, *key, version) for key in mix}


def _restarts(
    outcome: Outcome, store_root: Path, mix: list, expected: dict, count: int, trace: bool
) -> "tuple[Server, list, list]":
    """Time ``count`` fresh-process restarts; the last server is returned running."""
    restart_s, hellos = [], []
    for attempt in range(count):
        server = Server(store_root, trace=trace)
        try:
            connection = server.connect()
            reply = connection.verdict(*mix[0])
            connection.close()
        except BaseException:
            server.kill()
            raise
        restart_s.append(reply.done - server.spawned)
        hellos.append(server.hello)
        outcome.ops += 1
        outcome.ops_failed += not reply.ok
        outcome.checks.check(
            "restart: first verdict == persisted verdict at its version",
            reply.ok and verdict_matches(reply.body, expected[mix[0]]),
            str(reply.body),
        )
        if attempt < count - 1:
            server.stop()
            server.kill()
    return server, restart_s, hellos


def _open_loop(connection, schedule, request, out: list) -> None:
    """Send ``request(i)`` at each due time (or as soon as the previous returns)."""
    for index, due in enumerate(schedule):
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        reply = request(connection, index)
        out.append((due, reply))


def _trickle(
    stream, store_root: Path, seconds: float, outcome: Outcome, trace: bool, restarts: int
) -> dict:
    mix = _read_mix(stream)
    version, expected = _expected(store_root, mix)
    tail = stream.records(stream.prefix_len)
    total = min(len(tail), int(WRITE_RATE * seconds) // WRITE_BATCH * WRITE_BATCH)
    batches = [tail[start : start + WRITE_BATCH] for start in range(0, total, WRITE_BATCH)]
    server, restart_s, hellos = _restarts(outcome, store_root, mix, expected, restarts, trace)
    with server:
        writer, reader = server.connect(), server.connect()
        origin = time.perf_counter() + 0.05
        write_due = [origin + index * WRITE_BATCH / WRITE_RATE for index in range(len(batches))]
        read_due = [origin + index / READ_RATE for index in range(int(READ_RATE * seconds))]
        writes, reads = [], []

        def post(connection, index):
            records = [list(record) for record in batches[index]]
            return connection.call("POST", "/v1/clicks", {"records": records, "pump": True})

        def get(connection, index):
            return connection.verdict(*mix[index % len(mix)])

        read_thread = threading.Thread(target=_open_loop, args=(reader, read_due, get, reads))
        read_thread.start()
        try:
            _open_loop(writer, write_due, post, writes)
        finally:
            read_thread.join()
        # No body: the API leaves a checkpoint body unread on the connection.
        checkpoint = writer.call("POST", "/v1/checkpoint")
        live = writer.call("GET", "/v1/result")
        writer.close()
        reader.close()
        final = server.stop()

    submissions, covers, sent = [], [], 0
    last_version = version
    for (due, reply), batch in zip(writes, batches):
        submissions.append(Submission(due, sent, len(batch)))
        sent += len(batch)
        if reply.ok and reply.body["store_version"] > last_version:
            covers.append(Cover(reply.done, sent))
            last_version = reply.body["store_version"]
    covers.append(Cover(checkpoint.done, sent))
    write_failures = sum(not reply.ok for _, reply in writes) + (not checkpoint.ok)
    read_failures = sum(not reply.ok for _, reply in reads) + (len(read_due) - len(reads))
    outcome.ops += sent + len(read_due) + 2
    outcome.ops_failed += write_failures + read_failures + final["shed"] + (not live.ok)
    outcome.ops_failed += sum(
        reply.body.get("applied", 0) != len(batch)
        for (_, reply), batch in zip(writes, batches)
        if reply.ok
    )

    checks = outcome.checks
    checks.check("trickle: applied == sent", final["applied"] == sent, f"{final['applied']}/{sent}")
    checks.check("trickle: nothing shed", final["shed"] == 0)
    expected_graph = inputs.graph_of(stream.records(0, stream.prefix_len) + tail[:sent])
    checks.check(
        "trickle: checkpoint == batch detect",
        live.ok and canonical(live.body["result"]) == batch_canonical(expected_graph),
    )
    try:
        orphans = DetectionStore.open(store_root).verify()
        checks.check("trickle: store verify() clean", not orphans, f"orphans {orphans}")
    except Exception as error:  # corruption is a failed check, not a crash
        checks.check("trickle: store verify() clean", False, repr(error))

    return {
        "ops": sent,
        "restart_s": restart_s,
        "hellos": hellos,
        "freshness": stats.attribute_freshness(submissions, covers),
        "covers": covers,
        "origin": origin,
        "writes": writes,
        "reads": reads,
        "checkpoint": checkpoint,
        "busy_s": sum(reply.seconds for _, reply in writes) + checkpoint.seconds,
        "final": final,
    }


def warm_trickle(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome("warm-trickle")
    work = _workdir("warm-trickle")
    try:
        stream = _setup(outcome, _store_builder(seed, work))
        if trace:
            untraced = _trickle(stream, work / "store", seconds / 2, outcome, False, 1)
            _store_builder(seed, work)()
            traced = _trickle(stream, work / "store", seconds / 2, outcome, True, 1)
            _trace_from_server(outcome, traced, untraced, events=traced["ops"])
            return outcome
        run = _trickle(stream, work / "store", seconds, outcome, False, RESTARTS)
    finally:
        _cleanup(work)

    freshness = stats.summarize_weighted(run["freshness"])
    _add_restarts(outcome, run["restart_s"])
    # Bound by the offered schedule: it drops only when the service falls
    # behind.  Time spent in the program moves the freshness latencies and
    # the write_busy_s row, which spreads too much run to run to gate.
    outcome.e2e["ops_per_s"] = run["ops"] / (run["covers"][-1].done - run["origin"])
    outcome.latency([freshness], 1000.0)
    outcome.e2e["peak_rss_mb"] = run["final"]["peak_rss_mb"]
    outcome.row("events", run["ops"], "count", run["ops"])
    outcome.row("sustained_events_per_s", outcome.e2e["ops_per_s"], "1/s", run["ops"])
    outcome.row("write_busy_s", run["busy_s"], "s", len(run["writes"]) + 1)
    outcome.row("busy_events_per_s", run["ops"] / run["busy_s"], "1/s", run["ops"])
    outcome.distribution("freshness", "s", freshness)
    outcome.row("checkpoint_s", run["checkpoint"].seconds, "s", 1)
    outcome.row("rechecks", len(run["covers"]) - 1, "count", 1)
    outcome.distribution(
        "write_ms", "ms", stats.summarize(reply.done - due for due, reply in run["writes"]), 1000
    )
    outcome.distribution(
        "verdict_ms", "ms", stats.summarize(reply.done - due for due, reply in run["reads"]), 1000
    )
    lateness = [reply.sent - due for due, reply in run["writes"] + run["reads"]]
    outcome.distribution("send_late_s", "s", stats.summarize(lateness))
    outcome.row("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB", 1)
    return outcome


def _reads(
    store_root: Path, stream, seconds: float, outcome: Outcome, trace: bool, restarts: int
) -> dict:
    mix = _read_mix(stream)
    _, expected = _expected(store_root, mix)
    server, restart_s, hellos = _restarts(outcome, store_root, mix, expected, restarts, trace)
    with server:
        connections = [server.connect() for _ in range(READERS)]
        replies = [[] for _ in range(READERS)]
        barrier = threading.Barrier(READERS)
        starts = []

        def loop(slot: int) -> None:
            connection, out = connections[slot], replies[slot]
            barrier.wait()
            started = time.perf_counter()
            starts.append(started)
            index = slot
            while True:
                key = mix[index % len(mix)]
                out.append((key, connection.verdict(*key)))
                index += READERS
                elapsed = time.perf_counter() - started
                if elapsed >= 3 * seconds or (
                    elapsed >= seconds and sum(map(len, replies)) >= MIN_READS
                ):
                    break

        threads = [threading.Thread(target=loop, args=(slot,)) for slot in range(1, READERS)]
        for thread in threads:
            thread.start()
        try:
            loop(0)
        finally:
            for thread in threads:
                thread.join()
        wall = max(reply.done for out in replies for _, reply in out) - min(starts)
        for connection in connections:
            connection.close()
        final = server.stop()

    every = [(key, reply) for out in replies for key, reply in out]
    outcome.ops += len(every)
    outcome.ops_failed += sum(not reply.ok for _, reply in every)
    wrong = [
        key for key, reply in every if reply.ok and not verdict_matches(reply.body, expected[key])
    ]
    outcome.checks.check(
        "reads: every verdict == persisted verdict", not wrong, f"{len(wrong)} differ"
    )
    return {
        "ops": len(every),
        "reads": every,
        "wall": wall,
        "restart_s": restart_s,
        "hellos": hellos,
        "final": final,
        "busy_s": sum(reply.seconds for _, reply in every),
    }


def verdict_reads(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome("verdict-reads")
    work = _workdir("verdict-reads")
    try:
        stream = _setup(outcome, _store_builder(seed, work))
        if trace:
            untraced = _reads(work / "store", stream, seconds / 2, outcome, False, 1)
            traced = _reads(work / "store", stream, seconds / 2, outcome, True, 1)
            _trace_from_server(outcome, traced, untraced, events=0)
            return outcome
        run = _reads(work / "store", stream, seconds, outcome, False, RESTARTS)
    finally:
        _cleanup(work)

    latency = stats.summarize(reply.seconds for _, reply in run["reads"])
    _add_restarts(outcome, run["restart_s"])
    outcome.e2e["ops_per_s"] = len(run["reads"]) / run["wall"]
    outcome.latency([latency], 1000.0)
    outcome.e2e["peak_rss_mb"] = run["final"]["peak_rss_mb"]
    outcome.row("verdicts_per_s", outcome.e2e["ops_per_s"], "1/s", len(run["reads"]))
    outcome.distribution("verdict_ms", "ms", latency, 1000)
    outcome.row("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB", 1)
    return outcome


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
WORK_ROOT = Path(__file__).resolve().parents[2] / ".perfbench_work"


def _workdir(name: str) -> Path:
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cleanup(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run is still using it


def _store_builder(seed: int, work: Path):
    def build():
        stream = inputs.make_stream(seed)
        inputs.build_store(stream, work / "store")
        return stream

    return build


def _trace_from_server(outcome: Outcome, traced: dict, untraced: dict, events: int) -> None:
    """Per-layer metrics from the traced server's span tree."""
    trace = traced["final"]["trace"]
    tree = tr.load(trace)
    overhead_s, share = _overhead(
        untraced["busy_s"] / untraced["ops"], traced["busy_s"] / traced["ops"], traced["ops"]
    )
    outcome.tree = tree
    outcome.per_layer = layers.metrics(
        tree,
        trace["values"],
        events=events,
        shed=traced["final"]["shed"],
        import_s=traced["hellos"][-1]["import_s"],
        client_verdict_s=sum(reply.seconds for _, reply in traced["reads"]),
        overhead_s=overhead_s,
        overhead_share=share,
    )


WORKLOADS = {
    "replay-cold": replay_cold,
    "warm-trickle": warm_trickle,
    "verdict-reads": verdict_reads,
}
