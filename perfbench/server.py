"""System under test for the HTTP workloads: one server process on a store.

Started fresh for every restart the benchmark times::

    python3 perfbench/server.py --store DIR [--trace]

It resumes ``DetectionService.from_store`` on DIR, mounts ``serve_api`` on
an ephemeral localhost port and prints one JSON line (port and import
seconds).  A line on stdin (or its end) asks it to stop; it then
prints a final JSON line with its peak RSS and, when traced, its span
tree, and exits.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from e2e import layers, tracer  # noqa: E402
from e2e.inputs import PARAMS  # noqa: E402
from repro.serve import (  # noqa: E402
    DetectionService,
    MonotonicClock,
    ServeConfig,
    StalenessPolicy,
    serve_api,
)

#: Pumps between scheduled rechecks.  Each ``POST /v1/clicks`` with
#: ``pump: true`` is one pump, so with 25-record POSTs a recheck covers
#: every 1000 events.
RECHECK_PUMPS = 40


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    import_s = time.perf_counter() - STARTED

    spans = tracer.Tracer()
    if args.trace:
        layers.install(spans)
    service = DetectionService.from_store(
        args.store,
        params=PARAMS,
        config=ServeConfig(
            queue_capacity=1_000_000,
            max_batch=10_000,
            staleness=StalenessPolicy(max_dirty=None, max_batches=RECHECK_PUMPS, max_age=None),
        ),
        clock=MonotonicClock(),
    )
    server, thread = serve_api(service)
    print(json.dumps({"port": server.server_address[1], "import_s": import_s}), flush=True)
    sys.stdin.readline()
    server.shutdown()
    server.server_close()
    thread.join()
    snapshot = service.snapshot()
    print(
        json.dumps(
            {
                "peak_rss_mb": layers.peak_rss_mb(),
                "applied": snapshot.applied,
                "shed": snapshot.queue.shed,
                "trace": spans.dump() if args.trace else None,
            }
        ),
        flush=True,
    )
    spans.restore()
    return 0


if __name__ == "__main__":
    sys.exit(main())
