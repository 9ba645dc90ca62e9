"""End-to-end benchmark of the RICD detection service.

Run from the repository root::

    python3 perfbench/run.py --workload replay-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10          # every workload
    python3 perfbench/run.py --workload warm-trickle --trace 1    # per-layer table

Workloads, metrics and the layer map are described in ``BENCHMARK.json``
and ``perfbench/LAYERS.json``.  The program is built from ``src/`` of the
checkout the benchmark runs in; without it the benchmark exits with an
error and prints no result.

Output: a human-readable table of every metric with its unit and sample
count (and, with ``--trace 1``, the span tree with self time and an
``(untraced)`` remainder under every parent), then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.
"""

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="RICD end-to-end benchmark")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so server processes and work files are
    # cleaned up by the workloads' finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from e2e import inputs, tracer
    from e2e.spec import E2E, PER_LAYER
    from e2e.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")

    outcomes = []
    for name in names:
        outcome = WORKLOADS[name](args.seed, args.seconds, bool(args.trace))
        outcomes.append(outcome)
        print(f"\n== {name}  seed={args.seed}  seconds={args.seconds:g}  scale={inputs.SCALE:g}")
        if args.trace:
            print(tracer.render(outcome.tree))
            print()
            for metric, unit in PER_LAYER.items():
                print(f"{metric:<40} {outcome.per_layer[metric]:>14.6g} {unit}")
        else:
            for metric, value, unit, samples in outcome.detail:
                print(f"{metric:<28} {value:>14.6g} {unit:<6} n={samples}")
        for check, ok, detail in outcome.checks.results:
            print(f"check {'ok  ' if ok else 'FAIL'} {check}" + ("" if ok else f": {detail}"))
        rate = outcome.failed / outcome.attempted
        print(f"error_rate {rate:.6g} ({outcome.failed}/{outcome.attempted})")

    units = PER_LAYER if args.trace else E2E
    if len(outcomes) == 1:
        found = outcomes[0].per_layer if args.trace else outcomes[0].e2e
        metrics = {name: {"value": found[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            f"{outcome.workload}.{name}": {
                "value": (outcome.per_layer if args.trace else outcome.e2e)[name],
                "unit": unit,
            }
            for outcome in outcomes
            for name, unit in units.items()
        }
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
