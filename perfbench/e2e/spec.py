"""Metric names and units, read from the repository's ``BENCHMARK.json``.

``BENCHMARK.json`` is the single list of metrics: the run prints exactly
these, in this order, and :func:`e2e.layers.metrics` refuses to report a
per-layer metric it does not name.
"""

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

_SPEC = json.loads(BENCHMARK.read_text())

#: ``name -> unit`` of every end-to-end metric (``--trace 0``).
E2E = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}

#: ``name -> unit`` of every per-layer metric (``--trace 1``).
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}
