"""Extraction-engine comparison: reference (dict) vs bitset (packed CSR).

Both engines compute the same greatest fixpoint of Algorithm 3's pruning
conditions (property-tested in ``tests/core/test_extraction_bitset.py``);
this bench records the wall-clock gap at paper scale.
"""

import pytest

from repro.config import RICDParams
from repro.core.extraction import extract_groups
from repro.core.extraction_bitset import extract_groups_bitset
from repro.core.framework import RICDDetector

PARAMS = RICDParams(k1=10, k2=10, alpha=1.0)


@pytest.mark.parametrize("engine", ["reference", "bitset"])
def test_extraction_engine(benchmark, scenario, engine):
    run = extract_groups if engine == "reference" else extract_groups_bitset
    groups = benchmark.pedantic(run, args=(scenario.graph, PARAMS), rounds=1, iterations=1)
    assert isinstance(groups, list)


def test_engines_identical_output(benchmark, scenario, emit_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    reference = extract_groups(scenario.graph, PARAMS)
    fast = extract_groups_bitset(scenario.graph, PARAMS)
    key = lambda groups: {
        (frozenset(map(str, g.users)), frozenset(map(str, g.items))) for g in groups
    }
    assert key(reference) == key(fast)
    emit_report(
        "Ablation (engines): reference and bitset extraction agree on "
        f"{len(reference)} groups at paper scale"
    )


@pytest.mark.parametrize("engine", ["reference", "bitset"])
def test_full_detector_engine(benchmark, scenario, engine):
    detector = RICDDetector(engine=engine)
    benchmark.pedantic(detector.detect, args=(scenario.graph,), rounds=1, iterations=1)
