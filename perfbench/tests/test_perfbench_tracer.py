"""Span-tree arithmetic and wrapping from outside the program."""

import json
import threading
import types

import pytest

from e2e import tracer as tr
from e2e.tracer import SEP, SpanStat


def _tree():
    # recheck (10s) = region 6s + extraction 3s (of which index build 2s) + 1s untraced
    return {
        "recheck": SpanStat(10.0, 2, 9.0, [4.0, 6.0]),
        f"recheck{SEP}region": SpanStat(6.0, 2, 0.0, [3.0, 3.0]),
        f"recheck{SEP}extraction": SpanStat(3.0, 2, 2.0, [1.5, 1.5]),
        f"recheck{SEP}extraction{SEP}index_build": SpanStat(2.0, 2, 0.0, [1.0, 1.0]),
        "checkpoint": SpanStat(1.0, 1, 0.5, [1.0]),
        f"checkpoint{SEP}recheck": SpanStat(0.5, 1, 0.0, [0.5]),
    }


class TestArithmetic:
    def test_self_time_is_span_minus_children(self):
        tree = _tree()
        assert tr.self_time(tree, "recheck") == pytest.approx(1.0 + 0.5)
        assert tr.self_time(tree, "extraction") == pytest.approx(1.0)
        assert tr.self_time(tree, "region") == pytest.approx(6.0)

    def test_busy_counts_each_layer_once_across_parents(self):
        tree = _tree()
        assert tr.busy(tree, "recheck") == pytest.approx(10.5)
        assert tr.calls(tree, "recheck") == 3
        assert sorted(tr.durations(tree, "recheck")) == [0.5, 4.0, 6.0]

    def test_untraced_row_under_every_parent(self):
        rows = tr.rows(_tree())
        labels = [(depth, label) for depth, label, *_ in rows]
        assert labels == [
            (0, "recheck"),
            (1, "region"),
            (1, "extraction"),
            (2, "index_build"),
            (2, "(untraced)"),
            (1, "(untraced)"),
            (0, "checkpoint"),
            (1, "recheck"),
            (1, "(untraced)"),
        ]
        untraced = {
            (rows[index - 1][1] if depth == 2 else "recheck"): total
            for index, (depth, label, _, total, _) in enumerate(rows[:6])
            if label == "(untraced)"
        }
        assert untraced == {"index_build": pytest.approx(1.0), "recheck": pytest.approx(1.0)}

    def test_dump_load_round_trip(self):
        spans = tr.Tracer()
        spans.spans = _tree()
        assert tr.load(json.loads(json.dumps(spans.dump()))) == _tree()


class _Target:
    def method(self, value):
        return self.helper(value) + 1

    def helper(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return value

    @property
    def size(self):
        return 7


class TestWrapping:
    def test_nested_calls_form_a_tree_and_restore_undoes(self):
        spans = tr.Tracer()
        original = _Target.__dict__["method"]
        spans.wrap(_Target, "method", "outer")
        spans.wrap(_Target, "helper", "inner")
        spans.wrap(_Target, "build", "build")
        spans.wrap(_Target, "size", "size")
        target = _Target()
        assert target.method(3) == 7
        assert _Target.build(5) == 5
        assert target.size == 7
        assert set(spans.spans) == {"outer", f"outer{SEP}inner", "build", "size"}
        outer = spans.spans["outer"]
        assert outer.child == pytest.approx(spans.spans[f"outer{SEP}inner"].total)
        spans.restore()
        assert _Target.__dict__["method"] is original
        assert isinstance(_Target.__dict__["build"], classmethod)
        assert isinstance(_Target.__dict__["size"], property)

    def test_module_attribute_is_wrapped_where_the_caller_looks(self):
        module = types.SimpleNamespace(expand=lambda graph: graph + 1)
        spans = tr.Tracer()
        seen = []
        spans.wrap(module, "expand", "region", after=lambda result, args, kw: seen.append(result))
        assert module.expand(1) == 2
        assert seen == [2] and spans.spans["region"].calls == 1
        spans.restore()
        assert module.expand(1) == 2 and spans.spans["region"].calls == 1

    def test_threads_keep_separate_stacks(self):
        spans = tr.Tracer()
        spans.wrap(_Target, "method", "outer")
        spans.wrap(_Target, "helper", "inner")
        try:
            workers = [
                threading.Thread(target=lambda: [_Target().method(1) for _ in range(200)])
                for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            spans.restore()
        assert set(spans.spans) == {"outer", f"outer{SEP}inner"}
        assert spans.spans["outer"].calls == spans.spans[f"outer{SEP}inner"].calls == 800
