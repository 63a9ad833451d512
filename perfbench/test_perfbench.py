"""Unit tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, stats  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_latency_summary_reports_percentile_and_count():
    samples = [i / 1000 for i in range(1, 81)]  # 1..80 ms
    out = stats.latency_summary(samples)
    assert out["tail_percentile"] == 75.0
    assert out["samples"] == 80
    assert out["p50_ms"] == pytest.approx(40.5)
    assert out["tail_ms"] == pytest.approx(60.25)
    beyond = sum(1 for s in samples if s * 1e3 > out["tail_ms"])
    assert beyond >= stats.MIN_BEYOND


def test_latency_summary_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.latency_summary([0.001] * 19)


def _book(tracer, calls):
    """Replay ``(name, duration, [children])`` trees through Tracer.record."""
    def walk(stack, node):
        name, dur, children = node
        stack.append([name, 0.0, 0.0])
        for child in children:
            walk(stack, child)
        _, _, child_s = stack.pop()
        tracer.record(stack, name, dur, child_s)

    for node in calls:
        walk([], node)


def test_self_times_partition_root_time():
    tracer = layers.Tracer()
    _book(tracer, [
        ("gemm", 10.0, [("run", 8.0, [("consult", 3.0, []), ("consult", 2.0, [])]),
                        ("attribute", 1.0, [])]),
        ("gemm", 4.0, [("run", 4.0, [])]),
    ])
    snap = tracer.snapshot()
    assert snap["layers"]["gemm"] == [2, 14.0, 1.0]
    assert snap["layers"]["run"] == [2, 12.0, 7.0]
    assert snap["layers"]["consult"] == [2, 5.0, 5.0]
    assert snap["layers"]["attribute"] == [1, 1.0, 1.0]
    assert snap["root_s"] == 14.0
    layers.check(snap)
    assert layers.self_sum(snap) == snap["root_s"]


def test_recursion_counts_inclusive_time_once():
    tracer = layers.Tracer()
    _book(tracer, [("tile", 6.0, [("tile", 4.0, [("tile", 1.0, [])])])])
    snap = tracer.snapshot()
    calls, incl, own = snap["layers"]["tile"]
    assert (calls, incl, own) == (3, 6.0, 6.0)
    layers.check(snap)


def test_check_rejects_double_counting():
    snap = {"pid": 1, "root_s": 10.0,
            "layers": {"a": [1, 10.0, 10.0], "b": [1, 4.0, 4.0]}}
    with pytest.raises(AssertionError):
        layers.check(snap)


def test_diff_and_merge():
    before = {"pid": 7, "root_s": 2.0, "layers": {"a": [1, 2.0, 2.0]}}
    after = {"pid": 7, "root_s": 5.0,
             "layers": {"a": [2, 4.0, 4.0], "b": [1, 1.0, 1.0]}}
    d = layers.diff(after, before)
    assert d["root_s"] == 3.0
    assert d["layers"] == {"a": [1, 2.0, 2.0], "b": [1, 1.0, 1.0]}
    layers.check(d)
    m = layers.merge([d, d])
    assert m["root_s"] == 6.0 and m["layers"]["a"] == [2, 4.0, 4.0]
    layers.check(m)


class _Leaf:
    def work(self, n):
        return sum(range(n))


class _Node:
    def __init__(self):
        self.leaf = _Leaf()

    def work(self, n):
        return self.leaf.work(n) + self.leaf.work(n)


def test_wrappers_restore_and_partition_across_threads(monkeypatch):
    monkeypatch.setattr(layers, "LAYERS", (
        ("node", f"{__name__}:_Node.work"),
        ("leaf", f"{__name__}:_Leaf.work"),
    ))
    original = _Node.work
    tracer = layers.Tracer()
    with layers.traced(tracer):
        threads = [threading.Thread(target=lambda: [_Node().work(2000) for _ in range(50)])
                   for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    assert _Node.work is original
    snap = tracer.snapshot()
    assert snap["layers"]["node"][0] == 150
    assert snap["layers"]["leaf"][0] == 300
    layers.check(snap)


def test_call_log_times_instance_and_class_calls():
    leaf = _Leaf()
    with layers.call_log(leaf, "work") as inst, layers.call_log(_Node, "work") as cls:
        _Node().work(10)
        leaf.work(10)
    assert len(inst) == 1 and len(cls) == 1
    assert "work" not in vars(leaf)
    assert _Node.work.__name__ == "work" and not hasattr(_Node.work, "__wrapped__")


def test_benchmark_json_matches_the_catalogue():
    import json

    from perfbench import run, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    command = spec["command"]
    assert set(run._limits(command[command.index("--limits-ms") + 1])) == set(run.WORKLOADS)


def test_serve_pool_is_drawn_from_the_gemm_pool():
    from perfbench import workloads

    pool = workloads._serve_pool()
    gemm = workloads.gemm_pool()
    for cls, shape in pool[::2]:
        assert shape in gemm[cls]
    for (cls, shape), (near_cls, near) in zip(pool[::2], pool[1::2]):
        assert near_cls == cls and near != shape and near[1:] == shape[1:]


def test_serve_requests_have_the_same_mix_for_every_seed():
    import numpy as np

    from perfbench import workloads

    pool = workloads._serve_pool()

    def counts(seed):
        reqs = workloads._requests(np.random.default_rng(seed), pool, 4)
        return sorted((shape, sum(1 for r, _ in reqs if r[1] == shape)) for _, shape in pool)

    assert counts(1) == counts(2)
    assert len(workloads._requests(np.random.default_rng(1), pool, 4)) == 4 * workloads.SERVE_ROUND
