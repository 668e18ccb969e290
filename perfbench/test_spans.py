"""Self-time arithmetic of spans.py on hand-built span trees.

    python3 -m pytest perfbench/test_spans.py
"""

import threading

import pytest

from spans import Recorder, Span, aggregate, self_times


def tree():
    # root on thread 1 from 0 to 10; its children come from three threads
    # and overlap: [1, 4] (thread 1), [3, 6] (thread 2), [5, 8] (thread 3),
    # whose union is [1, 8]
    return [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "a.inner", 2.0, 3.0, 1, 1),
        Span(3, "w", 3.0, 6.0, 0, 2),
        Span(4, "w", 5.0, 8.0, 0, 3),
        # children of the thread-3 span overlap each other: union [5, 7]
        Span(5, "leaf", 5.0, 6.0, 4, 3),
        Span(6, "leaf", 5.5, 7.0, 4, 4),
    ]


def test_self_time_subtracts_union_of_children_across_threads():
    own = self_times(tree())
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0,
                                 5: 1.0, 6: 1.5})


def test_aggregate_sums_by_name():
    agg = aggregate(tree())
    assert agg["w"] == pytest.approx({"s": 6.0, "self_s": 4.0, "calls": 2})
    assert agg["leaf"] == pytest.approx({"s": 2.5, "self_s": 2.5, "calls": 2})
    # self times add up to the busy time of all threads: the root's wall
    # time plus the stretches where two threads ran at once
    total = sum(v["self_s"] for v in agg.values())
    assert total == pytest.approx(10.0 + 1.0 + 1.0 + 0.5)


def test_child_outside_parent_is_clipped():
    spans = [Span(0, "p", 0.0, 2.0, None, 1), Span(1, "c", 1.5, 3.0, 0, 2)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_recorder_parents():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: next(ticks))

    def worker():
        rec.call("w", lambda: None)

    def body():
        rec.call("nested", lambda: None)
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.call("root", body)
    by_name = {s.name: s for s in rec.spans}
    root = by_name["root"]
    assert rec.root == root.id and root.parent is None
    assert by_name["nested"].parent == root.id
    assert by_name["w"].parent == root.id
    assert by_name["w"].thread != root.thread
    assert sum(aggregate(rec.spans)[n]["self_s"] for n in by_name) == root.end - root.start
