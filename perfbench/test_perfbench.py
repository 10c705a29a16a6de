"""Self-tests of the benchmark's arithmetic and failure accounting.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math
import os
import signal
import sys
import time
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from forkrun import in_child  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from stats import Tally, geomean_of_medians, tail  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    value, percentile, count = tail([float(x) for x in range(20, 0, -1)])
    assert value == 10.0
    assert sum(1 for x in range(1, 21) if x > value) == 10
    assert count == 20
    assert percentile == pytest.approx(100.0 * 9 / 19)


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile, count = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0,
                                     8.0, 4.0, 6.0, 10.0, 11.0])
    assert (value, percentile, count) == (1.0, 0.0, 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_geomean_of_per_program_medians():
    # Medians 4 and 9: the geometric mean is 6, whatever the counts.
    assert geomean_of_medians({"a": [1.0, 100.0, 4.0], "b": [9.0]}) == (
        pytest.approx(6.0)
    )
    assert geomean_of_medians({"a": [2.0]}) == 2.0
    with pytest.raises(ValueError):
        geomean_of_medians({})


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 50, 70, 0],
        ["b.child", 55, 60, 2],
        ["late", 90, 120, 0],  # clipped to the parent's end
        ["overlap", 30, 45, 0],  # overlaps "a" by 10; counted once
    ]
    # root: 100 - union([10,45], [50,70], [90,100]) = 100 - 65
    assert self_times(spans) == [35, 30, 15, 5, 30, 15]


def test_span_recorder_nests_and_restores():
    recorder = SpanRecorder(launch=7)
    table = (
        (__name__, "_Layer", "outer", "layer.outer", None),
        (__name__, "_Layer", "inner", "layer.inner",
         lambda args, kwargs: args[1]),
        (__name__, "_Layer", "make", "layer.make", None),
    )
    restore = recorder.install(table)
    try:
        assert _Layer().outer() == 6
        assert isinstance(_Layer.make(), _Layer)
    finally:
        restore()
    assert not hasattr(_Layer.outer, "__wrapped__")
    names = [(row[0], row[3], row[4], row[5]) for row in recorder.spans]
    assert names == [
        ("layer.outer", -1, 7, 0),
        ("layer.inner", 0, 7, 3),
        ("layer.make", -1, 7, 0),
    ]
    assert all(row[1] <= row[2] for row in recorder.spans)


class _Layer:
    def outer(self):
        return 2 * self.inner(3)

    def inner(self, n):
        return n

    @classmethod
    def make(cls):
        return cls()


def _outcome(digest="d", status=0, instructions=5, stats=("s",)):
    return SimpleNamespace(output_digest=digest, exit_status=status,
                           instructions=instructions, stats=stats)


def test_failure_accounting_counts_dead_children_as_attempted():
    tally = Tally({"p": ("d", 0, 5)})
    killed = in_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
    exited = in_child(lambda: os._exit(3))
    raised = in_child(lambda: 1 / 0)
    good = in_child(_outcome)
    for child in (killed, exited, raised, good):
        tally.add("p", child)
    assert tally.attempted == 4
    assert tally.failed == 3
    reasons = [reason for _name, reason in tally.failures]
    assert reasons[0] == "signal %d" % signal.SIGKILL
    assert reasons[1] == "exit 3"
    assert "ZeroDivisionError" in reasons[2]


def test_failure_accounting_checks_references_and_stats():
    tally = Tally({"p": ("d", 0, 5)})
    ok = SimpleNamespace(ok=True, value=_outcome(), error="")
    assert tally.add("p", ok) is ok.value
    for bad in (_outcome(digest="x"), _outcome(status=1),
                _outcome(instructions=6), _outcome(stats=("other",))):
        assert tally.add("p", SimpleNamespace(ok=True, value=bad)) is None
    assert (tally.attempted, tally.failed) == (5, 4)


def test_timed_out_child_is_killed():
    child = in_child(lambda: time.sleep(30), timeout_s=0.5)
    assert not child.ok and child.error == "timeout"
    assert math.isfinite(child.maxrss_mb)
