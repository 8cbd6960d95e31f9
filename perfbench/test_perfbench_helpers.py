"""Unit tests for the benchmark's own helpers (no program under test needed)."""

from __future__ import annotations

import json
import os

import pytest

import pbstats as st
from pblayers import MOVES
from pbtrace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


# -- percentile rule -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert st.percentile(values, 50) == 50
    assert st.percentile(values, 90) == 90


def test_percentile_needs_ten_samples_beyond():
    assert st.samples_beyond(100, 90) == 10
    assert st.percentile(range(100), 90) == 89
    with pytest.raises(st.UnsupportedPercentile):
        st.percentile(range(99), 90)  # only 9 beyond
    with pytest.raises(st.UnsupportedPercentile):
        st.percentile(range(999), 99)
    assert st.percentile(range(1000), 99) == 989


def test_percentile_ignores_input_order():
    assert st.percentile([5, 1, 4, 2, 3] * 40, 50) == 3


# -- open-loop scheduling and lateness accounting -----------------------------


def test_due_times_are_fixed_rate():
    due = st.due_times(5, 0.25, start=10.0)
    assert due == [10.0, 10.25, 10.5, 10.75, 11.0]
    with pytest.raises(ValueError):
        st.due_times(3, 0.0)


def test_sealing_slots_wait_for_every_connection():
    # Connection 0 sends in even slots, 1 in odd slots; connection 1
    # lags, so it decides when the fleet's frontier passes a threshold.
    sends = [(0, 0, 1.0), (1, 1, 0.5), (2, 0, 3.0), (3, 1, 2.0), (4, 0, 2.5), (5, 1, 4.0)]
    assert st.sealing_slots(sends, [0.2, 0.5, 1.0, 2.0, 3.0, 5.0]) == [1, 1, 3, 3, 5, None]


def test_sealing_slots_ignore_a_lone_connection():
    # Until every connection has sent, the fleet knows nothing complete.
    assert st.sealing_slots([(0, 0, 9.0), (1, 1, 1.0)], [1.0, 2.0]) == [1, None]


def test_send_record_splits_lag_credit_wait_and_latency():
    # Due at 1.0, the generator got there at 1.2, credit freed at 1.5,
    # acked at 2.0: a stall charges its whole wait to the latency.
    rec = st.SendRecord(due=1.0, ready=1.2, sent=1.5, acked=2.0)
    assert rec.lag == pytest.approx(0.2)
    assert rec.credit_wait == pytest.approx(0.3)
    assert rec.latency == pytest.approx(1.0)


def test_send_record_on_time_has_no_lag():
    rec = st.SendRecord(due=1.0, ready=1.0, sent=1.0, acked=1.1)
    assert rec.lag == 0.0 and rec.credit_wait == 0.0
    assert rec.latency == pytest.approx(0.1)


# -- span self time ------------------------------------------------------------


def _span(sid, parent, start, end, cpu=None):
    cpu = (start, end) if cpu is None else cpu
    return st.Span(sid, parent, f"s{sid}", start, end, cpu[0], cpu[1])


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: counted against span 1 only
        _span(3, 0, 6.0, 7.0),
    ]
    selfs = st.self_times(spans)
    assert selfs[0] == (pytest.approx(6.0), pytest.approx(6.0))
    assert selfs[1] == (pytest.approx(2.0), pytest.approx(2.0))
    assert selfs[2] == (pytest.approx(1.0), pytest.approx(1.0))
    # Self times of a well-nested tree add up to the root's duration.
    assert sum(w for w, _ in selfs.values()) == pytest.approx(10.0)


def test_self_wall_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 6.0)]
    assert st.self_times(spans)[0][0] == pytest.approx(5.0)
    assert st.covered_length([(1, 5), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)


def test_layer_totals_group_by_name():
    spans = [
        st.Span(0, None, "outer", 0.0, 4.0, 0.0, 3.0),
        st.Span(1, 0, "inner", 1.0, 2.0, 1.0, 1.5),
        st.Span(2, None, "outer", 5.0, 6.0, 4.0, 5.0),
    ]
    totals = st.layer_totals(spans)
    assert totals["outer"].calls == 2
    assert totals["outer"].self_wall == pytest.approx(4.0)
    assert totals["outer"].self_cpu == pytest.approx(3.5)
    assert totals["inner"].self_wall == pytest.approx(1.0)


def test_tracer_records_nesting_and_envelopes():
    tracer = Tracer()

    class Box:
        def outer(self, envelope):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer.wrap(Box, "outer", "outer", envelope=lambda args: args[1])
    tracer.wrap(Box, "inner", "inner")
    assert Box().outer("e7") == 2
    tracer.uninstall()
    assert Box.outer.__name__ == "outer"  # originals restored
    inner, outer = tracer.spans  # inner finishes first
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.envelope == outer.envelope == "e7"
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- unattributed time ----------------------------------------------------------


def test_unattributed_is_wall_minus_layer_self_time():
    assert st.unattributed(10.0, [2.0, 3.5, 0.5]) == pytest.approx(4.0)
    spans = [_span(0, None, 0.0, 3.0), _span(1, 0, 1.0, 2.0), _span(2, None, 5.0, 6.0)]
    self_walls = [w for w, _ in st.self_times(spans).values()]
    # Two top-level calls covering 4 s of an 8 s run leave 4 s unattributed.
    assert st.unattributed(8.0, self_walls) == pytest.approx(4.0)


def test_median():
    assert st.median([3, 1, 2]) == 2
    assert st.median([4, 1, 2, 3]) == 2.5


# -- the benchmark definition --------------------------------------------------


def test_every_layer_metric_names_what_it_moves():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [e["name"] for e in spec["per_layer"]] == list(MOVES)
