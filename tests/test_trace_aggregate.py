"""AggregateSink: counter parity with MemorySink, sampling, Lamport."""

import json

import pytest

from repro.sync import run_synchronous
from repro.sync.adversary import BoundedDropAdversary
from repro.sync.algorithms import (
    ColumnarAggregateFlooding,
    make_flooders,
)
from repro.sync.arraykernel import run_columnar
from repro.sync.kernel import CrashEvent
from repro.trace import (
    CRASH,
    DECIDE,
    DELIVER,
    DROP,
    SEND,
    AggregateSink,
    MemorySink,
)
from repro.sync.topology import ring


def run_traced(sink, engine="object"):
    """Ring of 10 under drops and a mid-send crash, on either engine."""
    n = 10
    faults = dict(
        adversary=BoundedDropAdversary(max_drops=2, seed=3),
        crash_schedule=(CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),),
        sink=sink,
    )
    inputs = [10 + i for i in range(n)]
    if engine == "columnar":
        return run_columnar(
            ring(n), ColumnarAggregateFlooding(rounds=6, op="min"), inputs, **faults
        )
    return run_synchronous(ring(n), make_flooders(n, rounds=6), inputs, **faults)


class TestCounterParity:
    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_matches_memory_sink(self, engine):
        mem, agg = MemorySink(), AggregateSink()
        run_traced(mem, engine)
        run_traced(agg, engine)
        kinds = [e.kind for e in mem.events]
        assert agg.sends == kinds.count(SEND)
        assert agg.delivers == kinds.count(DELIVER)
        assert agg.drops == kinds.count(DROP)
        assert agg.crashes == kinds.count(CRASH)
        assert agg.decides == kinds.count(DECIDE)
        assert sum(agg.round_sends) == agg.sends
        assert sum(agg.round_delivers) == agg.delivers

    def test_payload_matches_result(self):
        agg = AggregateSink()
        result = run_traced(agg)
        assert agg.payload_sent == result.payload_sent

    def test_no_events_kept_in_aggregate_mode(self):
        agg = AggregateSink()
        run_traced(agg)
        assert agg.events == []

    def test_columnar_runner_feeds_sink(self):
        agg = AggregateSink()
        n = 16
        result = run_columnar(
            ring(n),
            ColumnarAggregateFlooding(rounds=8, op="min"),
            list(range(n)),
            sink=agg,
        )
        assert agg.sends == result.messages_sent
        assert agg.delivers == result.message_count
        assert agg.decides == n
        assert agg.rounds == result.rounds


class TestSampling:
    def test_pid_sampling_keeps_only_touching_events(self):
        agg = AggregateSink(sample_pids=(0, 5))
        run_traced(agg)
        assert agg.events
        for event in agg.events:
            touched = {event.pid}
            touched |= {
                v for k, v in event.data.items() if k in ("src", "dst")
            }
            assert touched & {0, 5}
            assert event.vc == ()

    def test_round_sampling_keeps_markers(self):
        agg = AggregateSink(sample_every=3)
        run_traced(agg)
        marker_rounds = {e.data["round"] for e in agg.events}
        assert marker_rounds and all(r % 3 == 0 for r in marker_rounds)

    def test_lamport_monotone_per_pid(self):
        agg = AggregateSink(sample_pids=(0,))
        run_traced(agg)
        last = {}
        for event in agg.events:
            if event.pid in last and event.lamport:
                assert event.lamport > last[event.pid]
            if event.lamport:
                last[event.pid] = event.lamport

    def test_deliver_merges_send_clock(self):
        agg = AggregateSink(sample_pids=(0, 1, 2))
        run_synchronous(
            ring(5), make_flooders(5, rounds=3), list(range(5)), sink=agg
        )
        sends = {
            (e.data["src"], e.data["dst"], e.data["round"]): e.lamport
            for e in agg.events
            if e.kind == SEND
        }
        for event in agg.events:
            if event.kind == DELIVER:
                key = (event.data["src"], event.data["dst"], event.data["round"])
                if key in sends:
                    assert event.lamport > sends[key]

    def test_negative_sample_every_rejected(self):
        with pytest.raises(ValueError):
            AggregateSink(sample_every=-1)


class TestSummary:
    def test_summary_is_json_safe_and_complete(self):
        agg = AggregateSink(sample_pids=(0,), sample_every=2)
        run_traced(agg)
        summary = agg.summary()
        round_trip = json.loads(json.dumps(summary))
        assert round_trip["sends"] == agg.sends
        assert round_trip["drops_by_reason"]
        assert round_trip["sampled_events"] == len(agg.events)
        assert len(round_trip["round_sends"]) == summary["rounds"]
