"""Unit tests for the columnar engine (ColumnarRunner + ColumnarAlgorithm)."""

import pytest

from repro.core.exceptions import (
    ConfigurationError,
    ModelViolation,
    SimulationLimitExceeded,
)
from repro.sync.arraykernel import (
    ColumnarAlgorithm,
    ColumnarRunner,
    run_columnar,
)
from repro.sync.algorithms import ColumnarAggregateFlooding
from repro.sync.kernel import CrashEvent
from repro.sync.topology import grid, ring


class Chatterbox(ColumnarAlgorithm):
    """Broadcasts forever; never halts.  For limit tests."""

    def setup(self, eng):
        eng.broadcast(0, "hi")

    def on_round(self, eng, src, dst, payloads):
        eng.broadcast(0, "hi")


class Scripted(ColumnarAlgorithm):
    """Runs a list of (method, args) actions in setup, then halts all."""

    def __init__(self, actions):
        self.actions = actions

    def setup(self, eng):
        for method, args in self.actions:
            getattr(eng, method)(*args)

    def on_round(self, eng, src, dst, payloads):
        eng.halt_all()


class TestColumnarValidation:
    def test_send_to_non_neighbor_rejected(self):
        g = ring(6)
        alg = Scripted([("send", (0, 3, "x"))])
        with pytest.raises(ModelViolation, match="non-neighbor"):
            ColumnarRunner(g, alg, [None] * 6).run()

    def test_send_after_halt_rejected(self):
        g = ring(6)
        alg = Scripted([("halt", (0,)), ("send", (0, 1, "x"))])
        with pytest.raises(ModelViolation, match="halting"):
            ColumnarRunner(g, alg, [None] * 6).run()

    def test_validate_off_skips_neighbor_check(self):
        g = ring(6)
        alg = Scripted([("send", (0, 3, "x"))])
        result = ColumnarRunner(g, alg, [None] * 6, validate_sends=False).run()
        assert result.messages_sent == 1

    def test_double_decide_rejected(self):
        g = ring(6)
        alg = Scripted([("decide", (2, "a")), ("decide", (2, "b"))])
        with pytest.raises(ModelViolation, match="decided twice"):
            ColumnarRunner(g, alg, [None] * 6).run()

    def test_input_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="inputs"):
            ColumnarRunner(ring(6), Chatterbox(), [None] * 5)

    def test_duplicate_crash_pid(self):
        with pytest.raises(ConfigurationError, match="crashes twice"):
            ColumnarRunner(
                ring(6),
                Chatterbox(),
                [None] * 6,
                crash_schedule=(
                    CrashEvent(pid=1, round=1),
                    CrashEvent(pid=1, round=2),
                ),
            )

    def test_crash_round_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="start at 1"):
            ColumnarRunner(
                ring(6),
                Chatterbox(),
                [None] * 6,
                crash_schedule=(CrashEvent(pid=1, round=0),),
            )

    def test_max_rounds_enforced(self):
        with pytest.raises(SimulationLimitExceeded):
            ColumnarRunner(
                ring(6), Chatterbox(), [None] * 6, max_rounds=5
            ).run()


class TestColumnarSemantics:
    def test_halt_is_idempotent_and_decide_all_skips_halted(self):
        g = ring(5)

        class H(ColumnarAlgorithm):
            def setup(self, eng):
                eng.halt(0)
                eng.halt(0)
                eng.decide_all(["d"] * 5)
                eng.halt_all()

            def on_round(self, eng, src, dst, payloads):
                pass

        result = ColumnarRunner(g, H(), [None] * 5).run()
        assert result.outputs == [None, "d", "d", "d", "d"]
        assert result.halted == [True] * 5

    def test_crashed_decide_and_halt_are_noops(self):
        g = ring(5)

        class C(ColumnarAlgorithm):
            def on_round(self, eng, src, dst, payloads):
                if eng.round >= 2:
                    eng.decide(1, "late")  # pid 1 crashed in round 1
                    eng.halt(1)
                    eng.decide_all([str(p) for p in range(5)])
                    eng.halt_all()

        result = ColumnarRunner(
            g, C(), [None] * 5, crash_schedule=(CrashEvent(pid=1, round=1),)
        ).run()
        assert result.crashed == frozenset({1})
        assert result.outputs[1] is None
        assert result.outputs[0] == "0"

    def test_aggregate_min_on_ring(self):
        g = ring(12)
        inputs = [(7 * i + 3) % 29 for i in range(12)]
        result = run_columnar(
            g,
            ColumnarAggregateFlooding(rounds=6, op="min"),
            inputs,
            max_rounds=100,
        )
        assert result.outputs == [min(inputs)] * 12
        assert result.rounds == 6

    def test_aggregate_max_on_torus(self):
        g = grid(4, 5, torus=True)
        inputs = list(range(g.n))
        result = run_columnar(
            g,
            ColumnarAggregateFlooding(rounds=g.radius_bound(), op="max"),
            inputs,
            max_rounds=200,
        )
        assert result.outputs == [g.n - 1] * g.n

    def test_change_propagation_beats_full_flooding(self):
        """Re-broadcast-on-change sends far fewer messages than every
        process re-flooding every round."""
        n, rounds = 64, 32
        g = ring(n)
        inputs = [5] * n
        inputs[0] = 0
        result = run_columnar(
            g, ColumnarAggregateFlooding(rounds=rounds, op="min"), inputs
        )
        full = n * 2 * rounds  # every process re-broadcasting every round
        assert result.messages_sent < full / 4

