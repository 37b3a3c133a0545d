"""Payload-unit accounting: the honest cost measure for full-information
protocols (a "message count" hides O(n) views inside one message)."""

import enum
import importlib
import types
from collections import namedtuple
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.amp.network import AsyncProcess
from repro.analyze.freeze import FrozenDict, FrozenList, FrozenSetView, deep_freeze
from repro.core import ModelViolation, payload_units


class TestScalars:
    @pytest.mark.parametrize(
        "value", [0, 7, 3.5, 1 + 2j, "hello", b"bytes", True, None]
    )
    def test_scalar_is_one_unit(self, value):
        assert payload_units(value) == 1


class TestContainers:
    def test_flat_sequence_sums_leaves(self):
        assert payload_units([1, 2, 3]) == 3
        assert payload_units((1, "a")) == 2
        assert payload_units({1, 2}) == 2
        assert payload_units(frozenset({"x"})) == 1

    def test_mapping_counts_keys_and_values(self):
        assert payload_units({0: "v0", 1: "v1"}) == 4

    def test_nesting_recurses(self):
        assert payload_units([(0, "a"), (1, ("b", "c"))]) == 5

    def test_empty_container_is_one_unit(self):
        # An empty message still occupies a frame on the wire.
        assert payload_units([]) == 1
        assert payload_units({}) == 1
        assert payload_units(frozenset()) == 1

    def test_dunder_protocol_overrides(self):
        class Compact:
            def __payload_units__(self):
                return 2

        assert payload_units(Compact()) == 2
        assert payload_units([Compact(), Compact()]) == 4

    def test_unknown_object_is_one_unit(self):
        class Opaque:
            pass

        assert payload_units(Opaque()) == 1


class TestOverrideValidation:
    """``__payload_units__`` must return a non-negative int — anything
    else would silently skew every volume metric downstream."""

    def _message(self, weight):
        class Weighted:
            def __payload_units__(self):
                return weight

        return Weighted()

    def test_zero_weight_is_allowed(self):
        # Unlike empty containers, an explicit override may claim free.
        assert payload_units(self._message(0)) == 0

    @pytest.mark.parametrize("bad", [-1, -100])
    def test_negative_weight_rejected(self, bad):
        with pytest.raises(ModelViolation, match="negative weight"):
            payload_units(self._message(bad))

    @pytest.mark.parametrize("bad", [2.5, "3", None, [1]])
    def test_non_int_weight_rejected(self, bad):
        with pytest.raises(ModelViolation, match="non-negative int"):
            payload_units(self._message(bad))

    def test_bool_weight_rejected(self):
        # bool is an int subclass, but True as a weight is a bug.
        with pytest.raises(ModelViolation, match="non-negative int"):
            payload_units(self._message(True))

    def test_error_names_the_offending_type(self):
        with pytest.raises(ModelViolation, match="Weighted"):
            payload_units(self._message("heavy"))


class TestKernelAccounting:
    def test_sync_kernel_meters_sent_and_delivered(self):
        from repro.sync import DropAllAdversary, complete, run_synchronous
        from repro.sync.algorithms import make_flooders

        n = 4
        result = run_synchronous(
            complete(n),
            make_flooders(n, rounds=1, mode="full"),
            list(range(n)),
        )
        assert result.payload_sent > 0
        assert result.payload_delivered == result.payload_sent
        # Round 1 in full mode: each process broadcasts its 1-pair view
        # to n-1 neighbors: n * (n-1) * 2 units.
        assert result.payload_sent == n * (n - 1) * 2

        dropped = run_synchronous(
            complete(n),
            make_flooders(n, rounds=1, mode="full"),
            list(range(n)),
            adversary=DropAllAdversary(),
        )
        assert dropped.payload_sent == n * (n - 1) * 2
        assert dropped.payload_delivered == 0

    def test_amp_runtime_meters_payload(self):
        from repro.amp.network import AsyncProcess, AsyncRuntime, FixedDelay

        class OneShot(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, ("hello", "world"))

            def on_message(self, ctx, src, payload):
                pass

        runtime = AsyncRuntime(
            [OneShot(), OneShot()],
            delay_model=FixedDelay(1.0),
            quiesce_when_decided=False,
        )
        result = runtime.run()
        assert result.messages_sent == 1
        assert result.payload_sent == 2
        assert result.payload_delivered == 2

    def test_aggregate_amp_sums_payload(self):
        from repro.amp.network import AsyncProcess, AsyncRuntime, FixedDelay
        from repro.harness import aggregate_amp

        class OneShot(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, [1, 2, 3])

            def on_message(self, ctx, src, payload):
                pass

        results = []
        for _ in range(3):
            runtime = AsyncRuntime(
                [OneShot(), OneShot()],
                delay_model=FixedDelay(1.0),
                quiesce_when_decided=False,
            )
            results.append(runtime.run())
        stats = aggregate_amp(results)
        assert stats.payload_sent == 9
        assert stats.payload_delivered == 9


# ---------------------------------------------------------------------------
# The concrete-type fast path agrees with the isinstance walk
# ---------------------------------------------------------------------------

_REF_SCALARS = (int, float, complex, str, bytes, bool, type(None))


def reference_units(message):
    """The unit's definition as a plain ``isinstance`` walk, kept here as
    the oracle for :func:`payload_units`'s concrete-type fast path."""
    if isinstance(message, _REF_SCALARS):
        return 1
    sizer = getattr(message, "__payload_units__", None)
    if sizer is not None:
        units = sizer()
        if isinstance(units, bool) or not isinstance(units, int) or units < 0:
            raise ModelViolation(f"bad weight {units!r}")
        return units
    if isinstance(message, Mapping):
        return sum(
            reference_units(k) + reference_units(v) for k, v in message.items()
        ) or 1
    if isinstance(message, (list, tuple, set, frozenset)):
        return sum(reference_units(item) for item in message) or 1
    return 1


Pair = namedtuple("Pair", "left right")


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2


class Sized(tuple):
    """A tuple subclass with its own weight: the sizer wins over its items."""

    def __payload_units__(self):
        return 42


class LoudInt(int):
    """A scalar subclass: a scalar counts 1 whatever it declares."""

    def __payload_units__(self):
        return 9


class ReadOnly(Mapping):
    """A mapping that is not a dict."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


_scalars = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Color)),
    st.integers().map(LoudInt),
)
_hashables = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.frozensets(inner, max_size=3)
    ),
    max_leaves=6,
)


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_hashables, inner, max_size=3),
        st.sets(_hashables, max_size=3),
        st.frozensets(_hashables, max_size=3),
        st.builds(Pair, inner, inner),
        st.lists(inner, max_size=3).map(Sized),
        st.dictionaries(_hashables, inner, max_size=3).map(ReadOnly),
        st.dictionaries(_hashables, inner, max_size=2).map(
            types.MappingProxyType
        ),
    )


payloads = st.recursive(_scalars, _containers, max_leaves=24)


class TestFastPathIsExact:
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    def test_matches_reference_walk(self, message):
        assert payload_units(message) == reference_units(message)

    @settings(max_examples=150, deadline=None)
    @given(payloads)
    def test_freezing_preserves_units(self, message):
        frozen = deep_freeze(message)
        assert payload_units(frozen) == payload_units(message)
        assert payload_units(frozen) == reference_units(frozen)

    def test_namedtuple_counts_its_fields(self):
        assert payload_units(Pair(1, (2, "x"))) == 3
        assert payload_units([Pair((), None)]) == 2

    def test_tuple_subclass_sizer_wins(self):
        assert payload_units(Sized((1, 2, 3))) == 42
        assert payload_units((Sized(()), 1)) == 43
        assert payload_units({"k": Sized([])}) == 43

    def test_scalar_subclasses_count_one(self):
        assert payload_units(Color.RED) == 1
        assert payload_units(LoudInt(5)) == 1
        assert payload_units((True, False, Color.GREEN, LoudInt(1))) == 4

    def test_frozen_containers(self):
        assert payload_units(FrozenList([1, (2, 3)])) == 3
        assert payload_units(FrozenDict({1: [2, 3]})) == 3
        assert payload_units(FrozenSetView({1, 2})) == 2
        assert payload_units(FrozenList()) == 1
        message = {"w": [(1, "a"), {2, 3}], "empty": {}}
        assert payload_units(deep_freeze(message)) == payload_units(message) == 7

    def test_non_dict_mappings(self):
        assert payload_units(ReadOnly({1: (2, 3)})) == 3
        assert payload_units(types.MappingProxyType({"a": None})) == 2
        assert payload_units(ReadOnly({})) == 1

    @pytest.mark.parametrize("bad", [True, False, -1, 2.5, "3", None])
    @pytest.mark.parametrize("base", [tuple, list, dict, frozenset])
    def test_bad_sizer_on_container_subclass_raises(self, base, bad):
        cls = type("Bad", (base,), {"__payload_units__": lambda self: bad})
        with pytest.raises(ModelViolation, match="Bad"):
            payload_units(cls())
        with pytest.raises(ModelViolation, match="Bad"):
            payload_units(("envelope", cls()))


# ---------------------------------------------------------------------------
# Context.broadcast measures its payload once for all n sends
# ---------------------------------------------------------------------------


class Broadcaster(AsyncProcess):
    """Every pid broadcasts on start; pid 0 also broadcasts without
    itself; pid 1 echoes pid 0's broadcasts; pid 2 sends one unicast."""

    def on_start(self, ctx):
        ctx.broadcast(("hello", ctx.pid, {"k": [ctx.pid, 2]}, ()))
        if ctx.pid == 0:
            ctx.broadcast(("more", [1, {2, 3}]), include_self=False)
        if ctx.pid == 2:
            ctx.send(3, ("direct", (4, 5)))

    def on_message(self, ctx, src, payload):
        if ctx.pid == 1 and src == 0:
            ctx.broadcast(("echo", payload))


def broadcasters(n=5):
    return [Broadcaster() for _ in range(n)]


#: n=5: 5 start broadcasts + 1 extra from pid 0 + 2 echoes by pid 1
BROADCASTS = 8
UNICASTS = 1
SENDS = 5 * 5 + 4 + 2 * 5 + UNICASTS


@pytest.fixture
def metering_spy(monkeypatch):
    """Counts metering calls in every AMP runtime and records every
    payload that passes through ``Context.send``."""
    from repro.amp import network
    from repro.explore import amp_model

    replay_module = importlib.import_module("repro.trace.replay")

    spy = types.SimpleNamespace(calls=0, sent=[])

    def counting(message):
        spy.calls += 1
        return payload_units(message)

    for module in (network, amp_model, replay_module):
        monkeypatch.setattr(module, "payload_units", counting)
    original_send = network.Context.send

    def recording_send(self, dst, payload, **kwargs):
        spy.sent.append(payload)
        return original_send(self, dst, payload, **kwargs)

    monkeypatch.setattr(network.Context, "send", recording_send)
    return spy


def _check(spy, result):
    assert spy.calls == BROADCASTS + UNICASTS
    assert len(spy.sent) == result.messages_sent == SENDS
    per_send = sum(payload_units(payload) for payload in spy.sent)
    assert result.payload_sent == per_send
    assert result.payload_delivered == per_send


class TestMeasureOncePerBroadcast:
    @pytest.mark.parametrize("with_sink", [False, True])
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_async_runtime(self, metering_spy, with_sink, sanitize):
        from repro.amp.network import AsyncRuntime, UniformDelay
        from repro.trace import MemorySink

        sink = MemorySink() if with_sink else None
        result = AsyncRuntime(
            broadcasters(),
            delay_model=UniformDelay(0.1, 1.0),
            seed=3,
            sink=sink,
            sanitize=sanitize,
        ).run()
        _check(metering_spy, result)
        if sink is not None:
            sends = [e for e in sink.events if e.kind == "send"]
            assert sum(e.data["units"] for e in sends) == result.payload_sent

    @pytest.mark.parametrize("with_sink", [False, True])
    def test_exploration_runtime(self, metering_spy, with_sink):
        from repro.explore.amp_model import AmpExplorationRuntime
        from repro.trace import MemorySink

        runtime = AmpExplorationRuntime(
            broadcasters(),
            sink=MemorySink() if with_sink else None,
        )
        runtime.start()
        while runtime.pending:
            src, dst, payload, _ = runtime.pending[min(runtime.pending)]
            runtime.apply(("deliver", src, dst, payload))
        _check(metering_spy, runtime.result())

    @pytest.mark.parametrize("with_sink", [False, True])
    def test_replay_runtime(self, metering_spy, with_sink):
        from repro.amp.network import AsyncRuntime, UniformDelay
        from repro.trace import MemorySink, ReplayRuntime, trace_hash

        recorded = MemorySink()
        AsyncRuntime(
            broadcasters(),
            delay_model=UniformDelay(0.1, 1.0),
            seed=5,
            sink=recorded,
        ).run()
        metering_spy.calls = 0
        metering_spy.sent.clear()
        sink = MemorySink() if with_sink else None
        result = ReplayRuntime(
            broadcasters(), recorded.events, seed=5, sink=sink
        ).run()
        _check(metering_spy, result)
        if sink is not None:
            assert trace_hash(sink.events) == trace_hash(recorded.events)
