"""Exhaustive model checking of SCD-broadcast (EXPERIMENTS A8).

Two verdicts, both acceptance criteria for the SCD subsystem:

1. at ``n = 3`` with two broadcasters, **every** schedule satisfies
   MS-Ordering + Integrity, and every terminal state delivered
   everything — a *complete* exploration, not sampling;
2. the total-order strengthening (all processes see the same set
   sequence) is **violated**, with a replayable counterexample — the
   machine-checked witness that SCD sits strictly below TO-broadcast
   in the paper's hierarchy.
"""

import pytest

from repro.explore import (
    AmpModel,
    BFS,
    explore,
    make_scd_nodes,
    scd_coherence,
    scd_termination,
    scd_uniform_sets,
)

#: The pinned schedule (deliver choices) of the non-total-order
#: counterexample found below.  Exploration is deterministic, so this
#: exact schedule is rediscovered every run; a change here means the
#: search order or the protocol changed and the witness moved.  Labels
#: name message content: p0's forward of "a" to p1, p1's forward of "b"
#: to p2, then p2's forward of "b" to p1.
PINNED_SCHEDULE = (
    ("deliver", 0, 1, ("scd", "fwd", (0, 0), "a", 0, 1)),
    ("deliver", 1, 2, ("scd", "fwd", (1, 0), "b", 1, 1)),
    ("deliver", 2, 1, ("scd", "fwd", (1, 0), "b", 2, 1)),
)

#: The witness's recorded trace.  It was first recorded when choices
#: were labelled by send sequence numbers, as
#: ``(("deliver", 0, 1), ("deliver", 3, 2), ("deliver", 7, 1))``; the
#: content schedule above delivers the same three sends (runtime send
#: seqs 0, 3 and 7), so the trace is byte-identical.
PINNED_TRACE_HASH = (
    "182f116f47e988dfff42b9f6b236e75cd4e144530990561ff175310e895c0d01"
)


def two_broadcasters():
    return make_scd_nodes([["a"], ["b"], []])


class TestInvariantsHoldExhaustively:
    def test_coherence_and_termination_clean_and_complete(self):
        # reduce=False checks every transition, not only every state
        # (sleep sets visit the same states: see
        # TestSleepSetAliasing.test_scd_choice_label_aliasing below).
        result = explore(
            AmpModel(two_broadcasters()),
            properties=[scd_coherence(), scd_termination()],
            reduce=False,
        )
        assert result.ok, result.violations
        assert result.complete
        # State-space size is pinned loosely: collapse (dedup broken)
        # or blowup (fingerprints gained noise) both fail.
        assert 1_000 <= result.stats.states <= 10_000
        assert result.stats.terminals >= 100

    def test_three_broadcasters_bounded_depth(self):
        # Heavier instance, bounded: still no violation within the bound.
        result = explore(
            AmpModel(make_scd_nodes([["a"], ["b"], ["c"]])),
            properties=[scd_coherence()],
            strategy=BFS(max_depth=8),
        )
        assert result.ok, result.violations


class TestSleepSetAliasing:
    def test_scd_choice_label_aliasing(self):
        # Sleep sets once kept 3,295 of SCD's 4,037 states.  The cause
        # was the independence relation (a delivery that settles the
        # last undecided process disables every other choice), not
        # choice labels; with that fixed and content labels in place,
        # POR visits every state and only skips transitions
        # (docs/EXPLORER.md, "Sleep sets and soundness").
        truth = explore(AmpModel(two_broadcasters()), reduce=False)
        assert truth.complete
        assert truth.stats.states == 4037
        assert truth.stats.transitions == 10690
        reduced = explore(AmpModel(two_broadcasters()), reduce=True)
        assert reduced.complete
        assert reduced.stats.states == 4037
        assert reduced.stats.transitions < truth.stats.transitions


class TestScdIsNotTotalOrder:
    @pytest.fixture(scope="class")
    def result(self):
        return explore(
            AmpModel(two_broadcasters()),
            properties=[scd_uniform_sets()],
        )

    def test_uniform_sequences_are_violated(self, result):
        assert not result.ok
        violation = result.violations[0]
        assert violation.property == "scd-uniform-sets"
        assert "diverge" in violation.message

    def test_counterexample_schedule_is_pinned(self, result):
        assert result.violations[0].schedule == PINNED_SCHEDULE
        assert result.violations[0].counterexample.trace_hash == PINNED_TRACE_HASH

    def test_counterexample_replays_identically(self, result):
        cx = result.violations[0].counterexample
        assert cx is not None
        assert cx.kernel == "amp"
        assert cx.replays_identically()
        replayed_hash, _ = cx.replay()
        assert replayed_hash == cx.trace_hash
