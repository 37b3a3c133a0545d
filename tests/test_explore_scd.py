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
#: search order or the protocol changed and the witness moved.
PINNED_SCHEDULE = (("deliver", 0, 1), ("deliver", 3, 2), ("deliver", 7, 1))


def two_broadcasters():
    return make_scd_nodes([["a"], ["b"], []])


class TestInvariantsHoldExhaustively:
    def test_coherence_and_termination_clean_and_complete(self):
        # reduce=False: the "every schedule" claim must cover the exact
        # reachable set.  Sleep-set POR under-explores SCD because AMP
        # send seqs alias across converging prefixes (the stability
        # caveat in docs/EXPLORER.md; pinned by
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
        # SCD is the documented case where POR state counts are
        # traversal-order-dependent: AMP deliveries are labelled with
        # send seqs that differ across converging prefixes while
        # fingerprints ignore them, so per-fingerprint sleep sets alias
        # choices (docs/EXPLORER.md, "The stability caveat").  The
        # exhaustive count is stated at reduce=False, and POR's
        # under-exploration is pinned so a fix to choice labelling
        # shows up here as a deliberate test update, not silent drift.
        truth = explore(AmpModel(two_broadcasters()), reduce=False)
        assert truth.complete
        assert truth.stats.states == 4037
        assert truth.stats.transitions == 10690
        reduced = explore(AmpModel(two_broadcasters()), reduce=True)
        assert reduced.stats.states == 3295  # < 4037: aliasing prunes states


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

    def test_counterexample_replays_identically(self, result):
        cx = result.violations[0].counterexample
        assert cx is not None
        assert cx.kernel == "amp"
        assert cx.replays_identically()
        replayed_hash, _ = cx.replay()
        assert replayed_hash == cx.trace_hash
