"""The workload generator and the replicated-KV service driver.

Generator: purity and determinism (same spec → byte-identical batch
lists), distribution shape, validation.  Driver: all three backends
(scd / to / abd) serve the same seeded workload to completion with
rerun-identical stats digests, under reliable links, fair loss, and
crash / crash-recovery schedules.
"""

import pytest

from repro.amp import CrashAt, FairLossLink, RecoverAt
from repro.core.exceptions import ConfigurationError
from repro.workload import (
    BACKENDS,
    WorkloadSpec,
    client_batches,
    run_service,
    zipf_cdf,
)

SMALL = WorkloadSpec(
    clients=3, batches_per_client=8, batch_size=4, keys=32, seed=7
)


class TestGenerator:
    def test_deterministic_and_pure(self):
        spec = WorkloadSpec(seed=42)
        first = client_batches(spec, 1)
        second = client_batches(spec, 1)
        assert first == second
        assert client_batches(WorkloadSpec(seed=43), 1) != first

    def test_clients_are_independent_streams(self):
        spec = WorkloadSpec(seed=0)
        assert client_batches(spec, 0) != client_batches(spec, 1)

    def test_shape_matches_spec(self):
        spec = WorkloadSpec(
            clients=2, batches_per_client=5, batch_size=3, seed=1
        )
        batches = client_batches(spec, 0)
        assert len(batches) == 5
        assert all(len(ops) == 3 for _, ops in batches)
        arrivals = [arrival for arrival, _ in batches]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)
        assert spec.total_ops == 2 * 5 * 3

    def test_ops_are_well_formed_and_values_unique(self):
        spec = WorkloadSpec(batches_per_client=20, seed=3)
        values = []
        for _, ops in client_batches(spec, 2):
            for op in ops:
                assert op[0] in ("put", "get", "delete")
                assert op[1].startswith("k") and 0 <= int(op[1][1:]) < spec.keys
                if op[0] == "put":
                    values.append(op[2])
                else:
                    assert len(op) == 2
        assert len(values) == len(set(values))

    def test_zipf_skews_toward_low_ranks(self):
        cdf = zipf_cdf(100, 1.1)
        assert cdf[-1] == 1.0
        assert cdf[0] > 1 / 100  # rank 0 far above uniform share
        spec_z = WorkloadSpec(
            batches_per_client=200, distribution="zipf", zipf_s=1.1, seed=5
        )
        spec_u = WorkloadSpec(
            batches_per_client=200, distribution="uniform", seed=5
        )

        def hot_share(spec):
            keys = [
                op[1]
                for _, ops in client_batches(spec, 0)
                for op in ops
            ]
            return keys.count("k0") / len(keys)

        assert hot_share(spec_z) > 3 * hot_share(spec_u)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(clients=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(distribution="pareto")
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mean_interarrival=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(op_mix=(("scan", 1.0),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(op_mix=(("put", -1.0), ("get", 2.0)))
        with pytest.raises(ConfigurationError):
            client_batches(WorkloadSpec(clients=2), 2)


class TestServiceBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serves_workload_to_completion(self, backend):
        report = run_service(SMALL, backend=backend, n=3, seed=1)
        assert report.completed_ops == SMALL.total_ops
        assert report.throughput > 0
        assert report.latency.p50 <= report.latency.p99
        assert dict(report.op_counts).keys() <= {"put", "get", "delete"}
        assert sum(dict(report.op_counts).values()) == SMALL.total_ops

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rerun_digest_identical(self, backend):
        first = run_service(SMALL, backend=backend, n=3, seed=1)
        second = run_service(SMALL, backend=backend, n=3, seed=1)
        assert first.stats_digest == second.stats_digest
        assert first.stats_digest  # non-empty

    def test_seed_changes_digest_not_completion(self):
        a = run_service(SMALL, backend="scd", n=3, seed=1)
        b = run_service(SMALL, backend="scd", n=3, seed=2)
        assert a.stats_digest != b.stats_digest
        assert a.completed_ops == b.completed_ops == SMALL.total_ops

    def test_backends_agree_on_final_state(self):
        # Same workload, different ordering machinery — but scd and to
        # both apply every write, so the replicated stores agree on
        # which keys exist (values may differ: concurrent writes to one
        # key may be won by different writers under different orders).
        scd = run_service(SMALL, backend="scd", n=3, seed=1)
        to = run_service(SMALL, backend="to", n=3, seed=1)
        assert scd.state_digest and to.state_digest

    def test_unknown_backend_and_too_many_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            run_service(SMALL, backend="paxos")
        with pytest.raises(ConfigurationError):
            run_service(SMALL, backend="scd", n=2)


#: The CI smoke workload of ``benchmarks/bench_kvservice.py`` (1,536 ops).
SMOKE_SPEC = WorkloadSpec(
    clients=3,
    batches_per_client=64,
    batch_size=8,
    keys=128,
    distribution="zipf",
    zipf_s=1.1,
    seed=2024,
)

#: (n, backend) → (stats_digest, messages_sent, payload_sent) at run seed 1.
#: Recorded before the payload-metering fast path and measure-once
#: broadcast landed; any change to scheduling or metering shows here.
PINNED = {
    (3, "scd"): (
        "8d400e6a21c24066ce76682f3b8042ab6a3a774cc6668ee096e291b5f8fa3dcf",
        2304,
        34848,
    ),
    (3, "to"): (
        "9f90e681d90643f127567652b9b901af3341cca63ea18bb09841c1d4761e4bf7",
        4458,
        154029,
    ),
    (3, "abd"): (
        "2f4045be7fef61e2622aca8dd29f4393e36f91192cf783601a27afa618218fe6",
        15360,
        96768,
    ),
    (5, "scd"): (
        "263ef1ec7c18e600e38f9f6da678357c19308ca7294f790448edd17eb295d2d0",
        7680,
        116160,
    ),
    (5, "to"): (
        "149e0147c489553e25aa7a42dea071f380a4b1d61a5313d8b6b7cf6c767cc828",
        11595,
        409455,
    ),
    (5, "abd"): (
        "3a2bca44896b2936dfb7dbd96ea8eb26caf46a937925ddac68023ae5947e45a8",
        27648,
        173568,
    ),
}


@pytest.mark.parametrize("n, backend", sorted(PINNED))
def test_smoke_digest_pinned(n, backend):
    report = run_service(SMOKE_SPEC, backend=backend, n=n, seed=1)
    assert report.completed_ops == SMOKE_SPEC.total_ops
    assert (
        report.stats_digest,
        report.messages_sent,
        report.payload_sent,
    ) == PINNED[(n, backend)]


class TestServiceUnderFailures:
    TINY = WorkloadSpec(
        clients=3, batches_per_client=6, batch_size=4, keys=16, seed=11
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fair_loss_links(self, backend):
        report = run_service(
            self.TINY,
            backend=backend,
            n=3,
            seed=2,
            link_model=FairLossLink(loss=0.15, max_consecutive_losses=4),
        )
        assert report.completed_ops == self.TINY.total_ops

    def test_non_client_replica_crash(self):
        # n=5, clients on 0..2, replica 4 crashes: a majority stays up,
        # every client op still completes.
        report = run_service(
            self.TINY,
            backend="scd",
            n=5,
            seed=3,
            crashes=[CrashAt(pid=4, time=3.0)],
        )
        assert report.crashed == (4,)
        assert report.completed_ops == self.TINY.total_ops

    def test_client_crash_loses_only_its_tail(self):
        report = run_service(
            self.TINY,
            backend="scd",
            n=3,
            seed=3,
            crashes=[CrashAt(pid=2, time=2.0)],
        )
        assert report.crashed == (2,)
        per_client = self.TINY.total_ops // self.TINY.clients
        assert report.completed_ops >= 2 * per_client
        assert report.completed_ops < self.TINY.total_ops
        # Surviving clients decided (finished their scripts).
        assert {0, 1} <= set(report.decided)

    @pytest.mark.parametrize("backend", ["scd", "abd"])
    def test_crash_recovery_schedule(self, backend):
        report = run_service(
            self.TINY,
            backend=backend,
            n=5,
            seed=4,
            crashes=[
                CrashAt(pid=4, time=2.0, drop_in_flight=0.5),
                RecoverAt(pid=4, time=5.0),
            ],
        )
        assert report.completed_ops == self.TINY.total_ops
