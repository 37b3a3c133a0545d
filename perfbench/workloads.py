"""The four benchmark workloads: seeded inputs, timed calls, checks.

Every :class:`Workload` is two functions and a reference table:

* ``setup(seed, size)`` builds the inputs from the seed (the program
  receives only these) plus whatever the timed calls need built first
  (the spec and its batches, the exploration model, the topology);
* ``run(inputs, reference)`` makes the timed call(s), checks every
  output and returns an :class:`Outcome` (``kv-service`` also offers
  one timed call per backend as ``legs``);
* ``reference[size]`` pins what the checks compare against.

A failed check never raises: it is counted as failed ops in the
outcome, and the benchmark moves on.  Sizes are ``"full"`` (what the
command line measures) and ``"tiny"`` (what the benchmark's own tests
run, in well under a second per workload).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.core.exceptions import ModelViolation
from repro.explore import engine
from repro.explore.amp_model import AmpModel
from repro.explore.protocols import (
    AdoptCommitMachine,
    adopt_commit_coherence,
    adopt_commit_validity,
    make_scd_nodes,
    scd_coherence,
)
from repro.explore.shm_model import ShmMachineModel
from repro.sync import kernel as sync_kernel
from repro.sync.algorithms.flooding import make_flooders
from repro.sync.topology import grid
from repro.workload import WorkloadSpec, generator, service

#: The seed the recorded ``kv-service`` digests belong to.
DEFAULT_SEED = 1

BACKENDS = ("scd", "to", "abd")

SIZES = {
    "full": {
        "kv_batches_per_client": 175,  # 3 clients x 175 x 8 = 4,200 ops
        "shm_n": 4,
        "torus_side": 20,
    },
    "tiny": {
        "kv_batches_per_client": 8,  # 192 ops
        "shm_n": 3,
        "torus_side": 4,
    },
}


@dataclass
class Outcome:
    """What one timed repetition did: ops attempted/failed, wall times."""

    attempted: int = 0
    failed: int = 0
    #: wall seconds of each timed call, by leg name
    legs: Dict[str, float] = field(default_factory=dict)
    #: deterministic facts the traced run turns into metrics
    facts: Dict[str, object] = field(default_factory=dict)
    #: one line per failed check
    problems: List[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(self.legs.values())

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# kv-service: one generated workload, served by scd, to and abd in turn
# ---------------------------------------------------------------------------


def kv_spec(seed: int, size: str) -> WorkloadSpec:
    return WorkloadSpec(
        clients=3,
        batches_per_client=SIZES[size]["kv_batches_per_client"],
        batch_size=8,
        keys=512,
        distribution="zipf",
        zipf_s=1.1,
        op_mix=(("put", 0.5), ("get", 0.45), ("delete", 0.05)),
        mean_interarrival=1.5,
        seed=seed,
    )


def kv_setup(seed: int, size: str) -> dict:
    """The spec plus the generated batches and their op counts.

    ``run_service`` regenerates the batches from the spec (a pure
    function of it); the benchmark generates them too, so that it can
    check every op of the input was served.
    """
    spec = kv_spec(seed, size)
    ops: Counter = Counter()
    for client in range(spec.clients):
        for _arrival, batch in generator.client_batches(spec, client):
            ops.update(op[0] for op in batch)
    return {"seed": seed, "size": size, "spec": spec, "op_counts": dict(ops)}


def kv_run(inputs: dict, reference: dict, backends=BACKENDS) -> Outcome:
    spec: WorkloadSpec = inputs["spec"]
    seed = inputs["seed"]
    expected_counts = tuple(sorted(inputs["op_counts"].items()))
    outcome = Outcome()
    for backend in backends:
        outcome.attempted += spec.total_ops
        start = time.perf_counter()
        try:
            report = service.run_service(spec, backend=backend, n=5, seed=seed)
        except ModelViolation as exc:  # replica divergence, stalled run
            outcome.legs[backend] = time.perf_counter() - start
            outcome.fail(spec.total_ops, f"{backend}: {exc}")
            continue
        outcome.legs[backend] = time.perf_counter() - start
        outcome.facts[backend] = report
        problems = []
        if report.completed_ops != spec.total_ops:
            problems.append(
                f"{report.completed_ops}/{spec.total_ops} ops completed"
            )
        if report.op_counts != expected_counts:
            problems.append(
                f"served op mix {report.op_counts} != generated {expected_counts}"
            )
        if len(report.decided) != spec.clients:
            problems.append(f"only clients {report.decided} drained")
        pinned = reference.get("digests", {}).get(seed, {}).get(backend)
        if pinned is not None and report.stats_digest != pinned:
            problems.append(
                f"stats_digest {report.stats_digest[:16]} != "
                f"reference {pinned[:16]}"
            )
        if problems:
            outcome.fail(spec.total_ops, f"{backend}: " + "; ".join(problems))
    return outcome


# ---------------------------------------------------------------------------
# explore-amp: exhaustive BFS of SCD-broadcast, two broadcasters among three
# ---------------------------------------------------------------------------


def amp_setup(seed: int, size: str) -> dict:
    """Two distinct payload tokens drawn from the seed.

    The seed only relabels what is broadcast; the state graph (and so
    every count) is the same on every seed.
    """
    first, second = _rng("explore-amp", seed).sample(range(10**6), 2)
    payloads = [[f"m{first}"], [f"m{second}"], []]
    if size == "tiny":
        payloads = [[f"m{first}"], [f"m{second}"]]
    model = AmpModel(make_scd_nodes(payloads))
    return {"model": model, "properties": [scd_coherence()]}


def shm_setup(seed: int, size: str) -> dict:
    """Adopt-commit with unanimous inputs; the seed picks the value."""
    n = SIZES[size]["shm_n"]
    value = _rng("explore-shm", seed).randrange(10**9)
    inputs = [value] * n
    model = ShmMachineModel(AdoptCommitMachine(n), inputs)
    return {
        "model": model,
        "properties": [adopt_commit_coherence(), adopt_commit_validity(inputs)],
    }


def _explore_run(name: str, reduce: bool) -> Callable[[dict, dict], Outcome]:
    def run(inputs: dict, reference: dict) -> Outcome:
        outcome = Outcome(attempted=1)
        start = time.perf_counter()
        result = engine.explore(
            inputs["model"], inputs["properties"], reduce=reduce
        )
        outcome.legs[name] = time.perf_counter() - start
        outcome.facts["stats"] = result.stats
        stats = result.stats
        found = (stats.states, stats.transitions)
        wanted = (reference["states"], reference["transitions"])
        if not (result.ok and result.complete):
            outcome.fail(1, f"verdict ok={result.ok} complete={result.complete}")
        elif found != wanted:
            outcome.fail(1, f"(states, transitions) {found} != reference {wanted}")
        return outcome

    return run


# ---------------------------------------------------------------------------
# sync-flood: delta-format full-information flooding over a torus
# ---------------------------------------------------------------------------


def sync_setup(seed: int, size: str) -> dict:
    """A torus and one distinct seeded integer input per process."""
    side = SIZES[size]["torus_side"]
    topology = grid(side, side, torus=True)
    inputs = _rng("sync-flood", seed).sample(range(10**9), topology.n)
    return {
        "topology": topology,
        "algorithms": make_flooders(topology.n),
        "inputs": inputs,
    }


def sync_run(inputs: dict, reference: dict) -> Outcome:
    outcome = Outcome(attempted=1)
    start = time.perf_counter()
    result = sync_kernel.run_synchronous(
        inputs["topology"], inputs["algorithms"], inputs["inputs"]
    )
    outcome.legs["sync"] = time.perf_counter() - start
    outcome.facts["result"] = result
    vector = tuple(inputs["inputs"])
    wrong = [
        pid
        for pid, (decided, output) in enumerate(zip(result.decided, result.outputs))
        if not decided or output != vector
    ]
    found = (result.rounds, result.messages_sent, result.payload_sent)
    wanted = (reference["rounds"], reference["messages"], reference["units"])
    if wrong:
        outcome.fail(1, f"{len(wrong)} processes did not output the input vector")
    elif found != wanted:
        outcome.fail(1, f"(rounds, messages, units) {found} != reference {wanted}")
    return outcome


# ---------------------------------------------------------------------------
# The table the runner dispatches on
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], dict]
    run: Callable[[dict, dict], Outcome]
    #: size -> what the checks compare against
    reference: Dict[str, dict]
    #: ops one timed call attempts (all count as failed if it raises)
    ops: Callable[[dict], int] = lambda inputs: 1
    #: ``run`` cut into separately timed calls with its signature
    #: (empty: ``run`` is a single timed call)
    legs: Tuple[Callable[[dict, dict], Outcome], ...] = ()

    def timed_calls(self) -> Tuple[Callable[[dict, dict], Outcome], ...]:
        return self.legs or (self.run,)

    def ops_per_run(self, inputs: dict) -> int:
        return self.ops(inputs) * len(self.timed_calls())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kv-service",
            kv_setup,
            kv_run,
            {
                # stats_digest per backend on DEFAULT_SEED; other seeds are
                # checked for completion, op mix and replica convergence.
                "full": {"digests": {DEFAULT_SEED: {
                    "scd": "ff75f9a2eb9449b1d18acdf6e21e4248f2c61e066978a5c99865693c5749abfa",
                    "to": "9087873c8ecdb469d6b2b7fd00c38510302cb03f6b39fd93f2614ca245e113a8",
                    "abd": "c9c714d68eef7f6ffe333ba9b9bd0505d5fa95c2f5fba3400c51ed7aa160d2c5",
                }}},
                "tiny": {"digests": {DEFAULT_SEED: {
                    "scd": "b29b06e8b941d8ffb1bae48b75f83464b79f5615a7e4bbb67e44fc911bb354fa",
                    "to": "2933b3b6e616bcc1692b1be8501eca7fa8f29d9037dc94e050931d1902d4131d",
                    "abd": "eac0359a376e8e56e31d3d6eb2c765e0242ef29ad2ccf6b7a94fd38559325b60",
                }}},
            },
            lambda inputs: inputs["spec"].total_ops,
            tuple(partial(kv_run, backends=(backend,)) for backend in BACKENDS),
        ),
        Workload(
            "explore-amp",
            amp_setup,
            _explore_run("explore", reduce=False),
            {
                "full": {"states": 4037, "transitions": 10690},
                "tiny": {"states": 9, "transitions": 12},
            },
        ),
        Workload(
            "explore-shm",
            shm_setup,
            _explore_run("explore", reduce=True),
            {
                "full": {"states": 115306, "transitions": 172698},
                "tiny": {"states": 1645, "transitions": 2329},
            },
        ),
        Workload(
            "sync-flood",
            sync_setup,
            sync_run,
            {
                "full": {"rounds": 21, "messages": 33600, "units": 1313600},
                "tiny": {"rounds": 5, "messages": 320, "units": 2368},
            },
        ),
    )
}

NAMES: Tuple[str, ...] = tuple(WORKLOADS)
