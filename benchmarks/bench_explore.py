"""Explorer throughput and reduction — naive tree vs dedup vs dedup+POR.

The A5 claim (EXPERIMENTS.md): canonical-fingerprint dedup collapses
the naive schedule *tree* (every interleaving spelled out) onto the
configuration *graph*, and sleep-set POR then prunes commuting
re-orderings, exploring **strictly fewer states than naive
enumeration** and strictly fewer transitions than dedup alone — while
visiting exactly the same set of unique states (sleep-set state
preservation needs stable choice labels and a sound independence
relation: shm pids and AMP message contents, docs/EXPLORER.md "Sleep
sets and soundness").

The naive tree size is exact, not estimated: adopt-commit is an
oblivious protocol (every process takes the same ``2n + 2`` machine
steps on every schedule), so the tree node count is the closed-form
number of interleaving prefixes, computed by multinomials.

``_LegacyConfigurationExplorer`` reinstates the pre-``repro.explore``
``reachable()`` loop verbatim (the A1–A4 before/after pattern) and the
bivalence verdicts are asserted identical across the port.

The A10 section (``--smoke`` runs a reduced version of it) times the
serial engine on the search sizes the artifact tracks and writes
``BENCH_explore.json``.  Every leg **asserts its verdict and pinned
(states, transitions)** (the hard gate — an engine that explores a
different state space is wrong, not slow).  The two-broadcaster SCD
leg runs with and without sleep sets and must find all 4,037 states
both times.  The three-broadcaster SCD leg is bounded by a state
budget; BFS order is deterministic, so its counts are pinned too.

Also runnable standalone (CI smoke): ``python benchmarks/bench_explore.py --smoke``.
"""

import math
import os
import time
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.explore import (
    BFS,
    AdoptCommitMachine,
    AmpModel,
    ShmMachineModel,
    adopt_commit_coherence,
    adopt_commit_validity,
    agreement,
    explore,
    make_flood_min,
    make_scd_nodes,
    scd_coherence,
)
from repro.core.exceptions import ConfigurationError, SimulationLimitExceeded
from repro.shm import ConfigurationExplorer, TwoProcessRaceConsensus
from repro.shm.statemachine import NOT_DECIDED

from bench_json import peak_rss_bytes, write_bench_artifact


class _LegacyConfigurationExplorer(ConfigurationExplorer):
    """The pre-port exploration loop, reinstated verbatim as baseline."""

    def initial_configuration(self):
        process_states = tuple(
            self.machine.initial_state(pid, self.inputs[pid]) for pid in range(self.n)
        )
        shared = tuple(self._specs[name].initial for name in self._object_names)
        return (process_states, shared)

    def enabled(self, config):
        states, _ = config
        return [
            pid
            for pid in range(self.n)
            if self.machine.next_op(pid, states[pid]) is not None
        ]

    def step(self, config, pid):
        states, shared = config
        request = self.machine.next_op(pid, states[pid])
        if request is None:
            raise ConfigurationError(f"process {pid} has no enabled step")
        obj_name, op, args = request
        try:
            index = self._object_names.index(obj_name)
        except ValueError:
            raise ConfigurationError(f"unknown shared object {obj_name!r}")
        new_obj_state, response = self._specs[obj_name].apply(
            shared[index], op, tuple(args)
        )
        new_shared = shared[:index] + (new_obj_state,) + shared[index + 1 :]
        new_state = self.machine.apply_response(pid, states[pid], response)
        new_states = states[:pid] + (new_state,) + states[pid + 1 :]
        return (new_states, new_shared)

    def decisions(self, config):
        states, _ = config
        out = {}
        for pid in range(self.n):
            if self.machine.next_op(pid, states[pid]) is None:
                value = self.machine.decision(pid, states[pid])
                if value is not NOT_DECIDED:
                    out[pid] = value
        return out

    def reachable(self):
        initial = self.initial_configuration()
        graph = {}
        frontier = [initial]
        while frontier:
            config = frontier.pop()
            if config in graph:
                continue
            successors = []
            for pid in self.enabled(config):
                successors.append((pid, self.step(config, pid)))
            graph[config] = successors
            if len(graph) > self.max_configurations:
                raise SimulationLimitExceeded(
                    f"exploration exceeded {self.max_configurations} configurations"
                )
            for _, nxt in successors:
                if nxt not in graph:
                    frontier.append(nxt)
        return graph


def schedule_tree_nodes(n: int, steps_per_process: int) -> int:
    """Exact node count of the naive schedule tree (no dedup at all).

    Adopt-commit is oblivious — every process takes exactly
    ``steps_per_process`` machine steps on every schedule — so the tree
    nodes are precisely the interleaving prefixes: one per vector
    ``(a_0..a_{n-1})`` of per-process step counts, weighted by the
    multinomial number of orders realizing it.
    """
    total = 0
    for counts in product(range(steps_per_process + 1), repeat=n):
        numerator = math.factorial(sum(counts))
        for count in counts:
            numerator //= math.factorial(count)
        total += numerator
    return total


def timed_explore(model, properties=(), reduce=True):
    """(ExploreResult, states/sec) for one exhaustive run."""
    result = explore(model, properties=properties, reduce=reduce)
    assert result.ok and result.complete, "benchmark protocols are correct"
    return result, result.stats.states_per_second()


def compare(sizes: Tuple[int, ...] = (2, 3)) -> Tuple[List[tuple], Dict[str, float]]:
    """Rows of (model, variant, states, transitions, states/sec) + factors."""
    rows = []
    factors: Dict[str, float] = {}

    for n in sizes:
        inputs = list(range(n))
        props = lambda: [adopt_commit_coherence(), adopt_commit_validity(inputs)]
        make = lambda: ShmMachineModel(AdoptCommitMachine(n), inputs)

        tree = schedule_tree_nodes(n, steps_per_process=2 * n + 2)
        rows.append((f"adopt-commit n={n}", "naive tree", tree, tree - 1, None))

        dedup, dedup_rate = timed_explore(make(), props(), reduce=False)
        rows.append((
            f"adopt-commit n={n}", "dedup",
            dedup.stats.states, dedup.stats.transitions, dedup_rate,
        ))

        por, por_rate = timed_explore(make(), props(), reduce=True)
        rows.append((
            f"adopt-commit n={n}", "dedup+POR",
            por.stats.states, por.stats.transitions, por_rate,
        ))

        assert por.stats.states == dedup.stats.states, \
            "sleep sets must preserve the reachable state set"
        assert por.stats.states < tree, \
            "dedup must explore strictly fewer states than naive enumeration"
        assert por.stats.transitions < dedup.stats.transitions, \
            "POR must execute strictly fewer transitions than dedup alone"
        factors[f"shm n={n} tree/dedup states"] = tree / dedup.stats.states
        factors[f"shm n={n} dedup/POR transitions"] = (
            dedup.stats.transitions / por.stats.transitions
        )

    # AMP: same engine, message-delivery branching (no closed-form tree).
    values = [3, 1, 2]
    amp_props = lambda: [agreement()]
    amp_dedup, _ = timed_explore(
        AmpModel(make_flood_min(values)), amp_props(), reduce=False
    )
    amp_por, amp_rate = timed_explore(
        AmpModel(make_flood_min(values)), amp_props(), reduce=True
    )
    rows.append((
        "flood-min n=3 (amp)", "dedup",
        amp_dedup.stats.states, amp_dedup.stats.transitions, None,
    ))
    rows.append((
        "flood-min n=3 (amp)", "dedup+POR",
        amp_por.stats.states, amp_por.stats.transitions, amp_rate,
    ))
    assert amp_por.stats.states == amp_dedup.stats.states
    factors["amp dedup/POR transitions"] = (
        amp_dedup.stats.transitions / max(1, amp_por.stats.transitions)
    )
    return rows, factors


#: A10 legs: label → pinned (states, transitions).
A10_PINNED = {
    "adopt-commit n=3": (4405, 5407),
    "adopt-commit n=4": (326_766, 441_229),
    "scd 2-broadcasters": (4037, 10_690),
    "scd 2-broadcasters (POR)": (4037, 8807),
    "scd 3-broadcasters (bounded)": (60_001, 327_463),
}


def _explore_leg(
    cases: List[dict],
    label: str,
    n: int,
    make_model,
    make_properties,
    strategy: Optional[BFS] = None,
    reduce: bool = True,
):
    """Run one A10 leg, append its artifact case, return the result."""
    start = time.perf_counter()
    result = explore(
        make_model(),
        properties=make_properties(),
        strategy=strategy,
        reduce=reduce,
    )
    wall = time.perf_counter() - start
    cases.append({
        "case": label,
        "n": n,
        "wall_s": round(wall, 3),
        "peak_rss_bytes": peak_rss_bytes(),
        "payload_units": 0,  # exploration moves no protocol payload
        "reduce": reduce,
        "states": result.stats.states,
        "transitions": result.stats.transitions,
        "ok": result.ok,
        "complete": result.complete,
    })
    if label in A10_PINNED:
        assert result.ok, f"{label}: verdict changed"
        # Only a leg with a strategy (a state budget) may stop early.
        assert result.complete == (strategy is None), f"{label}: completeness changed"
        found = (result.stats.states, result.stats.transitions)
        assert found == A10_PINNED[label], (
            f"{label}: (states, transitions) {found} != {A10_PINNED[label]}"
        )
    return result


def explore_legs(smoke: bool = False) -> List[dict]:
    """The A10 serial exploration legs; returns the artifact cases.

    Smoke mode runs adopt-commit n=3 only (seconds); the full run adds
    exhaustive adopt-commit n=4, exhaustive SCD with two broadcasters
    (with and without sleep sets), and SCD with three broadcasters
    bounded at 60,000 states.
    """
    cases: List[dict] = []

    def adopt(n):
        return (
            lambda: ShmMachineModel(AdoptCommitMachine(n), list(range(n))),
            lambda: [adopt_commit_coherence(),
                     adopt_commit_validity(list(range(n)))],
        )

    _explore_leg(cases, "adopt-commit n=3", 3, *adopt(3))
    if not smoke:
        _explore_leg(cases, "adopt-commit n=4", 4, *adopt(4))
        _explore_leg(
            cases, "scd 2-broadcasters", 3,
            lambda: AmpModel(make_scd_nodes([["a"], ["b"], []])),
            lambda: [scd_coherence()],
            reduce=False,
        )
        _explore_leg(
            cases, "scd 2-broadcasters (POR)", 3,
            lambda: AmpModel(make_scd_nodes([["a"], ["b"], []])),
            lambda: [scd_coherence()],
        )
        # The exhaustive three-broadcaster space (EXPERIMENTS.md A10) takes
        # minutes: bounded by a state budget here, POR on, verdict "no
        # violation within the bound".
        bounded = _explore_leg(
            cases, "scd 3-broadcasters (bounded)", 3,
            lambda: AmpModel(make_scd_nodes([["a"], ["b"], ["c"]])),
            lambda: [scd_coherence()],
            strategy=BFS(max_states=60_000),
        )
        assert bounded.ok, "scd coherence must hold within the bound"
    return cases


def write_explore_artifact(cases: List[dict], out_dir: str = ".") -> str:
    os.makedirs(out_dir, exist_ok=True)
    return write_bench_artifact(
        "explore",
        cases,
        out_dir=out_dir,
        unit="one exhaustive (or explicitly bounded) exploration",
        extra_meta={
            "cpus": os.cpu_count() or 1,
            "payload_note": "payload_units is 0: exploration is pure search",
            "pin_note": (
                "every leg asserted its verdict and pinned (states, "
                "transitions) before this file was written; SCD with two "
                "broadcasters found all 4,037 states with and without "
                "sleep sets"
            ),
        },
    )


def bivalence_parity() -> Tuple[int, int]:
    """The port contract: legacy and engine-backed explorers agree exactly."""
    machine = lambda: TwoProcessRaceConsensus("test&set")
    legacy = _LegacyConfigurationExplorer(machine(), (0, 1))
    current = ConfigurationExplorer(machine(), (0, 1))
    legacy_graph = legacy.reachable()
    current_graph = current.reachable()
    assert set(legacy_graph) == set(current_graph), "same configurations"
    assert all(
        legacy_graph[config] == current_graph[config] for config in legacy_graph
    ), "same successor edges"
    legacy_report = legacy.explore()
    current_report = current.explore()
    assert legacy_report == current_report, "same bivalence verdicts"
    edges = sum(len(v) for v in legacy_graph.values())
    return len(legacy_graph), edges


def _format_rows(rows):
    out = []
    for model, variant, states, transitions, rate in rows:
        out.append((
            model, variant, states, transitions,
            "-" if rate is None else f"{rate:,.0f}",
        ))
    return out


def test_explore_reduction(benchmark):
    def body():
        from conftest import print_series

        rows, factors = compare()
        print_series(
            "A5: exploration reduction (exhaustive, correct protocols)",
            _format_rows(rows),
            ["model", "variant", "states", "transitions", "states/s"],
        )
        for name, factor in factors.items():
            print(f"  {name}: {factor:,.1f}x")
        nodes, edges = bivalence_parity()
        print(f"  bivalence parity: {nodes} configs / {edges} edges identical")

    benchmark.pedantic(body, rounds=1, iterations=1)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="n=2 only + the n=3 A10 leg, semantic checks only (CI)",
    )
    parser.add_argument("--out", default=".", help="artifact directory")
    args = parser.parse_args(argv)
    sizes = (2,) if args.smoke else (2, 3)
    start = time.perf_counter()
    rows, factors = compare(sizes)
    for model, variant, states, transitions, rate in _format_rows(rows):
        print(f"{model:>22}  {variant:<11} {states:>12,} states "
              f"{transitions:>12,} transitions  {rate:>10} states/s")
    for name, factor in factors.items():
        print(f"{name}: {factor:,.1f}x")
    nodes, edges = bivalence_parity()
    print(f"bivalence parity: {nodes} configs / {edges} edges identical")

    cases = explore_legs(smoke=args.smoke)
    for case in cases:
        print(f"{case['case']:>38}  {case['states']:>9,} states  "
              f"{case['wall_s']:>8.2f}s  "
              f"{'complete' if case['complete'] else 'bounded'}")
    artifact = write_explore_artifact(cases, out_dir=args.out)
    print(f"wrote {artifact}")
    print(f"total {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
