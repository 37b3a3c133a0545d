"""The repository's benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports the package
from the checkout's ``src/`` (there is nothing to build) and exits
with code 2, printing no result, when that tree is missing.

``--trace 0`` runs one workload untraced for ``--seconds``.  Each
repetition runs in a fresh child process (``--repetition``) that sets
the workload up several times and makes each timed call once, checking
every output.  The command reports the median set-up time, the
relative run time and the peak RSS.  The relative run time is each
timed call's wall time, less the speed probes that interrupted it,
divided by the probes' mean duration (``_SpeedProbe``); its median over
the repetitions is summed over the calls.  The probes run no code of
the package, so a change to the package moves the ratio as it moves
the wall time, while the host's own speed (which drifts by 20% and
more within a minute on a shared machine) cancels out.  The raw wall
times are in the per-layer table.

``--trace 1`` produces the per-layer table for all four workloads, so
that every per-layer metric is measured in every traced run.  Each
workload gets a child process of its own (``--traced-child``) that
makes one untraced run, then one traced run with the layers' entry
points wrapped in spans (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records Python version, ``nproc``, platform and commit.  Failed
checks go to standard error and count as failed ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups in each repetition (the last one's inputs are used), so that
#: ``setup_s`` is a median over many set-ups spread over the whole run.
SETUPS_PER_REPETITION = 16
#: The speed probe: a 3,000-step loop (about 0.45 ms) every 10 ms.
PROBE_ITERATIONS = 3_000
PROBE_INTERVAL_S = 0.01
#: Longest one repetition may take (the command must end within 180 s).
REPETITION_TIMEOUT_S = 120
#: Longest the traced children may take together (the command must end
#: within 180 s).
TRACE_BUDGET_S = 170


def _source_missing() -> str:
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        return f"no package source at {package.parent}: run from a checkout"
    return ""


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _meta() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _SpeedProbe:
    """Samples the host's speed while a timed call runs.

    Every ``PROBE_INTERVAL_S`` a timer signal runs a fixed integer loop
    (no allocation, no code of the package) and records how long it
    took.  The probes run inside the timed call, interleaved with it,
    so their mean duration is the host's speed during that very call.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 1
        for _ in range(PROBE_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "_SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._inside = len(self.samples)
        if not self.samples:  # a call shorter than one interval
            self._sample(signal.SIGALRM, None)

    def relative(self, wall_s: float) -> float:
        """``wall_s`` without the probes inside it, in units of one probe."""
        inside = sum(self.samples[: self._inside])
        return (wall_s - inside) / statistics.mean(self.samples)


def _guarded(call, ops, inputs, reference):
    """One timed call; an exception from the program fails all its ops."""
    from perfbench.workloads import Outcome

    try:
        return call(inputs, reference)
    except Exception:  # the benchmark must count it and move on
        outcome = Outcome(attempted=ops)
        outcome.fail(ops, traceback.format_exc())
        return outcome


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics of one workload
# ---------------------------------------------------------------------------


def repetition(name: str, seed: int, size: str) -> dict:
    """One repetition of ``name``: set-ups, then each timed call once."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    reference = workload.reference[size]
    setup_times = []
    for _ in range(SETUPS_PER_REPETITION):
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(seed, size)
        setup_times.append(time.perf_counter() - start)
    call_times = []
    attempted = failed = 0
    problems = []
    for call in workload.timed_calls():
        gc.collect()  # each timed call starts from the same heap state
        with _SpeedProbe() as probe:
            outcome = _guarded(call, workload.ops(inputs), inputs, reference)
        call_times.append(probe.relative(outcome.run_s))
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
    return {
        "setup_times": setup_times,
        "call_times": call_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _child(flag: str, name: str, seed: int, size: str, timeout: float) -> dict:
    """Run this file with ``flag`` in a fresh process; its last line is JSON."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         flag, name, "--seed", str(seed), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_untraced(name: str, seed: int, seconds: float, size: str):
    """Repetitions, each in a fresh process.

    A fresh process per repetition spreads the process-to-process part
    of the variance (memory layout, hash seed) over the median instead
    of fixing it for the whole run.
    """
    from perfbench.workloads import WORKLOADS

    setup_times = []
    call_times = []
    peak_rss = 0.0
    attempted = failed = 0
    problems = []
    began = time.perf_counter()
    while True:
        try:
            rep = _child(
                "--repetition", name, seed, size, timeout=REPETITION_TIMEOUT_S
            )
        except (subprocess.SubprocessError, ValueError) as exc:
            workload = WORKLOADS[name]
            ops = workload.ops_per_run(workload.setup(seed, size))
            attempted += ops
            failed += ops
            problems.append(f"repetition failed: {exc}")
            break
        setup_times += rep["setup_times"]
        call_times.append(rep["call_times"])
        peak_rss = max(peak_rss, rep["peak_rss_mb"])
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems += rep["problems"]
        if time.perf_counter() - began >= seconds:
            break
    if not call_times:
        return attempted, failed, {}, problems
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_rel": sum(statistics.median(times) for times in zip(*call_times)),
        "peak_rss_mb": peak_rss,
    }
    return attempted, failed, metrics, problems


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics of every workload
# ---------------------------------------------------------------------------


def _untraced_layer_metrics(name: str, outcome) -> dict:
    """The per-layer entries taken from the untraced run."""
    if name == "kv-service":
        return {
            f"kv.{backend}.ops_per_s": outcome.facts[backend].completed_ops / wall
            for backend, wall in outcome.legs.items()
        }
    if name == "sync-flood":
        return {"sync.quiesce_s": outcome.legs["sync"]}
    prefix = "explore." + name.split("-")[1]
    verdict = outcome.legs["explore"]
    return {
        prefix + ".verdict_s": verdict,
        prefix + ".states_per_s": outcome.facts["stats"].states / verdict,
    }


def _traced_layer_metrics(name: str, seed: int, size: str, reference: dict):
    """Set up and run ``name`` once more with every boundary wrapped."""
    from perfbench import tracing
    from perfbench.workloads import BACKENDS, WORKLOADS, Outcome, kv_run

    workload = WORKLOADS[name]
    if name != "kv-service":
        inputs = workload.setup(seed, size)
        gc.collect()
        tracer = tracing.install(name)
        outcome = _guarded(
            workload.run, workload.ops_per_run(inputs), inputs, reference
        )
        tracer.uninstall()
        if outcome.failed:
            return outcome, {}
        if name == "sync-flood":
            return outcome, tracing.sync_metrics(tracer, outcome)
        return outcome, tracing.explore_metrics(name.split("-")[1], tracer, outcome)
    tracer = tracing.Tracer()
    tracer.patch(tracing.generator, "client_batches", "workload.generate")
    inputs = workload.setup(seed, size)
    tracer.uninstall()
    metrics = {"kv.generate_s": tracer.stats()["workload.generate"].total}
    outcome = Outcome()
    for backend in BACKENDS:  # one tracer per leg
        gc.collect()
        tracer = tracing.install(name)
        leg = kv_run(inputs, reference, backends=(backend,))
        tracer.uninstall()
        outcome.attempted += leg.attempted
        outcome.failed += leg.failed
        outcome.problems += leg.problems
        outcome.legs.update(leg.legs)
        if not leg.failed:
            metrics.update(tracing.kv_leg_metrics(backend, tracer, leg))
    return outcome, metrics


def traced_child(name: str, seed: int, size: str) -> dict:
    """One untraced then one traced run of ``name``, in a process of its own.

    The tracing module is imported only after the untraced run, so
    that run has no wrapper loaded.
    """
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    reference = workload.reference[size]
    inputs = workload.setup(seed, size)
    gc.collect()
    plain = _guarded(workload.run, workload.ops_per_run(inputs), inputs, reference)
    traced, metrics = _traced_layer_metrics(name, seed, size, reference)
    if not (plain.failed or traced.failed):
        metrics.update(_untraced_layer_metrics(name, plain))
        if name == "sync-flood":
            rounds = metrics.pop("sync.node_rounds")
            metrics["sync.node_rounds_per_s"] = rounds / plain.legs["sync"]
        metrics[f"trace.overhead.{name}"] = traced.run_s / plain.run_s
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "problems": plain.problems + traced.problems,
        "metrics": metrics,
    }


def run_traced(seed: int, size: str):
    """Every workload's traced child, one after the other."""
    from perfbench.workloads import NAMES, WORKLOADS

    attempted = failed = 0
    metrics = {}
    problems = []
    deadline = time.monotonic() + TRACE_BUDGET_S
    for name in NAMES:
        try:
            result = _child(
                "--traced-child", name, seed, size,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except (subprocess.SubprocessError, ValueError) as exc:
            # run() has killed and reaped a child that timed out
            workload = WORKLOADS[name]
            ops = 2 * workload.ops_per_run(workload.setup(seed, size))
            attempted += ops
            failed += ops
            problems.append(f"traced {name} failed: {exc}")
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        problems += result["problems"]
        metrics.update(result["metrics"])
    return attempted, failed, metrics, problems


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _parser(names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the benchmark's own tests; full: the measured sizes",
    )
    parser.add_argument("--traced-child", choices=names, help=argparse.SUPPRESS)
    parser.add_argument("--repetition", choices=names, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    missing = _source_missing()
    if missing:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import DEFAULT_SEED, NAMES

    args = _parser(NAMES).parse_args(argv)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.traced_child:
        print(json.dumps(traced_child(args.traced_child, seed, args.size)))
        return 0
    if args.repetition:
        print(json.dumps(repetition(args.repetition, seed, args.size)))
        return 0
    if args.trace == 0 and args.workload is None:
        print("perfbench: --workload is required with --trace 0", file=sys.stderr)
        return 2

    declared = _declared()[args.trace]
    if args.trace:
        attempted, failed, metrics, problems = run_traced(seed, args.size)
    else:
        attempted, failed, metrics, problems = run_untraced(
            args.workload, seed, args.seconds, args.size
        )
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    absent = sorted(set(declared) - set(metrics))
    if absent and not failed:
        raise RuntimeError(f"declared metrics not measured: {absent}")
    print("meta " + json.dumps(_meta()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
