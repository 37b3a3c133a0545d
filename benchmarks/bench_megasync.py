"""A7 — mega-scale synchronous rounds on the flat-column backend.

Three workloads at n ≈ 100,000 (ring / torus / random-regular) run
min-aggregation flooding to quiescence on the columnar engine, and a
head-to-head at n = 10,000 pits the object kernel against the columnar
one on the identical ring workload.  The acceptance bars from the issue:

* ring n = 100,000 reaches quiescence in < 60 s wall-clock;
* the columnar engine beats the object kernel by ≥ 10× at n = 10,000.

Every run emits ``BENCH_megasync.json`` (see :mod:`bench_json`) with
per-case n / wall time / peak RSS / payload units.

CI smoke: ``python benchmarks/bench_megasync.py --smoke`` runs the
n = 10,000 columnar case plus a small object-vs-columnar equivalence
check, bounded to well under a minute.
"""

import time

from bench_json import peak_rss_bytes, write_bench_artifact

from repro.sync.algorithms import (
    ColumnarAggregateFlooding,
    make_aggregate_flooders,
)
from repro.sync.arraykernel import ColumnarRunner
from repro.sync.kernel import SynchronousRunner
from repro.sync.topology import grid, random_regular, ring


def _inputs(n: int, seed: int = 42):
    import random

    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(n)]


def run_columnar_case(case, graph, rounds):
    """One columnar run to quiescence; returns an artifact case dict."""
    inputs = _inputs(graph.n)
    build_start = time.perf_counter()
    runner = ColumnarRunner(
        graph,
        ColumnarAggregateFlooding(rounds=rounds, op="min", fixed_payload_units=1),
        inputs,
        max_rounds=rounds + 1,
        validate_sends=False,
    )
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    assert result.outputs == [min(inputs)] * graph.n
    return {
        "case": case,
        "n": graph.n,
        "backend": "columnar",
        "rounds": result.rounds,
        "messages_sent": result.messages_sent,
        "payload_units": result.payload_sent,
        "build_s": round(start - build_start, 3),
        "wall_s": round(wall, 3),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def run_object_case(case, n, rounds):
    """The object kernel on the same ring workload, for the speedup row."""
    inputs = _inputs(n)
    runner = SynchronousRunner(
        ring(n),
        make_aggregate_flooders(n, rounds=rounds, op="min"),
        inputs,
        max_rounds=rounds + 1,
    )
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    assert result.outputs == [min(inputs)] * n
    return {
        "case": case,
        "n": n,
        "backend": "object",
        "rounds": result.rounds,
        "messages_sent": result.messages_sent,
        "payload_units": result.payload_sent,
        "wall_s": round(wall, 3),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def smoke_cases():
    """CI-sized: columnar ring n=10k + a tiny cross-backend check."""
    n = 10_000
    cases = [run_columnar_case("ring-10k", ring(n), rounds=n // 2)]
    assert cases[0]["wall_s"] < 30.0, "smoke run must stay well-bounded"
    # Cross-backend sanity at a size the object kernel handles instantly.
    small = 200
    obj = run_object_case("ring-200-object", small, rounds=small // 2)
    col = run_columnar_case("ring-200-columnar", ring(small), rounds=small // 2)
    assert obj["rounds"] == col["rounds"]
    assert obj["messages_sent"] == col["messages_sent"]
    cases += [obj, col]
    return cases


def full_cases():
    """The A7 acceptance matrix."""
    cases = []

    # Speedup head-to-head at n = 10,000 (ring, R = n/2).
    n10 = 10_000
    obj = run_object_case("ring-10k-object", n10, rounds=n10 // 2)
    col = run_columnar_case("ring-10k-columnar", ring(n10), rounds=n10 // 2)
    speedup = obj["wall_s"] / col["wall_s"]
    obj["speedup_vs_object"] = 1.0
    col["speedup_vs_object"] = round(speedup, 1)
    cases += [obj, col]
    assert obj["messages_sent"] == col["messages_sent"]
    assert speedup >= 10.0, f"need >= 10x at n=10k, got {speedup:.1f}x"

    # Mega-scale: three topology families at n ≈ 100,000.
    n = 100_000
    mega = [
        ("ring-100k", ring(n), n // 2),
    ]
    torus = grid(317, 317, torus=True)
    mega.append(("torus-317x317", torus, torus.radius_bound()))
    rr = random_regular(n, 3, seed=7)
    mega.append(("rr-100k-d3", rr, rr.radius_bound()))
    for case, graph, rounds in mega:
        entry = run_columnar_case(case, graph, rounds)
        cases.append(entry)
        if case == "ring-100k":
            assert entry["wall_s"] < 60.0, (
                f"ring-100k must reach quiescence in < 60s, took {entry['wall_s']}s"
            )
    return cases


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (n=10k, bounded time)"
    )
    parser.add_argument("--out", default=".", help="artifact directory")
    args = parser.parse_args(argv)
    cases = smoke_cases() if args.smoke else full_cases()
    name = "megasync_smoke" if args.smoke else "megasync"
    path = write_bench_artifact(
        name,
        cases,
        out_dir=args.out,
        unit="one synchronous run to quiescence",
        extra_meta={"workload": "min-aggregation flooding, seed-42 inputs"},
    )
    for case in cases:
        print(
            f"{case['case']:>20}  n={case['n']:>7}  {case['backend']:>8}  "
            f"rounds={case['rounds']:>6}  msgs={case['messages_sent']:>9}  "
            f"wall={case['wall_s']:>8}s"
        )
    print(f"artifact: {path}")


if __name__ == "__main__":
    main()
