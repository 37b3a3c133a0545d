"""Synchronous message-passing systems: the LOCAL model plus message
adversaries (paper §3).

* :mod:`repro.sync.kernel` — lock-step round execution;
* :mod:`repro.sync.arraykernel` — columnar engine for n = 10⁴–10⁶;
* :mod:`repro.sync.topology` — communication graphs (CSR adjacency);
* :mod:`repro.sync.adversary` — TREE, TOUR, and friends;
* :mod:`repro.sync.dissemination` — the TREE computability theorem;
* :mod:`repro.sync.equivalence` — TOUR ≃ wait-free read/write;
* :mod:`repro.sync.algorithms` — Cole–Vishkin, flooding, MIS, FloodSet.
"""

from .adversary import (
    AdaptiveAdversary,
    BoundedDropAdversary,
    DropAllAdversary,
    MessageAdversary,
    NoAdversary,
    TourAdversary,
    TreeAdversary,
)
from .dissemination import (
    DisseminationReport,
    run_dissemination,
    verify_tree_theorem,
)
from .equivalence import (
    SharedMemoryInTour,
    TourSimulationResult,
    refute_tour_consensus,
    run_shared_memory_in_tour,
    run_tour_in_shared_memory,
    starvation_orientation,
)
from .partition import (
    CliquePartitionAdversary,
    MinFloodKSet,
    refute_clique_consensus,
    run_clique_kset,
)
from .kernel import (
    Context,
    CrashEvent,
    SyncAlgorithm,
    SyncRunResult,
    SynchronousRunner,
    run_synchronous,
)
from .arraykernel import (
    ColumnarAlgorithm,
    ColumnarRunner,
    run_columnar,
)
from .topology import (
    Topology,
    balanced_tree,
    complete,
    grid,
    path,
    random_connected,
    random_regular,
    random_spanning_tree,
    ring,
    star,
)

__all__ = [
    "AdaptiveAdversary",
    "BoundedDropAdversary",
    "DropAllAdversary",
    "MessageAdversary",
    "NoAdversary",
    "TourAdversary",
    "TreeAdversary",
    "DisseminationReport",
    "run_dissemination",
    "verify_tree_theorem",
    "SharedMemoryInTour",
    "TourSimulationResult",
    "refute_tour_consensus",
    "run_shared_memory_in_tour",
    "run_tour_in_shared_memory",
    "starvation_orientation",
    "CliquePartitionAdversary",
    "MinFloodKSet",
    "refute_clique_consensus",
    "run_clique_kset",
    "Context",
    "CrashEvent",
    "SyncAlgorithm",
    "SyncRunResult",
    "SynchronousRunner",
    "run_synchronous",
    "ColumnarAlgorithm",
    "ColumnarRunner",
    "run_columnar",
    "Topology",
    "balanced_tree",
    "complete",
    "grid",
    "path",
    "random_connected",
    "random_regular",
    "random_spanning_tree",
    "ring",
    "star",
]
