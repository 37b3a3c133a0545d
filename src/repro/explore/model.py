"""The kernel-agnostic exploration interface (configurations and choices).

The paper's impossibility arguments (§2.4 FLP, §4.2 bivalence) quantify
over *all* schedules of a protocol; a bounded model checker makes that
quantifier executable.  The contract between the search engine
(:mod:`repro.explore.engine`) and a kernel is four small questions:

* what is the **initial configuration**?
* which **choices** (scheduler steps, message deliveries, adversary
  moves) are enabled in a configuration?
* what configuration does a choice **step** to?
* what is the configuration's canonical **fingerprint** (two
  configurations with the same fingerprint are the same state — the
  visited-set currency)?

plus two optional refinements: per-process **decisions** (what the
property API inspects) and pairwise **independence** of choices (what
the sleep-set reduction prunes with).

Three adapters implement the contract: :class:`~repro.explore.shm_model.ShmMachineModel`
(shared memory), :class:`~repro.explore.amp_model.AmpModel` (asynchronous
message passing), and :class:`~repro.explore.sync_model.SyncAdversaryModel`
(synchronous rounds, branching on the message adversary's choices).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from ..core.exceptions import ConfigurationError

Choice = Hashable
Config = Hashable
Schedule = Sequence[Choice]


class Interner:
    """Hash-consing table: one canonical object per equal value.

    The exploration visited set keys on fingerprints; interning them
    makes every duplicate fingerprint share one object (the same trick
    :class:`repro.shm.iis.ProtocolComplex` uses for IIS views), so a
    graph with millions of revisits stores each state once.

    >>> intern = Interner()
    >>> a = intern((1, 2, 3))
    >>> b = intern((1, 2, 3))
    >>> a is b
    True
    >>> len(intern)
    1
    """

    def __init__(self) -> None:
        self._table: Dict[Hashable, Hashable] = {}

    def __call__(self, value: Hashable) -> Hashable:
        return self._table.setdefault(value, value)

    def __len__(self) -> int:
        return len(self._table)


class ExplorationModel:
    """A protocol execution presented as a branching transition system.

    Subclasses adapt one kernel; the engine never looks inside a
    configuration or a choice — it only moves them between these
    methods.  Configurations and choices must be hashable values.
    """

    #: Which kernel the model adapts ("shm", "amp", or "sync").
    kernel = "abstract"

    def initial(self) -> Config:
        """The initial configuration."""
        raise NotImplementedError

    def enabled(self, config: Config) -> List[Choice]:
        """Enabled choices, in a deterministic order (empty = terminal)."""
        raise NotImplementedError

    def step(self, config: Config, choice: Choice) -> Config:
        """The configuration reached by taking ``choice``."""
        raise NotImplementedError

    def fingerprint(self, config: Config) -> Hashable:
        """Canonical visited-set key; defaults to the configuration itself.

        Two configurations mapping to the same fingerprint must be
        behaviorally identical (same enabled choices, same futures).
        A coarser-than-identity fingerprint is how stateless adapters
        (sync) recognize that two schedule prefixes converged.
        """
        return config

    def decisions(self, config: Config) -> Dict[int, object]:
        """pid → irrevocably decided value (empty when nobody decided)."""
        return {}

    def crashed(self, config: Config) -> frozenset:
        """pids crashed in this configuration (empty for crash-free models)."""
        return frozenset()

    def independent(self, config: Config, a: Choice, b: Choice) -> bool:
        """May ``a`` and ``b`` commute from ``config``?

        ``True`` means: both orders reach the same configuration and
        neither disables the other — the license for the sleep-set
        reduction to skip one interleaving.  Must be conservative:
        when unsure, answer ``False`` (only costs exploration work).
        """
        return False

    def describe_choice(self, choice: Choice) -> str:
        """Human-readable rendering for failure reports."""
        return repr(choice)

    def counterexample(self, schedule: Schedule) -> "Counterexample":
        """Materialize a schedule as a replayable counterexample.

        See :mod:`repro.explore.counterexample`; adapters record the
        schedule through their kernel with a trace sink and package the
        events with a replay closure.
        """
        raise ConfigurationError(
            f"{type(self).__name__} does not build counterexamples"
        )
