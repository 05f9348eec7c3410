"""Streaming ingest: epoch slicing and the passive map fold.

The always-on service simulates a continuous traceroute feed by
partitioning the deterministic initial-campaign probe plan into
contiguous **epochs** and executing them in plan order.  Planning draws
every sampling decision from the driver's sequential RNG up front and
per-task execution consumes no shared randomness, so the union of the
epoch slices is byte-identical to the one-shot batch campaign — the
foundation of the stream-vs-batch equivalence guarantee.

Between epochs, :class:`StreamingCfs` folds the new traces into one
persistent incremental CFS engine
(:class:`~repro.core.cfs.ConstrainedFacilitySearch`): each fold is one
passive engine :meth:`~repro.core.cfs.ConstrainedFacilitySearch.step`
(Steps 1-3, no follow-up probes), and interim map views finalise the
engine state for early snapshots.  The engine resolves aliases against
a **private** IP-ID responder: the environment's shared responder is
stateful, and touching it mid-stream would perturb the post-stream
convergence pass that must match the batch pipeline byte-for-byte.
Interim snapshots are best-effort early views; the final published
snapshot always comes from a full :meth:`Environment.run_cfs`
convergence pass over the accumulated corpus, with exactly the batch
run's seeds and substrates.
"""

from __future__ import annotations

from ..alias.midar import MidarConfig, MidarResolver
from ..core.cfs import ConstrainedFacilitySearch
from ..core.facility_db import FacilityDatabase
from ..core.pipeline import Environment
from ..core.proximity import SwitchProximityModel
from ..core.types import CfsResult
from ..measurement.campaign import ProbeTask, TraceCorpus
from ..measurement.ipid import IpidResponder
from ..measurement.traceroute import Traceroute
from ..obs import Instrumentation

__all__ = ["StreamingCfs", "slice_epochs"]

#: Seed offset for the fold's private IP-ID responder.  Distinct from
#: every offset the batch pipeline uses (the environment's responder at
#: +18, drivers at +1000+k) so interim resolution perturbs nothing the
#: final convergence pass depends on.
_PRIVATE_IPID_OFFSET = 3000


def slice_epochs(plan: list[ProbeTask], epochs: int) -> list[list[ProbeTask]]:
    """Partition a probe plan into ``epochs`` contiguous slices.

    Earlier epochs absorb the remainder, so sizes differ by at most one
    and concatenating the slices reproduces the plan exactly.

    When ``epochs > len(plan)`` the trailing slices are **empty** —
    pinned, tested behavior, not an accident: an empty epoch folds no
    traces, so the service publishes a snapshot with an *unchanged
    content fingerprint* and health stays ``ok``.  A feed running dry
    is "no new data", not an incident; the disruption detector sees an
    empty diff and keeps quiet.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    base, extra = divmod(len(plan), epochs)
    slices: list[list[ProbeTask]] = []
    start = 0
    for index in range(epochs):
        size = base + (1 if index < extra else 0)
        slices.append(plan[start : start + size])
        start += size
    return slices


class StreamingCfs:
    """A passive incremental CFS engine fed one epoch at a time.

    The engine has no campaign driver (Step 4 never probes, so folding
    cannot disturb the substrate the final convergence pass shares with
    the batch pipeline), a private alias substrate, and always runs
    incremental; its search state survives across epochs.
    """

    def __init__(
        self,
        environment: Environment,
        instrumentation: Instrumentation | None = None,
        facility_db: FacilityDatabase | None = None,
    ) -> None:
        """``facility_db`` overrides the environment's constraint
        database — the churned stream folds each epoch against a
        *lagged* PeeringDB view (the database trails reality), while
        the measurement substrate stays the environment's own."""
        seed = environment.config.seed
        obs = instrumentation or Instrumentation()
        self._corpus = TraceCorpus()
        # Private alias substrate: the shared env.ipid_responder is
        # stateful, so interim resolution gets its own responder (and no
        # fault injector — injector RNG streams are shared state too).
        midar = MidarResolver(
            IpidResponder(environment.topology, seed=seed + _PRIVATE_IPID_OFFSET),
            config=MidarConfig(),
            instrumentation=obs,
        )
        self._engine = ConstrainedFacilitySearch(
            facility_db if facility_db is not None else environment.facility_db,
            environment.cymru,
            alias_resolver=midar,
            driver=None,
            remote_detector=environment.remote_detector(),
            config=environment.config.cfs.replace(incremental=True),
            instrumentation=obs,
        )

    @property
    def traces_folded(self) -> int:
        """Traces absorbed so far."""
        return len(self._corpus)

    def fold(self, traces: list[Traceroute]) -> None:
        """Absorb one epoch's traces: one passive engine step."""
        self._corpus.extend(traces)
        self._engine.step(self._corpus)

    def interim_result(self) -> CfsResult:
        """A point-in-time view of the folded map.

        Finalisation uses a **fresh** proximity model each time, so the
        view is a pure function of the fold state: calling it twice, or
        after a checkpoint-restore replay of the same epochs, yields
        identical links.
        """
        return self._engine.result(SwitchProximityModel())
