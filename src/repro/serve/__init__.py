"""The always-on map service (streaming ingest + versioned snapshots).

Four pieces:

* :mod:`repro.serve.snapshot` — immutable, fingerprinted
  :class:`MapSnapshot` versions with precomputed O(1) query indices
  (interface→facility, AS-pair→links, facility→tenants), plus the
  durable payload codec and :func:`open_snapshot`;
* :mod:`repro.serve.ingest` — epoch slicing of the campaign plan and
  :class:`StreamingCfs`, which folds each epoch with one passive step
  of the incremental CFS engine;
* :mod:`repro.serve.query` — the copy-on-write read path
  (:class:`QueryEngine`) and the line-oriented query protocol;
* :mod:`repro.serve.service` — :class:`MapService`, the daemon loop
  that executes epochs, publishes snapshots through the checkpoint
  store, and swaps them into the read path;
* :mod:`repro.serve.health` — the :class:`ServiceHealth` state machine
  (``ok``/``degraded``/``stale``/``recovering``) behind the ``health``
  query verb;
* :mod:`repro.serve.supervise` — the :class:`ServiceSupervisor`
  wrapping the epoch loop: bounded retries, poisoned-epoch quarantine,
  publish-time integrity re-verification with rollback, and a bounded
  snapshot retention ring;
* :mod:`repro.serve.soak` — the chaos soak harness behind ``repro
  soak`` (imported lazily by the CLI, like :mod:`repro.faults.chaos`);
* :mod:`repro.serve.outage` — the churn × fault outage-detection
  sweep behind ``repro outage``: churned streams scored against the
  :class:`~repro.topology.churn.ChurnPlan` event log.

Temporal mode: ``run_stream(churn=...)`` re-plans the campaign every
epoch against a churned world, folds each epoch in isolation against
the lagged facility database, and feeds published snapshots through
the :class:`~repro.inference.disruption.DisruptionDetector`; churn-free
streams are bit-identical to the classic pre-sliced stream.

The contract that makes the service trustworthy: the final snapshot a
streamed run publishes is **fingerprint-identical** to the map the
one-shot batch pipeline produces from the same config
(``tests/serve/test_stream_identity.py``) — including runs whose
epochs were quarantined or whose publishes rolled back, because the
final convergence pass re-folds the full corpus in plan order.
"""

from .health import HealthPolicy, ServiceHealth
from .ingest import StreamingCfs, slice_epochs
from .outage import OutagePoint, OutageReport, measurement_faults, run_outage
from .query import QueryEngine, query_snapshot
from .service import MapService, ServiceHandle
from .snapshot import (
    MapSnapshot,
    SnapshotDiff,
    build_snapshot,
    diff_snapshots,
    open_snapshot,
    snapshot_from_payload,
    snapshot_payload,
)
from .supervise import ServicePolicy, ServiceSupervisor

__all__ = [
    "HealthPolicy",
    "MapService",
    "MapSnapshot",
    "OutagePoint",
    "OutageReport",
    "QueryEngine",
    "ServiceHandle",
    "ServiceHealth",
    "ServicePolicy",
    "ServiceSupervisor",
    "SnapshotDiff",
    "StreamingCfs",
    "build_snapshot",
    "diff_snapshots",
    "measurement_faults",
    "open_snapshot",
    "query_snapshot",
    "run_outage",
    "slice_epochs",
    "snapshot_from_payload",
    "snapshot_payload",
]
