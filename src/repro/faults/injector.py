"""Seeded, config-driven fault injection over the measurement substrate.

One :class:`FaultInjector` is wired through the whole stack at
environment-build time (``PipelineConfig(faults=...)``):

* the traceroute engine routes every finished trace through
  :meth:`perturb_trace` (extra hop loss, truncation);
* the live platforms consult :meth:`check_vp` /
  :meth:`check_looking_glass` before issuing a probe, which raise the
  :mod:`repro.faults.errors` exceptions the resilience layer retries;
* the PeeringDB snapshot passes through :meth:`corrupt_peeringdb`
  (missing / stale / contradictory rows) before the facility database
  is assembled;
* the MIDAR front-end asks :meth:`alias_false_negative` whether a
  passing pair should be dropped anyway.

Ground truth is never modified — only observations of it.

Determinism: every fault class draws from its own :class:`random.Random`
stream seeded from ``(seed, class name)``, and **no stream is touched
while its rate is zero**.  A zero :class:`FaultPlan` therefore yields a
pipeline byte-identical to one with no injector installed, which is the
property the tier-1 chaos smoke test pins down.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING

from ..exec import substream
from ..obs import Instrumentation
from ..sanitize import assert_rng
from .errors import (
    EpochIngestFault,
    QueryTimeout,
    RateLimitExceeded,
    VantagePointOutage,
)
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..datasets.peeringdb import PeeringDBSnapshot
    from ..measurement.platforms import VantagePoint
    from ..measurement.traceroute import Traceroute

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`FaultPlan` to the substrate, deterministically."""

    def __init__(
        self,
        plan: FaultPlan | None = None,
        seed: int = 0,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.plan = plan or FaultPlan.zero()
        self.seed = seed
        #: Per-run observability hook; ``run_pipeline`` swaps in the
        #: run's instrumentation so fault counters land on
        #: ``CfsResult.metrics``.
        self.instrumentation = instrumentation or Instrumentation()
        #: Lifetime fault totals, independent of instrumentation swaps.
        self.counts: dict[str, int] = {}
        self._rngs: dict[str, Random] = {}

    def _rng(self, name: str) -> Random:
        """The dedicated random stream of one fault class.

        Streams are lazily created and never drawn from while the class
        is disabled, so enabling one class cannot shift another's draws.
        """
        rng = self._rngs.get(name)
        if rng is None:
            rng = substream("faults", self.seed, name)
            self._rngs[name] = rng
        return assert_rng(rng, f"faults.{name}")

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n
        self.instrumentation.count(name, n)

    # ------------------------------------------------------------------
    # Traceroute perturbation (wrapped around TracerouteEngine)
    # ------------------------------------------------------------------

    def perturb_trace(self, trace: "Traceroute") -> "Traceroute":
        """Apply per-hop loss and truncation to one finished traceroute.

        Ground-truth ``routers`` annotations are preserved on lost
        hops (inference never reads them; scoring may).
        """
        plan = self.plan
        if not trace.addresses:
            return trace
        if plan.trace_truncation > 0:
            rng = self._rng("trace_truncation")
            if rng.random() < plan.trace_truncation:
                trace = trace.truncated(rng.randrange(len(trace.addresses)))
                self._count("fault.trace_truncated")
        if plan.hop_loss > 0 and trace.addresses:
            rng = self._rng("hop_loss")
            lost = [
                index
                for index, address in enumerate(trace.addresses)
                if address is not None and rng.random() < plan.hop_loss
            ]
            if lost:
                self._count("fault.hop_lost", len(lost))
                trace = trace.starred(lost)
        return trace

    # ------------------------------------------------------------------
    # Live-platform faults (consulted per probe)
    # ------------------------------------------------------------------

    def check_vp(self, vp: "VantagePoint") -> None:
        """Raise :class:`VantagePointOutage` if ``vp`` is down right now.

        Outages are transient: the next probe re-rolls, so a retry after
        backoff can succeed — unless the circuit breaker quarantined the
        vantage point first.
        """
        if self.plan.vp_outage <= 0:
            return
        if self._rng("vp_outage").random() < self.plan.vp_outage:
            self._count("fault.vp_outage")
            self.instrumentation.emit(
                "fault.vp_outage", vp=vp.vp_id, platform=vp.platform
            )
            raise VantagePointOutage(f"vantage point {vp.vp_id} is down")

    def check_looking_glass(self, asn: int) -> None:
        """Raise a rate-limit rejection or timeout for one LG query."""
        plan = self.plan
        if plan.lg_timeout > 0 and self._rng("lg_timeout").random() < plan.lg_timeout:
            self._count("fault.lg_timeout")
            self.instrumentation.emit("fault.lg_timeout", asn=asn)
            raise QueryTimeout(f"looking glass of AS{asn} timed out")
        if (
            plan.lg_rate_limit > 0
            and self._rng("lg_rate_limit").random() < plan.lg_rate_limit
        ):
            self._count("fault.lg_rate_limit")
            self.instrumentation.emit("fault.lg_rate_limit", asn=asn)
            raise RateLimitExceeded(f"looking glass of AS{asn} rate-limited the query")

    # ------------------------------------------------------------------
    # Service faults (consulted by the map service's supervisor)
    # ------------------------------------------------------------------
    #
    # Unlike the probe faults above, these draw from a *fresh* keyed
    # Random per (unit, attempt) — the ``ExecFaultSpec`` idiom — instead
    # of a shared sequential stream.  Retries re-roll independently, and
    # a resumed or partially quarantined stream sees exactly the same
    # draws as an uninterrupted one.

    def check_epoch(self, epoch: int, attempt: int) -> None:
        """Raise :class:`EpochIngestFault` if this epoch attempt fails.

        Consulted *before* any probe of the epoch executes, so the
        failure never leaves half an epoch's worth of substrate
        mutations behind and a retry is safe.
        """
        rate = self.plan.epoch_fail
        if rate <= 0:
            return
        rng = substream("faults", self.seed, "epoch_fail", epoch, attempt)
        if rng.random() < rate:
            self._count("fault.epoch_fail")
            raise EpochIngestFault(
                f"epoch {epoch} ingest failed (attempt {attempt})"
            )

    def corrupt_snapshot_payload(
        self, payload: dict, *, stage: str, attempt: int
    ) -> dict:
        """Possibly return a torn copy of a snapshot publication payload.

        Simulates a durable write whose bytes land atomically but no
        longer match the snapshot's content fingerprint (so the store's
        file-level checksum — computed over the torn bytes — passes,
        and only the publish-time fingerprint re-verification catches
        it).  With ``snapshot_corrupt`` zero the payload is returned
        unchanged, no randomness consumed.
        """
        rate = self.plan.snapshot_corrupt
        if rate <= 0:
            return payload
        rng = substream("faults", self.seed, "snapshot_corrupt", stage, attempt)
        if rng.random() >= rate:
            return payload
        self._count("fault.snapshot_corrupt")
        torn = dict(payload)
        recorded = str(torn.get("fingerprint", ""))
        torn["fingerprint"] = recorded[::-1] if recorded else "torn"
        return torn

    # ------------------------------------------------------------------
    # Alias-resolution faults
    # ------------------------------------------------------------------

    def alias_false_negative(self) -> bool:
        """True when a passing MIDAR pair should be rejected anyway."""
        if self.plan.alias_false_negative <= 0:
            return False
        if self._rng("alias_false_negative").random() < self.plan.alias_false_negative:
            self._count("fault.alias_false_negative")
            return True
        return False

    # ------------------------------------------------------------------
    # Dataset faults (applied once to the PeeringDB snapshot)
    # ------------------------------------------------------------------

    def corrupt_peeringdb(self, snapshot: "PeeringDBSnapshot") -> "PeeringDBSnapshot":
        """A copy of ``snapshot`` with rows dropped and stale rows added.

        * ``netfac_missing`` — each AS-at-facility row independently lost;
        * ``netfac_stale`` — per AS, one contradictory row pointing at a
          facility the snapshot does not associate with it (the operator
          left the building years ago; the record lingers);
        * ``ixfac_missing`` — each IXP-at-facility row independently lost.

        With all three rates zero the snapshot is returned unchanged
        (same object, no randomness consumed).
        """
        plan = self.plan
        if not plan.perturbs_datasets:
            return snapshot
        from ..datasets.peeringdb import PdbNetFacRow

        netfac = list(snapshot.netfac)
        if plan.netfac_missing > 0:
            rng = self._rng("netfac_missing")
            kept = [row for row in netfac if rng.random() >= plan.netfac_missing]
            self._count("fault.netfac_dropped", len(netfac) - len(kept))
            netfac = kept
        if plan.netfac_stale > 0:
            rng = self._rng("netfac_stale")
            present: dict[int, set[int]] = {}
            for row in netfac:
                present.setdefault(row.asn, set()).add(row.facility_id)
            all_facilities = sorted(
                row.facility_id for row in snapshot.facilities
            )
            for asn in sorted(present):
                if rng.random() >= plan.netfac_stale:
                    continue
                foreign = [
                    facility_id
                    for facility_id in all_facilities
                    if facility_id not in present[asn]
                ]
                if not foreign:
                    continue
                stale = rng.choice(foreign)
                netfac.append(PdbNetFacRow(asn=asn, facility_id=stale))
                self._count("fault.netfac_stale")
        ixfac = snapshot.ixfac
        if plan.ixfac_missing > 0:
            rng = self._rng("ixfac_missing")
            kept_ixfac = [
                row for row in ixfac if rng.random() >= plan.ixfac_missing
            ]
            self._count("fault.ixfac_dropped", len(ixfac) - len(kept_ixfac))
            ixfac = kept_ixfac
        return snapshot.replace_rows(netfac=netfac, ixfac=list(ixfac))
