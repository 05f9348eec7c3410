"""Traceroute engine over the generated topology.

The engine reproduces the observable behaviour the paper's method
depends on (Sections 3.2, 4.1, 4.3):

* hop *k* is answered by the *k*-th router on the forwarding path, from
  the **ingress** interface — the interface facing the previous hop.
  Crossing a public peering therefore records the far router's IXP-LAN
  address, and crossing a private interconnect records the far router's
  point-to-point address (possibly numbered out of the *near* AS's
  space);
* the egress interfaces of routers are invisible, which is why CFS needs
  the reverse-direction search and the proximity heuristic;
* hops are occasionally unresponsive (``None`` address, rendered ``*``);
* per-hop RTTs follow geographic propagation plus jitter, so a remote
  peer's IXP-LAN hop shows a delay step incompatible with the exchange's
  metro.

We model ICMP Paris traceroute: forwarding in the substrate is
deterministic per flow, so the load-balancing artefacts Paris traceroute
exists to suppress never arise and a single pass per target suffices.

Observable noise (hop loss, RTT jitter) is drawn from a **keyed
per-trace substream** — ``substream("trace", seed, source_id, dst,
seq)`` where ``seq`` counts prior issues of the same (source, target)
pair — never from a shared sequential stream.  A trace's bytes are a
pure function of the engine seed and the probe's identity, independent
of how many unrelated probes ran before it, which is what lets the
parallel campaign executor shard probes freely and still merge
byte-identical output (see :mod:`repro.exec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..columnar import TraceArrays
from ..exec.shard import substream
from ..sanitize import assert_rng
from ..topology.network import InterfaceKind
from ..topology.routing import Forwarder
from ..topology.topology import Topology
from .rtt import RttModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..faults.injector import FaultInjector

__all__ = [
    "Traceroute",
    "TracerouteConfig",
    "TracerouteEngine",
    "flatten_traces",
    "rebuild_traces",
]


@dataclass(frozen=True, slots=True)
class Traceroute:
    """One traceroute measurement, stored as per-hop columns.

    Hop *i* of the output (TTL ``i + 1``) is ``addresses[i]``,
    ``rtts[i]`` and ``routers[i]``; the three tuples always have equal
    length.  An unresponsive hop (``*``) has ``None`` for both its
    address and its RTT.  The ground-truth ``routers`` column is
    carried for scoring and churn censoring only — inference code must
    never read it.

    Attributes:
        source_id: vantage-point identifier (platform-scoped).
        platform: name of the measurement platform.
        src_asn: AS hosting the vantage point.
        dst_address: probed destination.
        addresses: replying address per hop, in TTL order.
        rtts: minimum RTT sample (ms) per hop.
        routers: ground-truth router per hop.
        reached: whether the destination answered.
    """

    source_id: str
    platform: str
    src_asn: int
    dst_address: int
    addresses: tuple[int | None, ...]
    rtts: tuple[float | None, ...]
    routers: tuple[int | None, ...]
    reached: bool

    def responsive_addresses(self) -> list[int]:
        """Addresses of responsive hops, in path order."""
        return [address for address in self.addresses if address is not None]

    def truncated(self, hops: int) -> "Traceroute":
        """The first ``hops`` hops of this trace, which then never
        reaches its destination."""
        return Traceroute(
            self.source_id, self.platform, self.src_asn, self.dst_address,
            self.addresses[:hops], self.rtts[:hops], self.routers[:hops],
            False,
        )

    def starred(self, lost: list[int]) -> "Traceroute":
        """This trace with the hops at ascending positions ``lost``
        unanswered; a lost final hop means the destination went unheard."""
        addresses = list(self.addresses)
        rtts = list(self.rtts)
        for index in lost:
            addresses[index] = rtts[index] = None
        return Traceroute(
            self.source_id, self.platform, self.src_asn, self.dst_address,
            tuple(addresses), tuple(rtts), self.routers,
            self.reached and lost[-1] != len(addresses) - 1,
        )


def flatten_traces(traces) -> TraceArrays:
    """Flatten :class:`Traceroute` objects into columnar arrays.

    The measurement-layer half of the columnar codec: traces in,
    :class:`repro.columnar.TraceArrays` out.  Pure and exact —
    :func:`rebuild_traces` restores field-identical objects.
    """
    return TraceArrays.from_traces(traces)


def rebuild_traces(arrays: TraceArrays) -> list[Traceroute]:
    """Rebuild :class:`Traceroute` objects from columnar arrays."""
    return arrays.rebuild_all(Traceroute)


@dataclass(frozen=True, slots=True)
class TracerouteConfig:
    """Observable-noise knobs of the engine."""

    #: Per-hop probability that a router drops the TTL-exceeded reply.
    hop_loss_prob: float = 0.02
    #: Maximum TTL probed before giving up.
    max_ttl: int = 30
    #: Number of RTT samples taken per hop (min is reported, mirroring
    #: how the paper repeats measurements to dodge congestion).
    rtt_samples: int = 3
    #: Paris semantics (the paper's choice, after Augustin et al.): keep
    #: the flow identifier constant so every probe of one measurement
    #: follows one ECMP path.  ``False`` models classic traceroute,
    #: whose per-TTL flow variation can stitch hops from *different*
    #: parallel paths into one output — the false-adjacency artifact.
    paris: bool = True


class TracerouteEngine:
    """Issues traceroutes from topology routers toward interface addresses."""

    def __init__(
        self,
        topology: Topology,
        forwarder: Forwarder | None = None,
        rtt_model: RttModel | None = None,
        config: TracerouteConfig | None = None,
        seed: int = 0,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self._topology = topology
        self._forwarder = forwarder or Forwarder(topology)
        self._rtt = rtt_model or RttModel(seed=seed)
        self.config = config or TracerouteConfig()
        self._seed = seed
        self.traces_issued = 0
        #: Issue counter per (source_id, dst_address): the ``seq`` part
        #: of the per-trace RNG substream key, so a re-probe of the same
        #: pair (retries, follow-ups) draws fresh but deterministic
        #: noise.
        self._issue_counts: dict[tuple[str, int], int] = {}
        #: Optional chaos layer; every finished trace passes through its
        #: :meth:`~repro.faults.injector.FaultInjector.perturb_trace`.
        self.fault_injector = fault_injector
        #: One-way cost (ms) of each directed router-to-router step taken
        #: so far: a pure function of two immutable router locations
        #: and the RTT model's frozen config, filled lazily.
        self._step_ms: dict[tuple[int, int], float] = {}

    @staticmethod
    def _flow_id(src_router: int, dst_address: int, probe: int) -> int:
        """The ECMP-relevant flow identity of one probe."""
        return hash((src_router, dst_address, probe)) & 0xFFFF

    @property
    def topology(self) -> Topology:
        """The ground-truth topology probes run over."""
        return self._topology

    @property
    def forwarder(self) -> Forwarder:
        """The forwarding-path expander in use."""
        return self._forwarder

    def _finish(self, trace: Traceroute) -> Traceroute:
        """Route one finished trace through the fault injector, if any."""
        if self.fault_injector is None:
            return trace
        return self.fault_injector.perturb_trace(trace)

    # ------------------------------------------------------------------
    # Issue accounting (sharded-execution merge support)
    # ------------------------------------------------------------------

    def issue_baseline(self) -> tuple[int, dict[tuple[str, int], int]]:
        """Snapshot of the probe-issue accounting.

        A shard worker captures this before executing its tasks and
        derives deltas afterwards (:meth:`issue_deltas_since`), so the
        parent can replay the accounting without re-running the probes.
        """
        return self.traces_issued, dict(self._issue_counts)

    def issue_deltas_since(
        self, baseline: tuple[int, dict[tuple[str, int], int]]
    ) -> tuple[int, dict[tuple[str, int], int]]:
        """Issue-count growth since ``baseline`` (worker side)."""
        base_issued, base_counts = baseline
        deltas = {
            key: count - base_counts.get(key, 0)
            for key, count in self._issue_counts.items()
            if count != base_counts.get(key, 0)
        }
        return self.traces_issued - base_issued, deltas

    def restore_issue_state(
        self, baseline: tuple[int, dict[tuple[str, int], int]]
    ) -> None:
        """Rewind the accounting to an :meth:`issue_baseline` snapshot.

        Shard workers restore their baseline after computing deltas, so
        the in-process serial fallback (which mutates the parent's
        engine directly) does not double-count once the parent absorbs
        the deltas.  In a forked child the restore is moot — the child
        exits — but running it unconditionally keeps both paths alike.
        """
        self.traces_issued = baseline[0]
        self._issue_counts = dict(baseline[1])

    def absorb_issue_deltas(
        self,
        traces_issued: int,
        issue_counts: dict[tuple[str, int], int],
    ) -> None:
        """Fold a shard's issue deltas into this engine (parent side).

        After absorbing every shard in shard-index order the engine's
        accounting equals the serial run's, so later probes (follow-up
        campaigns) derive the same ``seq`` values either way.
        """
        self.traces_issued += traces_issued
        for key, delta in issue_counts.items():
            self._issue_counts[key] = self._issue_counts.get(key, 0) + delta

    def _step(self, here: int, there: int) -> float:
        """Memoised one-way cost of extending a path from ``here`` to
        ``there`` (:meth:`RttModel.step_one_way_ms`, bit for bit)."""
        key = (here, there)
        cost = self._step_ms.get(key)
        if cost is None:
            cost = self._rtt.step_one_way_ms(
                self._topology.router_location(here),
                self._topology.router_location(there),
            )
            self._step_ms[key] = cost
        return cost

    def _trace_rng(self, source_id: str, dst_address: int):
        """The keyed noise substream for one probe (and bump ``seq``)."""
        key = (source_id, dst_address)
        seq = self._issue_counts.get(key, 0)
        self._issue_counts[key] = seq + 1
        return assert_rng(
            substream("trace", self._seed, source_id, dst_address, seq),
            "trace.noise",
        )

    def trace(
        self,
        src_router: int,
        dst_address: int,
        source_id: str = "local",
        platform: str = "local",
    ) -> Traceroute:
        """Run one traceroute from ``src_router`` toward ``dst_address``.

        With Paris semantics (default) every probe shares one flow id
        and therefore one ECMP path; classic mode re-routes each TTL's
        probe independently (:meth:`_trace_classic`).
        """
        self.traces_issued += 1
        rng = self._trace_rng(source_id, dst_address)
        src = self._topology.routers[src_router]
        if not self.config.paris:
            return self._finish(
                self._trace_classic(
                    src_router, dst_address, source_id, platform, rng
                )
            )
        flow_id = self._flow_id(src_router, dst_address, 0)
        path = self._forwarder.router_path(src_router, dst_address, flow_id)
        if path is None:
            return self._finish(
                Traceroute(
                    source_id, platform, src.asn, dst_address, (), (), (), False
                )
            )

        if len(path) == 1:
            # Destination address lives on the source router itself.
            return self._finish(
                Traceroute(
                    source_id, platform, src.asn, dst_address,
                    (dst_address,), (0.1,), (src_router,), True,
                )
            )

        addresses: list[int | None] = []
        rtts: list[float | None] = []
        routers: list[int] = []
        one_way_ms = self._rtt.config.access_ms / 2.0
        reached = False
        # Host/server targets sit on a LAN *behind* their router: the
        # router answers TTL-expiry from its ingress interface like any
        # transit hop, and the host itself echoes one TTL later — which
        # is what keeps the final interdomain crossing observable when
        # campaigns target server addresses (Section 5's hitlists).
        dst_interface = self._topology.interfaces[dst_address]
        host_target = dst_interface.kind is InterfaceKind.HOST
        # The per-hop kernel: names bound once per trace, step costs
        # memoised, RTT sampling in one call — same draws, same floats.
        config = self.config
        max_ttl = config.max_ttl
        hop_loss_prob = config.hop_loss_prob
        samples = config.rtt_samples
        min_sample_ms = self._rtt.min_sample_ms
        random = rng.random
        step = self._step
        add_address = addresses.append
        add_rtt = rtts.append
        add_router = routers.append
        last_hop = path[-1]
        previous = src_router
        # path[0] is the source router itself; it does not appear as a
        # hop, and TTL is the hop's position plus one.
        for router_hop in path[1 : max_ttl + 1]:
            router_id = router_hop.router_id
            one_way_ms += step(previous, router_id)
            previous = router_id
            is_last = router_hop is last_hop
            if is_last and not host_target:
                # The destination answers the echo from the probed
                # address itself, regardless of ingress interface.
                address: int | None = dst_address
            else:
                address = router_hop.ingress_address
            if address is not None and random() < hop_loss_prob:
                address = None
            add_address(address)
            add_rtt(
                None if address is None
                else min_sample_ms(one_way_ms, rng, samples)
            )
            add_router(router_id)
            if is_last and not host_target and address is not None:
                reached = True
        if host_target and addresses and len(path) - 1 <= max_ttl:
            # The host's own echo, one hop behind its gateway router.
            one_way_ms += self._rtt.config.per_hop_processing_ms + 0.05
            add_address(dst_address)
            add_rtt(min_sample_ms(one_way_ms, rng, samples))
            add_router(last_hop.router_id)
            reached = True
        return self._finish(
            Traceroute(
                source_id, platform, src.asn, dst_address,
                tuple(addresses), tuple(rtts), tuple(routers), reached,
            )
        )

    def _trace_classic(
        self,
        src_router: int,
        dst_address: int,
        source_id: str,
        platform: str,
        rng,
    ) -> Traceroute:
        """Classic traceroute: each TTL's probe hashes to its own flow.

        Hop *k* of the output is hop *k* of the path that probe *k*
        happened to take — which may be a *different* equal-cost path
        than its neighbours', producing the stitched-path artifacts that
        motivated Paris traceroute.
        """
        src = self._topology.routers[src_router]
        dst_interface = self._topology.interfaces.get(dst_address)
        host_target = (
            dst_interface is not None and dst_interface.kind is InterfaceKind.HOST
        )
        addresses: list[int | None] = []
        rtts: list[float | None] = []
        routers: list[int] = []
        reached = False
        for ttl in range(1, self.config.max_ttl + 1):
            flow_id = self._flow_id(src_router, dst_address, ttl)
            path = self._forwarder.router_path(
                src_router, dst_address, flow_id
            )
            if path is None:
                break
            # A host target echoes one TTL behind its gateway router; a
            # router-address target echoes in place of its final hop.
            echo_ttl = max(1, len(path) if host_target else len(path) - 1)
            if ttl >= echo_ttl:
                router_hop = path[-1]
                address: int | None = dst_address
                reached = True
            else:
                router_hop = path[ttl]
                address = router_hop.ingress_address
            if address is not None and rng.random() < self.config.hop_loss_prob:
                address = None
                reached = False if ttl >= len(path) else reached
            rtt: float | None = None
            if address is not None:
                one_way = self._rtt.config.access_ms / 2.0
                previous = src_router
                for step in path[1 : min(ttl, len(path) - 1) + 1]:
                    one_way += self._step(previous, step.router_id)
                    previous = step.router_id
                rtt = self._rtt.min_sample_ms(
                    one_way, rng, self.config.rtt_samples
                )
            addresses.append(address)
            rtts.append(rtt)
            routers.append(router_hop.router_id)
            if reached:
                break
        return Traceroute(
            source_id, platform, src.asn, dst_address,
            tuple(addresses), tuple(rtts), tuple(routers), reached,
        )

    def ingress_kind(self, address: int) -> InterfaceKind | None:
        """Ground-truth interface kind (scoring helper, not for inference)."""
        interface = self._topology.interfaces.get(address)
        return interface.kind if interface is not None else None
