"""IP-ID responder: what alias-resolution probes see on the wire.

MIDAR (Keys et al., used in Section 4.1) sends probe trains to candidate
interface addresses and applies the *monotonic bounds test*: two
addresses belong to the same router only if the interleaved IP-ID
samples are consistent with a single shared increasing counter.

This module implements the responder side.  Each router answers probes
according to its operator's :class:`~repro.topology.asn.IPIDMode`:

* ``SHARED_COUNTER`` — one velocity-limited counter for all interfaces;
  aliases are detectable.
* ``PER_INTERFACE``  — each interface gets its own counter; the bounds
  test (correctly) rejects the pair.
* ``RANDOM``         — pseudo-random IDs, rejected by the test.
* ``CONSTANT``       — always zero, unusable.
* ``UNRESPONSIVE``   — no replies at all (the Google case in the paper).

Counters advance with global virtual time so that interleaved samples
from a shared counter really are monotonic across interfaces.
"""

from __future__ import annotations

from random import Random

from ..topology.asn import IPIDMode
from ..topology.network import InterfaceKind
from ..topology.topology import Topology

__all__ = ["IpidResponder", "IPID_MODULUS"]

#: IP-ID is a 16-bit field; counters wrap.
IPID_MODULUS = 1 << 16


class IpidResponder:
    """Answers IP-ID probes for every interface of a topology."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self._topology = topology
        self._rng = Random(seed)
        self._clock = 0
        # Per-router shared counters and per-interface private counters
        # are created lazily; velocities model background traffic.
        # Counters accumulate as floats so that a router's characteristic
        # velocity is measurable to sub-integer precision — MIDAR's
        # velocity sieve depends on aliases exhibiting matching rates.
        self._router_counter: dict[int, float] = {}
        self._router_velocity: dict[int, float] = {}
        self._iface_counter: dict[int, float] = {}
        self._iface_velocity: dict[int, float] = {}
        #: Per-address dispatch, ``(mode, router id)``: what a probe to
        #: the address consults, resolved once from the immutable
        #: topology (interface -> router -> AS -> mode) and filled
        #: lazily.  ``mode`` is ``None`` for HOST interfaces.
        self._dispatch: dict[int, tuple[IPIDMode | None, int]] = {}

    def _velocity(self) -> float:
        """IP-ID increments per probe: background traffic rate.

        At least 1.0 so every probe observes a fresh IP-ID (a shared
        counter that repeated a value would wrongly fail the monotonic
        bounds test).
        """
        return self._rng.uniform(1.0, 9.0)

    def probe(self, address: int) -> int | None:
        """Send one probe to ``address``; return the IP-ID or ``None``.

        ``None`` models an unresponsive interface (no reply before the
        prober's timeout).  Every probe advances virtual time, so two
        successive probes to interfaces of the same shared-counter
        router always observe strictly increasing (mod 2^16) values.
        """
        self._clock += 1
        route = self._dispatch.get(address)
        if route is None:
            route = self._route(address)
            if route is None:
                return None
        mode, router_id = route
        if mode is IPIDMode.SHARED_COUNTER:
            # One counter per router; every probe to any of the
            # router's interfaces advances the same counter.
            counter = self._router_counter.get(router_id)
            if counter is None:
                counter = float(self._rng.randrange(IPID_MODULUS))
                self._router_velocity[router_id] = self._velocity()
            counter += self._router_velocity[router_id]
            self._router_counter[router_id] = counter
            return int(counter) % IPID_MODULUS
        if mode is IPIDMode.PER_INTERFACE:
            counter = self._iface_counter.get(address)
            if counter is None:
                counter = float(self._rng.randrange(IPID_MODULUS))
                self._iface_velocity[address] = self._velocity()
            counter += self._iface_velocity[address]
            self._iface_counter[address] = counter
            return int(counter) % IPID_MODULUS
        if mode is None or mode is IPIDMode.RANDOM:
            # Servers (mode None) are separate devices: their IP-ID
            # stream tells nothing about the gateway router, so MIDAR
            # must discard them rather than alias them onto the router.
            return self._rng.randrange(IPID_MODULUS)
        if mode is IPIDMode.CONSTANT:
            return 0
        return None  # UNRESPONSIVE

    def _route(self, address: int) -> tuple[IPIDMode | None, int] | None:
        """Resolve and memoise ``address``'s dispatch; ``None`` (and no
        memo entry) for an address the topology does not know."""
        interface = self._topology.interfaces.get(address)
        if interface is None:
            return None
        router = self._topology.routers[interface.router_id]
        mode = (
            None
            if interface.kind is InterfaceKind.HOST
            else self._topology.ases[router.asn].ipid_mode
        )
        route = (mode, router.router_id)
        self._dispatch[address] = route
        return route

    def probe_train(self, address: int, count: int = 3) -> list[int | None]:
        """Send ``count`` back-to-back probes to one address."""
        return [self.probe(address) for _ in range(count)]
