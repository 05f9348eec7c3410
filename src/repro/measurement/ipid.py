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

A shared counter advances on every probe to any of the router's
interfaces, so interleaved samples from it really are monotonic across
interfaces.
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
    """Answers IP-ID probes for every interface of a topology.

    Every counter — one per shared-counter router, one per interface of
    a per-interface router — is a flat *cell*: index ``i`` into the
    parallel lists :attr:`counters` and :attr:`velocities`.  A probe to
    a counter address advances its cell by ``counters[i] +=
    velocities[i]`` and answers ``int(counters[i]) % IPID_MODULUS``.
    MIDAR's resolve kernel advances cells inline with exactly that
    float addition, so the lists are the one copy of counter state.
    """

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self._topology = topology
        self._rng = Random(seed)
        # Cells are created lazily at an address's first probe;
        # velocities model background traffic.  Counters accumulate as
        # floats so that a router's characteristic velocity is
        # measurable to sub-integer precision — MIDAR's velocity sieve
        # depends on aliases exhibiting matching rates.
        self.counters: list[float] = []
        self.velocities: list[float] = []
        self._router_cell: dict[int, int] = {}
        #: Per-address dispatch, ``(mode, cell)``: what a probe to the
        #: address consults, resolved once from the immutable topology
        #: (interface -> router -> AS -> mode).  ``mode`` is ``None`` for
        #: HOST interfaces; ``cell`` is ``-1`` outside the counter modes.
        self._dispatch: dict[int, tuple[IPIDMode | None, int]] = {}

    def _new_cell(self) -> int:
        """Append a counter cell at a random phase and velocity.

        The velocity — IP-ID increments per probe, the background
        traffic rate — is at least 1.0 so every probe observes a fresh
        IP-ID (a shared counter that repeated a value would wrongly
        fail the monotonic bounds test).
        """
        self.counters.append(float(self._rng.randrange(IPID_MODULUS)))
        self.velocities.append(self._rng.uniform(1.0, 9.0))
        return len(self.counters) - 1

    def probe(self, address: int) -> int | None:
        """Send one probe to ``address``; return the IP-ID or ``None``.

        ``None`` models an unresponsive interface (no reply before the
        prober's timeout).  Two successive probes to interfaces of the
        same shared-counter router advance one cell, so they always
        observe strictly increasing (mod 2^16) values.
        """
        route = self._dispatch.get(address) or self.route(address)
        if route is None:
            return None
        mode, cell = route
        if cell >= 0:
            counter = self.counters[cell] + self.velocities[cell]
            self.counters[cell] = counter
            return int(counter) % IPID_MODULUS
        if mode is None or mode is IPIDMode.RANDOM:
            # Servers (mode None) are separate devices: their IP-ID
            # stream tells nothing about the gateway router, so MIDAR
            # must discard them rather than alias them onto the router.
            return self._rng.randrange(IPID_MODULUS)
        if mode is IPIDMode.CONSTANT:
            return 0
        return None  # UNRESPONSIVE

    def route(self, address: int) -> tuple[IPIDMode | None, int] | None:
        """``address``'s ``(mode, cell)`` dispatch, memoised.

        Creating a cell draws from the responder's RNG, so the first
        call for an address must come exactly where its first probe
        would.  ``None`` (and no memo entry) for an address the
        topology does not know.
        """
        route = self._dispatch.get(address)
        if route is not None:
            return route
        interface = self._topology.interfaces.get(address)
        if interface is None:
            return None
        router = self._topology.routers[interface.router_id]
        mode = (
            None
            if interface.kind is InterfaceKind.HOST
            else self._topology.ases[router.asn].ipid_mode
        )
        cell = -1
        if mode is IPIDMode.SHARED_COUNTER:
            # One cell per router; every probe to any of the router's
            # interfaces advances it.
            cell = self._router_cell.get(router.router_id, -1)
            if cell < 0:
                cell = self._router_cell[router.router_id] = self._new_cell()
        elif mode is IPIDMode.PER_INTERFACE:
            cell = self._new_cell()
        route = (mode, cell)
        self._dispatch[address] = route
        return route

    def probe_train(self, address: int, count: int = 3) -> list[int | None]:
        """Send ``count`` back-to-back probes to one address."""
        return [self.probe(address) for _ in range(count)]
