"""Columnar trace codec: flat parallel arrays across the shard boundary.

Campaign shard workers hand their traceroutes back to the parent
process.  Pickling per-hop dataclasses pays one ``__reduce__``
round-trip per hop; this module flattens a traceroute stream into
parallel flat arrays — addresses as u32, RTTs as f64, hop offsets as
u64 — that pickle as a handful of ``memcpy``-shaped buffers, and
rebuilds the dataclasses on the parent side.

The dataclass API stays the module boundary: :class:`TraceArrays` is a
*codec target*, built from any objects shaped like
:class:`repro.measurement.traceroute.Traceroute` (duck-typed, so this
module imports nothing from the inference tree and sits at layer 1 of
R009's layering table) and rebuilt into them on request.  Field round-trips are
exact: addresses/ASNs/TTLs are integers, RTTs are IEEE doubles stored
in ``array('d')``, and ``None`` hops ride dedicated sentinels — the
property test in ``tests/core/test_columnar.py`` pins every field.

Nothing here draws randomness or reads clocks; arrays are pure
functions of the traces they flatten.
"""

from __future__ import annotations

from array import array
from typing import Iterable

__all__ = [
    "NO_ADDRESS",
    "NO_ROUTER",
    "NO_RTT",
    "TraceArrays",
]

#: Sentinel for an unresponsive hop (``TraceHop.address is None``).
#: 255.255.255.255 is never allocated by the address pools; flattening
#: a trace that really carries it raises rather than corrupting data.
NO_ADDRESS = 0xFFFFFFFF
#: Sentinel for ``TraceHop.router_id is None`` (ground-truth column).
NO_ROUTER = 0xFFFFFFFF
#: Sentinel for ``TraceHop.rtt_ms is None``; NaN never equals itself,
#: so it can never collide with a real RTT sample.
NO_RTT = float("nan")


class TraceArrays:
    """A traceroute stream flattened into parallel flat arrays.

    Per-hop columns (``len == total hops``, indexed by flat hop index):

    * ``hop_address`` — u32, :data:`NO_ADDRESS` for ``*`` hops;
    * ``hop_rtt`` — f64, :data:`NO_RTT` (NaN) for missing samples;
    * ``hop_ttl`` — u16;
    * ``hop_router`` — u32 ground-truth router id, :data:`NO_ROUTER`
      when absent (scoring only, like the field it mirrors).

    Per-trace columns (``len == trace count``):

    * ``trace_offsets`` — u64 hop-range starts, one extra terminal
      entry (trace *i* owns flat hops ``offsets[i]:offsets[i+1]``);
    * ``src_asn`` / ``dst_address`` — u32;
    * ``reached`` — one byte per trace (0/1);
    * ``source_id`` / ``platform`` — plain string lists (identifiers,
      not numeric data; pickle memoises the shared objects).

    The structure is **append-only**: :meth:`extend` flattens new traces
    onto the end without re-flattening the prefix.
    """

    __slots__ = (
        "trace_offsets",
        "hop_address",
        "hop_rtt",
        "hop_ttl",
        "hop_router",
        "src_asn",
        "dst_address",
        "reached",
        "source_id",
        "platform",
    )

    def __init__(self) -> None:
        self.trace_offsets = array("Q", [0])
        self.hop_address = array("I")
        self.hop_rtt = array("d")
        self.hop_ttl = array("H")
        self.hop_router = array("I")
        self.src_asn = array("I")
        self.dst_address = array("I")
        self.reached = bytearray()
        self.source_id: list[str] = []
        self.platform: list[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_traces(cls, traces: Iterable) -> "TraceArrays":
        """Flatten ``traces`` (Traceroute-shaped objects) into arrays."""
        arrays = cls()
        arrays.extend(traces)
        return arrays

    def extend(self, traces: Iterable) -> None:
        """Append ``traces`` onto the flattened stream."""
        offsets = self.trace_offsets
        addresses = self.hop_address
        rtts = self.hop_rtt
        ttls = self.hop_ttl
        routers = self.hop_router
        for trace in traces:
            for hop in trace.hops:
                address = hop.address
                if address is None:
                    address = NO_ADDRESS
                elif address >= NO_ADDRESS:
                    raise ValueError(
                        f"address {address:#x} collides with the "
                        f"NO_ADDRESS sentinel"
                    )
                addresses.append(address)
                rtts.append(NO_RTT if hop.rtt_ms is None else hop.rtt_ms)
                ttls.append(hop.ttl)
                routers.append(
                    NO_ROUTER if hop.router_id is None else hop.router_id
                )
            offsets.append(len(addresses))
            self.src_asn.append(trace.src_asn)
            self.dst_address.append(trace.dst_address)
            self.reached.append(1 if trace.reached else 0)
            self.source_id.append(trace.source_id)
            self.platform.append(trace.platform)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of flattened traces."""
        return len(self.trace_offsets) - 1

    @property
    def total_hops(self) -> int:
        """Number of flattened hops across every trace."""
        return len(self.hop_address)

    # ------------------------------------------------------------------
    # Rebuild codec (arrays -> dataclasses)
    # ------------------------------------------------------------------

    def rebuild_all(self, trace_factory, hop_factory) -> list:
        """Reconstruct every flattened trace, in flatten order, through
        the given dataclass factories (kept injectable so this module
        imports nothing from the measurement layer).

        One pass: every hop is built by a single comprehension over the
        four hop columns, then each trace takes its hop slice by
        ``trace_offsets``.  Factories are called positionally, as
        ``hop_factory(ttl, address, rtt_ms, router_id)`` and
        ``trace_factory(source_id, platform, src_asn, dst_address, hops,
        reached)``.  Every field round-trips exactly: the property
        tests in ``tests/core/test_columnar.py`` hold flatten → rebuild
        to field-for-field equality, and
        ``tests/core/test_columnar_reference.py`` holds this pass to the
        per-trace reference loop.
        """
        hops = tuple([
            hop_factory(
                ttl,
                None if address == NO_ADDRESS else address,
                # NaN is the None sentinel; a real sample equals itself.
                rtt if rtt == rtt else None,
                None if router == NO_ROUTER else router,
            )
            for ttl, address, rtt, router in zip(
                self.hop_ttl, self.hop_address, self.hop_rtt, self.hop_router
            )
        ])
        offsets = self.trace_offsets
        return [
            trace_factory(
                source_id, platform, src_asn, dst_address,
                hops[start:stop], bool(reached),
            )
            for source_id, platform, src_asn, dst_address, reached, start, stop
            in zip(
                self.source_id, self.platform, self.src_asn,
                self.dst_address, self.reached, offsets, offsets[1:],
            )
        ]

    # ------------------------------------------------------------------
    # Pickling (fork results cross this boundary)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceArrays):
            return NotImplemented
        for slot in self.__slots__:
            mine = getattr(self, slot)
            theirs = getattr(other, slot)
            if isinstance(mine, array):
                # Bitwise, not elementwise: the NaN RTT sentinel must
                # compare equal to itself for round-trip checks.
                if mine.typecode != theirs.typecode:
                    return False
                if mine.tobytes() != theirs.tobytes():
                    return False
            elif mine != theirs:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceArrays(traces={len(self)}, hops={self.total_hops})"
