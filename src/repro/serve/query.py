"""The read path: line-oriented queries over the live snapshot.

One :class:`QueryEngine` fronts the service.  Writers publish whole
:class:`~repro.serve.snapshot.MapSnapshot` objects through
:meth:`QueryEngine.swap` — a single reference assignment, which CPython
performs atomically — and every request captures that reference exactly
once, so a query runs start to finish against one immutable snapshot
even while the ingest loop swaps new versions underneath it.  There is
no partially-updated state to observe: the torn-map test hammers
queries through concurrent swaps and checks each answer is internally
consistent with exactly one published version.

The query protocol is one request per line, one JSON object per
response (every response names the ``epoch`` and ``fingerprint`` it was
answered from)::

    iface 10.1.2.3          interface -> facility inference
    link 64500 64501        every inferred link between the AS pair
    tenants 17              ASNs with an inferred presence at facility 17
    info                    snapshot version, fingerprint, map sizes
    health                  service state, staleness, incident counters
    health 17               facility 17's disruption-alarm status
    help                    list the commands

Unknown commands and malformed arguments answer ``{"error": ...}`` —
the daemon never dies on a bad query line.

Every spelling of a line parses once, to one normalised query (see
``_parse``).  On the wire path a found lookup is rendered once per
snapshot and its text served from that snapshot's answer memo after.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from ..obs import Instrumentation
from ..sanitize import mutation_point
from ..topology.addressing import MAX_IPV4, int_to_ip, ip_to_int
from .snapshot import LinkEntry, MapSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .health import ServiceHealth

__all__ = ["QueryEngine", "query_snapshot"]

_HELP = {
    "iface <address>": "facility inference for one interface "
    "(dotted quad or integer)",
    "link <asn> <asn>": "inferred links between an AS pair "
    "(order-insensitive)",
    "tenants <facility>": "ASNs with an inferred presence at a facility",
    "info": "snapshot epoch, fingerprint, and map sizes",
    "health [facility]": "service health state, staleness, incident "
    "counters, and change-vs-fault assessment; with a facility id, that "
    "facility's disruption-alarm status (live service only)",
    "help": "this command list",
}


#: Verbs whose answers :meth:`QueryEngine.execute_line` memoises, with
#: the ``found`` flag every stored answer carries: a lookup is stored
#: only when found, and ``info`` has no flag.
_MEMOISED: dict[str, bool | None] = {
    "iface": True,
    "link": True,
    "tenants": True,
    "info": None,
}


def _parse_address(token: str) -> int:
    """One interface address, dotted quad or integer, bounds-checked.

    ``isdigit`` alone admits any digit string — ``iface
    99999999999999`` used to flow into ``int_to_ip`` and blow up out
    of range — so integer forms are re-bounded to ``[0, 2^32)`` here
    and rejections surface as the caller's clean ``{"error": ...}``.
    """
    if token.isdigit():
        value = int(token)
        if value > MAX_IPV4:
            raise ValueError(
                f"address {token} is outside the IPv4 range [0, 2^32)"
            )
        return value
    return ip_to_int(token)


def _link_document(link: LinkEntry) -> dict[str, Any]:
    return {
        "kind": link.kind,
        "type": link.inferred_type,
        "near_address": int_to_ip(link.near_address),
        "near_asn": link.near_asn,
        "near_facility": link.near_facility,
        "far_asn": link.far_asn,
        "far_facility": link.far_facility,
        "ixp": link.ixp_id,
        "confidence": link.confidence,
    }


def _parse(line: str) -> tuple[Any, ...]:
    """Tokenise one query line into its normalised query.

    The one parse behind :func:`query_snapshot`, :meth:`QueryEngine.execute`
    and the answer memo's key: ``("iface", address)``, ``("link", (low,
    high))``, ``("tenants", facility)``, ``("info",)``, ``("help",)``,
    ``("health", args)``, or ``("error", message)`` for a malformed line.
    Every spelling of one lookup (dotted or integer address, either AS
    order, any case or spacing, leading zeros) parses to the same tuple.
    """
    tokens = line.split()
    if not tokens:
        return ("error", "empty query; try 'help'")
    command, args = tokens[0].lower(), tokens[1:]

    if command in ("help", "info"):
        return (command,)

    if command == "iface":
        if len(args) != 1:
            return ("error", "usage: iface <address>")
        try:
            return ("iface", _parse_address(args[0]))
        except ValueError:
            return ("error", f"bad address {args[0]!r}")

    if command == "link":
        if len(args) != 2:
            return ("error", "usage: link <asn> <asn>")
        try:
            near, far = int(args[0]), int(args[1])
        except ValueError:
            return ("error", f"bad AS pair {args[0]!r} {args[1]!r}")
        return ("link", (min(near, far), max(near, far)))

    if command == "health":
        return ("health", tuple(args))

    if command == "tenants":
        if len(args) != 1:
            return ("error", "usage: tenants <facility-id>")
        try:
            facility = int(args[0])
        except ValueError:
            return ("error", "usage: tenants <facility-id>")
        # Facility ids share the address bound: a tampered or fat-
        # fingered id like -5 or 10^14 is a clean miss-shaped error,
        # not an unbounded dict probe.
        if not 0 <= facility <= MAX_IPV4:
            return ("error", f"facility id {args[0]!r} is outside [0, 2^32)")
        return ("tenants", facility)

    return ("error", f"unknown command {command!r}; try 'help'")


def _answer(snapshot: MapSnapshot, query: tuple[Any, ...]) -> dict[str, Any]:
    """The response document for one parsed query against ``snapshot``."""
    version = {"epoch": snapshot.epoch, "fingerprint": snapshot.fingerprint}
    kind = query[0]

    if kind == "error":
        return {"error": query[1], **version}

    if kind == "help":
        return {"query": "help", "commands": dict(_HELP), **version}

    if kind == "info":
        return {
            "query": "info",
            "final": snapshot.final,
            "seed": snapshot.seed,
            "traces_ingested": snapshot.traces_ingested,
            "interfaces": snapshot.stats["interfaces"],
            "resolved": snapshot.stats["resolved"],
            "links": snapshot.stats["links"],
            "facilities": snapshot.stats["facilities"],
            **version,
        }

    if kind == "iface":
        address = query[1]
        entry = snapshot.interfaces.get(address)
        if entry is None:
            return {
                "query": "iface",
                "address": int_to_ip(address),
                "found": False,
                **version,
            }
        return {
            "query": "iface",
            "address": int_to_ip(entry.address),
            "found": True,
            "owner_asn": entry.owner_asn,
            "status": entry.status,
            "type": entry.inferred_type,
            "facility": entry.facility,
            "confidence": entry.confidence,
            "data_health": entry.data_health,
            "candidates": list(entry.candidates),
            **version,
        }

    if kind == "link":
        pair = query[1]
        links = snapshot.links_by_aspair.get(pair, ())
        return {
            "query": "link",
            "as_pair": list(pair),
            "found": bool(links),
            "links": [_link_document(link) for link in links],
            **version,
        }

    if kind == "tenants":
        facility = query[1]
        tenants = snapshot.facility_tenants.get(facility, ())
        return {
            "query": "tenants",
            "facility": facility,
            "found": bool(tenants),
            "tenants": list(tenants),
            **version,
        }

    # ``health``: the snapshot alone has no service state; the live
    # engine intercepts this verb before it gets here.
    return {
        "error": "health requires a live service "
        "(query through the service's engine)",
        **version,
    }


def query_snapshot(snapshot: MapSnapshot, line: str) -> dict[str, Any]:
    """Answer one query line against one immutable snapshot.

    Pure read: the snapshot is never touched beyond index lookups, and
    every response carries the snapshot's epoch and fingerprint so a
    caller can tell which published version answered it.
    """
    return _answer(snapshot, _parse(line))


class QueryEngine:
    """Serves queries against the most recently published snapshot.

    The snapshot reference is the only mutable state, and only
    :meth:`swap`, its declared mutation point, writes it.  Queries read
    it once per request.  Rendered wire text is kept on the snapshot
    (see :meth:`execute_line`), so it is dropped with the snapshot, not
    with a swap: a service cycling through its publish history keeps
    each version's answers warm.
    """

    def __init__(
        self,
        instrumentation: Instrumentation | None = None,
        health: "ServiceHealth | None" = None,
    ) -> None:
        self._obs = instrumentation or Instrumentation()
        self._snapshot: MapSnapshot | None = None
        #: The owning service's health machine; when present the
        #: ``health`` verb is answered here (it needs service state a
        #: bare snapshot doesn't carry), even before the first publish.
        self._health = health

    def current(self) -> MapSnapshot | None:
        """The live snapshot (``None`` before the first publication)."""
        return self._snapshot

    @mutation_point
    def swap(self, snapshot: MapSnapshot) -> None:
        """Atomically switch the read path to ``snapshot``.

        One reference assignment — in-flight queries keep the version
        they captured; new queries see the new one.  The old snapshot
        is unreferenced here, never mutated (copy-on-write).
        """
        self._snapshot = snapshot
        self._obs.count("serve.swaps")
        self._obs.emit(
            "serve.snapshot.swap",
            epoch=snapshot.epoch,
            final=snapshot.final,
            fingerprint=snapshot.fingerprint,
        )

    def _facility_health(
        self, token: str, snapshot: MapSnapshot | None
    ) -> dict[str, Any]:
        """Per-facility disruption status for ``health <facility-id>``.

        The id is bounds-checked exactly like the ``tenants`` argument —
        same guard, same error shape — before it touches any state.
        """
        assert self._health is not None
        try:
            facility = int(token)
        except ValueError:
            return {"error": "usage: health [facility-id]"}
        if not 0 <= facility <= MAX_IPV4:
            return {"error": f"facility id {token!r} is outside [0, 2^32)"}
        alarmed = self._health.alarmed_facilities()
        document: dict[str, Any] = {
            "query": "health",
            "facility": facility,
            "alarmed": facility in alarmed,
            "assessment": self._health.map_assessment,
            "state": self._health.state,
        }
        if snapshot is not None:
            document["tenants"] = len(
                snapshot.facility_tenants.get(facility, ())
            )
            document["epoch"] = snapshot.epoch
            document["fingerprint"] = snapshot.fingerprint
        return document

    def execute(self, line: str) -> dict[str, Any]:
        """Answer one query line against the snapshot captured now."""
        return self._respond(self._snapshot, _parse(line))

    def _respond(
        self, snapshot: MapSnapshot | None, query: tuple[Any, ...]
    ) -> dict[str, Any]:
        """Answer ``query`` against ``snapshot``, the caller's one capture."""
        self._obs.count("serve.queries")
        if query[0] == "health" and self._health is not None:
            args = query[1]
            if not args:
                response: dict[str, Any] = self._health.report(snapshot)
            elif len(args) == 1:
                response = self._facility_health(args[0], snapshot)
            else:
                response = {"error": "usage: health [facility-id]"}
            self._obs.emit(
                "serve.query",
                kind=response.get("query", "error"),
                found=response.get("found"),
                epoch=snapshot.epoch if snapshot is not None else None,
            )
            return response
        if snapshot is None:
            return {"error": "no snapshot published yet"}
        response = _answer(snapshot, query)
        self._obs.emit(
            "serve.query",
            kind=response.get("query", "error"),
            found=response.get("found"),
            epoch=snapshot.epoch,
        )
        return response

    def execute_line(self, line: str) -> str:
        """One-line JSON rendering of :meth:`execute` (the wire format).

        A found lookup or ``info`` is rendered once per snapshot and
        stored in that snapshot's :class:`~repro.serve.snapshot.AnswerMemo`
        under its normalised query; later asks, in any spelling, return
        the stored text.  Misses, errors and ``health`` are rendered
        every time: a miss's key space has no bound, and ``health`` is
        live service state.  The snapshot is captured once, so an answer
        is only ever stored in the memo of the version that rendered it.
        """
        snapshot = self._snapshot  # the one capture; never re-read below
        query = _parse(line)
        if snapshot is not None:
            text = snapshot.answers.get(query)
            if text is not None:
                self._obs.count("serve.queries")
                self._obs.emit(
                    "serve.query",
                    kind=query[0],
                    found=_MEMOISED[query[0]],
                    epoch=snapshot.epoch,
                )
                return text
        response = self._respond(snapshot, query)
        text = json.dumps(response, sort_keys=True)
        if (
            snapshot is not None
            and query[0] in _MEMOISED
            and response.get("found") is _MEMOISED[query[0]]
        ):
            snapshot.answers.store(query, text)
            self._obs.count("serve.answers.rendered")
        return text
