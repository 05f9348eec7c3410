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
``_parse``), and each memoisable query has one canonical line — the
spelling its answer prints, ``iface <dotted>``, ``link <low> <high>``,
``tenants <id>`` or ``info``.  On the wire path a found lookup is
rendered once per snapshot and stored in that snapshot's answer memo
under its canonical line, so a canonical ask is one dict probe and any
other spelling one parse and a probe.  A not-found lookup is filled
from a per-snapshot template instead of rendered.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

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


class _Lookup(NamedTuple):
    """How a lookup verb's not-found answer is filled from its template."""

    #: The :class:`MapSnapshot` mapping the verb probes.
    index: str
    #: The answer field that echoes the verb's argument.
    field: str
    #: That field's JSON text for a parsed argument.
    argument: Callable[[Any], str]

    def finds(self, snapshot: MapSnapshot, key: Any) -> bool:
        """Whether ``snapshot`` answers this verb's ``key`` as found."""
        return bool(getattr(snapshot, self.index).get(key))


_LOOKUPS = {
    "iface": _Lookup(
        "interfaces", "address", lambda address: f'"{int_to_ip(address)}"'
    ),
    "link": _Lookup("links_by_aspair", "as_pair", "[%d, %d]".__mod__),
    "tenants": _Lookup("facility_tenants", "facility", "%d".__mod__),
}

#: Stands in for a template's argument; JSON spells it ``"\u0000"``,
#: which no other field of a not-found answer can contain.
_SENTINEL = "\0"


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


def _canonical(query: tuple[Any, ...]) -> str:
    """The canonical line of a memoisable query, its answer memo key.

    It is the spelling the answer itself prints, and it parses back to
    ``query``.
    """
    kind = query[0]
    if kind == "iface":
        return "iface " + int_to_ip(query[1])
    if kind == "link":
        return "link %d %d" % query[1]
    if kind == "tenants":
        return "tenants %d" % query[1]
    return "info"


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


def _template(
    snapshot: MapSnapshot, query: tuple[Any, ...]
) -> tuple[str, str]:
    """The wire text of a not-found lookup, split around its argument.

    ``query`` must be a lookup ``snapshot`` does not find; every other
    not-found answer of its verb on ``snapshot`` differs only there.
    """
    document = _answer(snapshot, query)
    document[_LOOKUPS[query[0]].field] = _SENTINEL
    text = json.dumps(document, sort_keys=True)
    head, tail = text.split(json.dumps(_SENTINEL))
    return head, tail


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

    def _served(self, kind: str, found: bool | None, epoch: int) -> None:
        """Account one query answered from ``epoch``'s snapshot."""
        self._obs.count("serve.queries")
        self._obs.emit("serve.query", kind=kind, found=found, epoch=epoch)

    def execute_line(self, line: str) -> str:
        """One-line JSON rendering of :meth:`execute` (the wire format).

        The raw line is first looked up in the captured snapshot's
        :class:`~repro.serve.snapshot.AnswerMemo`, so a canonical line
        asked before is answered by one dict probe, without a parse.
        Any other line parses once.  A found lookup or ``info`` is then
        rendered once per snapshot and stored under its canonical line
        (see :func:`_canonical`), where every spelling finds it.  A
        not-found lookup is filled from its verb's per-snapshot
        template and never stored, because a miss's key space has no
        bound.  Errors and ``health`` are rendered every time; ``health``
        is live service state.  The snapshot is captured once, so an
        answer or template is only ever stored in the memo of the
        version that rendered it.
        """
        snapshot = self._snapshot  # the one capture; never re-read below
        if snapshot is not None:
            text = snapshot.answers.get(line)
            if text is not None:
                kind = line.partition(" ")[0]
                self._served(kind, _MEMOISED[kind], snapshot.epoch)
                return text
        query = _parse(line)
        kind = query[0]
        if snapshot is None or kind not in _MEMOISED:
            return json.dumps(self._respond(snapshot, query), sort_keys=True)
        memo = snapshot.answers
        lookup = _LOOKUPS.get(kind)
        if lookup is not None and not lookup.finds(snapshot, query[1]):
            template = memo.template(kind)
            if template is None:
                template = _template(snapshot, query)
                memo.store_template(kind, *template)
            self._served(kind, False, snapshot.epoch)
            return template[0] + lookup.argument(query[1]) + template[1]
        key = _canonical(query)
        text = memo.get(key)
        if text is None:
            text = json.dumps(_answer(snapshot, query), sort_keys=True)
            memo.store(key, text)
            self._obs.count("serve.answers.rendered")
        self._served(kind, _MEMOISED[kind], snapshot.epoch)
        return text
