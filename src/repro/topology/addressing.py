"""IPv4 addressing substrate: prefixes, allocation, longest-prefix match.

The measurement pipeline of the paper leans on IP-layer bookkeeping in
three places:

* every router interface carries an IPv4 address drawn from its
  operator's allocations (or from an IXP peering LAN, Section 2);
* the Team Cymru IP-to-ASN service (Section 4.1) is a longest-prefix
  match over BGP-announced prefixes;
* detecting that a traceroute hop lies inside IXP address space (Step 1
  of Constrained Facility Search) is a membership test against the IXP
  prefix list.

Addresses are plain ``int`` values internally (fast set/dict keys); the
:class:`Prefix` and :class:`PrefixAllocator` types provide structured
views, and :class:`LongestPrefixMatcher` is a binary trie supporting the
Cymru-style lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterator, TypeVar

__all__ = [
    "MAX_IPV4",
    "ip_to_int",
    "int_to_ip",
    "Prefix",
    "PrefixAllocator",
    "PoolExhaustedError",
    "LongestPrefixMatcher",
]

MAX_IPV4 = (1 << 32) - 1

#: The 256 canonical octet spellings (``"0"`` … ``"255"``, no leading
#: zeros), for :func:`ip_to_int`'s fast path.
_OCTETS = {str(octet): octet for octet in range(256)}

V = TypeVar("V")


def ip_to_int(dotted: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    Raises ``ValueError`` for anything that is not exactly four decimal
    octets in range.
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {dotted!r}")
    try:
        a, b, c, d = parts
        return (
            _OCTETS[a] << 24 | _OCTETS[b] << 16 | _OCTETS[c] << 8 | _OCTETS[d]
        )
    except KeyError:
        pass  # not four canonical octets: the checked loop decides
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"bad octet {part!r} in {dotted!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address."""
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"not a 32-bit value: {value}")
    return "%d.%d.%d.%d" % (
        value >> 24, value >> 16 & 0xFF, value >> 8 & 0xFF, value & 0xFF
    )


@dataclass(frozen=True, slots=True, order=True)
class Prefix:
    """An IPv4 CIDR prefix with integer internals.

    ``network`` must be aligned to ``length`` (host bits zero); the
    constructor enforces this so prefixes are canonical and hashable.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"bad prefix length {self.length}")
        if not 0 <= self.network <= MAX_IPV4:
            raise ValueError("network out of 32-bit range")
        if self.network & self.host_mask:
            raise ValueError(
                f"{int_to_ip(self.network)}/{self.length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        try:
            network_part, length_part = text.split("/")
        except ValueError:
            raise ValueError(f"not CIDR notation: {text!r}") from None
        return cls(ip_to_int(network_part), int(length_part))

    @property
    def netmask(self) -> int:
        """The network mask as an integer."""
        if self.length == 0:
            return 0
        return (MAX_IPV4 << (32 - self.length)) & MAX_IPV4

    @property
    def host_mask(self) -> int:
        """The host-bits mask (inverse of the netmask)."""
        return MAX_IPV4 >> self.length if self.length else MAX_IPV4

    @property
    def first(self) -> int:
        """First address covered by the prefix."""
        return self.network

    @property
    def last(self) -> int:
        """Last address covered by the prefix."""
        return self.network | self.host_mask

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def __contains__(self, address: int) -> bool:
        return self.first <= address <= self.last

    def contains_prefix(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and other.network & self.netmask == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the subnets of this prefix at ``new_length``."""
        if new_length < self.length or new_length > 32:
            raise ValueError(
                f"cannot split /{self.length} into /{new_length}"
            )
        step = 1 << (32 - new_length)
        for network in range(self.first, self.last + 1, step):
            yield Prefix(network, new_length)

    def hosts(self) -> Iterator[int]:
        """Iterate assignable host addresses.

        For /31 and /32 every address is assignable (point-to-point
        convention, RFC 3021); otherwise the network and broadcast
        addresses are skipped.
        """
        if self.length >= 31:
            yield from range(self.first, self.last + 1)
        else:
            yield from range(self.first + 1, self.last)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


class PoolExhaustedError(RuntimeError):
    """Raised when a :class:`PrefixAllocator` pool has no space left."""


class PrefixAllocator:
    """Sequential carver of subnets and host addresses out of a pool.

    The topology builder gives each AS (and each IXP peering LAN) a pool
    and draws interface subnets from it.  Allocation is strictly
    sequential so a seeded build is reproducible address-for-address.
    """

    def __init__(self, pool: Prefix) -> None:
        self._pool = pool
        self._cursor = pool.first

    @property
    def pool(self) -> Prefix:
        """The pool this allocator carves from."""
        return self._pool

    @property
    def remaining(self) -> int:
        """Number of unallocated addresses left in the pool."""
        return self._pool.last - self._cursor + 1

    def allocate_prefix(self, length: int) -> Prefix:
        """Carve the next aligned subnet of ``length`` out of the pool."""
        if length < self._pool.length or length > 32:
            raise ValueError(
                f"cannot allocate /{length} from /{self._pool.length}"
            )
        size = 1 << (32 - length)
        # Align the cursor up to the subnet size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size - 1 > self._pool.last:
            raise PoolExhaustedError(
                f"pool {self._pool} exhausted allocating /{length}"
            )
        self._cursor = aligned + size
        return Prefix(aligned, length)

    def allocate_address(self) -> int:
        """Carve a single address (a /32) out of the pool."""
        return self.allocate_prefix(32).network


class _TrieNode(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list["_TrieNode[V]" | None] = [None, None]
        self.value: V | None = None
        self.has_value = False


class LongestPrefixMatcher(Generic[V]):
    """A binary trie mapping IPv4 prefixes to values.

    ``lookup`` returns the value of the most specific prefix covering an
    address, mirroring how the Team Cymru service resolves an interface
    address to the origin AS of its longest matching BGP announcement.
    """

    def __init__(self) -> None:
        self._root: _TrieNode[V] = _TrieNode()
        self._size = 0
        #: ``lookup`` answers per address, valid until the next
        #: ``insert``; bounded by the distinct addresses looked up.
        self._memo: dict[int, V | None] = {}

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True
        self._memo.clear()

    def lookup(self, address: int) -> V | None:
        """Value of the longest prefix covering ``address``; ``None`` if none.

        Memoised per address: the trie only changes through
        :meth:`insert`, which drops every memoised answer.  Invalid
        addresses raise before anything is memoised.
        """
        try:
            return self._memo[address]
        except KeyError:
            pass
        match = self.lookup_prefix(address)
        value = match[1] if match is not None else None
        self._memo[address] = value
        return value

    def lookup_prefix(self, address: int) -> tuple[Prefix, V] | None:
        """Longest matching ``(prefix, value)`` pair for ``address``."""
        if not 0 <= address <= MAX_IPV4:
            raise ValueError(f"not a 32-bit address: {address}")
        node = self._root
        best: tuple[int, V] | None = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[assignment]
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, node.value)  # type: ignore[assignment]
        if best is None:
            return None
        length, value = best
        network = address & (MAX_IPV4 << (32 - length)) & MAX_IPV4 if length else 0
        return Prefix(network, length), value

    def covers(self, address: int) -> bool:
        """True if any stored prefix covers ``address``."""
        return self.lookup_prefix(address) is not None
