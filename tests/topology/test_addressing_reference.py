"""The IPv4 address codecs against their straightforward references.

:func:`reference_ip_to_int` and :func:`reference_int_to_ip` are the
plain per-octet loops the codecs started as.
:func:`~repro.topology.addressing.ip_to_int` answers four canonical
octets from a table and :func:`~repro.topology.addressing.int_to_ip`
formats with one ``%``-format, but each must agree with its reference
on every input: the same value, or the same exception type and message.
That includes what the references admit by accident — ``str.isdigit``
accepts non-ASCII decimal digits, which ``int`` then parses.
"""

from __future__ import annotations

import random

import pytest

from repro.topology.addressing import MAX_IPV4, int_to_ip, ip_to_int


def reference_ip_to_int(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {dotted!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"bad octet {part!r} in {dotted!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def reference_int_to_ip(value: int) -> str:
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"not a 32-bit value: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def outcome(codec, argument):
    """``codec(argument)``'s value, or its exception's type and text."""
    try:
        return codec(argument)
    except Exception as error:  # compared, not swallowed
        return (type(error), str(error))


def random_values(count: int) -> list[int]:
    rng = random.Random("address-codec-reference")
    return [0, MAX_IPV4, *(rng.randrange(MAX_IPV4 + 1) for _ in range(count))]


#: Dotted forms the table misses: leading zeros, out-of-range and
#: empty octets, stray dots and spaces, signs, non-ASCII digits.
ODD_DOTTED = (
    "01.2.3.4",
    "1.2.3.04",
    "00.0.0.0",
    "1.2.3.00",
    "256.1.1.1",
    "1.2.3.256",
    "1.2.3.999",
    "1.2.3.1000",
    "",
    ".",
    "...",
    "1.2.3.",
    ".1.2.3",
    "1.2.3.4.",
    ".1.2.3.4",
    "1..2.3",
    "1.2.3",
    "1.2.3.4.5",
    " 1.2.3.4",
    "1.2.3.4 ",
    "1.2. 3.4",
    "1.2.3.4\n",
    "+1.2.3.4",
    "-1.2.3.4",
    "1.2.3.0x4",
    "1_0.2.3.4",
    "a.b.c.d",
    "١.٢.٣.٤",  # Arabic-Indic digits: isdigit, and int parses them
    "١٠.٢.٣.٤",
    "٠١.٢.٣.٤",  # a non-ASCII leading zero
    "１.２.３.４",  # fullwidth digits
    "２５５.２５５.２５５.２５５",
    "２５６.0.0.0",
    "1.2.3.²",  # isdigit, but int refuses it
)


class TestIpToInt:
    def test_random_canonical_addresses(self):
        for value in random_values(100_000):
            dotted = reference_int_to_ip(value)
            assert ip_to_int(dotted) == reference_ip_to_int(dotted) == value

    def test_every_octet_in_every_position(self):
        for octet in range(256):
            for position in range(4):
                parts = ["7"] * 4
                parts[position] = str(octet)
                dotted = ".".join(parts)
                assert ip_to_int(dotted) == reference_ip_to_int(dotted)

    @pytest.mark.parametrize("dotted", ODD_DOTTED)
    def test_odd_spellings_match_the_reference(self, dotted):
        assert outcome(ip_to_int, dotted) == outcome(
            reference_ip_to_int, dotted
        )

    def test_non_ascii_digits_still_parse(self):
        # Documents the accident the fast path must keep, not an aim.
        assert ip_to_int("١.٢.٣.٤") == ip_to_int("１.２.３.４") == 0x01020304


class TestIntToIp:
    def test_random_values(self):
        for value in random_values(100_000):
            assert int_to_ip(value) == reference_int_to_ip(value)

    @pytest.mark.parametrize(
        "value", [-1, MAX_IPV4 + 1, -(2**40), 2**64, True, False, 1.5]
    )
    def test_edges_match_the_reference(self, value):
        assert outcome(int_to_ip, value) == outcome(reference_int_to_ip, value)
