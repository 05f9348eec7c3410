"""Small in-text statistics from Sections 3.1 and 4.1.

Two census harnesses for numbers the paper quotes in prose:

* **AS connectivity** (§3.1.1): "54% of the ASes in our dataset
  connected to more than one IXP and 66% of the ASes connected at more
  than one interconnection facility" — and the observation that
  presence at one multi-IXP facility lets a small-footprint AS reach
  several exchanges.
* **Alias resolution** (§4.1): "We resolved 25,756 peering interfaces
  and found 2,895 alias sets containing 10,952 addresses, and 240 alias
  sets that included 1,138 interfaces with conflicting IP to ASN
  mapping."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..alias.midar import AliasSets
from ..core.pipeline import Environment
from ..measurement.campaign import TraceCorpus
from .formatting import format_table

__all__ = [
    "AsConnectivityStats",
    "AliasCensus",
    "run_as_connectivity_stats",
    "run_alias_census",
]


@dataclass(frozen=True, slots=True)
class AsConnectivityStats:
    """Membership/presence distribution over the assembled dataset."""

    ases: int
    multi_ixp_fraction: float
    multi_facility_fraction: float
    #: ASes reaching more exchanges than they have facilities — the
    #: §3.1.1 "opposite behaviour" enabled by multi-IXP facilities and
    #: remote peering.
    more_ixps_than_facilities: int

    def format(self) -> str:
        """Rendered statistics table."""
        return format_table(
            ["metric", "value"],
            [
                ["ASes with facility data", self.ases],
                ["member of > 1 IXP", f"{self.multi_ixp_fraction:.1%}"],
                ["present at > 1 facility", f"{self.multi_facility_fraction:.1%}"],
                [
                    "more IXPs than facilities",
                    self.more_ixps_than_facilities,
                ],
            ],
            title="Section 3.1.1: AS connectivity distribution",
        )


def run_as_connectivity_stats(env: Environment) -> AsConnectivityStats:
    """Compute the §3.1.1 distribution over the assembled facility map."""
    database = env.facility_db
    asns = sorted(database.as_facilities)
    multi_ixp = 0
    multi_facility = 0
    inverted = 0
    for asn in asns:
        facilities = database.facilities_of(asn)
        ixps = database.ixps_of(asn)
        if len(ixps) > 1:
            multi_ixp += 1
        if len(facilities) > 1:
            multi_facility += 1
        if len(ixps) > len(facilities):
            inverted += 1
    total = max(1, len(asns))
    return AsConnectivityStats(
        ases=len(asns),
        multi_ixp_fraction=multi_ixp / total,
        multi_facility_fraction=multi_facility / total,
        more_ixps_than_facilities=inverted,
    )


@dataclass(frozen=True, slots=True)
class AliasCensus:
    """§4.1-style alias-resolution summary over one corpus."""

    interfaces_probed: int
    alias_sets: int
    aliased_addresses: int
    conflicting_sets: int
    conflicting_addresses: int

    def format(self) -> str:
        """Rendered statistics table."""
        return format_table(
            ["metric", "value"],
            [
                ["interfaces probed", self.interfaces_probed],
                ["alias sets", self.alias_sets],
                ["addresses in alias sets", self.aliased_addresses],
                ["sets with conflicting IP-to-ASN", self.conflicting_sets],
                ["conflicting addresses", self.conflicting_addresses],
            ],
            title="Section 4.1: alias resolution census",
        )


def run_alias_census(env: Environment, corpus: TraceCorpus) -> AliasCensus:
    """Resolve the corpus's observed addresses and count conflicts.

    A set "conflicts" when its members' longest-prefix IP-to-ASN answers
    disagree — the shared point-to-point subnets that Section 4.1's
    majority vote repairs.
    """
    addresses = sorted(corpus.observed_addresses())
    resolver = env.new_midar()
    alias_sets: AliasSets = resolver.resolve(addresses)
    mapping = {address: env.cymru.lookup(address) for address in addresses}
    conflicting_sets = 0
    conflicting_addresses = 0
    aliased = 0
    for alias_set in alias_sets.sets:
        aliased += len(alias_set)
        answers = {
            mapping.get(address)
            for address in alias_set
            if mapping.get(address) is not None
        }
        if len(answers) > 1:
            conflicting_sets += 1
            conflicting_addresses += len(alias_set)
    return AliasCensus(
        interfaces_probed=len(addresses),
        alias_sets=len(alias_sets.sets),
        aliased_addresses=aliased,
        conflicting_sets=conflicting_sets,
        conflicting_addresses=conflicting_addresses,
    )
