"""Figure 3: metropolitan areas ranked by interconnection facilities.

The paper's skyline: London leads with ~45 facilities, followed by New
York, Paris, Frankfurt, Amsterdam...; 33 metros host at least 10.  The
shape to preserve is the heavy tail — a handful of global hubs followed
by a long gentle decline — and the Europe/North-America dominance of
the top ranks.  The paper also notes a metro has about 3x more
facilities than IXPs on average.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topology.topology import Topology
from .formatting import format_bars, format_table

__all__ = ["Fig3Result", "run_fig3"]


@dataclass(slots=True)
class Fig3Result:
    """Facility (and IXP) counts per metro, descending."""

    rows: list[tuple[str, int, int]]  # (metro, facilities, ixps)

    @property
    def facility_to_ixp_ratio(self) -> float:
        """Mean facilities-per-IXP over metros hosting any IXP."""
        with_ixps = [(f, x) for _, f, x in self.rows if x > 0]
        if not with_ixps:
            return 0.0
        return sum(f / x for f, x in with_ixps) / len(with_ixps)

    def is_heavy_tailed(self) -> bool:
        """Top metro should hold several times the median metro's count."""
        counts = sorted((count for _, count, _ in self.rows), reverse=True)
        if len(counts) < 4:
            return False
        median = counts[len(counts) // 2]
        return counts[0] >= max(3, 3 * max(1, median))

    def format_chart(self, limit: int = 15) -> str:
        """The Figure 3 skyline as an ASCII bar chart."""
        return format_bars(
            [(metro, float(count)) for metro, count, _ in self.rows[:limit]],
            title="Figure 3: facilities per metro",
            value_format="{:.0f}",
        )

    def format(self, limit: int = 30) -> str:
        """Rendered Figure 3 ranking table."""
        return format_table(
            ["metro", "facilities", "IXPs"],
            [[metro, fac, ixp] for metro, fac, ixp in self.rows[:limit]],
            title="Figure 3: metros ranked by interconnection facilities",
        )


def run_fig3(topology: Topology) -> Fig3Result:
    """Count facilities and active IXPs per metro (ground truth plant)."""
    facility_counts: dict[str, int] = {}
    for facility in topology.facilities.values():
        facility_counts[facility.metro] = facility_counts.get(facility.metro, 0) + 1
    ixp_counts: dict[str, int] = {}
    for ixp in topology.ixps.values():
        if ixp.active:
            ixp_counts[ixp.metro] = ixp_counts.get(ixp.metro, 0) + 1
    rows = [
        (metro, count, ixp_counts.get(metro, 0))
        for metro, count in facility_counts.items()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return Fig3Result(rows=rows)
