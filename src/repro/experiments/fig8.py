"""Figure 8: robustness of CFS to missing facility data.

The paper iteratively removed up to 1,400 of the 1,694 facilities from
the *dataset* (ground truth unchanged) and re-ran CFS, 20 repetitions:

* removing ~50% of facilities un-resolves ~30% of previously resolved
  interfaces; removing 80% un-resolves ~60% — completeness degrades
  smoothly and stays comparable to DNS geolocation even then;
* removing ~30% makes ~20% of interfaces converge to a *different*
  facility (changed inference); the changed-inference curve is not
  monotonic, because heavy removal destroys the constraints needed to
  converge at all.

The reproduced experiment removes the same *fractions* of the known
facility set and replays CFS passively over a fixed corpus (follow-up
probing held constant so only the dataset varies).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from ..alias.midar import MidarResolver
from ..core.pipeline import Environment
from ..measurement.campaign import TraceCorpus
from .formatting import format_table

__all__ = ["Fig8Point", "Fig8Result", "run_fig8"]


@dataclass(frozen=True, slots=True)
class Fig8Point:
    """Mean outcome at one removal level."""

    removed: int
    removed_fraction: float
    unresolved_fraction: float
    changed_fraction: float


@dataclass(slots=True)
class Fig8Result:
    """The two Figure 8 curves."""

    baseline_resolved: int
    points: list[Fig8Point]

    def unresolved_is_monotonic(self, slack: float = 0.05) -> bool:
        """Completeness loss should grow with removals (within noise)."""
        values = [point.unresolved_fraction for point in self.points]
        return all(b >= a - slack for a, b in zip(values, values[1:]))

    def format(self) -> str:
        """Rendered Figure 8 table."""
        return format_table(
            ["removed", "fraction", "unresolved", "changed inference"],
            [
                [
                    point.removed,
                    f"{point.removed_fraction:.2f}",
                    f"{point.unresolved_fraction:.3f}",
                    f"{point.changed_fraction:.3f}",
                ]
                for point in self.points
            ],
            title="Figure 8: effect of removing facilities from the dataset",
        )


def run_fig8(
    env: Environment,
    corpus: TraceCorpus,
    removal_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8),
    repeats: int = 3,
    seed: int = 0,
) -> Fig8Result:
    """Replay CFS over ``corpus`` with progressively degraded datasets.

    ``corpus`` should be a completed study corpus (follow-up traces
    included) so the passive replays see identical measurements.
    """
    rng = Random(seed)
    shared_resolver: MidarResolver = env.new_midar()

    def passive_run(facility_db):
        search_db = facility_db
        from ..core.cfs import CfsConfig, ConstrainedFacilitySearch

        search = ConstrainedFacilitySearch(
            facility_db=search_db,
            ip_to_asn=env.cymru,
            alias_resolver=shared_resolver,
            driver=None,
            remote_detector=env.remote_detector(),
            config=CfsConfig(max_iterations=10, use_followups=False),
        )
        return search.run(corpus)

    baseline = passive_run(env.facility_db)
    baseline_resolved = baseline.resolved_interfaces()

    known = sorted(env.facility_db.all_known_facilities())
    points: list[Fig8Point] = []
    for fraction in removal_fractions:
        n_remove = int(len(known) * fraction)
        unresolved_acc = 0.0
        changed_acc = 0.0
        for _ in range(repeats):
            removed = set(rng.sample(known, n_remove))
            degraded = env.facility_db.without_facilities(removed)
            replay = passive_run(degraded)
            replay_resolved = replay.resolved_interfaces()
            unresolved = 0
            changed = 0
            for address, facility in baseline_resolved.items():
                new_facility = replay_resolved.get(address)
                if new_facility is None:
                    unresolved += 1
                elif new_facility != facility:
                    changed += 1
            total = max(1, len(baseline_resolved))
            unresolved_acc += unresolved / total
            changed_acc += changed / total
        points.append(
            Fig8Point(
                removed=n_remove,
                removed_fraction=fraction,
                unresolved_fraction=unresolved_acc / repeats,
                changed_fraction=changed_acc / repeats,
            )
        )
    return Fig8Result(
        baseline_resolved=len(baseline_resolved), points=points
    )
