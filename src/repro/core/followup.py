"""CFS Step 4: choosing targets for follow-up traceroutes.

When an interface remains unresolved, CFS actively looks for *other*
peerings of the same router that would add constraints (Section 4.2,
Step 4):

* for an **unresolved local** interface of AS *A* with candidate set
  *C*, useful follow-up targets are ASes whose known facilities are a
  subset of *C* (otherwise intersecting adds nothing); probing starts
  from the target with the smallest facility overlap, and targets not
  colocated at the already-queried exchanges are preferred since a new
  constraint must come from a *different* fabric or a private peering;
* for an **unresolved remote** interface the candidates are all of
  *A*'s facilities, and targets with the smallest non-empty overlap are
  probed first in the hope of catching a *local* peering of the remote
  router.

The planner only ranks; issuing traceroutes is the campaign driver's
job, so the same planner serves live pipelines and replayed corpora.
"""

from __future__ import annotations

from dataclasses import dataclass

from .facility_db import FacilityDatabase
from .types import InterfaceState, InterfaceStatus

__all__ = ["FollowupPlan", "FollowupPlanner"]


@dataclass(frozen=True, slots=True)
class FollowupPlan:
    """One planned follow-up probe: capture the (near, target) peering."""

    near_address: int
    near_asn: int
    target_asn: int
    #: Smaller overlap sorts first (tighter potential constraint).
    overlap: int
    strict_subset: bool


class FollowupPlanner:
    """Ranks follow-up targets for unresolved interfaces.

    ``strategy`` selects the target ordering:

    * ``"smallest-overlap"`` (the paper's rule): strict-subset targets
      first, then ascending facility overlap, then away from
      already-queried exchanges;
    * ``"random"`` (ablation): any colocated target, in an order
      deterministic in the interface address but unrelated to overlap.
    """

    def __init__(
        self, facility_db: FacilityDatabase, strategy: str = "smallest-overlap"
    ) -> None:
        if strategy not in ("smallest-overlap", "random"):
            raise ValueError(f"unknown follow-up strategy {strategy!r}")
        self._db = facility_db
        self.strategy = strategy
        # Inverted index: facility -> ASes known to be present there.
        self._tenants: dict[int, set[int]] = {}
        for asn, facilities in facility_db.as_facilities.items():
            for facility_id in facilities:
                self._tenants.setdefault(facility_id, set()).add(asn)
        #: Address -> ((owner, candidates, queried IXPs), ranked plans):
        #: the last ranking :meth:`plan` computed for an interface and
        #: the inputs it was computed from.  The database and strategy
        #: are fixed, so equal inputs rank equally.
        self._ranked: dict[int, tuple[tuple, list[FollowupPlan]]] = {}

    # ------------------------------------------------------------------

    def candidates_for(self, state: InterfaceState) -> list[FollowupPlan]:
        """Ranked follow-up targets for one unresolved interface."""
        if state.owner_asn is None or state.candidates is None:
            return []
        candidates = state.candidates
        # Only ASes with presence inside the candidate set can tighten it.
        colocated: set[int] = set()
        for facility_id in candidates:
            colocated.update(self._tenants.get(facility_id, ()))
        colocated.discard(state.owner_asn)

        queried_ixp_members: set[int] = set()
        for ixp_id in state.constrained_by_ixps:
            queried_ixp_members |= self._db.members_of(ixp_id)

        plans: list[FollowupPlan] = []
        for target_asn in sorted(colocated):
            target_facilities = self._db.facilities_of(target_asn)
            if not target_facilities:
                continue
            overlap = len(target_facilities & candidates)
            if overlap == 0:
                continue
            strict = target_facilities <= candidates
            plans.append(
                FollowupPlan(
                    near_address=state.address,
                    near_asn=state.owner_asn,
                    target_asn=target_asn,
                    overlap=overlap,
                    strict_subset=strict,
                )
            )
        if self.strategy == "random":
            # Ablation ordering: deterministic but overlap-blind.
            plans.sort(
                key=lambda plan: hash((plan.near_address, plan.target_asn)) & 0xFFFF
            )
            return plans
        # Strict subsets first (guaranteed not to widen the candidates),
        # then smallest overlap, then targets away from already-queried
        # exchanges, then ASN for determinism.
        plans.sort(
            key=lambda plan: (
                not plan.strict_subset,
                plan.overlap,
                plan.target_asn in queried_ixp_members,
                plan.target_asn,
            )
        )
        return plans

    def _ranked_for(self, state: InterfaceState) -> list[FollowupPlan]:
        """:meth:`candidates_for`, re-ranked only when the interface's
        owner, candidates or queried IXPs changed since the last call."""
        inputs = (state.owner_asn, state.candidates, state.constrained_by_ixps)
        memo = self._ranked.get(state.address)
        if memo is not None and memo[0] == inputs:
            return memo[1]
        plans = self.candidates_for(state)
        frozen = (
            state.owner_asn,
            None if state.candidates is None else frozenset(state.candidates),
            frozenset(state.constrained_by_ixps),
        )
        self._ranked[state.address] = (frozen, plans)
        return plans

    def plan(
        self,
        states: dict[int, InterfaceState],
        already_probed: set[tuple[int, int]],
        budget: int,
    ) -> list[FollowupPlan]:
        """Pick up to ``budget`` follow-up probes across all unresolved
        interfaces, one per interface per round, most-constrained first.

        ``already_probed`` holds (near_asn, target_asn) pairs that were
        already measured; re-probing them cannot add constraints.
        """
        unresolved = [
            state
            for state in states.values()
            if state.status
            in (InterfaceStatus.UNRESOLVED_LOCAL, InterfaceStatus.UNRESOLVED_REMOTE)
        ]
        # Interfaces closest to convergence first: a 2-candidate
        # interface needs exactly one good constraint.
        unresolved.sort(
            key=lambda state: (
                len(state.candidates) if state.candidates else 1 << 30,
                state.address,
            )
        )
        plans: list[FollowupPlan] = []
        planned_pairs: set[tuple[int, int]] = set()
        for state in unresolved:
            if len(plans) >= budget:
                break
            for plan in self._ranked_for(state):
                pair = (plan.near_asn, plan.target_asn)
                if pair in already_probed or pair in planned_pairs:
                    continue
                plans.append(plan)
                planned_pairs.add(pair)
                break
        return plans
