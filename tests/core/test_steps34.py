"""CFS Steps 3-4 tests: alias propagation and follow-up planning."""

from __future__ import annotations

import dataclasses

import pytest

from repro.alias.midar import AliasSets
from repro.core import PipelineConfig, build_environment
from repro.core.alias_constraints import propagate_alias_constraints
from repro.core.followup import FollowupPlanner
from repro.core.types import InterfaceState, InterfaceStatus


def state(address, candidates=None, owner=10, status=InterfaceStatus.UNRESOLVED_LOCAL, remote=False):
    s = InterfaceState(address=address, owner_asn=owner)
    if candidates is not None:
        s.candidates = set(candidates)
    s.status = status
    s.remote = remote
    return s


class TestAliasPropagation:
    def test_figure5_worked_example(self):
        """The paper's Figure 5: A.1 -> {f1, f2}, A.3 -> {f1, f2, f3}
        with a second constraint {f1, f2}; intersecting across aliases
        pins both to the common facility."""
        states = {
            1: state(1, {2, 5}),   # A.1 via trace 1: facilities 2 or 5
            3: state(3, {1, 2}),   # A.3 via trace 2: facilities 1 or 2
        }
        aliases = AliasSets.from_groups([{1, 3}])
        narrowed = propagate_alias_constraints(states, aliases)
        assert narrowed == 2
        assert states[1].candidates == {2}
        assert states[3].candidates == {2}

    def test_unconstrained_alias_inherits(self):
        states = {1: state(1, {7}), 2: state(2, None)}
        aliases = AliasSets.from_groups([{1, 2}])
        propagate_alias_constraints(states, aliases)
        assert states[2].candidates == {7}

    def test_conflict_leaves_states_and_counts(self):
        states = {1: state(1, {1}), 2: state(2, {9})}
        aliases = AliasSets.from_groups([{1, 2}])
        narrowed = propagate_alias_constraints(states, aliases)
        assert narrowed == 0
        assert states[1].candidates == {1}
        assert states[2].candidates == {9}
        assert states[1].conflicts == 1 and states[2].conflicts == 1

    def test_alias_absent_from_states_ignored(self):
        states = {1: state(1, {1, 2})}
        aliases = AliasSets.from_groups([{1, 99}])
        assert propagate_alias_constraints(states, aliases) == 0

    def test_remote_flag_spreads(self):
        states = {1: state(1, {4, 5}, remote=True), 2: state(2, {4, 5})}
        aliases = AliasSets.from_groups([{1, 2}])
        propagate_alias_constraints(states, aliases)
        assert states[2].remote

    def test_no_alias_sets_noop(self):
        states = {1: state(1, {1, 2})}
        assert propagate_alias_constraints(states, AliasSets()) == 0


class TestFollowupPlanner:
    def test_candidates_prefer_strict_subsets(self, toy_db):
        planner = FollowupPlanner(toy_db)
        # AS 10 unresolved over {1, 2, 5}: ASes 40 ({5}) and 50 ({1})
        # are strict subsets; AS 20 ({2, 4}) merely overlaps.
        unresolved = state(1, {1, 2, 5}, owner=10)
        plans = planner.candidates_for(unresolved)
        assert plans
        assert plans[0].target_asn in (40, 50)
        assert plans[0].strict_subset
        subset_targets = {p.target_asn for p in plans if p.strict_subset}
        assert subset_targets == {40, 50}
        # Strict subsets outrank the mere-overlap target.
        rank_20 = next(i for i, p in enumerate(plans) if p.target_asn == 20)
        assert rank_20 >= 2

    def test_smaller_overlap_ranks_earlier(self, toy_db):
        planner = FollowupPlanner(toy_db)
        unresolved = state(1, {2, 4}, owner=20)
        plans = planner.candidates_for(unresolved)
        ranks = {plan.target_asn: index for index, plan in enumerate(plans)}
        # AS 30 has zero overlap with {2,4} -> not a candidate at all.
        assert 30 not in ranks

    def test_owner_not_its_own_target(self, toy_db):
        planner = FollowupPlanner(toy_db)
        plans = planner.candidates_for(state(1, {1, 2, 5}, owner=10))
        assert all(plan.target_asn != 10 for plan in plans)

    def test_unconstrained_state_has_no_plans(self, toy_db):
        planner = FollowupPlanner(toy_db)
        assert planner.candidates_for(state(1, None)) == []

    def test_plan_budget(self, toy_db):
        planner = FollowupPlanner(toy_db)
        states = {
            1: state(1, {1, 2, 5}, owner=10),
            2: state(2, {2, 4}, owner=20),
            3: state(3, {1, 2}, owner=10),
        }
        plans = planner.plan(states, set(), budget=2)
        assert len(plans) <= 2

    def test_plan_skips_probed_pairs(self, toy_db):
        planner = FollowupPlanner(toy_db)
        states = {1: state(1, {1, 2, 5}, owner=10)}
        first = planner.plan(states, set(), budget=5)
        assert first
        probed = {(p.near_asn, p.target_asn) for p in first}
        second = planner.plan(states, probed, budget=5)
        assert not {(p.near_asn, p.target_asn) for p in second} & probed

    def test_plan_prioritises_nearly_converged(self, toy_db):
        planner = FollowupPlanner(toy_db)
        states = {
            1: state(1, {1, 2, 5}, owner=10),
            2: state(2, {1, 2}, owner=10),
        }
        plans = planner.plan(states, set(), budget=1)
        assert plans[0].near_address == 2

    def test_resolved_states_not_planned(self, toy_db):
        planner = FollowupPlanner(toy_db)
        states = {
            1: state(1, {1}, status=InterfaceStatus.RESOLVED),
        }
        assert planner.plan(states, set(), budget=5) == []

    def test_in_place_changes_re_rank(self, toy_db):
        """Each ranking input, changed in place on the same state object,
        changes the plan: the memo must key on all of them, not on the
        address."""
        planner = FollowupPlanner(toy_db)
        unresolved = state(1, {1, 2, 5}, owner=10)
        states = {1: unresolved}

        def first_plan():
            (plan,) = planner.plan(states, set(), budget=1)
            (fresh,) = FollowupPlanner(toy_db).plan(states, set(), budget=1)
            assert plan == fresh
            return plan.near_asn, plan.target_asn

        # Strict subsets 40 ({5}) and 50 ({1}) tie; the lower ASN wins.
        assert first_plan() == (10, 40)
        # AS 40 is a member of the queried IXP 100, AS 50 is not.
        unresolved.constrained_by_ixps.add(100)
        assert first_plan() == (10, 50)
        # Over {2, 4}, AS 20 is the only colocated target.
        unresolved.candidates.clear()
        unresolved.candidates.update({2, 4})
        assert first_plan() == (10, 20)
        # The same candidates seen from AS 20: AS 10 is now the target.
        unresolved.owner_asn = 20
        assert first_plan() == (20, 10)


@pytest.mark.parametrize(
    "knobs",
    [
        {"followup_strategy": "smallest-overlap"},
        {"followup_strategy": "random"},
        {"degraded_mode": True},
    ],
    ids=["smallest-overlap", "random", "degraded"],
)
def test_memoised_plans_match_fresh_planner(monkeypatch, knobs):
    """Every iteration's Step-4 plan of a full CFS run (small world,
    seed 0) equals what a fresh, memo-free planner ranks from the same
    states."""
    original = FollowupPlanner.plan
    iterations = []

    def checked(self, states, already_probed, budget):
        plans = original(self, states, already_probed, budget)
        fresh = FollowupPlanner(self._db, self.strategy)
        assert plans == original(fresh, states, already_probed, budget)
        iterations.append(len(plans))
        return plans

    monkeypatch.setattr(FollowupPlanner, "plan", checked)
    config = PipelineConfig.small(seed=0)
    env = build_environment(config=config)
    corpus = env.run_campaign()
    env.run_cfs(corpus, cfs_config=dataclasses.replace(config.cfs, **knobs))
    # Enough planning rounds for the memo to be read, not just filled.
    assert len(iterations) > 5 and sum(iterations) > 0
