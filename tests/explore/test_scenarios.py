"""The scenario catalog: every composed scenario runs clean by default
and its Byzantine members' fingerprints actually fire (no vacuity)."""

import pytest

from repro.explore.scenario import (
    SCENARIOS,
    FaultAction,
    ScenarioError,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    with_overrides,
)


class TestCatalogValidation:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="bad", faults=(FaultAction(at=0.0, kind="meteor"),)
            )

    def test_unknown_byzantine_class_rejected(self):
        """A Byzantine fault must name a member of the group."""
        for target in ("gremlin", "r9", "r0/g1"):
            with pytest.raises(ScenarioError):
                ScenarioSpec(
                    name="bad",
                    faults=(FaultAction(at=0.0, kind="equivocate", target=target),),
                )

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ScenarioError):
            get_scenario("no-such-scenario")

    def test_overrides_produce_a_new_spec(self):
        spec = with_overrides(get_scenario("crash-overload"), requests=2)
        assert spec.requests == 2
        assert get_scenario("crash-overload").requests != 2


class TestCatalogRuns:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_default_schedule_is_clean(self, name):
        outcome = run_scenario(SCENARIOS[name])
        assert outcome.ok, outcome.summary()
        assert outcome.crashed is None
        assert outcome.completed > 0

    @pytest.mark.parametrize(
        "name",
        [n for n, s in SCENARIOS.items() if s.expected_rules],
    )
    def test_expected_byzantine_fingerprints_fire(self, name):
        """A scenario whose expected rule never fires is not exercising
        its fault — the catalog must not go vacuous."""
        spec = SCENARIOS[name]
        outcome = run_scenario(spec)
        for rule in spec.expected_rules:
            assert rule in outcome.fired_rules, (
                name,
                outcome.fired_rules,
            )

    def test_base_run_fingerprint_is_stable(self):
        first = run_scenario(SCENARIOS["crash-overload"])
        second = run_scenario(SCENARIOS["crash-overload"])
        assert first.fingerprint == second.fingerprint
