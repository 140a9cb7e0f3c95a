"""The seeded-mutant self-test must find, shrink, and replay the bug."""

from repro.explore.engine import ExploreBudget
from repro.explore.selftest import run_selftest, selftest_spec


class TestSelfTest:
    def test_pipeline_finds_shrinks_and_replays_the_mutant(self):
        report = run_selftest(
            budget=ExploreBudget(max_events=1_500_000, max_runs=48)
        )
        assert report["found"], report
        assert "bft.commit-quorum" in report["found_rules"]
        assert report["shrink"]["reduction"] >= 0.5, report["shrink"]
        assert report["replay_ok"], report
        assert report["ok"], report

    def test_selftest_spec_is_faultless_and_mutant_free(self):
        spec = selftest_spec()
        assert spec.faults == ()
        assert spec.correct_replicas() == ("r0", "r1", "r2", "r3")
        # Without the mutant the same spec must be clean: the self-test
        # scenario cannot fail on its own.
        from repro.explore.scenario import run_scenario

        outcome = run_scenario(spec)
        assert outcome.ok, outcome.summary()
