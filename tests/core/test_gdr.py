"""End-to-end tests for :mod:`repro.core.gdr` (the engine)."""

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.errors import ConfigError


class TestConfig:
    def test_defaults(self):
        config = GDRConfig()
        assert config.ranking == "voi"
        assert config.learning == "active"
        assert config.grouping

    def test_presets(self):
        assert GDRConfig.gdr().learning == "active"
        assert GDRConfig.s_learning().learning == "passive"
        assert not GDRConfig.active_learning().grouping
        assert GDRConfig.no_learning().learning == "none"

    def test_preset_overrides(self):
        config = GDRConfig.gdr(seed=42, batch_size=5)
        assert config.seed == 42
        assert config.batch_size == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ranking": "bogus"},
            {"learning": "bogus"},
            {"n_estimators": 0},
            {"max_depth": 0},
            {"batch_size": 0},
            {"min_labels": -1},
            {"max_decision_uncertainty": -0.1},
            {"max_decision_uncertainty": float("nan")},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            GDRConfig(**kwargs)


class TestFullRepair:
    def test_no_learning_reaches_clean_instance(
        self, figure1_dirty, figure1_clean, figure1_rules
    ):
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        result = engine.run()
        assert result.remaining_dirty == 0
        assert figure1_dirty.equals_data(figure1_clean)
        assert result.improvement == pytest.approx(100.0)
        assert result.final_loss == 0.0

    def test_trajectory_is_recorded(self, figure1_dirty, figure1_clean, figure1_rules):
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        result = engine.run()
        assert result.trajectory[0].feedback == 0
        assert result.trajectory[0].loss == result.initial_loss
        feedbacks = [p.feedback for p in result.trajectory]
        assert feedbacks == sorted(feedbacks)
        assert result.trajectory[-1].loss == result.final_loss

    def test_report_present_with_ground_truth(
        self, figure1_dirty, figure1_clean, figure1_rules
    ):
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        result = engine.run()
        assert result.report is not None
        assert result.report.precision == 1.0
        assert result.report.recall == 1.0

    def test_without_ground_truth_uses_proxy_loss(
        self, figure1_dirty, figure1_clean, figure1_rules
    ):
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
        )
        result = engine.run()
        assert result.report is None
        assert result.initial_loss > 0
        assert result.final_loss == 0.0


class TestBudgets:
    def test_zero_budget_changes_nothing_without_learner(
        self, figure1_dirty, figure1_clean, figure1_rules
    ):
        snapshot = figure1_dirty.snapshot()
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        result = engine.run(feedback_limit=0)
        assert result.feedback_used == 0
        assert figure1_dirty.equals_data(snapshot)

    def test_budget_respected(self, figure1_dirty, figure1_clean, figure1_rules):
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        result = engine.run(feedback_limit=3)
        assert result.feedback_used <= 3

    def test_more_budget_never_hurts_no_learning(
        self, figure1_schema, figure1_clean, figure1_rules
    ):
        from repro.db import Database
        from tests.conftest import make_figure1_dirty_rows

        improvements = []
        for limit in (1, 4, 50):
            dirty = Database(figure1_schema, make_figure1_dirty_rows())
            engine = GDREngine(
                dirty,
                figure1_rules,
                GroundTruthOracle(figure1_clean),
                config=GDRConfig.no_learning(),
                clean_db=figure1_clean,
            )
            improvements.append(engine.run(feedback_limit=limit).improvement)
        assert improvements == sorted(improvements)


class TestVariants:
    @pytest.mark.parametrize(
        "config_factory",
        [GDRConfig.gdr, GDRConfig.s_learning, GDRConfig.active_learning, GDRConfig.no_learning],
    )
    def test_every_variant_runs_and_improves(
        self, config_factory, figure1_dirty, figure1_clean, figure1_rules
    ):
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=config_factory(min_examples=4),
            clean_db=figure1_clean,
        )
        result = engine.run()
        assert result.improvement > 0
        assert result.feedback_used > 0

    def test_greedy_and_random_rankings_run(
        self, figure1_dirty, figure1_clean, figure1_rules
    ):
        for ranking in ("greedy", "random"):
            from tests.conftest import make_figure1_dirty_rows

            from repro.db import Database

            dirty = Database(figure1_dirty.schema, make_figure1_dirty_rows())
            engine = GDREngine(
                dirty,
                figure1_rules,
                GroundTruthOracle(figure1_clean),
                config=GDRConfig(ranking=ranking, learning="none", use_benefit_quota=False),
                clean_db=figure1_clean,
            )
            assert engine.run().improvement == pytest.approx(100.0)


class TestDatasetsEndToEnd:
    def test_hospital_full_run(self, hospital_dataset):
        dirty = hospital_dataset.fresh_dirty()
        engine = GDREngine(
            dirty,
            hospital_dataset.rules,
            GroundTruthOracle(hospital_dataset.clean),
            config=GDRConfig.gdr(seed=1),
            clean_db=hospital_dataset.clean,
        )
        result = engine.run()
        assert result.improvement > 70
        assert result.report.precision > 0.8

    def test_adult_budgeted_run(self, adult_dataset):
        dirty = adult_dataset.fresh_dirty()
        engine = GDREngine(
            dirty,
            adult_dataset.rules,
            GroundTruthOracle(adult_dataset.clean),
            config=GDRConfig.gdr(seed=1),
            clean_db=adult_dataset.clean,
        )
        result = engine.run(feedback_limit=engine.initial_dirty // 2)
        assert result.feedback_used <= engine.initial_dirty // 2
        assert result.improvement > 0
