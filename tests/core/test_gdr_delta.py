"""The production engine against its oracle, plus the learner drain.

:class:`~repro.testing.reference.ReferenceEngine` assembles the
reference components (full-sweep refresh + from-scratch ranking,
per-cell Algorithm 1, exact-sort committees, predict-one-apply-one
decisions). The production engine — the delta pipeline — must reproduce
its :class:`GDRResult` byte-for-byte for fixed seeds: same labels, same
learner decisions, same trajectory, same final instance. This module
holds the presets × datasets and baseline-ranking rows of that matrix;
the split and multi-suggestion drains live in ``test_drain_batched.py``
and the larger hospital instance in ``test_gdr_learner.py``.
"""

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle, LearnerPrediction
from repro.datasets import load_dataset
from repro.repair import Feedback, UserFeedback
from repro.testing.reference import ReferenceEngine, run_signature

PRESETS = [GDRConfig.gdr, GDRConfig.s_learning, GDRConfig.active_learning, GDRConfig.no_learning]
PRESET_IDS = ["gdr", "s_learning", "active_learning", "no_learning"]


def _run(engine_cls, preset, dataset="hospital", n=150, budget=40, data_seed=7,
         config_seed=3, **overrides):
    ds = load_dataset(dataset, n=n, seed=data_seed)
    db = ds.fresh_dirty()
    config = preset(seed=config_seed, **overrides)
    engine = engine_cls(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    result = engine.run(feedback_limit=budget)
    return db, result, engine


def _signature(engine_cls, preset, **kwargs):
    db, result, __ = _run(engine_cls, preset, **kwargs)
    return run_signature(db, result)


class TestPipelineConfig:
    def test_default_is_delta(self):
        """The delta pipeline is the only production path: every ranking
        runs off the incrementally maintained group index."""
        ds = load_dataset("hospital", n=60, seed=0)
        for ranking in ("voi", "greedy", "random"):
            engine = GDREngine(
                ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig(ranking=ranking)
            )
            assert engine.group_index.verify()
            assert (engine.benefit_cache is not None) == (ranking == "voi")
            engine.detach()

    def test_invalid_pipeline_rejected(self):
        """The retired mode knobs are no longer config fields."""
        assert len(GDRConfig.__dataclass_fields__) == 22
        for knob, value in [
            ("pipeline", "rebuild"), ("drain", "sequential"), ("suggest", "scalar"),
            ("learner", "exact"),
        ]:
            with pytest.raises(TypeError):
                GDRConfig(**{knob: value})

    def test_rebuild_engine_builds_no_index(self):
        """The oracle's selection never reads the incremental structures:
        with the group index and benefit cache detached (frozen stale)
        it still reproduces the production run."""
        ds = load_dataset("hospital", n=80, seed=0)
        db = ds.fresh_dirty()
        engine = ReferenceEngine(
            db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(seed=1), clean_db=ds.clean
        )
        engine.group_index.detach()
        engine.benefit_cache.detach()
        result = engine.run(feedback_limit=20)
        assert run_signature(db, result) == _signature(
            GDREngine, GDRConfig.gdr, n=80, budget=20, data_seed=0, config_seed=1
        )

    def test_delta_engine_builds_index_and_cache(self):
        ds = load_dataset("hospital", n=60, seed=0)
        engine = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert engine.group_index is not None
        assert engine.benefit_cache is not None
        assert engine.group_index.verify()


class TestByteIdenticalParity:
    @pytest.mark.parametrize("preset", PRESETS, ids=PRESET_IDS)
    def test_delta_matches_rebuild(self, preset):
        assert _signature(GDREngine, preset) == _signature(ReferenceEngine, preset)

    @pytest.mark.parametrize("ranking", ["greedy", "random"])
    def test_baseline_rankings_match(self, ranking):
        kwargs = dict(ranking=ranking, learning="none", use_benefit_quota=False)
        assert _signature(GDREngine, GDRConfig, **kwargs) == _signature(
            ReferenceEngine, GDRConfig, **kwargs
        )

    def test_adult_dataset_parity(self):
        kwargs = dict(dataset="adult", n=120, budget=30, data_seed=2, config_seed=1)
        for preset in PRESETS:
            assert _signature(GDREngine, preset, **kwargs) == _signature(
                ReferenceEngine, preset, **kwargs
            ), preset.__name__

    def test_greedy_pick_matches_rebuild_ranking(self):
        """The delta greedy pick reads sizes off the index's cached key
        order; it must select exactly what the rebuild path's
        ``GreedyRanking`` puts first, at every iteration state."""
        from repro.core.grouping import group_updates
        from repro.core.ranking import GreedyRanking

        ds = load_dataset("hospital", n=120, seed=4)
        db = ds.fresh_dirty()
        engine = GDREngine(
            db,
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig(ranking="greedy", learning="none", use_benefit_quota=False, seed=2),
            clean_db=ds.clean,
        )
        strategy = GreedyRanking()
        checked = 0
        for __ in range(12):
            engine.manager.refresh_suggestions()
            if len(engine.state) == 0:
                break
            group, benefit, max_benefit, count = engine._pick_top_group()
            groups = group_updates(engine.state.updates())
            ranked = strategy.rank(groups, engine.probability)
            assert group.key == ranked[0][0].key
            assert group.updates == ranked[0][0].updates
            assert benefit == max_benefit == ranked[0][1]
            assert count == len(groups)
            checked += 1
            # consume the picked group so the next iteration differs
            for update in list(group.updates):
                if engine.state.contains(update):
                    engine.manager.apply_feedback(
                        update, UserFeedback(Feedback.CONFIRM), source="user"
                    )
        assert checked > 3
        engine.detach()

    def test_substrate_stays_verified_after_run(self):
        __, __, engine = _run(GDREngine, GDRConfig.gdr)
        assert engine.detector.verify()
        assert engine.group_index.verify()

    def test_detach_releases_all_listeners(self):
        ds = load_dataset("hospital", n=60, seed=0)
        db = ds.fresh_dirty()
        first = GDREngine(
            db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        first.detach()
        # a detached engine no longer observes writes...
        db.set_value(db.tids()[0], "city", "Nowhere")
        assert len(db._listeners) == 0
        # ...and a second engine over the same instance runs normally
        second = GDREngine(
            db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(), clean_db=ds.clean
        )
        result = second.run(feedback_limit=10)
        assert result.feedback_used > 0


class _ScriptedLearner:
    """Minimal learner double: always decides, always trusted."""

    def __init__(self, feedback=Feedback.CONFIRM, uncertainty=0.0, trusted=True):
        self.feedback = feedback
        self.uncertainty = uncertainty
        self.trusted = trusted
        self.predictions = 0

    def predict(self, update, row):
        self.predictions += 1
        return LearnerPrediction(
            feedback=self.feedback,
            confirm_probability=1.0 if self.feedback is Feedback.CONFIRM else 0.0,
            uncertainty=self.uncertainty,
        )

    def predict_many(self, updates, rows):
        return [self.predict(u, r) for u, r in zip(updates, rows)]

    def is_trusted(self, attribute):
        return self.trusted

    def model_version(self, attribute):
        return 0


def _drain_engine(grouping=True, engine_cls=GDREngine):
    ds = load_dataset("hospital", n=80, seed=4)
    db = ds.fresh_dirty()
    config = GDRConfig(
        ranking="voi", learning="none", grouping=grouping, use_benefit_quota=False
    )
    engine = engine_cls(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    return engine


class TestDrainWithLearner:
    def test_zero_passes_decides_nothing(self):
        engine = _drain_engine()
        engine.learner = _ScriptedLearner()
        decided = engine.drain_remaining(max_passes=0)
        assert decided == 0

    def test_locality_restriction_blocks_unvisited_groups(self):
        engine = _drain_engine(grouping=True)
        engine.learner = _ScriptedLearner()
        assert len(engine.state) > 0
        decided = engine.drain_remaining()
        assert decided == 0  # no group was ever visited by the user
        assert engine.learner.predictions == 0

    def test_locality_allows_visited_groups_only(self):
        engine = _drain_engine(grouping=True)
        engine.learner = _ScriptedLearner(feedback=Feedback.RETAIN)
        key = engine.group_index.keys()[0]
        visited_size = engine.group_index.size(key)
        engine._visited_groups.add(key)
        decided = engine.drain_remaining(max_passes=1)
        assert decided == visited_size  # retained every member, nothing else

    def test_no_grouping_drains_whole_pool(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(feedback=Feedback.RETAIN)
        pool = len(engine.state)
        decided = engine.drain_remaining(max_passes=1)
        assert decided == pool

    def test_fixpoint_termination_and_idempotence(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
        counter = [0]
        decided = engine.drain_remaining(lambda: counter.__setitem__(0, counter[0] + 1))
        assert decided > 0
        assert counter[0] == decided
        # a second drain finds a fixpoint immediately
        assert engine.drain_remaining() == 0

    def test_max_passes_caps_multi_pass_drains(self):
        capped = _drain_engine(grouping=False)
        capped.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
        decided_capped = capped.drain_remaining(max_passes=1)

        free = _drain_engine(grouping=False)
        free.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
        decided_free = free.drain_remaining(max_passes=25)
        # confirms regenerate suggestions, so the uncapped drain keeps
        # going past the first pass
        assert decided_free > decided_capped > 0

    def test_uncertain_predictions_not_decided(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(uncertainty=0.9)
        assert engine.drain_remaining() == 0

    def test_untrusted_confirms_not_applied(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(feedback=Feedback.CONFIRM, trusted=False)
        assert engine.drain_remaining() == 0

    def test_drain_parity_across_pipelines(self):
        outcomes = {}
        for engine_cls in (GDREngine, ReferenceEngine):
            engine = _drain_engine(grouping=True, engine_cls=engine_cls)
            engine.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
            engine._visited_groups.update(engine.group_index.keys()[:2])
            decided = engine.drain_remaining(max_passes=3)
            outcomes[engine_cls] = (decided, engine.db.snapshot())
        decided_delta, db_delta = outcomes[GDREngine]
        decided_rebuild, db_rebuild = outcomes[ReferenceEngine]
        assert decided_delta == decided_rebuild > 0
        assert db_delta.equals_data(db_rebuild)
