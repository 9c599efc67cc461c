"""Learner: histogram committees against the exact-sort oracle.

The histogram committees (fused split search, batched inference, warm
binned refits) must be bit-identical to the exact-sort CART committees
:class:`~repro.testing.reference.ReferenceLearner` fits: same trees, so
the same predictions and the same repair trajectories. This module
holds the larger-hospital row of the production-vs-oracle matrix and
compares the fitted committees tree for tree.
"""

import numpy as np
import pytest

from repro.core import FeedbackLearner, GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.ml.forest import HistogramForestClassifier, RandomForestClassifier
from repro.testing.reference import ReferenceEngine, ReferenceLearner, run_signature

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


def _assert_same_trees(a, b):
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta._feature, tb._feature)
        assert np.array_equal(ta._threshold, tb._threshold)
        assert np.array_equal(ta._proba, tb._proba)


class TestLearnerConfig:
    def test_default_is_hist(self):
        """The engine class picks the learner: histogram committees in
        production, exact-sort in the oracle."""
        ds = load_dataset("hospital", n=60, seed=0)
        production = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        production.detach()
        oracle = ReferenceEngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert type(production.learner) is FeedbackLearner
        assert type(oracle.learner) is ReferenceLearner

    def test_invalid_learner_rejected(self):
        with pytest.raises(TypeError):
            GDRConfig(learner="exact")

    def test_engine_passes_kind_to_learner(self):
        """The oracle's session really fits exact-sort committees."""
        __, __, engine = _run(ReferenceEngine, GDRConfig.gdr)
        fitted = [m for m in engine.learner._models.values() if m is not None]
        assert fitted
        assert all(type(m) is RandomForestClassifier for m in fitted)


class TestByteIdenticalLearnerParity:
    @pytest.mark.parametrize("preset", PRESETS, ids=PRESET_IDS)
    def test_hist_matches_exact(self, preset):
        db_h, result_h, engine_h = _run(GDREngine, preset, n=500)
        db_e, result_e, engine_e = _run(ReferenceEngine, preset, n=500)
        assert run_signature(db_h, result_h) == run_signature(db_e, result_e)
        if engine_h.learner is None:
            assert engine_e.learner is None
            return
        models_h, models_e = engine_h.learner._models, engine_e.learner._models
        assert models_h.keys() == models_e.keys()
        assert any(m is not None for m in models_h.values())
        for attribute, model in models_h.items():
            assert (model is None) == (models_e[attribute] is None)
            if model is not None:
                _assert_same_trees(model, models_e[attribute])

    def test_adult_dataset_parity(self):
        """Every committee a production session fitted equals an
        exact-sort refit of the same training examples."""
        __, __, engine = _run(
            GDREngine, GDRConfig.active_learning, dataset="adult", n=150, budget=100,
            data_seed=2,
        )
        learner = engine.learner
        exact = ReferenceLearner(
            engine.db.schema,
            n_estimators=learner.n_estimators,
            max_depth=learner.max_depth,
            min_examples=learner.min_examples,
            seed=engine.config.seed,
        )
        exact.restore_state(learner.export_state())
        # committees whose training set has not grown since their fit
        current = [
            a for a, m in learner._models.items() if m is not None and a not in learner._stale
        ]
        assert current
        exact._stale.update(current)
        for attribute in current:
            assert exact.retrain(attribute)
            assert type(exact._models[attribute]) is RandomForestClassifier
            _assert_same_trees(learner._models[attribute], exact._models[attribute])

    def test_hist_committees_actually_used(self):
        __, __, engine = _run(GDREngine, GDRConfig.gdr)
        fitted = [m for m in engine.learner._models.values() if m is not None]
        assert fitted
        assert all(isinstance(m, HistogramForestClassifier) for m in fitted)


class TestCheckpointRoundTrip:
    def test_checkpoint_restores_hist_models(self, tmp_path):
        """A checkpointed session with fitted histogram committees must
        restore and resume to the uncheckpointed run's end state."""
        ds = load_dataset("hospital", n=120, seed=7)
        clean_db = ds.fresh_dirty()
        clean_engine = GDREngine(
            clean_db, ds.rules, GroundTruthOracle(ds.clean),
            GDRConfig.gdr(seed=3), clean_db=ds.clean,
        )
        clean_result = clean_engine.run(feedback_limit=30)
        clean_engine.detach()

        db = ds.fresh_dirty()
        engine = GDREngine(
            db,
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.gdr(
                seed=3,
                journal_path=str(tmp_path / "journal.jsonl"),
                checkpoint_path=str(tmp_path / "session.cp"),
                checkpoint_every=1,
            ),
            clean_db=ds.clean,
        )
        engine.run(feedback_limit=30)
        engine.detach()

        restored = GDREngine.restore(
            tmp_path / "session.cp", ds.rules, GroundTruthOracle(ds.clean), ds.clean
        )
        fitted = [m for m in restored.learner._models.values() if m is not None]
        assert fitted
        assert all(isinstance(m, HistogramForestClassifier) for m in fitted)
        result = restored.resume()
        restored.detach()
        assert restored.db.equals_data(clean_db)
        assert result.remaining_dirty == clean_result.remaining_dirty
