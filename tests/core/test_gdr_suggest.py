"""Suggestion engine: the batched generator against the per-cell oracle.

The batched engine (code-space similarity, witness-signature sharing,
kernel-scored pools) must reproduce
:class:`~repro.testing.reference.ReferenceGenerator` — Algorithm 1 one
cell at a time — suggestion for suggestion. These tests check that on
the repair states real sessions leave behind (prevented values, frozen
cells, written tuples), which fresh-instance differentials in
``tests/repair/test_generator_batched.py`` never reach; the end-to-end
run parity lives in ``test_gdr_delta.py``.
"""

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.errors import ConfigError
from repro.repair import RepairState, SimilarityCache, UpdateGenerator
from repro.testing.reference import ReferenceEngine, ReferenceGenerator

PRESETS = [GDRConfig.gdr, GDRConfig.s_learning, GDRConfig.active_learning, GDRConfig.no_learning]
PRESET_IDS = ["gdr", "s_learning", "active_learning", "no_learning"]


def _run(engine_cls, preset, dataset="hospital", n=150, budget=40, data_seed=7,
         config_seed=3, **overrides):
    ds = load_dataset(dataset, n=n, seed=data_seed)
    db = ds.fresh_dirty()
    config = preset(seed=config_seed, **overrides)
    engine = engine_cls(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    result = engine.run(feedback_limit=budget, drain=False)
    return db, result, engine


def _flags_copy(state):
    """A fresh state carrying *state*'s prevented values and frozen cells,
    plus a plain reject of every third live suggestion — simulated
    answers are mostly corrections, which prevent nothing, and prevented
    cells are exactly where witness sharing must switch off."""
    copy = RepairState()
    for cell in sorted(state.frozen_cells()):
        copy.freeze(cell)
    prevented = state.prevented_map()
    for cell in sorted(prevented):
        for value in sorted(prevented[cell], key=repr):
            copy.prevent(cell, value)
    for update in state.updates()[::3]:
        copy.prevent(update.cell, update.value)
    return copy


def _assert_generators_agree(engine):
    """Regenerate every dirty cell through both generators from the
    engine's flags; the produced suggestions must agree exactly."""
    db, detector = engine.db, engine.detector
    batched = UpdateGenerator(
        db, engine.rules, detector, _flags_copy(engine.state), sim=SimilarityCache(db.columns)
    )
    reference = ReferenceGenerator(db, engine.rules, detector, _flags_copy(engine.state))
    produced_b = [(u.cell, u.value, u.score) for u in batched.generate_all()]
    produced_s = [(u.cell, u.value, u.score) for u in reference.generate_all()]
    assert produced_b == produced_s
    assert produced_b
    assert engine.state.prevented_map() or engine.state.frozen_cells()


class TestSuggestConfig:
    def test_default_is_batched(self):
        with pytest.raises(TypeError):
            GDRConfig(suggest="batched")
        ds = load_dataset("hospital", n=60, seed=0)
        with pytest.raises(TypeError):
            UpdateGenerator(ds.dirty, ds.rules, None, RepairState(), batched=True)

    def test_invalid_suggest_rejected(self):
        with pytest.raises(TypeError):
            GDRConfig(suggest="scalar")

    def test_invalid_sim_cache_capacity_rejected(self):
        with pytest.raises(ConfigError):
            GDRConfig(sim_cache_capacity=0)

    def test_engine_owns_one_similarity_cache(self):
        ds = load_dataset("hospital", n=60, seed=0)
        engine = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert engine.generator.sim is engine.sim_cache
        assert engine.learner.encoder.sim is engine.sim_cache

    def test_two_engines_do_not_share_cache_state(self):
        """The old module-global ``lru_cache`` leaked across engines;
        engine-owned caches must be independent."""
        ds = load_dataset("hospital", n=60, seed=0)
        first = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        first.detach()
        second = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert first.sim_cache is not second.sim_cache
        assert second.sim_cache.stats["hits"] <= first.sim_cache.stats["hits"]

    def test_cache_capacity_honoured(self):
        ds = load_dataset("hospital", n=80, seed=1)
        engine = GDREngine(
            ds.fresh_dirty(),
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.gdr(sim_cache_capacity=8),
            clean_db=ds.clean,
        )
        engine.run(feedback_limit=10)
        assert len(engine.sim_cache) <= 8 + 64  # one batch may overshoot, then purge
        assert engine.sim_cache.stats["evictions"] > 0

    def test_generator_mode_follows_config(self):
        """The engine class, not the config, picks the generator."""
        ds = load_dataset("hospital", n=60, seed=0)
        production = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        production.detach()
        oracle = ReferenceEngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert type(production.generator) is UpdateGenerator
        assert type(oracle.generator) is ReferenceGenerator


class TestByteIdenticalSuggestParity:
    @pytest.mark.parametrize("preset", PRESETS, ids=PRESET_IDS)
    def test_batched_matches_scalar(self, preset):
        __, __, engine = _run(GDREngine, preset)
        _assert_generators_agree(engine)

    def test_adult_dataset_parity(self):
        __, __, engine = _run(
            GDREngine, GDRConfig.gdr, dataset="adult", n=120, budget=30, data_seed=2,
            config_seed=1,
        )
        _assert_generators_agree(engine)

    def test_batched_on_rebuild_pipeline_parity(self):
        """Flags left by the oracle's own session agree too."""
        __, __, engine = _run(ReferenceEngine, GDRConfig.gdr)
        _assert_generators_agree(engine)

    def test_cache_sees_traffic_during_run(self):
        __, __, engine = _run(GDREngine, GDRConfig.gdr)
        stats = engine.sim_cache.stats
        assert stats["misses"] > 0
        assert stats["hits"] > 0
