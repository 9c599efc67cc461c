"""Drain-phase benchmark: production batched drain vs the oracle's.

Times **only** the Figure 5 automatic phase — "GDR decides about the
rest of the updates automatically" — by running the interactive phase
to budget exhaustion in the (untimed) setup and then benchmarking
``GDREngine.drain_remaining(restrict=False)`` alone:

* ``test_drain_batched`` — the production engine: wave-partitioned
  ``predict_many`` batches against a copy-on-write snapshot view;
* ``test_drain_reference`` — :class:`repro.testing.reference.ReferenceEngine`:
  full-sweep refresh and predict-one-apply-one
  (:func:`repro.testing.reference.decide_sequential`) over exact-sort
  committees.

Both engines must produce identical decisions and final instances
(cross-checked by ``test_drain_parity``); the recorded medians make the
production/oracle ratio visible across PRs in ``BENCH_drain.json``,
alongside the benefit cache's hit/eviction counters. Scale knobs::

    REPRO_DRAIN_N       table size          (default 1000)
    REPRO_DRAIN_BUDGET  user label budget   (default 200)

e.g. ``REPRO_DRAIN_N=200 REPRO_DRAIN_BUDGET=40`` for a CI smoke run.
"""

from __future__ import annotations

import os

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.testing.reference import ReferenceEngine

DRAIN_N = int(os.environ.get("REPRO_DRAIN_N", "1000"))
DRAIN_BUDGET = int(os.environ.get("REPRO_DRAIN_BUDGET", "200"))
DRAIN_SEED = int(os.environ.get("REPRO_DRAIN_SEED", "0"))

#: Filled per engine class; the parity test compares the two entries.
_RESULTS: dict[type, tuple] = {}


def _prepare(engine_cls: type) -> GDREngine:
    """Run the interactive phase to budget exhaustion; stop pre-drain."""
    dataset = load_dataset("hospital", n=DRAIN_N, seed=DRAIN_SEED)
    db = dataset.fresh_dirty()
    engine = engine_cls(
        db,
        dataset.rules,
        GroundTruthOracle(dataset.clean),
        GDRConfig.gdr(seed=DRAIN_SEED),
        clean_db=dataset.clean,
    )
    engine.run(feedback_limit=DRAIN_BUDGET, drain=False)
    return engine


def _drain(engine: GDREngine) -> tuple:
    # restrict=False: the literal Figure 5 protocol — after F labels,
    # the learner decides the whole remaining pool, not just the
    # group contexts the user happened to visit
    decided = engine.drain_remaining(restrict=False)
    return (
        decided,
        engine.detector.dirty_count(),
        tuple(tuple(row.values) for row in engine.db.rows()),
        engine.health()["cache"],
    )


def _bench_drain(benchmark, engine_cls: type, rounds: int):
    outcomes: list[tuple] = []

    def setup():
        return (_prepare(engine_cls),), {}

    def target(engine):
        outcome = _drain(engine)
        outcomes.append(outcome)
        return outcome

    benchmark.pedantic(target, setup=setup, rounds=rounds, iterations=1, warmup_rounds=0)
    decided, remaining_dirty, rows, cache_stats = outcomes[-1]
    assert decided > 0, "drain-dominated bench requires learner decisions"
    benchmark.extra_info["decisions"] = decided
    benchmark.extra_info["remaining_dirty"] = remaining_dirty
    for key, value in cache_stats.items():
        benchmark.extra_info[f"cache.{key}"] = value
    _RESULTS[engine_cls] = (decided, rows)


def test_drain_batched(benchmark):
    """Wave-batched drain (snapshot view + predict_many per wave)."""
    _bench_drain(benchmark, GDREngine, rounds=3)


def test_drain_reference(benchmark):
    """The oracle's drain (one committee prediction per update)."""
    _bench_drain(benchmark, ReferenceEngine, rounds=1)


def test_drain_parity():
    """Identical decision counts and final instances: production vs oracle.

    Relies on the two benchmarks above having populated ``_RESULTS``;
    falls back to running both once when executed standalone.
    """
    for engine_cls in (GDREngine, ReferenceEngine):
        if engine_cls not in _RESULTS:
            outcome = _drain(_prepare(engine_cls))
            _RESULTS[engine_cls] = (outcome[0], outcome[2])
    assert _RESULTS[GDREngine] == _RESULTS[ReferenceEngine]


if __name__ == "__main__":  # pragma: no cover - manual convenience
    raise SystemExit(pytest.main([__file__, "--benchmark-only", "-q"]))
