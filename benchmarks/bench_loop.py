"""End-to-end interactive-loop benchmark: production engine vs oracle.

Times one full ``GDREngine.run()`` — generation, grouping, VOI ranking,
labelling sessions, learner drain — on a generated hospital-style
instance:

* ``test_loop_delta`` — the production engine (incremental refresh,
  event-maintained group index, stamped benefit cache, heap selection,
  batched suggestions, histogram committees, batched decisions);
* ``test_loop_reference`` — :class:`repro.testing.reference.ReferenceEngine`,
  the test oracle built from the reference components (full sweeps and
  from-scratch ranking, per-cell Algorithm 1, exact-sort committees,
  predict-one-apply-one decisions);
* ``test_loop_journal`` — the production engine with the write-ahead
  feedback journal armed, recording ``journal.overhead_vs_delta``
  (the acceptance bound is <= 10% on the tracked full-size run).

Both engines must produce identical results (cross-checked by
``test_loop_trajectories_identical``); the recorded medians make the
production/oracle ratio visible across PRs in ``BENCH_loop.json``.
Scale knobs::

    REPRO_LOOP_N       table size          (default 1000)
    REPRO_LOOP_BUDGET  user label budget   (default 200)

e.g. ``REPRO_LOOP_N=200 REPRO_LOOP_BUDGET=40`` for a CI smoke run.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.testing.reference import ReferenceEngine, run_signature

LOOP_N = int(os.environ.get("REPRO_LOOP_N", "1000"))
LOOP_BUDGET = int(os.environ.get("REPRO_LOOP_BUDGET", "200"))
LOOP_SEED = int(os.environ.get("REPRO_LOOP_SEED", "0"))

#: Filled per engine class; the parity test compares the two entries.
_RESULTS: dict[type, tuple] = {}


def _make_engine(engine_cls: type = GDREngine, journal_path: str | None = None):
    dataset = load_dataset("hospital", n=LOOP_N, seed=LOOP_SEED)
    db = dataset.fresh_dirty()
    engine = engine_cls(
        db,
        dataset.rules,
        GroundTruthOracle(dataset.clean),
        GDRConfig.gdr(seed=LOOP_SEED, journal_path=journal_path),
        clean_db=dataset.clean,
    )
    return db, engine


def _run_loop(engine_cls: type):
    db, engine = _make_engine(engine_cls)
    result = engine.run(feedback_limit=LOOP_BUDGET)
    return db, result, engine


def _bench_engine(benchmark, engine_cls: type, rounds: int):
    db, result, engine = benchmark.pedantic(
        lambda: _run_loop(engine_cls), rounds=rounds, iterations=1, warmup_rounds=0
    )
    assert 0 < result.feedback_used <= LOOP_BUDGET
    assert result.improvement > 0
    benchmark.extra_info["iterations"] = result.iterations
    benchmark.extra_info["final_loss"] = result.final_loss
    health = engine.health()
    for key, value in health["cache"].items():
        benchmark.extra_info[f"cache.{key}"] = value
    for key, value in health["sim"].items():
        benchmark.extra_info[f"sim.{key}"] = value
    _RESULTS[engine_cls] = run_signature(db, result)
    return result


def test_loop_delta(benchmark):
    """Full interactive loop on the production engine."""
    _bench_engine(benchmark, GDREngine, rounds=3)


def test_loop_reference(benchmark):
    """Full interactive loop on the reference oracle."""
    _bench_engine(benchmark, ReferenceEngine, rounds=1)


def test_loop_journal(benchmark):
    """Delta pipeline with the write-ahead journal armed.

    Times ``engine.run()`` alone (engine construction and dataset
    generation happen in the untimed setup) against an identically
    timed journal-off baseline, recording the relative journal cost as
    ``journal.overhead_vs_delta`` — the durability tax of flushing
    every feedback decision and cell write before applying it.
    """
    rounds = 3
    tmpdirs: list[str] = []
    engines: list[GDREngine] = []
    durations: list[float] = []
    outcomes: list[tuple] = []

    def setup():
        tmp = tempfile.mkdtemp(prefix="repro-bench-journal-")
        tmpdirs.append(tmp)
        db, engine = _make_engine(journal_path=os.path.join(tmp, "journal.jsonl"))
        engines.append(engine)
        return (db, engine), {}

    def target(db, engine):
        start = time.perf_counter()
        result = engine.run(feedback_limit=LOOP_BUDGET)
        durations.append(time.perf_counter() - start)
        outcomes.append((db, result, engine))
        return result

    try:
        benchmark.pedantic(target, setup=setup, rounds=rounds, iterations=1, warmup_rounds=0)
        db, result, engine = outcomes[-1]

        baseline: list[float] = []
        for _ in range(rounds):
            db0, engine0 = _make_engine()
            start = time.perf_counter()
            result0 = engine0.run(feedback_limit=LOOP_BUDGET)
            baseline.append(time.perf_counter() - start)
            engine0.detach()
        # durability must not change a single decision or write
        assert run_signature(db, result) == run_signature(db0, result0)

        overhead = statistics.median(durations) / statistics.median(baseline) - 1.0
        benchmark.extra_info["journal.overhead_vs_delta"] = round(overhead, 4)
        benchmark.extra_info["journal.records"] = engine.journal.seq
        health = engine.health()
        for key, value in health["cache"].items():
            benchmark.extra_info[f"cache.{key}"] = value
        for key, value in health["sim"].items():
            benchmark.extra_info[f"sim.{key}"] = value
    finally:
        for engine in engines:
            engine.detach()
        for tmp in tmpdirs:
            shutil.rmtree(tmp, ignore_errors=True)


def test_loop_trajectories_identical():
    """Byte-identical ``GDRResult`` trajectories: production vs oracle.

    Relies on the two benchmarks above having populated ``_RESULTS``;
    falls back to running both once when executed standalone.
    """
    for engine_cls in (GDREngine, ReferenceEngine):
        if engine_cls not in _RESULTS:
            db, result, __ = _run_loop(engine_cls)
            _RESULTS[engine_cls] = run_signature(db, result)
    assert _RESULTS[GDREngine] == _RESULTS[ReferenceEngine]


if __name__ == "__main__":  # pragma: no cover - manual convenience
    raise SystemExit(pytest.main([__file__, "--benchmark-only", "-q"]))
