"""Tests of the benchmark itself, at toy sizes (a few seconds in total)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import Run, end_to_end, gate, run_session, run_workload, signature
from perfbench.probe import REFERENCE_PROBE_MS, Normaliser, SpeedProbe, Timeline
from perfbench.tracer import Span, Tracer, instrument, self_times
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A settable clock for exact timing arithmetic."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("child", 5.0, 9.0, 0, 1),
        Span("sibling", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_tracer_records_nesting_question_and_effects():
    clock = FakeClock()
    tracer = Tracer(clock)
    questions = iter([0, 0, 1])
    tracer.question = lambda: next(questions)

    def inner():
        clock.t += 2.0
        return True

    wrapped_inner = tracer.wrap(inner, "inner", lambda result: int(result))

    def outer():
        clock.t += 1.0
        wrapped_inner()
        clock.t += 3.0

    tracer.wrap(outer, "outer", None)()
    tracer.wrap(inner, "inner", lambda result: int(result))()
    names = [(s.name, s.start, s.end, s.parent, s.question) for s in tracer.spans]
    assert names == [
        ("outer", 0.0, 6.0, -1, 0),
        ("inner", 1.0, 3.0, 0, 0),
        ("inner", 6.0, 8.0, -1, 1),
    ]
    assert self_times(tracer.spans) == [4.0, 2.0, 2.0]
    assert tracer.effects["inner"] == 2


def test_tracer_closes_span_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.t += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom", None)()
    assert tracer.spans[0].end == 1.0
    assert tracer._stack == []


def test_instrument_restores_every_entry_point():
    from repro.constraints.violations import ViolationDetector
    from repro.core import gdr, session

    before = (ViolationDetector.__init__, session.decide_batched, gdr.decide_batched)
    with instrument(Tracer(FakeClock())):
        assert ViolationDetector.__init__ is not before[0]
        assert session.decide_batched is not before[1]
    assert (ViolationDetector.__init__, session.decide_batched, gdr.decide_batched) == before


# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------
def test_normaliser_scales_piecewise_by_mean_bounding_probe():
    # probe 2 ms at t=0, 4 ms at t=10, 4 ms at t=20
    ref = REFERENCE_PROBE_MS
    normaliser = Normaliser([(0.0, 2.0), (10.0, 4.0), (20.0, 4.0)])
    assert normaliser.elapsed(0.0, 10.0) == pytest.approx(10.0 * ref / 3.0)
    assert normaliser.elapsed(10.0, 20.0) == pytest.approx(10.0 * ref / 4.0)
    assert normaliser.elapsed(5.0, 15.0) == pytest.approx(5.0 * ref / 3.0 + 5.0 * ref / 4.0)
    # outside the readings the nearest reading's rate applies
    assert normaliser.elapsed(-2.0, 0.0) == pytest.approx(2.0 * ref / 2.0)
    assert normaliser.elapsed(20.0, 22.0) == pytest.approx(2.0 * ref / 4.0)


def test_normaliser_is_identity_when_the_probe_reads_the_reference():
    normaliser = Normaliser([(0.0, REFERENCE_PROBE_MS), (1.0, REFERENCE_PROBE_MS)])
    assert normaliser.elapsed(0.25, 7.5) == pytest.approx(7.25)


def test_timeline_excludes_paused_time_and_rate_limits_readings():
    clock = FakeClock()
    timeline = Timeline(SpeedProbe(), repeats=1, clock=clock)
    clock.t = 1.0
    with timeline.paused():
        clock.t = 4.0
        with timeline.paused():  # re-entrant: still one exclusion
            clock.t = 5.0
        assert timeline.now() == 1.0
    assert timeline.now() == 1.0
    clock.t = 6.0
    assert timeline.now() == 2.0
    timeline.sample()
    timeline.maybe_sample()  # same engine instant: too soon
    assert len(timeline.samples) == 1
    clock.t = 6.5
    timeline.maybe_sample()
    assert [t for t, _ in timeline.samples] == [2.0, 2.5]


def test_speed_probe_is_small_and_positive():
    probe = SpeedProbe()
    assert probe.measure_ms() > 0.0


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def toy_session():
    workload = WORKLOADS["hospital-session"].toy()
    dataset = workload.load(11)
    record, engine = run_session(workload, dataset, 0, 11, Timeline(SpeedProbe()))
    return workload, dataset, record, engine


def test_gate_passes_an_honest_session(toy_session):
    _workload, _dataset, record, _engine = toy_session
    assert record.failures == []
    assert len(record.asked) == record.feedback_used > 0


def test_gate_fails_a_tampered_result(toy_session):
    workload, dataset, record, engine = toy_session

    class Oracle:
        consultations = record.feedback_used

    result = _result_stub(record)
    assert gate(engine, Oracle(), result, dataset, workload.labels) == []
    tampered = dataclasses.replace(record.report, correct_changes=record.report.correct_changes + 1)
    failures = gate(engine, Oracle(), _result_stub(record, report=tampered), dataset, workload.labels)
    assert any("ground-truth recount" in f for f in failures)
    failures = gate(engine, Oracle(), _result_stub(record, feedback_used=record.feedback_used + 1), dataset, workload.labels)
    assert any("oracle consulted" in f for f in failures)
    failures = gate(engine, Oracle(), result, dataset, record.feedback_used - 1)
    assert any("exceeds budget" in f for f in failures)


def test_gate_fails_a_tampered_instance(toy_session):
    workload, dataset, record, _engine = toy_session
    from repro.core import GDREngine, GroundTruthOracle

    db = dataset.fresh_dirty()
    engine = GDREngine(db, dataset.rules, GroundTruthOracle(dataset.clean), workload.config(11, None), clean_db=dataset.clean)
    result = engine.run(feedback_limit=workload.labels)
    before = signature(result, engine)
    engine.detach()  # the detector no longer sees writes: its statistics drift
    for tid in sorted(db.tids())[:20]:
        db.set_value(tid, "city", "tampered-value")
    failures = gate(engine, engine.oracle, result, dataset, workload.labels)
    assert any("detector.verify" in f for f in failures)
    assert any("ground-truth recount" in f for f in failures)
    assert signature(result, engine) != before


def _result_stub(record, **changes):
    fields = {"feedback_used": record.feedback_used, "report": record.report}
    fields.update(changes)
    return type("Result", (), fields)()


def test_run_counts_a_diverging_repeat_as_failed():
    workload = WORKLOADS["hospital-session"].toy()
    run = Run(workload, seed=5, trace_path=None)
    assert run.session(0, traced=False) is not None
    run._signatures[0] = "not-the-real-signature"
    assert run.session(0, traced=False) is None
    assert (run.attempted, run.failed) == (2, 1)
    assert "differs" in run.errors[-1]


# ----------------------------------------------------------------------
# end to end at toy size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_end_to_end_at_toy_size(name):
    result, record = run_workload(WORKLOADS[name].toy(), seed=3, seconds=0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        n: u for n, u, _, _ in END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["env"]["cpu_count"] >= 1
    assert set(record["raw"]) == set(record["normalised"])
    assert record["probe_series"]


def test_traced_run_reproduces_the_untraced_result(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    workload = WORKLOADS["hospital-durable"].toy()
    result, record = run_workload(workload, seed=4, seconds=0.0, trace=True, trace_path=trace_path)
    assert result["correct"], record["errors"]
    assert set(result["metrics"]) == {name for name, _, _ in PER_LAYER}
    sessions = record["sessions"]
    assert [s["traced"] for s in sessions] == [False, True]
    assert sessions[0]["signature"] == sessions[1]["signature"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["journal.appends"] > 0 and metrics["checkpoints"] > 0
    assert metrics["violations.build_s"] > 0 and metrics["db.writes"] > 0
    first = json.loads(trace_path.read_text().splitlines()[0])
    assert set(first) == {"session", "id", "name", "start", "end", "parent", "question"}


def test_end_to_end_percentiles_pool_every_wait(toy_session):
    _workload, _dataset, record, _engine = toy_session
    metrics, facts = end_to_end([record, record], lambda a, b: b - a)
    assert facts["waits"] == 2 * (len(record.asked) - 1)
    assert facts["instances"] == 1
    assert metrics["question_wait_ms.p50"] <= metrics["question_wait_ms.p90"]


# ----------------------------------------------------------------------
# the command and its declaration
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in doc["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_command_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hospital-session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
