"""One benchmark run: warm-up, timed sessions, correctness gate, metrics.

Each run is one fresh process.  It warms up on a fixed toy session,
then repairs the workload's instances (generated from ``--seed``) one
session each, cycling until ``--seconds`` have passed and every instance
has run; the metrics cover the first session of each instance, so every
run of a seed measures the same work.  Dataset generation, ``gc.collect()`` and the correctness gate
sit outside the timed region.  Every timed interval is measured on the
probe-normalised engine clock of ``probe.py``; raw seconds and the probe
series are recorded beside it.

The last stdout line is the result object the harness contract asks
for; the line before it is a ``{"record": …}`` object with the run's
environment, per-session raw and normalised times and the probe series.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.probe import Normaliser, SpeedProbe, Timeline
from perfbench.tracer import Tracer, instrument, layer_metrics
from perfbench.workloads import (
    DIRTY_RATE,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Workload,
    instance_seed,
)

__all__ = [
    "Run",
    "SessionRecord",
    "TimedOracle",
    "end_to_end",
    "gate",
    "main",
    "run_workload",
    "signature",
]

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for journals, checkpoints and trace files, inside the
#: checkout (the benchmark writes nowhere else).
WORK_DIR = ROOT / ".perfbench"
#: Seed of the fixed warm-up session (independent of ``--seed``).
WARMUP_SEED = 7
#: Probe runs per reading at the edges of timed intervals.
EDGE_REPEATS = 5


class TimedOracle:
    """Wraps the simulated user: timestamps each question on the engine clock.

    The inner oracle's time is excluded from the engine clock, and each
    consultation is a probe opportunity (at most one reading per
    ``SAMPLE_INTERVAL_S``).
    """

    def __init__(self, inner, timeline: Timeline) -> None:
        self.inner = inner
        self.timeline = timeline
        self.asked: list[float] = []

    @property
    def consultations(self) -> int:
        return self.inner.consultations

    def review(self, update, current_value):
        timeline = self.timeline
        with timeline.paused():
            self.asked.append(timeline.now())
            answer = self.inner.review(update, current_value)
            timeline.maybe_sample()
        return answer


@dataclass
class SessionRecord:
    """Engine-clock timestamps and outcome of one session."""

    instance: int
    seed: int
    traced: bool
    setup_start: float
    setup_end: float
    run_start: float
    end: float
    asked: list[float]
    feedback_used: int
    learner_decisions: int
    report: object
    signature: str
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None
    spans: int = 0


def signature(result, engine) -> str:
    """SHA-256 over everything a session decides: counters, trajectory, rows."""
    rows, next_tid = engine.db.export_rows()
    report = result.report
    payload = repr(
        (
            result.feedback_used,
            result.learner_decisions,
            result.iterations,
            result.initial_loss,
            result.final_loss,
            [(p.feedback, p.learner_decisions, p.loss) for p in result.trajectory],
            result.initial_dirty,
            result.remaining_dirty,
            None
            if report is None
            else (
                report.changed,
                report.correct_changes,
                report.initial_errors,
                report.remaining_errors,
                report.broken,
                report.cells,
            ),
            sorted(rows.items()),
            next_tid,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def gate(engine, oracle, result, dataset, budget: int) -> list[str]:
    """The correctness checks of one finished session; returns the failures."""
    from repro.core.metrics import evaluate_repair

    failures = []
    if not engine.detector.verify():
        failures.append("detector.verify() found drifted violation statistics")
    if oracle.consultations != result.feedback_used:
        failures.append(
            f"oracle consulted {oracle.consultations} times but "
            f"feedback_used = {result.feedback_used}"
        )
    if result.feedback_used > budget:
        failures.append(f"feedback_used {result.feedback_used} exceeds budget {budget}")
    truth = evaluate_repair(dataset.dirty, engine.db, dataset.clean)
    if result.report is None:
        failures.append("no repair report against the ground truth")
    elif result.report != truth:
        failures.append(f"repair report {result.report} != ground-truth recount {truth}")
    if truth.initial_errors == 0:
        failures.append("instance has no errors to repair")
    return failures


def run_session(
    workload: Workload,
    dataset,
    instance: int,
    seed: int,
    timeline: Timeline,
    tracer: Tracer | None = None,
) -> tuple[SessionRecord, object]:
    """Run one session on a fresh copy of *dataset*; gate it.

    Returns the record and the engine (for the traced run's layer
    counters).  Exceptions propagate to the caller, which counts them.
    """
    from repro.core import GDREngine, GroundTruthOracle

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="session-", dir=WORK_DIR))
    try:
        db = dataset.fresh_dirty()
        oracle = TimedOracle(GroundTruthOracle(dataset.clean), timeline)
        if tracer is not None:
            tracer.question = lambda: len(oracle.asked)
        config = workload.config(seed, workdir)
        gc.collect()
        timeline.sample(EDGE_REPEATS)
        with instrument(tracer) if tracer is not None else nullcontext():
            setup_start = timeline.now()
            engine = GDREngine(db, dataset.rules, oracle, config, clean_db=dataset.clean)
            setup_end = timeline.now()
            db.add_write_hook(timeline.write_hook)
            run_start = timeline.now()
            result = engine.run(feedback_limit=workload.labels)
            end = timeline.now()
        timeline.sample(EDGE_REPEATS)
        db.remove_write_hook(timeline.write_hook)
        engine.detach()
        record = SessionRecord(
            instance=instance,
            seed=seed,
            traced=tracer is not None,
            setup_start=setup_start,
            setup_end=setup_end,
            run_start=run_start,
            end=end,
            asked=list(oracle.asked),
            feedback_used=result.feedback_used,
            learner_decisions=result.learner_decisions,
            report=result.report,
            signature=signature(result, engine),
        )
        record.failures = gate(engine, oracle, result, dataset, workload.labels)
        if not record.asked:
            record.failures.append("the session asked no question")
        return record, engine
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def session_times(record: SessionRecord, elapsed) -> dict[str, float]:
    """The timed phases of one session under the interval measure *elapsed*."""
    return {
        "setup_s": elapsed(record.setup_start, record.setup_end),
        "first_question_s": elapsed(record.run_start, record.asked[0]),
        "drain_s": elapsed(record.asked[-1], record.end),
        "session_s": elapsed(record.setup_start, record.end),
    }


def end_to_end(records: list[SessionRecord], elapsed) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of a run under the interval measure *elapsed*.

    Phase times are medians over *records*; the wait percentiles are
    taken over every wait of every record; quality is pooled over them.
    Also returns the facts that back the percentiles (sample counts).
    """
    phases = [session_times(record, elapsed) for record in records]
    waits = [
        elapsed(a, b) * 1000.0
        for record in records
        for a, b in zip(record.asked, record.asked[1:])
    ]
    p50, p90 = (float(v) for v in np.percentile(waits, [50, 90]))
    reports = [record.report for record in records]
    changed = sum(r.changed for r in reports)
    metrics = {
        name: statistics.median(phase[name] for phase in phases)
        for name in ("setup_s", "first_question_s", "drain_s", "session_s")
    }
    metrics.update(
        {
            "question_wait_ms.p50": p50,
            "question_wait_ms.p90": p90,
            "repair_precision": (
                sum(r.correct_changes for r in reports) / changed if changed else 1.0
            ),
            "repair_errors_left": (
                sum(r.remaining_errors for r in reports) / sum(r.initial_errors for r in reports)
            ),
        }
    )
    facts = {
        "sessions": len(records),
        "instances": len({record.instance for record in records}),
        "waits": len(waits),
        "waits_beyond_p90": sum(1 for w in waits if w > p90),
    }
    return metrics, facts


def environment() -> dict:
    """Machine and code identity recorded with every run."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class Run:
    """The sessions of one benchmark run and their failure accounting."""

    def __init__(self, workload: Workload, seed: int, trace_path: Path | None) -> None:
        self.workload = workload
        self.seed = seed
        self.trace_path = trace_path
        self.timeline = Timeline(SpeedProbe())
        self.records: list[SessionRecord] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # only the instance being run is held, so the process's peak RSS
        # is one session's, not the harness's retention of every instance
        self._dataset: tuple[int, object] | None = None
        self._signatures: dict[int, str] = {}

    def session(self, instance: int, traced: bool) -> SessionRecord | None:
        """Run and gate one session; a crash or failed check counts as failed."""
        seed = instance_seed(self.seed, instance)
        if self._dataset is None or self._dataset[0] != instance:
            self._dataset = None
            gc.collect()
            self._dataset = (instance, self.workload.load(seed))
        self.attempted += 1
        tracer = Tracer(self.timeline.now) if traced else None
        try:
            record, engine = run_session(
                self.workload, self._dataset[1], instance, seed, self.timeline, tracer
            )
        except Exception:  # a crashed session is a failed operation, not a crashed run
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=8))
            return None
        # every session of one instance must decide exactly the same
        # things, traced or not
        expected = self._signatures.setdefault(instance, record.signature)
        if record.signature != expected:
            record.failures.append("result differs from this instance's earlier session")
        if record.failures:
            self.failed += 1
            self.errors.extend(record.failures)
            return None
        if tracer is not None:
            normaliser = Normaliser(self.timeline.samples)
            scale = normaliser.elapsed(record.setup_start, record.end) / (
                record.end - record.setup_start
            )
            record.layers = layer_metrics(tracer, engine, scale)
            record.spans = len(tracer.spans)
            if self.trace_path is not None:
                tracer.write_jsonl(self.trace_path, self.attempted)
        self.records.append(record)
        return record


def _warm_up(workload: Workload) -> None:
    """A fixed toy session of the same protocol; nothing is recorded."""
    toy = workload.toy()
    run_session(toy, toy.load(WARMUP_SEED), 0, WARMUP_SEED, Timeline(SpeedProbe()))


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, trace_path: Path | None = None
) -> tuple[dict, dict]:
    """Run one workload; returns ``(result line, record)``.

    Untraced (``trace`` false): sessions over instances 0, 1, … until
    every instance has run once and *seconds* have passed; the metrics
    cover the first session of each instance.  Traced: an
    untraced and a traced session per instance, until *seconds* have
    passed (at least one pair); the per-layer metrics come from the
    traced sessions, whose results must match their untraced twins.
    """
    wall_start = time.perf_counter()
    env = environment()
    _warm_up(workload)
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text("")
    run = Run(workload, seed, trace_path)
    for _ in range(20):
        run.timeline.probe.measure_ms()
    # interpreter, engine modules, probe and warm-up: what the process
    # holds before the first timed session
    rss_baseline_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    k = 0
    if not trace:
        while k < workload.instances or time.perf_counter() - start < seconds:
            run.session(k % workload.instances, traced=False)
            k += 1
    else:
        while k == 0 or time.perf_counter() - start < seconds:
            run.session(k % workload.instances, traced=False)
            run.session(k % workload.instances, traced=True)
            k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record_out: dict = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "env": env,
        "params": {
            "dataset": workload.dataset,
            "rows": workload.rows,
            "labels": workload.labels,
            "instances": workload.instances,
            "dirty_rate": DIRTY_RATE,
            "durable": workload.durable,
        },
        "errors": run.errors,
        "rss_baseline_mb": rss_baseline_mb,
    }
    metrics: dict[str, dict] = {}
    plain = [r for r in run.records if not r.traced]
    traced = [r for r in run.records if r.traced]
    # later repeats of an instance (while --seconds last) only feed the
    # gate, including its same-result check
    first = list({r.instance: r for r in reversed(plain)}.values())[::-1]
    if plain and (traced or not trace):
        timeline = run.timeline
        normaliser = Normaliser(timeline.samples)
        values, facts = end_to_end(first, normaliser.elapsed)
        raw, _ = end_to_end(first, lambda a, b: b - a)
        values["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
        probes = [p for _, p in timeline.samples]
        record_out.update(
            {
                "normalised": values,
                "raw": raw,
                "facts": facts,
                "probe_ms": {
                    "median": statistics.median(probes),
                    "min": min(probes),
                    "max": max(probes),
                    "readings": len(probes),
                },
                "probe_series": [[round(t, 6), round(p, 6)] for t, p in timeline.samples],
                "sessions": [
                    {
                        "instance": r.instance,
                        "seed": r.seed,
                        "traced": r.traced,
                        "questions": len(r.asked),
                        "feedback_used": r.feedback_used,
                        "learner_decisions": r.learner_decisions,
                        "precision": r.report.precision,
                        "errors": [r.report.initial_errors, r.report.remaining_errors],
                        "broken": r.report.broken,
                        "signature": r.signature,
                        "spans": r.spans,
                        "normalised": session_times(r, normaliser.elapsed),
                        "raw": session_times(r, lambda a, b: b - a),
                        "clock": [
                            round(t, 6) for t in (r.setup_start, r.setup_end, r.run_start, r.end)
                        ],
                        "asked": [round(t, 6) for t in r.asked],
                    }
                    for r in run.records
                ],
            }
        )
        if trace:
            layers = {
                name: statistics.fmean(r.layers[name] for r in traced) for name in traced[0].layers
            }
            traced_s = sum(normaliser.elapsed(r.setup_start, r.end) for r in traced)
            plain_s = sum(normaliser.elapsed(r.setup_start, r.end) for r in plain)
            layers["probe_ms"] = statistics.median(probes)
            layers["tracing_overhead"] = traced_s / plain_s - 1.0
            record_out["layers"] = layers
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        else:
            metrics = {
                name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END
            }
    record_out["wall_s"] = time.perf_counter() - wall_start
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, record_out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Three-phase GDR session benchmark."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    trace_path = None
    if args.trace:
        trace_path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace), trace_path)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["metrics"] else 1
