"""Span tracer over the public entry points of each engine layer.

The traced run patches the entry points listed in :data:`ENTRY_POINTS`
at class or module level for the duration of one session and restores
them afterwards; nothing under ``src/`` knows it is being traced.  Each
call records a span — name, start, end, parent span and the index of the
user question it falls under — in memory.  A span's *self time* is its
duration minus the durations of its direct children (spans nest strictly
in this single-threaded engine, so the children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ENTRY_POINTS", "Span", "Tracer", "instrument", "layer_metrics", "self_times"]


def _truthy(result: object) -> int:
    return int(bool(result))


def _number(result: object) -> int:
    return int(result)


#: ``(module, attribute path, span name, effect counter)``.  The effect
#: counter turns a call's return value into a count of useful outcomes
#: (actual refits, learner decisions, effective writes); ``None`` counts
#: nothing beyond the call itself.
ENTRY_POINTS: tuple[tuple[str, str, str, Callable[[object], int] | None], ...] = (
    ("repro.constraints.violations", "ViolationDetector.__init__", "violations.build", None),
    ("repro.constraints.violations", "ViolationDetector.what_if_many", "violations.what_if", None),
    ("repro.constraints.violations", "ViolationDetector.what_if_moved_many", "violations.what_if", None),
    (
        "repro.constraints.violations",
        "ViolationDetector.what_if_moved_many_cells",
        "violations.what_if",
        None,
    ),
    ("repro.repair.generator", "UpdateGenerator.generate_all", "generator.bulk", None),
    ("repro.repair.generator", "UpdateGenerator.generate_for_cells", "generator.cells", None),
    ("repro.repair.similarity", "SimilarityCache.scores", "similarity.scores", None),
    ("repro.repair.consistency", "ConsistencyManager.refresh_suggestions", "consistency.refresh", None),
    ("repro.repair.consistency", "ConsistencyManager.apply_feedback", "consistency.apply", None),
    ("repro.core.voi", "GroupBenefitCache.refresh", "voi.refresh", None),
    ("repro.core.voi", "GroupBenefitCache.top", "voi.refresh", None),
    ("repro.core.voi", "VOIEstimator.update_benefits_many", "voi.benefits", None),
    ("repro.core.learner", "FeedbackLearner.retrain", "learner.fit", _truthy),
    # retrain_all refits through retrain, whose spans count the fits
    ("repro.core.learner", "FeedbackLearner.retrain_all", "learner.fit", None),
    ("repro.core.learner", "FeedbackLearner.predict", "learner.predict", None),
    ("repro.core.learner", "FeedbackLearner.predict_many", "learner.predict", None),
    # core.gdr imports decide_batched by name, so both bindings are patched
    ("repro.core.session", "decide_batched", "session.decide", _number),
    ("repro.core.gdr", "decide_batched", "session.decide", _number),
    ("repro.core.gdr", "GDREngine.current_loss", "quality.loss", None),
    ("repro.db.database", "Database.set_value", "db.write", _truthy),
    ("repro.db.journal", "FeedbackJournal.append", "journal.append", None),
    ("repro.core.gdr", "GDREngine.checkpoint", "checkpoint", None),
)


@dataclass(slots=True)
class Span:
    """One traced call: ``parent`` is a span index, -1 at top level."""

    name: str
    start: float
    end: float
    parent: int
    question: int


class Tracer:
    """Collects spans from wrapped callables.

    Parameters
    ----------
    clock:
        Returns the current engine time (the benchmark passes the
        timeline's clock, so probe and user time never count).

    Attributes
    ----------
    question:
        Returns the number of questions asked so far; every span records
        it, so the spans of one question share an identifier.  Set by
        the caller once the session's oracle exists.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.question: Callable[[], int] = lambda: 0
        self.spans: list[Span] = []
        self.effects: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, effect: Callable[[object], int] | None) -> Callable:
        """Return *fn* recording one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, tracer.clock(), 0.0, parent, tracer.question())
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = tracer.clock()
            if effect is not None:
                tracer.effects[name] += effect(result)
            return result

        return traced

    def write_jsonl(self, path: Path, session: int) -> None:
        """Append the spans as JSON lines, tagged with *session*."""
        with open(path, "a", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "session": session,
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "question": span.question,
                        }
                    )
                    + "\n"
                )


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every entry point to record spans into *tracer*; restore on exit."""
    patched: list[tuple[object, str, object]] = []
    try:
        for module_name, path, name, effect in ENTRY_POINTS:
            owner, attribute = _resolve(module_name, path)
            # a class's own __dict__ entry, so restoring never shadows an
            # inherited attribute with a copy
            original = (
                owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            )
            patched.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(original, name, effect))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(tracer: Tracer, engine, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced session.

    *scale* converts raw engine seconds to normalised seconds (the
    session's normalised/raw ratio), so layer times share the unit of the
    end-to-end metrics.  Hit ratios come from the engine's own counters.
    """
    own = self_times(tracer.spans)
    seconds: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span, value in zip(tracer.spans, own):
        seconds[span.name] += value
        calls[span.name] += 1
    effects = tracer.effects
    detector = engine.detector.stats
    generator = engine.generator.stats
    health = engine.health()
    voi = engine.voi.stats
    cache = health["cache"]
    sim = health["sim"]

    def s(name: str) -> float:
        return seconds[name] * scale

    return {
        "violations.build_s": s("violations.build"),
        "violations.what_if_s": s("violations.what_if"),
        "violations.what_if_calls": calls["violations.what_if"],
        "violations.sig_cache_hit_ratio": _ratio(
            detector["sig_cache_hits"], detector["sig_cache_misses"]
        ),
        "generator.bulk_s": s("generator.bulk"),
        "generator.cells_s": s("generator.cells"),
        "generator.cells_calls": calls["generator.cells"],
        "generator.decision_memo_hit_ratio": _ratio(
            generator["decision_memo_hits"], generator["decision_memo_misses"]
        ),
        "generator.witness_memo_hit_ratio": _ratio(
            generator["witness_memo_hits"], generator["witness_memo_misses"]
        ),
        "similarity.scores_s": s("similarity.scores"),
        "similarity.scores_calls": calls["similarity.scores"],
        "similarity.hit_ratio": _ratio(sim.get("hits", 0), sim.get("misses", 0)),
        "consistency.refresh_s": s("consistency.refresh"),
        "consistency.apply_s": s("consistency.apply"),
        "consistency.apply_calls": calls["consistency.apply"],
        "voi.refresh_s": s("voi.refresh"),
        "voi.benefits_s": s("voi.benefits"),
        "voi.term_memo_hit_ratio": _ratio(voi["term_memo_hits"], voi["term_memo_misses"]),
        "voi.prob_memo_hit_ratio": _ratio(
            cache.get("prob_memo_hits", 0), cache.get("prob_memo_misses", 0)
        ),
        "learner.fit_s": s("learner.fit"),
        "learner.fit_calls": effects["learner.fit"],
        "learner.predict_s": s("learner.predict"),
        "learner.predict_calls": calls["learner.predict"],
        "session.decide_s": s("session.decide"),
        "session.decisions": effects["session.decide"],
        "quality.loss_s": s("quality.loss"),
        "quality.loss_calls": calls["quality.loss"],
        "db.write_s": s("db.write"),
        "db.writes": effects["db.write"],
        "journal.append_s": s("journal.append"),
        "journal.appends": calls["journal.append"],
        "checkpoint_s": s("checkpoint"),
        "checkpoints": calls["checkpoint"],
    }
