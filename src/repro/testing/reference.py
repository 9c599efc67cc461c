"""The test oracle: the slow, obviously-correct references of every fast path.

:class:`ReferenceEngine` is :class:`~repro.core.gdr.GDREngine` with its
four optimised components swapped through class-level and private
method seams:

* selection — full-pool sweeps, :func:`~repro.core.grouping.group_updates`
  and from-scratch ranking (:meth:`GDREngine._rank_full`);
* suggestions — Algorithm 1 one cell at a time;
* committees — exact-sort CART forests;
* decisions — :func:`decide_sequential`, for the drain and in-session
  delegation alike.

:func:`what_if_reference` is the detector's Eq. 6 what-if by
apply-and-revert.

The production engine must reproduce its ``GDRResult`` and final
instance byte for byte.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.constraints.cfd import CFD
from repro.constraints.violations import ViolationDetector, WhatIfOutcome
from repro.core.gdr import GDREngine, GDRResult
from repro.core.grouping import UpdateGroup
from repro.core.learner import FeedbackLearner, _ExampleStore
from repro.core.session import DecisionGate, InteractiveSession, ProgressCallback
from repro.db.database import Database
from repro.ml.encoding import FEEDBACK_CLASSES
from repro.ml.forest import RandomForestClassifier
from repro.repair.candidate import CandidateUpdate
from repro.repair.consistency import ConsistencyManager
from repro.repair.feedback import UserFeedback
from repro.repair.generator import UpdateGenerator
from repro.repair.state import RepairState

__all__ = [
    "ReferenceEngine",
    "ReferenceGenerator",
    "ReferenceLearner",
    "ReferenceSession",
    "decide_sequential",
    "run_signature",
    "what_if_reference",
]


def decide_sequential(
    db: Database,
    learner: FeedbackLearner,
    state: RepairState,
    manager: ConsistencyManager,
    updates: list[CandidateUpdate],
    decision_allowed: DecisionGate,
    on_applied: ProgressCallback,
) -> int:
    """Predict one update on its live row, apply, repeat (see ``decide_batched``)."""
    applied = 0
    for update in updates:
        if not state.contains(update):
            continue
        prediction = learner.predict(update, db.values_snapshot(update.tid))
        if not decision_allowed(update, prediction):
            continue
        manager.apply_feedback(update, UserFeedback(prediction.feedback), source="learner")
        applied += 1
        on_applied()
    return applied


class ReferenceGenerator(UpdateGenerator):
    """Algorithm 1 per cell: no witness sharing, no batched scoring."""

    def generate_for_cells(self, cells, violated_by_tid=None):
        return [self.generate_for_cell(tid, attribute) for tid, attribute in cells]


class ReferenceLearner(FeedbackLearner):
    """Exact-sort CART committees, refitted cold from the raw examples."""

    def _fit_committee(self, store: _ExampleStore, random_state: int) -> RandomForestClassifier:
        model = RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            random_state=random_state,
        )
        model.fit(store.X, store.y, n_classes=len(FEEDBACK_CLASSES))
        return model


class ReferenceSession(InteractiveSession):
    """In-session delegation through :func:`decide_sequential`."""

    def _decide(self, updates: list[CandidateUpdate], on_applied: ProgressCallback) -> int:
        gate = self._decision_allowed
        return decide_sequential(
            self.db, self.learner, self.state, self.manager, updates, gate, on_applied
        )


class ReferenceEngine(GDREngine):
    """The GDR loop assembled from the reference components."""

    _generator_class = ReferenceGenerator
    _learner_class = ReferenceLearner
    _session_class = ReferenceSession

    def _next_group(self) -> tuple[UpdateGroup, float, float, int] | None:
        self.manager.refresh_suggestions_full()
        if len(self.state) == 0:
            return None
        return self._rank_full()

    def _drain_pool(self, restrict: bool) -> list[CandidateUpdate]:
        self.manager.refresh_suggestions_full()
        updates = self.state.updates()
        if restrict:
            updates = [u for u in updates if u.group_key in self._visited_groups]
        return updates

    def _drain_pass(self, updates: list[CandidateUpdate], on_learner_decision) -> int:
        gate = self._decision_allowed
        return decide_sequential(
            self.db, self.learner, self.state, self.manager, updates, gate, on_learner_decision
        )


def run_signature(db: Database, result: GDRResult) -> tuple:
    """Everything a parity check compares: the whole result and the final rows."""
    return astuple(result), tuple(tuple(row.values) for row in db.rows())


def what_if_reference(
    detector: ViolationDetector, tid: int, attribute: str, value: object
) -> dict[CFD, WhatIfOutcome]:
    """Eq. 6 what-if by pushing the change through the real write path.

    The cell change runs through the same ``update_cell`` machinery as a
    write, the statistics are read, and the change is replayed back.
    """
    states = detector._states_by_attr.get(attribute, [])
    values = list(detector.db.values_snapshot(tid))
    pos = detector.db.schema.position(attribute)
    old_value, values[pos] = values[pos], value
    outcomes: dict[CFD, WhatIfOutcome] = {}
    for state in states:
        vio_before = state.total_vio
        if old_value != value:
            state.update_cell(tid, values)
        outcomes[state.rule] = WhatIfOutcome(
            vio_before=vio_before,
            vio_after=state.total_vio,
            satisfying_after=state.context_size - state.violating_count,
        )
    if old_value != value:
        values[pos] = old_value
        for state in states:
            state.update_cell(tid, values)
    return outcomes
