"""The benchmark's workloads and its metric catalogue.

Every workload is a closed loop with one simulated user — the paper's
``GroundTruthOracle``, answering instantly — driving ``GDREngine.run``
with ``GDRConfig.gdr(seed=…)`` defaults (``shards=0``) in one process,
at dirty rate :data:`DIRTY_RATE`.  Only the durability knobs of
``hospital-durable`` are set on top.

Each run repairs ``instances`` independent instances generated from the
run's seed.  The engine's work varies strongly from one generated
instance to the next (whether the learner starts delegating, whether the
top-ranked groups hold writes or only retains), so one instance per run
would measure the data, not the engine; see README.md for the
measurements behind the sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

__all__ = ["DIRTY_RATE", "END_TO_END", "PER_LAYER", "WORKLOADS", "Workload", "instance_seed"]

#: Share of tuples the generators corrupt: a realistic dirty rate, at
#: which the cold start and the learner both have work to do.
DIRTY_RATE = 0.3


@dataclass(frozen=True)
class Workload:
    """One input family and the session protocol run on it.

    Attributes
    ----------
    dataset:
        Generator name for ``repro.datasets.load_dataset``.
    rows / labels:
        Instance size and the user's label budget per session.
    instances:
        Independent instances repaired per run (each at least once).
    durable:
        Journal and auto-checkpoints on (``journal_path``,
        ``checkpoint_path``, default ``checkpoint_every``).
    """

    name: str
    why: str
    dataset: str
    rows: int
    labels: int
    instances: int
    durable: bool = False

    def load(self, seed: int):
        """Generate one instance (dirty, clean, rules) from *seed*."""
        from repro.datasets import load_dataset

        return load_dataset(self.dataset, n=self.rows, seed=seed, dirty_rate=DIRTY_RATE)

    def config(self, seed: int, workdir: Path | None):
        """The engine configuration of one session."""
        from repro.core import GDRConfig

        if not self.durable:
            return GDRConfig.gdr(seed=seed)
        if workdir is None:
            raise ValueError(f"workload {self.name} needs a working directory")
        return GDRConfig.gdr(
            seed=seed,
            journal_path=str(workdir / "feedback.journal"),
            checkpoint_path=str(workdir / "session.checkpoint"),
        )

    def toy(self) -> "Workload":
        """The same protocol at a size that runs in about a second."""
        return replace(self, rows=200, labels=30, instances=2)


def instance_seed(seed: int, instance: int) -> int:
    """Seed of instance *instance* of a run seeded *seed*."""
    return seed * 1000 + instance


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hospital-session",
            why=(
                "interactive loop dominates: Eq. 6 ranking, what-if probes and learner "
                "refits between answers; journal and checkpoints off (the read path)"
            ),
            dataset="hospital",
            rows=500,
            labels=100,
            instances=40,
        ),
        Workload(
            name="hospital-durable",
            why=(
                "hospital-session's loop with journal and auto-checkpoints on; their cost shows in "
                "drain_s and first_question_s (about +60% and +15%) and in journal.* and "
                "checkpoint_s, ~5% of session_s"
            ),
            dataset="hospital",
            rows=500,
            labels=100,
            instances=40,
            durable=True,
        ),
    )
}

#: ``(name, unit, better, bound)`` of every end-to-end metric.  Timings
#: are probe-normalised seconds (see ``probe.py``).  ``setup_s`` carries
#: the largest bound, so that work moved into setup shows; the median
#: wait and the drain share it because their run-to-run spread, driven
#: by how much each generated instance leaves to the learner, is the
#: widest (0.09–0.16 IQR/median across seeds).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("first_question_s", "s", "lower", 0.2),
    ("question_wait_ms.p50", "ms", "lower", 0.25),
    ("question_wait_ms.p90", "ms", "lower", 0.15),
    ("drain_s", "s", "lower", 0.25),
    ("session_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("repair_precision", "ratio", "higher", 0.1),
    ("repair_errors_left", "ratio", "lower", 0.15),
)

#: ``(name, unit, better)`` of every per-layer metric (traced runs only).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("violations.build_s", "s", "lower"),
    ("violations.what_if_s", "s", "lower"),
    ("violations.what_if_calls", "count", "lower"),
    ("violations.sig_cache_hit_ratio", "ratio", "higher"),
    ("generator.bulk_s", "s", "lower"),
    ("generator.cells_s", "s", "lower"),
    ("generator.cells_calls", "count", "lower"),
    ("generator.decision_memo_hit_ratio", "ratio", "higher"),
    ("generator.witness_memo_hit_ratio", "ratio", "higher"),
    ("similarity.scores_s", "s", "lower"),
    ("similarity.scores_calls", "count", "lower"),
    ("similarity.hit_ratio", "ratio", "higher"),
    ("consistency.refresh_s", "s", "lower"),
    ("consistency.apply_s", "s", "lower"),
    ("consistency.apply_calls", "count", "lower"),
    ("voi.refresh_s", "s", "lower"),
    ("voi.benefits_s", "s", "lower"),
    ("voi.term_memo_hit_ratio", "ratio", "higher"),
    ("voi.prob_memo_hit_ratio", "ratio", "higher"),
    ("learner.fit_s", "s", "lower"),
    ("learner.fit_calls", "count", "lower"),
    ("learner.predict_s", "s", "lower"),
    ("learner.predict_calls", "count", "lower"),
    ("session.decide_s", "s", "lower"),
    ("session.decisions", "count", "higher"),
    ("quality.loss_s", "s", "lower"),
    ("quality.loss_calls", "count", "lower"),
    ("db.write_s", "s", "lower"),
    ("db.writes", "count", "lower"),
    ("journal.append_s", "s", "lower"),
    ("journal.appends", "count", "lower"),
    ("checkpoint_s", "s", "lower"),
    ("checkpoints", "count", "lower"),
    ("probe_ms", "ms", "lower"),
    ("tracing_overhead", "ratio", "lower"),
)
