"""Parity tests for the batched what-if API (tentpole of the columnar engine).

Three implementations must agree cell-for-cell:

* ``what_if_many`` — the batched one-pass evaluation over partition
  statistics (sparse constant-rule plan + analytic variable-rule math);
* ``what_if`` — the scalar wrapper over the batched path;
* ``what_if_reference`` — the oracle's apply-and-revert evaluation,
  byte-identical to the real update path.

The property-style suites sweep randomized instances over constant and
variable CFDs (wildcard, single-constant and multi-constant LHS
patterns), and the candidate lists deliberately include the tuple's
current value (identity outcome) and values from the cell's prevented
list — both must be probe-able.
"""

import random

import pytest

from repro.constraints import CFD, RuleSet, ViolationDetector, parse_rules
from repro.constraints.pattern import ANY
from repro.db import Database, Schema
from repro.testing.reference import what_if_reference

VALUES = {
    "a": ["x0", "x1", "x2"],
    "b": ["y0", "y1", "y2"],
    "c": ["z0", "z1", "z2"],
    "d": ["w0", "w1", "w2"],
}

RULES = RuleSet(
    [
        CFD(["a"], "b", {"a": "x1", "b": "y1"}, name="const_single"),
        CFD(["a"], "b", {"a": "x2", "b": "y0"}, name="const_single2"),
        CFD(["a", "c"], "b", {"a": "x0", "c": "z1", "b": "y2"}, name="const_multi"),
        CFD(["b"], "d", {"b": ANY, "d": "w0"}, name="const_wildcard_lhs"),
        CFD(["a", "c"], "d", {"a": ANY, "c": ANY, "d": ANY}, name="variable_fd"),
        CFD(["c"], "b", {"c": "z2", "b": ANY}, name="variable_const_lhs"),
    ]
)


def random_database(rng: random.Random, n: int) -> Database:
    schema = Schema("r", ["a", "b", "c", "d"])
    rows = [[rng.choice(VALUES[attr]) for attr in "abcd"] for _ in range(n)]
    return Database(schema, rows)


def candidate_values(rng: random.Random, attr: str, current: object) -> list:
    pool = VALUES[attr] + ["never_stored_value"]
    candidates = [rng.choice(pool) for _ in range(4)]
    candidates.append(current)  # the tuple's current value: identity outcome
    return candidates


class TestBatchedScalarParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_batched_equals_scalar_loop(self, seed):
        rng = random.Random(seed)
        db = random_database(rng, rng.randint(2, 16))
        detector = ViolationDetector(db, RULES)
        for __ in range(25):
            tid = rng.choice(db.tids())
            attr = rng.choice("abcd")
            candidates = candidate_values(rng, attr, db.value(tid, attr))
            batched = detector.what_if_many(tid, attr, candidates)
            scalars = [detector.what_if(tid, attr, value) for value in candidates]
            assert [dict(b.items()) for b in batched] == [dict(s.items()) for s in scalars]

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_equals_apply_revert_reference(self, seed):
        rng = random.Random(100 + seed)
        db = random_database(rng, rng.randint(2, 16))
        detector = ViolationDetector(db, RULES)
        for __ in range(25):
            tid = rng.choice(db.tids())
            attr = rng.choice("abcd")
            candidates = candidate_values(rng, attr, db.value(tid, attr))
            batched = detector.what_if_many(tid, attr, candidates)
            for value, outcomes in zip(candidates, batched):
                assert outcomes == what_if_reference(detector, tid, attr, value)

    @pytest.mark.parametrize("seed", range(4))
    def test_parity_survives_interleaved_writes(self, seed):
        rng = random.Random(200 + seed)
        db = random_database(rng, 12)
        detector = ViolationDetector(db, RULES)
        for __ in range(10):
            for ___ in range(5):
                db.set_value(
                    rng.choice(db.tids()),
                    rng.choice("abcd"),
                    rng.choice(VALUES[rng.choice("abcd")]),
                )
            tid = rng.choice(db.tids())
            attr = rng.choice("abcd")
            candidates = candidate_values(rng, attr, db.value(tid, attr))
            batched = detector.what_if_many(tid, attr, candidates)
            for value, outcomes in zip(candidates, batched):
                assert outcomes == what_if_reference(detector, tid, attr, value)
        assert detector.verify()


class TestBatchedSemantics:
    def _hospital_detector(self):
        db = Database(
            Schema("r", ["zip", "city"]),
            [
                ["46360", "Westville"],
                ["46360", "Michigan City"],
                ["46391", "Westville"],
            ],
        )
        rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
        return db, rules, ViolationDetector(db, rules)

    def test_current_value_yields_identity(self):
        db, rules, det = self._hospital_detector()
        rule = next(iter(rules))
        outcome = det.what_if_many(0, "city", [db.value(0, "city")])[0][rule]
        assert outcome.vio_before == outcome.vio_after
        assert outcome.vio_reduction == 0

    def test_prevented_values_are_probeable(self):
        """Prevented values stay evaluable: Eq. 6 may still score them."""
        db, rules, det = self._hospital_detector()
        rule = next(iter(rules))
        # pretend 'Michigan City' was rejected for the cell; the probe
        # must still answer (the VOI layer filters admissibility)
        outcomes = det.what_if_many(0, "city", ["Michigan City", "Nowhere"])
        assert outcomes[0][rule].vio_reduction == 1
        assert outcomes[1][rule].vio_reduction == 0

    def test_untouched_attribute_reports_empty(self):
        db2 = Database(Schema("s", ["p", "q", "extra"]), [["1", "2", "3"]])
        rules2 = RuleSet(parse_rules("(p -> q, {1 || 2})"))
        det2 = ViolationDetector(db2, rules2)
        assert det2.what_if_many(0, "p", ["9"])[0] != {}
        # attribute known to the schema but foreign to every rule
        assert det2.what_if_many(0, "extra", ["9"]) == [{}]

    def test_outcomes_align_with_candidates(self):
        db, rules, det = self._hospital_detector()
        rule = next(iter(rules))
        values = ["Michigan City", "Westville", "Elsewhere"]
        outcomes = det.what_if_many(0, "city", values)
        assert len(outcomes) == len(values)
        assert outcomes[0][rule].vio_after == 0  # fixes the violation
        assert outcomes[1][rule].vio_after == 1  # keeps it

    def test_batched_probe_does_not_mutate(self):
        db, rules, det = self._hospital_detector()
        before = db.snapshot()
        vio = det.vio_total()
        det.what_if_many(0, "city", ["Michigan City", "Nowhere", "Westville"])
        assert db.equals_data(before)
        assert det.vio_total() == vio
        assert det.verify()
