"""parity-coverage: the production engine keeps a registered oracle comparison."""

from __future__ import annotations

import textwrap

from repro.analysis.rules.parity import GDR_MODULE, ORACLE_COMPARISONS, ORACLE_MODULE

GDR_SOURCE = textwrap.dedent(
    """
    class GDRConfig:
        ranking: str = "voi"
        seed: int = 0


    class GDREngine:
        _generator_class = UpdateGenerator
        _learner_class = FeedbackLearner
        _session_class = InteractiveSession

        def _next_group(self):
            pass

        def _drain_pool(self, restrict):
            pass

        def _drain_pass(self, updates, callback):
            pass
    """
)

ORACLE_SOURCE = textwrap.dedent(
    """
    class ReferenceGenerator(UpdateGenerator):
        def generate_for_cells(self, cells, violated_by_tid=None):
            pass


    class ReferenceLearner(FeedbackLearner):
        def _fit_committee(self, store, random_state):
            pass


    class ReferenceSession(InteractiveSession):
        def _decide(self, updates, on_applied):
            pass


    class ReferenceEngine(GDREngine):
        _generator_class = ReferenceGenerator
        _learner_class = ReferenceLearner
        _session_class = ReferenceSession

        def _next_group(self):
            pass

        def _drain_pool(self, restrict):
            pass

        def _drain_pass(self, updates, callback):
            pass
    """
)

COMPARISON = textwrap.dedent(
    """

    def {name}():
        assert run(GDREngine) == run(ReferenceEngine)
    """
)


def _tree() -> dict[str, str]:
    files = {GDR_MODULE: GDR_SOURCE, ORACLE_MODULE: ORACLE_SOURCE}
    for rel, function in ORACLE_COMPARISONS:
        files[rel] = files.get(rel, "") + COMPARISON.format(name=function)
    return files


FIRST_FILE, FIRST_TEST = ORACLE_COMPARISONS[0]


class TestPositive:
    def test_losing_the_last_pin_fails(self, lint):
        """Deleting a test that compares production against the oracle."""
        files = _tree()
        files[FIRST_FILE] = files[FIRST_FILE].replace(
            COMPARISON.format(name=FIRST_TEST), ""
        )
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == FIRST_TEST
        assert "is gone" in findings[0].message

    def test_oracle_dropping_an_override_fails(self, lint):
        """The oracle inherits a production component again."""
        files = _tree()
        files[ORACLE_MODULE] = ORACLE_SOURCE.replace(
            "    _learner_class = ReferenceLearner\n", ""
        )
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == "_learner_class"
        assert "no longer overrides" in findings[0].message

    def test_oracle_component_without_override_fails(self, lint):
        files = _tree()
        files[ORACLE_MODULE] = ORACLE_SOURCE.replace(
            "    def generate_for_cells(self, cells, violated_by_tid=None):\n        pass\n",
            "    pass\n",
        )
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == "_generator_class"
        assert "'generate_for_cells'" in findings[0].message

    def test_dropping_a_seam_from_the_engine_fails(self, lint):
        files = _tree()
        files[GDR_MODULE] = GDR_SOURCE.replace(
            "    def _drain_pool(self, restrict):\n        pass\n", ""
        )
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == "_drain_pool"
        assert "dead code" in findings[0].message

    def test_wrong_reference_value_does_not_count(self, lint):
        """A registered test that never runs the oracle is no comparison."""
        files = _tree()
        first = COMPARISON.format(name=FIRST_TEST)
        files[FIRST_FILE] = files[FIRST_FILE].replace(
            first, first.replace("run(ReferenceEngine)", "run(GDREngine)")
        )
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == FIRST_TEST
        assert "does not run both" in findings[0].message

    def test_missing_config_module(self, lint):
        files = _tree()
        del files[GDR_MODULE]
        findings = lint(files, "parity-coverage")
        assert any("missing or unparseable" in f.message for f in findings)


class TestNegative:
    def test_fully_pinned_tree_passes(self, lint):
        assert lint(_tree(), "parity-coverage") == []

    def test_positional_pin_through_local_helper(self, lint):
        # the engines may be named only inside a module-level helper
        # the registered test calls
        files = _tree()
        files[FIRST_FILE] = files[FIRST_FILE].replace(
            COMPARISON.format(name=FIRST_TEST),
            textwrap.dedent(
                f"""

                def _compare(preset):
                    return run(GDREngine, preset) == run(ReferenceEngine, preset)


                def {FIRST_TEST}():
                    assert _compare("gdr")
                """
            ),
        )
        assert lint(files, "parity-coverage") == []


class TestRealRepo:
    def test_repo_pins_every_reference(self, repo_root):
        from repro.analysis.core import RULES
        from repro.analysis.project import Project, run_rules

        project = Project(repo_root)
        assert run_rules(project, [RULES["parity-coverage"]]) == []

    def test_removing_a_parity_test_fails_lint(self, repo_root):
        """Deleting the engine parity matrix fails lint."""
        from repro.analysis.core import RULES
        from repro.analysis.project import Project, run_rules

        project = Project(repo_root, excludes=("tests/core/test_gdr_delta.py",))
        findings = run_rules(project, [RULES["parity-coverage"]])
        assert {f.symbol for f in findings} == {
            name for rel, name in ORACLE_COMPARISONS if rel == "tests/core/test_gdr_delta.py"
        }

    def test_removing_an_oracle_override_fails_lint(self, repo_root):
        from repro.analysis.core import RULES
        from repro.analysis.project import Project, run_rules

        text = (repo_root / ORACLE_MODULE).read_text()
        edited = text.replace("    _session_class = ReferenceSession\n", "")
        assert edited != text
        project = Project(repo_root, overrides={ORACLE_MODULE: edited})
        findings = run_rules(project, [RULES["parity-coverage"]])
        assert [f.symbol for f in findings] == ["_session_class"]
