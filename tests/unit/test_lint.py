"""Unit tests for the determinism linter (repro.analysis.lint).

Every rule gets a positive case (the hazard is flagged), a negative case
(legitimate code is not), and a noqa case (a justified suppression
survives).  Sources are inline snippets run through :func:`lint_source`
with an explicit ``module=`` override so the scoping logic is exercised
without touching the filesystem.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    Finding,
    lint_paths,
    lint_source,
)
from repro.analysis.report import render_json, render_text

SIM_MODULE = "repro.core.example"


def codes(source, module=SIM_MODULE, path="src/repro/core/example.py"):
    """Lint a dedented snippet and return the finding codes."""
    findings = lint_source(textwrap.dedent(source), path=path, module=module)
    return [finding.code for finding in findings]


class TestRep001UnseededRandom:
    def test_flags_stdlib_global_random(self):
        assert codes(
            """
            import random
            value = random.random()
            """
        ) == ["REP001"]

    def test_flags_numpy_global_draw(self):
        assert codes(
            """
            import numpy as np
            value = np.random.random()
            """
        ) == ["REP001"]

    def test_flags_from_import_alias(self):
        assert codes(
            """
            from random import randint as ri
            value = ri(0, 4)
            """
        ) == ["REP001"]

    def test_seeded_constructor_allowed(self):
        assert codes(
            """
            import numpy as np
            gen = np.random.default_rng(1988)
            """
        ) == []

    def test_unseeded_constructor_flagged(self):
        assert codes(
            """
            import numpy as np
            gen = np.random.default_rng()
            """
        ) == ["REP001"]

    def test_rng_module_is_exempt(self):
        assert (
            codes(
                """
                import numpy as np
                value = np.random.random()
                """,
                module="repro.utils.rng",
            )
            == []
        )

    def test_noqa_suppresses(self):
        assert codes(
            """
            import random
            value = random.random()  # repro: noqa=REP001 demo only
            """
        ) == []


class TestRep002WallClock:
    def test_flags_time_in_simulation_module(self):
        assert codes(
            """
            import time
            start = time.perf_counter()
            """
        ) == ["REP002"]

    def test_flags_datetime_now(self):
        assert codes(
            """
            import datetime
            stamp = datetime.datetime.now()
            """
        ) == ["REP002"]

    def test_perf_package_is_allowed(self):
        # repro.perf is not a simulation package, so REP002 stays out of
        # it; its clock reads are REP007's to flag (see that rule's tests).
        assert "REP002" not in codes(
            """
            import time
            start = time.perf_counter()
            """,
            module="repro.perf.parallel",
            path="src/repro/perf/parallel.py",
        )

    def test_noqa_suppresses(self):
        assert codes(
            """
            import time
            start = time.time()  # repro: noqa=REP002 logging only
            """
        ) == []


class TestKernelPackageScoping:
    """``repro.kernel`` is a simulation package: the vectorized backend
    must obey the same determinism contract as the scalar simulator."""

    KERNEL = dict(
        module="repro.kernel.numpy_kernel",
        path="src/repro/kernel/numpy_kernel.py",
    )

    def test_direct_numpy_random_in_kernel_is_flagged(self):
        assert codes(
            """
            import numpy as np
            noise = np.random.random(64)
            """,
            **self.KERNEL,
        ) == ["REP001"]

    def test_wall_clock_in_kernel_is_rep002(self):
        assert codes(
            """
            import time
            start = time.perf_counter()
            """,
            **self.KERNEL,
        ) == ["REP002"]

    def test_set_iteration_in_kernel_is_rep003(self):
        assert codes(
            """
            for stage in set(stages):
                advance(stage)
            """,
            **self.KERNEL,
        ) == ["REP003"]

    def test_kernel_is_in_simulation_packages(self):
        from repro.analysis.lint import SIMULATION_PACKAGES

        assert "repro.kernel" in SIMULATION_PACKAGES


class TestRep003SetIteration:
    def test_flags_for_over_set_call(self):
        assert codes(
            """
            for item in set(items):
                consume(item)
            """
        ) == ["REP003"]

    def test_flags_comprehension_over_set_literal(self):
        assert codes(
            """
            doubled = [2 * x for x in {1, 2, 3}]
            """
        ) == ["REP003"]

    def test_sorted_set_is_allowed(self):
        assert codes(
            """
            for item in sorted(set(items)):
                consume(item)
            """
        ) == []

    def test_membership_test_is_allowed(self):
        assert codes(
            """
            if item in {1, 2, 3}:
                consume(item)
            """
        ) == []

    def test_library_modules_are_rep008_not_rep003(self):
        assert (
            codes(
                """
                for item in set(items):
                    consume(item)
                """,
                module="repro.utils.tables",
            )
            == ["REP008"]
        )

    def test_noqa_suppresses(self):
        assert codes(
            """
            for item in set(items):  # repro: noqa=REP003 order-insensitive sum
                total += item
            """
        ) == []


class TestRep008SetIterationLibrary:
    SNIPPET = """
    for item in set(items):
        consume(item)
    """

    def test_flags_repro_library_module(self):
        assert codes(self.SNIPPET, module="repro.analysis.report") == [
            "REP008"
        ]

    def test_flags_comprehension_over_set_literal(self):
        assert codes(
            "rows = [f(x) for x in {1, 2, 3}]\n",
            module="repro.markov.bridge",
        ) == ["REP008"]

    def test_simulation_modules_stay_rep003(self):
        assert codes(self.SNIPPET, module="repro.core.damq") == ["REP003"]

    def test_non_repro_modules_exempt(self):
        assert codes(self.SNIPPET, module="somepkg.helpers") == []
        assert codes(self.SNIPPET, module=None, path="scripts/tool.py") == []

    def test_tests_exempt(self):
        assert (
            codes(
                self.SNIPPET,
                module="repro.utils.tables",
                path="tests/unit/test_tables.py",
            )
            == []
        )

    def test_sorted_set_is_allowed(self):
        assert codes(
            """
            for item in sorted(set(items)):
                consume(item)
            """,
            module="repro.utils.tables",
        ) == []

    def test_noqa_suppresses(self):
        assert codes(
            """
            for item in set(items):  # repro: noqa=REP008 order-insensitive
                total += item
            """,
            module="repro.utils.tables",
        ) == []


class TestRep004FloatEquality:
    def test_flags_equality_with_float_literal(self):
        assert codes("ok = value == 1.5\n") == ["REP004"]

    def test_flags_inequality_and_negative_literal(self):
        assert codes("ok = value != -0.5\n") == ["REP004"]

    def test_integer_literal_allowed(self):
        assert codes("ok = value == 3\n") == []

    def test_ordering_comparison_allowed(self):
        assert codes("ok = value < 1.5\n") == []

    def test_noqa_suppresses(self):
        assert codes("ok = p == 0.0  # repro: noqa=REP004 exact sentinel\n") == []


class TestRep005BareAssert:
    def test_flags_assert_in_library_module(self):
        assert codes("assert head is not None\n") == ["REP005"]

    def test_tests_may_assert(self):
        assert (
            codes(
                "assert head is not None\n",
                module="tests.unit.test_example",
                path="tests/unit/test_example.py",
            )
            == []
        )

    def test_raise_invariant_error_is_the_fix(self):
        assert codes(
            """
            if head is None:
                raise InvariantError("empty list has a head")
            """
        ) == []

    def test_noqa_suppresses(self):
        assert codes(
            "assert head is not None  # repro: noqa=REP005 debug scaffold\n"
        ) == []


class TestRep006MutableDefault:
    def test_flags_list_literal_default(self):
        assert codes("def f(items=[]):\n    return items\n") == ["REP006"]

    def test_flags_constructor_default(self):
        assert codes("def f(items=dict()):\n    return items\n") == ["REP006"]

    def test_flags_keyword_only_default(self):
        assert codes("def f(*, items={}):\n    return items\n") == ["REP006"]

    def test_none_default_allowed(self):
        assert codes("def f(items=None):\n    return items\n") == []

    def test_tuple_default_allowed(self):
        assert codes("def f(items=()):\n    return items\n") == []

    def test_noqa_suppresses(self):
        assert codes(
            "def f(items=[]):  # repro: noqa=REP006 module-lifetime cache\n"
            "    return items\n"
        ) == []


class TestRep007WallClockOutsideAllowlist:
    WALL_CLOCK = """
        import time
        def f():
            return time.perf_counter()
        """

    def test_flags_library_module_outside_allowlist(self):
        assert codes(
            self.WALL_CLOCK,
            module="repro.cache.store",
            path="src/repro/cache/store.py",
        ) == ["REP007"]

    def test_flags_datetime_now(self):
        assert codes(
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            module="repro.experiments.export",
            path="src/repro/experiments/export.py",
        ) == ["REP007"]

    def test_perf_package_flagged(self):
        # repro.perf only maps simulations; nothing in it reads a clock.
        assert codes(
            self.WALL_CLOCK,
            module="repro.perf.parallel",
            path="src/repro/perf/parallel.py",
        ) == ["REP007"]

    def test_telemetry_allowed(self):
        assert codes(
            self.WALL_CLOCK,
            module="repro.telemetry.session",
            path="src/repro/telemetry/session.py",
        ) == []

    def test_service_allowed(self):
        # Process supervision is wall-clock by nature: heartbeats,
        # deadlines and retry delays all read real time.
        assert codes(
            self.WALL_CLOCK,
            module="repro.service.supervisor",
            path="src/repro/service/supervisor.py",
        ) == []

    def test_simulation_path_is_rep002_not_rep007(self):
        assert codes(self.WALL_CLOCK) == ["REP002"]

    def test_tests_out_of_scope(self):
        assert codes(
            self.WALL_CLOCK, module="tests.unit.example", path="tests/unit/example.py"
        ) == []

    def test_noqa_suppresses(self):
        assert codes(
            """
            import time
            started = time.perf_counter()  # repro: noqa=REP007 CLI timing
            """,
            module="repro.experiments.__main__",
            path="src/repro/experiments/__main__.py",
        ) == []


class TestNoqaMechanics:
    def test_wrong_code_does_not_suppress(self):
        assert codes("assert x  # repro: noqa=REP004 wrong code\n") == ["REP005"]

    def test_multiple_codes_on_one_line(self):
        assert codes(
            "assert x == 1.0  # repro: noqa=REP004,REP005 both intentional\n"
        ) == []


class TestInfrastructure:
    def test_every_rule_has_code_and_docs(self):
        assert set(RULES) == {
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
        }
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.summary()
            assert rule.doc()

    def test_finding_render_format(self):
        finding = Finding(
            code="REP004", message="msg", path="a.py", line=3, column=7
        )
        assert finding.render() == "a.py:3:7: REP004 msg"

    def test_lint_paths_reports_syntax_errors_as_rep000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings, checked = lint_paths([str(tmp_path)])
        assert checked == 1
        assert [finding.code for finding in findings] == ["REP000"]

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "demo.py").write_text("assert True\n")
        findings, checked = lint_paths([str(tmp_path)])
        assert checked == 1
        assert [finding.code for finding in findings] == ["REP005"]

    def test_json_report_schema(self):
        findings = lint_source(
            "assert x\n", path="src/repro/core/demo.py", module=SIM_MODULE
        )
        payload = json.loads(render_json(findings, files_checked=1))
        assert payload["schema"] == 2
        assert payload["clean"] is False
        assert payload["counts"] == {"REP005": 1}
        assert payload["findings"][0]["code"] == "REP005"
        assert payload["findings"][0]["line"] == 1
        assert "REP005" in payload["rules"]

    def test_text_report_clean_line(self):
        assert render_text([], files_checked=4).startswith("clean: 0 findings")


class TestCommandLine:
    """The installed entry point: exit codes and output formats."""

    def run(self, *args, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            **kwargs,
        )

    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        result = self.run("lint", str(clean))
        assert result.returncode == 0
        assert "clean" in result.stdout

    def test_findings_exit_nonzero_with_json(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "demo.py").write_text("assert True\n")
        result = self.run("lint", "--format", "json", str(tmp_path))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["counts"] == {"REP005": 1}

    def test_select_restricts_rules(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "demo.py").write_text("assert x == 1.0\n")
        result = self.run("lint", "--select", "REP004", str(tmp_path))
        assert result.returncode == 1
        assert "REP004" in result.stdout
        assert "REP005" not in result.stdout

    def test_rules_subcommand_prints_docs(self):
        result = self.run("rules")
        assert result.returncode == 0
        for code in RULES:
            assert code in result.stdout
