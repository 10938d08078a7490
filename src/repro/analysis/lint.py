"""AST-based determinism linter with repo-specific rules (REP001..REP007).

The rules encode the reproducibility contract of this codebase — every
stochastic draw goes through :mod:`repro.utils.rng`, simulation paths never
read wall clocks, iteration order is always deterministic — plus a few
correctness conventions (no float equality, no mutable default arguments,
``InvariantError`` instead of bare ``assert`` for model invariants).

Each rule is a class whose docstring is the normative description printed
by ``python -m repro.analysis rules``.  A finding on a line carrying a
``# repro: noqa=REPxxx`` comment (one or more comma-separated codes) is
suppressed; the comment should state *why* the pattern is intentional.

The linter is pure standard library (``ast`` + ``re``), so it runs in any
environment the package itself runs in.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "LintRule",
    "RULES",
    "SIMULATION_PACKAGES",
    "WALL_CLOCK_ALLOWLIST",
    "lint_paths",
    "lint_source",
]

#: Packages whose modules are cycle-accurate simulation paths: wall-clock
#: reads and order-dependent iteration are determinism hazards here.
#: ``repro.kernel`` is the vectorized simulation backend — it must obey
#: the exact same determinism contract as the scalar simulator it
#: replays, so it lives under the same rules.
SIMULATION_PACKAGES = (
    "repro.core",
    "repro.switch",
    "repro.network",
    "repro.chip",
    "repro.kernel",
)

#: The one module allowed to talk to ``numpy.random`` directly: every
#: other module must draw through its seeded, named streams.
RNG_MODULE = "repro.utils.rng"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\s*=\s*(REP\d{3}(?:\s*,\s*REP\d{3})*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    code: str
    message: str
    path: str
    line: int
    column: int

    def as_dict(self) -> dict[str, object]:
        """JSON-able representation (used by ``--format json``)."""
        rule = RULES.get(self.code)
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "summary": rule.summary() if rule is not None else "",
        }

    def render(self) -> str:
        """One-line human-readable form (``path:line:col: CODE message``)."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"


class LintRule:
    """Base class for the repo-specific rules.

    Subclasses carry the rule ``code`` and a docstring that serves as the
    normative description; the detection logic itself lives in
    :class:`_FileChecker`, keyed by code, so one AST walk serves all rules.
    """

    code: str = ""

    @classmethod
    def summary(cls) -> str:
        """First line of the rule's docstring."""
        doc = cls.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    @classmethod
    def doc(cls) -> str:
        """Full docstring of the rule, dedented."""
        import inspect

        return inspect.cleandoc(cls.__doc__ or "")


class Rep001UnseededRandom(LintRule):
    """Unseeded ``random``/``numpy.random`` module-level call.

    Module-level functions of the stdlib ``random`` module and of
    ``numpy.random`` draw from hidden global state that is shared across
    the whole process and reseeded by nobody: a single call silently
    breaks bit-reproducibility and perturbs every other consumer.  All
    stochastic draws must flow through the seeded, named streams of
    ``repro.utils.rng`` (the one module exempt from this rule).
    Explicitly seeded constructions — ``random.Random(seed)``,
    ``numpy.random.default_rng(seed)``, ``Generator``/``SeedSequence``/
    ``PCG64`` objects — are allowed; the *argument-less* forms are not.
    """

    code = "REP001"


class Rep002WallClock(LintRule):
    """Wall-clock read inside a simulation path.

    ``time.time``/``perf_counter``/``monotonic``, ``datetime.now`` and
    friends make simulated behaviour depend on host speed and scheduling.
    The cycle-accurate packages (``repro.core``, ``repro.switch``,
    ``repro.network``, ``repro.chip``, ``repro.kernel``) must derive all
    timing from simulated cycle counters; wall clocks belong in the
    benchmark tools (``benchmarks/suite``, ``python -m repro.kernel
    bench``) and the CLI layers only.
    """

    code = "REP002"


class Rep003SetIteration(LintRule):
    """Iteration over a set in a simulation module.

    Python ``set`` iteration order depends on insertion history and hash
    randomization of the element type; iterating one in a hot path is an
    ordering hazard that can silently reorder RNG draws or arbitration
    decisions.  Iterate lists/tuples, or ``sorted(...)`` the set first.
    Membership tests and set algebra remain fine — only ``for ... in`` a
    set literal, set comprehension, or ``set(...)``/``frozenset(...)``
    call is flagged.
    """

    code = "REP003"


class Rep004FloatEquality(LintRule):
    """Float literal compared with ``==``/``!=``.

    Exact equality on floats is almost always a rounding bug waiting to
    happen; compare against a tolerance (``math.isclose``) or restructure
    the logic.  Exact sentinel checks (``probability == 0.0`` short
    circuits that must not draw from the RNG) are legitimate — suppress
    those with ``# repro: noqa=REP004`` and a justification.
    """

    code = "REP004"


class Rep005BareAssert(LintRule):
    """Bare ``assert`` used for a model invariant outside tests.

    ``python -O`` strips ``assert`` statements, so an invariant guarded by
    one silently stops firing in optimized runs — and fault-injection
    campaigns can no longer distinguish *detected* corruption from
    ordinary failures.  Library code must raise
    ``repro.errors.InvariantError`` (or a more specific ``ReproError``)
    instead.  Test files may assert freely.
    """

    code = "REP005"


class Rep006MutableDefault(LintRule):
    """Mutable default argument.

    A ``list``/``dict``/``set`` (literal, comprehension, or constructor
    call) default is evaluated once at function definition time and shared
    by every call — state leaks across invocations.  Use ``None`` and
    construct inside the function body.
    """

    code = "REP006"


class Rep008SetIterationLibrary(LintRule):
    """Iteration over a set in a library module outside the simulation core.

    REP003 bans set iteration inside the cycle-accurate simulation
    packages; this rule extends the same discipline to every other
    ``repro`` library module.  Analysis reports, experiment sweeps,
    checkpoint writers and cache manifests all *produce output* whose
    ordering feeds exported artifacts, and any code interleaved with RNG
    draws consumes streams in iteration order — a set's hash-dependent
    order makes both silently irreproducible across processes and Python
    builds.  Iterate lists/tuples, or ``sorted(...)`` the set first.
    Membership tests and set algebra remain fine — only ``for ... in`` a
    set literal, set comprehension, or ``set(...)``/``frozenset(...)``
    call is flagged.  Order-insensitive reductions (``sum``, ``max``,
    counting) are legitimate — suppress with ``# repro: noqa=REP008``
    and a justification.  Dict/dict-view iteration is deliberately not
    flagged: dictionaries preserve insertion order by language guarantee.
    """

    code = "REP008"


class Rep007WallClockOutsideAllowlist(LintRule):
    """Wall-clock read outside the measurement allowlist.

    Beyond the simulation packages (REP002), *any* library module that
    reads a wall clock undermines reproducibility: results and artifacts
    start depending on when and on what machine a run happened.  Only
    ``repro.telemetry`` (exports may stamp real durations) and
    ``repro.service`` (process supervision: heartbeats, deadlines and
    retry delays are inherently wall-clock) may call
    ``time.time``/``perf_counter``/``datetime.now`` and friends.
    CLI progress timing in ``__main__`` modules is legitimate — suppress
    with ``# repro: noqa=REP007`` and a justification.  Tests and the
    simulation packages themselves are out of scope (the latter are
    REP002's, which carries no allowlist at all).
    """

    code = "REP007"


#: Registry of every rule, by code.
RULES: dict[str, type[LintRule]] = {
    rule.code: rule
    for rule in (
        Rep001UnseededRandom,
        Rep002WallClock,
        Rep003SetIteration,
        Rep004FloatEquality,
        Rep005BareAssert,
        Rep006MutableDefault,
        Rep007WallClockOutsideAllowlist,
        Rep008SetIterationLibrary,
    )
}

#: Seeded constructors exempt from REP001 when called with arguments.
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
    }
)

#: Canonical names REP002 treats as wall-clock reads.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Bare constructor names REP006 flags when used as defaults.
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "deque", "defaultdict"})

#: Packages whose modules may read wall clocks (REP007): telemetry
#: exports may stamp real durations, and the simulation service
#: supervises real processes (heartbeats, deadlines, retry delays are
#: wall-clock by nature).  Everything else must justify each read with a
#: noqa; timing measurements live in the benchmark suite, outside the
#: package.
WALL_CLOCK_ALLOWLIST = ("repro.telemetry", "repro.service")


@dataclass(frozen=True)
class _FileContext:
    """Where a file sits in the repo, as far as rule scoping cares."""

    path: str
    module: str | None  # dotted module when under a ``repro`` tree
    is_test: bool

    @property
    def in_simulation_path(self) -> bool:
        if self.module is None:
            return False
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in SIMULATION_PACKAGES
        )

    @property
    def is_rng_module(self) -> bool:
        return self.module == RNG_MODULE

    @property
    def in_wall_clock_allowlist(self) -> bool:
        if self.module is None:
            return False
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in WALL_CLOCK_ALLOWLIST
        )


def _classify(path: Path) -> _FileContext:
    """Derive the dotted module name and test-ness from a file path."""
    parts = path.parts
    module: str | None = None
    if "repro" in parts:
        tail = parts[parts.index("repro") :]
        stem = list(tail[:-1]) + [Path(tail[-1]).stem]
        if stem[-1] == "__init__":
            stem = stem[:-1]
        module = ".".join(stem)
    name = path.name
    is_test = (
        "tests" in parts
        or name.startswith("test_")
        or name.startswith("bench_")
        or name == "conftest.py"
    )
    return _FileContext(path=str(path), module=module, is_test=is_test)


def _noqa_map(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> codes suppressed on that line."""
    suppressed: dict[int, frozenset[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match:
            codes = frozenset(
                code.strip() for code in match.group(1).split(",")
            )
            suppressed[number] = codes
    return suppressed


class _FileChecker(ast.NodeVisitor):
    """One AST walk that evaluates every applicable rule."""

    def __init__(self, context: _FileContext) -> None:
        self.context = context
        self.findings: list[Finding] = []
        # Alias maps built from the file's imports.
        self._module_aliases: dict[str, str] = {}  # local name -> module path
        self._member_aliases: dict[str, str] = {}  # local name -> canonical call

    # -- finding helpers -------------------------------------------------

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code=code,
                message=message,
                path=self.context.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0) + 1,
            )
        )

    # -- import tracking -------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            # ``import numpy.random`` binds the *root* name locally.
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self._module_aliases[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                full = f"{node.module}.{alias.name}"
                if full in ("numpy.random", "datetime.datetime", "datetime.date"):
                    self._module_aliases[local] = full
                elif node.module in ("random", "numpy.random", "time", "datetime"):
                    self._member_aliases[local] = full
        self.generic_visit(node)

    # -- canonical call-name resolution ----------------------------------

    def _canonical(self, func: ast.expr) -> str | None:
        """Resolve a call's function expression to a canonical dotted name."""
        if isinstance(func, ast.Name):
            return self._member_aliases.get(func.id)
        if isinstance(func, ast.Attribute):
            chain: list[str] = [func.attr]
            value = func.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if not isinstance(value, ast.Name):
                return None
            root = self._module_aliases.get(value.id)
            if root is None:
                return None
            chain.append(root)
            return ".".join(reversed(chain))
        return None

    # -- rules driven by Call nodes --------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._canonical(node.func)
        if canonical is not None:
            self._check_rep001(node, canonical)
            self._check_rep002(node, canonical)
            self._check_rep007(node, canonical)
        self.generic_visit(node)

    def _check_rep001(self, node: ast.Call, canonical: str) -> None:
        if self.context.is_rng_module:
            return
        if not (
            canonical.startswith("random.")
            or canonical.startswith("numpy.random.")
        ):
            return
        if canonical in _SEEDED_CONSTRUCTORS and (node.args or node.keywords):
            return  # explicitly seeded construction
        self._add(
            "REP001",
            node,
            f"call to {canonical}() uses unseeded global RNG state; draw "
            f"through a repro.utils.rng.RandomStream instead",
        )

    def _check_rep002(self, node: ast.Call, canonical: str) -> None:
        if not self.context.in_simulation_path or self.context.is_test:
            return
        if canonical in _WALL_CLOCK_CALLS:
            self._add(
                "REP002",
                node,
                f"wall-clock read {canonical}() inside a simulation path; "
                f"derive timing from simulated cycles (wall clocks belong "
                f"in the benchmark tools)",
            )

    def _check_rep007(self, node: ast.Call, canonical: str) -> None:
        if self.context.is_test or self.context.module is None:
            return
        if self.context.in_wall_clock_allowlist:
            return
        if self.context.in_simulation_path:
            return  # REP002's territory — no allowlist applies there
        if canonical in _WALL_CLOCK_CALLS:
            self._add(
                "REP007",
                node,
                f"wall-clock read {canonical}() outside the measurement "
                f"allowlist ({', '.join(WALL_CLOCK_ALLOWLIST)}); justify "
                f"with a noqa comment or move the timing into the benchmark "
                f"suite",
            )

    # -- REP003: set iteration -------------------------------------------

    def _is_set_expression(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _check_iteration(self, iterable: ast.expr) -> None:
        if self.context.is_test or not self._is_set_expression(iterable):
            return
        if self.context.in_simulation_path:
            self._add(
                "REP003",
                iterable,
                "iteration over a set in a simulation module has "
                "hash-dependent order; iterate a list/tuple or sorted(...)",
            )
        elif self.context.module is not None and (
            self.context.module == "repro"
            or self.context.module.startswith("repro.")
        ):
            # Library modules outside the simulation core: same hazard,
            # aimed at output ordering and RNG consumption (REP008).
            self._add(
                "REP008",
                iterable,
                "iteration over a set in a library module has "
                "hash-dependent order that leaks into output ordering or "
                "RNG consumption; iterate a list/tuple or sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- REP004: float equality ------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        values = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = values[index], values[index + 1]
            if self._is_float_literal(left) or self._is_float_literal(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self._add(
                    "REP004",
                    node,
                    f"float literal compared with {symbol}; use a tolerance "
                    f"(math.isclose) or justify the exact sentinel with a "
                    f"noqa comment",
                )
                break
        self.generic_visit(node)

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # A negated literal parses as UnaryOp(USub, Constant).
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        )

    # -- REP005: bare assert ---------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        if not self.context.is_test and self.context.module is not None:
            self._add(
                "REP005",
                node,
                "bare assert is stripped by python -O; raise "
                "repro.errors.InvariantError (or a specific ReproError) "
                "for model invariants",
            )
        self.generic_visit(node)

    # -- REP006: mutable defaults ----------------------------------------

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
            )
            if mutable:
                self._add(
                    "REP006",
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct in the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_source(
    source: str, path: str = "<string>", module: str | None = None
) -> list[Finding]:
    """Lint one source text; ``module`` overrides path-derived scoping.

    Returns the surviving findings (noqa suppressions already applied),
    sorted by location.  Raises :class:`SyntaxError` when the source does
    not parse — a file the linter cannot read is a finding of its own at
    the caller's level (:func:`lint_paths` converts it).
    """
    context = _classify(Path(path))
    if module is not None:
        context = _FileContext(
            path=context.path, module=module, is_test=context.is_test
        )
        if module.startswith("tests.") or module == "tests":
            context = _FileContext(path=context.path, module=module, is_test=True)
    tree = ast.parse(source, filename=path)
    checker = _FileChecker(context)
    checker.visit(tree)
    suppressed = _noqa_map(source)
    findings = [
        finding
        for finding in checker.findings
        if finding.code not in suppressed.get(finding.line, frozenset())
    ]
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.column))
    return findings


def _python_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[str]) -> tuple[list[Finding], int]:
    """Lint every ``*.py`` file under ``paths``.

    Returns ``(findings, files_checked)``.  Unparseable files produce a
    synthetic ``REP000`` finding rather than aborting the run.
    """
    findings: list[Finding] = []
    checked = 0
    for file_path in _python_files(paths):
        checked += 1
        text = file_path.read_text(encoding="utf-8")
        try:
            findings.extend(lint_source(text, path=str(file_path)))
        except SyntaxError as error:
            findings.append(
                Finding(
                    code="REP000",
                    message=f"file does not parse: {error.msg}",
                    path=str(file_path),
                    line=error.lineno or 1,
                    column=(error.offset or 0) + 1,
                )
            )
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.column))
    return findings, checked
