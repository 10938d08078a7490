"""Static analysis, runtime sanitizing and model checking for repro.

The paper's results rest on two contracts nothing in the language enforces:

* **Bit-reproducibility** — every stochastic draw flows through the seeded,
  named streams of :mod:`repro.utils.rng`; no wall-clock reads or
  iteration-order hazards may leak into a simulation path (the PR 2
  determinism pins turn any violation into a test failure, but only after
  the fact).
* **Hardware feasibility** — the Section 3.1 micro-architecture gives each
  buffer one write port and a bounded number of read ports per clock, and
  keeps every slot on exactly one linked list.  A modeling bug that
  performs more RAM accesses per cycle than the register file allows, or
  corrupts the pointer RAM, silently produces results no chip could.

This package enforces both, three ways:

* :mod:`repro.analysis.lint` — an AST linter with repo-specific rules
  (REP001..REP008), run as ``python -m repro.analysis lint src tests`` or
  via the ``repro-lint`` console script.  Findings are suppressed per line
  with ``# repro: noqa=REPxxx`` comments.
* :mod:`repro.analysis.sanitizer` — an opt-in runtime observer
  (``REPRO_SANITIZE=1`` or ``sanitize=True``) in the spirit of ASan/TSan:
  attached through :mod:`repro.instrument` to every
  :class:`~repro.core.linkedlist.SlotListManager` and
  :class:`~repro.core.buffer.SwitchBuffer` of a run, it detects slot
  use-after-free, double-free and per-cycle port-bandwidth violations,
  and records the pointer-RAM findings of the slot manager's own walk
  (:meth:`~repro.core.linkedlist.SlotListManager.pointer_faults`: wild
  pointers, pointer cycles, cross-links, retired-linked slots, stale
  registers, leaks).
* :mod:`repro.analysis.model` — an explicit-state bounded model checker
  (``python -m repro.analysis model`` / ``repro-verify``) that
  exhaustively explores all arrival × grant × departure interleavings of
  each buffer architecture at small parameters against reference
  specifications (:mod:`repro.analysis.properties`; the same
  pointer-RAM walk runs after every transition through each buffer's
  ``check_invariants``), checks the paper's
  refinement claims, replays violations as minimal counterexample traces
  (:mod:`repro.analysis.counterexample`) and cross-validates the explored
  state graph against the :mod:`repro.markov` chains.

The sanitizer's runtime :class:`Violation` (a recorded hardware-model
event) predates and is distinct from the model checker's
:class:`repro.analysis.properties.Violation` (a refuted property);
import the latter from its module directly.
"""

from __future__ import annotations

from repro.analysis.lint import Finding, LintRule, RULES, lint_paths, lint_source
from repro.analysis.report import (
    render_github,
    render_json,
    render_text,
)
from repro.analysis.sanitizer import HardwareSanitizer, Violation

__all__ = [
    "Finding",
    "HardwareSanitizer",
    "LintRule",
    "RULES",
    "Violation",
    "lint_paths",
    "lint_source",
    "render_github",
    "render_json",
    "render_text",
]
