"""Command-line entry point: ``python -m repro.analysis`` / ``repro-lint``.

Sub-commands
------------
``lint [paths...]``
    Run the REPxxx linter over the given files/directories (default:
    ``src tests``).  ``--format json`` emits the versioned report
    consumed by CI annotations.  Exits non-zero on any finding.

``rules``
    Print every rule's code and normative description.

``sanitize``
    Run a short, sanitizer-enabled Omega simulation (the CI smoke run)
    and print the violation report.  Exits non-zero on any violation.

``model``
    Bounded model checking: exhaustively explore all arrival × grant ×
    departure interleavings of the selected buffer architectures at
    small parameters against their reference specifications, check the
    refinement properties, optionally cross-validate the explored state
    graph against :mod:`repro.markov`, and (``--self-test``) prove the
    checker catches planted bugs.  Also installed as ``repro-verify``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.lint import RULES, lint_paths
from repro.analysis.report import render_github, render_json, render_text

__all__ = ["main", "verify_main"]


def _cmd_lint(args: argparse.Namespace) -> int:
    findings, checked = lint_paths(args.paths)
    if args.select:
        wanted = {code.strip().upper() for code in args.select.split(",")}
        findings = [finding for finding in findings if finding.code in wanted]
    if args.format == "json":
        print(render_json(findings, checked))
    elif args.format == "github":
        print(render_github(findings, checked))
    else:
        print(render_text(findings, checked))
    return 1 if findings else 0


def _cmd_rules(_args: argparse.Namespace) -> int:
    for code in sorted(RULES):
        rule = RULES[code]
        print(f"{code}: {rule.summary()}")
        for line in rule.doc().splitlines()[1:]:
            print(f"    {line}" if line else "")
        print()
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    # Imported here so plain lint runs never pull in numpy/the simulator.
    from repro.analysis.sanitizer import HardwareSanitizer
    from repro.instrument import ObservedOmegaNetworkSimulator
    from repro.network.simulator import NetworkConfig

    config = NetworkConfig(
        num_ports=args.ports,
        radix=4,
        buffer_kind=args.buffer,
        slots_per_buffer=4,
        offered_load=args.load,
        seed=args.seed,
    )
    sanitizer = HardwareSanitizer()
    simulator = ObservedOmegaNetworkSimulator(config, [sanitizer])
    result = simulator.run(
        warmup_cycles=args.warmup, measure_cycles=args.cycles
    )
    print(
        f"simulated {args.buffer} {args.ports}x{args.ports} omega network: "
        f"{result.meters.delivered} delivered over {args.cycles} cycles"
    )
    print(sanitizer.render())
    return 0 if sanitizer.clean else 1


def _export_counterexample(
    result: "object", directory: str
) -> list[str]:
    """Write the trace JSON, replay script and waveforms; return paths."""
    import json
    from pathlib import Path

    counterexample = result.counterexample  # type: ignore[attr-defined]
    if counterexample is None:
        return []
    config = result.config  # type: ignore[attr-defined]
    basename = f"cex-{config['system']}-{config['kind'].lower()}"
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    json_path = target / f"{basename}.json"
    json_path.write_text(
        json.dumps(counterexample.to_dict(), indent=2, sort_keys=True)
        + "\n"
    )
    script_path = target / f"{basename}.py"
    script_path.write_text(counterexample.render_script())
    exported = counterexample.export(target, basename)
    return [str(json_path), str(script_path)] + [
        str(path) for path in exported.values()
    ]


def _cmd_model(args: argparse.Namespace) -> int:
    # Imported here so plain lint runs never load the model checker.
    from repro.analysis.model import (
        cross_validate,
        run_self_test,
        verify_buffer,
        verify_dominance,
        verify_fifo_refinement,
        verify_starvation,
        verify_switch,
    )
    from repro.core.registry import PAPER_ORDER
    from repro.errors import ReproError

    if args.self_test:
        try:
            results = run_self_test()
        except ReproError as error:
            print(f"self-test FAILED: {error}")
            return 1
        for mutation_result in results:
            print(mutation_result.describe())
        print(f"self-test: all {len(results)} planted bugs detected")
        return 0

    requested = args.buffer.lower()
    if requested == "all":
        kinds = list(PAPER_ORDER)
    elif requested == "arch":
        from repro.arch import ARCH_ORDER

        kinds = list(ARCH_ORDER)
    else:
        kinds = [
            kind.strip().upper()
            for kind in args.buffer.split(",")
            if kind.strip()
        ]
    failures = 0
    results = []
    try:
        for kind in kinds:
            if args.system in ("buffer", "both"):
                results.append(
                    verify_buffer(
                        kind,
                        args.slots,
                        args.ports,
                        protocol=args.protocol,
                        exact_layout=not args.collapse_layout,
                        max_states=args.max_states,
                        max_depth=args.max_depth,
                    )
                )
            if args.system in ("switch", "both"):
                results.append(
                    verify_switch(
                        kind,
                        args.ports,
                        args.slots,
                        protocol=args.protocol,
                        exact_layout=False,
                        check_arbiter=not args.no_arbiter_check,
                        max_states=args.max_states,
                        max_depth=args.max_depth,
                    )
                )
        if args.starvation:
            for kind in kinds:
                results.append(
                    verify_starvation(
                        kind,
                        args.slots,
                        args.ports,
                        max_states=args.max_states,
                        max_depth=args.max_depth,
                    )
                )
        if not args.skip_refinements:
            if "DAMQ" in kinds:
                results.append(
                    verify_fifo_refinement(args.slots, args.ports)
                )
            for kind in ("SAMQ", "SAFC"):
                if kind in kinds:
                    results.append(
                        verify_dominance(kind, args.slots, args.ports)
                    )
    except ReproError as error:
        print(f"model checking aborted: {error}")
        return 2
    for result in results:
        print(result.describe())
        if result.violation is not None:
            failures += 1
            if args.export_dir:
                for path in _export_counterexample(
                    result, args.export_dir
                ):
                    print(f"  wrote {path}")
    if args.cross_validate:
        try:
            for kind in kinds:
                validation = cross_validate(
                    kind,
                    args.slots,
                    args.rate,
                    args.ports,
                    tolerance=args.tolerance,
                )
                print(validation.describe())
                if not validation.ok:
                    failures += 1
        except ReproError as error:
            print(f"cross-validation aborted: {error}")
            return 2
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a sub-command."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis and hardware-model sanitizing for the "
        "repro codebase.",
    )
    subparsers = parser.add_subparsers(dest="command")

    lint_parser = subparsers.add_parser(
        "lint", help="run the REPxxx determinism linter"
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format; 'github' emits Actions annotations "
        "(default: text)",
    )
    lint_parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to report (default: all)",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    rules_parser = subparsers.add_parser(
        "rules", help="describe every lint rule"
    )
    rules_parser.set_defaults(handler=_cmd_rules)

    sanitize_parser = subparsers.add_parser(
        "sanitize",
        help="run a short sanitizer-enabled Omega simulation (CI smoke)",
    )
    sanitize_parser.add_argument("--buffer", default="DAMQ")
    sanitize_parser.add_argument("--ports", type=int, default=16)
    sanitize_parser.add_argument("--load", type=float, default=0.6)
    sanitize_parser.add_argument("--seed", type=int, default=1988)
    sanitize_parser.add_argument("--warmup", type=int, default=100)
    sanitize_parser.add_argument("--cycles", type=int, default=400)
    sanitize_parser.set_defaults(handler=_cmd_sanitize)

    model_parser = subparsers.add_parser(
        "model",
        help="exhaustive bounded model checking of the buffer hardware",
    )
    model_parser.add_argument(
        "--buffer",
        default="all",
        help="buffer kind(s) to check, comma-separated; 'all' = the four "
        "paper buffers (default), 'arch' = the repro.arch zoo "
        "(DAMQ-RSV, CQ)",
    )
    model_parser.add_argument(
        "--ports",
        type=int,
        default=2,
        help="switch ports / buffer outputs (default: 2)",
    )
    model_parser.add_argument(
        "--slots",
        type=int,
        default=4,
        help="slots per buffer (default: 4)",
    )
    model_parser.add_argument(
        "--system",
        choices=("buffer", "switch", "both"),
        default="both",
        help="which transition system(s) to explore (default: both)",
    )
    model_parser.add_argument(
        "--protocol",
        choices=("discarding", "blocking"),
        default="discarding",
        help="full-buffer arrival semantics (default: discarding)",
    )
    model_parser.add_argument(
        "--collapse-layout",
        action="store_true",
        help="key single-buffer DAMQ states on contents, not the exact "
        "pointer-RAM layout (smaller, weaker search)",
    )
    model_parser.add_argument(
        "--no-arbiter-check",
        action="store_true",
        help="skip the per-state real-arbiter conformance check",
    )
    model_parser.add_argument(
        "--max-states", type=int, default=None, help="state budget"
    )
    model_parser.add_argument(
        "--max-depth", type=int, default=None, help="depth bound"
    )
    model_parser.add_argument(
        "--starvation",
        action="store_true",
        help="also check the no-starvation property on each selected kind "
        "(plain DAMQ and FIFO violate it by design; the reserved-slot "
        "and partitioned architectures must pass)",
    )
    model_parser.add_argument(
        "--skip-refinements",
        action="store_true",
        help="skip the FIFO-refinement and acceptance-dominance checks",
    )
    model_parser.add_argument(
        "--cross-validate",
        action="store_true",
        help="compare the explored state graph's stationary distribution "
        "with the repro.markov chain",
    )
    model_parser.add_argument(
        "--rate",
        type=float,
        default=0.6,
        help="traffic rate for --cross-validate (default: 0.6)",
    )
    model_parser.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help="stationary-distribution tolerance (default: 1e-9)",
    )
    model_parser.add_argument(
        "--self-test",
        action="store_true",
        help="plant known bugs and assert the checker detects them",
    )
    model_parser.add_argument(
        "--export-dir",
        default=None,
        help="write counterexample JSON/script/waveforms here on failure",
    )
    model_parser.set_defaults(handler=_cmd_model)

    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    return int(args.handler(args))


def verify_main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-verify`` console script.

    Equivalent to ``repro-lint model ...``: the arguments are passed to
    the ``model`` sub-command directly.
    """
    if argv is None:
        argv = sys.argv[1:]
    return main(["model", *argv])


if __name__ == "__main__":
    sys.exit(main())
