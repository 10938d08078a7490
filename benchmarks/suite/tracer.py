"""In-memory span tracer for the benchmark's traced passes.

The tracer measures each layer from outside the program: it replaces
public functions and methods of ``repro`` with timing wrappers for the
length of one pass and puts the originals back afterwards.  Nothing
under ``src/`` knows it is being traced.

Two kinds of record are kept, both in memory until the pass ends:

* a **span** (id, name, start, end, parent, attributes) for every call
  at kernel granularity or coarser: ``run_experiment``,
  ``parallel_simulate``, one simulation, one numpy batch;
* an **aggregate** for per-cycle and per-switch calls (a kernel step,
  one switch's arbitration): call count, total time, the time of its
  own traced children and, where percentiles are wanted, every call's
  duration — one aggregate per (parent, name).

A record's parent is the innermost traced call active on the same
thread.  Self time is a record's duration minus the time its children
cover.

This module imports nothing from ``repro`` at import time, so the
orchestrator can compute metrics from a saved trace without loading the
program.
"""

from __future__ import annotations

import importlib
import itertools
import math
import re
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "Target",
    "Tracer",
    "layer_metrics",
    "layer_self_seconds",
    "percentile",
    "self_time_violations",
    "self_times",
    "targets_for",
]


@dataclass(frozen=True)
class Target:
    """One public attribute to wrap: ``module:Class.attr`` or ``module:func``."""

    name: str
    path: str
    #: "span" for kernel-granularity calls, "agg" for per-cycle calls.
    kind: str
    #: Keep every call's duration (for percentiles).
    samples: bool = False
    #: For a span, ``(args, kwargs, result) -> dict`` of attributes; for
    #: an aggregate, ``result -> int`` added to its ``extra`` counter.
    extract: Callable[..., Any] | None = None


# Which calls are traced at which level.  "coarse" is safe around a
# process pool: forked workers inherit the patched attributes but never
# call them.  "fine" adds simulations, kernels and the per-cycle layers;
# it is used only where every simulation runs in the traced process.
_COARSE = (
    Target("experiments.run", "repro.experiments.runner:run_experiment", "span"),
    Target(
        "parallel.simulate",
        "repro.perf.parallel:parallel_simulate",
        "span",
        extract=lambda args, kwargs, result: {"sims": len(result)},
    ),
    Target(
        "cache.get",
        "repro.cache.store:ResultCache.get",
        "agg",
        extract=lambda result: int(result is not None),
    ),
    Target("cache.put", "repro.cache.store:ResultCache.put", "agg"),
    Target("cache.flush", "repro.cache.store:ResultCache.flush", "agg"),
    Target(
        "supervisor.map",
        "repro.service.supervisor:SupervisedPool.map",
        "span",
        extract=lambda args, kwargs, result: {"tasks": len(result)},
    ),
)
_FINE = (
    Target("parallel.sim", "repro.network.simulator:simulate", "span"),
    Target(
        "kernel.batch",
        "repro.kernel.numpy_kernel:NumpyKernel.batch",
        "span",
        extract=lambda args, kwargs, result: {"width": len(result.configs)},
    ),
    Target(
        "kernel.run_batch",
        "repro.kernel.numpy_kernel:NumpyKernel.run_batch",
        "span",
        extract=lambda args, kwargs, result: {"width": len(result)},
    ),
    Target("kernel.prepare", "repro.kernel.numpy_kernel:NumpyKernel.prepare", "agg"),
    Target("kernel.arrivals", "repro.kernel.arrivals:decode_arrivals", "agg"),
    Target(
        "kernel.step", "repro.kernel.numpy_kernel:NumpyKernel.step", "agg", True
    ),
    Target(
        "network.build",
        "repro.network.simulator:OmegaNetworkSimulator.__init__",
        "span",
    ),
    Target("network.run", "repro.network.simulator:OmegaNetworkSimulator.run", "span"),
    Target(
        "network.step",
        "repro.network.simulator:OmegaNetworkSimulator.step",
        "agg",
        True,
    ),
    Target(
        "switch.plan",
        "repro.switch.switch:Switch.plan_transmissions",
        "agg",
        extract=len,
    ),
    Target("switch.execute", "repro.switch.switch:Switch.execute", "agg"),
    Target("switch.receive", "repro.switch.switch:Switch.receive", "agg"),
    Target("sources.generate", "repro.network.sources:Source.maybe_generate", "agg"),
)

_LEVELS = {"off": (), "coarse": _COARSE, "fine": _COARSE + _FINE}


def targets_for(level: str) -> tuple[Target, ...]:
    """The targets traced at ``level``: off, coarse or fine."""
    return _LEVELS[level]


class _Root:
    """Bottom of a thread's frame stack: holds its parentless aggregates."""

    key = None

    def __init__(self) -> None:
        self.children: dict[str, _Aggregate] = {}


class _SpanFrame:
    def __init__(self, span_id: int) -> None:
        self.id = span_id
        self.key = f"span:{span_id}"
        self.children: dict[str, _Aggregate] = {}


class _Aggregate:
    __slots__ = (
        "name",
        "parent",
        "key",
        "count",
        "total_ns",
        "child_ns",
        "extra",
        "samples",
        "children",
    )

    def __init__(self, name: str, parent: str | None, keep: bool) -> None:
        self.name = name
        self.parent = parent
        self.key = f"{parent}/{name}" if parent else name
        self.count = 0
        self.total_ns = 0
        self.child_ns = 0
        self.extra = 0
        self.samples: list[int] | None = [] if keep else None
        self.children: dict[str, _Aggregate] = {}


class Tracer:
    """Collects spans and aggregates from wrapped callables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[dict[str, Any]] = []
        self._aggregates: list[_Aggregate] = []

    def _stack(self) -> list[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [_Root()]
        return stack

    def wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A timing wrapper around ``fn`` recording under ``target``."""
        if target.kind == "span":
            return self._wrap_span(target, fn)
        return self._wrap_aggregate(target, fn)

    def _wrap_span(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        name, extract = target.name, target.extract
        clock, spans, ids = time.perf_counter_ns, self._spans, self._ids

        def span_wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            outer = stack[-1]
            frame = _SpanFrame(next(ids))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if isinstance(outer, _Aggregate):
                    outer.child_ns += end - start
                record = {
                    "id": frame.id,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": outer.id if isinstance(outer, _SpanFrame) else None,
                    "thread": threading.get_ident(),
                    "attrs": {},
                }
                spans.append(record)
            if extract is not None:
                record["attrs"] = extract(args, kwargs, result)
            return result

        return span_wrapper

    def _wrap_aggregate(
        self, target: Target, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        name, extract, keep = target.name, target.extract, target.samples
        clock, aggregates = time.perf_counter_ns, self._aggregates

        def aggregate_wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            outer = stack[-1]
            agg = outer.children.get(name)
            if agg is None:
                agg = outer.children[name] = _Aggregate(name, outer.key, keep)
                aggregates.append(agg)
            stack.append(agg)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                agg.count += 1
                agg.total_ns += elapsed
                if agg.samples is not None:
                    agg.samples.append(elapsed)
                if isinstance(outer, _Aggregate):
                    outer.child_ns += elapsed
            if extract is not None:
                agg.extra += extract(result)
            return result

        return aggregate_wrapper

    @contextmanager
    def installed(self, targets: tuple[Target, ...]) -> Iterator["Tracer"]:
        """Wrap every target for the ``with`` body, then restore them all."""
        patches: list[tuple[Any, str, Any]] = []
        originals: dict[int, Any] = {}
        try:
            for target in targets:
                _install(self, target, patches, originals)
            yield self
        finally:
            _restore(patches, originals)

    def export(self) -> dict[str, Any]:
        """The recorded spans and aggregates as JSON-able data."""
        aggregates = [
            {
                "name": agg.name,
                "parent": agg.parent,
                "count": agg.count,
                "total_ns": agg.total_ns,
                "child_ns": agg.child_ns,
                "extra": agg.extra,
                "samples": agg.samples,
            }
            for agg in self._aggregates
        ]
        return {"spans": list(self._spans), "aggregates": aggregates}


def _resolve(path: str) -> tuple[Any, str]:
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _install(
    tracer: Tracer,
    target: Target,
    patches: list[tuple[Any, str, Any]],
    originals: dict[int, Any],
) -> None:
    """Patch ``target`` and every module-level alias of it.

    A function imported by name into other modules (``from x import f``)
    is replaced there too, or those callers would bypass the wrapper.
    Each ``(owner, attribute, original)`` goes to ``patches``; each
    wrapper's original, keyed by the wrapper's id, to ``originals``.
    """
    owner, attr = _resolve(target.path)
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped: Any = classmethod(tracer.wrap(target, raw.__func__))
    else:
        wrapped = tracer.wrap(target, raw)
    originals[id(wrapped)] = raw
    patches.append((owner, attr, raw))
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if value is raw:
                patches.append((module, name, raw))
                setattr(module, name, wrapped)


def _restore(
    patches: list[tuple[Any, str, Any]], originals: dict[int, Any]
) -> None:
    """Undo :func:`_install`, including aliases bound while it was active.

    A module first imported during the traced pass may have bound a
    wrapper by name; those bindings are found by identity and reset.
    ``originals`` keeps every wrapper alive, so ids cannot be reused.
    """
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    if not originals:
        return
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if id(value) in originals:
                setattr(module, name, originals[id(value)])


# ----------------------------------------------------------------------
# Reading a trace
# ----------------------------------------------------------------------

_SPAN_PARENT = re.compile(r"span:(\d+)$")


def _duration(span: dict[str, Any]) -> int:
    return span["end_ns"] - span["start_ns"]


def _covered(intervals: list[tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(trace: dict[str, Any]) -> dict[int, int]:
    """Self time (ns) of every span: duration minus what children cover.

    Children are the spans whose parent it is (their union, clipped to
    the span) and the aggregates directly under it (their total time;
    they ran on the span's thread, so they never overlap its child
    spans).
    """
    intervals: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in trace["spans"]:
        if span["parent"] is not None:
            intervals[span["parent"]].append((span["start_ns"], span["end_ns"]))
    aggregated: dict[int, int] = defaultdict(int)
    for agg in trace["aggregates"]:
        match = _SPAN_PARENT.fullmatch(agg["parent"] or "")
        if match:
            aggregated[int(match.group(1))] += agg["total_ns"]
    return {
        span["id"]: _duration(span)
        - _covered(intervals[span["id"]], span["start_ns"], span["end_ns"])
        - aggregated[span["id"]]
        for span in trace["spans"]
    }


def self_time_violations(trace: dict[str, Any]) -> list[int]:
    """Ids of spans whose children's self times exceed its duration."""
    own = self_times(trace)
    children: dict[int, int] = defaultdict(int)
    for span in trace["spans"]:
        if span["parent"] is not None:
            children[span["parent"]] += own[span["id"]]
    for agg in trace["aggregates"]:
        match = _SPAN_PARENT.fullmatch(agg["parent"] or "")
        if match:
            children[int(match.group(1))] += agg["total_ns"] - agg["child_ns"]
    return [
        span["id"]
        for span in trace["spans"]
        if children[span["id"]] > _duration(span) or own[span["id"]] < 0
    ]


def layer_self_seconds(trace: dict[str, Any]) -> dict[str, float]:
    """Self time per layer (the record name's prefix before the dot)."""
    own = self_times(trace)
    layers: dict[str, float] = defaultdict(float)
    for span in trace["spans"]:
        layers[span["name"].split(".")[0]] += own[span["id"]] * 1e-9
    for agg in trace["aggregates"]:
        layers[agg["name"].split(".")[0]] += (
            agg["total_ns"] - agg["child_ns"]
        ) * 1e-9
    return dict(sorted(layers.items()))


def percentile(ordered: list[int], q: float) -> float:
    """Nearest-rank ``q``-quantile of a sorted list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def layer_metrics(trace: dict[str, Any]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics of one traced pass: ``name -> (value, samples)``.

    ``samples`` is the number of records the value was computed from
    (spans, calls or durations); a layer the pass never entered reads
    ``(0.0, 0)``.
    """
    own = self_times(trace)
    spans: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in trace["spans"]:
        spans[span["name"]].append(span)
    aggs: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for agg in trace["aggregates"]:
        aggs[agg["name"]].append(agg)

    def dur(name: str) -> float:
        return sum(_duration(s) for s in spans[name]) * 1e-9

    def own_s(name: str) -> float:
        return sum(own[s["id"]] for s in spans[name]) * 1e-9

    def attr(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in spans[name])

    def calls(name: str) -> int:
        return sum(a["count"] for a in aggs[name])

    def total(name: str) -> float:
        return sum(a["total_ns"] for a in aggs[name]) * 1e-9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_call(name: str) -> tuple[float, int]:
        return total(name), calls(name)

    def quantile_us(name: str, q: float) -> tuple[float, int]:
        ordered = sorted(x for a in aggs[name] for x in a["samples"] or ())
        return percentile(ordered, q) * 1e-3, len(ordered)

    runs, batches = len(spans["experiments.run"]), len(spans["kernel.batch"])
    sims, maps = len(spans["parallel.simulate"]), len(spans["supervisor.map"])
    # Simulated cycles the kernel stepped: batch width x steps, per batch.
    steps_under = defaultdict(int)
    for agg in aggs["kernel.step"]:
        steps_under[agg["parent"]] += agg["count"]
    kernel_cycles = sum(
        s["attrs"].get("width", 0) * steps_under[f"span:{s['id']}"]
        for s in spans["kernel.run_batch"]
    )
    step_s = total("kernel.step")
    network_self = sum(
        a["total_ns"] - a["child_ns"] for a in aggs["network.step"]
    ) * 1e-9
    return {
        "experiments.run_s": (dur("experiments.run"), runs),
        "experiments.self_s": (own_s("experiments.run"), runs),
        "parallel.simulate_s": (dur("parallel.simulate"), sims),
        "parallel.self_s": (own_s("parallel.simulate"), sims),
        "parallel.sims": (attr("parallel.simulate", "sims"), sims),
        "kernel.batches": (batches, batches),
        "kernel.batch_width": (ratio(attr("kernel.batch", "width"), batches), batches),
        "kernel.setup_s": (
            dur("kernel.batch") + total("kernel.prepare"),
            batches + calls("kernel.prepare"),
        ),
        "kernel.arrivals_s": per_call("kernel.arrivals"),
        "kernel.step_s": per_call("kernel.step"),
        "kernel.step_us_p50": quantile_us("kernel.step", 0.50),
        "kernel.step_us_p99": quantile_us("kernel.step", 0.99),
        "kernel.finish_s": (own_s("kernel.run_batch"), len(spans["kernel.run_batch"])),
        "kernel.sim_cycles_per_step_s": (
            ratio(kernel_cycles, step_s),
            calls("kernel.step"),
        ),
        "network.build_s": (dur("network.build"), len(spans["network.build"])),
        "network.step_s": per_call("network.step"),
        "network.step_us_p50": quantile_us("network.step", 0.50),
        "network.step_us_p99": quantile_us("network.step", 0.99),
        "network.self_s": (network_self, calls("network.step")),
        "switch.plan_calls": (calls("switch.plan"), calls("switch.plan")),
        "switch.plan_s": per_call("switch.plan"),
        "switch.grants_per_plan": (
            ratio(sum(a["extra"] for a in aggs["switch.plan"]), calls("switch.plan")),
            calls("switch.plan"),
        ),
        "switch.execute_s": per_call("switch.execute"),
        "switch.receive_calls": (calls("switch.receive"), calls("switch.receive")),
        "switch.receive_s": per_call("switch.receive"),
        "sources.generate_calls": (
            calls("sources.generate"),
            calls("sources.generate"),
        ),
        "sources.generate_s": per_call("sources.generate"),
        "cache.get_calls": (calls("cache.get"), calls("cache.get")),
        "cache.get_s": per_call("cache.get"),
        "cache.hit_frac": (
            ratio(sum(a["extra"] for a in aggs["cache.get"]), calls("cache.get")),
            calls("cache.get"),
        ),
        "cache.put_calls": (calls("cache.put"), calls("cache.put")),
        "cache.put_s": per_call("cache.put"),
        "cache.flush_s": per_call("cache.flush"),
        "supervisor.map_calls": (maps, maps),
        "supervisor.map_s": (dur("supervisor.map"), maps),
        "supervisor.tasks": (attr("supervisor.map", "tasks"), maps),
    }
