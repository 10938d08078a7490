"""Simulation kernel backends.

The reference Omega-network simulator
(:mod:`repro.network.simulator`) advances the machine one Python object
at a time; it is the semantics oracle every other backend is measured
against.  This package puts a thin :class:`~repro.kernel.base.SimKernel`
interface in front of it and adds a numpy struct-of-arrays backend
(:mod:`repro.kernel.numpy_kernel`) that advances every switch of a
stage per array operation while producing byte-identical results —
same packets, same grants, same meters, same RNG stream consumption.

Backend selection is threaded through ``simulate`` /
``run_experiment`` / ``parallel_simulate`` / ``repro.perf`` and the
service job specs; ``--backend`` forces a backend (unsupported
combinations raise :class:`~repro.errors.ConfigurationError`) while the
``REPRO_BACKEND`` environment variable states a soft preference that
falls back to the reference kernel whenever telemetry, the sanitizer,
checkpointing or an unsupported configuration demands it.

The exactness bar is enforced by :mod:`repro.kernel.differential`: a
lockstep harness steps both backends cycle by cycle, compares packed
state digests, and renders the first divergence as a replayable
:class:`~repro.analysis.counterexample.Counterexample`.
"""

from repro.kernel.base import (
    BACKEND_ENV,
    BACKENDS,
    DEFAULT_BACKEND,
    SimKernel,
    make_kernel,
    normalize_backend,
    numpy_unsupported_reason,
    requested_backend,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "SimKernel",
    "make_kernel",
    "normalize_backend",
    "numpy_unsupported_reason",
    "requested_backend",
    "resolve_backend",
]
