"""Simulation kernel backends.

Two backends implement the :class:`~repro.kernel.base.SimKernel`
interface.  The reference Omega-network simulator
(:class:`~repro.network.simulator.OmegaNetworkSimulator`) advances the
machine one Python object at a time; it is the semantics oracle every
other backend is measured against, and it is the ``"reference"``
kernel itself, with no adapter in between.  The numpy struct-of-arrays
backend (:mod:`repro.kernel.numpy_kernel`) advances every switch of a
stage per array operation while producing byte-identical results —
same packets, same grants, same meters, same RNG stream consumption.

numpy is the default backend wherever it is exact.  Backend selection
is threaded through ``simulate`` / ``run_experiment`` /
``parallel_simulate`` and the service job specs; ``--backend`` forces a
backend (unsupported combinations raise
:class:`~repro.errors.ConfigurationError`) while the soft default falls
back to the reference kernel whenever telemetry, the sanitizer, a checkpointed
``simulate`` call, an unsupported configuration or a failed decode-rule
probe (:func:`~repro.kernel.arrivals.decode_rules_mismatch`) demands
it — and :func:`~repro.kernel.base.choose_backend` says which.

The exactness bar is enforced by :mod:`repro.kernel.differential`: a
lockstep harness steps both backends cycle by cycle, compares packed
state digests, and renders the first divergence as a replayable
:class:`~repro.analysis.counterexample.Counterexample`.
"""

from repro.kernel.base import (
    BACKENDS,
    DEFAULT_BACKEND,
    SimKernel,
    choose_backend,
    make_kernel,
    normalize_backend,
    numpy_unsupported_reason,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "SimKernel",
    "choose_backend",
    "make_kernel",
    "normalize_backend",
    "numpy_unsupported_reason",
]
