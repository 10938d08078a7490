"""Experiment harness: one module per paper table/figure.

Use :func:`repro.experiments.runner.run_experiment` (or the CLI,
``python -m repro.experiments``) to regenerate any artifact.  Each module
also exposes its parameters so tests and benchmarks can assert on the
underlying data rather than on formatted strings.

Importing this package loads no experiment module: the runner's registry
imports each one on its first run, so a simulation pass never pays for
the scipy, Markov-chain, chip or fault-campaign code of the experiments
it does not run.
"""

from repro.experiments.report import ExperimentResult

__all__ = ["ExperimentResult"]
