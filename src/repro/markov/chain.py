"""Generic finite discrete-time Markov chain with a sparse solver.

The Table 2 analysis needs steady-state distributions of chains with up to
~16k states (two FIFO buffers of six slots).  Chains are built as sparse
transition matrices and solved directly; a power-iteration fallback guards
against singular corner cases (e.g. zero traffic, where the chain is not
irreducible).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import ConfigurationError

__all__ = ["MarkovChain"]


class MarkovChain:
    """A finite DTMC given by a row-stochastic sparse matrix.

    Parameters
    ----------
    transition:
        ``(n, n)`` sparse matrix with ``transition[i, j]`` the probability
        of moving from state ``i`` to state ``j``.  Rows must sum to 1
        (validated to ``tolerance``).
    """

    def __init__(self, transition: sp.spmatrix, tolerance: float = 1e-9) -> None:
        matrix = sp.csr_matrix(transition)
        if matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError("transition matrix must be square")
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ConfigurationError(
                f"row {worst} of transition matrix sums to {row_sums[worst]!r}"
            )
        if (matrix.data < -tolerance).any():
            raise ConfigurationError("transition matrix has negative entries")
        self.matrix = matrix
        self.num_states = matrix.shape[0]

    def steady_state(self) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi @ P = pi``.

        Solves the linear system ``(P^T - I) pi = 0`` with the
        normalization ``sum(pi) = 1`` replacing one (dependent) equation.
        Falls back to power iteration if the direct solve fails, which
        also yields *a* stationary distribution for reducible chains
        (started from the uniform distribution).
        """
        n = self.num_states
        if n == 1:
            return np.array([1.0])
        if n > 64:
            pi = self._arpack()
            if pi is not None:
                return pi
        pi = self._direct_solve()
        if pi is not None:
            return pi
        return self._power_iteration()

    def _arpack(self) -> np.ndarray | None:
        """Dominant left eigenvector via ARPACK.

        Matrix-free Arnoldi avoids the LU fill-in that makes a direct
        solve of the larger FIFO chains (~16k states) take half a minute;
        ARPACK converges in milliseconds for these well-separated spectra.
        It starts from the uniform distribution, not its default random
        vector, so every solve of one chain returns the same bits.
        """
        n = self.num_states
        try:
            values, vectors = spla.eigs(
                self.matrix.T.astype(float),
                k=1,
                which="LM",
                tol=1e-13,
                v0=np.full(n, 1.0 / n),
            )
        except Exception:
            return None
        if abs(values[0] - 1.0) > 1e-6:
            return None
        pi = np.real(vectors[:, 0])
        if pi.sum() < 0:
            pi = -pi
        # A genuine stationary vector is single-signed up to round-off.
        if pi.min() < -1e-8 * max(pi.max(), 1.0):
            return None
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if not np.isfinite(total) or total <= 0:
            return None
        return pi / total

    def _direct_solve(self) -> np.ndarray | None:
        """Sparse LU on the (n-1) principal subsystem with pi[n-1] = 1."""
        n = self.num_states
        a = (self.matrix.T - sp.identity(n, format="csc")).tocsc()
        sub = a[: n - 1, : n - 1]
        rhs = -np.asarray(a[: n - 1, n - 1].todense()).ravel()
        try:
            with warnings.catch_warnings():
                # A reducible chain makes the system singular; fall through
                # to power iteration instead of warning.
                warnings.simplefilter("error", spla.MatrixRankWarning)
                head = spla.spsolve(sub, rhs)
        except Exception:  # singular matrix and friends
            return None
        pi = np.concatenate([head, [1.0]])
        if not np.all(np.isfinite(pi)) or pi.min() <= -1e-8:
            return None
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def _power_iteration(
        self, max_iterations: int = 200_000, tolerance: float = 1e-12
    ) -> np.ndarray:
        """Stationary distribution by repeated multiplication."""
        pi = np.full(self.num_states, 1.0 / self.num_states)
        transposed = self.matrix.T.tocsr()
        for _ in range(max_iterations):
            updated = transposed @ pi
            if np.abs(updated - pi).max() < tolerance:
                return updated / updated.sum()
            pi = updated
        return pi / pi.sum()

    def expected(self, per_state_value: np.ndarray) -> float:
        """Steady-state expectation of a per-state quantity."""
        values = np.asarray(per_state_value, dtype=float)
        if values.shape != (self.num_states,):
            raise ConfigurationError(
                f"expected a vector of length {self.num_states}"
            )
        return float(self.steady_state() @ values)
