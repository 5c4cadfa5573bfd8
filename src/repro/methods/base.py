"""The pluggable iteration-method abstraction.

The paper's Eq. 6 update ``x <- (I - D-hat A) x + D-hat b`` is one member
of a family of fixed-point iterations that differ only in how a relaxed
row combines its residual with its current (and possibly previous) value.
A :class:`Method` packages that per-row rule together with the pieces the
rest of the system needs to reason about it:

* the **scale vector** ``s`` with ``s_i`` multiplying row ``i``'s residual
  (``omega / a_ii`` for Jacobi/SOR, a constant ``alpha`` for Richardson);
* the **kind** of update, which decides which executor fast paths apply:

  - ``"scaled"`` — simultaneous ``x[rows] += s[rows] * r[rows]``; every
    vectorized hot path (batched model, stacked block kernels, coalesced
    multi-thread relaxes) applies unchanged;
  - ``"sequential"`` — within one relaxed block the rows update in order,
    each reading its predecessors' fresh values (step-asynchronous SOR);
  - ``"momentum"`` — the update adds ``beta * (x - x_prev)`` (second-order
    Richardson), so the executor carries one previous-iterate vector;

* the **convergence guarantee** the observability pipeline should check
  on a given matrix: Theorem 1's residual 1-norm non-increase for scaled
  methods on W.D.D. matrices, Vigna's error sup-norm non-increase for
  step-async SOR on M-matrices, or nothing at all.

Methods are pure data (``spec()`` round-trips through JSON), so chaos
scenario specs and experiment-cache keys can carry them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ReproError, SingularMatrixError


class MethodError(ReproError, ValueError):
    """An iteration-method spec or method/executor combination is illegal."""


@dataclass(frozen=True)
class Guarantee:
    """What per-step norm bound a method guarantees on a given matrix.

    Attributes
    ----------
    norm
        ``"residual_l1"`` (Theorem 1 family), ``"error_sup"`` (Vigna's
        step-async SOR bound) or ``None`` (no per-step guarantee).
    holds
        Whether the guarantee's hypotheses hold for the matrix at hand.
    reason
        Human-readable statement of why (or why not).
    """

    norm: str | None
    holds: bool
    reason: str


def _nonzero_diagonal(A) -> np.ndarray:
    d = A.diagonal()
    if np.any(d == 0):
        raise SingularMatrixError(
            "diagonally-scaled methods require a nonzero diagonal"
        )
    return d


def scaled_rowsum_condition(A, scale, tol: float = 1e-12) -> np.ndarray:
    """Per-row generalized Theorem-1 condition for a scaled update.

    A simultaneous update ``x += diag(s) r`` has error propagation matrix
    ``G-hat = I - diag(s) A`` on the relaxed rows; its row sums are
    ``|1 - s_i a_ii| + s_i sum_{j != i} |a_ij|``. When every row sum is
    ``<= 1`` (and ``s >= 0``), ``||G-hat||_inf <= 1`` for *every* relax
    mask, which is exactly the hypothesis the paper's Theorem 1 argument
    needs — the residual 1-norm can never increase. For ``s = omega / d``
    on a weakly diagonally dominant matrix with ``omega <= 1`` this
    reduces to the paper's original condition.
    """
    s = np.asarray(scale, dtype=np.float64)
    d = A.diagonal()
    rowsums = np.abs(1.0 - s * d) + s * A.off_diagonal_row_sums()
    return (s >= -tol) & (rowsums <= 1.0 + tol)


class Method:
    """Base class: one per-row relaxation rule plus its convergence story."""

    #: Stable identifier (used in specs, trace events and perf digests).
    name: str = "method"
    #: ``"scaled"``, ``"sequential"`` or ``"momentum"``.
    kind: str = "scaled"
    #: Momentum coefficient (zero for first-order methods).
    beta: float = 0.0

    @property
    def is_scaled(self) -> bool:
        """True when every vectorized simultaneous fast path applies."""
        return self.kind == "scaled"

    def scale(self, A) -> np.ndarray:
        """Per-row residual multiplier ``s`` (``x_i += s_i * r_i``)."""
        raise NotImplementedError

    def validate(self, A) -> None:
        """Raise if the method cannot run on ``A`` (e.g. zero diagonal)."""
        self.scale(A)

    def guarantee(self, A) -> Guarantee:
        """The per-step norm bound this method carries on ``A`` (if any)."""
        return Guarantee(None, False, f"{self.name}: no per-step norm guarantee")

    def spec(self) -> dict:
        """JSON-ready round-trip form (see :func:`repro.methods.make_method`)."""
        return {"kind": self.name}

    def __repr__(self) -> str:
        params = {k: v for k, v in self.spec().items() if k != "kind"}
        inner = ", ".join(f"{k}={v!r}" for k, v in params.items())
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Method) and self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.spec().items())))


class Jacobi(Method):
    """The paper's relaxation: ``x_i += omega / a_ii * r_i`` (Eq. 6).

    ``omega = 1`` is plain Jacobi; ``omega < 1`` under-relaxes. The scale
    vector is exactly the executors' historical ``omega / diag`` array, so
    ``method="jacobi"`` is bit-identical to the pre-method code paths.
    """

    name = "jacobi"
    kind = "scaled"

    def __init__(self, omega: float = 1.0):
        if not 0 < omega < 2:
            raise MethodError(f"omega must lie in (0, 2), got {omega}")
        self.omega = float(omega)

    def scale(self, A) -> np.ndarray:
        """The executors' historical ``omega / diag`` array, bit for bit."""
        return self.omega / _nonzero_diagonal(A)

    def guarantee(self, A) -> Guarantee:
        """Theorem 1's residual 1-norm bound, when the row condition holds."""
        ok = bool(np.all(scaled_rowsum_condition(A, self.scale(A))))
        why = (
            "per-row |1 - s_i a_ii| + s_i * offdiag sum <= 1 "
            f"({'holds' if ok else 'fails'}; Theorem 1 residual bound)"
        )
        return Guarantee("residual_l1", ok, f"{self.name}: {why}")

    def spec(self) -> dict:
        """``{"kind": ..., "omega": ...}``."""
        return {"kind": self.name, "omega": self.omega}


class DampedJacobi(Jacobi):
    """Weighted (damped) Jacobi, conventionally ``omega = 2/3``.

    Arithmetic is :class:`Jacobi` with ``omega < 1`` made explicit — the
    classical smoother choice ``2/3`` damps the high-frequency half of the
    spectrum optimally on the unit-diagonal Laplacian family.
    """

    name = "damped_jacobi"

    def __init__(self, omega: float = 2.0 / 3.0):
        if not 0 < omega <= 1:
            raise MethodError(f"damped Jacobi needs omega in (0, 1], got {omega}")
        super().__init__(omega=omega)


class Richardson(Method):
    """First-order Richardson: ``x += alpha * r`` (uniform scale).

    Chow/Frommer/Szyld (arXiv:2009.02015) study this update run
    asynchronously. It ignores the diagonal entirely: on a symmetric
    positive definite matrix it converges iff ``alpha`` lies in the
    spectral window ``(0, 2 / lambda_max(A))``, with the optimal choice
    ``alpha* = 2 / (lambda_min + lambda_max)`` achieving the classical
    rate ``(kappa - 1) / (kappa + 1)``. On a unit-diagonal matrix,
    ``alpha = omega`` makes Richardson coincide with Jacobi exactly.
    """

    name = "richardson"
    kind = "scaled"

    def __init__(self, alpha: float = 1.0):
        if not alpha > 0:
            raise MethodError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    def scale(self, A) -> np.ndarray:
        """The constant vector ``alpha`` — the diagonal plays no role."""
        return np.full(A.nrows, self.alpha)

    def validate(self, A) -> None:
        """Richardson runs on any matrix (no diagonal requirement)."""

    def guarantee(self, A) -> Guarantee:
        """Theorem 1's residual bound under the generalized row condition."""
        ok = bool(np.all(scaled_rowsum_condition(A, self.scale(A))))
        why = (
            "uniform alpha satisfies the generalized Theorem-1 row condition"
            if ok
            else "alpha violates |1 - alpha a_ii| + alpha * offdiag sum <= 1"
        )
        return Guarantee("residual_l1", ok, f"{self.name}: {why}")

    def spec(self) -> dict:
        """``{"kind": ..., "alpha": ...}``."""
        return {"kind": self.name, "alpha": self.alpha}

    @staticmethod
    def spectral_window(A) -> tuple:
        """The open interval of convergent ``alpha`` on SPD ``A``."""
        from repro.matrices.properties import symmetric_extreme_eigenvalues

        _, lam_max = symmetric_extreme_eigenvalues(A)
        return 0.0, 2.0 / lam_max

    @staticmethod
    def optimal_alpha(A) -> float:
        """``2 / (lambda_min + lambda_max)`` — the rate-optimal step."""
        from repro.matrices.properties import symmetric_extreme_eigenvalues

        lam_min, lam_max = symmetric_extreme_eigenvalues(A)
        return 2.0 / (lam_min + lam_max)

    @staticmethod
    def optimal_rate(A) -> float:
        """``(kappa - 1) / (kappa + 1)`` at the optimal step on SPD ``A``."""
        from repro.matrices.properties import symmetric_extreme_eigenvalues

        lam_min, lam_max = symmetric_extreme_eigenvalues(A)
        kappa = lam_max / lam_min
        return (kappa - 1.0) / (kappa + 1.0)


class Richardson2(Richardson):
    """Second-order Richardson: ``x_new = x + alpha r + beta (x - x_prev)``.

    The momentum form of arXiv:2009.02015 Section 4: with
    ``beta = ((sqrt(kappa) - 1) / (sqrt(kappa) + 1))^2`` and the matching
    ``alpha`` the synchronous rate improves from ``(kappa-1)/(kappa+1)``
    to ``(sqrt(kappa)-1)/(sqrt(kappa)+1)``. Executors keep one previous
    iterate per row, updated at relax time. No per-step norm guarantee:
    momentum legitimately overshoots transiently.
    """

    name = "richardson2"
    kind = "momentum"

    def __init__(self, alpha: float = 1.0, beta: float = 0.1):
        super().__init__(alpha=alpha)
        if not 0 <= beta < 1:
            raise MethodError(f"beta must lie in [0, 1), got {beta}")
        self.beta = float(beta)

    def guarantee(self, A) -> Guarantee:
        """No per-step bound — momentum legitimately overshoots."""
        return Guarantee(
            None, False, "richardson2: momentum has no per-step norm bound"
        )

    def spec(self) -> dict:
        """``{"kind": ..., "alpha": ..., "beta": ...}``."""
        return {"kind": self.name, "alpha": self.alpha, "beta": self.beta}

    @staticmethod
    def heavy_ball_parameters(A) -> tuple:
        """Rate-optimal ``(alpha, beta)`` on SPD ``A`` (Polyak's choice)."""
        from repro.matrices.properties import symmetric_extreme_eigenvalues

        lam_min, lam_max = symmetric_extreme_eigenvalues(A)
        sk = np.sqrt(lam_max / lam_min)
        beta = ((sk - 1.0) / (sk + 1.0)) ** 2
        alpha = (1.0 + beta) * 2.0 / (lam_min + lam_max)
        return float(alpha), float(beta)


class StepAsyncSOR(Method):
    """Step-asynchronous SOR (Vigna, arXiv:1404.3327).

    Each processor sweeps its owned rows *sequentially* with relaxation
    weight ``omega``, reading the freshest available value for every
    variable — its own rows' in-sweep updates, possibly stale values for
    rows owned elsewhere. On the distributed simulator each rank's block
    relaxes by one forward Gauss-Seidel sweep with scale ``omega / diag``
    (the simulators' only Gauss-Seidel block sweep); a one-row block
    degenerates to the scaled update.

    Vigna's theorem: on an (M-matrix-like) weakly diagonally dominant
    matrix with positive diagonal, nonpositive off-diagonal entries and
    ``omega`` in ``(0, 1]``, the error *sup-norm* never increases, no
    matter how stale the cross-processor reads are.
    """

    name = "sor"
    kind = "sequential"

    def __init__(self, omega: float = 1.0):
        if not 0 < omega < 2:
            raise MethodError(f"omega must lie in (0, 2), got {omega}")
        self.omega = float(omega)

    def scale(self, A) -> np.ndarray:
        """``omega / diag`` — the in-sweep elimination scale."""
        return self.omega / _nonzero_diagonal(A)

    def guarantee(self, A) -> Guarantee:
        """Vigna's error sup-norm bound on M-matrix-like ``A``, omega <= 1."""
        from repro.matrices.properties import is_m_matrix_like

        mlike = is_m_matrix_like(A)
        ok = mlike and 0 < self.omega <= 1
        if ok:
            why = "M-matrix-like and omega <= 1: error sup-norm non-increase"
        elif not mlike:
            why = "matrix is not M-matrix-like (sign pattern or dominance fails)"
        else:
            why = f"omega={self.omega} > 1 voids the sup-norm bound"
        return Guarantee("error_sup", ok, f"{self.name}: {why}")

    def spec(self) -> dict:
        """``{"kind": ..., "omega": ...}``."""
        return {"kind": self.name, "omega": self.omega}
