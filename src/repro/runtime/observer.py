"""The machine simulators' residual observer.

The paper watches every run through a zero-cost oracle, the relative
residual 1-norm ``‖b − Ax‖₁/‖b‖₁``, which reads the simulated iterate but
never perturbs its timing. Both machine simulators observe through one
:class:`ResidualObserver`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ResidualObserver"]


class ResidualObserver:
    """The relative residual 1-norm of one run, maintained and recorded.

    ``r`` is the residual ``b - A x``: one buffer for the whole run, which
    commits keep scattering their changes into and which recomputes
    overwrite in place. The ``times``/``residuals``/``counts`` history
    starts with the point ``(0.0, ‖r‖₁/‖b‖₁, 0)`` of the initial iterate.

    Parameters
    ----------
    residual
        ``(x, out) -> out``: writes ``b - A x`` into ``out``.
    x
        The run's iterate; the observer only reads it.
    b_norm
        ``‖b‖₁``. A zero ``b`` makes every observation the absolute norm.
    tol
        The run's tolerance. A maintained value below it is confirmed
        against a fresh residual before it is recorded.
    recompute_every
        Observations between full recomputes of ``r`` (0: never; 1: every
        observation, the drift-free observer).
    tracer
        A resolved tracer or ``None``; it receives one ``observe`` event
        per recorded point after the initial one.
    """

    __slots__ = (
        "r", "times", "residuals", "counts", "_residual", "_x", "_abs",
        "_b_norm", "_tol", "_every", "_since", "_trc",
    )

    def __init__(self, residual, x, b_norm, tol, recompute_every, tracer=None):
        self._residual = residual
        self._x = x
        self.r = residual(x, np.empty(x.size))
        self._abs = np.empty(x.size)
        self._b_norm = b_norm
        self._tol = tol
        self._every = recompute_every
        self._since = 0
        self._trc = tracer
        self.times, self.residuals, self.counts = [0.0], [self._relnorm()], [0]

    def _relnorm(self) -> float:
        """``‖r‖₁/‖b‖₁`` of the buffer as it stands (``‖r‖₁`` if ``b`` is 0)."""
        num = float(np.sum(np.abs(self.r, out=self._abs)))
        return num / self._b_norm if self._b_norm > 0 else num

    def observe(self, t: float, count: int) -> float:
        """Record the point at time ``t`` after ``count`` relaxations.

        ``r`` is recomputed once ``recompute_every`` observations have
        passed since the last recompute. A value below ``tol`` that did not
        come from a fresh recompute is confirmed against one, and the fresh
        value is the one recorded. Returns the recorded value.
        """
        since = self._since + 1
        if self._every and since >= self._every:
            self._residual(self._x, self.r)
            since = 0
        res = self._relnorm()
        if since and res < self._tol:
            self._residual(self._x, self.r)
            since = 0
            res = self._relnorm()
        self._since = since
        self.times.append(t)
        self.residuals.append(res)
        self.counts.append(count)
        if self._trc is not None:
            self._trc.observe(t, res, count)
        return res

    def finish(self, t_end: float, count: int, dirty, converged: bool) -> bool:
        """The final observation; returns whether the run converged.

        When ``dirty`` (a commit landed since the last recorded point) one
        more point is observed at ``max(t_end, times[-1])``, and a crossing
        the loop had not seen is traced as the convergence. Otherwise the
        history is already current and nothing is recomputed.
        """
        if not dirty:
            return converged or self.residuals[-1] < self._tol
        t = max(t_end, self.times[-1])
        res = self.observe(t, count)
        if not converged and res < self._tol:
            if self._trc is not None:
                self._trc.convergence(t, res, self._tol)
            return True
        return converged
