"""Per-iteration convergence guardrails shared by every solver.

A production solver must fail *loudly then gracefully*: a NaN in the
residual, a residual exploding past any reasonable bound, or a stalled
iteration should terminate the loop with a recorded verdict — not burn the
remaining ``maxiter`` iterations or silently return garbage.

:class:`ResidualGuard` watches one residual-norm stream and returns a
verdict string the solvers record into ``SolveResult.fault_events`` (and
the facade's degradation ladder acts on — see :mod:`repro.api`):

``"nonfinite"``
    the residual norm is NaN/Inf;
``"diverged"``
    the norm exceeded ``divergence_factor`` times the convergence
    reference (initial residual / ``||b||``);
``"stagnated"``
    less than ``stagnation_improvement`` relative progress over the last
    ``stagnation_window`` iterations (only checked when enabled — Krylov
    methods with non-monotone or plateauing-but-correct residuals keep it
    off).

The limits are deliberately loose: a guard that fires on a legitimately
slow solve is worse than no guard, so only pathological behavior trips.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["GuardLimits", "ResidualGuard"]


@dataclass(frozen=True)
class GuardLimits:
    """Thresholds for :class:`ResidualGuard`."""

    divergence_factor: float = 1e8
    stagnation_window: int = 40
    stagnation_improvement: float = 1e-3


DEFAULT_LIMITS = GuardLimits()


class ResidualGuard:
    """Watches one residual-norm history for NaN/Inf, blow-up, and stalls."""

    def __init__(self, ref: float, *, limits: GuardLimits | None = None,
                 stagnation: bool = True) -> None:
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        # A broken reference (0 / NaN) can't anchor relative tests; fall
        # back to 1 so the nonfinite check still works.
        self.ref = float(ref) if np.isfinite(ref) and ref > 0.0 else 1.0
        self.stagnation = stagnation
        self._window: deque[float] = deque(maxlen=self.limits.stagnation_window)

    def check(self, rn: float) -> str | None:
        """Verdict for the newest residual norm, or None if healthy."""
        if not np.isfinite(rn):
            return "nonfinite"
        if rn > self.limits.divergence_factor * self.ref:
            return "diverged"
        self._window.append(float(rn))
        if (
            self.stagnation
            and len(self._window) == self._window.maxlen
            and self._window[0] > 0.0
            and rn > (1.0 - self.limits.stagnation_improvement) * self._window[0]
        ):
            return "stagnated"
        return None
