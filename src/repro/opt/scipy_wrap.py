"""Adapters exposing SciPy minimizers through the Optimizer interface.

COBYLA and BFGS run ``scipy.optimize.minimize``, which is imported on
the first ``minimize`` call, not with this module.  ``LBFGSB``, the
drivers' default, is the numpy L-BFGS of :mod:`repro.opt.lbfgs`,
re-exported here under its historical import path.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.opt.base import OptimizeResult, Optimizer
from repro.opt.lbfgs import LBFGSB

__all__ = ["ScipyOptimizer", "Cobyla", "LBFGSB", "BFGS"]


class ScipyOptimizer(Optimizer):
    """Generic adapter around ``scipy.optimize.minimize``."""

    def __init__(self, method: str, max_iterations: int = 1000, tol: float = 1e-9, **options):
        self.method = method
        self.max_iterations = max_iterations
        self.tol = tol
        self.options = options

    def minimize(
        self,
        fun: Callable[[np.ndarray], float],
        x0: np.ndarray,
        gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> OptimizeResult:
        from scipy.optimize import minimize as scipy_minimize

        history: List[float] = []

        def wrapped(x: np.ndarray) -> float:
            val = float(fun(x))
            history.append(val)
            return val

        options = dict(self.options)
        options.setdefault("maxiter", self.max_iterations)
        uses_grad = self.method.lower() in ("bfgs", "l-bfgs-b", "cg", "slsqp")
        res = scipy_minimize(
            wrapped,
            np.asarray(x0, dtype=float),
            jac=gradient if (gradient is not None and uses_grad) else None,
            method=self.method,
            tol=self.tol,
            options=options,
        )
        return OptimizeResult(
            x=np.asarray(res.x),
            fun=float(res.fun),
            nfev=int(res.nfev),
            nit=int(getattr(res, "nit", len(history))),
            converged=bool(res.success),
            history=history,
        )


class Cobyla(ScipyOptimizer):
    """COBYLA — the gradient-free default of many VQE stacks."""

    def __init__(self, max_iterations: int = 2000, rhobeg: float = 0.5, tol: float = 1e-9):
        super().__init__("COBYLA", max_iterations=max_iterations, tol=tol, rhobeg=rhobeg)


class BFGS(ScipyOptimizer):
    def __init__(self, max_iterations: int = 1000, tol: float = 1e-10):
        super().__init__("BFGS", max_iterations=max_iterations, tol=tol)
