"""``scipy.optimize.minimize`` behind the ``Optimizer`` interface.

The oracle the numpy L-BFGS is checked against
(``ScipyOptimizer("L-BFGS-B")`` in ``tests/test_lbfgs.py``), and the
gradient-free COBYLA run of the VQE tests that count how often a
driver reads a gradient.  It lives under ``tests/`` because nothing in
the package runs scipy's minimizers.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.opt.base import OptimizeResult, Optimizer


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
