"""Nelder–Mead simplex minimizer (self-contained implementation).

Gradient-free, robust to the mild noise of sampled expectation values
— the workhorse baseline optimizer of NISQ-era VQE studies.
Standard reflection / expansion / contraction / shrink rules with an
adaptive initial simplex.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.opt.base import OptimizeResult, Optimizer

__all__ = ["NelderMead"]


class NelderMead(Optimizer):
    def __init__(
        self,
        max_iterations: int = 2000,
        xatol: float = 1e-8,
        fatol: float = 1e-10,
        initial_step: float = 0.1,
    ):
        self.max_iterations = max_iterations
        self.xatol = xatol
        self.fatol = fatol
        self.initial_step = initial_step

    def minimize(
        self,
        fun: Callable[[np.ndarray], float],
        x0: np.ndarray,
        gradient=None,
    ) -> OptimizeResult:
        x0 = np.asarray(x0, dtype=float)
        n = x0.size
        alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
        nfev = 0

        def f(x: np.ndarray) -> float:
            nonlocal nfev
            nfev += 1
            return float(fun(x))

        # Initial simplex: x0 plus axis-aligned displacements.
        simplex = [x0]
        for i in range(n):
            step = np.zeros(n)
            step[i] = self.initial_step if x0[i] == 0 else 0.1 * abs(x0[i]) + 1e-3
            simplex.append(x0 + step)
        values = [f(x) for x in simplex]
        history: List[float] = [min(values)]

        it = 0
        converged = False
        for it in range(1, self.max_iterations + 1):
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            history.append(values[0])

            spread_f = abs(values[-1] - values[0])
            spread_x = max(np.max(np.abs(s - simplex[0])) for s in simplex[1:])
            if spread_f <= self.fatol and spread_x <= self.xatol:
                converged = True
                break

            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = centroid + alpha * (centroid - worst)
            fr = f(reflected)
            if values[0] <= fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
                continue
            if fr < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                fe = f(expanded)
                if fe < fr:
                    simplex[-1], values[-1] = expanded, fe
                else:
                    simplex[-1], values[-1] = reflected, fr
                continue
            contracted = centroid + rho * (worst - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
                continue
            # Shrink toward the best vertex.
            best = simplex[0]
            simplex = [best] + [best + sigma * (s - best) for s in simplex[1:]]
            values = [values[0]] + [f(s) for s in simplex[1:]]

        order = np.argsort(values)
        return OptimizeResult(
            x=simplex[order[0]].copy(),
            fun=float(values[order[0]]),
            nfev=nfev,
            nit=it,
            converged=converged,
            history=history,
        )
