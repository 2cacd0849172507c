"""L-BFGS in numpy: the default optimizer of VQE and ADAPT-VQE.

Every problem these drivers minimize is unconstrained, so this is
L-BFGS-B 3.0 (Byrd, Lu, Nocedal & Zhu; Morales & Nocedal) restricted to
the unbounded case, step for step, so that its iterates equal what
``scipy.optimize.minimize(method="L-BFGS-B")`` runs to round-off:

* direction ``-H g`` by the two-loop recursion over the last
  ``MEMORY`` pairs, ``H0 = (s.y / y.y) I`` from the newest pair; with
  no pair kept the direction is ``-g``;
* a pair is dropped when ``s.y <= eps * (-g.d * stp)``;
* the first search starts at ``stp = min(1 / |d|, MAX_STEP)``, every
  later one at 1, and no search steps past ``MAX_STEP``;
* Moré–Thuente line search (MINPACK-2 ``dcsrch``/``dcstep``) with
  ``FTOL``, ``GTOL``, ``XTOL`` and at most ``MAX_LINE_SEARCH`` trials;
  a failed search drops the memory and restarts along ``-g``, and fails
  the run when the memory was already empty;
* stop when ``max|g| <= tol``, when ``f_old - f <= tol * max(|f_old|,
  |f|, 1)``, or after ``max_iterations`` iterations (not converged).

:class:`LBFGSState` is the ask/tell core: :meth:`~LBFGSState.ask`
gives the next point to evaluate and :meth:`~LBFGSState.tell` takes its
value and gradient.  :class:`LBFGSB` is the :class:`Optimizer` that
loops over it, with forward differences when no gradient is given; the
campaign server loops over it too, one evaluation per batched wave.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.opt.base import OptimizeResult, Optimizer

__all__ = ["LBFGSB", "LBFGSState"]

MEMORY = 10
FTOL = 1e-3  # sufficient decrease
GTOL = 0.9  # curvature
XTOL = 0.1  # relative width of the bracketing interval
MAX_LINE_SEARCH = 20
MAX_STEP = 1e10
FD_STEP = 1e-8  # absolute forward-difference step

_EPS = float(np.finfo(float).eps)


class LBFGSState:
    """One minimization, advanced one evaluation at a time.

    Loop ``x = state.ask()`` / ``state.tell(f(x), grad(x))`` until
    ``state.done``; ``x``, ``fun`` and ``nit`` are then the result and
    ``converged`` says whether a tolerance (not the iteration limit or a
    failure) ended the run.  A value or gradient that is not finite ends
    the run, not converged, at the last finite iterate.  A line search
    that returns to the point just told is answered from that point's
    value and gradient, so every point :meth:`ask` gives is a new
    evaluation.
    """

    def __init__(self, x0: np.ndarray, max_iterations: int = 1000, tol: float = 1e-10):
        x0 = np.array(x0, dtype=float)
        if x0.ndim != 1:
            raise ValueError(f"x0 must be 1-D, got shape {x0.shape}")
        bad = np.flatnonzero(~np.isfinite(x0))
        if bad.size:
            raise ValueError(f"x0[{bad[0]}] is {x0[bad[0]]}, not a finite number")
        self.max_iterations = int(max_iterations)
        self.tol = tol
        # L-BFGS-B's relative-reduction test reads tol as factr * eps
        self._ftol = (tol / _EPS) * _EPS
        self.x = x0
        self.fun = math.nan
        self.grad = np.full_like(x0, math.nan)
        self.nit = 0
        self.done = False
        self.converged = False
        self._trial = x0
        self._started = False
        self._pairs: List[Tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, s.y)
        self._theta = 1.0  # B0 = theta I, so H0 = I / theta

    def ask(self) -> np.ndarray:
        """The next point to evaluate."""
        if self.done:
            raise RuntimeError("the minimization has ended")
        return self._trial.copy()

    def tell(self, value: float, gradient: np.ndarray) -> None:
        """Value and gradient at the point :meth:`ask` returned."""
        if self.done:
            raise RuntimeError("the minimization has ended")
        f = float(value)
        g = np.array(gradient, dtype=float).reshape(-1)
        if g.shape != self.x.shape:
            raise ValueError(f"gradient has shape {g.shape}, expected {self.x.shape}")
        x = self._trial
        self._tell(f, g)
        while not self.done and (self._trial == x).all():
            self._tell(f, g)

    def result(self, history: List[float]) -> OptimizeResult:
        """The run's :class:`OptimizeResult`; ``history`` is every value
        the caller evaluated, so ``nfev`` counts them."""
        return OptimizeResult(
            x=self.x,
            fun=self.fun,
            nfev=len(history),
            nit=self.nit,
            converged=self.converged,
            history=history,
        )

    def _tell(self, f: float, g: np.ndarray) -> None:
        if not (math.isfinite(f) and np.isfinite(g).all()):
            if not self._started:
                self.fun, self.grad = f, g
            self.done = True
            return
        if not self._started:
            self._started = True
            self.fun, self.grad = f, g
            if self._gradient_small():
                self._finish(converged=True)
            else:
                self._start_search()
            return
        gd = float(g.dot(self._d))
        stp, ended = self._search.step(self._stp, f, gd)
        if not ended:
            if self._evals >= MAX_LINE_SEARCH:
                self._search_failed()
            else:
                self._set_trial(stp)
            return
        self._accept(f, g, gd)

    # -- one iteration --------------------------------------------------------

    def _gradient_small(self) -> bool:
        return (float(np.abs(self.grad).max()) if self.grad.size else 0.0) <= self.tol

    def _finish(self, converged: bool) -> None:
        self.done = True
        self.converged = converged

    def _direction(self) -> np.ndarray:
        """``-H g`` by the two-loop recursion (``-g`` with no pairs)."""
        q = self.grad.copy()
        if not self._pairs:
            return -q
        alphas = []
        for s, y, sy in reversed(self._pairs):
            a = float(s.dot(q)) / sy
            q -= a * y
            alphas.append(a)
        r = q / self._theta
        for (s, y, sy), a in zip(self._pairs, reversed(alphas)):
            r += s * (a - float(y.dot(r)) / sy)
        return -r

    def _start_search(self) -> None:
        # as L-BFGS-B forms it: the model minimizer z, then d = z - x
        self._z = self.x + self._direction()
        self._d = self._z - self.x
        gd = float(self.grad.dot(self._d))
        if not gd < 0.0:  # not a descent direction
            self._search_failed()
            return
        if self.nit == 0:
            stp = min(1.0 / math.sqrt(float(self._d.dot(self._d))), MAX_STEP)
        else:
            stp = 1.0
        self._search = _MoreThuente(self.fun, gd, stp)
        self._gd0 = gd
        self._evals = 0
        self._set_trial(stp)

    def _set_trial(self, stp: float) -> None:
        self._stp = stp
        self._trial = self._z if stp == 1.0 else stp * self._d + self.x
        self._evals += 1

    def _search_failed(self) -> None:
        """Keep the iterate; restart along ``-g``, or stop if already there."""
        if not self._pairs:
            self._finish(converged=False)
            return
        self._pairs.clear()
        self._theta = 1.0
        self._start_search()

    def _accept(self, f: float, g: np.ndarray, gd: float) -> None:
        stp, d = self._stp, self._d
        f_old, g_old = self.fun, self.grad
        self.x, self.fun, self.grad = self._trial, f, g
        self.nit += 1
        if self.nit >= self.max_iterations:
            self._finish(converged=False)
            return
        if self._gradient_small() or (
            f_old - f <= self._ftol * max(abs(f_old), abs(f), 1.0)
        ):
            self._finish(converged=True)
            return
        y = g - g_old
        if stp == 1.0:
            s, sy, scale = d, gd - self._gd0, -self._gd0
        else:
            s, sy, scale = stp * d, (gd - self._gd0) * stp, -self._gd0 * stp
        if sy > _EPS * scale:
            self._pairs.append((s, y, sy))
            if len(self._pairs) > MEMORY:
                del self._pairs[0]
            self._theta = float(y.dot(y)) / sy
        self._start_search()


class _MoreThuente:
    """Moré–Thuente line search (MINPACK-2 ``dcsrch``) on ``phi(stp) =
    f(x + stp d)``, in reverse communication: :meth:`step` takes
    ``phi`` and ``phi'`` at the current trial and returns ``(stp,
    ended)``: the next trial, or with ``ended`` the step the search
    ends on (MINPACK's convergence and warning exits alike)."""

    stpmin, stpmax = 0.0, MAX_STEP

    def __init__(self, f0: float, g0: float, stp: float):
        self.finit, self.ginit = f0, g0
        self.gtest = FTOL * g0
        self.width = self.stpmax - self.stpmin
        self.width1 = 2.0 * self.width
        self.brackt = False
        self.stage = 1
        self.stx, self.fx, self.gx = 0.0, f0, g0
        self.sty, self.fy, self.gy = 0.0, f0, g0
        self.stmin, self.stmax = 0.0, stp + 4.0 * stp

    def step(self, stp: float, f: float, g: float) -> Tuple[float, bool]:
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0.0:
            self.stage = 2
        if f <= ftest and abs(g) <= GTOL * -self.ginit:
            return stp, True
        if (
            (self.brackt and (stp <= self.stmin or stp >= self.stmax))
            or (self.brackt and self.stmax - self.stmin <= XTOL * self.stmax)
            or (stp == self.stpmax and f <= ftest and g <= self.gtest)
            or (stp == self.stpmin and (f > ftest or g >= self.gtest))
        ):
            return stp, True
        if self.stage == 1 and f <= self.fx and f > ftest:
            # modified function psi(stp) = phi(stp) - phi(0) - stp * gtest
            gt = self.gtest
            (self.stx, fxm, gxm, self.sty, fym, gym, stp, self.brackt) = _dcstep(
                self.stx, self.fx - self.stx * gt, self.gx - gt,
                self.sty, self.fy - self.sty * gt, self.gy - gt,
                stp, f - stp * gt, g - gt, self.brackt, self.stmin, self.stmax,
            )
            self.fx, self.fy = fxm + self.stx * gt, fym + self.sty * gt
            self.gx, self.gy = gxm + gt, gym + gt
        else:
            (self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp,
             self.brackt) = _dcstep(
                self.stx, self.fx, self.gx, self.sty, self.fy, self.gy,
                stp, f, g, self.brackt, self.stmin, self.stmax,
            )
        if self.brackt:
            if abs(self.sty - self.stx) >= 0.66 * self.width1:
                stp = self.stx + 0.5 * (self.sty - self.stx)
            self.width1 = self.width
            self.width = abs(self.sty - self.stx)
            self.stmin = min(self.stx, self.sty)
            self.stmax = max(self.stx, self.sty)
        else:
            self.stmin = stp + 1.1 * (stp - self.stx)
            self.stmax = stp + 4.0 * (stp - self.stx)
        stp = min(max(stp, self.stpmin), self.stpmax)
        if self.brackt and (
            stp <= self.stmin or stp >= self.stmax
            or self.stmax - self.stmin <= XTOL * self.stmax
        ):
            stp = self.stx  # no progress possible: the best step so far
        return stp, False


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep``: a safeguarded cubic/quadratic step, and the
    update of the interval ``[stx, sty]`` that brackets a minimizer.
    Returns ``(stx, fx, dx, sty, fy, dy, stp, brackt)``."""
    sgnd = dp * (dx / abs(dx))
    if fp > fx:  # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + (p / q) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:  # derivatives of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + (p / q) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # same sign, derivative magnitude decreases
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif brackt:  # same sign, derivative magnitude does not decrease
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * math.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + (p / q) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


class LBFGSB(Optimizer):
    """L-BFGS (see the module docstring) behind the :class:`Optimizer`
    interface.  With ``gradient=None`` the gradient is a forward
    difference with step ``FD_STEP``, and those evaluations count in
    ``nfev``."""

    def __init__(self, max_iterations: int = 1000, tol: float = 1e-10):
        self.max_iterations = max_iterations
        self.tol = tol

    def start(self, x0: np.ndarray) -> LBFGSState:
        """An ask/tell run from ``x0`` under this optimizer's settings."""
        return LBFGSState(x0, self.max_iterations, self.tol)

    def minimize(
        self,
        fun: Callable[[np.ndarray], float],
        x0: np.ndarray,
        gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> OptimizeResult:
        state = self.start(x0)
        history: List[float] = []

        def value(x: np.ndarray) -> float:
            history.append(float(fun(x)))
            return history[-1]

        while not state.done:
            x = state.ask()
            f = value(x)
            state.tell(f, _forward_difference(value, x, f) if gradient is None else gradient(x))
        return state.result(history)


def _forward_difference(
    value: Callable[[np.ndarray], float], x: np.ndarray, f0: float
) -> np.ndarray:
    """scipy's default gradient for L-BFGS-B: one-sided, absolute step."""
    g = np.empty_like(x)
    for i in range(x.size):
        xi = x.copy()
        xi[i] = x[i] + FD_STEP
        g[i] = (value(xi) - f0) / ((x[i] + FD_STEP) - x[i])
    return g
