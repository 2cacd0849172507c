"""Classical optimizers and gradients for the VQE loop."""

from repro.opt.adam import Adam, GradientDescent
from repro.opt.base import OptimizeResult, Optimizer
from repro.opt.gradient import AnsatzObjective, finite_difference_gradient
from repro.opt.nelder_mead import NelderMead
from repro.opt.parameter_shift import (
    parameter_shift_gradient,
    supports_parameter_shift,
)
from repro.opt.scipy_wrap import BFGS, Cobyla, LBFGSB, ScipyOptimizer
from repro.opt.spsa import SPSA

__all__ = [
    "Optimizer",
    "OptimizeResult",
    "NelderMead",
    "SPSA",
    "Adam",
    "GradientDescent",
    "ScipyOptimizer",
    "Cobyla",
    "LBFGSB",
    "BFGS",
    "AnsatzObjective",
    "finite_difference_gradient",
    "parameter_shift_gradient",
    "supports_parameter_shift",
]
