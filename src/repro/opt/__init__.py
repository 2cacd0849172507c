"""Classical optimizers and gradients for the VQE loop."""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "base": ["Optimizer", "OptimizeResult"],
        "nelder_mead": ["NelderMead"],
        "spsa": ["SPSA"],
        "adam": ["Adam", "GradientDescent"],
        "scipy_wrap": ["ScipyOptimizer", "Cobyla", "LBFGSB", "BFGS"],
        "gradient": ["AnsatzObjective", "finite_difference_gradient"],
        "parameter_shift": ["parameter_shift_gradient", "supports_parameter_shift"],
    },
)
