"""Classical optimizers and gradients for the VQE loop."""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "base": ["Optimizer", "OptimizeResult"],
        "lbfgs": ["LBFGSB", "LBFGSState"],
        "gradient": ["AnsatzObjective", "finite_difference_gradient"],
        "parameter_shift": ["parameter_shift_gradient", "supports_parameter_shift"],
    },
)

# The drivers' default optimizer loads with the package, so the
# Optimizer subclasses a default run calls all exist once ``repro.opt``
# is imported (tools that wrap ``Optimizer`` subclasses see it).
from repro.opt import lbfgs  # noqa: E402,F401
