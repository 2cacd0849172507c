"""``LBFGSB``, the drivers' default optimizer, under its historical
import path: the numpy L-BFGS of :mod:`repro.opt.lbfgs`."""

from repro.opt.lbfgs import LBFGSB

__all__ = ["LBFGSB"]
