"""A stand-in campaign for ``EvaluationBroker.pump``: it asks a fixed
sequence of parameter rows, one per wave, and keeps what it is told."""

import numpy as np


class RowCampaign:
    def __init__(self, plan, observable, rows):
        self.plan = plan
        self.observable = observable
        self.rows = np.atleast_2d(np.asarray(rows, dtype=float))
        self.values = []
        self.gradients = []

    def ask(self):
        done = len(self.values)
        return self.rows[done].copy() if done < len(self.rows) else None

    def tell(self, value, gradient):
        self.values.append(float(value))
        self.gradients.append(np.array(gradient))
