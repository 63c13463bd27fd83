"""Adam optimizer with bias correction.

Defaults: lr 1e-3, beta1 0.9, beta2 0.999, eps 1e-8. Moment buffers live
per parameter and shape-match it; the step counter increases by exactly
one per ``step``. Gradients are cleared after each update.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise UsageError(f"parameter {i} has no gradient; run backward first")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= (self.lr / c1) * m / (np.sqrt(v / c2) + self.eps)
            p.grad = None
