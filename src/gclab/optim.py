"""Adam optimizer over lists of autodiff parameters.

Adam runs with the conventional constants BETA1, BETA2 and EPS; only the
learning rate is set per run. Every step needs a gradient for every
parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import check

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the root of the second moment


def rate_error(lr) -> str | None:
    """Why lr is no learning rate, or None when it is a finite number above 0."""
    return None if math.isfinite(lr) and lr > 0 else f"must be a finite number above 0, got {lr!r}"


class Adam:
    """Bias-corrected Adam with the moment decay rates BETA1 and BETA2.

    The optimizer owns the parameter storage: construction copies every
    parameter into one flat vector and rebinds each `p.value` to a view of
    it, so a step gathers the gradients into one buffer allocated here and
    updates the moments and all parameters in place.
    Assigning a new array to `p.value` afterwards detaches that parameter
    from the optimizer; build a new Adam to train from reassigned values.
    """

    def __init__(self, params, lr):
        check(rate_error, lr=lr)
        self.params = list(params)
        self.lr = lr
        self.t = 0
        values = [p.value for p in self.params]
        self.flat = np.concatenate([v.ravel() for v in values]) if values else np.zeros(0)
        bounds = np.cumsum([0] + [v.size for v in values])
        for p, lo, hi in zip(self.params, bounds[:-1], bounds[1:]):
            p.value = self.flat[lo:hi].reshape(p.value.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)  # every gradient, gathered each step

    def step(self):
        """One update; a missing or misshapen gradient raises ValueError before any state changes."""
        grads = [p.grad for p in self.params]
        for p, g in zip(self.params, grads):
            if g is None:
                raise ValueError(f"parameter of shape {p.value.shape} has no gradient")
            if g.shape != p.value.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {p.value.shape}"
                )
        self.t += 1
        g = np.concatenate([g.ravel() for g in grads], out=self._grad) if grads else self._grad
        m, v = self.m, self.v
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        gg = (1 - BETA2) * g
        gg *= g
        v += gg
        step = m / (1 - BETA1**self.t)
        step *= self.lr
        den = v / (1 - BETA2**self.t)
        np.sqrt(den, out=den)
        den += EPS
        step /= den
        self.flat -= step
