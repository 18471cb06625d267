"""Adam optimizer over lists of autodiff parameters."""

from __future__ import annotations

import numpy as np


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)


class Adam:
    """Bias-corrected Adam with the conventional moment decay rates.

    The optimizer owns the parameter storage: construction copies every
    parameter into one flat vector and rebinds each `p.value` to a view of
    it, so a step gathers the gradients into one buffer allocated here and
    updates the moments and all parameters in place.
    Assigning a new array to `p.value` afterwards detaches that parameter
    from the optimizer; build a new Adam to train from reassigned values.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._sizes = [p.value.size for p in self.params]
        self.flat = _flatten([p.value for p in self.params])
        bounds = np.cumsum([0] + self._sizes)
        for p, lo, hi in zip(self.params, bounds[:-1], bounds[1:]):
            p.value = self.flat[lo:hi].reshape(p.value.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)  # every gradient, gathered each step

    def step(self):
        grads = [p.grad for p in self.params]
        for p, g in zip(self.params, grads):
            if g is not None and g.shape != p.value.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {p.value.shape}"
                )
        self.t += 1
        present = [g is not None for g in grads]
        full = all(present)
        if full:
            g = np.concatenate([g.ravel() for g in grads], out=self._grad) if grads else self._grad
            m, v, flat = self.m, self.v, self.flat
        else:
            # a parameter without a gradient keeps its value and its moments
            sel = np.repeat(present, self._sizes)
            g = _flatten([g for g in grads if g is not None])
            m, v, flat = self.m[sel], self.v[sel], self.flat[sel]
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        gg = (1 - self.beta2) * g
        gg *= g
        v += gg
        step = m / (1 - self.beta1**self.t)
        step *= self.lr
        den = v / (1 - self.beta2**self.t)
        np.sqrt(den, out=den)
        den += self.eps
        step /= den
        flat -= step
        if not full:
            self.m[sel], self.v[sel], self.flat[sel] = m, v, flat
