"""Decoupled-weight-decay adaptive-moment optimizer with linear warmup."""

from __future__ import annotations

import numpy as np

# share of the scheduled steps spent warming the learning rate up
WARMUP_FRAC = 0.1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded counter-based generator; distinct streams never overlap."""
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 64))


def check_finite_loss(loss, step):
    """Raise FloatingPointError when a training loss is NaN or infinite.

    NumPy only warns on overflow, so without this a diverged run would go
    on training, and saving, NaN parameters.
    """
    if not np.isfinite(loss.data).all():
        raise FloatingPointError(f"training diverged: loss is {float(loss.data)} at step {step}")


class AdamW:
    """Adam with decoupled weight decay over a name -> Tensor parameter dict.

    Learning rate ramps linearly over ``warmup_steps`` and, when
    ``total_steps`` is given, decays linearly to zero afterwards.
    """

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01, warmup_steps=0, total_steps=None):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def _lr_at(self, t):
        lr = self.lr
        if self.warmup_steps > 0 and t <= self.warmup_steps:
            return lr * t / self.warmup_steps
        if self.total_steps is not None and self.total_steps > self.warmup_steps:
            frac = (self.total_steps - t) / (self.total_steps - self.warmup_steps)
            return lr * max(frac, 0.0)
        return lr

    def step(self):
        self.t += 1
        lr = self._lr_at(self.t)
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= (lr * update).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
