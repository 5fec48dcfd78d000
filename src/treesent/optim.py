"""Decoupled-weight-decay adaptive-moment optimizer with linear warmup."""

from __future__ import annotations

import numpy as np

# BERT's fixed optimizer settings (Devlin et al., arXiv 1810.04805)
WARMUP_FRAC = 0.1  # share of the scheduled steps spent warming the learning rate up
BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 0.01


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

    Betas, eps and weight decay are the module constants. With
    ``total_steps`` the learning rate ramps up linearly over the first
    ``WARMUP_FRAC`` of them and then decays linearly to zero at
    ``total_steps``; without it the learning rate stays at ``lr``.
    """

    def __init__(self, params, lr, total_steps=None):
        self.params = dict(params)
        self.lr = lr
        self.warmup_steps = int((total_steps or 0) * WARMUP_FRAC)
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
        b1, b2 = BETAS
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
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            update = update + WEIGHT_DECAY * p.data
            p.data -= (lr * update).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
