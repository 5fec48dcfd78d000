"""Decoupled-weight-decay adaptive-moment optimizer with linear warmup, and its malloc policy."""

from __future__ import annotations

import ctypes

import numpy as np

from . import autodiff as ad

# BERT's fixed optimizer settings (Devlin et al., arXiv 1810.04805)
WARMUP_FRAC = 0.1  # share of the scheduled steps spent warming the learning rate up
BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 0.01

# glibc's mallopt parameters (malloc.h) and the values set_malloc_policy sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded counter-based generator; distinct streams never overlap."""
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 64))


def set_malloc_policy():
    """Fix glibc's malloc thresholds: blocks up to 32 MiB come from the
    heap, and the heap top is returned to the kernel only past 256 MiB free.

    A training step allocates and frees a few MB of temporaries. By default
    glibc trims the freed top of the heap after each step, so the next step
    faults the same pages in again. One threshold alone is not enough:
    fixing either switches off glibc's dynamic mmap threshold, so freed
    blocks of 128 KiB or more go back to ``mmap``. A toy pretraining step
    at batch 16 x 64 took 160-700 minor page faults with glibc's defaults,
    about 800 with the mmap threshold alone, about 3,400 with the trim
    threshold alone, and about 10 with both; a 20 s ``perfbench``
    ``pretrain-pairs`` run took 40k-225k faults and 0.5-1.0 s of system
    time without the thresholds, 19k and 0.4 s with them (x86-64, 2 vCPUs,
    glibc, numpy 2.4, 1 BLAS thread). The price is that the peak heap
    stays resident.

    Importing ``treesent`` calls this once, so every caller of the package
    runs under the policy. Returns whether it was applied: where the C
    library has no ``mallopt`` (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return True


class AdamW:
    """Adam with decoupled weight decay over a name -> Tensor parameter dict.

    Betas, eps and weight decay are the module constants. With
    ``total_steps`` the learning rate ramps up linearly over the first
    ``WARMUP_FRAC`` of them and then decays linearly to zero at
    ``total_steps``; without it the learning rate stays at ``lr``.

    The parameters live in one flat arena. At construction every
    parameter is copied into one buffer of the parameters' dtype (mixed
    dtypes are refused) and each ``p.data`` is rebound to its view of it;
    ``m``, ``v`` and the gradients are flat too, and ``opt.m[name]`` and
    ``opt.v[name]`` are views. ``zero_grad`` zero-fills the gradient buffer
    and points each ``p.grad`` at its view, so a backward pass accumulates
    every leaf gradient straight into the arena. Every trained tensor
    therefore has a gradient: one the loss does not reach stays zero, and
    the step still decays it and updates its ``m`` and ``v``. ``step`` raises
    if a ``p.grad`` is None and copies in one a caller assigned as a fresh
    array. The update is a dozen in-place ufunc passes over the whole arena,
    not a dozen small ones for each of the model's 41-47 tensors, in the
    operation order and dtypes of the per-tensor update, so the results are
    bitwise the same. It works in two scratch buffers and leaves the
    gradients as they were, so ``p.grad`` still reads the gradient after a
    step.

    Code that replaces a trained parameter's values must write into its
    view (``p.data[...] = x``): ``step`` raises if a ``p.data`` is no longer
    its arena view, since the optimizer would train one array while a
    checkpoint saves another.
    """

    def __init__(self, params, lr, total_steps=None):
        self.params = dict(params)
        self.lr = lr
        self.warmup_steps = int((total_steps or 0) * WARMUP_FRAC)
        self.total_steps = total_steps
        self.t = 0
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise TypeError(f"parameters of mixed dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        bounds = np.cumsum([0] + [p.data.size for p in self.params.values()]).tolist()
        n = bounds[-1]
        self.arena = np.empty(n, dtype=dtype)
        self._m = np.zeros(n, dtype=dtype)
        self._v = np.zeros(n, dtype=dtype)
        self._grad = np.zeros(n, dtype=dtype)
        self._scratch = (np.empty(n, dtype=dtype), np.empty(n, dtype=dtype))

        def views(flat):
            return [flat[lo:hi].reshape(p.data.shape)
                    for p, lo, hi in zip(self.params.values(), bounds[:-1], bounds[1:])]

        self._views = views(self.arena)
        for p, view in zip(self.params.values(), self._views):
            view[...] = p.data
            p.data = view
        self._grad_views = views(self._grad)
        self.m = dict(zip(self.params, views(self._m)))
        self.v = dict(zip(self.params, views(self._v)))

    def _lr_at(self, t):
        lr = self.lr
        if self.warmup_steps > 0 and t <= self.warmup_steps:
            return lr * t / self.warmup_steps
        if self.total_steps is not None and self.total_steps > self.warmup_steps:
            frac = (self.total_steps - t) / (self.total_steps - self.warmup_steps)
            return lr * max(frac, 0.0)
        return lr

    def step(self):
        for (name, p), view, grad_view in zip(self.params.items(), self._views,
                                              self._grad_views):
            if p.data is not view:
                raise RuntimeError(f"parameter {name}: .data was rebound away from "
                                   "the optimizer's arena; write into p.data[...] instead")
            if p.grad is None:
                raise RuntimeError(f"parameter {name} has no gradient; "
                                   "call zero_grad() before the backward pass")
            if p.grad is not grad_view:
                np.copyto(grad_view, p.grad)
        self.t += 1
        lr = self._lr_at(self.t)
        b1, b2 = BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        p, g, m, v = self.arena, self._grad, self._m, self._v
        s, d = self._scratch
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v += s
        # update = (m / bc1) / (sqrt(v / bc2) + eps) + wd p;  p -= lr update
        np.divide(m, bc1, out=s)
        np.divide(v, bc2, out=d)
        np.sqrt(d, out=d)
        d += EPS
        s /= d
        np.multiply(p, WEIGHT_DECAY, out=d)
        s += d
        s *= lr
        p -= s

    def minimize(self, loss, step_number):
        """Refuse a NaN or infinite ``loss`` (NumPy only warns), then zero_grad, backward, step."""
        if not np.isfinite(loss.data).all():
            raise FloatingPointError(
                f"training diverged: loss is {float(loss.data)} at step {step_number}")
        self.zero_grad()
        ad.backward(loss)
        self.step()

    def zero_grad(self):
        self._grad.fill(0)
        for p, grad_view in zip(self.params.values(), self._grad_views):
            p.grad = grad_view
