"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import ParamStore
from .errors import ContractError


def clip_grad_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the pre-clip norm. Parameters without a gradient are skipped.
    """
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= scale
    return norm


class AdamW:
    """Standard AdamW; moment state persists across steps.

    Decay is decoupled: p -= lr * wd * p, applied independently of the
    gradient-based update.
    """

    def __init__(self, params: ParamStore, lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-4, strict: bool = True):
        # strict=False skips parameters without a gradient instead of
        # failing; needed when only part of the model is exercised
        # (e.g. encoder-only pretraining leaves the head untouched)
        self.params = params
        self.strict = strict
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._scratch: dict[str, np.ndarray] = {}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                if self.strict:
                    raise ContractError(f"parameter {name} has no gradient")
                continue
            g = p.grad
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            scratch = self._scratch.get(name)
            if scratch is None or scratch.shape != p.data.shape:
                scratch = self._scratch[name] = np.empty_like(p.data)
            m *= b1
            np.multiply(g, 1.0 - b1, out=scratch)
            m += scratch
            v *= b2
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - b2
            v += scratch
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            # update = lr * (m / bc1) / (sqrt(v / bc2) + eps), built in the
            # scratch buffer to avoid temporaries on large parameters
            np.sqrt(v, out=scratch)
            scratch *= 1.0 / np.sqrt(bc2)
            scratch += self.eps
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bc1
            p.data -= scratch
