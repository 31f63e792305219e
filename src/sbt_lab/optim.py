"""AdamW with decoupled weight decay."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore
from .errors import ContractError


# values per block of clip_grad_norm's and AdamW's passes: a block's
# temporaries stay in cache, where whole-array passes stream every value
# through memory
_BLOCK = 1 << 16


def _blocks(sizes) -> list:
    """(k, lo, hi) for each _BLOCK-value block of the k-th of flat arrays
    of these sizes, in order."""
    return [(k, lo, min(lo + _BLOCK, n)) for k, n in enumerate(sizes)
            for lo in range(0, n, _BLOCK)]


def clip_grad_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the pre-clip norm. Parameters without a gradient are skipped.
    Each gradient's squares are summed in float64 a block at a time over
    the fork-join, and the block sums are added exactly (math.fsum): the
    norm does not depend on the width or on the order of the parameters.
    """
    grads = [p.grad for _, p in params.items() if p.grad is not None]
    # a view in memory order, unless the gradient has no single memory order
    flats = [np.ravel(g, order="K") for g in grads]
    blocks = _blocks(f.size for f in flats)
    values = sum(f.size for f in flats)
    sums = np.empty(len(blocks))

    def square_sums(start, stop):
        buf = np.empty(_BLOCK, dtype=np.float64)
        for i in range(start, stop):
            k, lo, hi = blocks[i]
            sq = buf[:hi - lo]
            sq[...] = flats[k][lo:hi]
            sq *= sq
            sums[i] = sq.sum()

    ad.fork(square_sums, len(blocks),
            ad.fork_parts(len(blocks), 3 * values, *flats))
    try:
        norm = math.sqrt(math.fsum(sums))
    except OverflowError:  # finite float64 block sums past the float64 range
        norm = math.inf
    if norm > max_norm:
        scale = max_norm / norm
        # a gradient read through a copy is scaled whole, the rest by block
        views = [np.may_share_memory(g, f) for g, f in zip(grads, flats)]
        for g, view in zip(grads, views):
            if not view:
                g *= scale
        blocks = [b for b in blocks if views[b[0]]]

        def rescale(start, stop):
            for k, lo, hi in blocks[start:stop]:
                flats[k][lo:hi] *= scale

        ad.fork(rescale, len(blocks), ad.fork_parts(len(blocks), values, *flats))
    return norm


class AdamW:
    """Standard AdamW; moment state persists across steps.

    Decay is decoupled: p -= lr * wd * p, applied independently of the
    gradient-based update. Each parameter is updated in blocks of _BLOCK
    values, bitwise equal to one whole-array pass; the blocks of all
    parameters split over the fork-join.
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

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # the scalars of the whole-array update, formed the same way, so
        # that blocking changes no bit of the result
        c1, c2 = 1.0 - b1, 1.0 - b2
        decay = 1.0 - self.lr * self.weight_decay
        inv_sqrt_bc2 = 1.0 / np.sqrt(1.0 - b2 ** self.t)
        lr_bc1 = self.lr / (1.0 - b1 ** self.t)
        # ParamStore keeps parameters C-contiguous, and the moments copy
        # their layout, so these flat views write through; the gradient is
        # only read
        flats = []
        for name, p in self.params.items():
            if p.grad is None:
                if self.strict:
                    raise ContractError(f"parameter {name} has no gradient")
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            flats.append((p.data.reshape(-1), p.grad.reshape(-1),
                          self._m[name].reshape(-1), self._v[name].reshape(-1)))
        blocks = _blocks(f[0].size for f in flats)

        def update(start, stop):
            # one block-sized work buffer per dtype, reused by every block
            bufs: dict = {}
            for k, lo, hi in blocks[start:stop]:
                flat_p, flat_g, flat_m, flat_v = flats[k]
                buf = bufs.get(flat_p.dtype)
                if buf is None:
                    buf = bufs[flat_p.dtype] = np.empty(_BLOCK, flat_p.dtype)
                w, g = flat_p[lo:hi], flat_g[lo:hi]
                m, v, scratch = flat_m[lo:hi], flat_v[lo:hi], buf[:hi - lo]
                m *= b1
                np.multiply(g, c1, out=scratch)
                m += scratch
                v *= b2
                np.multiply(g, g, out=scratch)
                scratch *= c2
                v += scratch
                if self.weight_decay:
                    w *= decay
                # update = lr * (m / bc1) / (sqrt(v / bc2) + eps)
                np.sqrt(v, out=scratch)
                scratch *= inv_sqrt_bc2
                scratch += self.eps
                np.divide(m, scratch, out=scratch)
                scratch *= lr_bc1
                w -= scratch

        # about a dozen passes over each value; gradients take their
        # parameter's dtype
        work = 12 * sum(f[0].size for f in flats)
        ad.fork(update, len(blocks),
                ad.fork_parts(len(blocks), work, *(f[0] for f in flats)))
