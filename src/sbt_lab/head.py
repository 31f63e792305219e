"""Prediction heads over the fused search map and anchor-free box decoding.

Both heads emit three sigmoid-bounded maps on the search token grid:
a score map, a center-offset map, and a size map. Each head works on the
channels-last search tokens and ends in per-token (h*w, out) maps, which
``_head_output`` lays out as a ``HeadOutput``. ``decode_box`` reads the
box at the score argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, trunc_normal
from .errors import ConfigError, ContractError
from .layers import TokenMap


# initial score-projection bias: start the score map near p = 0.01 so the
# many negative cells do not swamp the lone positive's gradient early on
SCORE_PRIOR_BIAS = float(-np.log(99.0))


@dataclass
class HeadOutput:
    """score: (h, w); offset and size: (2, h, w) with channel order (x, y)."""

    score: Tensor
    offset: Tensor
    size: Tensor

    @property
    def grid(self):
        return self.score.data.shape


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int = 8,
               eps: float = 1e-5) -> Tensor:
    """Per-group normalization of an (H, W, C) map with per-channel affine.

    A group's statistics run over every position and its C/groups
    consecutive channels.
    """
    h, w, c = x.data.shape
    if c % groups:
        raise ConfigError(f"channels {c} not divisible by groups {groups}")
    t = ad.reshape(x, (h * w, groups, c // groups))
    mu = ad.mean(t, axis=(0, 2), keepdims=True)
    xc = t - mu
    var = ad.mean(xc * xc, axis=(0, 2), keepdims=True)
    xhat = xc * ad.pow_const(ad.add(var, eps), -0.5)
    return ad.add(ad.reshape(xhat, (h, w, c)) * gamma, beta)


def _squeeze(p: Tensor, eps: float = 1e-6) -> Tensor:
    # keep score/size strictly inside (0, 1): a saturated float32 sigmoid
    # returns exactly 0.0 or 1.0, which breaks the focal log terms and the
    # positive-size contract of the box losses
    return ad.add(ad.mul(p, 1.0 - 2.0 * eps), eps)


def _offset_scale(h: int, w: int) -> np.ndarray:
    # bound the center residual to one cell: sigmoid / grid side, per axis
    return np.array([1.0 / w, 1.0 / h], dtype=np.float32).reshape(2, 1, 1)


def _head_output(maps: dict, h: int, w: int) -> HeadOutput:
    """The HeadOutput of each branch's sigmoid (h*w, out) map."""
    def grid(m: Tensor) -> Tensor:  # (h*w, 2) -> (2, h, w)
        return ad.reshape(ad.transpose(m, (1, 0)), (2, h, w))

    score = _squeeze(ad.reshape(maps["score"], (h, w)))
    offset = ad.mul(grid(maps["offset"]), _offset_scale(h, w))
    size = _squeeze(grid(maps["size"]))
    return HeadOutput(score, offset, size)


class ConvHead:
    """Three conv-norm-relu blocks per branch, then 1x1 projection + sigmoid.

    Normalization is per-group (NORM_GROUPS groups) rather than batch
    statistics, which are unreliable at the batch sizes used here.
    """

    BRANCHES = (("score", 1), ("offset", 2), ("size", 2))
    NORM_GROUPS = 8

    def __init__(self, store: ParamStore, prefix: str, rng, channels: int,
                 hidden: int = 128):
        self.channels, self.hidden = channels, hidden
        self._layers: dict = {}
        for branch, out_ch in self.BRANCHES:
            convs = []
            c_in = channels
            for i in range(3):
                tag = f"{prefix}.{branch}.conv{i}"
                convs.append((
                    store.add(f"{tag}.w", trunc_normal(rng, (hidden, c_in, 3, 3))),
                    store.add(f"{tag}.b", np.zeros(hidden, dtype=np.float32)),
                    store.add(f"{tag}.gamma", np.ones(hidden, dtype=np.float32)),
                    store.add(f"{tag}.beta", np.zeros(hidden, dtype=np.float32)),
                ))
                c_in = hidden
            proj_w = store.add(f"{prefix}.{branch}.proj.w",
                               trunc_normal(rng, (out_ch, hidden, 1, 1)))
            b0 = SCORE_PRIOR_BIAS if branch == "score" else 0.0
            proj_b = store.add(f"{prefix}.{branch}.proj.b",
                               np.full(out_ch, b0, dtype=np.float32))
            self._layers[branch] = (convs, proj_w, proj_b)

    def _branch(self, x: Tensor, branch: str) -> Tensor:
        """(h, w, C) map -> the branch's sigmoid (h*w, out) map."""
        convs, proj_w, proj_b = self._layers[branch]
        h, w, _ = x.data.shape
        for cw, cb, gamma, beta in convs:
            x = ad.conv2d(x, cw, cb, stride=1, padding=1)
            x = ad.relu(group_norm(x, gamma, beta, groups=self.NORM_GROUPS))
        out = ad.conv2d(x, proj_w, proj_b)
        return ad.sigmoid(ad.reshape(out, (h * w, proj_w.data.shape[0])))

    def __call__(self, f_x: TokenMap) -> HeadOutput:
        h, w = f_x.grid
        x = ad.reshape(f_x.tokens, (h, w, f_x.channels))
        return _head_output({branch: self._branch(x, branch)
                             for branch, _ in self.BRANCHES}, h, w)

    def flops(self, length: int) -> int:
        total = 0
        for _, out_ch in self.BRANCHES:
            total += 2 * length * 9 * self.channels * self.hidden
            total += 2 * 2 * length * 9 * self.hidden * self.hidden
            total += 2 * length * self.hidden * out_ch
        return total


class MixMlpHead:
    """Stacked channel-mix + spatial-mix linear blocks over search tokens.

    Template (and dynamic template) tokens are dropped first. The spatial
    mix ties the head to a fixed search token count.
    """

    BRANCHES = (("score", 1), ("offset", 2), ("size", 2))
    BLOCKS = 3

    def __init__(self, store: ParamStore, prefix: str, rng, channels: int,
                 tokens: int):
        self.channels, self.tokens = channels, tokens
        self._mix = []
        # the trunk has no normalization, so fan-in scaled init is needed
        # to keep activations from vanishing across the stacked blocks
        for i in range(self.BLOCKS):
            tag = f"{prefix}.block{i}"
            self._mix.append((
                store.add(f"{tag}.cm_w", trunc_normal(
                    rng, (channels, channels), std=np.sqrt(2.0 / channels))),
                store.add(f"{tag}.cm_b", np.zeros(channels, dtype=np.float32)),
                store.add(f"{tag}.sm_w", trunc_normal(
                    rng, (tokens, tokens), std=np.sqrt(2.0 / tokens))),
                store.add(f"{tag}.sm_b", np.zeros(tokens, dtype=np.float32)),
            ))
        self._proj = {}
        for branch, out_ch in self.BRANCHES:
            b0 = SCORE_PRIOR_BIAS if branch == "score" else 0.0
            self._proj[branch] = (
                store.add(f"{prefix}.{branch}.w",
                          trunc_normal(rng, (channels, out_ch))),
                store.add(f"{prefix}.{branch}.b",
                          np.full(out_ch, b0, dtype=np.float32)),
            )

    def trunk(self, tokens: Tensor) -> Tensor:
        t = tokens
        for cm_w, cm_b, sm_w, sm_b in self._mix:
            t = ad.relu(ad.linear(t, cm_w, cm_b))  # per-token channel mix
            t = ad.transpose(t, (1, 0))  # (C, L)
            t = ad.relu(ad.linear(t, sm_w, sm_b))  # per-channel spatial mix
            t = ad.transpose(t, (1, 0))
        return t

    def __call__(self, f_x: TokenMap) -> HeadOutput:
        x = f_x.segment("search")
        h, w = x.grid
        if x.length != self.tokens:
            raise ContractError(
                f"search token count {x.length} != head size {self.tokens}"
            )
        t = self.trunk(x.tokens)
        maps = {branch: ad.sigmoid(ad.linear(t, *self._proj[branch]))
                for branch, _ in self.BRANCHES}
        return _head_output(maps, h, w)

    def flops(self, length: int) -> int:
        c, l = self.channels, self.tokens
        total = self.BLOCKS * (2 * l * c * c + 2 * c * l * l)
        for _, out_ch in self.BRANCHES:
            total += 2 * l * c * out_ch
        return total


def decode_box(out: HeadOutput):
    """Box at the score argmax; ties go to the smallest row-major index.

    Returns ((x, y, w, h) normalized center form, confidence, (i, j) cell).
    """
    s = out.score.data
    h, w = s.shape
    flat = int(np.argmax(s))  # first occurrence = smallest row-major index
    i, j = divmod(flat, w)
    x = j / w + float(out.offset.data[0, i, j])
    y = i / h + float(out.offset.data[1, i, j])
    bw = float(out.size.data[0, i, j])
    bh = float(out.size.data[1, i, j])
    return (x, y, bw, bh), float(s[i, j]), (i, j)
