"""Building layers for single-branch transformer tracking.

Every activation is a token map: row-major (L, C) tokens, channels last,
with per-segment grid metadata so the same layer code serves single-image
maps (shallow stages) and concatenated template/search maps (main stage).
A segment's tokens reshape to its (h, w, C) grid without a copy, which is
the layout ``autodiff.conv2d`` reads and writes. Only the input image is
channels-first, (3, H, W); ``PatchEmbed`` reads it through one transposed
view. All layers are pure functions of (inputs, parameters). The FRM
(interleaved SA/CA) and URM (joint attention) layers are one pre-norm
block, ``PreNormBlock``, that differ only in which tokens attend to which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, glorot_normal, trunc_normal
from .errors import ConfigError, ContractError, DimensionError

SEGMENT_TAGS = ("template", "dyn_template", "search")


@dataclass
class TokenMap:
    """(L, C) tokens plus grid shape and segment tag per token block."""

    tokens: Tensor
    grids: list  # [(h, w)] per segment
    segments: list  # tag per segment

    def __post_init__(self):
        if len(self.grids) != len(self.segments):
            raise ContractError("grids/segments length mismatch")
        for tag in self.segments:
            if tag not in SEGMENT_TAGS:
                raise ContractError(f"unknown segment tag: {tag}")
        total = sum(h * w for h, w in self.grids)
        if self.tokens.data.shape[0] != total:
            raise DimensionError(
                f"token count {self.tokens.data.shape[0]} != grid total {total}"
            )

    @property
    def length(self) -> int:
        return self.tokens.data.shape[0]

    @property
    def channels(self) -> int:
        return self.tokens.data.shape[1]

    def layout(self) -> tuple:
        return tuple(zip(self.segments, self.grids))

    def is_single(self) -> bool:
        return len(self.segments) == 1

    @property
    def grid(self):
        if not self.is_single():
            raise ContractError("grid is only defined for single-segment maps")
        return self.grids[0]

    def segment_slices(self) -> list:
        out, off = [], 0
        for h, w in self.grids:
            out.append(slice(off, off + h * w))
            off += h * w
        return out

    def split(self) -> list:
        return [
            TokenMap(ad.index(self.tokens, (sl, slice(None))), [g], [t])
            for sl, g, t in zip(self.segment_slices(), self.grids, self.segments)
        ]

    def segment(self, tag: str):
        for sl, g, t in zip(self.segment_slices(), self.grids, self.segments):
            if t == tag:
                return TokenMap(ad.index(self.tokens, (sl, slice(None))), [g], [t])
        raise ContractError(f"no segment tagged {tag}")

    def with_tokens(self, tokens: Tensor) -> "TokenMap":
        return TokenMap(tokens, list(self.grids), list(self.segments))


def concat_maps(maps: Sequence[TokenMap]) -> TokenMap:
    tokens = ad.concat([m.tokens for m in maps], axis=0)
    grids, segs = [], []
    for m in maps:
        grids += m.grids
        segs += m.segments
    return TokenMap(tokens, grids, segs)


def _seg_class(tag: str) -> int:
    """Relative-bias pair classes: templates (incl. dynamic) vs search."""
    return 1 if tag == "search" else 0


# ---------------------------------------------------------------------------
# patch embedding / merging
# ---------------------------------------------------------------------------

class PatchEmbed:
    """Strided conv tokenization of an RGB image."""

    def __init__(self, store: ParamStore, prefix: str, rng, in_ch: int,
                 channels: int, kernel: int, stride: int, padding: int = 0):
        self.kernel, self.stride, self.channels = kernel, stride, channels
        self.padding = padding
        self.in_ch = in_ch
        self.w = store.add(f"{prefix}.w", glorot_normal(
            rng, (channels, in_ch, kernel, kernel),
            in_ch * kernel * kernel, channels))
        self.b = store.add(f"{prefix}.b", np.zeros(channels, dtype=np.float32))

    def __call__(self, image: Tensor, tag: str) -> TokenMap:
        """image: (3, H, W), convolved through its (H, W, 3) view."""
        _, h, w = image.data.shape
        if self.kernel == self.stride and (h % self.stride or w % self.stride):
            raise DimensionError(
                f"image {h}x{w} not divisible by patch stride {self.stride}"
            )
        feat = ad.conv2d(ad.transpose(image, (1, 2, 0)), self.w, self.b,
                         stride=self.stride, padding=self.padding)
        ho, wo, c = feat.data.shape
        return TokenMap(ad.reshape(feat, (ho * wo, c)), [(ho, wo)], [tag])

    def flops(self, h: int, w: int) -> int:
        ho = (h + 2 * self.padding - self.kernel) // self.stride + 1
        wo = (w + 2 * self.padding - self.kernel) // self.stride + 1
        return 2 * ho * wo * self.channels * self.in_ch * self.kernel ** 2


class PatchMerge:
    """2x2 token grouping + linear 4*C_in -> C_out; halves each grid side."""

    def __init__(self, store: ParamStore, prefix: str, rng, c_in: int, c_out: int):
        self.c_in, self.c_out = c_in, c_out
        self.w = store.add(f"{prefix}.w", glorot_normal(
            rng, (4 * c_in, c_out), 4 * c_in, c_out))
        self.b = store.add(f"{prefix}.b", np.zeros(c_out, dtype=np.float32))

    def __call__(self, tm: TokenMap) -> TokenMap:
        h, w = tm.grid
        if h % 2 or w % 2:
            raise DimensionError(f"patch merge needs even grid sides, got {h}x{w}")
        c = tm.channels
        t = ad.reshape(tm.tokens, (h // 2, 2, w // 2, 2, c))
        t = ad.transpose(t, (0, 2, 1, 3, 4))
        t = ad.reshape(t, (h * w // 4, 4 * c))
        out = ad.linear(t, self.w, self.b)
        return TokenMap(out, [(h // 2, w // 2)], list(tm.segments))

    def flops(self, h: int, w: int) -> int:
        return 2 * (h * w // 4) * 4 * self.c_in * self.c_out


# ---------------------------------------------------------------------------
# relative position bias
# ---------------------------------------------------------------------------

class RelBiasTable:
    """Learned additive attention bias keyed by clipped 2-D offset and the
    4-way (template/search -> template/search) pair type."""

    def __init__(self, store: ParamStore, prefix: str, rng, max_side: int,
                 heads: int):
        self.max_side = max_side
        self.heads = heads
        self.span = 2 * max_side - 1
        self.table = store.add(
            f"{prefix}.table",
            trunc_normal(rng, (4 * self.span * self.span, heads)))
        self._idx_cache: dict = {}
        self._kept: dict = {}  # layout -> ((table dtype, bytes), bias)

    def _indices(self, layout: tuple):
        """(L, L) table rows, and the layout's scatter-matrix cache."""
        cached = self._idx_cache.get(layout)
        if cached is not None:
            return cached
        span, ms = self.span, self.max_side
        ys, xs, cls = [], [], []
        for tag, (h, w) in layout:
            yy, xx = np.mgrid[0:h, 0:w]
            ys.append(yy.ravel())
            xs.append(xx.ravel())
            cls.append(np.full(h * w, _seg_class(tag)))
        y, x, c = np.concatenate(ys), np.concatenate(xs), np.concatenate(cls)
        dy = np.clip(y[:, None] - y[None, :], -(ms - 1), ms - 1)
        dx = np.clip(x[:, None] - x[None, :], -(ms - 1), ms - 1)
        pair = 2 * c[:, None] + c[None, :]
        idx = (pair * span * span + (dy + ms - 1) * span + (dx + ms - 1)).astype(np.intp)
        entry = self._idx_cache[layout] = idx, {}
        return entry

    def bias(self, layout: tuple) -> Tensor:
        """(heads, L, L) additive pre-softmax bias of a token layout.

        Without a graph, each layout's bias is kept with the table's dtype
        and bytes, copied before the gather, and returned again while the
        table has the same dtype and bytes; an in-place optimizer step, a
        checkpoint load or a cast changes them and forces a new gather.
        With a graph it is always gathered and recorded."""
        table, keep = self.table.data, not ad.grad_enabled()
        stamp = (table.dtype, table.tobytes()) if keep else None
        kept = self._kept.get(layout, (None, None))
        if keep and kept[0] == stamp:
            return kept[1]
        idx, scatter_cache = self._indices(layout)
        rows = ad.take_rows(self.table, idx.reshape(-1), scatter_cache)
        # flattening the transposed rows copies them, so the bias is
        # C-ordered like the scores it is added to
        flat = ad.reshape(ad.transpose(rows, (1, 0)), (-1,))
        out = ad.reshape(flat, (self.heads, len(idx), len(idx)))
        if keep:
            self._kept[layout] = stamp, out
        return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

class Attention:
    """Multi-head scaled dot-product attention over token maps.

    sr_ratio 1 attends to every kv token (VG); sr_ratio r > 1 first pools
    each kv segment's grid with a depthwise r x r conv of stride r (SRG).
    """

    def __init__(self, store: ParamStore, prefix: str, rng, channels: int,
                 heads: int, sr_ratio: int = 1):
        if channels % heads:
            raise ConfigError(f"channels {channels} not divisible by heads {heads}")
        if sr_ratio < 1:
            raise ConfigError("sr_ratio must be >= 1")
        self.channels, self.heads = channels, heads
        self.head_dim = channels // heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.sr_ratio = sr_ratio
        add = store.add
        self.wq = add(f"{prefix}.wq", glorot_normal(
            rng, (channels, channels), channels, channels))
        self.wk = add(f"{prefix}.wk", glorot_normal(
            rng, (channels, channels), channels, channels))
        self.wv = add(f"{prefix}.wv", glorot_normal(
            rng, (channels, channels), channels, channels))
        self.wo = add(f"{prefix}.wo", glorot_normal(
            rng, (channels, channels), channels, channels))
        self.bq = add(f"{prefix}.bq", np.zeros(channels, dtype=np.float32))
        self.bk = add(f"{prefix}.bk", np.zeros(channels, dtype=np.float32))
        self.bv = add(f"{prefix}.bv", np.zeros(channels, dtype=np.float32))
        self.bo = add(f"{prefix}.bo", np.zeros(channels, dtype=np.float32))
        if self.sr_ratio > 1:
            r = self.sr_ratio
            self.sr_w = add(f"{prefix}.sr_w", glorot_normal(
                rng, (channels, 1, r, r), r * r, r * r))
            self.sr_b = add(f"{prefix}.sr_b", np.zeros(channels, dtype=np.float32))

    def _reduce_kv(self, kv: TokenMap) -> TokenMap:
        """Each segment's r x r windows, weighted per channel and summed."""
        r, c = self.sr_ratio, self.channels
        taps = ad.transpose(ad.reshape(self.sr_w, (c, r * r)), (1, 0))
        parts = []
        for seg in (kv.split() if not kv.is_single() else [kv]):
            h, w = seg.grid
            if h % r or w % r:
                raise DimensionError(f"kv grid {h}x{w} not divisible by r={r}")
            t = ad.reshape(seg.tokens, (h // r, r, w // r, r, c))
            t = ad.reshape(ad.transpose(t, (0, 2, 1, 3, 4)),
                           (h * w // (r * r), r * r, c))
            red = ad.add(ad.sum_(ad.mul(t, taps), axis=1), self.sr_b)
            parts.append(TokenMap(red, [(h // r, w // r)], seg.segments))
        return parts[0] if len(parts) == 1 else concat_maps(parts)

    def _heads(self, t: Tensor, length: int) -> Tensor:
        return ad.transpose(ad.reshape(t, (length, self.heads, self.head_dim)),
                            (1, 0, 2))

    def __call__(self, q_src: TokenMap, kv_src: TokenMap,
                 bias=None) -> Tensor:
        # bias: an additive (heads, Lq, Lk) score term, Tensor or array
        if q_src.channels != self.channels or kv_src.channels != self.channels:
            raise DimensionError(
                f"token channels {q_src.channels}/{kv_src.channels} != "
                f"attention channels {self.channels}"
            )
        kv = self._reduce_kv(kv_src) if self.sr_ratio > 1 else kv_src
        lq, lk = q_src.length, kv.length
        q = self._heads(ad.linear(q_src.tokens, self.wq, self.bq), lq)
        k = self._heads(ad.linear(kv.tokens, self.wk, self.bk), lk)
        v = self._heads(ad.linear(kv.tokens, self.wv, self.bv), lk)
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), self.scale)
        if bias is not None:
            scores = ad.add(scores, bias)
        attn = ad.softmax_lastdim(scores)
        out = ad.matmul(attn, v)  # (H, Lq, d)
        out = ad.reshape(ad.transpose(out, (1, 0, 2)), (lq, self.channels))
        return ad.linear(out, self.wo, self.bo)

    def flops(self, lq: int, lkv: int) -> int:
        c = self.channels
        r = self.sr_ratio
        lred = lkv // (r * r)
        total = 2 * c * c * lq + 2 * c * c * lred + 2 * c * lq * lred
        if r > 1:
            total += 2 * lred * c * r * r  # depthwise reduction conv
        return total


# ---------------------------------------------------------------------------
# MLP (with optional conditional-PE depthwise conv)
# ---------------------------------------------------------------------------

class Mlp:
    def __init__(self, store: ParamStore, prefix: str, rng, channels: int,
                 hidden: int, cond_pe: bool = False):
        self.channels, self.hidden, self.cond_pe = channels, hidden, cond_pe
        self.w1 = store.add(f"{prefix}.w1", glorot_normal(
            rng, (channels, hidden), channels, hidden))
        self.b1 = store.add(f"{prefix}.b1", np.zeros(hidden, dtype=np.float32))
        self.w2 = store.add(f"{prefix}.w2", glorot_normal(
            rng, (hidden, channels), hidden, channels))
        self.b2 = store.add(f"{prefix}.b2", np.zeros(channels, dtype=np.float32))
        if cond_pe:
            self.pe_w = store.add(f"{prefix}.pe_w", glorot_normal(
                rng, (hidden, 1, 3, 3), 9, 9))
            self.pe_b = store.add(f"{prefix}.pe_b", np.zeros(hidden, dtype=np.float32))

    def __call__(self, tokens: Tensor, layout: Optional[tuple] = None) -> Tensor:
        h = ad.linear(tokens, self.w1, self.b1)
        if self.cond_pe:
            if layout is None:
                raise ContractError("conditional PE needs the token layout")
            parts, off = [], 0
            for _, grid in layout:
                n = grid[0] * grid[1]
                seg = ad.index(h, (slice(off, off + n), slice(None)))
                parts.append(ad.add(seg, ad.depthwise_conv3x3(
                    seg, grid, self.pe_w, self.pe_b, pad="zero")))
                off += n
            h = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
        return ad.linear(ad.gelu(h), self.w2, self.b2)

    def flops(self, length: int) -> int:
        total = 4 * length * self.channels * self.hidden
        if self.cond_pe:
            total += 2 * length * self.hidden * 9
        return total


class LayerNormParams:
    def __init__(self, store: ParamStore, prefix: str, channels: int):
        self.gamma = store.add(f"{prefix}.gamma", np.ones(channels, dtype=np.float32))
        self.beta = store.add(f"{prefix}.beta", np.zeros(channels, dtype=np.float32))

    def __call__(self, tokens: Tensor) -> Tensor:
        return ad.layer_norm(tokens, self.gamma, self.beta)


# ---------------------------------------------------------------------------
# FRM / URM layers
# ---------------------------------------------------------------------------

class PreNormBlock:
    """Pre-LN attention + residual, then pre-LN MLP + residual.
    ``self_block`` runs it as self-attention over one token map."""

    def __init__(self, store: ParamStore, prefix: str, rng, channels: int,
                 heads: int, mlp_ratio: float = 4.0, sr_ratio: int = 1,
                 cond_pe: bool = False):
        self.ln1 = LayerNormParams(store, f"{prefix}.ln1", channels)
        self.attn = Attention(store, f"{prefix}.attn", rng, channels, heads,
                              sr_ratio=sr_ratio)
        self.ln2 = LayerNormParams(store, f"{prefix}.ln2", channels)
        self.mlp = Mlp(store, f"{prefix}.mlp", rng, channels,
                       int(channels * mlp_ratio), cond_pe=cond_pe)
        # a joint block's RelBiasTable, set by the model that builds it
        self.rel_bias: Optional[RelBiasTable] = None

    def _attend(self, tm: TokenMap, bias=None) -> Tensor:
        """Residual self-attention step. bias: an additive score term of
        tm's layout (a segment_mask); without one, the block's relative
        bias of that layout, if it has a table."""
        if bias is None and self.rel_bias is not None:
            bias = self.rel_bias.bias(tm.layout())
        normed = tm.with_tokens(self.ln1(tm.tokens))
        return ad.add(tm.tokens, self.attn(normed, normed, bias=bias))

    def _mlp_update(self, tm: TokenMap, t: Tensor) -> TokenMap:
        return tm.with_tokens(ad.add(t, self.mlp(self.ln2(t),
                                                 layout=tm.layout())))

    def self_block(self, tm: TokenMap, bias=None) -> TokenMap:
        return self._mlp_update(tm, self._attend(tm, bias))

    def flops(self, lq: int, lkv: Optional[int] = None) -> int:
        """lq query tokens attending to lkv tokens (default: themselves)."""
        lkv = lq if lkv is None else lkv
        return self.attn.flops(lq, lkv) + self.mlp.flops(lq)


class FrmLayer(PreNormBlock):
    """Feature relation modeling: the block as SA within each image, or
    as CA across template and search."""

    def attention_update(self, z: TokenMap, x: TokenMap):
        """Residual cross-attention step only; returns updated token tensors."""
        if z.channels != x.channels:
            raise DimensionError("template/search channel mismatch")
        zn = z.with_tokens(self.ln1(z.tokens))
        xn = x.with_tokens(self.ln1(x.tokens))
        return (ad.add(z.tokens, self.attn(zn, xn)),
                ad.add(x.tokens, self.attn(xn, zn)))

    def __call__(self, z: TokenMap, x: TokenMap, mode: str):
        if mode == "SA":
            return self.self_block(z), self.self_block(x)
        if mode != "CA":
            raise ConfigError(f"unknown FRM mode {mode}")
        zt, xt = self.attention_update(z, x)
        return self._mlp_update(z, zt), self._mlp_update(x, xt)


class UrmLayer(PreNormBlock):
    """Unified relation modeling: the block as one MHSA over the
    concatenated template(+dynamic)+search tokens."""

    attention_update = PreNormBlock._attend
    __call__ = PreNormBlock.self_block


def segment_mask(tm: TokenMap, keep: str) -> np.ndarray:
    """Additive attention mask restricting key visibility.

    keep="same": queries see only keys of their own segment;
    keep="cross": queries see only keys of other segments.
    """
    if keep not in ("same", "cross"):
        raise ContractError("keep must be 'same' or 'cross'")
    ids = np.concatenate([
        np.full(h * w, i) for i, (h, w) in enumerate(tm.grids)
    ])
    same = ids[:, None] == ids[None, :]
    allowed = same if keep == "same" else ~same
    mask = np.where(allowed, 0.0, -np.inf)
    return mask.astype(tm.tokens.data.dtype)


# ---------------------------------------------------------------------------
# local modeling layer (shallow stages)
# ---------------------------------------------------------------------------

class LocalLayer:
    """Shallow-stage block: depthwise 3x3 conv + channel MLP (pre-LN,
    residual), then a second pre-LN MLP residual.

    The conv uses replicate padding so a constant token field stays
    constant.
    """

    def __init__(self, store: ParamStore, prefix: str, rng, channels: int,
                 mlp_ratio: float = 3.0):
        self.channels = channels
        hidden = int(channels * mlp_ratio)
        self.ln1 = LayerNormParams(store, f"{prefix}.ln1", channels)
        self.dw_w = store.add(f"{prefix}.dw_w", glorot_normal(
            rng, (channels, 1, 3, 3), 9, 9))
        self.dw_b = store.add(f"{prefix}.dw_b", np.zeros(channels, dtype=np.float32))
        self.mlp1 = Mlp(store, f"{prefix}.mlp1", rng, channels, hidden)
        self.ln2 = LayerNormParams(store, f"{prefix}.ln2", channels)
        self.mlp2 = Mlp(store, f"{prefix}.mlp2", rng, channels, hidden)

    def __call__(self, tm: TokenMap) -> TokenMap:
        if not tm.is_single():
            raise ContractError("local layer operates on single-image maps")
        mixed = ad.depthwise_conv3x3(self.ln1(tm.tokens), tm.grid, self.dw_w,
                                     self.dw_b, pad="edge")
        t = ad.add(tm.tokens, self.mlp1(mixed))
        t = ad.add(t, self.mlp2(self.ln2(t)))
        return tm.with_tokens(t)

    def flops(self, length: int) -> int:
        return (2 * length * self.channels * 9 + self.mlp1.flops(length)
                + self.mlp2.flops(length))


# ---------------------------------------------------------------------------
# Eq.-8 style decomposition oracle for cross-attention
# ---------------------------------------------------------------------------

def ca_dynamic_conv_oracle(z: TokenMap, x: TokenMap, frm: FrmLayer) -> np.ndarray:
    """Cross-attention for the search map computed as two template-generated
    dynamic linear maps with a softmax between and a residual, via naive
    per-position loops. Verification oracle for the vectorized CA path."""
    with ad.no_grad():
        zn = frm.ln1(z.tokens).data
        xn = frm.ln1(x.tokens).data
    a = frm.attn
    q = xn @ a.wq.data + a.bq.data
    k = zn @ a.wk.data + a.bk.data
    v = zn @ a.wv.data + a.bv.data
    lx, lz = xn.shape[0], zn.shape[0]
    nh, hd = a.heads, a.head_dim
    out = np.zeros((lx, a.channels), dtype=xn.dtype)
    for h in range(nh):
        sl = slice(h * hd, (h + 1) * hd)
        w1 = k[:, sl]  # first dynamic filter bank, generated by z
        w2 = v[:, sl]  # second dynamic filter bank, generated by z
        for n in range(lx):
            logits = np.empty(lz, dtype=xn.dtype)
            for m in range(lz):
                logits[m] = float(np.dot(w1[m], q[n, sl])) * a.scale
            e = np.exp(logits - logits.max())
            attn = e / e.sum()
            acc = np.zeros(hd, dtype=xn.dtype)
            for m in range(lz):
                acc += attn[m] * w2[m]
            out[n, sl] = acc
    return out @ a.wo.data + a.bo.data + x.tokens.data
