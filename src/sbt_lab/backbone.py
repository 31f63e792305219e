"""Variant assembly, joint forward passes, cost counting, masked-image
pretraining, and checkpoint I/O.

A variant is a staged token pipeline: patch embed, shallow per-image
stages, then a final stage that fuses template and search tokens (joint
self-attention over the concatenation, or interleaved self/cross
attention), followed by a prediction head.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, glorot_normal, trunc_normal
from .errors import ConfigError, DimensionError, FormatError
from .head import ConvHead, MixMlpHead
from .layers import (
    FrmLayer, InterConv, LayerNormParams, LocalLayer, PatchEmbed, PatchMerge,
    RelBiasTable, TokenMap, UrmLayer, concat_maps,
)

TOTAL_STRIDE = 16

STAGE_OPERATORS = ("mlp-local", "srg", "vg")
PE_MODES = ("abs", "rel", "cond", "none")
PATTERNS = ("urm", "interleave")
HEADS = ("conv", "mixmlp")
INTER_STAGE = ("merge", "conv")

# a variant file past these is refused before any array is allocated; the
# named variants stay well inside (768 channels, 3072-wide MLPs, 20 blocks
# a stage, 256 px inputs, 16 px embed kernels)
MAX_CHANNELS = 4096
MAX_MLP_WIDTH = 4 * MAX_CHANNELS
MAX_BLOCKS = 64
MAX_INPUT_SIZE = 1024
MAX_EMBED_KERNEL = 64


@dataclass
class StageConfig:
    operator: str
    channels: int
    blocks: int
    heads: int = 1
    mlp_ratio: float = 4.0
    sr_ratio: int = 1


@dataclass
class VariantConfig:
    name: str
    stages: list
    embed_kernel: int
    embed_stride: int
    embed_padding: int = 0
    inter_stage: str = "merge"
    pe: str = "rel"
    pattern: str = "urm"
    head: str = "mixmlp"
    template_size: int = 128
    search_size: int = 256

    def validate(self):
        if not self.stages:
            raise ConfigError("variant needs at least one stage")
        stride = self.embed_stride * 2 ** (len(self.stages) - 1)
        if stride != TOTAL_STRIDE:
            raise ConfigError(
                f"total stride {stride} != {TOTAL_STRIDE} "
                f"(embed stride {self.embed_stride}, {len(self.stages)} stages)"
            )
        if self.pe not in PE_MODES:
            raise ConfigError(f"unknown PE mode {self.pe}")
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown layer pattern {self.pattern}")
        if self.head not in HEADS:
            raise ConfigError(f"unknown head type {self.head}")
        if self.inter_stage not in INTER_STAGE:
            raise ConfigError(f"unknown inter-stage op {self.inter_stage}")
        if self.pe == "rel" and self.pattern != "urm":
            # only the joint-attention blocks read a relative-bias table
            raise ConfigError("rel PE needs the urm pattern")
        if not (1 <= self.embed_kernel <= MAX_EMBED_KERNEL
                and self.embed_padding >= 0):
            raise ConfigError(f"embed kernel must be from 1 to "
                              f"{MAX_EMBED_KERNEL} and padding non-negative")
        for i, st in enumerate(self.stages):
            last = i == len(self.stages) - 1
            if st.operator not in STAGE_OPERATORS:
                raise ConfigError(f"unknown stage operator {st.operator}")
            if st.blocks < 1 or st.channels < 1 or st.heads < 1:
                raise ConfigError("stage blocks/channels/heads must be positive")
            if st.channels > MAX_CHANNELS or st.blocks > MAX_BLOCKS:
                raise ConfigError(
                    f"stage {i + 1}: channels {st.channels} must be <= "
                    f"{MAX_CHANNELS} and blocks {st.blocks} <= {MAX_BLOCKS}")
            width = st.channels * st.mlp_ratio
            if not (np.isfinite(width) and 1 <= width <= MAX_MLP_WIDTH):
                raise ConfigError(
                    f"stage {i + 1}: mlp_ratio {st.mlp_ratio} must be finite "
                    f"and give an MLP width from 1 to {MAX_MLP_WIDTH}")
            if st.sr_ratio < 1 or (st.sr_ratio != 1 and st.operator != "srg"):
                raise ConfigError(
                    f"stage {i + 1}: sr_ratio {st.sr_ratio} needs an srg stage "
                    f"and must be >= 1")
            if st.operator != "mlp-local" and st.channels % st.heads:
                raise ConfigError(
                    f"stage {i + 1}: channels {st.channels} not divisible "
                    f"by heads {st.heads}"
                )
            if last and st.operator == "mlp-local":
                raise ConfigError("final stage must be an attention stage")
        if self.pe == "abs" and self.stages[0].channels % 4:
            raise ConfigError(
                f"abs PE needs stage 1 channels divisible by 4, got "
                f"{self.stages[0].channels}")
        if self.pattern == "urm" and self.stages[-1].operator != "vg":
            raise ConfigError("joint self-attention pattern needs a VG final stage")
        if (min(self.search_size, self.template_size) < TOTAL_STRIDE
                or max(self.search_size, self.template_size) > MAX_INPUT_SIZE
                or self.search_size % TOTAL_STRIDE
                or self.template_size % TOTAL_STRIDE):
            raise ConfigError(
                f"input sizes must be multiples of the total stride from "
                f"{TOTAL_STRIDE} to {MAX_INPUT_SIZE}")
        for size, role in ((self.template_size, "template"),
                           (self.search_size, "search")):
            # later stages halve this grid, so it must be size / stride
            if self.grid_side(size, 0) * self.embed_stride != size:
                raise ConfigError(
                    f"embed kernel {self.embed_kernel} with padding "
                    f"{self.embed_padding} gives a {self.grid_side(size, 0)}-"
                    f"token grid side for input size {size}, not "
                    f"{size // self.embed_stride}")
            for i, st in enumerate(self.stages):
                side = self.grid_side(size, i)
                if side % st.sr_ratio:
                    raise ConfigError(
                        f"stage {i + 1}: sr_ratio {st.sr_ratio} does not "
                        f"divide its {side}x{side} {role} grid")

    def grid_side(self, image_side: int, stage: int) -> int:
        side = (image_side + 2 * self.embed_padding
                - self.embed_kernel) // self.embed_stride + 1
        return side // 2 ** stage


_NAMED = {}


def _register_named():
    _NAMED["plain-sbt"] = VariantConfig(
        name="plain-sbt",
        stages=[StageConfig("vg", 768, 12, heads=12)],
        embed_kernel=16, embed_stride=16,
        inter_stage="conv", pe="abs", pattern="interleave", head="conv",
    )
    _NAMED["hi-sbt"] = VariantConfig(
        name="hi-sbt",
        stages=[
            StageConfig("srg", 128, 3, heads=1, sr_ratio=8),
            StageConfig("srg", 256, 4, heads=2, sr_ratio=4),
            StageConfig("srg", 320, 10, heads=5, sr_ratio=2),
        ],
        embed_kernel=7, embed_stride=4, embed_padding=3,
        inter_stage="conv", pe="cond", pattern="interleave", head="conv",
    )
    for suffix, blocks in (("light", 6), ("small", 10), ("base", 20)):
        _NAMED[f"supersbt-{suffix}"] = VariantConfig(
            name=f"supersbt-{suffix}",
            stages=[
                StageConfig("mlp-local", 128, 2, mlp_ratio=3.0),
                StageConfig("mlp-local", 256, 2, mlp_ratio=3.0),
                StageConfig("vg", 512, blocks, heads=8),
            ],
            embed_kernel=4, embed_stride=4,
            inter_stage="merge", pe="rel", pattern="urm", head="mixmlp",
        )


_register_named()

VARIANT_NAMES = tuple(sorted(_NAMED))


def named_config(name: str) -> VariantConfig:
    if name not in _NAMED:
        raise ConfigError(
            f"unknown variant {name!r}; known: {', '.join(VARIANT_NAMES)}"
        )
    cfg = _NAMED[name]
    return replace(cfg, stages=[replace(s) for s in cfg.stages])


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "name": str, "embed_kernel": int, "embed_stride": int,
    "embed_padding": int, "inter_stage": str, "pe": str, "pattern": str,
    "head": str, "template_size": int, "search_size": int,
}
_STAGE_KEYS = {
    "operator": str, "channels": int, "blocks": int, "heads": int,
    "mlp_ratio": float, "sr_ratio": int,
}


def parse_variant_config(text: str) -> VariantConfig:
    """Line-based `key = value` text with [stageN] section headers."""
    top: dict = {}
    stages: dict[int, dict] = {}
    section: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            tag = line[1:-1].strip()
            if not tag.startswith("stage"):
                raise ConfigError(f"line {lineno}: unknown section [{tag}]")
            try:
                section = int(tag[len("stage"):])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad stage section [{tag}]")
            if section < 1:
                raise ConfigError(f"line {lineno}: stage numbers start at 1")
            stages.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        schema = _TOP_KEYS if section is None else _STAGE_KEYS
        if key not in schema:
            where = "top level" if section is None else f"[stage{section}]"
            raise ConfigError(f"line {lineno}: unknown key {key!r} at {where}")
        try:
            parsed = schema[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}")
        target = top if section is None else stages[section]
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[key] = parsed
    if not stages:
        raise ConfigError("config defines no stages")
    if sorted(stages) != list(range(1, len(stages) + 1)):
        raise ConfigError("stage sections must be contiguous from [stage1]")
    stage_cfgs = []
    for i in range(1, len(stages) + 1):
        s = stages[i]
        for req in ("operator", "channels", "blocks"):
            if req not in s:
                raise ConfigError(f"[stage{i}] missing required key {req!r}")
        stage_cfgs.append(StageConfig(**s))
    for req in ("embed_kernel", "embed_stride"):
        if req not in top:
            raise ConfigError(f"missing required key {req!r}")
    top.setdefault("name", "custom")
    cfg = VariantConfig(stages=stage_cfgs, **top)
    cfg.validate()
    return cfg


def load_variant_file(path) -> VariantConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_variant_config(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")


# ---------------------------------------------------------------------------
# positional encodings
# ---------------------------------------------------------------------------

def sincos_2d(channels: int, h: int, w: int) -> np.ndarray:
    """Fixed 2-D sine/cosine position table, (h*w, channels); channels
    divisible by 4, which VariantConfig.validate checks for pe = abs."""
    d = channels // 4
    omega = 1.0 / 10000.0 ** (np.arange(d) / d)
    ys, xs = np.mgrid[0:h, 0:w]
    ys, xs = ys.ravel()[:, None] * omega, xs.ravel()[:, None] * omega
    out = np.concatenate(
        [np.sin(ys), np.cos(ys), np.sin(xs), np.cos(xs)], axis=1)
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class Model:
    """A built variant: parameter store plus the derived layer graph.

    seed None draws no random values: every parameter that would be drawn
    is zero instead, for ``load_checkpoint`` to replace.
    """

    def __init__(self, config: VariantConfig, seed: Optional[int] = 42):
        config.validate()
        self.cfg = config
        self.store = ParamStore()
        rng = None if seed is None else np.random.default_rng(seed)
        stages = config.stages
        cond = config.pe == "cond"

        self.embed = PatchEmbed(self.store, "embed", rng, 3, stages[0].channels,
                                kernel=config.embed_kernel,
                                stride=config.embed_stride,
                                padding=config.embed_padding)
        self.stage_blocks: list[list] = []
        self.inter_ops: list = []
        for si, st in enumerate(stages):
            last = si == len(stages) - 1
            blocks = []
            for bi in range(st.blocks):
                prefix = f"stage{si + 1}.block{bi}"
                if st.operator == "mlp-local":
                    blocks.append(LocalLayer(self.store, prefix, rng,
                                             st.channels,
                                             mlp_ratio=st.mlp_ratio))
                else:
                    joint = last and config.pattern == "urm"
                    blocks.append((UrmLayer if joint else FrmLayer)(
                        self.store, prefix, rng, st.channels, st.heads,
                        mlp_ratio=st.mlp_ratio, sr_ratio=st.sr_ratio,
                        cond_pe=cond))
            self.stage_blocks.append(blocks)
            if not last:
                nxt = stages[si + 1]
                if config.inter_stage == "merge":
                    self.inter_ops.append(PatchMerge(
                        self.store, f"inter{si + 1}", rng, st.channels,
                        nxt.channels))
                else:
                    self.inter_ops.append(InterConv(
                        self.store, f"inter{si + 1}", rng, st.channels,
                        nxt.channels))

        if config.pe == "rel" and config.pattern == "urm":
            max_side = config.search_size // TOTAL_STRIDE
            for bi, blk in enumerate(self.stage_blocks[-1]):
                blk.rel_bias = RelBiasTable(
                    self.store, f"stage{len(stages)}.block{bi}.relbias", rng,
                    max_side=max_side, heads=stages[-1].heads)

        # the blocks are pre-norm, so the residual stream is unnormalized;
        # without this closing norm its magnitude grows with depth and
        # training time until the heads' sigmoids saturate
        c_last = stages[-1].channels
        self.final_ln = LayerNormParams(self.store, "final_ln", c_last)
        if config.head == "conv":
            self.head = ConvHead(self.store, "head", rng, c_last)
        else:
            tokens = (config.search_size // TOTAL_STRIDE) ** 2
            self.head = MixMlpHead(self.store, "head", rng, c_last, tokens)
        # pe = abs adds the fixed sine table of each input's first-stage grid
        self._abs_pe = {}
        if config.pe == "abs":
            for size in (config.template_size, config.search_size):
                s = config.grid_side(size, 0)
                self._abs_pe[s, s] = sincos_2d(stages[0].channels, s, s)

    # -- forward -------------------------------------------------------

    def encode_early(self, image: Tensor, tag: str) -> TokenMap:
        """Embed one image and run every stage before the joint stage.

        Inputs are centered first: with raw [0, 1] intensities the shared
        gray level sums coherently over every embed patch and swamps the
        texture signal the tracker needs.
        """
        tm = self.embed(ad.add(image, -0.5), tag)
        if self.cfg.pe == "abs":
            tm = tm.with_tokens(ad.add(tm.tokens, self._abs_pe[tm.grid]))
        for blocks, inter in zip(self.stage_blocks[:-1], self.inter_ops):
            for blk in blocks:
                tm = blk(tm) if isinstance(blk, LocalLayer) else blk.self_block(tm)
            tm = inter(tm)
        return tm

    def forward_joint(self, z: TokenMap, x: TokenMap,
                      dyn: Optional[TokenMap] = None):
        """Run the joint final stage; returns (f_z, f_x)."""
        blocks = self.stage_blocks[-1]
        if self.cfg.pattern == "urm":
            parts = [z] + ([dyn] if dyn is not None else []) + [x]
            zx = concat_maps(parts)
            for blk in blocks:
                zx = blk(zx)
            zx = zx.with_tokens(self.final_ln(zx.tokens))
            return zx.segment("template"), zx.segment("search")
        zmap = z if dyn is None else concat_maps([z, dyn])
        xmap = x
        for i, blk in enumerate(blocks):
            mode = "SA" if i % 2 == 0 else "CA"
            zmap, xmap = blk(zmap, xmap, mode)
        f_z = zmap.segment("template")
        f_z = f_z.with_tokens(self.final_ln(f_z.tokens))
        return f_z, xmap.with_tokens(self.final_ln(xmap.tokens))

    def _check_size(self, image: Tensor, side: int, what: str):
        if image.data.shape != (3, side, side):
            raise DimensionError(
                f"{what} image shape {image.data.shape} != (3, {side}, {side})"
            )

    def forward_pair(self, template: Tensor, search: Tensor,
                     dyn_template: Optional[Tensor] = None):
        """Full pass: per-image shallow stages, then the joint stage."""
        self._check_size(template, self.cfg.template_size, "template")
        self._check_size(search, self.cfg.search_size, "search")
        z = self.encode_early(template, "template")
        x = self.encode_early(search, "search")
        dyn = None
        if dyn_template is not None:
            self._check_size(dyn_template, self.cfg.template_size,
                             "dynamic template")
            dyn = self.encode_early(dyn_template, "dyn_template")
        return self.forward_joint(z, x, dyn)

    def predict(self, template: Tensor, search: Tensor,
                dyn_template: Optional[Tensor] = None):
        f_z, f_x = self.forward_pair(template, search, dyn_template)
        return self.head(f_x)


def build_variant(spec, seed: Optional[int] = 42) -> Model:
    """Build a model from a known variant name or a VariantConfig.

    With seed None nothing is drawn (see Model): for a checkpoint to
    fill, or for reading shapes and counts only.
    """
    if isinstance(spec, str):
        spec = named_config(spec)
    try:
        return Model(spec, seed=seed)
    except (MemoryError, OSError) as e:  # OSError: trunc_normal's mmap
        raise ConfigError(f"cannot allocate variant {spec.name}: "
                          f"{str(e) or 'out of memory'}") from None


def count_params(m: Model) -> int:
    return m.store.num_values()


def count_flops(m: Model):
    """Analytic forward cost for one (template, search) pair.

    Returns (total, breakdown) with one (label, flops) entry per layer.
    """
    cfg = m.cfg
    entries: list[tuple[str, int]] = []
    sides = {
        "z": cfg.grid_side(cfg.template_size, 0),
        "x": cfg.grid_side(cfg.search_size, 0),
    }
    entries.append(("embed", m.embed.flops(cfg.template_size, cfg.template_size)
                    + m.embed.flops(cfg.search_size, cfg.search_size)))
    n_stages = len(cfg.stages)
    for si, blocks in enumerate(m.stage_blocks[:-1]):
        lz, lx = sides["z"] ** 2, sides["x"] ** 2
        for bi, blk in enumerate(blocks):
            entries.append((f"stage{si + 1}.block{bi}",
                            blk.flops(lz) + blk.flops(lx)))
        inter = m.inter_ops[si]
        entries.append((f"inter{si + 1}",
                        inter.flops(sides["z"], sides["z"])
                        + inter.flops(sides["x"], sides["x"])))
        sides["z"] //= 2
        sides["x"] //= 2
    lz, lx = sides["z"] ** 2, sides["x"] ** 2
    for bi, blk in enumerate(m.stage_blocks[-1]):
        if cfg.pattern == "urm":
            fl = blk.flops(lz + lx)
        else:
            # interleaved: even blocks attend within each map, odd across
            kz, kx = (lx, lz) if bi % 2 else (lz, lx)
            fl = blk.flops(lz, kz) + blk.flops(lx, kx)
        entries.append((f"stage{n_stages}.block{bi}", fl))
    entries.append(("head", m.head.flops(lx)))
    return sum(f for _, f in entries), entries


# ---------------------------------------------------------------------------
# masked-image pretraining
# ---------------------------------------------------------------------------

class MimPretrainer:
    """Pixel-reconstruction pretraining head over a variant encoder.

    The mask is applied at the input (SimMIM): masked 16x16 patches are
    painted 0.5, which the encoder's centring maps to 0, so no token sees
    a masked pixel. The tracker's own encoder then runs dense, its final
    stage as self-attention with its relative bias, so every variant can
    pretrain. A small decoder reconstructs the masked patches' pixels.
    """

    DECODER_CHANNELS = 256
    DECODER_BLOCKS = 2
    DECODER_HEADS = 8

    def __init__(self, model: Model, seed: int = 0):
        self.model = model
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        c_enc = model.cfg.stages[-1].channels
        channels = self.DECODER_CHANNELS
        self.grid = model.cfg.search_size // TOTAL_STRIDE
        self.patch_dim = 3 * TOTAL_STRIDE * TOTAL_STRIDE
        add = self.store.add
        self.proj_w = add("proj.w", glorot_normal(
            rng, (c_enc, channels), c_enc, channels))
        self.proj_b = add("proj.b", np.zeros(channels, dtype=np.float32))
        self.blocks = [
            UrmLayer(self.store, f"dec{i}", rng, channels, self.DECODER_HEADS)
            for i in range(self.DECODER_BLOCKS)
        ]
        self.ln = LayerNormParams(self.store, "dec_ln", channels)
        # small output projection: untrained reconstruction stays near
        # zero so the initial loss equals the pixel variance baseline
        self.out_w = add("out.w", trunc_normal(rng, (channels, self.patch_dim)))
        self.out_b = add("out.b", np.zeros(self.patch_dim, dtype=np.float32))
        self.pe = sincos_2d(channels, self.grid, self.grid)

    @staticmethod
    def masked_count(config: VariantConfig, mask_ratio: float) -> int:
        """How many of a search crop's patches mask_ratio masks."""
        length = (config.search_size // TOTAL_STRIDE) ** 2
        # NaN fails both comparisons
        if not 0.0 < mask_ratio < 1.0:
            raise ConfigError(f"mask ratio {mask_ratio} not in (0, 1)")
        n_mask = int(round(length * mask_ratio))
        if not 0 < n_mask < length:
            raise ConfigError(f"mask ratio {mask_ratio} masks {n_mask} of "
                              f"{length} patches: none visible or none masked")
        return n_mask

    def split_indices(self, mask_ratio: float, rng: np.random.Generator):
        length = self.grid * self.grid
        n_mask = self.masked_count(self.model.cfg, mask_ratio)
        return np.sort(rng.permutation(length)[length - n_mask:])

    def patch_targets(self, image: np.ndarray) -> np.ndarray:
        """Per-patch-normalized pixels, (tokens, patch_dim)."""
        s, g = TOTAL_STRIDE, self.grid
        p = image.reshape(3, g, s, g, s).transpose(1, 3, 0, 2, 4)
        p = p.reshape(g * g, self.patch_dim).astype(np.float64)
        mu = p.mean(axis=1, keepdims=True)
        sd = np.sqrt(p.var(axis=1, keepdims=True) + 1e-6)
        return ((p - mu) / sd).astype(image.dtype)

    def encode(self, image: Tensor, masked: np.ndarray) -> Tensor:
        """The encoder's final-norm tokens, (tokens, channels), for image
        with the patches at token indices `masked` painted gray."""
        model, s, g = self.model, TOTAL_STRIDE, self.grid
        pixels = image.data.copy()
        pixels.reshape(3, g, s, g, s)[:, masked // g, :, masked % g, :] = 0.5
        tm = model.encode_early(Tensor(pixels), "search")
        for blk in model.stage_blocks[-1]:
            # one image: every block acts as self-attention
            tm = blk.self_block(tm)
        return model.final_ln(tm.tokens)

    def loss(self, image: Tensor, mask_ratio: float,
             rng: np.random.Generator) -> Tensor:
        model = self.model
        model._check_size(image, model.cfg.search_size, "pretraining")
        masked = self.split_indices(mask_ratio, rng)
        enc = ad.linear(self.encode(image, masked), self.proj_w, self.proj_b)
        dtm = TokenMap(ad.add(enc, self.pe.astype(enc.data.dtype)),
                       [(self.grid, self.grid)], ["search"])
        for blk in self.blocks:
            dtm = blk(dtm)
        pred = ad.linear(self.ln(dtm.tokens), self.out_w, self.out_b)
        target = self.patch_targets(image.data)
        diff = ad.add(ad.take_rows(pred, masked), -target[masked])
        return ad.mean(diff * diff)


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SBTC"
CHECKPOINT_VERSION = 1


def save_checkpoint(m: Model, path):
    """Write every parameter as little-endian float32 with a trailing CRC32.

    Each header and array buffer goes to the file as it is made, so no
    whole-file copy is held in memory.
    """
    items = list(m.store.items())
    crc = 0
    with open(path, "wb") as fh:

        def put(chunk):
            nonlocal crc
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)

        put(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION,
                                           len(items)))
        for name, p in items:
            nb = name.encode("utf-8")
            arr = np.ascontiguousarray(p.data, dtype="<f4")
            put(struct.pack("<H", len(nb)) + nb
                + struct.pack(f"<BB{arr.ndim}I", 0, arr.ndim, *arr.shape))
            put(memoryview(arr.reshape(-1)).cast("B"))
        fh.write(struct.pack("<I", crc))


class _EntryReader:
    """Reads a checkpoint body front to back, keeping its running CRC32.

    Each read is bounded by the body, which is the file without its
    4-byte CRC trailer; a read past it is a truncated file.
    """

    def __init__(self, fh, body_len: int):
        self.fh, self.body_len = fh, body_len
        self.off = 0
        self.crc = 0

    def _take(self, n: int):
        if self.off + n > self.body_len:
            raise FormatError("checkpoint truncated")
        self.off += n

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        self._take(size)
        chunk = self.fh.read(size)
        if len(chunk) != size:
            raise FormatError("checkpoint truncated")
        self.crc = zlib.crc32(chunk, self.crc)
        return struct.unpack(fmt, chunk)

    def read_into(self, arr: np.ndarray):
        """Fill a fresh C-ordered array straight from the file."""
        view = memoryview(arr.reshape(-1)).cast("B")
        self._take(len(view))
        if self.fh.readinto(view) != len(view):
            raise FormatError("checkpoint truncated")
        self.crc = zlib.crc32(view, self.crc)

    def body_crc(self) -> int:
        """The CRC of the whole body: the rest is read and folded in."""
        while self.off < self.body_len:
            chunk = self.fh.read(min(1 << 20, self.body_len - self.off))
            if not chunk:
                break
            self.off += len(chunk)
            self.crc = zlib.crc32(chunk, self.crc)
        return self.crc


def _read_entries(reader: _EntryReader) -> dict:
    """Name -> array for every checkpoint entry, each read into its own
    new array; FormatError for a malformed body."""
    (magic,) = reader.unpack("<4s")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    version, count = reader.unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = reader.unpack("<H")
        (nb,) = reader.unpack(f"<{nlen}s")
        try:
            name = nb.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"checkpoint parameter name {nb!r} is not UTF-8")
        dtype_tag, rank = reader.unpack("<BB")
        if dtype_tag != 0:
            raise FormatError(f"unknown dtype tag {dtype_tag} for {name}")
        shape = reader.unpack(f"<{rank}I")
        if name in state:
            raise FormatError(f"duplicate parameter {name}")
        # checked before the array is made, so a bogus shape allocates
        # nothing
        if reader.off + 4 * math.prod(shape) > reader.body_len:
            raise FormatError("checkpoint truncated")
        arr = np.empty(shape, dtype="<f4")
        reader.read_into(arr)
        state[name] = arr
    if reader.off != reader.body_len:
        raise FormatError("trailing bytes after checkpoint entries")
    return state


def load_checkpoint(path, m: Model) -> Model:
    """Load parameters into a built model; shapes must match exactly.

    Each entry is read straight into its own new array under a running
    CRC; the model's arrays are swapped for them only after the CRC, the
    parameter set and every shape have been checked. A body that fails
    the CRC is reported as such, whatever else is wrong with it.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < 16:
                raise FormatError("checkpoint truncated")
            reader = _EntryReader(fh, size - 4)
            try:
                state = _read_entries(reader)
                error = None
            except FormatError as e:
                state, error = None, e
            body_crc = reader.body_crc()
            fh.seek(size - 4)
            (stored_crc,) = struct.unpack("<I", fh.read(4))
    except OSError as e:
        raise FormatError(f"cannot read checkpoint {path}: {e}")
    if body_crc != stored_crc:
        raise FormatError("checkpoint CRC mismatch")
    if error is not None:
        raise error
    names = set(m.store.names())
    if set(state) != names:
        missing = sorted(names - set(state))[:3]
        extra = sorted(set(state) - names)[:3]
        raise FormatError(
            f"checkpoint/config parameter set mismatch "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, p in m.store.items():
        if state[name].shape != p.data.shape:
            raise FormatError(
                f"shape mismatch for {name}: checkpoint {state[name].shape} "
                f"vs config {p.data.shape}"
            )
    for name, p in m.store.items():
        arr = state[name]
        p.data = arr if arr.dtype == p.data.dtype else arr.astype(p.data.dtype)
        p.grad = None
    return m
