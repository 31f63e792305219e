"""Online tracking: cropping, window-penalized decoding, coordinate
mapping, and dynamic-template updates.

Frame-space boxes are corner form (x, y, w, h) in pixels. The tracker
crops a template patch once at init and a search patch per frame, runs
the model, penalizes the score map with a centered Hanning window, and
maps the decoded box back to frame coordinates through the exact crop
affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import TOTAL_STRIDE, Model
from .errors import ContractError, NumericError
from .head import decode_box
from .layers import TokenMap

# crop side over the target's geometric-mean side sqrt(w * h); training
# pairs and online tracking share both
TEMPLATE_CONTEXT = 2.0
SEARCH_CONTEXT = 4.0


@dataclass
class TrackerConfig:
    window_weight: float = 0.45
    update_threshold: float = 0.6
    update_interval: int = 20
    size_smoothing: float = 0.7  # weight on the new prediction; 1 disables
    temporal: bool = False


@dataclass
class Affine:
    """The crop square [left_x, left_x + side) x [left_y, left_y + side),
    pixel i covering [i, i+1); normalized patch coordinates map through it."""

    left_x: float
    left_y: float
    side: float

    def frame_from_norm(self, nx: float, ny: float) -> tuple:
        return self.left_x + nx * self.side, self.left_y + ny * self.side

    def norm_from_frame(self, fx: float, fy: float) -> tuple:
        return (fx - self.left_x) / self.side, (fy - self.left_y) / self.side


def hanning_1d(n: int) -> np.ndarray:
    """Raised cosine with exact 1 at the center cell and 0 at both edges.

    The two sides use their own half-width so even lengths still hit the
    endpoints exactly.
    """
    if n < 3:
        return np.ones(n, dtype=np.float32)
    c = n // 2
    i = np.arange(n, dtype=np.float64)
    left = 0.5 * (1.0 + np.cos(np.pi * (i - c) / c))
    right = 0.5 * (1.0 + np.cos(np.pi * (i - c) / (n - 1 - c)))
    return np.where(i <= c, left, right).astype(np.float32)


def hanning_2d(h: int, w: int) -> np.ndarray:
    return np.outer(hanning_1d(h), hanning_1d(w)).astype(np.float32)


def crop_region(frame: np.ndarray, center: tuple, side: float,
                out_size: int) -> tuple:
    """Square crop with bilinear resize and per-channel mean fill.

    frame is (3, H, W) float. Returns (patch (3, out, out) float32,
    Affine). Patch index p samples frame index x0 + p * side / out_size;
    sample points outside the frame take the channel mean.
    """
    if side <= 0:
        raise ContractError(f"crop side must be positive, got {side}")
    _, fh, fw = frame.shape
    cx, cy = center
    scale = side / out_size
    x0 = cx - side / 2.0 + 0.5 * scale - 0.5
    y0 = cy - side / 2.0 + 0.5 * scale - 0.5
    aff = Affine(x0 - 0.5 * scale + 0.5, y0 - 0.5 * scale + 0.5, side)
    xs = x0 + scale * np.arange(out_size)
    ys = y0 + scale * np.arange(out_size)

    def axis_weights(coords, limit):
        lo = np.floor(coords).astype(np.int64)
        frac = coords - lo
        inside = (coords >= 0.0) & (coords <= limit - 1)
        lo_c = np.clip(lo, 0, limit - 1)
        hi_c = np.clip(lo + 1, 0, limit - 1)
        return lo_c, hi_c, frac, inside

    jx0, jx1, fx, in_x = axis_weights(xs, fw)
    iy0, iy1, fy, in_y = axis_weights(ys, fh)
    # cast only the sampled rows, not the whole frame
    r0 = frame[:, iy0].astype(np.float64)
    r1 = frame[:, iy1].astype(np.float64)
    top = r0[:, :, jx0] * (1 - fx) + r0[:, :, jx1] * fx
    bot = r1[:, :, jx0] * (1 - fx) + r1[:, :, jx1] * fx
    patch = top * (1 - fy)[None, :, None] + bot * fy[None, :, None]
    mean = frame.reshape(3, -1).mean(axis=1)
    outside = ~(in_y[:, None] & in_x[None, :])
    patch[:, outside] = mean[:, None]
    # the column gathers leave patch in another memory order
    return patch.astype(np.float32, order="C"), aff


def crop_template(frame: np.ndarray, box, out_size: int) -> np.ndarray:
    """Template patch centred on box (x, y, w, h), with TEMPLATE_CONTEXT."""
    x, y, w, h = box
    side = TEMPLATE_CONTEXT * np.sqrt(w * h)
    patch, _ = crop_region(frame, (x + w / 2.0, y + h / 2.0), side, out_size)
    return patch


def crop_search(frame: np.ndarray, box, out_size: int, scale: float = 1.0,
                shift: tuple = (0.0, 0.0)) -> tuple:
    """(patch, Affine) of the one search crop, SEARCH_CONTEXT around box
    (x, y, w, h): its side times scale, its centre moved by shift * side."""
    x, y, w, h = box
    side = SEARCH_CONTEXT * np.sqrt(w * h) * scale
    center = (x + w / 2.0 + shift[0] * side, y + h / 2.0 + shift[1] * side)
    return crop_region(frame, center, side, out_size)


def check_box_in_frame(box, frame_shape):
    """Refuse a box (x, y, w, h) that is not finite, has w or h <= 0 or
    an area w * h that underflows to 0, or is not inside a frame of
    frame_shape (C, H, W)."""
    x, y, w, h = box
    _, fh, fw = frame_shape
    # every comparison with NaN is false, so the checks below would pass it
    if not np.isfinite(box).all():
        raise ContractError(f"non-finite box {tuple(box)}")
    if w <= 0 or h <= 0 or w * h == 0:
        raise ContractError(f"degenerate box {tuple(box)}")
    if x < 0 or y < 0 or x + w > fw or y + h > fh:
        raise ContractError(f"box {tuple(box)} not inside {fw}x{fh} frame")


class TrackerState:
    def __init__(self, model: Model, config: TrackerConfig, template_patch,
                 box):
        self.model = model
        self.config = config
        self.template_patch = template_patch
        self.template_patch.flags.writeable = False
        self.prev_box = tuple(float(v) for v in box)
        self.frame_index = 0
        self.last_update_frame = 0
        grid = model.cfg.search_size // TOTAL_STRIDE
        self.hanning = hanning_2d(grid, grid)
        with ad.no_grad():
            self.template_feat = model.encode_early(Tensor(template_patch),
                                                    "template")
        self.dyn_feat = None
        if config.temporal:
            # the dynamic template starts as the template crop; encoding is
            # per image, so its features are the template's, retagged
            feat = self.template_feat
            self.dyn_feat = TokenMap(feat.tokens, list(feat.grids),
                                     ["dyn_template"])


def init(frame: np.ndarray, box, model: Model,
         config: Optional[TrackerConfig] = None) -> TrackerState:
    """Start tracking from a frame and its target box (x, y, w, h)."""
    config = config or TrackerConfig()
    check_box_in_frame(box, frame.shape)
    box = tuple(float(v) for v in box)
    patch = crop_template(frame, box, model.cfg.template_size)
    return TrackerState(model, config, patch, box)


def track_step(state: TrackerState, frame: np.ndarray) -> tuple:
    """Locate the target in the next frame; returns (box, confidence)."""
    cfg = state.config
    model = state.model
    _, _, pw, ph = state.prev_box
    patch, aff = crop_search(frame, state.prev_box, model.cfg.search_size)
    with ad.no_grad():
        x_feat = model.encode_early(Tensor(patch), "search")
        _, f_x = model.forward_joint(state.template_feat, x_feat,
                                     state.dyn_feat)
        out = model.head(f_x)
    score = out.score.data
    if not np.isfinite(score).all():
        raise NumericError("non-finite score map")
    lam = cfg.window_weight
    penalized = (1.0 - lam) * score + lam * state.hanning
    out.score = Tensor(penalized)
    (bx, by, bw, bh), conf, _ = decode_box(out)
    if not all(np.isfinite(v) for v in (bx, by, bw, bh, conf)):
        raise NumericError("non-finite decoded box")
    fx, fy = aff.frame_from_norm(bx, by)
    w_new = bw * aff.side
    h_new = bh * aff.side
    alpha = cfg.size_smoothing
    w_new = alpha * w_new + (1.0 - alpha) * pw
    h_new = alpha * h_new + (1.0 - alpha) * ph
    _, fh, fw = frame.shape
    w_new = min(w_new, fw)
    h_new = min(h_new, fh)
    x_new = min(max(fx - w_new / 2.0, 0.0), fw - w_new)
    y_new = min(max(fy - h_new / 2.0, 0.0), fh - h_new)
    state.prev_box = (x_new, y_new, w_new, h_new)
    state.frame_index += 1
    return state.prev_box, float(conf)


def maybe_update_template(state: TrackerState, frame: np.ndarray,
                          confidence: float) -> bool:
    """Re-crop the dynamic template under the confidence/interval gate."""
    cfg = state.config
    if not cfg.temporal:
        return False
    if confidence <= cfg.update_threshold:
        return False
    if state.frame_index - state.last_update_frame < cfg.update_interval:
        return False
    patch = crop_template(frame, state.prev_box, state.model.cfg.template_size)
    with ad.no_grad():
        state.dyn_feat = state.model.encode_early(Tensor(patch), "dyn_template")
    state.last_update_frame = state.frame_index
    return True


def track_frames(model: Model, frames, box,
                 config: Optional[TrackerConfig] = None) -> list:
    """Track from frames[0] and its box (x, y, w, h) to the last frame.

    frames are uint8 (3, H, W); each is scaled to float32 in [0, 1] only
    when the loop reaches it. Returns the boxes for frames 2..N.
    """
    state = init(frames[0].astype(np.float32) / 255.0, box, model, config)
    boxes = []
    for frame in frames[1:]:
        f = frame.astype(np.float32) / 255.0
        box, conf = track_step(state, f)
        maybe_update_template(state, f, conf)
        boxes.append(box)
    return boxes
