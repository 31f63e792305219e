"""Synthetic sequences, toy training, evaluation, and reports.

Sequences are procedurally generated videos of one textured target
moving over a textured background, with exact ground-truth boxes in
corner form (x, y, w, h) pixels. On disk a sequence is a directory of
binary PPM frames plus a gt.csv.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import tracker as trk
from .autodiff import Tensor, max_threads  # max_threads is re-exported
from .backbone import MimPretrainer, Model
from .errors import ConfigError, ContractError, FormatError, NumericError
from .loss import total_loss
from .optim import AdamW, clip_grad_norm

DIFFICULTIES = ("easy", "distractor", "scale-change")

DEFAULT_FRAME_SIZE = 256
DEFAULT_LENGTH = 60
DEFAULT_TRAIN_SEQS = 64

# gen_sequence draws each box's start 2 px inside the frame. The largest
# box it draws is a distractor, 1.2x the tallest target (0.22 of the frame
# wide at aspect 1.25), and a smaller frame leaves no room for it
_MARGIN = 2.0
_MAX_WIDTH, _MAX_ASPECT, _MAX_DISTRACTOR = 0.22, 1.25, 1.2
MIN_FRAME_SIZE = math.ceil(
    2 * _MARGIN / (1.0 - _MAX_DISTRACTOR * _MAX_WIDTH * _MAX_ASPECT))
MAX_FRAME_SIZE = 2048
# a sequence is held whole, as length * 3 * frame_size**2 bytes of frames
MAX_SEQUENCE_BYTES = 2 << 30

BRIGHTNESS_JITTER = 0.10
# translation must move the target several grid cells off center, or
# "predict the crop center" becomes a local minimum the tracker cannot
# recover from once the target drifts
TRANSLATION_JITTER = 0.22  # fraction of the search-crop side
SCALE_JITTER = 0.15
# global L2 bound on gradients: single-sample steps spike hard enough to
# saturate the score head for good
GRAD_CLIP = 1.0


@dataclass
class SyntheticSequence:
    frames: list  # uint8 (3, H, W) per frame
    gt: list  # (x, y, w, h) float pixels per frame
    seed: int
    difficulty: str
    name: str = ""


# ---------------------------------------------------------------------------
# sequence generation
# ---------------------------------------------------------------------------

def _smooth_noise(rng, h, w, cells=8):
    # muted, blurred color field: background cells must stay lower-contrast
    # and softer-edged than any target, or the frame is full of object-like
    # block boundaries that drown out the target's saliency
    from scipy.ndimage import uniform_filter
    coarse = rng.uniform(0.3, 0.7, size=(3, cells, cells))
    reps = (h + cells - 1) // cells
    big = np.kron(coarse, np.ones((reps, reps)))[:, :h, :w]
    big = uniform_filter(big, size=(1, reps, reps), mode="nearest")
    fine = rng.uniform(-0.04, 0.04, size=(3, h, w))
    return np.clip(big + fine, 0.0, 1.0)


def _object_texture(rng, size):
    ys, xs = np.mgrid[0:size, 0:size] / size
    fx, fy = rng.uniform(2.0, 6.0, size=2)
    phase = rng.uniform(0, 2 * np.pi, size=3)
    base = rng.uniform(0.2, 0.8, size=3)
    tex = np.stack([
        base[c] + 0.35 * np.sin(2 * np.pi * (fx * xs + fy * ys) + phase[c])
        for c in range(3)
    ])
    return np.clip(tex, 0.0, 1.0)


def _paint(frame, tex, mask, x, y):
    h, w = mask.shape
    fy, fx = int(round(y)), int(round(x))
    frame[:, fy:fy + h, fx:fx + w] = np.where(
        mask, tex[:, :h, :w], frame[:, fy:fy + h, fx:fx + w])


def _shape_mask(rng, w, h):
    if rng.uniform() < 0.5:
        ys, xs = np.mgrid[0:h, 0:w]
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        return ((xs - cx) / (w / 2.0)) ** 2 + ((ys - cy) / (h / 2.0)) ** 2 <= 1.0
    return np.ones((h, w), dtype=bool)


def iou_corner(a, b) -> float:
    """IoU of two corner-form (x, y, w, h) boxes."""
    ax0, ay0, ax1, ay1 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx0, by0, bx1, by1 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    if union <= 0:
        return 0.0
    # rounding in the corner arithmetic can land just outside [0, 1]
    return float(min(max(inter / union, 0.0), 1.0))


def gen_sequence(seed: int, length: int = DEFAULT_LENGTH,
                 frame_size: int = DEFAULT_FRAME_SIZE,
                 difficulty: str = "easy") -> SyntheticSequence:
    """Deterministic textured target on textured noise, exact gt."""
    if length < 2:
        raise ContractError(f"sequence length must be >= 2, got {length}")
    if difficulty not in DIFFICULTIES:
        raise ConfigError(f"unknown difficulty {difficulty!r}")
    if not MIN_FRAME_SIZE <= frame_size <= MAX_FRAME_SIZE:
        raise ConfigError(f"frame size must be from {MIN_FRAME_SIZE} to "
                          f"{MAX_FRAME_SIZE}, got {frame_size}")
    if length * 3 * frame_size ** 2 > MAX_SEQUENCE_BYTES:
        raise ConfigError(f"{length} frames of {frame_size} px exceed "
                          f"{MAX_SEQUENCE_BYTES} bytes")
    rng = np.random.default_rng(seed)
    s = frame_size
    bg = _smooth_noise(rng, s, s)
    base_w = rng.uniform(0.12, _MAX_WIDTH) * s
    aspect = rng.uniform(0.8, _MAX_ASPECT)
    base_h = base_w * aspect
    tex_size = int(np.ceil(max(base_w, base_h) * 1.4)) + 2
    tex = _object_texture(rng, tex_size)
    margin = _MARGIN
    cx = rng.uniform(base_w / 2 + margin, s - base_w / 2 - margin)
    cy = rng.uniform(base_h / 2 + margin, s - base_h / 2 - margin)
    vx, vy = rng.uniform(-3.0, 3.0, size=2)
    scale = 1.0

    distractors = []
    if difficulty == "distractor":
        for _ in range(rng.integers(2, 5)):
            dw = base_w * rng.uniform(0.8, _MAX_DISTRACTOR)
            dh = base_h * rng.uniform(0.8, _MAX_DISTRACTOR)
            dtex = _object_texture(rng, int(np.ceil(max(dw, dh))) + 2)
            dx = rng.uniform(dw / 2 + margin, s - dw / 2 - margin)
            dy = rng.uniform(dh / 2 + margin, s - dh / 2 - margin)
            dvx, dvy = rng.uniform(-2.0, 2.0, size=2)
            distractors.append([dx, dy, dvx, dvy, dw, dh, dtex])

    frames, gt = [], []
    for _ in range(length):
        if difficulty == "scale-change":
            scale = float(np.clip(scale * rng.uniform(0.97, 1.03), 0.7, 1.4))
        w = base_w * scale
        h = base_h * scale
        vx = float(np.clip(vx + rng.uniform(-0.8, 0.8), -4.0, 4.0))
        vy = float(np.clip(vy + rng.uniform(-0.8, 0.8), -4.0, 4.0))
        cx = float(np.clip(cx + vx, w / 2 + margin, s - w / 2 - margin))
        cy = float(np.clip(cy + vy, h / 2 + margin, s - h / 2 - margin))
        box = (cx - w / 2, cy - h / 2, w, h)

        frame = bg.copy()
        for d in distractors:
            d[2] = float(np.clip(d[2] + rng.uniform(-0.6, 0.6), -3.0, 3.0))
            d[3] = float(np.clip(d[3] + rng.uniform(-0.6, 0.6), -3.0, 3.0))
            for _try in range(40):
                nx = float(np.clip(d[0] + d[2], d[4] / 2 + margin,
                                   s - d[4] / 2 - margin))
                ny = float(np.clip(d[1] + d[3], d[5] / 2 + margin,
                                   s - d[5] / 2 - margin))
                dbox = (nx - d[4] / 2, ny - d[5] / 2, d[4], d[5])
                if iou_corner(dbox, box) <= 0.3:
                    d[0], d[1] = nx, ny
                    break
                d[2] = float(rng.uniform(-3.0, 3.0))
                d[3] = float(rng.uniform(-3.0, 3.0))
            else:
                continue  # keep the distractor where it was if legal moves ran out
            iw, ih = int(round(d[4])), int(round(d[5]))
            mask = np.ones((ih, iw), dtype=bool)
            _paint(frame, d[6], mask, d[0] - d[4] / 2, d[1] - d[5] / 2)

        iw, ih = int(round(w)), int(round(h))
        mask = _shape_mask(np.random.default_rng(seed + 1), iw, ih)
        _paint(frame, tex[:, :ih, :iw], mask, box[0], box[1])
        frames.append((frame * 255.0).astype(np.uint8))
        gt.append(tuple(float(v) for v in box))
    return SyntheticSequence(frames, gt, seed, difficulty,
                             name=f"seq_{seed}")


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def write_ppm(path, image: np.ndarray):
    """image is uint8 (3, H, W); written as binary P6."""
    _, h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.transpose(1, 2, 0).tobytes())


# header fields are separated by whitespace and "#" comments that run to
# the end of the line; one whitespace byte ends the header
_PPM_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + _PPM_SEP + rb"(\d{1,9})" + _PPM_SEP
                         + rb"(\d{1,9})" + _PPM_SEP + rb"(\d{1,9})\s")


def read_ppm(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}")
    m = _PPM_HEADER.match(raw)
    if not m:
        raise FormatError(f"{path} is not a binary PPM (P6) file")
    w, h, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if w < 1 or h < 1:
        raise FormatError(f"{path}: empty {w}x{h} image")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported")
    pixels = raw[m.end():]
    if len(pixels) < 3 * w * h:
        raise FormatError(f"{path}: truncated pixel data")
    arr = np.frombuffer(pixels[:3 * w * h], dtype=np.uint8)
    return arr.reshape(h, w, 3).transpose(2, 0, 1).copy()


def save_sequence(seq: SyntheticSequence, root, name: Optional[str] = None):
    name = name or seq.name
    d = os.path.join(root, name)
    os.makedirs(d, exist_ok=True)
    for i, frame in enumerate(seq.frames):
        write_ppm(os.path.join(d, f"frame_{i}.ppm"), frame)
    with open(os.path.join(d, "gt.csv"), "w", encoding="ascii") as fh:
        fh.write(box_rows(seq.gt))


def box_rows(boxes) -> str:
    """The gt.csv rows of corner-form boxes: i,x,y,w,h per line."""
    return "".join(f"{i},{x:.6f},{y:.6f},{w:.6f},{h:.6f}\n"
                   for i, (x, y, w, h) in enumerate(boxes))


def read_frames(path, count: Optional[int] = None) -> list:
    """A sequence directory's first count frame_<i>.ppm files, or, with
    count None, every one before the first missing index; at least 2."""
    frames = []
    while count is None or len(frames) < count:
        fp = os.path.join(path, f"frame_{len(frames)}.ppm")
        if count is None and not os.path.exists(fp):
            break
        frames.append(read_ppm(fp))
    if len(frames) < 2:
        raise FormatError(f"{path}: a sequence needs at least 2 "
                          f"frame_<n>.ppm files")
    return frames


def load_sequence(path) -> SyntheticSequence:
    gt_path = os.path.join(path, "gt.csv")
    try:
        with open(gt_path, "r", encoding="ascii") as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1)
                     if ln.strip()]
    except OSError as e:
        raise FormatError(f"cannot read {gt_path}: {e}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{gt_path} is not ASCII text: {e.reason} at "
                          f"byte {e.start}")
    gt = []
    for n, ln in lines:
        where = f"{gt_path} line {n}"
        parts = ln.split(",")
        if len(parts) != 5:
            raise FormatError(f"{where}: expected frame_idx,x,y,w,h: {ln!r}")
        try:
            idx = int(parts[0])
            box = tuple(float(v) for v in parts[1:])
        except ValueError:
            raise FormatError(f"{where}: non-numeric field in {ln!r}")
        if idx != len(gt):
            raise FormatError(f"{where}: non-contiguous frame index {idx}")
        if not (np.isfinite(box).all() and box[2] > 0 and box[3] > 0):
            raise FormatError(f"{where}: box values must be finite, with w "
                              f"and h > 0: {ln!r}")
        gt.append(box)
    return SyntheticSequence(read_frames(path, len(gt)), gt, seed=-1,
                             difficulty="easy",
                             name=os.path.basename(os.path.normpath(path)))


def load_dataset(root) -> list:
    try:
        entries = os.listdir(root)
    except OSError as e:
        raise FormatError(f"cannot list dataset {root}: {e}")
    names = sorted(
        n for n in entries
        if n.startswith("seq_") and os.path.isdir(os.path.join(root, n))
    )
    if not names:
        raise FormatError(f"no seq_<id> directories under {root}")
    return [load_sequence(os.path.join(root, n)) for n in names]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def sample_pair(seq: SyntheticSequence, model_cfg, rng,
                jitter: bool = True) -> tuple:
    """Crop a (template, search, gt-box) training triple from a sequence.

    Un-jittered, the search patch is tracking's crop_search of the gt box.
    Returns (template patch, search patch, normalized center-form gt in
    search-patch coordinates).
    """
    n = len(seq.frames)
    ti = int(rng.integers(0, n))
    si = int(rng.integers(0, n))
    t_frame = seq.frames[ti].astype(np.float32) / 255.0
    template = trk.crop_template(t_frame, seq.gt[ti], model_cfg.template_size)

    gx, gy, gw, gh = seq.gt[si]
    s_frame = seq.frames[si].astype(np.float32) / 255.0
    scale, shift = 1.0, (0.0, 0.0)
    if jitter:
        scale = 1.0 + float(rng.uniform(-SCALE_JITTER, SCALE_JITTER))
        shift = tuple(float(rng.uniform(-1, 1)) * TRANSLATION_JITTER
                      for _ in range(2))
    search, aff = trk.crop_search(s_frame, seq.gt[si],
                                  model_cfg.search_size, scale, shift)
    if jitter:
        b = 1.0 + float(rng.uniform(-BRIGHTNESS_JITTER, BRIGHTNESS_JITTER))
        search = np.clip(search * b, 0.0, 1.0)
        tb = 1.0 + float(rng.uniform(-BRIGHTNESS_JITTER, BRIGHTNESS_JITTER))
        template = np.clip(template * tb, 0.0, 1.0)
    nx, ny = aff.norm_from_frame(gx + gw / 2, gy + gh / 2)
    gt_norm = (nx, ny, gw / aff.side, gh / aff.side)
    return template, search, gt_norm


@dataclass
class TrainResult:
    losses: list = field(default_factory=list)
    components: list = field(default_factory=list)


def train_loop(model: Model, sequences, steps: int, lr: float = 1e-4,
               weight_decay: float = 1e-4, seed: int = 42,
               log_every: int = 50,
               log_fn: Optional[Callable] = None,
               fixed_sample: Optional[tuple] = None,
               stop_fn: Optional[Callable] = None) -> TrainResult:
    """AdamW training over jittered sampled pairs; aborts on non-finite loss.

    fixed_sample, when given, overrides sampling entirely (overfit mode).
    log_fn and stop_fn get (step, the step's loss parts); see _optimise.
    """
    rng = np.random.default_rng(seed)

    def step():
        if fixed_sample is not None:
            template, search, gt = fixed_sample
        else:
            seq = sequences[int(rng.integers(0, len(sequences)))]
            template, search, gt = sample_pair(seq, model.cfg, rng)
        return total_loss(model.predict(Tensor(template), Tensor(search)), gt)

    opt = AdamW(model.store, lr=lr, weight_decay=weight_decay)
    parts = _optimise([opt], steps, step, log_every, log_fn, stop_fn)
    return TrainResult([p["total"] for p in parts], parts)


def pretrain_loop(pretrainer: MimPretrainer, sequences, steps: int,
                  lr: float, mask_ratio: float, seed: int,
                  log_every: int = 50,
                  log_fn: Optional[Callable] = None) -> list:
    """Masked-image pretraining over jittered search crops, with one AdamW
    at weight decay 1e-4 for the encoder (pretrainer.model) and one for the
    decoder. Returns each step's reconstruction loss; see _optimise."""
    model = pretrainer.model
    rng = np.random.default_rng(seed)

    def step():
        seq = sequences[int(rng.integers(0, len(sequences)))]
        _, search, _ = sample_pair(seq, model.cfg, rng)
        loss = pretrainer.loss(Tensor(search), mask_ratio, rng)
        return loss, loss.item()

    # the encoder's head gets no gradient here, so it is skipped
    opts = [AdamW(model.store, lr=lr, weight_decay=1e-4, strict=False),
            AdamW(pretrainer.store, lr=lr, weight_decay=1e-4)]
    return _optimise(opts, steps, step, log_every, log_fn)


def _optimise(optimizers, steps: int, step_fn: Callable, log_every: int,
              log_fn: Optional[Callable],
              stop_fn: Optional[Callable] = None) -> list:
    """Up to `steps` AdamW steps on step_fn() -> (loss, record); returns
    the records. Gradients drop before each forward and backward consumes
    the graph, so no step holds an earlier step's arrays. Each optimizer
    is clipped to GRAD_CLIP on its own. log_fn(step, record) runs every
    log_every steps and at the last; stop_fn(step, record) returning True
    ends the run."""
    records = []
    for step in range(steps):
        for opt in optimizers:
            opt.params.zero_grad()
        loss, record = step_fn()
        if not np.isfinite(loss.data).all():
            raise NumericError(f"non-finite loss at step {step}")
        ad.backward(loss)
        for opt in optimizers:
            clip_grad_norm(opt.params, GRAD_CLIP)
        for opt in optimizers:
            opt.step()
        records.append(record)
        if log_fn is not None and (step % log_every == 0 or step == steps - 1):
            log_fn(step, record)
        if stop_fn is not None and stop_fn(step, record):
            break
    return records


# ---------------------------------------------------------------------------
# metrics / evaluation
# ---------------------------------------------------------------------------

SUCCESS_THRESHOLDS = np.arange(0, 21) * 0.05
PRECISION_PIXELS = 20.0


@dataclass
class SequenceMetrics:
    name: str
    ao: float
    auc: float
    precision: float
    ious: list


@dataclass
class Metrics:
    per_sequence: list
    ao: float
    auc: float
    precision: float


def sequence_metrics(name, pred_boxes, gt_boxes) -> SequenceMetrics:
    """Metrics over frames 2..N (frame 1 is initialization)."""
    ious, errs = [], []
    for p, g in zip(pred_boxes, gt_boxes):
        ious.append(iou_corner(p, g))
        pc = (p[0] + p[2] / 2, p[1] + p[3] / 2)
        gc = (g[0] + g[2] / 2, g[1] + g[3] / 2)
        errs.append(float(np.hypot(pc[0] - gc[0], pc[1] - gc[1])))
    ious_arr = np.array(ious)
    # small slack so an exact match rounding to 1 - 1e-16 still clears
    # the top threshold
    success = [(ious_arr >= t - 1e-9).mean() for t in SUCCESS_THRESHOLDS]
    return SequenceMetrics(
        name=name,
        ao=float(ious_arr.mean()),
        auc=float(np.mean(success)),
        precision=float((np.array(errs) <= PRECISION_PIXELS).mean()),
        ious=ious,
    )


def aggregate(per_sequence) -> Metrics:
    return Metrics(
        per_sequence=list(per_sequence),
        ao=float(np.mean([m.ao for m in per_sequence])),
        auc=float(np.mean([m.auc for m in per_sequence])),
        precision=float(np.mean([m.precision for m in per_sequence])),
    )


def run_tracker_on_sequence(model: Model, seq: SyntheticSequence,
                            config: Optional[trk.TrackerConfig] = None) -> list:
    """One-pass tracking; gt is read only for frame-1 initialization."""
    return trk.track_frames(model, seq.frames, seq.gt[0], config)


def check_trackable(sequences, search_size: int):
    """Refuse a sequence whose frames are too small for search_size crops
    or whose first box is not inside its first frame."""
    for seq in sequences:
        _, fh, fw = shape = seq.frames[0].shape
        if min(fh, fw) < search_size // 4:
            raise ConfigError(f"{seq.name}: frame size {fw}x{fh} too small "
                              f"for search size {search_size}")
        try:
            trk.check_box_in_frame(seq.gt[0], shape)
        except ContractError as e:
            raise ContractError(f"{seq.name}: {e}") from None


def evaluate(model: Model, sequences,
             config: Optional[trk.TrackerConfig] = None,
             jobs: int = 1) -> Metrics:
    """Track every sequence and aggregate metrics.

    The sequences are one autodiff.fork into at most jobs, len(sequences)
    and the calling thread's fork-join width (ad.threads()) ranges, each
    at max(1, width // ranges) of that width. The metrics do not depend
    on jobs.
    """
    check_trackable(sequences, model.cfg.search_size)
    per = [None] * len(sequences)

    def track(lo, hi):
        for i, seq in enumerate(sequences[lo:hi], lo):
            boxes = run_tracker_on_sequence(model, seq, config)
            per[i] = sequence_metrics(seq.name, boxes, seq.gt[1:])

    workers = max(1, min(jobs, ad.threads(), len(sequences)))
    ad.fork(track, len(sequences), workers)
    return aggregate(per)


def static_baseline(seq: SyntheticSequence) -> list:
    """Predicts the frame-1 box forever."""
    return [seq.gt[0]] * (len(seq.frames) - 1)


def format_report(metrics: Metrics) -> str:
    """One line-record per sequence plus one aggregate record."""
    lines = []
    for m in metrics.per_sequence:
        lines.append(
            f"seq name={m.name} ao={m.ao:.6f} auc={m.auc:.6f} "
            f"precision={m.precision:.6f}"
        )
    lines.append(
        f"aggregate sequences={len(metrics.per_sequence)} ao={metrics.ao:.6f} "
        f"auc={metrics.auc:.6f} precision={metrics.precision:.6f}"
    )
    return "\n".join(lines) + "\n"
