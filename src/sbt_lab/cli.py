"""Command-line entry point.

One subcommand per workflow: model inspection (variant-info, flops),
self-checks (selftest), data generation (gen-data), training (train,
pretrain-mim), and inference (track, eval).

Exit codes: 0 success, 1 contract/config/format error (including bad
flags), 2 numeric failure. All numeric output uses fixed 6-decimal
formatting so repeated runs diff cleanly. A variant file given with
--variant-file overrides --variant, which overrides the built-in
default.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import harness as hn
from . import tracker as trk
from .autodiff import ParamStore, Tensor
from .errors import ConfigError, NumericError, SbtError
from .layers import (
    FrmLayer, TokenMap, UrmLayer, ca_dynamic_conv_oracle, concat_maps,
    segment_mask,
)

# variants whose float32 shapes the selftest's thread-split check runs
THREAD_SPLIT_VARIANTS = ("supersbt-light", "hi-sbt")

# published parameter counts (millions) for the named variants
REFERENCE_PARAMS_M = {
    "plain-sbt": 86.7,
    "hi-sbt": 21.2,
    "supersbt-light": 21.5,
    "supersbt-small": 34.3,
    "supersbt-base": 65.5,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors through the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_variant_flags(p):
    p.add_argument("--variant", default="supersbt-light",
                   choices=sorted(bb.VARIANT_NAMES),
                   help="named model variant (default: %(default)s)")
    p.add_argument("--variant-file", default=None,
                   help="variant config file; overrides --variant")


def _add_training_flags(p, steps, checkpoint_help):
    _add_variant_flags(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--checkpoint", default=None, help=checkpoint_help)
    p.add_argument("--steps", type=int, default=steps,
                   help="optimizer steps (default: %(default)s)")
    p.add_argument("--lr", type=float, default=1e-4,
                   help="learning rate (default: %(default)s)")
    p.add_argument("--log-every", type=int, default=50,
                   help="steps between loss lines (default: %(default)s)")


def _add_tracker_flags(p):
    _add_variant_flags(p)
    p.add_argument("--checkpoint", default=None, help="trained weights")
    p.add_argument("--window-weight", type=float,
                   default=trk.TrackerConfig.window_weight,
                   help="score-window mixing weight in [0, 1] "
                        "(default: %(default)s)")
    p.add_argument("--temporal", action="store_true",
                   help="enable dynamic-template updates")


def _resolve_variant(args):
    if args.variant_file is not None:
        return bb.load_variant_file(args.variant_file)
    return bb.named_config(args.variant)


def _build_model(args, config=None):
    ckpt = getattr(args, "checkpoint", None)
    # a checkpoint replaces every parameter, so none is drawn; the load
    # checks the full set and each shape before it replaces any value
    model = bb.build_variant(config or _resolve_variant(args),
                             seed=args.seed if ckpt is None else None)
    if ckpt is not None:
        bb.load_checkpoint(ckpt, model)
    return model


def _load_frames(path):
    frames = []
    i = 0
    while True:
        fp = os.path.join(path, f"frame_{i}.ppm")
        if not os.path.exists(fp):
            break
        frames.append(hn.read_ppm(fp))
        i += 1
    if len(frames) < 2:
        raise ConfigError(f"{path}: need at least 2 frame_<n>.ppm files")
    return frames


def _check_out_file(path):
    """Reject an --out file that cannot be created, before any work."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path}: directory {parent} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")


@contextmanager
def _writing(path):
    """Report an OS failure while writing path as a one-line error."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None


def _emit(text, path, out):
    """Write text to out, and also to path when one is given."""
    out.write(text)
    if path is not None:
        with _writing(path), open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return 0


def _check_training_flags(args):
    """Reject schedule flags that would crash or silently do nothing, and
    an unusable --out, before the model is built or the data read."""
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    if args.log_every < 1:
        raise ConfigError(f"--log-every must be >= 1, got {args.log_every}")
    # NaN fails every comparison
    if not (math.isfinite(args.lr) and args.lr > 0.0):
        raise ConfigError(f"--lr must be a finite number > 0, got {args.lr}")
    wd = getattr(args, "weight_decay", 0.0)
    if not (math.isfinite(wd) and wd >= 0.0):
        raise ConfigError(f"--weight-decay must be a finite number >= 0, "
                          f"got {wd}")
    _check_out_file(args.out)


def _save(model, path, out):
    with _writing(path):
        bb.save_checkpoint(model, path)
    out.write(f"saved {path}\n")
    return 0


def _parse_box(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"expected x,y,w,h box, got {text!r}")
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise ConfigError(f"non-numeric box component in {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_variant_info(args, out):
    cfg = _resolve_variant(args)
    # only shapes are read, so no values are drawn
    model = bb.build_variant(cfg, seed=None)
    params = bb.count_params(model)
    flops, _ = bb.count_flops(model)
    out.write(f"variant {cfg.name}\n")
    out.write(f"params {params}\n")
    out.write(f"params_m {params / 1e6:.6f}\n")
    ref = REFERENCE_PARAMS_M.get(cfg.name)
    if ref is not None:
        out.write(f"reference_params_m {ref:.6f}\n")
        out.write(f"param_deviation {(params / 1e6 - ref) / ref:+.6f}\n")
    out.write(f"flops {flops}\n")
    out.write(f"flops_g {flops / 1e9:.6f}\n")
    out.write("note flops count one op per multiply-accumulate in the "
              "attention projections and QK/AV products and two elsewhere, "
              "so they read below the work executed\n")
    g_z = cfg.grid_side(cfg.template_size, len(cfg.stages) - 1)
    g_x = cfg.grid_side(cfg.search_size, len(cfg.stages) - 1)
    out.write(f"final_tokens template={g_z * g_z} search={g_x * g_x}\n")
    return 0


def cmd_flops(args, out):
    model = bb.build_variant(_resolve_variant(args), seed=None)
    total, breakdown = bb.count_flops(model)
    for label, fl in breakdown:
        out.write(f"layer {label} flops={fl} flops_g={fl / 1e9:.6f}\n")
    out.write(f"total flops={total} flops_g={total / 1e9:.6f}\n")
    return 0


def _selftest_grad_checks(seed):
    """(line, value, bound) of each layer's gradient check."""
    rng = np.random.default_rng(seed)
    checks = []

    ps = ParamStore()
    frm = FrmLayer(ps, "frm", rng, channels=8, heads=2)
    z = rng.normal(size=(4, 8))
    x = rng.normal(size=(9, 8))

    def f_frm(p):
        zt = TokenMap(Tensor(z.astype(p.dtype)), [(2, 2)], ["template"])
        xt = TokenMap(Tensor(x.astype(p.dtype)), [(3, 3)], ["search"])
        _, xo = frm.attention_update(zt, xt)
        return ad.sum_(xo * xo)

    checks.append(("frm-ca", f_frm, ps))

    ps2 = ParamStore()
    urm = UrmLayer(ps2, "urm", rng, channels=8, heads=2)

    def f_urm(p):
        zt = TokenMap(Tensor(z.astype(p.dtype)), [(2, 2)], ["template"])
        xt = TokenMap(Tensor(x.astype(p.dtype)), [(3, 3)], ["search"])
        o = urm(concat_maps([zt, xt]))
        return ad.sum_(o.tokens * o.tokens)

    checks.append(("urm", f_urm, ps2))

    return [(f"gradient {name} max_rel_err",
             ad.grad_check(f, store, eps=1e-5, max_coords_per_param=3,
                           rng=np.random.default_rng(seed)), 1e-5)
            for name, f, store in checks]


def _selftest_float32_kernels(seed):
    """Largest gap between the float32 fast kernels and float64."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(256, 24)) * 3.0
    w = rng.normal(size=(24, 1, 3, 3)) / 3.0
    b = rng.normal(size=24)
    g = rng.normal(size=24)

    def run_all(dtype):
        tx, tw, tb, tg = (Tensor(a.astype(dtype)) for a in (x, w, b, g))
        outs = [ad.gelu(tx), ad.softmax_lastdim(tx), ad.layer_norm(tx, tg, tb)]
        outs += [ad.depthwise_conv3x3(tx, (16, 16), tw, tb, pad=pad)
                 for pad in ("edge", "zero")]
        return [o.data for o in outs]

    with ad.no_grad():
        # np.max, unlike max, keeps a NaN that is not first
        return float(np.max([np.abs(a - b).max() for a, b in
                             zip(run_all(np.float32), run_all(np.float64))]))


def _thread_split_arrays(name, seed):
    """A variant's float32 outputs at the calling thread's width: the
    no-graph prediction, and one training step's clipped gradients and
    updated weights."""
    model = bb.build_variant(name, seed=seed)
    cfg = model.cfg
    rng = np.random.default_rng(seed)
    z = rng.random((3, cfg.template_size, cfg.template_size), dtype=np.float32)
    x = rng.random((3, cfg.search_size, cfg.search_size), dtype=np.float32)
    with ad.no_grad():
        pred = model.predict(Tensor(z), Tensor(x))
    arrays = [pred.score.data, pred.offset.data, pred.size.data]
    hn.train_loop(model, [], steps=1, lr=1e-3,
                  fixed_sample=(z, x, (0.5, 0.5, 0.25, 0.25)))
    arrays += [p.grad for _, p in model.store.items()]
    return arrays + [p.data for _, p in model.store.items()]


def _selftest_thread_split(seed):
    """(arrays compared, arrays differing) between fork-join widths 1 and
    2. Whether a split keeps every bit depends on the BLAS build, so this
    runs on the installed one."""
    compared = differing = 0
    for name in THREAD_SPLIT_VARIANTS:
        runs = []
        for width in (1, 2):
            with ad.thread_width(width):
                runs.append(_thread_split_arrays(name, seed))
        for a, b in zip(*runs):
            compared += 1
            differing += (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape,
                                                               b.tobytes())
    return compared, differing


def cmd_selftest(args, out):
    checks = _selftest_grad_checks(args.seed)

    # attention cross-update against the dynamic-convolution decomposition
    rng = np.random.default_rng(args.seed + 1)
    worst_ca = 0.0
    for _ in range(10):
        ps = ParamStore()
        frm = FrmLayer(ps, "frm", rng, channels=8, heads=2)
        ps.cast_(np.float64)
        zt = TokenMap(Tensor(rng.normal(size=(4, 8))), [(2, 2)], ["template"])
        xt = TokenMap(Tensor(rng.normal(size=(9, 8))), [(3, 3)], ["search"])
        _, xo = frm.attention_update(zt, xt)
        oracle = ca_dynamic_conv_oracle(zt, xt, frm)
        worst_ca = np.maximum(worst_ca, np.abs(xo.data - oracle).max())
    checks.append(("dynamic-conv-equivalence max_abs_err", worst_ca, 1e-6))

    # joint attention restricted by segment masks matches the two-stream
    # attention terms
    rng = np.random.default_rng(args.seed + 2)
    worst_urm = 0.0
    for _ in range(10):
        ps = ParamStore()
        urm = UrmLayer(ps, "urm", rng, channels=8, heads=2)
        ps.cast_(np.float64)
        zt = TokenMap(Tensor(rng.normal(size=(4, 8))), [(2, 2)], ["template"])
        xt = TokenMap(Tensor(rng.normal(size=(9, 8))), [(3, 3)], ["search"])
        tm = concat_maps([zt, xt])
        same = urm.attention_update(tm, segment_mask(tm, "same")).data
        zn, xn = tm.with_tokens(urm.ln1(tm.tokens)).split()
        ref = np.vstack([
            urm.attn(zn, zn).data + zt.tokens.data,
            urm.attn(xn, xn).data + xt.tokens.data,
        ])
        worst_urm = np.maximum(worst_urm, np.abs(same - ref).max())
    checks.append(("joint-attention-reduction max_abs_err", worst_urm, 1e-6))
    checks.append(("float32-kernels max_abs_err",
                   _selftest_float32_kernels(args.seed + 3), 1e-5))

    passed = []

    def report(line, ok):
        passed.append(ok)
        out.write(f"selftest {line} {'pass' if ok else 'FAIL'}\n")

    for line, value, bound in checks:
        # a NaN value fails
        report(f"{line}={value:.3e}", value <= bound)
    compared, differing = _selftest_thread_split(args.seed)
    report(f"thread-split variants={','.join(THREAD_SPLIT_VARIANTS)} "
           f"arrays={compared} differing={differing}", differing == 0)

    if not all(passed):
        raise NumericError("selftest failed")
    out.write("selftest all pass\n")
    return 0


def cmd_gen_data(args, out):
    if args.sequences < 1:
        raise ConfigError(f"--sequences must be >= 1, got {args.sequences}")
    if args.length < 2:
        raise ConfigError(f"--length must be >= 2, got {args.length}")
    if not hn.MIN_FRAME_SIZE <= args.frame_size <= hn.MAX_FRAME_SIZE:
        raise ConfigError(f"--frame-size must be from {hn.MIN_FRAME_SIZE} to "
                          f"{hn.MAX_FRAME_SIZE}, got {args.frame_size}")
    if args.length * 3 * args.frame_size ** 2 > hn.MAX_SEQUENCE_BYTES:
        raise ConfigError(f"--length {args.length} frames of {args.frame_size}"
                          f" px exceed {hn.MAX_SEQUENCE_BYTES} bytes")
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        for k in range(args.sequences):
            seq = hn.gen_sequence(args.seed + k, length=args.length,
                                  frame_size=args.frame_size,
                                  difficulty=args.difficulty)
            hn.save_sequence(seq, args.out)
            out.write(f"wrote {os.path.join(args.out, seq.name)} "
                      f"frames={args.length}\n")
    return 0


def cmd_train(args, out):
    _check_training_flags(args)
    seqs = hn.load_dataset(args.data)
    model = _build_model(args)

    def log(step, parts):
        out.write(
            f"step {step} total={parts['total']:.6f} cls={parts['cls']:.6f} "
            f"giou={parts['giou']:.6f} l1={parts['l1']:.6f}\n"
        )

    hn.train_loop(model, seqs, steps=args.steps, lr=args.lr,
                  weight_decay=args.weight_decay, seed=args.seed,
                  log_every=args.log_every, log_fn=log)
    return _save(model, args.out, out)


def cmd_pretrain_mim(args, out):
    _check_training_flags(args)
    config = _resolve_variant(args)
    # checked on the variant's crop size before any build or data read
    try:
        bb.MimPretrainer.masked_count(config, args.mask_ratio)
    except ConfigError as e:
        raise ConfigError(f"--mask-ratio: {e}") from None
    seqs = hn.load_dataset(args.data)
    model = _build_model(args, config)
    pre = bb.MimPretrainer(model, seed=args.seed)
    hn.pretrain_loop(pre, seqs, steps=args.steps, lr=args.lr,
                     mask_ratio=args.mask_ratio, seed=args.seed,
                     log_every=args.log_every,
                     log_fn=lambda step, recon: out.write(
                         f"step {step} recon={recon:.6f}\n"))
    return _save(model, args.out, out)


def _tracker_config(args):
    # NaN fails both comparisons
    if not 0.0 <= args.window_weight <= 1.0:
        raise ConfigError(f"--window-weight must be a finite number in "
                          f"[0, 1], got {args.window_weight}")
    return trk.TrackerConfig(window_weight=args.window_weight,
                             temporal=args.temporal)


def cmd_track(args, out):
    _check_out_file(args.out)
    config = _tracker_config(args)
    box = _parse_box(args.init)
    frames = _load_frames(args.video)
    trk.check_box_in_frame(box, frames[0].shape)
    model = _build_model(args)
    boxes = trk.track_frames(model, frames, box, config)
    return _emit("".join(f"{i},{x:.6f},{y:.6f},{w:.6f},{h:.6f}\n"
                         for i, (x, y, w, h) in enumerate([box] + boxes)),
                 args.out, out)


def cmd_eval(args, out):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    _check_out_file(args.out)
    config = _tracker_config(args)
    variant = _resolve_variant(args)
    seqs = hn.load_dataset(args.data)
    hn.check_trackable(seqs, variant.search_size)
    model = _build_model(args, variant)
    metrics = hn.evaluate(model, seqs, config=config, jobs=args.jobs)
    return _emit(hn.format_report(metrics), args.out, out)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="sbt-lab",
                     description="single-branch transformer tracking lab")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, fn, help_text, seed_help):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=42,
                       help=seed_help + " (default: %(default)s)")
        return p

    unused = "unused: nothing here draws random values"
    weights = ("draws the initial weights; unused with --checkpoint, whose "
               "weights replace them")
    p = add("variant-info", cmd_variant_info,
            "print parameter/FLOP figures for a model variant", unused)
    _add_variant_flags(p)

    p = add("flops", cmd_flops, "print the per-layer FLOP breakdown", unused)
    _add_variant_flags(p)

    add("selftest", cmd_selftest,
        "run gradient, attention-equivalence and thread-split checks",
        "draws the random test inputs and weights")

    p = add("gen-data", cmd_gen_data, "generate a synthetic sequence corpus",
            "seed of the first sequence; sequence k uses seed + k")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--sequences", type=int, default=hn.DEFAULT_TRAIN_SEQS,
                   help="number of sequences (default: %(default)s)")
    p.add_argument("--length", type=int, default=hn.DEFAULT_LENGTH,
                   help="frames per sequence (default: %(default)s)")
    p.add_argument("--frame-size", type=int, default=hn.DEFAULT_FRAME_SIZE,
                   help="square frame side in pixels (default: %(default)s)")
    p.add_argument("--difficulty", default="easy", choices=hn.DIFFICULTIES,
                   help="sequence style (default: %(default)s)")

    p = add("train", cmd_train, "train a variant on a sequence corpus",
            "draws the initial weights (unused with --checkpoint) and the "
            "training pairs with their jitter")
    _add_training_flags(p, 2000, "initial weights to fine-tune from")
    p.add_argument("--weight-decay", type=float, default=1e-4,
                   help="decoupled weight decay (default: %(default)s)")

    p = add("pretrain-mim", cmd_pretrain_mim,
            "masked-patch reconstruction pretraining",
            "draws the initial encoder weights (unused with --checkpoint), "
            "the decoder weights, the training crops and the masks")
    _add_training_flags(p, 500, "initial weights to continue from")
    p.add_argument("--mask-ratio", type=float, default=0.75,
                   help="fraction of patches hidden (default: %(default)s)")

    p = add("track", cmd_track, "track one target through a frame directory",
            weights)
    _add_tracker_flags(p)
    p.add_argument("--video", required=True,
                   help="directory of frame_<n>.ppm files")
    p.add_argument("--init", required=True,
                   help="frame-1 target box as x,y,w,h pixels")
    p.add_argument("--out", default=None, help="box CSV output path")

    p = add("eval", cmd_eval, "evaluate tracking metrics over a dataset",
            weights)
    _add_tracker_flags(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", default=None, help="report output path")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel sequences, >= 1; each pool worker's ops "
                        "split their work over an even share of the "
                        "SBT_LAB_THREADS threads, BLAS kept on one thread "
                        "(default: %(default)s)")

    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "fn", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        # a bad --seed or SBT_LAB_THREADS fails here, before any work
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        ad.set_threads()
        return args.fn(args, out)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SbtError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
