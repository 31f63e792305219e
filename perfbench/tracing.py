"""Span tracing of the program from outside, by wrapping its functions.

``Tracer.install`` replaces module attributes and class methods of
``sbt_lab`` with timing wrappers and ``uninstall`` puts the originals
back; the program's files are not changed. A wrapper is installed on the
attribute the program actually looks up at call time: ``tracker`` imports
``decode_box`` by name, so the wrapper goes on ``tracker.decode_box``,
not on ``head.decode_box``.

Spans are kept in memory per thread. Each records its parent span, the
item (frame, init or training step) it belongs to, the phase the run
was in, and the time its direct children took, so self time is the
duration minus that child time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

import numpy as np

from sbt_lab import autodiff, backbone, cli, harness, head, layers, optim, tracker

# span record fields
SID, PARENT, NAME, ITEM, PHASE, T0, T1, CHILD, FLOPS, VALUE = range(10)


def _linear_flops(x, w, b=None):
    return 2 * (x.data.size // x.data.shape[-1]) * w.data.shape[0] * w.data.shape[1]


def _matmul_flops(a, b):
    batch = np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
    m, k = a.data.shape[-2:]
    return 2 * int(np.prod(batch)) * m * k * b.data.shape[-1]


def _conv2d_flops(t, w, b, stride=1, padding=0, groups=1):
    _, h, win = t.data.shape
    cout, cin_g, k, _ = w.data.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (win + 2 * padding - k) // stride + 1
    return 2 * cout * ho * wo * cin_g * k * k


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list = []
        self._ids = itertools.count(1)
        self._saved: list = []
        self._item_ids = itertools.count(1)
        self.phase = "setup"

    # -- per-thread state ------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.spans = []
            st.item = None
            with self._lock:
                self._per_thread.append(st.spans)
        return st

    def set_item(self, kind):
        """Tag the following spans of this thread with a new work item of
        ``kind``, or with none."""
        self._state().item = None if kind is None else (kind, next(self._item_ids))

    def spans(self) -> list:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, *, name_arg=None, flops=None, value=None,
             item=None):
        """Timing wrapper around ``fn``.

        name_arg: index of a string argument appended to the span name.
        flops: callable on the call's arguments giving its operation count.
        value: callable (args, result) giving a number kept with the span.
        item: work-item kind this call starts, e.g. "frame".
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            if item is not None:
                self.set_item(item)
            stack = st.stack
            parent = stack[-1] if stack else None
            label = name if name_arg is None else f"{name}.{args[name_arg]}"
            rec = [next(self._ids), parent[SID] if parent else 0, label,
                   st.item, self.phase, 0.0, 0.0, 0.0,
                   flops(*args, **kwargs) if flops else 0, 0.0]
            stack.append(rec)
            rec[T0] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += t1 - rec[T0]
                st.spans.append(rec)
            if value is not None:
                rec[VALUE] = float(value(args, out))
            return out

        return wrapper

    def _patch(self, owner, attr, name, **opts):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **opts))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        p = self._patch
        # tracker: the per-frame path; `tracker` binds decode_box by name
        p(tracker, "init", "tracker.init", item="init")
        p(tracker, "track_step", "tracker.track_step", item="frame")
        p(tracker, "maybe_update_template", "tracker.maybe_update_template",
          value=lambda a, out: 1.0 if out else 0.0)
        p(tracker, "crop_region", "tracker.crop_region")
        p(tracker, "decode_box", "head.decode_box")
        # backbone
        p(backbone, "build_variant", "backbone.build_variant")
        p(backbone, "load_checkpoint", "backbone.load_checkpoint",
          value=lambda a, out: os.path.getsize(a[0]))
        p(backbone, "save_checkpoint", "backbone.save_checkpoint",
          value=lambda a, out: os.path.getsize(a[1]))
        p(backbone.Model, "encode_early", "backbone.encode_early", name_arg=2)
        p(backbone.Model, "forward_joint", "backbone.forward_joint")
        # layers and heads: classes, so the import style of callers is moot
        for cls in (layers.UrmLayer, layers.FrmLayer, layers.LocalLayer,
                    layers.PatchMerge, layers.PatchEmbed, layers.Attention,
                    layers.Mlp):
            p(cls, "__call__", f"layers.{cls.__name__}")
        p(layers.RelBiasTable, "bias", "layers.RelBiasTable.bias")
        p(head.MixMlpHead, "__call__", "head.MixMlpHead")
        p(head.ConvHead, "__call__", "head.ConvHead")
        # forward kernels; callers use `ad.<name>`, so module attributes
        p(autodiff, "linear", "autodiff.linear", flops=_linear_flops)
        p(autodiff, "matmul", "autodiff.matmul", flops=_matmul_flops)
        p(autodiff, "conv2d", "autodiff.conv2d", flops=_conv2d_flops)
        for fn in ("gelu", "softmax_lastdim", "layer_norm", "take_rows",
                   "backward"):
            p(autodiff, fn, f"autodiff.{fn}")
        # training; `harness` binds total_loss and clip_grad_norm by name
        p(optim.AdamW, "step", "optim.AdamW.step")
        p(harness, "clip_grad_norm", "optim.clip_grad_norm")
        p(harness, "total_loss", "loss.total_loss")
        p(harness, "sample_pair", "harness.sample_pair")
        # evaluation and CLI
        p(harness, "load_dataset", "harness.load_dataset")
        p(harness, "read_ppm", "harness.read_ppm",
          value=lambda a, out: out.nbytes)
        p(harness, "evaluate", "harness.evaluate")
        p(harness, "run_tracker_on_sequence", "harness.run_tracker_on_sequence")
        p(cli, "run", "cli.run")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output -------------------------------------------------------------

    def write(self, path):
        """All spans, one JSON array per line, ordered by start time."""
        spans = sorted(self.spans(), key=lambda s: s[T0])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(["sid", "parent", "name", "item", "phase",
                                 "t0", "t1", "child_s", "flops", "value"])
                     + "\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def aggregate(spans, phase=None) -> dict:
    """Per span name: calls, inclusive and self seconds, flops, values.

    Only spans started in ``phase`` count; all of them when it is None.
    """
    out: dict = {}
    for s in spans:
        if phase is not None and s[PHASE] != phase:
            continue
        a = out.setdefault(s[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                     "flops": 0, "value": 0.0})
        dur = s[T1] - s[T0]
        a["calls"] += 1
        a["incl_s"] += dur
        a["self_s"] += dur - s[CHILD]
        a["flops"] += s[FLOPS]
        a["value"] += s[VALUE]
    return out


def flops_by_item_kind(spans, phase="measure") -> dict:
    """Summed shape-computed flops per work-item kind, and the item count."""
    flops: dict = {}
    items: dict = {}
    for s in spans:
        if s[PHASE] != phase or s[ITEM] is None:
            continue
        kind = s[ITEM][0]
        flops[kind] = flops.get(kind, 0) + s[FLOPS]
        items.setdefault(kind, set()).add(s[ITEM][1])
    return {k: (flops[k], len(items[k])) for k in flops}
