"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``,
runs whole operations until a deadline in ``run`` and checks the
program's outputs in ``check``. One operation is one tracked frame
(track-light), one ``sbt-lab eval`` command (eval-hi-dyn) or one
training step (train-light). All run in this one process.
"""

from __future__ import annotations

import io
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from sbt_lab import autodiff, backbone, cli, harness, tracker
from sbt_lab.autodiff import Tensor
from sbt_lab.errors import NumericError, SbtError

import data

# float32 head maps against the same weights cast to float64; the maps are
# sigmoid-bounded, so an absolute tolerance is meaningful
PROBE_ATOL = 1e-4
PROBE_PAIRS = 2


@dataclass
class RunStats:
    """What ``Workload.run`` measured."""

    wall_s: float = 0.0  # time the counted items took
    items: int = 0  # frames or steps counted in wall_s
    item_ms: list = field(default_factory=list)  # per-item latency samples
    attempted: int = 0  # operations started
    failed: int = 0  # operations that raised or returned a bad output
    extra: dict = field(default_factory=dict)  # workload-specific samples
    failures: list = field(default_factory=list)


class Workload:
    name = ""
    variant = ""
    item = "frame"  # what one counted item is: "frame" or "step"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.model = None

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        """Work done once before timing so lazy set-up is not measured."""

    def run(self, seconds: float, stats: RunStats, on_item=None):
        """Run whole operations for about ``seconds``; ``on_item()`` is
        called as each training step begins."""
        raise NotImplementedError

    def check(self) -> list:
        """(name, ok, detail) for each output check made after the run."""
        return []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _time_left(deadline, durations) -> bool:
    """Whether to start another operation: only if it would end, at its
    median duration so far, no more than half an operation late."""
    now = time.perf_counter()
    if not durations:
        return now < deadline
    return now + 0.5 * float(np.median(durations)) < deadline


def _box_ok(box, frame_shape) -> bool:
    _, fh, fw = frame_shape
    x, y, w, h = box
    eps = 1e-6
    return (all(math.isfinite(v) for v in box) and w > 0 and h > 0
            and x >= -eps and y >= -eps and x + w <= fw + eps
            and y + h <= fh + eps)


class TrackLight(Workload):
    """One stream tracked online through supersbt-light, one frame in
    flight, dynamic template off; calls the tracker as ``cmd_track`` does."""

    name = "track-light"
    variant = "supersbt-light"
    STREAMS, STREAM_LEN = 6, 12

    def setup(self):
        self.model = backbone.build_variant(self.variant, seed=self.seed)
        self.seqs = data.make_sequences(self.seed, self.STREAMS, self.STREAM_LEN)
        self.config = tracker.TrackerConfig(temporal=False)
        self._stream = 0

    def warmup(self):
        seq = self.seqs[0]
        state = tracker.init(seq.frames[0].astype(np.float32) / 255.0,
                             seq.gt[0], self.model, self.config)
        tracker.track_step(state, seq.frames[1].astype(np.float32) / 255.0)

    def run(self, seconds, stats, on_item=None):
        deadline = time.perf_counter() + seconds
        first_box = stats.extra.setdefault("first_box_ms", [])
        t_start = time.perf_counter()
        while time.perf_counter() < deadline:
            seq = self.seqs[self._stream % len(self.seqs)]
            self._stream += 1
            t_init = time.perf_counter()
            state = tracker.init(seq.frames[0].astype(np.float32) / 255.0,
                                 seq.gt[0], self.model, self.config)
            for k in range(1, len(seq.frames)):
                t0 = time.perf_counter()
                stats.attempted += 1
                try:
                    f = seq.frames[k].astype(np.float32) / 255.0
                    box, conf = tracker.track_step(state, f)
                    tracker.maybe_update_template(state, f, conf)
                except SbtError as e:
                    stats.failed += 1
                    stats.failures.append(f"frame {k}: {e}")
                    break
                t1 = time.perf_counter()
                if k == 1:
                    first_box.append(1e3 * (t1 - t_init))
                stats.item_ms.append(1e3 * (t1 - t0))
                stats.items += 1
                if not _box_ok(box, f.shape):
                    stats.failed += 1
                    stats.failures.append(
                        f"frame {k}: bad box {tuple(float(v) for v in box)}")
                if t1 >= deadline:
                    break
        stats.wall_s += time.perf_counter() - t_start

    def check(self):
        rng = np.random.default_rng(self.seed + 1)
        size = self.model.cfg
        pairs = []
        for i in range(PROBE_PAIRS):
            seq = self.seqs[i % len(self.seqs)]
            k = int(rng.integers(1, len(seq.frames)))
            x, y, w, h = seq.gt[0]
            z, _ = tracker.crop_region(seq.frames[0].astype(np.float32) / 255.0,
                                       (x + w / 2, y + h / 2),
                                       2.0 * math.sqrt(w * h), size.template_size)
            x, y, w, h = seq.gt[k]
            s, _ = tracker.crop_region(seq.frames[k].astype(np.float32) / 255.0,
                                       (x + w / 2, y + h / 2),
                                       4.0 * math.sqrt(w * h), size.search_size)
            pairs.append((z, s))
        with autodiff.no_grad():
            out32 = [self.model.predict(Tensor(z), Tensor(s)) for z, s in pairs]
            # the model is not used after the checks, so cast it in place
            self.model.store.cast_(np.float64)
            out64 = [self.model.predict(Tensor(z.astype(np.float64)),
                                        Tensor(s.astype(np.float64)))
                     for z, s in pairs]
        results = []
        for i, (a, b) in enumerate(zip(out32, out64)):
            err = max(float(np.abs(getattr(a, m).data - getattr(b, m).data).max())
                      for m in ("score", "offset", "size"))
            results.append((f"probe{i}.float64_agreement",
                            err <= PROBE_ATOL,
                            f"max_abs_err={err:.3e} atol={PROBE_ATOL:g}"))
        return results


_REPORT_SEQ = re.compile(
    r"seq name=(seq_\d+) ao=([0-9.]+) auc=([0-9.]+) precision=([0-9.]+)$")
_REPORT_ALL = re.compile(
    r"aggregate sequences=(\d+) ao=([0-9.]+) auc=([0-9.]+) precision=([0-9.]+)$")


def report_problems(text: str, names: list) -> list:
    """Why an eval report is malformed; empty when it is well formed."""
    lines = text.splitlines()
    if len(lines) != len(names) + 1:
        return [f"{len(lines)} lines for {len(names)} sequences"]
    problems = []
    for line, name in zip(lines, names):
        m = _REPORT_SEQ.match(line)
        if not m or m.group(1) != name:
            problems.append(f"bad record {line!r}")
        elif not all(0.0 <= float(v) <= 1.0 for v in m.groups()[1:]):
            problems.append(f"metric out of [0, 1] in {line!r}")
    m = _REPORT_ALL.match(lines[-1])
    if not m or int(m.group(1)) != len(names):
        problems.append(f"bad aggregate {lines[-1]!r}")
    elif not all(0.0 <= float(v) <= 1.0 for v in m.groups()[1:]):
        problems.append(f"metric out of [0, 1] in {lines[-1]!r}")
    return problems


class EvalHiDyn(Workload):
    """``sbt-lab eval`` on hi-sbt with the dynamic template, over a PPM
    dataset written at set-up, with one job per core."""

    name = "eval-hi-dyn"
    variant = "hi-sbt"
    SEQUENCES, SEQ_LEN = 2, 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.root = None
        self._setups = 0

    def setup(self):
        # each set-up writes a fresh copy, so repeated set-ups all pay
        # for the file writes
        if self.root:
            shutil.rmtree(self.root, ignore_errors=True)
        self._setups += 1
        self.root = os.path.join(self.workdir, f"setup{self._setups}")
        self.data_dir = os.path.join(self.root, "data")
        os.makedirs(self.data_dir)
        seqs = data.make_sequences(self.seed, self.SEQUENCES, self.SEQ_LEN)
        for seq in seqs:
            harness.save_sequence(seq, self.data_dir)
        self.names = [s.name for s in seqs]
        self.frames_per_command = sum(len(s.frames) - 1 for s in seqs)
        self.model = backbone.build_variant(self.variant, seed=self.seed)
        self.checkpoint = os.path.join(self.root, "model.sbtc")
        backbone.save_checkpoint(self.model, self.checkpoint)
        self.jobs = os.cpu_count() or 1
        self.argv = ["eval", "--variant", self.variant, "--temporal",
                     "--jobs", str(self.jobs), "--checkpoint", self.checkpoint,
                     "--data", self.data_dir]
        self.reports = []

    def run(self, seconds, stats, on_item=None):
        deadline = time.perf_counter() + seconds
        cmd_s = stats.extra.setdefault("command_s", [])
        while _time_left(deadline, cmd_s):
            stats.attempted += 1
            out = io.StringIO()
            t0 = time.perf_counter()
            rc = cli.run(self.argv, out=out)
            dt = time.perf_counter() - t0
            cmd_s.append(dt)
            stats.wall_s += dt
            stats.items += self.frames_per_command
            stats.item_ms.append(1e3 * dt / self.frames_per_command)
            report = out.getvalue()
            self.reports.append(report)
            problems = report_problems(report, self.names)
            if rc != 0 or problems:
                stats.failed += 1
                stats.failures.append(f"eval exit {rc}: {problems}")

    def check(self):
        first = self.reports[0] if self.reports else ""
        same = sum(r == first for r in self.reports)
        return [("report.identical_across_repetitions",
                 bool(self.reports) and same == len(self.reports),
                 f"{same}/{len(self.reports)} reports equal the first")]


class TrainLight(Workload):
    """``harness.train_loop`` on supersbt-light over in-memory sequences,
    then ``backbone.save_checkpoint``."""

    name = "train-light"
    variant = "supersbt-light"
    item = "step"
    SEQUENCES, SEQ_LEN = 4, 16

    def setup(self):
        self.model = backbone.build_variant(self.variant, seed=self.seed)
        self.seqs = data.make_sequences(self.seed, self.SEQUENCES, self.SEQ_LEN)
        os.makedirs(self.workdir, exist_ok=True)
        self.checkpoint = os.path.join(self.workdir, "train.sbtc")
        self.losses = []
        self._loops = 0

    def run(self, seconds, stats, on_item=None):
        # train_loop makes a new optimizer, so its first step allocates the
        # AdamW moments; that step is timed apart, not as a sample
        first_step = stats.extra.setdefault("first_step_ms", [])
        save_s = stats.extra.setdefault("save_checkpoint_s", [])
        marks = []

        def stop(step, parts):
            marks.append(time.perf_counter())
            self.losses.append(parts)
            if not _time_left(deadline, np.diff(marks).tolist()):
                return True
            if on_item is not None:
                on_item()
            return False

        self._loops += 1
        deadline = time.perf_counter() + seconds
        t0 = time.perf_counter()
        if on_item is not None:
            on_item()
        failed = False
        try:
            harness.train_loop(self.model, self.seqs, steps=1_000_000,
                               seed=self.seed + self._loops, stop_fn=stop)
        except NumericError as e:
            failed = True
            stats.failures.append(f"training: {e}")
        # a step whose loss is not finite raises before stop() sees it
        stats.attempted += len(marks) + failed
        stats.failed += failed
        if marks:
            first_step.append(1e3 * (marks[0] - t0))
            steps = np.diff(marks)
            stats.item_ms.extend((1e3 * steps).tolist())
            stats.items += len(steps)
            stats.wall_s += marks[-1] - marks[0]
        t = time.perf_counter()
        backbone.save_checkpoint(self.model, self.checkpoint)
        save_s.append(time.perf_counter() - t)

    def check(self):
        finite = all(math.isfinite(v) for parts in self.losses
                     for v in parts.values())
        fresh = backbone.build_variant(self.variant, seed=self.seed + 1)
        backbone.load_checkpoint(self.checkpoint, fresh)
        trained = dict(self.model.store.items())
        mismatched = [n for n, p in fresh.store.items()
                      if p.data.dtype != trained[n].data.dtype
                      or not np.array_equal(p.data, trained[n].data)]
        return [
            ("losses.finite", finite and bool(self.losses),
             f"{len(self.losses)} steps"),
            ("checkpoint.bitwise_reload", not mismatched,
             f"{len(mismatched)} of {len(trained)} parameters differ"),
        ]


WORKLOADS = {w.name: w for w in (TrackLight, EvalHiDyn, TrainLight)}
