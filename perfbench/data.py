"""Seeded synthetic sequences for the benchmark.

One textured target moves over a textured background. Positions and
sizes are whole pixels and the target is pasted without resampling, so
the ground-truth box (x, y, w, h) is exact. The program's own
``harness.gen_sequence`` is not used: it cannot run at this commit
(its ``uniform_filter`` is never imported), so ``gen-data`` stays
unmeasured until it is fixed.
"""

from __future__ import annotations

import numpy as np

from sbt_lab import harness


def _upsample(coarse: np.ndarray, size: int) -> np.ndarray:
    """Bilinear upsampling of a (3, n, n) field to (3, size, size)."""
    n = coarse.shape[1]
    pos = np.linspace(0.0, n - 1.0, size)
    eye = np.eye(n)
    # row k of interp is the linear-interpolation weight vector at pos[k]
    interp = np.stack([np.interp(pos, np.arange(n), eye[j]) for j in range(n)],
                      axis=1)
    return np.einsum("yi,cij,xj->cyx", interp, coarse, interp)


def _background(rng, size: int) -> np.ndarray:
    # muted, smooth colour field plus faint pixel noise: lower contrast
    # than the target so the target stays the most salient object
    coarse = rng.uniform(0.3, 0.7, size=(3, 9, 9))
    fine = rng.uniform(-0.04, 0.04, size=(3, size, size))
    return np.clip(_upsample(coarse, size) + fine, 0.0, 1.0)


def _texture(rng, w: int, h: int) -> np.ndarray:
    ys, xs = np.mgrid[0:h, 0:w]
    fx, fy = rng.uniform(0.08, 0.25, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    base = rng.uniform(0.2, 0.8, size=3)
    return np.clip(np.stack([
        base[c] + 0.35 * np.sin(fx * xs + fy * ys + phase[c]) for c in range(3)
    ]), 0.0, 1.0)


def make_sequence(seed: int, length: int, frame_size: int = 256,
                  name: str | None = None) -> harness.SyntheticSequence:
    """A deterministic sequence of ``length`` uint8 (3, S, S) frames."""
    if length < 2:
        raise ValueError(f"sequence length must be >= 2, got {length}")
    rng = np.random.default_rng(seed)
    s = frame_size
    bg = _background(rng, s)
    w = int(rng.integers(int(0.14 * s), int(0.24 * s) + 1))
    h = int(rng.integers(int(0.14 * s), int(0.24 * s) + 1))
    tex = _texture(rng, w, h)
    x = int(rng.integers(0, s - w + 1))
    y = int(rng.integers(0, s - h + 1))
    vx, vy = (int(v) for v in rng.integers(-4, 5, size=2))
    frames, gt = [], []
    for _ in range(length):
        frame = bg.copy()
        frame[:, y:y + h, x:x + w] = tex
        frames.append((frame * 255.0).astype(np.uint8))
        gt.append((float(x), float(y), float(w), float(h)))
        # bounce off the frame edges so the target stays fully visible
        if not 0 <= x + vx <= s - w:
            vx = -vx
        if not 0 <= y + vy <= s - h:
            vy = -vy
        x += vx
        y += vy
    return harness.SyntheticSequence(frames, gt, seed, "easy",
                                     name=name or f"seq_{seed}")


def make_sequences(seed: int, count: int, length: int,
                   frame_size: int = 256) -> list:
    """``count`` sequences whose seeds are drawn from ``seed``."""
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)
    return [make_sequence(int(sd), length, frame_size, name=f"seq_{k}")
            for k, sd in enumerate(seeds)]
