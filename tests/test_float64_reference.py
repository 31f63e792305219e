"""Float64 tolerance reference for whole-model numerics.

Float32 outputs move whenever a summation order changes, so the pinned
float32 hashes in ``test_cli.py`` say only that something moved. This
reference says what: it holds, in float64, the prediction maps of three
models and one ``total_loss`` backward through each, recorded once from a
known-good build. A change that only reorders float arithmetic keeps
every value within 1e-9 relative; a change of the maths does not.

Re-record only with a deliberate change of what the model computes:

    PYTHONPATH=src python3 tests/test_float64_reference.py --record
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from sbt_lab import autodiff as ad
from sbt_lab import backbone as bb
from sbt_lab.autodiff import Tensor
from sbt_lab.loss import total_loss

REFERENCE_PATH = os.path.join(os.path.dirname(__file__),
                              "float64_reference.json")
RTOL = 1e-9
# a gradient whose magnitudes sum below this is zero up to rounding: the
# key biases' gradients, as softmax ignores a shift shared by every key
GRAD_FLOOR = 1e-6
GT_BOX = (0.47, 0.53, 0.3, 0.22)

# plain-sbt's paths at a size that runs in a second: one VG stage after a
# 16-stride embed, absolute PE, interleaved SA/CA and the conv head
TINY_PLAIN = bb.VariantConfig(
    name="tiny-plain",
    stages=[bb.StageConfig("vg", 32, 2, heads=2)],
    embed_kernel=16, embed_stride=16,
    inter_stage="conv", pe="abs", pattern="interleave", head="conv",
    template_size=32, search_size=64,
)
MODELS = {"supersbt-light": "supersbt-light", "hi-sbt": "hi-sbt",
          "tiny-plain": TINY_PLAIN}


def _model_and_inputs(name):
    model = bb.build_variant(MODELS[name], seed=3)
    model.store.cast_(np.float64)
    cfg = model.cfg
    rng = np.random.default_rng(11)
    z, dyn = (Tensor(rng.random((3, cfg.template_size, cfg.template_size)))
              for _ in range(2))
    x = Tensor(rng.random((3, cfg.search_size, cfg.search_size)))
    return model, z, x, dyn


def _map_stats(a: np.ndarray, seed: int) -> list:
    """Sum, sum of squares, a fixed random projection and the sum of
    magnitudes of a map."""
    proj = np.random.default_rng(seed).standard_normal(a.size)
    flat = a.reshape(-1)
    return [float(flat.sum()), float((flat * flat).sum()),
            float(flat @ proj), float(np.abs(flat).sum())]


def measure(name) -> dict:
    """Head-map statistics, the loss and per-parameter gradient sums of
    one float64 forward and backward with a dynamic template."""
    model, z, x, dyn = _model_and_inputs(name)
    out = model.predict(z, x, dyn)
    maps = {k: _map_stats(getattr(out, k).data, i)
            for i, k in enumerate(("score", "offset", "size"))}
    loss, _ = total_loss(out, GT_BOX)
    ad.backward(loss)
    grads = {}
    for pname, p in model.store.items():
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        grads[pname] = [float(g.sum()), float(np.abs(g).sum())]
    return {"maps": maps, "loss": float(loss.data.reshape(-1)[0]),
            "grads": grads}


def _reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(MODELS))
def test_float64_outputs_match_reference(name):
    ref = _reference()[name]
    got = measure(name)
    assert abs(got["loss"] - ref["loss"]) <= RTOL * abs(ref["loss"])
    for key, stats in ref["maps"].items():
        # measured against the map's magnitude, which bounds the others
        scale = stats[1] + stats[3]
        np.testing.assert_allclose(got["maps"][key], stats, rtol=0,
                                   atol=RTOL * scale, err_msg=key)
    assert set(got["grads"]) == set(ref["grads"])
    for pname, (total, mag) in ref["grads"].items():
        # a gradient's sum may cancel to near zero: measured against the
        # sum of its magnitudes
        tol = RTOL * max(mag, GRAD_FLOOR)
        assert abs(got["grads"][pname][0] - total) <= tol, pname
        assert abs(got["grads"][pname][1] - mag) <= tol, pname


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_float64_reference.py --record")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: measure(name) for name in MODELS}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
