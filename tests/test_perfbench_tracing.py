"""The benchmark's --trace 1 mode wraps program functions by name.

A rename or deletion of a wrapped name would crash traced runs with
AttributeError, so install and uninstall the tracer here.
"""

import importlib.util
import os

import numpy as np

from sbt_lab import autodiff, backbone, cli, harness, head, layers, optim, tracker
from sbt_lab.autodiff import Tensor

from test_backbone import tiny_urm_config

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def snapshot():
    owners = [autodiff, backbone, cli, harness, head, layers, optim, tracker]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_install_wraps_and_uninstall_restores():
    before = snapshot()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, attr
    after = snapshot()
    for key, (owner, attrs) in before.items():
        assert after[key][1] == attrs, owner


def test_joint_stage_spans_recorded():
    # run.py reports 0 for a span that never fires, so a refactor that
    # bypasses a wrapped entry point would zero these metrics silently
    mod = load_tracing()
    model = backbone.build_variant(tiny_urm_config())
    cfg, rng = model.cfg, np.random.default_rng(0)
    z = rng.random((3, cfg.template_size, cfg.template_size), dtype=np.float32)
    x = rng.random((3, cfg.search_size, cfg.search_size), dtype=np.float32)
    tracer = mod.Tracer()
    try:
        tracer.install()
        with autodiff.no_grad():
            model.predict(Tensor(z), Tensor(x))
    finally:
        tracer.uninstall()
    names = [s[mod.NAME] for s in tracer.spans()]
    blocks = len(model.stage_blocks[-1])
    assert names.count("backbone.forward_joint") == 1
    assert names.count("layers.UrmLayer") == blocks
    assert names.count("layers.RelBiasTable.bias") == blocks
