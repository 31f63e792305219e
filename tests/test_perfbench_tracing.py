"""The benchmark's --trace 1 mode wraps program functions by name.

A rename or deletion of a wrapped name would crash traced runs with
AttributeError, so install and uninstall the tracer here.
"""

import importlib.util
import os

from sbt_lab import autodiff, backbone, cli, harness, head, layers, optim, tracker

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
