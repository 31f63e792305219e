"""The benchmark's workloads call the program's API directly.

A signature change to train_loop, TrackerConfig or SyntheticSequence
would otherwise surface only when the benchmark runs, so run the
cheapest part of two workloads here: TrackLight set-up and warm-up, and
one TrainLight step followed by its output checks.
"""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def workloads():
    # workloads.py does `import data` from its own directory
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        mod = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        sys.modules[spec.name] = mod
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.path.remove(PERFBENCH)
        sys.modules.pop("perfbench_workloads", None)
        sys.modules.pop("data", None)


def test_track_light_setup_and_warmup(workloads, tmp_path):
    w = workloads.TrackLight(1, str(tmp_path / "track"))
    w.setup()
    w.warmup()


def test_train_light_one_step_checks_pass(workloads, tmp_path):
    w = workloads.TrainLight(1, str(tmp_path / "train"))
    w.setup()
    stats = workloads.RunStats()
    w.run(0, stats)
    assert stats.attempted == 1 and stats.failed == 0, stats.failures
    checks = w.check()
    assert checks and all(ok for _, ok, _ in checks), checks
