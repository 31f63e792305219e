"""Long-running training/evaluation builds backing the acceptance tests.

Results are cached as JSON (plus checkpoints) under tests/_artifacts so
repeated pytest runs validate the recorded outcome instead of re-running
hours of CPU work. Delete the directory to rebuild from scratch. Run
`python3 tests/acceptance_runs.py` to prebuild everything outside
pytest.

Only that script builds. Imported (as the tests do), a missing artifact
raises ArtifactNotBuilt with the prebuild command, so a cold cache fails
criteria 6 and 7 at once rather than holding a test session for hours.

Each artifact stores the fingerprint of what its outcome depends on: the
program source, this recipe and the numpy version. An artifact whose
fingerprint differs from the current one raises ArtifactStale, so a result
built from older code is never read as the current outcome; the script
rebuilds it.

All runs are deterministic: fixed corpus seeds, fixed training seeds.
"""

import glob
import hashlib
import json
import os
import time

import numpy as np

from sbt_lab import backbone as bb
from sbt_lab import harness as hn

HERE = os.path.dirname(os.path.abspath(__file__))
ART_DIR = os.path.join(HERE, "_artifacts")
SRC_DIR = os.path.join(os.path.dirname(HERE), "src", "sbt_lab")

VARIANT = "supersbt-light"
TRAIN_SEEDS = range(0, 64)
EVAL_SEEDS = range(1000, 1016)
SEQ_LENGTH = 60
FRAME_SIZE = 256

MAIN_STEPS = 2000
MAIN_LR = 3e-4
MAIN_SEED = 7

OVERFIT_STEPS = 300
OVERFIT_LR = 1e-3

MIM_STEPS = 500
MIM_MASK_RATIO = 0.75
MIM_LR = 3e-4
MIM_SEED = 11
SMOOTH_WINDOW = 50

# set by the script entry point; imported, a missing artifact raises
BUILD_ON_MISS = False

_corpus_cache = {}


class ArtifactNotBuilt(RuntimeError):
    """An acceptance artifact is missing from ART_DIR."""


class ArtifactStale(RuntimeError):
    """An acceptance artifact was built from other code or another recipe."""


def fingerprint():
    """sha256 over src/sbt_lab/*.py, this file and the numpy version.

    This whole file is hashed, not only the constants above: the build
    functions hold recipe values of their own (seeds, weight decay).
    """
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))) + [
            os.path.abspath(__file__)]:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    h.update(f"numpy {np.__version__}".encode())
    return h.hexdigest()


def _log(msg):
    print(f"[acceptance] {msg}", flush=True)


def _path(name):
    os.makedirs(ART_DIR, exist_ok=True)
    return os.path.join(ART_DIR, name)


def _cached(name, builder):
    p = _path(name + ".json")
    fp = fingerprint()
    if os.path.exists(p):
        with open(p) as fh:
            art = json.load(fh)
        if isinstance(art, dict) and art.get("fingerprint") == fp:
            return art["result"]
        if not BUILD_ON_MISS:
            raise ArtifactStale(
                f"{p} was built from other code, another recipe or another "
                f"numpy; run `python3 tests/acceptance_runs.py` (about 2.5 h "
                f"of CPU) to rebuild it")
        _log(f"{name}: stale artifact, rebuilding")
    elif not BUILD_ON_MISS:
        raise ArtifactNotBuilt(
            f"{p} is not prebuilt; run `python3 tests/acceptance_runs.py` "
            f"(about 2.5 h of CPU) to build it")
    result = builder()
    with open(p, "w") as fh:
        json.dump({"fingerprint": fp, "result": result}, fh, indent=1)
    return result


def corpus(which):
    got = _corpus_cache.get(which)
    if got is None:
        seeds = TRAIN_SEEDS if which == "train" else EVAL_SEEDS
        got = [hn.gen_sequence(s, length=SEQ_LENGTH, frame_size=FRAME_SIZE)
               for s in seeds]
        _corpus_cache[which] = got
    return got


def smoothed(losses, window=SMOOTH_WINDOW):
    arr = np.asarray(losses, dtype=np.float64)
    kernel = np.ones(window) / window
    return np.convolve(arr, kernel, mode="valid")


def overfit_result():
    def build():
        _log(f"overfit: {VARIANT}, {OVERFIT_STEPS} steps, lr={OVERFIT_LR}")
        model = bb.build_variant(VARIANT, seed=42)
        seq = corpus("train")[0]
        sample = hn.sample_pair(seq, model.cfg, np.random.default_rng(0),
                                jitter=False)
        t0 = time.time()
        res = hn.train_loop(model, [], steps=OVERFIT_STEPS, lr=OVERFIT_LR,
                            weight_decay=0.0, fixed_sample=sample,
                            log_every=25, log_fn=lambda s, p: _log(
                                f"overfit step {s} total={p['total']:.4f}"))
        return {
            "initial": res.losses[0],
            "final": float(min(res.losses[-10:])),
            "steps": OVERFIT_STEPS,
            "elapsed": time.time() - t0,
            "losses": res.losses,
        }

    return _cached("overfit", build)


def main_training():
    def build():
        _log(f"main: {VARIANT}, {MAIN_STEPS} steps, lr={MAIN_LR}")
        train = corpus("train")
        evals = corpus("eval")
        model = bb.build_variant(VARIANT, seed=42)
        untrained = bb.build_variant(VARIANT, seed=42)
        t0 = time.time()
        res = hn.train_loop(model, train, steps=MAIN_STEPS, lr=MAIN_LR,
                            weight_decay=1e-4, seed=MAIN_SEED, log_every=50,
                            log_fn=lambda s, p: _log(
                                f"main step {s} total={p['total']:.4f}"))
        train_elapsed = time.time() - t0
        bb.save_checkpoint(model, _path("main.sbtc"))
        t1 = time.time()
        trained_m = hn.evaluate(model, evals)
        _log(f"trained ao={trained_m.ao:.4f}")
        untrained_m = hn.evaluate(untrained, evals)
        _log(f"untrained ao={untrained_m.ao:.4f}")
        static_m = hn.aggregate([
            hn.sequence_metrics(s.name, hn.static_baseline(s), s.gt[1:])
            for s in evals])
        _log(f"static ao={static_m.ao:.4f}")
        return {
            "losses": res.losses,
            "train_elapsed": train_elapsed,
            "eval_elapsed": time.time() - t1,
            "trained": {"ao": trained_m.ao, "auc": trained_m.auc,
                        "precision": trained_m.precision},
            "untrained": {"ao": untrained_m.ao, "auc": untrained_m.auc,
                          "precision": untrained_m.precision},
            "static": {"ao": static_m.ao, "auc": static_m.auc,
                       "precision": static_m.precision},
        }

    return _cached("main_training", build)


def mim_result():
    def build():
        main = main_training()
        target = float(smoothed(main["losses"])[-1])
        _log(f"mim: {MIM_STEPS} steps, mask={MIM_MASK_RATIO}, "
             f"fine-tune target={target:.4f}")
        train = corpus("train")
        model = bb.build_variant(VARIANT, seed=42)
        pre = bb.MimPretrainer(model, seed=0)
        t0 = time.time()
        recon = hn.pretrain_loop(pre, train, steps=MIM_STEPS, lr=MIM_LR,
                                 mask_ratio=MIM_MASK_RATIO, seed=MIM_SEED,
                                 log_every=25, log_fn=lambda s, r: _log(
                                     f"mim step {s} recon={r:.4f}"))
        mim_elapsed = time.time() - t0
        bb.save_checkpoint(model, _path("mim.sbtc"))

        # fine-tune from the pretrained encoder with the exact recipe of
        # the random-init run; stop once the smoothed loss reaches the
        # level the random-init run ended at
        recent = []
        stop_step = {"step": None}

        def stop(step, parts):
            recent.append(parts["total"])
            if len(recent) >= SMOOTH_WINDOW and \
                    float(np.mean(recent[-SMOOTH_WINDOW:])) <= target:
                stop_step["step"] = step
                return True
            return False

        t0 = time.time()
        res = hn.train_loop(model, train, steps=MAIN_STEPS, lr=MAIN_LR,
                            weight_decay=1e-4, seed=MAIN_SEED, log_every=50,
                            stop_fn=stop, log_fn=lambda s, p: _log(
                                f"finetune step {s} total={p['total']:.4f}"))
        return {
            "recon": recon,
            "recon_initial": recon[0],
            "recon_final": float(np.mean(recon[-25:])),
            "mim_elapsed": mim_elapsed,
            "target": target,
            "random_steps_to_target": MAIN_STEPS,
            "finetune_steps": len(res.losses),
            "reached_target": stop_step["step"] is not None,
            "finetune_elapsed": time.time() - t0,
        }

    return _cached("mim", build)


if __name__ == "__main__":
    BUILD_ON_MISS = True
    overfit_result()
    main_training()
    mim_result()
    _log("all artifacts built")
