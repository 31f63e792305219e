import argparse
import errno
import hashlib
import io
import os
import shutil
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sbt_lab import autodiff as ad
from sbt_lab import backbone as bb
from sbt_lab import cli
from sbt_lab import harness as hn
from sbt_lab import tracker as trk
from sbt_lab.autodiff import ParamStore
from sbt_lab.errors import NumericError

TINY_CFG = """
name = tiny
embed_kernel = 4
embed_stride = 4
inter_stage = merge
pe = rel
pattern = urm
head = mixmlp
template_size = 32
search_size = 64

[stage1]
operator = mlp-local
channels = 8
blocks = 1

[stage2]
operator = mlp-local
channels = 8
blocks = 1

[stage3]
operator = vg
channels = 16
blocks = 2
heads = 2
"""

# the interleave layout with conditional PE, scaled down like TINY_CFG
TINY_COND_CFG = """
name = tiny-cond
embed_kernel = 4
embed_stride = 4
inter_stage = conv
pe = cond
pattern = interleave
head = conv
template_size = 32
search_size = 64

[stage1]
operator = srg
channels = 8
blocks = 1
heads = 2
sr_ratio = 2

[stage2]
operator = srg
channels = 8
blocks = 1
heads = 2
sr_ratio = 2

[stage3]
operator = srg
channels = 16
blocks = 2
heads = 2
sr_ratio = 2
"""


def run(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


@pytest.fixture
def dataset(tmp_path):
    d = str(tmp_path / "data")
    code, _ = run(["gen-data", "--out", d, "--sequences", "2",
                   "--length", "4", "--frame-size", "96", "--seed", "1"])
    assert code == 0
    return d


# every subcommand flag as the parser declared it before the training
# and tracking commands took their shared flags from one helper each:
# (subcommands, option strings, dest, type, default, required, help,
# choices, nargs)
PARSER_TABLE = [
    (("variant-info", "flops"), ("--seed",), "seed", "int", 42, False,
     "unused: nothing here draws random values (default: %(default)s)", None,
     None),
    (("variant-info", "flops", "train", "pretrain-mim", "track", "eval"),
     ("--variant",), "variant", None, "supersbt-light", False,
     "named model variant (default: %(default)s)",
     ("hi-sbt", "plain-sbt", "supersbt-base", "supersbt-light",
      "supersbt-small"),
     None),
    (("variant-info", "flops", "train", "pretrain-mim", "track", "eval"),
     ("--variant-file",), "variant_file", None, None, False,
     "variant config file; overrides --variant", None, None),
    (("selftest",), ("--seed",), "seed", "int", 42, False,
     "draws the random test inputs and weights (default: %(default)s)", None,
     None),
    (("gen-data",), ("--seed",), "seed", "int", 42, False,
     "seed of the first sequence; sequence k uses seed + k (default: "
     "%(default)s)",
     None, None),
    (("gen-data",), ("--out",), "out", None, None, True,
     "output dataset directory", None, None),
    (("gen-data",), ("--sequences",), "sequences", "int", 64, False,
     "number of sequences (default: %(default)s)", None, None),
    (("gen-data",), ("--length",), "length", "int", 60, False,
     "frames per sequence (default: %(default)s)", None, None),
    (("gen-data",), ("--frame-size",), "frame_size", "int", 256, False,
     "square frame side in pixels (default: %(default)s)", None, None),
    (("gen-data",), ("--difficulty",), "difficulty", None, "easy", False,
     "sequence style (default: %(default)s)",
     ("easy", "distractor", "scale-change"), None),
    (("train",), ("--seed",), "seed", "int", 42, False,
     "draws the initial weights (unused with --checkpoint) and the training "
     "pairs with their jitter (default: %(default)s)",
     None, None),
    (("train", "pretrain-mim", "eval"), ("--data",), "data", None, None, True,
     "dataset directory", None, None),
    (("train", "pretrain-mim"), ("--out",), "out", None, None, True,
     "checkpoint output path", None, None),
    (("train",), ("--checkpoint",), "checkpoint", None, None, False,
     "initial weights to fine-tune from", None, None),
    (("train",), ("--steps",), "steps", "int", 2000, False,
     "optimizer steps (default: %(default)s)", None, None),
    (("train", "pretrain-mim"), ("--lr",), "lr", "float", 0.0001, False,
     "learning rate (default: %(default)s)", None, None),
    (("train",), ("--weight-decay",), "weight_decay", "float", 0.0001, False,
     "decoupled weight decay (default: %(default)s)", None, None),
    (("train", "pretrain-mim"), ("--log-every",), "log_every", "int", 50,
     False, "steps between loss lines (default: %(default)s)", None, None),
    (("pretrain-mim",), ("--seed",), "seed", "int", 42, False,
     "draws the initial encoder weights (unused with --checkpoint), the "
     "decoder weights, the training crops and the masks (default: "
     "%(default)s)",
     None, None),
    (("pretrain-mim",), ("--checkpoint",), "checkpoint", None, None, False,
     "initial weights to continue from", None, None),
    (("pretrain-mim",), ("--steps",), "steps", "int", 500, False,
     "optimizer steps (default: %(default)s)", None, None),
    (("pretrain-mim",), ("--mask-ratio",), "mask_ratio", "float", 0.75, False,
     "fraction of patches hidden (default: %(default)s)", None, None),
    (("track", "eval"), ("--seed",), "seed", "int", 42, False,
     "draws the initial weights; unused with --checkpoint, whose weights "
     "replace them (default: %(default)s)",
     None, None),
    (("track",), ("--video",), "video", None, None, True,
     "directory of frame_<n>.ppm files", None, None),
    (("track",), ("--init",), "init", None, None, True,
     "frame-1 target box as x,y,w,h pixels", None, None),
    (("track", "eval"), ("--checkpoint",), "checkpoint", None, None, False,
     "trained weights", None, None),
    (("track",), ("--out",), "out", None, None, False, "box CSV output path",
     None, None),
    (("track", "eval"), ("--window-weight",), "window_weight", "float", 0.45,
     False, "score-window mixing weight in [0, 1] (default: %(default)s)",
     None, None),
    (("track", "eval"), ("--temporal",), "temporal", None, False, False,
     "enable dynamic-template updates", None, 0),
    (("eval",), ("--out",), "out", None, None, False, "report output path",
     None, None),
    (("eval",), ("--jobs",), "jobs", "int", 1, False,
     "parallel sequences, >= 1; each pool worker's ops split their work over "
     "an even share of the SBT_LAB_THREADS threads, BLAS kept on one thread "
     "(default: %(default)s)",
     None, None),
]


class TestHelpAndErrors:
    SUBCOMMANDS = ("variant-info", "flops", "selftest", "gen-data", "train",
                   "pretrain-mim", "track", "eval")

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.run(["--help"])
        assert e.value.code == 0

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as e:
            cli.run([sub, "--help"])
        assert e.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text

    def test_unknown_subcommand_exit_one(self):
        code, _ = run(["frobnicate"])
        assert code == 1

    def test_unknown_flag_exit_one(self):
        code, _ = run(["selftest", "--frobnicate"])
        assert code == 1

    def test_no_subcommand_exit_one(self):
        code, _ = run([])
        assert code == 1

    def test_missing_required_flag_exit_one(self):
        code, _ = run(["gen-data"])
        assert code == 1

    def test_flags_match_recorded_table(self):
        expect = {(name, row[2]): row[1:2] + row[3:]
                  for row in PARSER_TABLE for name in row[0]}
        flags = _subcommand_flags()
        got = {(name, a.dest): (tuple(a.option_strings),
                                getattr(a.type, "__name__", None), a.default,
                                a.required, a.help,
                                a.choices and tuple(a.choices), a.nargs)
               for name, actions in flags.items() for a in actions}
        assert sum(map(len, flags.values())) == len(got)
        assert got == expect


class TestVariantInfo:
    def test_reference_comparison(self):
        code, text = run(["variant-info", "--variant", "supersbt-light"])
        assert code == 0
        assert "variant supersbt-light" in text
        assert "reference_params_m 21.500000" in text
        params = int(text.split("params ")[1].split("\n")[0])
        assert abs(params / 1e6 - 21.5) / 21.5 < 0.10

    def test_repeat_runs_identical(self):
        a = run(["variant-info", "--variant", "hi-sbt"])
        b = run(["variant-info", "--variant", "hi-sbt"])
        assert a == b

    def test_variant_file_overrides_variant(self, tiny_cfg):
        code, text = run(["variant-info", "--variant", "supersbt-base",
                          "--variant-file", tiny_cfg])
        assert code == 0
        assert "variant tiny" in text

    def test_bad_variant_file_exit_one(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("name = x\nunknown_key = 1\n")
        code, _ = run(["variant-info", "--variant-file", str(p)])
        assert code == 1


# sha256 of each command's stdout while it still built a seeded model;
# the unseeded build reads the same shapes and must print the same bytes
SHAPE_OUTPUT_SHA256 = {
    ("variant-info", "hi-sbt"):
        "754ec045bedf7a8791f677a552bee6c99b7a6e100177b3d1b23a8fb86a7e4b5a",
    ("flops", "hi-sbt"):
        "fe2ef0d4a398ba993c1994085d05317257d747ebdcf2135bf4195773056b6f78",
    ("variant-info", "plain-sbt"):
        "682086f5c5d2444de0c40f96950fdca217b2be4a654982c3391336045d33e816",
    ("flops", "plain-sbt"):
        "f0c56b21788a494d9cacdccf4e14378ce07af4ac0d28b704ef9238f01b1e875c",
    ("variant-info", "supersbt-base"):
        "3651cb0ac7c27fad889e895e2e8cdc628de38be31c9fed08e7b0a5ad6e8cbf2a",
    ("flops", "supersbt-base"):
        "bb6cb5433768ce7421de82c6de90c73aec31a34e9af2d5f5c4b7071a741de2e2",
    ("variant-info", "supersbt-light"):
        "9b040093dee470ba8be501fafdff8736955ab0f2093bdd0fabd3e9674ae4f690",
    ("flops", "supersbt-light"):
        "3c153886df41edef598e8f83c81fe91bdd4a4a99b37bdf23f69ba38216dba86e",
    ("variant-info", "supersbt-small"):
        "8f7bb22e1f3001b398a31f1c01569c9818c1ee558d7dd7ca5d679fd8ec35a1ab",
    ("flops", "supersbt-small"):
        "b01067bcf0fb47acaf285a027925c81c66e4edb93ca855b656f4827cae5f2fac",
}


@pytest.fixture
def build_seeds(monkeypatch):
    """The seed of each build_variant call made from here on."""
    seeds = []
    build = bb.build_variant

    def spy(spec, seed=42):
        seeds.append(seed)
        return build(spec, seed=seed)

    monkeypatch.setattr(bb, "build_variant", spy)
    return seeds


def assert_one_error_no_build(code, text, capsys, build_seeds):
    """Exit 1 with one error line, before any model was built."""
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert build_seeds == []


@pytest.mark.parametrize("command", ["variant-info", "flops"])
@pytest.mark.parametrize("name", bb.VARIANT_NAMES)
def test_shape_commands_build_unseeded(command, name, build_seeds):
    code, text = run([command, "--variant", name])
    assert code == 0 and build_seeds == [None]
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == SHAPE_OUTPUT_SHA256[command, name]


@pytest.mark.parametrize("command", ["variant-info", "eval"])
def test_indivisible_sr_ratio_exit_one(command, dataset, tmp_path,
                                       build_seeds, capsys):
    # r = 3 cannot pool the 8x8 stage-1 template grid
    cfg = tmp_path / "sr3.cfg"
    cfg.write_text(TINY_COND_CFG.replace("sr_ratio = 2", "sr_ratio = 3", 1))
    inputs = ["--data", dataset] if command == "eval" else []
    code, text = run([command, "--variant-file", str(cfg)] + inputs)
    assert_one_error_no_build(code, text, capsys, build_seeds)


class TestFlops:
    def test_breakdown_sums_to_total(self, tiny_cfg):
        code, text = run(["flops", "--variant-file", tiny_cfg])
        assert code == 0
        layer_sum = sum(
            int(ln.split("flops=")[1].split(" ")[0])
            for ln in text.splitlines() if ln.startswith("layer ")
        )
        total = int(text.split("total flops=")[1].split(" ")[0])
        assert layer_sum == total


class TestSelftest:
    def test_fresh_build_passes(self):
        code, text = run(["selftest"])
        assert code == 0
        assert "selftest all pass" in text
        assert "FAIL" not in text

    # a patched result fails its own line and only that one; the real
    # thread-split run is replaced by a passing one to save its builds
    @pytest.mark.parametrize("name,result,line", [
        ("_selftest_float32_kernels", 1.0,
         "float32-kernels max_abs_err=1.000e+00"),
        ("_selftest_float32_kernels", float("nan"),
         "float32-kernels max_abs_err=nan"),
        ("_selftest_thread_split", (6, 1),
         "thread-split variants=supersbt-light,hi-sbt arrays=6 differing=1"),
    ])
    def test_failed_check_exit_two(self, name, result, line, monkeypatch,
                                   capsys):
        monkeypatch.setattr(cli, "_selftest_thread_split", lambda seed: (6, 0))
        monkeypatch.setattr(cli, name, lambda seed: result)
        code, text = run(["selftest"])
        assert code == 2
        assert capsys.readouterr().err == "error: selftest failed\n"
        lines = text.splitlines()
        assert len(lines) == 6 and "selftest all pass" not in lines
        assert [ln for ln in lines if not ln.endswith(" pass")] == \
            [f"selftest {line} FAIL"]

    def test_nan_after_first_sample_fails(self, monkeypatch, capsys):
        # every sample NaN: max(0.0, nan) kept the 0.0 and the check passed
        monkeypatch.setattr(cli, "_selftest_thread_split", lambda seed: (6, 0))
        monkeypatch.setattr(cli, "ca_dynamic_conv_oracle",
                            lambda z, x, frm: np.full_like(x.tokens.data, np.nan))
        code, text = run(["selftest"])
        assert code == 2
        assert capsys.readouterr().err == "error: selftest failed\n"
        assert [ln for ln in text.splitlines() if not ln.endswith(" pass")] == \
            ["selftest dynamic-conv-equivalence max_abs_err=nan FAIL"]

    def test_float32_kernels_keep_a_nan_output(self, monkeypatch):
        # softmax is the second of the compared outputs
        monkeypatch.setattr(cli.ad, "softmax_lastdim",
                            lambda t: ad.Tensor(np.full(t.shape, np.nan)))
        assert np.isnan(cli._selftest_float32_kernels(0))

    def test_value_at_its_bound_passes(self, monkeypatch):
        monkeypatch.setattr(cli.ad, "grad_check", lambda *a, **k: 1e-5)
        monkeypatch.setattr(cli, "_selftest_float32_kernels",
                            lambda seed: 1e-5)
        monkeypatch.setattr(cli, "_selftest_thread_split", lambda seed: (6, 0))
        code, text = run(["selftest"])
        assert code == 0 and text.endswith("selftest all pass\n")
        assert text.count("max_rel_err=1.000e-05 pass") == 2
        assert "float32-kernels max_abs_err=1.000e-05 pass" in text


class TestGenData:
    def test_byte_identical_repeats(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = str(tmp_path / sub)
            code, _ = run(["gen-data", "--out", d, "--sequences", "1",
                           "--length", "3", "--frame-size", "64",
                           "--seed", "7"])
            assert code == 0
            outs.append(d)
        for name in sorted(os.listdir(os.path.join(outs[0], "seq_7"))):
            a = open(os.path.join(outs[0], "seq_7", name), "rb").read()
            b = open(os.path.join(outs[1], "seq_7", name), "rb").read()
            assert a == b

    def test_seed_changes_output(self, tmp_path):
        frames = []
        for seed in ("1", "2"):
            d = str(tmp_path / seed)
            run(["gen-data", "--out", d, "--sequences", "1", "--length", "2",
                 "--frame-size", "64", "--seed", seed])
            frames.append(
                open(os.path.join(d, f"seq_{seed}", "frame_0.ppm"),
                     "rb").read())
        assert frames[0] != frames[1]


class TestTrainAndEval:
    def test_train_writes_loadable_checkpoint(self, tiny_cfg, dataset,
                                              tmp_path):
        ckpt = str(tmp_path / "m.sbtc")
        code, text = run(["train", "--data", dataset, "--variant-file",
                          tiny_cfg, "--steps", "2", "--out", ckpt,
                          "--log-every", "1"])
        assert code == 0
        assert "step 0 total=" in text and "saved" in text
        model = bb.build_variant(bb.load_variant_file(tiny_cfg))
        bb.load_checkpoint(ckpt, model)

    def test_train_byte_identical_repeats(self, tiny_cfg, dataset, tmp_path):
        blobs = []
        for sub in ("a.sbtc", "b.sbtc"):
            ckpt = str(tmp_path / sub)
            code, _ = run(["train", "--data", dataset, "--variant-file",
                           tiny_cfg, "--steps", "2", "--out", ckpt,
                           "--seed", "3"])
            assert code == 0
            blobs.append(open(ckpt, "rb").read())
        assert blobs[0] == blobs[1]

    def test_eval_jobs_equivalent(self, tiny_cfg, dataset):
        base = ["eval", "--data", dataset, "--variant-file", tiny_cfg]
        a = run(base + ["--jobs", "1"])
        b = run(base + ["--jobs", "2"])
        assert a[0] == 0 and a == b
        assert "aggregate sequences=2" in a[1]

    def test_cond_pe_eval_repeatable_across_jobs(self, tmp_path, dataset):
        cfg = tmp_path / "cond.cfg"
        cfg.write_text(TINY_COND_CFG)
        base = ["eval", "--data", dataset, "--variant-file", str(cfg),
                "--temporal"]
        first = run(base + ["--jobs", "1"])
        assert first[0] == 0 and "aggregate sequences=2" in first[1]
        assert run(base + ["--jobs", "1"]) == first
        assert run(base + ["--jobs", "2"]) == first

    @pytest.mark.parametrize("flags", [
        ["--jobs", "0"], ["--jobs", "-3"],
        ["--window-weight", "nan"], ["--window-weight", "inf"],
        ["--window-weight", "-0.1"], ["--window-weight", "1.5"],
    ])
    def test_malformed_tracker_flag_exit_one(self, tiny_cfg, dataset, flags,
                                             capsys):
        code, text = run(["eval", "--data", dataset, "--variant-file",
                          tiny_cfg] + flags)
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert flags[0] in err

    def test_window_weight_bounds_accepted(self, tiny_cfg, dataset):
        base = ["eval", "--data", dataset, "--variant-file", tiny_cfg]
        for w in ("0", "1"):
            code, _ = run(base + ["--window-weight", w])
            assert code == 0

    def test_numeric_failure_exit_two(self, tiny_cfg, dataset, tmp_path,
                                      monkeypatch):
        def boom(*a, **k):
            raise NumericError("non-finite loss at step 0")

        monkeypatch.setattr(cli.hn, "train_loop", boom)
        code, _ = run(["train", "--data", dataset, "--variant-file", tiny_cfg,
                       "--steps", "1", "--out", str(tmp_path / "x.sbtc")])
        assert code == 2


class TestTrack:
    def test_box_csv_schema_and_determinism(self, tiny_cfg, dataset,
                                            tmp_path):
        video = os.path.join(dataset, "seq_1")
        outs = []
        for sub in ("a.csv", "b.csv"):
            p = str(tmp_path / sub)
            code, text = run(["track", "--video", video, "--init",
                              "30,30,20,20", "--variant-file", tiny_cfg,
                              "--out", p])
            assert code == 0
            outs.append(open(p).read())
            lines = text.strip().split("\n")
            assert len(lines) == 4  # 4 frames: init + 3 tracked
            assert lines[0] == "0,30.000000,30.000000,20.000000,20.000000"
            for i, ln in enumerate(lines):
                parts = ln.split(",")
                assert parts[0] == str(i) and len(parts) == 5
        assert outs[0] == outs[1]

    def test_out_of_frame_init_exit_one(self, tiny_cfg, dataset, build_seeds,
                                        capsys):
        video = os.path.join(dataset, "seq_1")
        code, text = run(["track", "--video", video, "--init",
                          "300,300,20,20", "--variant-file", tiny_cfg])
        assert_one_error_no_build(code, text, capsys, build_seeds)

    def test_malformed_init_exit_one(self, tiny_cfg, dataset, build_seeds,
                                     capsys):
        video = os.path.join(dataset, "seq_1")
        for bad in ("30,30,20", "a,b,c,d", "nan,30,20,20"):
            code, text = run(["track", "--video", video, "--init", bad,
                              "--variant-file", tiny_cfg])
            assert_one_error_no_build(code, text, capsys, build_seeds)

    @pytest.mark.parametrize("temporal", [False, True])
    def test_track_rows_match_eval_loop(self, tiny_cfg, dataset, temporal):
        video = os.path.join(dataset, "seq_1")
        with open(os.path.join(video, "gt.csv")) as fh:
            init = fh.readline().strip().split(",", 1)[1]
        flags = ["--temporal"] if temporal else []
        code, text = run(["track", "--video", video, "--init", init,
                          "--variant-file", tiny_cfg] + flags)
        assert code == 0
        model = bb.build_variant(bb.load_variant_file(tiny_cfg))
        boxes = hn.run_tracker_on_sequence(
            model, hn.load_sequence(video), trk.TrackerConfig(temporal=temporal))
        expect = [f"{i},{x:.6f},{y:.6f},{w:.6f},{h:.6f}"
                  for i, (x, y, w, h) in enumerate(boxes, start=1)]
        assert text.strip().split("\n")[1:] == expect

    def test_non_finite_window_weight_exit_one(self, tiny_cfg, dataset,
                                               capsys):
        video = os.path.join(dataset, "seq_1")
        code, text = run(["track", "--video", video, "--init", "30,30,20,20",
                          "--variant-file", tiny_cfg, "--window-weight", "nan"])
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.count("\n") == 1 and "--window-weight" in err

    def test_missing_video_exit_one(self, tiny_cfg, tmp_path, build_seeds,
                                    capsys):
        code, text = run(["track", "--video", str(tmp_path / "nope"),
                          "--init", "1,1,2,2", "--variant-file", tiny_cfg])
        assert_one_error_no_build(code, text, capsys, build_seeds)


@pytest.mark.parametrize("command", ["train", "pretrain-mim", "eval"])
def test_missing_data_exit_one(command, tiny_cfg, tmp_path, build_seeds,
                               capsys):
    out = ["--out", str(tmp_path / "x.sbtc")] if command != "eval" else []
    code, text = run([command, "--data", str(tmp_path / "nope"),
                      "--variant-file", tiny_cfg] + out)
    assert_one_error_no_build(code, text, capsys, build_seeds)
    assert not (tmp_path / "x.sbtc").exists()


def _save_defective_checkpoint(path, model, drop=None, flatten=None):
    """Save model's parameters without `drop` and with `flatten` made 1-D."""
    store = ParamStore()
    for name, p in model.store.items():
        if name != drop:
            store.add(name, p.data.reshape(-1) if name == flatten else p.data)
    bb.save_checkpoint(SimpleNamespace(store=store), path)


# `eval` reports and `track` boxes. The checkpoint is
# build_variant(variant, seed=42) and the data the `dataset` fixture;
# track runs on seq_1 from its first gt box.
REFERENCE_OUTPUTS = {
    ("hi-sbt", True): (
        "seq name=seq_1 ao=0.184042 auc=0.190476 precision=0.666667\n"
        "seq name=seq_2 ao=0.201231 auc=0.222222 precision=1.000000\n"
        "aggregate sequences=2 ao=0.192636 auc=0.206349 precision=0.833333\n",
        "0,74.037512,57.211677,14.817624,15.952100\n"
        "1,71.037647,53.994207,24.628289,26.178106\n"
        "2,57.347319,48.001894,38.652681,44.359930\n"
        "3,29.914600,20.926006,66.085400,75.073994\n"),
    ("supersbt-light", False): (
        "seq name=seq_1 ao=0.168579 auc=0.174603 precision=0.666667\n"
        "seq name=seq_2 ao=0.172005 auc=0.190476 precision=1.000000\n"
        "aggregate sequences=2 ao=0.170292 auc=0.182540 precision=0.833333\n",
        "0,74.037512,57.211677,14.817624,15.952100\n"
        "1,69.982607,53.864869,26.017393,26.363252\n"
        "2,52.188341,47.663333,43.811659,45.141868\n"
        "3,21.530522,19.710270,74.469478,76.289730\n"),
    ("supersbt-light", True): (
        "seq name=seq_1 ao=0.168484 auc=0.174603 precision=0.666667\n"
        "seq name=seq_2 ao=0.171848 auc=0.190476 precision=1.000000\n"
        "aggregate sequences=2 ao=0.170166 auc=0.182540 precision=0.833333\n",
        "0,74.037512,57.211677,14.817624,15.952100\n"
        "1,70.001821,53.862307,25.998179,26.368517\n"
        "2,52.084137,47.648865,43.915863,45.164098\n"
        "3,21.504646,19.500679,74.495354,76.499321\n"),
}


# `train`/`pretrain-mim --steps 2 --log-every 1` on the `dataset` fixture
# from a seed-42 build: stdout, with the checkpoint path read as "out",
# and the checkpoint's sha256.
TRAINING_REFERENCES = {
    ("train", "supersbt-light"): (
        "step 0 total=7.701766 cls=5.484861 giou=0.766128 l1=0.136930\n"
        "step 1 total=6.582902 cls=4.607407 giou=0.687773 l1=0.119990\n"
        "saved out\n",
        "dc7b39aec0c5200c3dbf257b2f52a1567c27f1ab3d022aa3fbac160a7e82ae9a"),
    ("train", "hi-sbt"): (
        "step 0 total=6.809785 cls=4.573935 giou=0.778845 l1=0.135632\n"
        "step 1 total=5.968447 cls=4.179055 giou=0.638249 l1=0.102579\n"
        "saved out\n",
        "2d03375e22e0adaddbaa75475389d84f98993a9813a968abb2db8231a0afa38b"),
    ("pretrain-mim", "supersbt-light"): (
        "step 0 recon=1.066752\n"
        "step 1 recon=1.062301\n"
        "saved out\n",
        "8c0c69f275b03add8ba31487facafcd157212596d39c027ad93a8773bfa9e2f2"),
    ("pretrain-mim", "hi-sbt"): (
        "step 0 recon=1.075441\n"
        "step 1 recon=1.078664\n"
        "saved out\n",
        "adf6cb7506dd71f497b7da7b079db989d8555c31fcd6b6481c6f4160f48992df"),
}


@pytest.fixture(scope="module")
def seed42_checkpoint(tmp_path_factory):
    """The path of a variant's build_variant(variant, seed=42) checkpoint,
    built and saved once per module."""
    paths = {}

    def get(variant):
        if variant not in paths:
            path = str(tmp_path_factory.mktemp("ckpt") / f"{variant}.sbtc")
            bb.save_checkpoint(bb.build_variant(variant, seed=42), path)
            paths[variant] = path
        return paths[variant]

    return get


class TestCheckpointCommands:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command,variant", list(TRAINING_REFERENCES))
    def test_training_matches_reference_at_each_thread_count(
            self, command, variant, threads, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("SBT_LAB_THREADS", threads)
        ckpt = tmp_path / "m.sbtc"
        code, text = run([command, "--variant", variant, "--data", dataset,
                          "--out", str(ckpt), "--steps", "2",
                          "--log-every", "1"])
        assert code == 0
        digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert (text.replace(str(ckpt), "out"), digest) == \
            TRAINING_REFERENCES[command, variant]

    @staticmethod
    def assert_outputs_match(variant, temporal, dataset, seed42_checkpoint,
                             build_seeds):
        ckpt = seed42_checkpoint(variant)
        build_seeds.clear()
        flags = ["--variant", variant, "--checkpoint", ckpt]
        flags += ["--temporal"] if temporal else []
        report, boxes = REFERENCE_OUTPUTS[variant, temporal]
        # evaluate caps its workers at max_threads(), so with one thread
        # --jobs 2 would repeat the --jobs 1 run
        jobs_runs = ("1", "2") if hn.max_threads() > 1 else ("1",)
        for jobs in jobs_runs:
            assert run(["eval", "--data", dataset, "--jobs", jobs]
                       + flags) == (0, report)
        video = os.path.join(dataset, "seq_1")
        init = ",".join(f"{v:.6f}" for v in hn.load_sequence(video).gt[0])
        assert run(["track", "--video", video, "--init", init]
                   + flags) == (0, boxes)
        # the checkpoint fills every model, so none draws values
        assert build_seeds == [None] * (len(jobs_runs) + 1)

    # at the default width, SBT_LAB_THREADS as the environment has it;
    # the other two references run at each width below
    @pytest.mark.parametrize("variant,temporal", [("supersbt-light", True)])
    def test_outputs_match_reference(self, variant, temporal, dataset,
                                     seed42_checkpoint, build_seeds):
        self.assert_outputs_match(variant, temporal, dataset,
                                  seed42_checkpoint, build_seeds)

    # width 1 everywhere; width 4 at --jobs 1, and two pool workers
    # forking at width 2 at once at --jobs 2
    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    @pytest.mark.parametrize("variant,temporal", [("supersbt-light", False),
                                                  ("hi-sbt", True)])
    def test_outputs_match_reference_at_each_thread_count(
            self, variant, temporal, threads, dataset, seed42_checkpoint,
            monkeypatch, build_seeds):
        monkeypatch.setenv("SBT_LAB_THREADS", threads)
        self.assert_outputs_match(variant, temporal, dataset,
                                  seed42_checkpoint, build_seeds)

    @pytest.mark.parametrize("defect", ["missing", "reshaped", "truncated",
                                        "crc"])
    @pytest.mark.parametrize("command", ["eval", "track", "train",
                                         "pretrain-mim"])
    def test_incomplete_checkpoint_exit_one(self, command, defect, tiny_cfg,
                                            dataset, tmp_path, monkeypatch,
                                            capsys):
        model = bb.build_variant(bb.load_variant_file(tiny_cfg))
        params = list(model.store.items())
        # a matrix, so flattening changes its shape
        name = next(n for n, p in params[len(params) // 2:] if p.data.ndim > 1)
        ckpt = tmp_path / "bad.sbtc"
        _save_defective_checkpoint(
            ckpt, model, drop=name if defect == "missing" else None,
            flatten=name if defect == "reshaped" else None)
        raw = bytearray(ckpt.read_bytes())
        if defect == "truncated":
            # the body's last 100 bytes go; re-signed, it reaches the parser
            body = raw[:-104]
            raw = body + struct.pack("<I", zlib.crc32(body))
            name = "checkpoint truncated"
        elif defect == "crc":
            raw[len(raw) // 2] ^= 0xFF
            name = "checkpoint CRC mismatch"
        ckpt.write_bytes(raw)
        # the partly filled model must never reach tracking or training
        for mod, fn in ((cli.hn, "evaluate"), (cli.trk, "track_frames"),
                        (cli.hn, "train_loop"), (cli.hn, "pretrain_loop")):
            monkeypatch.setattr(mod, fn, _no_work)
        out = tmp_path / "out"
        code, text = run([command, "--variant-file", tiny_cfg,
                          "--checkpoint", str(ckpt)]
                         + _required_flags(command, dataset, out))
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert name in err
        assert not out.exists()

    def test_temporal_eval_encodes_each_template_once(self, tiny_cfg,
                                                      dataset, monkeypatch):
        tags = []
        encode = bb.Model.encode_early

        def spy(model, image, tag):
            tags.append(tag)
            return encode(model, image, tag)

        monkeypatch.setattr(bb.Model, "encode_early", spy)
        code, _ = run(["eval", "--data", dataset, "--variant-file", tiny_cfg,
                       "--temporal", "--jobs", "2"])
        assert code == 0
        # 2 sequences of 4 frames; no template update in 3 frames
        assert sorted(tags) == ["search"] * 6 + ["template"] * 2


class TestPretrainMim:
    def test_short_run_saves_checkpoint(self, tiny_cfg, dataset, tmp_path):
        ckpt = str(tmp_path / "mim.sbtc")
        code, text = run(["pretrain-mim", "--data", dataset, "--variant-file",
                          tiny_cfg, "--steps", "2", "--out", ckpt,
                          "--log-every", "1"])
        assert code == 0
        assert "step 0 recon=" in text
        model = bb.build_variant(bb.load_variant_file(tiny_cfg))
        bb.load_checkpoint(ckpt, model)

    def test_byte_identical_repeats(self, tiny_cfg, dataset, tmp_path):
        runs = []
        for sub in ("a.sbtc", "b.sbtc"):
            ckpt = str(tmp_path / sub)
            code, text = run(["pretrain-mim", "--data", dataset,
                              "--variant-file", tiny_cfg, "--steps", "2",
                              "--out", ckpt, "--seed", "3", "--log-every", "1"])
            assert code == 0
            log = text.replace(ckpt, "<out>")
            runs.append((log, open(ckpt, "rb").read()))
        assert runs[0] == runs[1]
        assert runs[0][0].count(" recon=") == 2

    def test_non_finite_loss_exit_two(self, tiny_cfg, dataset, tmp_path,
                                      monkeypatch, capsys):
        real, calls = bb.MimPretrainer.loss, []

        def loss(self, image, mask_ratio, rng):
            calls.append(image)
            out = real(self, image, mask_ratio, rng)
            return out * np.nan if len(calls) == 2 else out

        monkeypatch.setattr(bb.MimPretrainer, "loss", loss)
        ckpt = tmp_path / "mim.sbtc"
        code, text = run(["pretrain-mim", "--data", dataset, "--variant-file",
                          tiny_cfg, "--steps", "3", "--out", str(ckpt),
                          "--log-every", "1"])
        err = capsys.readouterr().err
        assert code == 2 and len(calls) == 2
        assert text.startswith("step 0 recon=") and text.count("\n") == 1
        assert err == "error: non-finite loss at step 1\n"
        assert not ckpt.exists()

    def test_bad_mask_ratio_exit_one(self, tiny_cfg, dataset, tmp_path):
        code, _ = run(["pretrain-mim", "--data", dataset, "--variant-file",
                       tiny_cfg, "--steps", "1", "--mask-ratio", "1.5",
                       "--out", str(tmp_path / "x.sbtc")])
        assert code == 1


def _no_work(*a, **k):
    raise AssertionError("model or data work ran before the flag check")


def _required_flags(command, data, out):
    """The flags each subcommand requires, naming the dataset directory
    data (track reads its seq_1) and out."""
    return {
        "gen-data": ["--out", str(out)],
        "train": ["--data", str(data), "--out", str(out)],
        "pretrain-mim": ["--data", str(data), "--out", str(out)],
        "track": ["--video", os.path.join(data, "seq_1"), "--init", "1,1,4,4"],
        "eval": ["--data", str(data)],
    }.get(command, [])


class TestThreadCount:
    # above the ceiling of 64, each fork would start a helper thread per
    # extra part; _start_helpers is patched so that no case starts any
    @pytest.mark.parametrize("value", ["lots", "0", "", "65", "20000"])
    @pytest.mark.parametrize("command", TestHelpAndErrors.SUBCOMMANDS)
    def test_bad_value_fails_before_work(self, command, value, tmp_path,
                                         monkeypatch, capsys):
        for mod, name in ((cli.bb, "build_variant"),
                          (cli.bb, "load_variant_file"),
                          (cli.hn, "load_dataset"), (cli.hn, "gen_sequence"),
                          (cli, "_load_frames"),
                          (cli, "_selftest_grad_checks"),
                          (cli.ad, "_start_helpers")):
            monkeypatch.setattr(mod, name, _no_work)
        monkeypatch.setenv("SBT_LAB_THREADS", value)
        out = tmp_path / "out"
        code, text = run([command] + _required_flags(command, tmp_path, out))
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.count("\n") == 1
        assert err.startswith("error: SBT_LAB_THREADS must be ")
        assert not out.exists()


class TestOutAndScheduleChecks:
    @pytest.fixture
    def forbid_work(self, monkeypatch):
        for mod, name in ((cli.bb, "build_variant"), (cli.hn, "load_dataset"),
                          (cli.hn, "gen_sequence")):
            monkeypatch.setattr(mod, name, _no_work)

    @staticmethod
    def assert_one_line_error(code, text, capsys, needle):
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert needle in err

    @pytest.mark.parametrize("command", ["train", "pretrain-mim", "eval",
                                         "track"])
    @pytest.mark.parametrize("bad", ["no-parent", "directory"])
    def test_unusable_out_fails_before_work(self, command, bad, tiny_cfg,
                                            tmp_path, forbid_work, capsys):
        out = str(tmp_path / "missing" / "o" if bad == "no-parent"
                  else tmp_path)
        inputs = (["--video", str(tmp_path), "--init", "1,1,4,4"]
                  if command == "track" else ["--data", str(tmp_path)])
        code, text = run([command, "--variant-file", tiny_cfg, "--out", out]
                         + inputs)
        self.assert_one_line_error(code, text, capsys, out)

    @pytest.mark.parametrize("command", TestHelpAndErrors.SUBCOMMANDS)
    def test_negative_seed_fails_before_work(self, command, tmp_path,
                                             forbid_work, monkeypatch,
                                             capsys):
        for name in ("_load_frames", "_selftest_grad_checks"):
            monkeypatch.setattr(cli, name, _no_work)
        out = tmp_path / "out"
        code, text = run([command, "--seed", "-1"]
                         + _required_flags(command, tmp_path, out))
        self.assert_one_line_error(code, text, capsys, "--seed")
        assert not out.exists()

    def test_gen_data_out_under_a_file(self, tmp_path, forbid_work, capsys):
        f = tmp_path / "f"
        f.write_text("")
        for out in (f / "x", f):
            code, text = run(["gen-data", "--out", str(out)])
            self.assert_one_line_error(code, text, capsys, str(out))

    @pytest.mark.parametrize("flags", [
        ["--frame-size", "0"],
        ["--frame-size", "3"],
        ["--frame-size=-5"],
        ["--frame-size", str(hn.MIN_FRAME_SIZE - 1)],
        ["--frame-size", str(hn.MAX_FRAME_SIZE + 1)],
        ["--frame-size", "60000"],
        ["--sequences", "0"],
        ["--sequences=-2"],
        ["--length", "1"],
        # frames above harness.MAX_SEQUENCE_BYTES
        ["--length", "40000"],
        ["--length", "200", "--frame-size", str(hn.MAX_FRAME_SIZE)],
    ])
    def test_bad_gen_data_flag_fails_before_work(self, flags, tmp_path,
                                                 forbid_work, capsys):
        out = tmp_path / "data"
        code, text = run(["gen-data", "--out", str(out)] + flags)
        self.assert_one_line_error(code, text, capsys,
                                   flags[0].split("=")[0])
        assert not out.exists()

    @pytest.mark.parametrize("row", ["1,nan,10,20,20", "1,10,1e999,20,20",
                                     "1,10,10,0,20", "1,10,10,-20,20",
                                     "1,10,10,20,-inf"])
    def test_impossible_gt_box_exit_one(self, row, tiny_cfg, dataset,
                                        capsys):
        gt = os.path.join(dataset, "seq_2", "gt.csv")
        with open(gt) as fh:
            lines = fh.read().splitlines()
        # a blank line still counts
        lines[1:2] = ["", row]
        with open(gt, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, text = run(["eval", "--data", dataset, "--variant-file",
                          tiny_cfg])
        self.assert_one_line_error(code, text, capsys, f"{gt} line 3: ")

    @pytest.mark.parametrize("command,defect", [
        ("eval", "box-outside"), ("eval", "small-frames"),
    ] + [(command, defect)
         for command in ("track", "eval", "train", "pretrain-mim")
         for defect in ("truncated-frame", "not-p6-frame")])
    def test_bad_dataset_fails_before_build(self, command, defect, tiny_cfg,
                                            dataset, tmp_path, monkeypatch,
                                            capsys):
        variant = ["--variant-file", tiny_cfg]
        seq = os.path.join(dataset, "seq_1")
        frame = os.path.join(seq, "frame_2.ppm")
        if defect == "box-outside":
            gt = os.path.join(seq, "gt.csv")
            with open(gt) as fh:
                lines = fh.read().splitlines()
            lines[0] = "0,80,80,20,20"
            with open(gt, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            needle = ("seq_1: box (80.0, 80.0, 20.0, 20.0) not inside "
                      "96x96 frame")
        elif defect == "small-frames":
            # the default variant's 256 px search crop needs 64 px frames
            dataset = str(tmp_path / "small")
            assert run(["gen-data", "--out", dataset, "--sequences", "1",
                        "--length", "2", "--frame-size", "32"])[0] == 0
            variant, needle = [], "too small for search size 256"
        else:
            with open(frame, "rb") as fh:
                raw = fh.read()
            with open(frame, "wb") as fh:
                fh.write(raw[:len(raw) // 2] if defect == "truncated-frame"
                         else b"P3" + raw[2:])
            needle = frame
        monkeypatch.setattr(cli.bb, "build_variant", _no_work)
        code, text = run([command] + variant + _required_flags(
            command, dataset, tmp_path / "x.sbtc"))
        self.assert_one_line_error(code, text, capsys, needle)

    def test_smallest_frame_size_generates(self, tmp_path):
        out = tmp_path / "data"
        code, _ = run(["gen-data", "--out", str(out), "--sequences", "1",
                       "--length", "2", "--frame-size",
                       str(hn.MIN_FRAME_SIZE)])
        assert code == 0
        seq = hn.load_dataset(str(out))[0]
        assert seq.frames[0].shape == (3, hn.MIN_FRAME_SIZE,
                                       hn.MIN_FRAME_SIZE)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_failed_write_is_one_line(self, command, tiny_cfg, dataset,
                                      capsys):
        extra = ["--steps", "1"] if command == "train" else []
        code, text = run([command, "--data", dataset, "--variant-file",
                          tiny_cfg, "--out", "/dev/full"] + extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: cannot write")

    @pytest.mark.parametrize("command,flags", [
        ("train", ["--log-every", "0"]),
        ("train", ["--steps", "-1"]),
        ("train", ["--lr", "0"]),
        ("train", ["--lr=-1e-4"]),
        ("train", ["--lr", "nan"]),
        ("train", ["--lr", "inf"]),
        ("train", ["--weight-decay=-1e-4"]),
        ("train", ["--weight-decay", "nan"]),
        ("train", ["--weight-decay", "inf"]),
        ("pretrain-mim", ["--log-every", "0"]),
        ("pretrain-mim", ["--steps", "-1"]),
        ("pretrain-mim", ["--lr", "0"]),
        ("pretrain-mim", ["--lr", "nan"]),
        ("pretrain-mim", ["--mask-ratio", "0"]),
        ("pretrain-mim", ["--mask-ratio", "1"]),
        ("pretrain-mim", ["--mask-ratio", "1.5"]),
        ("pretrain-mim", ["--mask-ratio=-0.25"]),
        ("pretrain-mim", ["--mask-ratio", "nan"]),
        ("pretrain-mim", ["--mask-ratio", "inf"]),
        # in (0, 1), but the tiny variant's 16 patches round to all masked
        # or none
        ("pretrain-mim", ["--mask-ratio", "0.999"]),
        ("pretrain-mim", ["--mask-ratio", "0.001"]),
    ])
    def test_bad_schedule_flag_fails_before_work(self, command, flags,
                                                 tiny_cfg, tmp_path,
                                                 forbid_work, capsys):
        out = tmp_path / "x.sbtc"
        code, text = run([command, "--data", str(tmp_path), "--variant-file",
                          tiny_cfg, "--out", str(out)] + flags)
        self.assert_one_line_error(code, text, capsys,
                                   flags[0].split("=")[0])
        assert not out.exists()

    def test_schedule_flag_bounds_accepted(self, tiny_cfg, dataset, tmp_path):
        code, _ = run(["train", "--data", dataset, "--variant-file", tiny_cfg,
                       "--out", str(tmp_path / "x.sbtc"), "--steps", "0",
                       "--weight-decay", "0", "--log-every", "1"])
        assert code == 0


class TestAllocationFailure:
    """A variant build that cannot allocate is one error line. The failure
    is forced, so that no case allocates: an unseeded build maps its
    values (mmap), a seeded one draws them before ParamStore.add."""

    @pytest.fixture
    def no_memory(self, monkeypatch):
        def mmap(*a, **k):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        def add(*a, **k):
            raise MemoryError("Unable to allocate 48.0 GiB for an array")

        monkeypatch.setattr(ad, "mmap", SimpleNamespace(mmap=mmap))
        monkeypatch.setattr(ParamStore, "add", add)

    # selftest builds only the named variants, which fit
    @pytest.mark.parametrize("command,extra", [
        ("variant-info", []), ("flops", []), ("train", []),
        ("pretrain-mim", []), ("track", []), ("eval", []),
        ("eval", ["--checkpoint", "m.sbtc"]),
        ("track", ["--checkpoint", "m.sbtc"]),
    ])
    def test_failed_build_is_one_line(self, command, extra, tiny_cfg,
                                      dataset, tmp_path, no_memory, capsys):
        # the inputs are read before the build, so they are real ones
        out = tmp_path / "out"
        code, text = run([command, "--variant-file", tiny_cfg] + extra
                         + _required_flags(command, dataset, out))
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.count("\n") == 1
        assert err.startswith("error: cannot allocate variant tiny: ")
        assert not out.exists()


class _Stopped(Exception):
    """Raised by TestArgvFuzz's spies in place of model or data work."""


def _subcommand_flags():
    """{subcommand: its flag actions}, read from the parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions
                   if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


class TestArgvFuzz:
    """Whole argument vectors of every subcommand, each with at most one
    flag made malformed, negative, NaN, huge or missing, either fail with
    one error line before any model or data work, or reach that work."""

    SPIED = ((cli.bb, "build_variant"), (cli.hn, "load_dataset"),
             (cli, "_load_frames"), (cli.hn, "gen_sequence"),
             (cli, "_selftest_grad_checks"))
    FLAGS = _subcommand_flags()

    @staticmethod
    def values(tmp_path, tiny_cfg):
        """(valid values, invalid values) of every flag that takes one;
        the inputs are read by the spied functions, so any path is valid
        there."""
        junk = tmp_path / "junk.cfg"
        junk.write_text("name = junk\n[stage1]\nchannels = -3\n")
        paths = [str(tmp_path), str(tmp_path / "missing"), ""]
        bad_paths = [str(tmp_path), str(tmp_path / "missing" / "x"),
                     str(junk), str(junk / "x"), ""]
        huge = "9" * 30
        return {
            "--seed": (["0", "42", huge], ["-1", "1.5", "nan", "", "x"]),
            "--sequences": (["1", huge], ["0", "-2", "nan", ""]),
            "--length": (["2", huge], ["1", "-1", "1e3", ""]),
            "--frame-size": ([str(hn.MIN_FRAME_SIZE), str(hn.MAX_FRAME_SIZE)],
                             ["0", "-5", str(hn.MAX_FRAME_SIZE + 1), huge,
                              "nan"]),
            "--steps": (["0", "1", huge], ["-1", "1.5", ""]),
            "--log-every": (["1", huge], ["0", "-1", "nan"]),
            "--jobs": (["1", "2", huge], ["0", "-1", "x"]),
            "--lr": (["1e-4", "1e300"],
                     ["0", "-1", "nan", "inf", "-inf", "1e999", "x"]),
            "--weight-decay": (["0", "1e300"],
                               ["-1e-4", "nan", "inf", "1e999", "x"]),
            "--mask-ratio": (["0.5", "0.75"],
                             ["0", "1", "1.5", "-0.25", "nan", "inf",
                              "0.999", "0.001", "x"]),
            "--window-weight": (["0", "0.5", "1"],
                                ["-0.25", "1.5", "nan", "inf", "-inf", "x"]),
            "--variant": (list(bb.VARIANT_NAMES), ["nope", ""]),
            "--variant-file": ([tiny_cfg], bad_paths),
            "--difficulty": (list(hn.DIFFICULTIES), ["nope", ""]),
            "--init": (["1,1,4,4", "1e-3,0,1e3,1e3"],
                       ["30,30,20", "1,1,4,4,4", "a,b,c,d", "1,2,3,x",
                        "1,,4,4", "0x1,1,4,4", "nan,1,2,2", "1e999,0,1,1",
                        "1,1,0,0", "-1,-1,4,4", ""]),
            "--data": (paths, []), "--video": (paths, []),
            "--checkpoint": (paths, []),
            "--out": ([str(tmp_path / "out")], bad_paths[:-1]),
        }

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_one_error_line_or_work(self, tmp_path, tiny_cfg, monkeypatch,
                                    capsys, data):
        calls = []

        def spy(*a, **k):
            calls.append(a)
            raise _Stopped

        for mod, name in self.SPIED:
            monkeypatch.setattr(mod, name, spy)
        values = self.values(tmp_path, tiny_cfg)
        command = data.draw(st.sampled_from(sorted(self.FLAGS)))
        # a required flag is left out one time in 10
        actions = [a for a in self.FLAGS[command]
                   if data.draw(st.integers(0, 9).map(bool) if a.required
                                else st.booleans())]
        bad = data.draw(st.sampled_from([None] + actions))
        argv = []
        for action in actions:
            flag = action.option_strings[0]
            if action.nargs == 0:
                argv.append([flag])
                continue
            valid, invalid = values[flag]
            if action is bad:
                # its value is missing, or is one of the invalid ones
                pool = [None] + invalid
            else:
                pool = valid
            value = data.draw(st.sampled_from(pool))
            argv.append([flag] if value is None else [flag, value])
        argv = [command] + sum(data.draw(st.permutations(argv)), [])
        try:
            code, text = run(argv)
        except _Stopped:
            assert len(calls) == 1
            return
        finally:
            err = capsys.readouterr().err
            # gen-data makes its --out before the first sequence
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
        assert code == 1 and text == "" and calls == []
        # argparse prints its usage lines before the error
        lines = [ln for ln in err.splitlines()
                 if not ln.startswith(("usage: ", " "))]
        assert len(lines) == 1 and lines[0].startswith("error: ")
