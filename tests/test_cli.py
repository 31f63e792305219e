import io
import os

import numpy as np
import pytest

from sbt_lab import backbone as bb
from sbt_lab import cli
from sbt_lab import harness as hn
from sbt_lab import tracker as trk
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

    def test_out_of_frame_init_exit_one(self, tiny_cfg, dataset):
        video = os.path.join(dataset, "seq_1")
        code, _ = run(["track", "--video", video, "--init", "300,300,20,20",
                       "--variant-file", tiny_cfg])
        assert code == 1

    def test_malformed_init_exit_one(self, tiny_cfg, dataset):
        video = os.path.join(dataset, "seq_1")
        for bad in ("30,30,20", "a,b,c,d", "nan,30,20,20"):
            code, _ = run(["track", "--video", video, "--init", bad,
                           "--variant-file", tiny_cfg])
            assert code == 1

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

    def test_missing_video_exit_one(self, tiny_cfg, tmp_path):
        code, _ = run(["track", "--video", str(tmp_path / "nope"), "--init",
                       "1,1,2,2", "--variant-file", tiny_cfg])
        assert code == 1


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

    def test_sr_final_stage_exit_one(self, dataset, tmp_path, capsys):
        code, text = run(["pretrain-mim", "--data", dataset, "--variant",
                          "hi-sbt", "--steps", "1",
                          "--out", str(tmp_path / "x.sbtc")])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "drops tokens" in err
        assert not (tmp_path / "x.sbtc").exists()

    def test_bad_mask_ratio_exit_one(self, tiny_cfg, dataset, tmp_path):
        code, _ = run(["pretrain-mim", "--data", dataset, "--variant-file",
                       tiny_cfg, "--steps", "1", "--mask-ratio", "1.5",
                       "--out", str(tmp_path / "x.sbtc")])
        assert code == 1


def _no_work(*a, **k):
    raise AssertionError("model or data work ran before the flag check")


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

    def test_gen_data_out_under_a_file(self, tmp_path, forbid_work, capsys):
        f = tmp_path / "f"
        f.write_text("")
        for out in (f / "x", f):
            code, text = run(["gen-data", "--out", str(out)])
            self.assert_one_line_error(code, text, capsys, str(out))

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
