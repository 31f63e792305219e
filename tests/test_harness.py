import os
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sbt_lab import autodiff as ad
from sbt_lab import harness as hn
from sbt_lab import tracker as trk
from sbt_lab.autodiff import Tensor
from sbt_lab.errors import ConfigError, ContractError, FormatError, NumericError
from sbt_lab.loss import total_loss

from test_backbone import tiny_urm_config
import sbt_lab.backbone as bb


def tiny_model():
    return bb.build_variant(tiny_urm_config())


class TestGenSequence:
    def test_deterministic(self):
        a = hn.gen_sequence(3, length=5, frame_size=96)
        b = hn.gen_sequence(3, length=5, frame_size=96)
        assert len(a.frames) == 5
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)
        assert a.gt == b.gt

    def test_different_seeds_differ(self):
        a = hn.gen_sequence(1, length=3, frame_size=96)
        b = hn.gen_sequence(2, length=3, frame_size=96)
        assert not np.array_equal(a.frames[0], b.frames[0])

    def test_easy_size_constant(self):
        seq = hn.gen_sequence(4, length=8, frame_size=128, difficulty="easy")
        w0, h0 = seq.gt[0][2], seq.gt[0][3]
        for (_, _, w, h) in seq.gt:
            assert w == pytest.approx(w0) and h == pytest.approx(h0)

    def test_scale_change_varies_size(self):
        seq = hn.gen_sequence(4, length=30, frame_size=128,
                              difficulty="scale-change")
        widths = {round(g[2], 6) for g in seq.gt}
        assert len(widths) > 1

    @pytest.mark.parametrize("difficulty", hn.DIFFICULTIES)
    def test_boxes_contained_across_seeds(self, difficulty):
        for seed in range(25):
            seq = hn.gen_sequence(seed, length=6, frame_size=96,
                                  difficulty=difficulty)
            for (x, y, w, h) in seq.gt:
                assert w > 0 and h > 0
                assert x >= 0 and y >= 0
                assert x + w <= 96 and y + h <= 96

    def test_frames_are_uint8(self):
        seq = hn.gen_sequence(5, length=2, frame_size=64)
        for f in seq.frames:
            assert f.dtype == np.uint8 and f.shape == (3, 64, 64)

    def test_target_region_differs_from_background(self):
        seq = hn.gen_sequence(6, length=2, frame_size=128)
        x, y, w, h = seq.gt[0]
        frame = seq.frames[0]
        inner = frame[:, int(y + h / 4):int(y + 3 * h / 4),
                      int(x + w / 4):int(x + 3 * w / 4)]
        assert inner.std() > 0  # painted texture, not flat background copy

    def test_bad_args_rejected(self):
        with pytest.raises(ContractError):
            hn.gen_sequence(0, length=1)
        with pytest.raises(ConfigError):
            hn.gen_sequence(0, difficulty="impossible")
        for size in (-5, 0, hn.MIN_FRAME_SIZE - 1, hn.MAX_FRAME_SIZE + 1,
                     60000):
            with pytest.raises(ConfigError, match="frame size"):
                hn.gen_sequence(0, length=2, frame_size=size)

    def test_sequence_above_byte_bound_rejected(self):
        # one frame more than MAX_SEQUENCE_BYTES holds at the default size
        s = hn.DEFAULT_FRAME_SIZE
        length = hn.MAX_SEQUENCE_BYTES // (3 * s * s) + 1
        with pytest.raises(ConfigError, match="bytes"):
            hn.gen_sequence(0, length=length, frame_size=s)

    @pytest.mark.parametrize("difficulty", hn.DIFFICULTIES)
    def test_smallest_frame_size_generates(self, difficulty):
        s = hn.MIN_FRAME_SIZE
        for seed in range(25):
            seq = hn.gen_sequence(seed, length=6, frame_size=s,
                                  difficulty=difficulty)
            assert seq.frames[0].shape == (3, s, s)
            for (x, y, w, h) in seq.gt:
                assert x >= 0 and y >= 0 and x + w <= s and y + h <= s


class TestPpm:
    def test_round_trip_byte_exact(self, tmp_path):
        img = np.random.default_rng(0).integers(
            0, 256, size=(3, 17, 23)).astype(np.uint8)
        p = tmp_path / "img.ppm"
        hn.write_ppm(p, img)
        np.testing.assert_array_equal(hn.read_ppm(p), img)

    def test_header_layout(self, tmp_path):
        img = np.zeros((3, 4, 6), dtype=np.uint8)
        p = tmp_path / "img.ppm"
        hn.write_ppm(p, img)
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n6 4\n255\n")
        assert len(raw) == len(b"P6\n6 4\n255\n") + 3 * 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P3\n2 2\n255\n" + bytes(12))
        with pytest.raises(FormatError):
            hn.read_ppm(p)

    def test_bad_maxval_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(FormatError):
            hn.read_ppm(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(FormatError):
            hn.read_ppm(p)

    def test_header_comments_accepted(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# made by hand\n2 1 # size\n#\n255\n"
                      + bytes(range(6)))
        np.testing.assert_array_equal(
            hn.read_ppm(p), np.arange(6, dtype=np.uint8).reshape(1, 2, 3)
            .transpose(2, 0, 1))

    def test_zero_width_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n0 4\n255\n")
        with pytest.raises(FormatError):
            hn.read_ppm(p)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mangled_files_raise_only_format_error(self, tmp_path, data):
        sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# c\n",
                               b" #\r", b"#x"])
        w, h = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        raw = bytearray(b"P6" + data.draw(sep) + b"%d" % w + data.draw(sep)
                        + b"%d" % h + data.draw(sep) + b"255\n"
                        + data.draw(st.binary(min_size=3 * w * h,
                                              max_size=3 * w * h)))
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(raw)))
            junk = data.draw(st.binary(max_size=3))
            raw[at:at + data.draw(st.integers(0, 2))] = junk
        if data.draw(st.booleans()):
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        p = tmp_path / "m.ppm"
        p.write_bytes(bytes(raw))
        try:
            img = hn.read_ppm(p)
        except FormatError:
            return
        assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[0] == 3


class TestSequenceIo:
    def test_save_load_round_trip(self, tmp_path):
        seq = hn.gen_sequence(7, length=3, frame_size=64)
        hn.save_sequence(seq, tmp_path)
        back = hn.load_sequence(tmp_path / "seq_7")
        assert back.name == "seq_7"
        assert len(back.frames) == 3
        for fa, fb in zip(seq.frames, back.frames):
            np.testing.assert_array_equal(fa, fb)
        for ga, gb in zip(seq.gt, back.gt):
            np.testing.assert_allclose(gb, ga, atol=1e-6)

    def test_load_dataset_sorted(self, tmp_path):
        for seed in (11, 2):
            hn.save_sequence(hn.gen_sequence(seed, length=2, frame_size=64),
                             tmp_path)
        seqs = hn.load_dataset(tmp_path)
        assert [s.name for s in seqs] == ["seq_11", "seq_2"]

    def test_load_dataset_empty_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            hn.load_dataset(tmp_path)

    def test_load_dataset_missing_dir_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            hn.load_dataset(tmp_path / "nope")

    def test_bad_csv_column_count(self, tmp_path):
        d = tmp_path / "seq_0"
        d.mkdir()
        (d / "gt.csv").write_text("0,1.0,2.0,3.0\n")
        with pytest.raises(FormatError):
            hn.load_sequence(d)

    def test_non_numeric_field_rejected(self, tmp_path):
        d = tmp_path / "seq_0"
        d.mkdir()
        (d / "gt.csv").write_text("0,1,2,3,4\n1,1,x,3,4\n")
        with pytest.raises(FormatError):
            hn.load_sequence(d)

    def test_missing_frame_rejected(self, tmp_path):
        seq = hn.gen_sequence(7, length=3, frame_size=64)
        hn.save_sequence(seq, tmp_path)
        os.remove(tmp_path / "seq_7" / "frame_2.ppm")
        with pytest.raises(FormatError):
            hn.load_sequence(tmp_path / "seq_7")

    def test_non_contiguous_index(self, tmp_path):
        d = tmp_path / "seq_0"
        d.mkdir()
        (d / "gt.csv").write_text("0,1,2,3,4\n2,1,2,3,4\n")
        with pytest.raises(FormatError):
            hn.load_sequence(d)

    def test_missing_gt_rejected(self, tmp_path):
        d = tmp_path / "seq_0"
        d.mkdir()
        with pytest.raises(FormatError):
            hn.load_sequence(d)

    def test_non_ascii_gt_rejected(self, tmp_path):
        d = tmp_path / "seq_0"
        d.mkdir()
        (d / "gt.csv").write_bytes(b"0,1,2,3,4\n1,\xff,2,3,4\n")
        with pytest.raises(FormatError, match="not ASCII"):
            hn.load_sequence(d)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mangled_gt_raises_only_format_error(self, tmp_path, data):
        d, orig = tmp_path / "seq_3", tmp_path / "gt.orig"
        if not orig.exists():
            hn.save_sequence(hn.gen_sequence(3, length=3, frame_size=64),
                             tmp_path)
            orig.write_bytes((d / "gt.csv").read_bytes())
        raw = bytearray(orig.read_bytes())
        junk = st.one_of(
            st.binary(max_size=3),
            st.sampled_from([b",", b"\n", b",,", b"\xff", b"\xc3\xa9", b"-",
                             b"nan", b"1e999", b"\x00", b"9" * 5000]))
        # splices: mangled bytes, ragged fields or lines
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(raw)))
            raw[at:at + data.draw(st.integers(0, 3))] = data.draw(junk)
        if data.draw(st.booleans()):
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        (d / "gt.csv").write_bytes(bytes(raw))
        try:
            seq = hn.load_sequence(d)
        except FormatError:
            return
        assert len(seq.frames) == len(seq.gt) >= 2
        for box in seq.gt:
            assert np.isfinite(box).all() and box[2] > 0 and box[3] > 0, box


class TestIouCorner:
    def test_identical(self):
        assert hn.iou_corner((1, 2, 3, 4), (1, 2, 3, 4)) == pytest.approx(1.0)

    def test_half_overlap(self):
        # overlap 0.5, union 1.5
        assert hn.iou_corner((0, 0, 1, 1), (0.5, 0, 1, 1)) == \
            pytest.approx(1.0 / 3.0)

    def test_disjoint(self):
        assert hn.iou_corner((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0

    def test_degenerate(self):
        assert hn.iou_corner((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0


class TestSamplePair:
    def test_unjittered_gt_is_centered(self):
        seq = hn.gen_sequence(8, length=4, frame_size=128)
        cfg = tiny_urm_config()
        rng = np.random.default_rng(0)
        _, search, gt = hn.sample_pair(seq, cfg, rng, jitter=False)
        nx, ny, nw, nh = gt
        # the search crop is centered on the gt box with side 4*sqrt(wh)
        assert nx == pytest.approx(0.5, abs=1e-6)
        assert ny == pytest.approx(0.5, abs=1e-6)
        assert nw * nh == pytest.approx(1.0 / 16.0, rel=1e-6)
        assert search.shape == (3, cfg.search_size, cfg.search_size)

    def test_jittered_gt_stays_in_patch(self):
        seq = hn.gen_sequence(9, length=4, frame_size=128)
        cfg = tiny_urm_config()
        rng = np.random.default_rng(1)
        for _ in range(20):
            _, _, (nx, ny, nw, nh) = hn.sample_pair(seq, cfg, rng, jitter=True)
            assert 0.0 < nx < 1.0 and 0.0 < ny < 1.0
            assert nw > 0 and nh > 0

    def test_deterministic_given_rng(self):
        seq = hn.gen_sequence(10, length=4, frame_size=128)
        cfg = tiny_urm_config()
        a = hn.sample_pair(seq, cfg, np.random.default_rng(7))
        b = hn.sample_pair(seq, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_template_size(self):
        seq = hn.gen_sequence(11, length=4, frame_size=128)
        cfg = tiny_urm_config()
        t, _, _ = hn.sample_pair(seq, cfg, np.random.default_rng(2))
        assert t.shape == (3, cfg.template_size, cfg.template_size)

    # 48 is no power of two, so side / out * out need not give back side
    @pytest.mark.parametrize("search", [64, 48])
    def test_unjittered_pair_is_the_tracking_crop(self, search, monkeypatch):
        model = bb.build_variant(tiny_urm_config(search=search))
        seq = hn.gen_sequence(12, length=2, frame_size=128)
        seq.frames[1], seq.gt[1] = seq.frames[0], seq.gt[0]
        frame = seq.frames[0].astype(np.float32) / 255.0
        state = trk.init(frame, seq.gt[0], model)
        cuts = []
        crop = trk.crop_region

        def spy(*args):
            cuts.append(crop(*args))
            return cuts[-1]

        monkeypatch.setattr(trk, "crop_region", spy)
        _, pair_patch, gt = hn.sample_pair(seq, model.cfg,
                                           np.random.default_rng(0),
                                           jitter=False)
        trk.track_step(state, frame)
        # the pair's template crop, the pair's search crop, the tracker's
        _, (pair_cut, aff), (track_cut, track_aff) = cuts
        np.testing.assert_array_equal(pair_patch, pair_cut)
        np.testing.assert_array_equal(pair_cut, track_cut)
        assert aff == track_aff
        x, y, w, h = seq.gt[0]
        cx, cy = aff.frame_from_norm(*gt[:2])
        assert abs(cx - (x + w / 2)) < 1e-9 and abs(cy - (y + h / 2)) < 1e-9
        gw, gh = np.array(gt[2:]) * aff.side
        assert abs(gw - w) < 1e-9 and abs(gh - h) < 1e-9

    def test_jittered_pair_replays_through_crop_search(self):
        seq = hn.gen_sequence(13, length=4, frame_size=128)
        cfg = tiny_urm_config()
        rng = np.random.default_rng(3)
        for _ in range(5):
            replay = np.random.default_rng()
            replay.bit_generator.state = rng.bit_generator.state
            _, search, gt = hn.sample_pair(seq, cfg, rng)
            replay.integers(0, 4)
            si = int(replay.integers(0, 4))
            scale = 1.0 + float(replay.uniform(-hn.SCALE_JITTER,
                                               hn.SCALE_JITTER))
            shift = tuple(float(replay.uniform(-1, 1)) * hn.TRANSLATION_JITTER
                          for _ in range(2))
            b = 1.0 + float(replay.uniform(-hn.BRIGHTNESS_JITTER,
                                           hn.BRIGHTNESS_JITTER))
            frame = seq.frames[si].astype(np.float32) / 255.0
            patch, aff = trk.crop_search(frame, seq.gt[si], cfg.search_size,
                                         scale, shift)
            np.testing.assert_array_equal(search, np.clip(patch * b, 0, 1))
            x, y, w, h = seq.gt[si]
            assert gt == (*aff.norm_from_frame(x + w / 2, y + h / 2),
                          w / aff.side, h / aff.side)


class TestTrainLoop:
    def test_zero_steps_is_noop(self):
        model = tiny_model()
        before = {k: p.data.copy() for k, p in model.store.items()}
        res = hn.train_loop(model, [], steps=0)
        assert res.losses == []
        for k, p in model.store.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_records_every_step(self):
        model = tiny_model()
        seqs = [hn.gen_sequence(12, length=3, frame_size=96)]
        res = hn.train_loop(model, seqs, steps=3, seed=0)
        assert len(res.losses) == 3
        assert len(res.components) == 3
        assert all(np.isfinite(v) for v in res.losses)
        assert {"cls", "giou", "l1", "total"} <= set(res.components[0])

    def test_deterministic(self):
        seqs = [hn.gen_sequence(13, length=3, frame_size=96)]
        losses = []
        for _ in range(2):
            model = tiny_model()
            losses.append(hn.train_loop(model, seqs, steps=3, seed=5).losses)
        assert losses[0] == losses[1]

    def test_non_finite_loss_aborts(self):
        model = tiny_model()
        cfg = model.cfg
        bad = np.full((3, cfg.template_size, cfg.template_size), np.nan,
                      dtype=np.float32)
        search = np.zeros((3, cfg.search_size, cfg.search_size),
                          dtype=np.float32)
        with pytest.raises(NumericError):
            hn.train_loop(model, [], steps=1,
                          fixed_sample=(bad, search, (0.5, 0.5, 0.25, 0.25)))

    def test_non_finite_pretraining_loss_names_the_step(self, monkeypatch):
        pre = bb.MimPretrainer(tiny_model())
        real_loss, real_backward, calls = pre.loss, ad.backward, []

        def loss(image, mask_ratio, rng):
            calls.append("loss")
            out = real_loss(image, mask_ratio, rng)
            return out * np.nan if calls.count("loss") == 3 else out

        def backward(loss):
            calls.append("backward")
            real_backward(loss)

        monkeypatch.setattr(pre, "loss", loss)
        monkeypatch.setattr(ad, "backward", backward)
        seqs = [hn.gen_sequence(27, length=3, frame_size=96)]
        with pytest.raises(NumericError, match=r"^non-finite loss at step 2$"):
            hn.pretrain_loop(pre, seqs, steps=5, lr=1e-4, mask_ratio=0.75,
                             seed=0)
        # raised before the failing step's backward
        assert calls == ["loss", "backward"] * 2 + ["loss"]

    def test_stop_fn_ends_training_early(self):
        model = tiny_model()
        seqs = [hn.gen_sequence(26, length=3, frame_size=96)]
        res = hn.train_loop(model, seqs, steps=10, seed=0,
                            stop_fn=lambda step, parts: step == 3)
        assert len(res.losses) == 4

    def test_fixed_sample_loss_decreases(self):
        model = tiny_model()
        seq = hn.gen_sequence(14, length=3, frame_size=96)
        sample = hn.sample_pair(seq, model.cfg, np.random.default_rng(0),
                                jitter=False)
        res = hn.train_loop(model, [], steps=12, lr=3e-3, weight_decay=0.0,
                            fixed_sample=sample)
        assert res.losses[-1] < res.losses[0]


def _train_case():
    # small channels on a large image: activations dwarf parameters, so a
    # step that keeps its predecessor's graph about doubles the peak, where
    # the AdamW moments made in step 0 add about a sixth
    model = bb.build_variant(tiny_urm_config(search=256, template=128,
                                             pe="none"), seed=0)
    rng = np.random.default_rng(0)
    sample = (rng.random((3, 128, 128), dtype=np.float32),
              rng.random((3, 256, 256), dtype=np.float32),
              (0.5, 0.5, 0.25, 0.25))
    return lambda steps: hn.train_loop(model, [], steps=steps,
                                       fixed_sample=sample)


def _pretrain_case():
    # the decoder's attention maps over a 32x32 grid dwarf its parameters
    # and moments in the same way
    pre = bb.MimPretrainer(bb.build_variant(
        tiny_urm_config(search=512, template=128, pe="none"), seed=0))
    seqs = [hn.gen_sequence(16, length=2, frame_size=96)]
    return lambda steps: hn.pretrain_loop(pre, seqs, steps=steps, lr=1e-4,
                                          mask_ratio=0.75, seed=0)


def _traced_peak(case, steps):
    """tracemalloc's peak over `steps` steps of a fresh case's loop."""
    run = case()
    tracemalloc.start()
    try:
        run(steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainingMemory:
    def test_activations_die_with_backward(self, monkeypatch):
        model = tiny_model()
        refs = []
        real_gelu = ad.gelu

        def gelu(a):
            out = real_gelu(a)
            refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ad, "gelu", gelu)
        seq = hn.gen_sequence(15, length=3, frame_size=96)
        template, search, gt = hn.sample_pair(seq, model.cfg,
                                              np.random.default_rng(0))
        _, f_x = model.forward_pair(Tensor(template), Tensor(search))
        out = model.head(f_x)
        loss, _ = total_loss(out, gt)
        # each gelu output is read by the linear after it
        assert refs and all(r() is not None for r in refs)
        ad.backward(loss)
        assert all(r() is None for r in refs)
        assert out.score.data.size and np.isfinite(loss.data).all()

    @pytest.mark.parametrize("case", [_train_case, _pretrain_case],
                             ids=["train_loop", "pretrain_loop"])
    def test_later_steps_hold_no_earlier_graph(self, case):
        _traced_peak(case, 1)  # first-call allocations
        one = _traced_peak(case, 1)
        three = _traced_peak(case, 3)
        assert three <= 1.3 * one, (one, three)


class TestMetrics:
    def make_seq(self, seed=15, length=5):
        return hn.gen_sequence(seed, length=length, frame_size=96)

    def test_oracle_tracker_scores_one(self):
        seq = self.make_seq()
        m = hn.sequence_metrics(seq.name, seq.gt[1:], seq.gt[1:])
        assert m.ao == 1.0 and m.auc == 1.0 and m.precision == 1.0

    def test_success_curve_properties(self):
        seq = self.make_seq()
        preds = [(x + 3, y + 3, w, h) for (x, y, w, h) in seq.gt[1:]]
        m = hn.sequence_metrics(seq.name, preds, seq.gt[1:])
        ious = np.array(m.ious)
        success = [(ious >= t - 1e-9).mean() for t in hn.SUCCESS_THRESHOLDS]
        assert len(hn.SUCCESS_THRESHOLDS) == 21
        assert success[0] == 1.0
        assert all(a >= b for a, b in zip(success, success[1:]))
        assert m.auc == pytest.approx(np.mean(success))

    def test_precision_threshold(self):
        gt = [(0.0, 0.0, 10.0, 10.0)] * 2
        near = [(5.0, 0.0, 10.0, 10.0)] * 2  # center error 5 px
        far = [(50.0, 0.0, 10.0, 10.0)] * 2  # center error 50 px
        assert hn.sequence_metrics("s", near, gt).precision == 1.0
        assert hn.sequence_metrics("s", far, gt).precision == 0.0

    def test_aggregate_is_mean(self):
        a = hn.SequenceMetrics("a", 0.2, 0.4, 0.6, [])
        b = hn.SequenceMetrics("b", 0.4, 0.8, 1.0, [])
        agg = hn.aggregate([a, b])
        assert agg.ao == pytest.approx(0.3)
        assert agg.auc == pytest.approx(0.6)
        assert agg.precision == pytest.approx(0.8)

    def test_static_baseline_below_oracle(self):
        seqs = [self.make_seq(seed, 8) for seed in (16, 17)]

        def score(track):
            return hn.aggregate([hn.sequence_metrics(s.name, track(s),
                                                     s.gt[1:]) for s in seqs])

        oracle = score(lambda s: s.gt[1:])
        static = score(hn.static_baseline)
        assert oracle.ao == pytest.approx(1.0, abs=1e-9)
        assert static.ao < oracle.ao - 1e-3
        assert static.ao > 0.0  # frame-1 box still overlaps early frames


class TestEvaluate:
    @staticmethod
    def track_with(monkeypatch, fn):
        """A model whose evaluate tracks each sequence with fn(seq)."""
        monkeypatch.setattr(hn, "run_tracker_on_sequence",
                            lambda model, seq, config: fn(seq))
        return tiny_model()

    def test_jobs_equivalence(self, monkeypatch):
        model = self.track_with(monkeypatch, hn.static_baseline)
        seqs = [hn.gen_sequence(s, length=6, frame_size=96)
                for s in (18, 19, 20)]
        one = hn.evaluate(model, seqs, jobs=1)
        many = hn.evaluate(model, seqs, jobs=3)
        assert one.ao == many.ao and one.auc == many.auc
        assert [m.name for m in one.per_sequence] == \
            [m.name for m in many.per_sequence]

    def test_order_of_sequences_does_not_change_aggregate(self, monkeypatch):
        model = self.track_with(monkeypatch, hn.static_baseline)
        seqs = [hn.gen_sequence(s, length=5, frame_size=96) for s in (21, 22)]
        fwd = hn.evaluate(model, seqs)
        rev = hn.evaluate(model, seqs[::-1])
        assert fwd.ao == pytest.approx(rev.ao)

    def test_model_tracker_runs(self):
        model = tiny_model()
        seqs = [hn.gen_sequence(23, length=4, frame_size=96)]
        m = hn.evaluate(model, seqs)
        assert 0.0 <= m.ao <= 1.0
        assert len(m.per_sequence) == 1
        assert len(m.per_sequence[0].ious) == 3

    def test_frame_too_small_rejected(self):
        model = tiny_model()
        small = hn.gen_sequence(24, length=3, frame_size=96)
        small.frames = [f[:, :8, :8] for f in small.frames]
        with pytest.raises(ConfigError):
            hn.evaluate(model, [small])

    def test_deterministic_model_eval(self):
        model = tiny_model()
        seqs = [hn.gen_sequence(25, length=4, frame_size=96)]
        a = hn.evaluate(model, seqs)
        b = hn.evaluate(model, seqs)
        assert a.ao == b.ao and a.auc == b.auc and a.precision == b.precision

    @pytest.fixture
    def blas(self):
        """Getter of numpy's OpenBLAS thread count; the engine has pinned
        it to one thread."""
        found = ad._openblas()
        if found is None:
            pytest.skip("numpy has no bundled OpenBLAS thread control")
        ad.threads()
        return found[0]

    @staticmethod
    def recording_tracker(get, seen):
        def track(seq):
            seen.append((ad.threads(), get()))
            return hn.static_baseline(seq)
        return track

    @pytest.mark.parametrize("jobs,n_seqs,share", [
        (2, 3, 4), (3, 3, 2), (8, 2, 4),  # 2 sequences: 2 workers, not 8
    ])
    def test_pool_workers_share_the_fork_width(self, blas, monkeypatch, jobs,
                                               n_seqs, share):
        monkeypatch.setenv("SBT_LAB_THREADS", "8")
        seqs = [hn.gen_sequence(s, length=3, frame_size=96)
                for s in range(30, 30 + n_seqs)]
        seen = []
        model = self.track_with(monkeypatch,
                                self.recording_tracker(blas, seen))
        with ad.thread_width(8):
            hn.evaluate(model, seqs, jobs=jobs)
            assert ad.threads() == 8
        # each worker forks at its share, with BLAS on one thread
        assert seen == [(share, 1)] * n_seqs
        assert blas() == 1

    def test_widths_restored_when_tracker_raises(self, blas, monkeypatch):
        monkeypatch.setenv("SBT_LAB_THREADS", "2")
        seqs = [hn.gen_sequence(s, length=3, frame_size=96) for s in (33, 34)]

        def boom(seq):
            raise RuntimeError("tracker failed")

        model = self.track_with(monkeypatch, boom)
        with ad.thread_width(2):
            with pytest.raises(RuntimeError, match="tracker failed"):
                hn.evaluate(model, seqs, jobs=2)
            assert ad.threads() == 2
        assert blas() == 1

    @pytest.mark.parametrize("jobs,n_seqs", [(1, 2), (2, 1)])
    def test_single_worker_keeps_the_callers_width(self, blas, monkeypatch,
                                                   jobs, n_seqs):
        monkeypatch.setenv("SBT_LAB_THREADS", "2")
        seqs = [hn.gen_sequence(s, length=3, frame_size=96)
                for s in range(35, 35 + n_seqs)]
        seen = []
        model = self.track_with(monkeypatch,
                                self.recording_tracker(blas, seen))
        with ad.thread_width(2):
            hn.evaluate(model, seqs, jobs=jobs)
        assert seen == [(2, 1)] * n_seqs

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_without_openblas_metrics_unchanged(self, monkeypatch, capsys,
                                                missing):
        monkeypatch.setenv("SBT_LAB_THREADS", "2")
        model = tiny_model()
        seqs = [hn.gen_sequence(s, length=3, frame_size=96) for s in (37, 38)]
        want = hn.evaluate(model, seqs, jobs=2)
        if missing == "library":
            monkeypatch.setattr(ad.glob, "glob", lambda pattern: [])
        else:
            monkeypatch.setattr(ad.ctypes, "CDLL", lambda path: object())
        assert ad._openblas() is None
        # a BLAS that cannot be pinned leaves the engine at width 1
        assert ad.set_threads() == 1
        got = hn.evaluate(model, seqs, jobs=2)
        assert got == want
        assert capsys.readouterr() == ("", "")


class TestEvaluateThreads:
    def test_engine_starts_every_thread(self, monkeypatch):
        """eval's sequences run on the engine's fork-join: the only
        threads evaluate may start are its helpers."""
        monkeypatch.setenv("SBT_LAB_THREADS", "2")
        started = []
        real = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            return real(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        model = tiny_model()
        seqs = [hn.gen_sequence(s, length=3, frame_size=96) for s in (39, 40)]
        with ad.thread_width(2):
            hn.evaluate(model, seqs, jobs=2)
        assert all(n.startswith("sbt-lab-fork-") for n in started), started

    @staticmethod
    def tracking_threads(monkeypatch):
        """Evaluate two sequences at jobs=2; the threads that tracked."""
        names = set()
        real = hn.run_tracker_on_sequence

        def spy(*args, **kwargs):
            names.add(threading.current_thread().name)
            return real(*args, **kwargs)

        monkeypatch.setattr(hn, "run_tracker_on_sequence", spy)
        seqs = [hn.gen_sequence(s, length=3, frame_size=96) for s in (41, 42)]
        hn.evaluate(tiny_model(), seqs, jobs=2)
        return names

    def test_unpinned_blas_tracks_on_one_thread(self, monkeypatch):
        """Where OpenBLAS cannot be pinned the engine's width is 1, so the
        sequences run one after another, whatever SBT_LAB_THREADS says."""
        monkeypatch.setenv("SBT_LAB_THREADS", "2")
        monkeypatch.setattr(ad, "_openblas", lambda: None)
        assert ad.set_threads() == 1
        assert len(self.tracking_threads(monkeypatch)) == 1

    def test_caller_width_bounds_the_ranges(self, monkeypatch):
        monkeypatch.setenv("SBT_LAB_THREADS", "2")
        with ad.thread_width(1):
            assert len(self.tracking_threads(monkeypatch)) == 1


class TestMaxThreads:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("SBT_LAB_THREADS", "2")
        assert hn.max_threads() == 2

    def test_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv("SBT_LAB_THREADS", "lots")
        with pytest.raises(ConfigError):
            hn.max_threads()
        monkeypatch.setenv("SBT_LAB_THREADS", "0")
        with pytest.raises(ConfigError):
            hn.max_threads()

    @pytest.mark.parametrize("value,ok", [("64", True), ("65", False),
                                          ("20000", False)])
    def test_ceiling(self, value, ok, monkeypatch):
        monkeypatch.setenv("SBT_LAB_THREADS", value)
        if ok:
            assert hn.max_threads() == int(value)
        else:
            with pytest.raises(ConfigError, match=r"\[1, 64\]"):
                hn.max_threads()

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("SBT_LAB_THREADS", raising=False)
        assert hn.max_threads() >= 1


class TestFormatReport:
    def test_schema(self):
        a = hn.SequenceMetrics("seq_1", 0.5, 0.25, 1.0, [])
        rep = hn.format_report(hn.aggregate([a]))
        lines = rep.strip().split("\n")
        assert len(lines) == 2
        assert re.fullmatch(
            r"seq name=seq_1 ao=0\.500000 auc=0\.250000 precision=1\.000000",
            lines[0])
        assert re.fullmatch(
            r"aggregate sequences=1 ao=0\.500000 auc=0\.250000 "
            r"precision=1\.000000", lines[1])
        assert rep.endswith("\n")
