import numpy as np
import pytest

import sbt_lab.autodiff as ad
from sbt_lab import backbone as bb
from sbt_lab.autodiff import Tensor
from sbt_lab import tracker as trk
from sbt_lab.errors import ContractError, NumericError

from test_backbone import tiny_urm_config


def make_model():
    return bb.build_variant(tiny_urm_config())


def flat_frame(size=128, value=0.5):
    return np.full((3, size, size), value, dtype=np.float32)


def textured_frame(seed, size=128):
    return np.random.default_rng(seed).uniform(
        0.0, 1.0, size=(3, size, size)).astype(np.float32)


class TestHanning:
    @pytest.mark.parametrize("n", [5, 8, 15, 16])
    def test_center_one_edges_zero(self, n):
        w = trk.hanning_1d(n)
        assert w[n // 2] == 1.0
        assert w[0] == pytest.approx(0.0, abs=1e-7)
        assert w[-1] == pytest.approx(0.0, abs=1e-7)
        assert (w >= 0).all() and (w <= 1).all()

    def test_2d_separable_product(self):
        w2 = trk.hanning_2d(8, 16)
        expect = np.outer(trk.hanning_1d(8), trk.hanning_1d(16))
        np.testing.assert_allclose(w2, expect, atol=1e-7)
        assert w2[4, 8] == 1.0
        assert w2[0, 0] == pytest.approx(0.0, abs=1e-7)
        assert w2[7, 15] == pytest.approx(0.0, abs=1e-7)

    def test_unimodal_along_axes(self):
        w = trk.hanning_1d(16).astype(np.float64)
        c = 8
        assert (np.diff(w[:c + 1]) > 0).all()
        assert (np.diff(w[c:]) < 0).all()


def sampling_grid(center, side, out):
    """Frame array indices sampled by patch indices 0..out-1 per axis."""
    scale = side / out
    return tuple(c - side / 2 + 0.5 * scale - 0.5 + scale * np.arange(out)
                 for c in center)


class TestCropRegion:
    def test_identity_crop_is_pixel_exact(self):
        frame = textured_frame(0, 64)
        # side == out_size, crop square exactly [16, 48) on both axes
        patch, aff = trk.crop_region(frame, (32.0, 32.0), 32, 32)
        np.testing.assert_allclose(patch, frame[:, 16:48, 16:48], atol=1e-6)
        xs, ys = sampling_grid((32.0, 32.0), 32, 32)
        np.testing.assert_array_equal(xs, np.arange(16.0, 48.0))
        np.testing.assert_array_equal(ys, np.arange(16.0, 48.0))
        assert aff.left_x == 16.0 and aff.side == 32.0

    def test_patch_is_c_ordered(self):
        # the model's first op on it then splits over the fork-join
        patch, _ = trk.crop_region(textured_frame(0, 64), (30.0, 34.0), 48, 32)
        assert patch.dtype == np.float32 and patch.flags.c_contiguous

    def test_affine_round_trip(self):
        frame = textured_frame(1, 100)
        _, aff = trk.crop_region(frame, (37.3, 61.9), 45.7, 32)
        for fx, fy in [(37.3, 61.9), (20.0, 70.0), (55.5, 44.4)]:
            nx, ny = aff.norm_from_frame(fx, fy)
            bx, by = aff.frame_from_norm(nx, ny)
            assert abs(bx - fx) < 1e-9 and abs(by - fy) < 1e-9
        # the crop center maps to the normalized midpoint
        nx, ny = aff.norm_from_frame(37.3, 61.9)
        assert nx == pytest.approx(0.5) and ny == pytest.approx(0.5)

    def test_fully_outside_gives_mean_fill(self):
        frame = textured_frame(2, 64)
        patch, _ = trk.crop_region(frame, (-500.0, -500.0), 32, 16)
        mean = frame.reshape(3, -1).mean(axis=1)
        for c in range(3):
            np.testing.assert_allclose(patch[c], mean[c], atol=1e-6)

    def test_partial_crop_fills_outside_area(self):
        frame = textured_frame(3, 64)
        patch, aff = trk.crop_region(frame, (0.0, 32.0), 32, 32)
        mean = frame.reshape(3, -1).mean(axis=1)
        np.testing.assert_allclose(patch[:, :, 0],
                                   np.tile(mean[:, None], (1, 32)), atol=1e-6)
        assert np.abs(patch[:, :, 20] - mean[:, None]).max() > 0.05

    def test_bad_side_rejected(self):
        with pytest.raises(ContractError):
            trk.crop_region(flat_frame(), (10, 10), 0.0, 16)

    @pytest.mark.parametrize("center,side,out", [
        ((32.0, 32.0), 32, 32), ((37.3, 61.9), 45.7, 32),
        ((0.0, 32.0), 32, 32), ((90.2, 5.5), 70.0, 48),
        ((-500.0, -500.0), 32, 16), ((50.0, 40.0), 8.3, 64),
    ])
    def test_matches_whole_frame_float64_formula(self, center, side, out):
        # the bilinear formula on the whole frame cast to float64
        frame = textured_frame(5, 100)[:, :80]
        patch, _ = trk.crop_region(frame, center, side, out)
        _, fh, fw = frame.shape
        xs, ys = sampling_grid(center, side, out)

        def axis_weights(coords, limit):
            lo = np.floor(coords).astype(np.int64)
            inside = (coords >= 0.0) & (coords <= limit - 1)
            return (np.clip(lo, 0, limit - 1), np.clip(lo + 1, 0, limit - 1),
                    coords - lo, inside)

        jx0, jx1, fx, in_x = axis_weights(xs, fw)
        iy0, iy1, fy, in_y = axis_weights(ys, fh)
        f = frame.astype(np.float64)
        top = f[:, iy0][:, :, jx0] * (1 - fx) + f[:, iy0][:, :, jx1] * fx
        bot = f[:, iy1][:, :, jx0] * (1 - fx) + f[:, iy1][:, :, jx1] * fx
        ref = top * (1 - fy)[None, :, None] + bot * fy[None, :, None]
        ref[:, ~(in_y[:, None] & in_x[None, :])] = (
            frame.reshape(3, -1).mean(axis=1)[:, None])
        ref = ref.astype(np.float32)
        assert patch.dtype == np.float32
        np.testing.assert_array_equal(patch, ref)


class TestInit:
    def test_template_crop_side(self):
        model = make_model()
        frame = textured_frame(4, 128)
        state = trk.init(frame, (48, 48, 32, 32), model)
        # TEMPLATE_CONTEXT = 2 -> 64 px crop resized to the template input size
        assert state.template_patch.shape == (3, 32, 32)
        assert state.prev_box == (48.0, 48.0, 32.0, 32.0)
        assert state.dyn_feat is None

    def test_temporal_mode_seeds_dyn_template(self, monkeypatch):
        model = make_model()
        tags = []
        encode = model.encode_early

        def spy(image, tag):
            tags.append(tag)
            return encode(image, tag)

        monkeypatch.setattr(model, "encode_early", spy)
        state = trk.init(textured_frame(5), (40, 40, 24, 24), model,
                         trk.TrackerConfig(temporal=True))
        # one encode serves both templates, tagged apart
        assert tags == ["template"]
        assert state.dyn_feat.segments == ["dyn_template"]
        assert state.dyn_feat.grids == state.template_feat.grids
        with ad.no_grad():
            fresh = encode(Tensor(state.template_patch.copy()), "dyn_template")
        np.testing.assert_array_equal(state.dyn_feat.tokens.data,
                                      fresh.tokens.data)

    def test_out_of_frame_box_rejected(self):
        model = make_model()
        with pytest.raises(ContractError):
            trk.init(flat_frame(), (120, 120, 32, 32), model)
        with pytest.raises(ContractError):
            trk.init(flat_frame(), (10, 10, 0, 5), model)

    def test_edge_box_pads_with_mean(self):
        model = make_model()
        frame = textured_frame(6)
        state = trk.init(frame, (0, 0, 20, 20), model)
        assert np.isfinite(state.template_patch).all()


class TestTrackStep:
    def test_uniform_score_argmax_at_center(self):
        model = make_model()
        # flat frame -> roughly uniform score map; window decides
        frame = flat_frame(128)
        state = trk.init(frame, (48, 48, 32, 32), model)
        box, conf = trk.track_step(state, frame)
        cx = box[0] + box[2] / 2
        cy = box[1] + box[3] / 2
        # the window peak cell of the 4x4 map spans [0.5, 0.75) normalized;
        # with the search side at 128 px that is within 32 px of center
        assert 60 < cx < 100 and 60 < cy < 100

    def test_zero_window_weight_equals_raw_decode(self):
        model = make_model()
        frame = textured_frame(7, 128)
        boxes = {}
        for lam in (0.0, 0.45):
            cfg = trk.TrackerConfig(window_weight=lam)
            state = trk.init(frame, (48, 48, 32, 32), model, cfg)
            boxes[lam] = trk.track_step(state, frame)[0]
        cfg = trk.TrackerConfig(window_weight=0.0)
        state = trk.init(frame, (48, 48, 32, 32), model, cfg)
        from sbt_lab.head import decode_box
        from sbt_lab.autodiff import Tensor
        patch, aff = trk.crop_region(frame, (64.0, 64.0),
                                     4.0 * 32, model.cfg.search_size)
        with ad.no_grad():
            xf = model.encode_early(Tensor(patch), "search")
            _, f_x = model.forward_joint(state.template_feat, xf)
            out = model.head(f_x)
        raw_cell = decode_box(out)[2]
        state2 = trk.init(frame, (48, 48, 32, 32), model, cfg)
        trk.track_step(state2, frame)
        assert boxes[0.0] != boxes[0.45] or raw_cell == (8, 8)

    def test_window_preserves_order_at_equal_window_cells(self):
        g = 16
        w = trk.hanning_2d(g, g)
        rng = np.random.default_rng(8)
        s = rng.uniform(size=(g, g)).astype(np.float32)
        p = 0.55 * s + 0.45 * w
        # mirrored cells share a window value; order must follow raw score
        for (a, b) in [((3, 4), (3, 12)), ((2, 5), (14, 5))]:
            wa, wb = w[a], w[b]
            if abs(wa - wb) < 1e-7:
                assert (s[a] > s[b]) == (p[a] > p[b])

    def test_one_hot_score_maps_through_affine(self):
        model = make_model()
        frame = textured_frame(9, 128)
        cfg = trk.TrackerConfig(window_weight=0.0, size_smoothing=1.0)
        state = trk.init(frame, (48, 48, 32, 32), model, cfg)

        grid = model.cfg.search_size // 16

        class OneHotHead:
            def __call__(self, f_x):
                from sbt_lab.autodiff import Tensor
                from sbt_lab.head import HeadOutput
                score = np.full((grid, grid), 0.1, dtype=np.float32)
                score[1, 2] = 0.9
                offset = np.zeros((2, grid, grid), dtype=np.float32)
                size = np.full((2, grid, grid), 0.25, dtype=np.float32)
                return HeadOutput(Tensor(score), Tensor(offset), Tensor(size))

        model_head = model.head
        model.head = OneHotHead()
        try:
            box, conf = trk.track_step(state, frame)
        finally:
            model.head = model_head
        # search side = 4*32 = 128 px centered at (64, 64); cell (1, 2) of a
        # 4x4 map decodes to normalized (0.5, 0.25)
        side = 128.0
        expect_cx = 64 - side / 2 + 0.5 * side
        expect_cy = 64 - side / 2 + 0.25 * side
        assert box[0] + box[2] / 2 == pytest.approx(expect_cx, abs=1e-3)
        assert box[1] + box[3] / 2 == pytest.approx(expect_cy, abs=1e-3)
        assert box[2] == pytest.approx(0.25 * side, abs=1e-3)
        assert conf == pytest.approx(0.9, abs=1e-6)

    def test_nonfinite_scores_leave_state_unchanged(self):
        model = make_model()
        frame = textured_frame(10, 128)
        state = trk.init(frame, (48, 48, 32, 32), model)
        before = (state.prev_box, state.frame_index)
        bad = np.full_like(frame, np.nan)
        with pytest.raises(NumericError):
            trk.track_step(state, bad)
        assert (state.prev_box, state.frame_index) == before

    def test_deterministic_trajectory(self):
        model = make_model()
        frames = [textured_frame(20 + i, 128) for i in range(4)]
        trajs = []
        for _ in range(2):
            state = trk.init(frames[0], (48, 48, 32, 32), model)
            trajs.append([trk.track_step(state, f) for f in frames[1:]])
        assert trajs[0] == trajs[1]

    def test_template_immutable(self):
        model = make_model()
        state = trk.init(textured_frame(11), (48, 48, 32, 32), model)
        with pytest.raises(ValueError):
            state.template_patch[0, 0, 0] = 1.0


class TestTemplateUpdate:
    def setup_state(self, interval=2):
        model = make_model()
        cfg = trk.TrackerConfig(temporal=True, update_interval=interval,
                                update_threshold=0.6)
        frame = textured_frame(12, 128)
        state = trk.init(frame, (48, 48, 32, 32), model, cfg)
        return state, frame

    def test_update_when_confident_and_due(self, monkeypatch):
        state, frame = self.setup_state(interval=2)
        state.frame_index = 5
        # the target moved: the new crop is not the template crop
        state.prev_box = (40.0, 44.0, 28.0, 30.0)
        old = state.dyn_feat
        model, encode, calls = state.model, state.model.encode_early, []

        def spy(image, tag):
            calls.append((image.data.copy(), tag))
            return encode(image, tag)

        monkeypatch.setattr(model, "encode_early", spy)
        assert trk.maybe_update_template(state, frame, 0.9)
        assert state.last_update_frame == 5
        crop = trk.crop_template(frame, state.prev_box, model.cfg.template_size)
        assert [tag for _, tag in calls] == ["dyn_template"]
        np.testing.assert_array_equal(calls[0][0], crop)
        with ad.no_grad():
            fresh = encode(Tensor(crop), "dyn_template")
        assert state.dyn_feat.segments == ["dyn_template"]
        np.testing.assert_array_equal(state.dyn_feat.tokens.data,
                                      fresh.tokens.data)
        assert not np.array_equal(state.dyn_feat.tokens.data,
                                  old.tokens.data)

    def test_no_update_below_threshold(self):
        state, frame = self.setup_state(interval=2)
        state.frame_index = 5
        assert not trk.maybe_update_template(state, frame, 0.5)

    def test_no_update_before_interval(self):
        state, frame = self.setup_state(interval=10)
        state.frame_index = 5
        assert not trk.maybe_update_template(state, frame, 0.99)

    def test_initial_template_never_changes(self):
        state, frame = self.setup_state(interval=1)
        before = state.template_patch.copy()
        state.frame_index = 5
        trk.maybe_update_template(state, frame, 0.9)
        np.testing.assert_array_equal(state.template_patch, before)

    def test_no_update_when_temporal_off(self):
        model = make_model()
        frame = textured_frame(13, 128)
        state = trk.init(frame, (48, 48, 32, 32), model)
        state.frame_index = 100
        assert not trk.maybe_update_template(state, frame, 0.99)


class TestRelBiasCache:
    """Each joint block's RelBiasTable keeps its no-graph bias per token
    layout while the table's bytes stay the same."""

    @staticmethod
    def spy_gathers(monkeypatch, model):
        tables = [blk.rel_bias.table for blk in model.stage_blocks[-1]]
        calls = []
        take_rows = ad.take_rows

        def spy(a, idx, *args):
            if any(a is t for t in tables):
                calls.append(tables.index(a))
            return take_rows(a, idx, *args)

        monkeypatch.setattr(ad, "take_rows", spy)
        return calls

    @staticmethod
    def joint(model, seed=0):
        cfg, rng = model.cfg, np.random.default_rng(seed)
        dtype = model.store.dtype
        z = rng.random((3, cfg.template_size, cfg.template_size)).astype(dtype)
        x = rng.random((3, cfg.search_size, cfg.search_size)).astype(dtype)
        zf = model.encode_early(Tensor(z), "template")
        xf = model.encode_early(Tensor(x), "search")
        return model.forward_joint(zf, xf)[1].tokens

    def test_gathered_once_per_block_and_layout(self, monkeypatch):
        model = make_model()
        calls = self.spy_gathers(monkeypatch, model)
        blocks = len(model.stage_blocks[-1])
        frames = [textured_frame(s) for s in range(5)]
        for temporal in (False, False, True, True):
            cfg = trk.TrackerConfig(temporal=temporal, update_threshold=0.0,
                                    update_interval=2)
            state = trk.init(frames[0], (48, 48, 32, 32), model, cfg)
            for f in frames[1:]:
                box, conf = trk.track_step(state, f)
                trk.maybe_update_template(state, f, conf)
            # one layout per kind of session
            assert len(calls) == blocks * (1 + temporal)
        assert sorted(calls) == sorted(2 * list(range(blocks)))

    @pytest.mark.parametrize("change", ["in-place", "cast"])
    def test_changed_table_gathers_again(self, monkeypatch, change):
        def apply(model):
            if change == "in-place":
                model.stage_blocks[-1][0].rel_bias.table.data += 0.5
            else:
                model.store.cast_(np.float64)

        model = make_model()
        calls = self.spy_gathers(monkeypatch, model)
        with ad.no_grad():
            before = self.joint(model).data
            apply(model)
            got = self.joint(model).data
            fresh = make_model()
            apply(fresh)
            want = self.joint(fresh).data
        blocks = len(model.stage_blocks[-1])
        assert calls == list(range(blocks)) + (
            [0] if change == "in-place" else list(range(blocks)))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.tobytes() != before.tobytes()

    def test_recorded_pass_after_kept_pass(self, monkeypatch):
        def table_grads(model):
            out = self.joint(model)
            ad.backward(ad.sum_(out * out))
            return [blk.rel_bias.table.grad
                    for blk in model.stage_blocks[-1]]

        model = make_model()
        with ad.no_grad():
            self.joint(model)
        calls = self.spy_gathers(monkeypatch, model)
        got = table_grads(model)
        assert calls == list(range(len(got)))
        want = table_grads(make_model())
        for g, w in zip(got, want):
            assert g is not None and g.tobytes() == w.tobytes()
