import numpy as np
import pytest

import sbt_lab.autodiff as ad
from sbt_lab.autodiff import ParamStore, Tensor, tensor
from sbt_lab.errors import ContractError
from sbt_lab.head import ConvHead, HeadOutput, MixMlpHead, decode_box, group_norm
from sbt_lab.layers import TokenMap, concat_maps

F64 = np.float64


def search_map(rng, grid=16, c=16, dtype=np.float32):
    t = tensor(rng.normal(size=(grid * grid, c)), dtype=dtype)
    return TokenMap(t, [(grid, grid)], ["search"])


class TestGroupNorm:
    def test_normalizes_per_group(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.normal(size=(4, 4, 8)), dtype=F64)
        gamma = tensor(np.ones(8), dtype=F64)
        beta = tensor(np.zeros(8), dtype=F64)
        out = group_norm(x, gamma, beta, groups=2).data
        for g in range(2):
            blk = out[:, :, g * 4:(g + 1) * 4]
            assert abs(blk.mean()) < 1e-9
            assert abs(blk.var() - 1.0) < 1e-3

    def test_affine_applied_per_channel(self):
        rng = np.random.default_rng(1)
        x = tensor(rng.normal(size=(2, 2, 8)), dtype=F64)
        gamma = tensor(np.zeros(8), dtype=F64)
        beta = tensor(np.arange(8.0), dtype=F64)
        out = group_norm(x, gamma, beta, groups=2).data
        for c in range(8):
            np.testing.assert_allclose(out[:, :, c], c, atol=1e-12)


class TestConvHead:
    def make(self, c=16, seed=0, hidden=16):
        ps = ParamStore()
        head = ConvHead(ps, "head", np.random.default_rng(seed), c, hidden=hidden)
        return ps, head

    def test_zero_projection_gives_half(self):
        ps, head = self.make()
        for branch, _ in head.BRANCHES:
            _, pw, pb = head._layers[branch]
            pw.data[:] = 0
            pb.data[:] = 0
        out = head(search_map(np.random.default_rng(2)))
        np.testing.assert_allclose(out.score.data, 0.5, atol=1e-6)
        np.testing.assert_allclose(out.size.data, 0.5, atol=1e-6)
        np.testing.assert_allclose(out.offset.data, 0.5 / 16, atol=1e-6)

    def test_grid_shape_and_bounds(self):
        ps, head = self.make()
        out = head(search_map(np.random.default_rng(3)))
        assert out.score.data.shape == (16, 16)
        assert out.offset.data.shape == (2, 16, 16)
        assert out.size.data.shape == (2, 16, 16)
        for t in (out.score, out.size):
            assert t.data.min() > 0 and t.data.max() < 1
        assert out.offset.data.min() > 0
        assert out.offset.data.max() < 1 / 16

    def test_multi_segment_rejected(self):
        ps, head = self.make()
        rng = np.random.default_rng(4)
        z = TokenMap(tensor(rng.normal(size=(4, 16))), [(2, 2)], ["template"])
        x = search_map(rng, grid=4)
        with pytest.raises(ContractError):
            head(concat_maps([z, x]))

    def test_translation_equivariance_interior(self):
        ps, head = self.make()
        ps.cast_(F64)
        rng = np.random.default_rng(5)
        toks = rng.normal(size=(16 * 16, 16))
        base = TokenMap(Tensor(toks), [(16, 16)], ["search"])
        img = toks.reshape(16, 16, 16)
        rolled = np.roll(img, 1, axis=1).reshape(256, 16)
        shifted = TokenMap(Tensor(rolled), [(16, 16)], ["search"])
        s0 = head(base).score.data
        s1 = head(shifted).score.data
        # zero padding alters boundary cells, and those leak into the
        # interior through the global group-norm statistics; the interior
        # match is therefore close but not exact
        np.testing.assert_allclose(s1[4:12, 4:12],
                                   np.roll(s0, 1, axis=1)[4:12, 4:12],
                                   atol=5e-3)
        assert np.abs(s1[4:12, 4:12]
                      - np.roll(s0, 1, axis=1)[4:12, 4:12]).max() \
            < np.abs(s1[:, 0] - np.roll(s0, 1, axis=1)[:, 0]).max()

    def test_gradient_flows_to_features(self):
        ps, head = self.make(c=8, hidden=8)
        ps.cast_(F64)
        toks = Tensor(np.random.default_rng(6).normal(size=(16, 8)),
                      requires_grad=True)
        tm = TokenMap(toks, [(4, 4)], ["search"])
        out = head(tm)
        ad.backward(ad.sum_(out.score * out.score))
        assert toks.grad is not None and np.abs(toks.grad).max() > 0


class TestMixMlpHead:
    def make(self, c=16, tokens=16, seed=0):
        ps = ParamStore()
        head = MixMlpHead(ps, "head", np.random.default_rng(seed), c, tokens)
        return ps, head

    def test_drops_template_tokens(self):
        ps, head = self.make()
        ps.cast_(F64)
        rng = np.random.default_rng(7)
        x = search_map(rng, grid=4, dtype=F64)
        z = TokenMap(tensor(rng.normal(size=(4, 16)), dtype=F64), [(2, 2)],
                     ["template"])
        out_joint = head(concat_maps([z, x]))
        out_solo = head(x)
        np.testing.assert_array_equal(out_joint.score.data, out_solo.score.data)

    def test_permutation_changes_output(self):
        ps, head = self.make()
        ps.cast_(F64)
        for _, p in ps.items():
            p.data *= 25.0  # lift activations clear of float rounding
        rng = np.random.default_rng(8)
        x = search_map(rng, grid=4, dtype=F64)
        perm = np.random.default_rng(9).permutation(16)
        xp = TokenMap(tensor(x.tokens.data[perm]), [(4, 4)], ["search"])
        s0, s1 = head(x).score.data.ravel(), head(xp).score.data.ravel()
        # spatial mixing is position-dependent: not a permutation of s0
        assert np.abs(np.sort(s0) - np.sort(s1)).max() > 1e-6

    def test_against_loop_oracle(self):
        ps, head = self.make(c=8, tokens=9, seed=1)
        ps.cast_(F64)
        rng = np.random.default_rng(10)
        toks = rng.normal(size=(9, 8))
        tm = TokenMap(Tensor(toks.copy()), [(3, 3)], ["search"])
        got = head(tm).score.data.ravel()

        t = toks.copy()
        for cm_w, cm_b, sm_w, sm_b in head._mix:
            nxt = np.zeros_like(t)
            for li in range(9):  # channel mix, one token at a time
                nxt[li] = np.maximum(t[li] @ cm_w.data + cm_b.data, 0.0)
            t2 = np.zeros_like(nxt)
            for ci in range(8):  # spatial mix, one channel at a time
                t2[:, ci] = np.maximum(nxt[:, ci] @ sm_w.data + sm_b.data, 0.0)
            t = t2
        pw, pb = head._proj["score"]
        expect = 1.0 / (1.0 + np.exp(-(t @ pw.data + pb.data))).ravel()
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_token_count_mismatch_rejected(self):
        ps, head = self.make(tokens=16)
        with pytest.raises(ContractError):
            head(search_map(np.random.default_rng(11), grid=3))


class TestDecodeBox:
    def make_out(self, grid=16):
        score = np.full((grid, grid), 0.1, dtype=np.float32)
        offset = np.zeros((2, grid, grid), dtype=np.float32)
        size = np.full((2, grid, grid), 0.25, dtype=np.float32)
        return score, offset, size

    def test_one_hot_read_off(self):
        score, offset, size = self.make_out()
        score[8, 8] = 0.9
        out = HeadOutput(Tensor(score), Tensor(offset), Tensor(size))
        box, conf, cell = decode_box(out)
        assert cell == (8, 8)
        assert conf == pytest.approx(0.9)
        assert box == pytest.approx((0.5, 0.5, 0.25, 0.25))

    def test_uniform_ties_to_origin(self):
        score, offset, size = self.make_out()
        out = HeadOutput(Tensor(score), Tensor(offset), Tensor(size))
        _, _, cell = decode_box(out)
        assert cell == (0, 0)

    def test_additive_offset(self):
        score, offset, size = self.make_out()
        score[8, 8] = 1.0
        offset[0, 8, 8] = 0.03125
        out = HeadOutput(Tensor(score), Tensor(offset), Tensor(size))
        box, _, _ = decode_box(out)
        assert box[0] == pytest.approx(0.53125)
        assert box[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_encode_decode_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        grid = 16
        gt = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
              rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4))
        i, j = int(gt[1] * grid), int(gt[0] * grid)
        score, offset, size = self.make_out()
        score[i, j] = 1.0
        offset[0, i, j] = gt[0] - j / grid
        offset[1, i, j] = gt[1] - i / grid
        size[0, i, j], size[1, i, j] = gt[2], gt[3]
        out = HeadOutput(Tensor(score.astype(F64)), Tensor(offset.astype(F64)),
                         Tensor(size.astype(F64)))
        box, _, cell = decode_box(out)
        assert cell == (i, j)
        np.testing.assert_allclose(box, gt, atol=1e-6)
