import numpy as np
import pytest

from sbt_lab import autodiff as ad
from sbt_lab.autodiff import ParamStore, Tensor, tensor
from sbt_lab.errors import ConfigError, ContractError, DimensionError
from sbt_lab.layers import (
    Attention, FrmLayer, LocalLayer, Mlp, PatchEmbed, PatchMerge,
    RelBiasTable, TokenMap, UrmLayer, ca_dynamic_conv_oracle, concat_maps,
    segment_mask,
)

F64 = np.float64


def make_map(rng, l, c, tag="search", grid=None, dtype=F64):
    if grid is None:
        grid = (1, l)
    t = tensor(rng.normal(size=(l, c)), dtype=dtype)
    return TokenMap(t, [grid], [tag])


def cast64(store):
    store.cast_(F64)
    return store


class TestTokenMap:
    def test_one_image_map_is_its_own_image(self):
        tm = make_map(np.random.default_rng(30), 6, 4, grid=(2, 3))
        [only] = tm.split()
        # the map itself, so no index or concat node is recorded
        assert only is tm
        assert tm.segment("search") is tm
        assert concat_maps([tm]) is tm
        with pytest.raises(ContractError):
            tm.segment("template")

    def test_cond_pe_mlp_convolves_each_image_alone(self):
        ps, rng = ParamStore(), np.random.default_rng(31)
        mlp = Mlp(ps, "mlp", rng, 6, 12, cond_pe=True)
        cast64(ps)
        maps = [make_map(rng, h * w, 6, tag=tag, grid=(h, w))
                for tag, (h, w) in (("template", (4, 4)),
                                    ("dyn_template", (4, 4)),
                                    ("search", (8, 8)))]
        alone = np.concatenate([mlp(m).data for m in maps])
        np.testing.assert_allclose(mlp(concat_maps(maps)).data, alone,
                                   rtol=0, atol=1e-12)


class TestPatchEmbed:
    @pytest.mark.parametrize("side,expect", [(128, 64), (256, 256)])
    def test_stride16_token_counts(self, side, expect):
        ps, rng = ParamStore(), np.random.default_rng(0)
        pe = PatchEmbed(ps, "pe", rng, 3, 32, kernel=16, stride=16)
        tm = pe(tensor(np.zeros((3, side, side))), "search")
        assert tm.length == expect

    def test_single_patch_equals_flat_projection(self):
        ps, rng = ParamStore(), np.random.default_rng(1)
        pe = PatchEmbed(ps, "pe", rng, 3, 8, kernel=16, stride=16)
        cast64(ps)
        img = np.random.default_rng(2).normal(size=(3, 16, 16))
        tm = pe(tensor(img, dtype=F64), "template")
        expect = (pe.w.data.reshape(8, -1) @ img.reshape(-1)) + pe.b.data
        np.testing.assert_allclose(tm.tokens.data[0], expect, atol=1e-12)
        assert tm.length == 1

    def test_indivisible_rejected(self):
        ps, rng = ParamStore(), np.random.default_rng(0)
        pe = PatchEmbed(ps, "pe", rng, 3, 8, kernel=16, stride=16)
        with pytest.raises(DimensionError):
            pe(tensor(np.zeros((3, 100, 100))), "search")


class TestPatchMerge:
    @pytest.mark.parametrize("grid,cin,cout", [(32, 128, 256), (16, 256, 512)])
    def test_grid_halving(self, grid, cin, cout):
        ps, rng = ParamStore(), np.random.default_rng(0)
        pm = PatchMerge(ps, "pm", rng, cin, cout)
        tm = make_map(rng, grid * grid, cin, grid=(grid, grid), dtype=np.float32)
        out = pm(tm)
        assert out.grid == (grid // 2, grid // 2)
        assert out.channels == cout

    def test_single_group_concat_order(self):
        ps, rng = ParamStore(), np.random.default_rng(3)
        pm = PatchMerge(ps, "pm", rng, 2, 8)
        pm.w.data = np.eye(8, dtype=np.float32)
        pm.b.data[:] = 0
        toks = np.arange(8, dtype=np.float32).reshape(4, 2)
        tm = TokenMap(tensor(toks), [(2, 2)], ["search"])
        out = pm(tm)
        # 2x2 group concatenated row-major: tokens 0,1,2,3
        np.testing.assert_allclose(out.tokens.data[0], np.arange(8))

    def test_odd_grid_rejected(self):
        ps, rng = ParamStore(), np.random.default_rng(0)
        pm = PatchMerge(ps, "pm", rng, 4, 8)
        with pytest.raises(DimensionError):
            pm(make_map(rng, 9, 4, grid=(3, 3)))


def identity_attention(ps, rng, c, heads=1):
    a = Attention(ps, "attn", rng, c, heads)
    for w in (a.wq, a.wk, a.wv, a.wo):
        w.data = np.eye(c, dtype=np.float32)
    return a


class TestAttention:
    def test_singleton_returns_value(self):
        ps, rng = ParamStore(), np.random.default_rng(4)
        a = identity_attention(ps, rng, 6, heads=2)
        cast64(ps)
        q = make_map(rng, 3, 6)
        kv = make_map(rng, 1, 6, tag="template")
        out = a(q, kv)
        for row in out.data:
            np.testing.assert_allclose(row, kv.tokens.data[0], atol=1e-12)

    def test_duplicate_kv_tokens_average(self):
        ps, rng = ParamStore(), np.random.default_rng(5)
        a = Attention(ps, "attn", rng, 8, heads=2)
        cast64(ps)
        kv1 = make_map(rng, 1, 8, tag="template")
        kv2 = TokenMap(ad.concat([kv1.tokens, kv1.tokens], axis=0), [(1, 2)],
                       ["template"])
        q = make_map(rng, 4, 8)
        np.testing.assert_allclose(a(q, kv1).data, a(q, kv2).data, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_naive_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ps = ParamStore()
        c, h = 8, 2
        a = Attention(ps, "attn", rng, c, heads=h)
        cast64(ps)
        q_map = make_map(rng, 6, c)
        kv_map = make_map(rng, 6, c, tag="template")
        out = a(q_map, kv_map).data

        # brute-force dense attention, one (query, head) pair at a time
        d = c // h
        q = q_map.tokens.data @ a.wq.data + a.bq.data
        k = kv_map.tokens.data @ a.wk.data + a.bk.data
        v = kv_map.tokens.data @ a.wv.data + a.bv.data
        expected = np.zeros((6, c))
        for hi in range(h):
            sl = slice(hi * d, (hi + 1) * d)
            for i in range(6):
                logits = np.array([np.dot(q[i, sl], k[j, sl]) / np.sqrt(d)
                                   for j in range(6)])
                w = np.exp(logits - logits.max())
                w /= w.sum()
                expected[i, sl] = sum(w[j] * v[j, sl] for j in range(6))
        expected = expected @ a.wo.data + a.bo.data
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            Attention(ParamStore(), "a", np.random.default_rng(0), 512, 7)

    def test_sr_ratio_one_keeps_every_kv_token(self):
        ps, rng = ParamStore(), np.random.default_rng(7)
        Attention(ps, "attn", rng, 8, heads=2, sr_ratio=1)
        assert not any(".sr_" in name for name in ps.names())
        with pytest.raises(ConfigError):
            Attention(ParamStore(), "a", rng, 8, heads=2, sr_ratio=0)

    def test_srg_reduces_kv(self):
        ps, rng = ParamStore(), np.random.default_rng(9)
        a = Attention(ps, "attn", rng, 8, heads=2, sr_ratio=2)
        cast64(ps)
        kv = make_map(rng, 16, 8, tag="template", grid=(4, 4))
        q = make_map(rng, 4, 8, grid=(2, 2))
        assert a(q, kv).data.shape == (4, 8)
        bad = make_map(rng, 9, 8, tag="template", grid=(3, 3))
        with pytest.raises(DimensionError):
            a(q, bad)

    SR_LAYOUT = (("template", (4, 4)), ("dyn_template", (4, 4)),
                 ("search", (8, 8)))

    def sr_kv(self, rng, c, dtype=F64):
        maps = [make_map(rng, h * w, c, tag=tag, grid=(h, w), dtype=dtype)
                for tag, (h, w) in self.SR_LAYOUT]
        return concat_maps(maps)

    @pytest.mark.parametrize("r", [2, 4])
    def test_sr_reduction_matches_window_loop(self, r):
        ps, rng = ParamStore(), np.random.default_rng(12)
        c = 6
        a = Attention(ps, "attn", rng, c, heads=2, sr_ratio=r)
        cast64(ps)
        a.sr_b.data[:] = rng.normal(size=c)
        kv = self.sr_kv(rng, c)
        red = a._reduce_kv(kv)
        assert red.segments == [tag for tag, _ in self.SR_LAYOUT]
        assert red.grids == [(h // r, w // r) for _, (h, w) in self.SR_LAYOUT]
        w_sr, b_sr = a.sr_w.data[:, 0], a.sr_b.data
        expect = []
        for seg in kv.split():
            h, w = seg.grid
            grid = seg.tokens.data.reshape(h, w, c)
            for y in range(h // r):
                for x in range(w // r):
                    acc = b_sr.copy()
                    for i in range(r):
                        for j in range(r):
                            acc += w_sr[:, i, j] * grid[y * r + i, x * r + j]
                    expect.append(acc)
        np.testing.assert_allclose(red.tokens.data, np.array(expect),
                                   atol=1e-12)

    def test_sr_reduction_grad_check(self):
        rng = np.random.default_rng(13)
        c, r = 4, 2
        ps = ParamStore()
        a = Attention(ps, "attn", rng, c, heads=2, sr_ratio=r)
        a.sr_b.data[:] = rng.normal(size=c)
        kv = self.sr_kv(rng, c)
        ps.add("kv", kv.tokens.data)
        weight = rng.normal(size=(sum(h * w for _, (h, w) in self.SR_LAYOUT)
                                  // (r * r), c))

        def f(p):
            red = a._reduce_kv(kv.with_tokens(p["kv"]))
            return ad.sum_(ad.sigmoid(red.tokens) * weight)

        assert ad.grad_check(f, ps) < 1e-6

    def test_permutation_equivariance(self):
        ps, rng = ParamStore(), np.random.default_rng(10)
        a = Attention(ps, "attn", rng, 8, heads=2)
        cast64(ps)
        tm = make_map(rng, 9, 8, grid=(3, 3))
        perm = np.random.default_rng(11).permutation(9)
        out = a(tm, tm).data
        tm_p = TokenMap(tensor(tm.tokens.data[perm], dtype=F64), [(3, 3)],
                        ["search"])
        out_p = a(tm_p, tm_p).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-6)


class TestFrm:
    def make_frm(self, seed, c=8, heads=2, **kw):
        ps, rng = ParamStore(), np.random.default_rng(seed)
        frm = FrmLayer(ps, "frm", rng, c, heads, **kw)
        cast64(ps)
        return ps, frm

    def test_zero_wo_reduces_to_mlp(self):
        ps, frm = self.make_frm(20)
        frm.attn.wo.data[:] = 0
        frm.attn.bo.data[:] = 0
        rng = np.random.default_rng(21)
        z = make_map(rng, 4, 8, tag="template", grid=(2, 2))
        x = make_map(rng, 4, 8, grid=(2, 2))
        z2, x2 = frm(z, x, "SA")
        expect = x.tokens.data + frm.mlp(x.with_tokens(frm.ln2(x.tokens))).data
        np.testing.assert_allclose(x2.tokens.data, expect, atol=1e-12)

    def test_search_channel_mismatch_raises(self):
        ps, frm = self.make_frm(24)
        rng = np.random.default_rng(25)
        z = make_map(rng, 4, 8, tag="template", grid=(2, 2))
        x = make_map(rng, 4, 6, grid=(2, 2))
        with pytest.raises(DimensionError):
            frm.attention_update(z, x)

    def test_ca_equals_sa_on_identical_maps(self):
        ps, frm = self.make_frm(22)
        rng = np.random.default_rng(23)
        toks = rng.normal(size=(4, 8))
        z = TokenMap(tensor(toks, dtype=F64), [(2, 2)], ["template"])
        x = TokenMap(tensor(toks.copy(), dtype=F64), [(2, 2)], ["search"])
        z_sa, x_sa = frm(z, x, "SA")
        z_ca, x_ca = frm(z, x, "CA")
        np.testing.assert_allclose(x_sa.tokens.data, x_ca.tokens.data, atol=1e-9)
        np.testing.assert_allclose(z_sa.tokens.data, z_ca.tokens.data, atol=1e-9)

    @pytest.mark.parametrize("seed", range(50))
    def test_ca_matches_dynamic_conv_oracle(self, seed):
        ps, frm = self.make_frm(seed, c=8, heads=2)
        rng = np.random.default_rng(1000 + seed)
        z = make_map(rng, 4, 8, tag="template", grid=(2, 2))
        x = make_map(rng, 8, 8, grid=(2, 4))
        _, x_attn = frm.attention_update(z, x)
        oracle = ca_dynamic_conv_oracle(z, x, frm)
        np.testing.assert_allclose(x_attn.data, oracle, atol=1e-6)

    def test_single_template_token_rank_one(self):
        # one z token: attention weights collapse to 1, output = v (closed form)
        ps, frm = self.make_frm(30)
        rng = np.random.default_rng(31)
        z = make_map(rng, 1, 8, tag="template", grid=(1, 1))
        x = make_map(rng, 4, 8, grid=(2, 2))
        _, x_attn = frm.attention_update(z, x)
        zn = frm.ln1(z.tokens).data
        v = zn @ frm.attn.wv.data + frm.attn.bv.data
        closed = x.tokens.data + np.tile(v, (4, 1)) @ frm.attn.wo.data + frm.attn.bo.data
        np.testing.assert_allclose(x_attn.data, closed, atol=1e-9)

    def test_single_dynamic_conv_differs(self):
        # without the softmax + second filter, a lone correlation differs
        ps, frm = self.make_frm(32)
        rng = np.random.default_rng(33)
        z = make_map(rng, 4, 8, tag="template", grid=(2, 2))
        x = make_map(rng, 8, 8, grid=(2, 4))
        _, x_attn = frm.attention_update(z, x)
        a = frm.attn
        zn, xn = frm.ln1(z.tokens).data, frm.ln1(x.tokens).data
        q = xn @ a.wq.data + a.bq.data
        k = zn @ a.wk.data + a.bk.data
        v = zn @ a.wv.data + a.bv.data
        single = (q @ k.T) * a.scale @ v @ a.wo.data + a.bo.data + x.tokens.data
        assert np.abs(single - x_attn.data).max() > 1e-4


class TestUrm:
    def setup_case(self, seed, c=8, heads=2):
        ps, rng = ParamStore(), np.random.default_rng(seed)
        urm = UrmLayer(ps, "urm", rng, c, heads)
        cast64(ps)
        rng2 = np.random.default_rng(seed + 500)
        z = make_map(rng2, 4, c, tag="template", grid=(2, 2))
        x = make_map(rng2, 8, c, grid=(2, 4))
        return urm, z, x, concat_maps([z, x])

    @pytest.mark.parametrize("seed", range(10))
    def test_same_segment_mask_equals_sa(self, seed):
        urm, z, x, zx = self.setup_case(seed)
        masked = urm.attention_update(zx, segment_mask(zx, "same")).data
        a = urm.attn
        zn = zx.with_tokens(urm.ln1(zx.tokens)).split()
        z_term = a(zn[0], zn[0]).data + z.tokens.data
        x_term = a(zn[1], zn[1]).data + x.tokens.data
        np.testing.assert_allclose(masked, np.vstack([z_term, x_term]), atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_cross_segment_mask_equals_ca(self, seed):
        urm, z, x, zx = self.setup_case(seed)
        masked = urm.attention_update(zx, segment_mask(zx, "cross")).data
        a = urm.attn
        zn = zx.with_tokens(urm.ln1(zx.tokens)).split()
        z_term = a(zn[0], zn[1]).data + z.tokens.data
        x_term = a(zn[1], zn[0]).data + x.tokens.data
        np.testing.assert_allclose(masked, np.vstack([z_term, x_term]), atol=1e-6)

    @pytest.mark.parametrize("cond_pe", [False, True])
    def test_frm_sa_is_urm_on_each_map(self, cond_pe):
        # one pre-norm block: FRM's SA step is URM's joint step on one map
        stores, blocks = [], []
        for cls in (FrmLayer, UrmLayer):
            stores.append(ParamStore())
            blocks.append(cls(stores[-1], "blk", np.random.default_rng(60),
                              8, 2, cond_pe=cond_pe))
        (frm_ps, urm_ps), (frm, urm) = stores, blocks
        assert frm_ps.names() == urm_ps.names()
        for (_, p), (_, q) in zip(frm_ps.items(), urm_ps.items()):
            assert p.data.tobytes() == q.data.tobytes()
        rng = np.random.default_rng(61)
        z = make_map(rng, 4, 8, tag="template", grid=(2, 2), dtype=np.float32)
        x = make_map(rng, 16, 8, grid=(4, 4), dtype=np.float32)
        for before, after in zip((z, x), frm(z, x, "SA")):
            got = urm(before)
            assert got.layout() == after.layout()
            assert got.tokens.data.tobytes() == after.tokens.data.tobytes()

    def test_attention_flops_formula(self):
        ps, rng = ParamStore(), np.random.default_rng(40)
        urm = UrmLayer(ps, "urm", rng, 512, 8)
        assert urm.attn.flops(320, 320) == 440_401_920

    def test_permutation_equivariance(self):
        urm, z, x, zx = self.setup_case(77)
        out = urm(zx).tokens.data
        perm = np.random.default_rng(78).permutation(zx.length)
        permuted = zx.with_tokens(tensor(zx.tokens.data[perm], dtype=F64))
        # permutation within the concatenated map (segments untouched in size)
        out_p = urm(permuted).tokens.data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-6)

    def test_missing_segments_rejected(self):
        with pytest.raises((ContractError, DimensionError)):
            TokenMap(tensor(np.zeros((4, 8))), [], [])


class TestRelBias:
    def test_bias_is_pure_function_of_offsets(self):
        ps, rng = ParamStore(), np.random.default_rng(50)
        table = RelBiasTable(ps, "rb", rng, max_side=4, heads=2)
        layout = (("search", (3, 3)),)
        b = table.bias(layout).data  # (H, 9, 9)
        coords = [(y, x) for y in range(3) for x in range(3)]
        for i, (qy, qx) in enumerate(coords):
            for j, (ky, kx) in enumerate(coords):
                for i2, (qy2, qx2) in enumerate(coords):
                    for j2, (ky2, kx2) in enumerate(coords):
                        if (qy - ky, qx - kx) == (qy2 - ky2, qx2 - kx2):
                            assert (b[:, i, j] == b[:, i2, j2]).all()

    def test_pair_types_distinct(self):
        ps, rng = ParamStore(), np.random.default_rng(51)
        table = RelBiasTable(ps, "rb", rng, max_side=4, heads=1)
        layout = (("template", (2, 2)), ("search", (2, 2)))
        b = table.bias(layout).data
        # same zero offset, different pair type -> different entries (generic)
        assert b[0, 0, 0] != b[0, 0, 4] or b[0, 4, 4] != b[0, 4, 0]

    def test_dyn_template_shares_template_class(self):
        ps, rng = ParamStore(), np.random.default_rng(52)
        table = RelBiasTable(ps, "rb", rng, max_side=4, heads=1)
        la = (("template", (2, 2)),)
        lb = (("dyn_template", (2, 2)),)
        np.testing.assert_array_equal(table.bias(la).data,
                                      table.bias(lb).data)


    def test_scatter_matrix_built_only_for_a_backward(self):
        ps, rng = ParamStore(), np.random.default_rng(53)
        table = RelBiasTable(ps, "rb", rng, max_side=4, heads=2)
        layout = (("template", (2, 2)), ("search", (3, 3)))
        with ad.no_grad():
            table.bias(layout)
        ((idx, scatter_cache),) = table._idx_cache.values()
        assert scatter_cache == {}
        for _ in range(2):
            w = rng.normal(size=(2, 13, 13)).astype(np.float32)
            table.table.grad = None
            ad.backward(ad.sum_(table.bias(layout) * Tensor(w)))
            expect = np.zeros_like(table.table.data)
            np.add.at(expect, idx.reshape(-1),
                      w.transpose(1, 2, 0).reshape(-1, 2))
            np.testing.assert_array_equal(table.table.grad, expect)
            assert len(scatter_cache) == 1


class TestLocalLayer:
    def test_zero_weights_identity(self):
        ps, rng = ParamStore(), np.random.default_rng(60)
        ll = LocalLayer(ps, "ll", rng, 8, mlp_ratio=3.0)
        for t in (ll.dw_w, ll.dw_b, ll.mlp1.w1, ll.mlp1.w2, ll.mlp2.w1,
                  ll.mlp2.w2):
            t.data[:] = 0
        tm = make_map(np.random.default_rng(61), 16, 8, grid=(4, 4),
                      dtype=np.float32)
        out = ll(tm)
        np.testing.assert_allclose(out.tokens.data, tm.tokens.data)

    def test_constant_field_stays_constant(self):
        ps, rng = ParamStore(), np.random.default_rng(62)
        ll = LocalLayer(ps, "ll", rng, 8)
        cast64(ps)
        toks = np.tile(np.random.default_rng(63).normal(size=(1, 8)), (16, 1))
        tm = TokenMap(tensor(toks, dtype=F64), [(4, 4)], ["search"])
        out = ll(tm).tokens.data
        np.testing.assert_allclose(out, np.tile(out[:1], (16, 1)), atol=1e-9)

    def test_mlp_ratio_config(self):
        ps, rng = ParamStore(), np.random.default_rng(64)
        ll = LocalLayer(ps, "ll", rng, 128, mlp_ratio=3.0)
        assert ll.mlp1.hidden == 384

    def test_concatenated_map_rejected(self):
        ps, rng = ParamStore(), np.random.default_rng(65)
        ll = LocalLayer(ps, "ll", rng, 8)
        z = make_map(rng, 4, 8, tag="template", grid=(2, 2))
        x = make_map(rng, 4, 8, grid=(2, 2))
        with pytest.raises(ContractError):
            ll(concat_maps([z, x]))


class TestLayerGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_frm_ca_grad_check(self, seed):
        ps, rng = ParamStore(), np.random.default_rng(seed)
        frm = FrmLayer(ps, "frm", rng, 4, 2, mlp_ratio=2.0)
        rng2 = np.random.default_rng(seed + 100)
        zd = rng2.normal(size=(4, 4))
        xd = rng2.normal(size=(4, 4))

        def f(p):
            z = TokenMap(Tensor(zd.astype(p.dtype)), [(2, 2)], ["template"])
            x = TokenMap(Tensor(xd.astype(p.dtype)), [(2, 2)], ["search"])
            z2, x2 = frm(z, x, "CA")
            return ad.sum_(x2.tokens * x2.tokens) + ad.sum_(z2.tokens)

        assert ad.grad_check(f, ps, max_coords_per_param=8,
                             rng=np.random.default_rng(0)) < 1e-5

    def test_urm_with_bias_grad_check(self):
        ps, rng = ParamStore(), np.random.default_rng(9)
        urm = UrmLayer(ps, "urm", rng, 4, 2, mlp_ratio=2.0)
        urm.rel_bias = RelBiasTable(ps, "rb", rng, max_side=2, heads=2)
        rng2 = np.random.default_rng(10)
        zd, xd = rng2.normal(size=(4, 4)), rng2.normal(size=(4, 4))

        def f(p):
            z = TokenMap(Tensor(zd.astype(p.dtype)), [(2, 2)], ["template"])
            x = TokenMap(Tensor(xd.astype(p.dtype)), [(2, 2)], ["search"])
            zx = concat_maps([z, x])
            out = urm(zx)
            return ad.sum_(out.tokens * out.tokens)

        assert ad.grad_check(f, ps, max_coords_per_param=8,
                             rng=np.random.default_rng(1)) < 1e-5

    def test_local_layer_grad_check(self):
        ps, rng = ParamStore(), np.random.default_rng(11)
        ll = LocalLayer(ps, "ll", rng, 4, mlp_ratio=2.0)
        xd = np.random.default_rng(12).normal(size=(9, 4))

        def f(p):
            tm = TokenMap(Tensor(xd.astype(p.dtype)), [(3, 3)], ["search"])
            out = ll(tm)
            return ad.sum_(out.tokens * out.tokens)

        assert ad.grad_check(f, ps, max_coords_per_param=8,
                             rng=np.random.default_rng(2)) < 1e-5
