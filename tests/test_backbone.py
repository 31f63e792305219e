import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sbt_lab.autodiff as ad
from sbt_lab import backbone as bb
from sbt_lab import harness as hn
from sbt_lab.autodiff import tensor
from sbt_lab.errors import ConfigError, DimensionError, FormatError, SbtError
from sbt_lab.layers import concat_maps


def tiny_urm_config(search=64, template=32, pe="rel"):
    return bb.VariantConfig(
        name="tiny",
        stages=[
            bb.StageConfig("mlp-local", 8, 1, mlp_ratio=2.0),
            bb.StageConfig("mlp-local", 8, 1, mlp_ratio=2.0),
            bb.StageConfig("vg", 16, 2, heads=2, mlp_ratio=2.0),
        ],
        embed_kernel=4, embed_stride=4, inter_stage="merge", pe=pe,
        pattern="urm", head="mixmlp", template_size=template,
        search_size=search,
    )


def tiny_plain_config(pe="none"):
    return bb.VariantConfig(
        name="tiny-plain",
        stages=[bb.StageConfig("vg", 8, 2, heads=2, mlp_ratio=2.0)],
        embed_kernel=16, embed_stride=16, pe=pe, pattern="urm",
        head="mixmlp", template_size=32, search_size=64,
    )


def tiny_interleave_config():
    return bb.VariantConfig(
        name="tiny-inter",
        stages=[
            bb.StageConfig("srg", 8, 1, heads=2, mlp_ratio=2.0, sr_ratio=2),
            bb.StageConfig("srg", 8, 1, heads=2, mlp_ratio=2.0, sr_ratio=2),
            bb.StageConfig("srg", 16, 2, heads=2, mlp_ratio=2.0, sr_ratio=2),
        ],
        embed_kernel=4, embed_stride=4, inter_stage="conv", pe="cond",
        pattern="interleave", head="conv", template_size=32, search_size=64,
    )


def tiny_sr_embed_config():
    # the SR/cond-PE interleave layout behind hi-sbt's overlapping
    # kernel-7 stride-4 padding-3 embed
    cfg = tiny_interleave_config()
    cfg.name, cfg.embed_kernel, cfg.embed_padding = "tiny-sr-embed", 7, 3
    return cfg


def images(seed, template=32, search=64):
    rng = np.random.default_rng(seed)
    return (tensor(rng.normal(size=(3, template, template))),
            tensor(rng.normal(size=(3, search, search))))


class TestBuildVariant:
    def test_supersbt_light_stage3(self):
        cfg = bb.named_config("supersbt-light")
        st = cfg.stages[-1]
        assert (st.operator, st.channels, st.blocks, st.heads) == ("vg", 512, 6, 8)

    def test_plain_sbt_settings(self):
        cfg = bb.named_config("plain-sbt")
        assert cfg.embed_kernel == 16 and cfg.embed_stride == 16
        assert cfg.stages[0].blocks == 12 and cfg.stages[0].channels == 768

    def test_hi_sbt_settings(self):
        cfg = bb.named_config("hi-sbt")
        assert [s.blocks for s in cfg.stages] == [3, 4, 10]
        assert [s.channels for s in cfg.stages] == [128, 256, 320]
        assert [s.sr_ratio for s in cfg.stages] == [8, 4, 2]

    def test_indivisible_heads_rejected(self):
        cfg = tiny_plain_config()
        cfg.stages[0].heads = 7
        with pytest.raises(ConfigError):
            bb.build_variant(cfg)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            bb.build_variant("sbt-jumbo")

    def test_bad_total_stride_rejected(self):
        cfg = tiny_urm_config()
        cfg.embed_stride = 8
        with pytest.raises(ConfigError):
            bb.build_variant(cfg)

    def test_param_count_constant_across_seeds(self):
        cfg = tiny_urm_config()
        a = bb.count_params(bb.build_variant(cfg, seed=1))
        b = bb.count_params(bb.build_variant(cfg, seed=2))
        assert a == b

    def test_determinism(self):
        m1 = bb.build_variant(tiny_urm_config(), seed=3)
        m2 = bb.build_variant(tiny_urm_config(), seed=3)
        for (n1, p1), (n2, p2) in zip(m1.store.items(), m2.store.items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        z, x = images(0)
        with ad.no_grad():
            fx1 = m1.forward_pair(z, x)[1].tokens.data
            fx2 = m2.forward_pair(z, x)[1].tokens.data
        np.testing.assert_array_equal(fx1, fx2)

    def test_unseeded_build_draws_nothing(self):
        cfg = tiny_urm_config()
        a = bb.build_variant(cfg, seed=1)
        b = bb.build_variant(cfg, seed=2)
        z = bb.build_variant(cfg, seed=None)
        assert z.store.names() == a.store.names()
        for (name, pa), (_, pb), (_, pz) in zip(
                a.store.items(), b.store.items(), z.store.items()):
            assert pz.data.dtype == pa.data.dtype
            assert pz.data.flags.c_contiguous
            if np.array_equal(pa.data, pb.data):
                # a constant init (bias, norm gain, score prior) is kept
                np.testing.assert_array_equal(pz.data, pa.data)
            else:
                assert pz.data.shape == pa.data.shape
                assert not pz.data.any(), name

    def test_seeds_differ(self):
        m1 = bb.build_variant(tiny_urm_config(), seed=1)
        m2 = bb.build_variant(tiny_urm_config(), seed=2)
        assert np.abs(m1.embed.w.data - m2.embed.w.data).max() > 0


class TestForwardPair:
    @pytest.mark.parametrize("make_cfg", [tiny_urm_config,
                                          tiny_interleave_config],
                             ids=["local-layer", "cond-pe"])
    def test_float32_agrees_with_float64(self, make_cfg):
        # the benchmark's probe in small: float32 head maps against the same
        # weights cast to float64, on image-range inputs
        m = bb.build_variant(make_cfg(), seed=7)
        rng = np.random.default_rng(8)
        z, d = rng.uniform(0.0, 1.0, size=(2, 3, 32, 32))
        x = rng.uniform(0.0, 1.0, size=(3, 64, 64))
        with ad.no_grad():
            out32 = m.predict(tensor(z), tensor(x), tensor(d))
            m.store.cast_(np.float64)
            out64 = m.predict(tensor(z, dtype=np.float64),
                              tensor(x, dtype=np.float64),
                              tensor(d, dtype=np.float64))
        for name in ("score", "offset", "size"):
            a, b = getattr(out32, name).data, getattr(out64, name).data
            assert a.dtype == np.float32 and b.dtype == np.float64
            assert np.abs(a - b).max() <= 1e-4, name

    def test_stage3_token_counts(self):
        m = bb.build_variant(tiny_urm_config())
        z, x = images(1)
        with ad.no_grad():
            f_z, f_x = m.forward_pair(z, x)
        # 32/4/2/2 -> 2x2, 64/4/2/2 -> 4x4
        assert f_z.length == 4 and f_x.length == 16

    def test_dyn_template_concat_length(self):
        m = bb.build_variant(tiny_urm_config())
        z, x = images(2)
        with ad.no_grad():
            zt = m.encode_early(z, "template")
            xt = m.encode_early(x, "search")
            dt = m.encode_early(z, "dyn_template")
        assert concat_maps([zt, dt, xt]).length == 4 + 4 + 16
        with ad.no_grad():
            f_z, f_x = m.forward_pair(z, x, dyn_template=z)
        assert f_z.length == 4 and f_x.length == 16

    def test_size_mismatch_rejected(self):
        m = bb.build_variant(tiny_urm_config())
        z, x = images(3)
        with pytest.raises(DimensionError):
            m.forward_pair(x, x)
        with pytest.raises(DimensionError):
            m.forward_pair(z, z)

    def test_zero_update_ablation_no_cross_talk(self):
        m = bb.build_variant(tiny_urm_config())
        for blk in m.stage_blocks[-1]:
            for t in (blk.attn.wo, blk.attn.bo, blk.mlp.w2, blk.mlp.b2):
                t.data[:] = 0
        z, x1 = images(4)
        _, x2 = images(5)
        with ad.no_grad():
            # the closing norm applies either way; only the blocks are ablated
            expect = m.final_ln(m.encode_early(x1, "search").tokens).data
            fz1, fx1 = m.forward_pair(z, x1)
            fz2, _ = m.forward_pair(z, x2)
        np.testing.assert_allclose(fx1.tokens.data, expect, atol=1e-6)
        # template output independent of search content
        np.testing.assert_array_equal(fz1.tokens.data, fz2.tokens.data)

    def test_interleave_pattern_runs(self):
        m = bb.build_variant(tiny_interleave_config())
        z, x = images(6)
        # the dynamic template must differ from z: nothing marks the two
        # template segments apart, and softmax attention over a duplicated
        # key/value set returns the same output, so dyn_template=z is a no-op
        zd, _ = images(60)
        with ad.no_grad():
            f_z, f_x = m.forward_pair(z, x)
            f_zd, f_xd = m.forward_pair(z, x, dyn_template=zd)
        assert f_z.length == 4 and f_x.length == 16
        assert np.abs(f_x.tokens.data - f_xd.tokens.data).max() > 0

    def test_translation_equivariance_without_pe(self):
        m = bb.build_variant(tiny_plain_config(pe="none"))
        z, x = images(7)
        shifted = tensor(np.roll(x.data, 16, axis=2))  # one patch column
        with ad.no_grad():
            f_z, f_x = m.forward_pair(z, x)
            f_zs, f_xs = m.forward_pair(z, shifted)
        g = 4
        perm = (np.arange(g)[:, None] * g + (np.arange(g) - 1) % g).ravel()
        np.testing.assert_allclose(f_xs.tokens.data, f_x.tokens.data[perm],
                                   rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(f_zs.tokens.data, f_z.tokens.data,
                                   rtol=1e-4, atol=1e-5)

    def test_abs_pe_breaks_translation_equivariance(self):
        m = bb.build_variant(tiny_plain_config(pe="abs"))
        z, x = images(8)
        shifted = tensor(np.roll(x.data, 16, axis=2))
        with ad.no_grad():
            f_x = m.forward_pair(z, x)[1].tokens.data
            f_xs = m.forward_pair(z, shifted)[1].tokens.data
        g = 4
        perm = (np.arange(g)[:, None] * g + (np.arange(g) - 1) % g).ravel()
        assert np.abs(f_xs - f_x[perm]).max() > 1e-3


class TestCostCounting:
    @pytest.mark.parametrize("name,target_m", [
        ("plain-sbt", 86.7), ("hi-sbt", 21.2), ("supersbt-light", 21.5),
        ("supersbt-small", 34.3), ("supersbt-base", 65.5),
    ])
    def test_param_targets_within_10pct(self, name, target_m):
        n = bb.count_params(bb.build_variant(name))
        assert abs(n / (target_m * 1e6) - 1.0) <= 0.10

    def test_single_linear_closed_form(self):
        store = ad.ParamStore()
        rng = np.random.default_rng(0)
        c = 37
        store.add("w", ad.trunc_normal(rng, (c, c)))
        store.add("b", np.zeros(c, dtype=np.float32))
        assert store.num_values() == c * c + c

    def test_breakdown_sums_to_total(self):
        m = bb.build_variant(tiny_urm_config())
        total, entries = bb.count_flops(m)
        assert total == sum(f for _, f in entries)
        assert all(f > 0 for _, f in entries)

    def test_urm_attention_closed_form(self):
        m = bb.build_variant("supersbt-light")
        blk = m.stage_blocks[-1][0]
        assert blk.attn.flops(320, 320) == 440_401_920

    def test_srg_quarters_kv_term(self):
        m = bb.build_variant(tiny_interleave_config())
        a = m.stage_blocks[-1][0].attn
        c, l = a.channels, 256
        lred = l // 4
        expect = 2 * c * c * l + 2 * c * c * lred + 2 * c * l * lred \
            + 2 * lred * c * 4
        assert a.flops(l, l) == expect


# edge values per key; models stay small (channels <= 16, blocks <= 2,
# sides <= 64) so that no draw allocates a large model
TOP_EDGES = {
    "embed_kernel": (-1, 0, 1, 16), "embed_stride": (-4, 0, 4, 8, 16),
    "embed_padding": (-1, 0, 3), "inter_stage": bb.INTER_STAGE,
    "pe": bb.PE_MODES, "pattern": bb.PATTERNS, "head": bb.HEADS,
    "template_size": (-16, 0, 8, 16, 17, 32),
    "search_size": (-16, 0, 16, 17, 32, 64),
}
STAGE_EDGES = {
    "operator": bb.STAGE_OPERATORS, "channels": (-1, 0, 1, 3, 16),
    "blocks": (-1, 0, 1, 2), "heads": (-1, 0, 1, 3),
    "mlp_ratio": ("nan", "inf", "-inf", "-1", "0", "1e-9", "0.5"),
    "sr_ratio": (-1, 0, 1, 2, 4),
}


@st.composite
def small_config_texts(draw):
    """A valid small config with up to three keys set to edge values."""
    pick = lambda vals: draw(st.sampled_from(vals))
    n = draw(st.integers(1, 3))
    pattern = pick(bb.PATTERNS)
    top = {
        "embed_kernel": 16 // 2 ** (n - 1), "embed_stride": 16 // 2 ** (n - 1),
        "inter_stage": pick(bb.INTER_STAGE),
        "pe": pick(("abs", "rel", "cond", "none") if pattern == "urm"
                   else ("abs", "cond", "none")),
        "pattern": pattern, "head": pick(bb.HEADS),
        "template_size": pick((16, 32)), "search_size": pick((32, 64)),
    }
    stages = []
    for i in range(n):
        if i == n - 1:
            op = "vg" if pattern == "urm" else pick(("vg", "srg"))
        else:
            op = pick(bb.STAGE_OPERATORS)
        stages.append({"operator": op, "channels": pick((4, 8, 16)),
                       "blocks": pick((1, 2)), "heads": pick((1, 2)),
                       "mlp_ratio": pick(("0.5", "2")),
                       "sr_ratio": pick((1, 2)) if op == "srg" else 1})
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.integers(0, n))
        target, edges = (top, TOP_EDGES) if where == n else \
            (stages[where], STAGE_EDGES)
        key = pick(sorted(edges))
        target[key] = pick(edges[key])
    lines = [f"{k} = {v}" for k, v in top.items()]
    for i, stage in enumerate(stages):
        lines.append(f"[stage{i + 1}]")
        lines += [f"{k} = {v}" for k, v in stage.items()]
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    GOOD = """
name = demo
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
mlp_ratio = 2.0

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

    # GOOD with the interleave layout and a stage-1 srg of ratio r
    SR_OLD = GOOD[GOOD.index("inter_stage"):GOOD.index("channels")]
    SR_NEW = (SR_OLD.replace("merge", "conv").replace("rel", "cond")
              .replace("urm", "interleave")
              .replace("mlp-local", "srg\nheads = 2\nsr_ratio = {r}"))

    def test_round_trip(self):
        cfg = bb.parse_variant_config(self.GOOD)
        assert cfg.name == "demo"
        assert len(cfg.stages) == 3
        assert cfg.stages[2].heads == 2
        m = bb.build_variant(cfg)
        assert bb.count_params(m) > 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            bb.parse_variant_config(self.GOOD + "\nwindow_size = 7\n")

    def test_unknown_stage_key_rejected(self):
        with pytest.raises(ConfigError):
            bb.parse_variant_config(self.GOOD + "\n[stage3]\ndropout = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            bb.parse_variant_config("[decoder]\nchannels = 4\n")

    def test_stage_gap_rejected(self):
        text = self.GOOD.replace("[stage3]", "[stage4]")
        with pytest.raises(ConfigError):
            bb.parse_variant_config(text)

    def test_missing_required_rejected(self):
        text = self.GOOD.replace("embed_stride = 4", "")
        with pytest.raises(ConfigError):
            bb.parse_variant_config(text)

    def test_comment_and_blank_lines_ok(self):
        cfg = bb.parse_variant_config("# header\n\n" + self.GOOD)
        assert cfg.search_size == 64

    @pytest.mark.parametrize("old,new", [
        # rel PE without joint attention would be silently ignored
        ("pattern = urm", "pattern = interleave"),
        # SR outside an srg stage would run unreduced
        ("heads = 2", "heads = 2\nsr_ratio = 2"),
        ("heads = 2", "heads = 0"),
        ("mlp_ratio = 2.0", "mlp_ratio = nan"),
        ("mlp_ratio = 2.0", "mlp_ratio = inf"),
        ("mlp_ratio = 2.0", "mlp_ratio = 0"),
        ("mlp_ratio = 2.0", "mlp_ratio = -1"),
        ("search_size = 64", "search_size = 0"),
        ("template_size = 32", "template_size = 0"),
        ("inter_stage = merge", "inter_stage = merge\nembed_padding = -1"),
        # a 13x13 embed grid, not 64 / 4: every forward would fail
        ("embed_kernel = 4", "embed_kernel = 16"),
        # oversized: the build would fail allocating, or never finish
        ("mlp_ratio = 2.0", "mlp_ratio = 1e30"),
        ("channels = 16", "channels = 2000000000"),
        ("channels = 16", f"channels = {bb.MAX_CHANNELS + 16}"),
        ("mlp_ratio = 2.0", f"mlp_ratio = {bb.MAX_MLP_WIDTH / 8 + 1}"),
        ("blocks = 2", f"blocks = {bb.MAX_BLOCKS + 1}"),
        ("search_size = 64", f"search_size = {bb.MAX_INPUT_SIZE + 16}"),
        ("template_size = 32", f"template_size = {bb.MAX_INPUT_SIZE + 16}"),
        # a grid of the right side, from a 2e9-wide kernel
        ("embed_kernel = 4",
         "embed_kernel = 2000000004\nembed_padding = 1000000000"),
        # r = 3 cannot pool the 8x8 stage-1 template grid: the FLOP count
        # would floor it and the first forward would fail
        (SR_OLD, SR_NEW.format(r=3)),
    ])
    def test_ignored_or_crashing_values_rejected(self, old, new):
        with pytest.raises(ConfigError):
            bb.parse_variant_config(self.GOOD.replace(old, new))

    def test_sr_ratio_must_divide_each_grid(self):
        cfg = bb.parse_variant_config(
            self.GOOD.replace(self.SR_OLD, self.SR_NEW.format(r=2)))
        assert (cfg.pattern, cfg.stages[0].sr_ratio) == ("interleave", 2)
        with pytest.raises(ConfigError, match="^stage 1: sr_ratio 3 does not "
                           "divide its 8x8 template grid$"):
            bb.parse_variant_config(
                self.GOOD.replace(self.SR_OLD, self.SR_NEW.format(r=3)))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(small_config_texts())
    def test_edge_values_raise_only_sbt_errors(self, text):
        try:
            bb.build_variant(bb.parse_variant_config(text))
        except SbtError:
            pass


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        m = bb.build_variant(tiny_urm_config(), seed=5)
        path = tmp_path / "m.sbtc"
        bb.save_checkpoint(m, path)
        m2 = bb.build_variant(tiny_urm_config(), seed=6)
        bb.load_checkpoint(path, m2)
        for (n1, p1), (n2, p2) in zip(m.store.items(), m2.store.items()):
            np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.parametrize("name", ["supersbt-light", "hi-sbt"])
    def test_unseeded_build_filled_equals_seeded_build(self, name, tmp_path):
        seeded = bb.build_variant(name, seed=42)
        path = tmp_path / "m.sbtc"
        bb.save_checkpoint(seeded, path)
        filled = bb.load_checkpoint(path, bb.build_variant(name, seed=None))
        assert filled.store.names() == seeded.store.names()
        for (n, p1), (_, p2) in zip(seeded.store.items(),
                                    filled.store.items()):
            assert p1.data.dtype == p2.data.dtype, n
            assert p1.data.shape == p2.data.shape, n
            assert p1.data.tobytes() == p2.data.tobytes(), n

    def test_corrupt_byte_rejected(self, tmp_path):
        m = bb.build_variant(tiny_urm_config())
        path = tmp_path / "m.sbtc"
        bb.save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            bb.load_checkpoint(path, m)

    def test_truncation_rejected(self, tmp_path):
        m = bb.build_variant(tiny_urm_config())
        path = tmp_path / "m.sbtc"
        bb.save_checkpoint(m, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(FormatError):
            bb.load_checkpoint(path, m)

    def test_bad_magic_rejected(self, tmp_path):
        m = bb.build_variant(tiny_urm_config())
        path = tmp_path / "m.sbtc"
        bb.save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            bb.load_checkpoint(path, m)

    @staticmethod
    def pack(entries, magic=bb.CHECKPOINT_MAGIC, version=1, count=None,
             tag=0, cut=0, trailing=b""):
        """Checkpoint bytes with a valid CRC; entries are (name, array).

        cut drops that many bytes from the end of the last entry.
        """
        buf = bytearray(magic)
        buf += struct.pack("<II", version,
                           len(entries) if count is None else count)
        for name, arr in entries:
            nb = name if isinstance(name, bytes) else name.encode("utf-8")
            buf += struct.pack("<H", len(nb)) + nb
            buf += struct.pack("<BB", tag, arr.ndim)
            buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
            buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()
        buf = buf[:len(buf) - cut] + trailing
        return bytes(buf + struct.pack("<I", zlib.crc32(bytes(buf))))

    def test_every_error_keeps_its_message(self, tmp_path):
        m = bb.build_variant(tiny_urm_config())
        entries = [(n, p.data) for n, p in m.store.items()]
        first, arr = entries[0]
        good = self.pack(entries)
        flipped = bytearray(good)
        flipped[20] ^= 0xFF
        cases = [
            (good[:12], "checkpoint truncated"),
            (bytes(flipped), "checkpoint CRC mismatch"),
            (good[:-40], "checkpoint CRC mismatch"),
            (self.pack(entries, magic=b"NOPE"), "bad checkpoint magic b'NOPE'"),
            (self.pack(entries, version=2), "unsupported checkpoint version 2"),
            (self.pack(entries, count=len(entries) + 1),
             "checkpoint truncated"),
            (self.pack(entries, cut=8), "checkpoint truncated"),
            (self.pack([(b"\xff", arr)]),
             "checkpoint parameter name b'\\xff' is not UTF-8"),
            (self.pack(entries, tag=1), f"unknown dtype tag 1 for {first}"),
            (self.pack(entries, trailing=b"x"),
             "trailing bytes after checkpoint entries"),
            (self.pack(entries[1:]),
             "checkpoint/config parameter set mismatch "
             f"(missing ['{first}'], unexpected [])"),
            (self.pack([(first, arr.reshape(-1))] + entries[1:]),
             f"shape mismatch for {first}: checkpoint ({arr.size},) "
             f"vs config {arr.shape}"),
            (self.pack(entries + [(first, np.full_like(arr, 7.0))]),
             f"duplicate parameter {first}"),
        ]
        path = tmp_path / "m.sbtc"
        for blob, message in cases:
            path.write_bytes(blob)
            with pytest.raises(FormatError) as e:
                bb.load_checkpoint(path, m)
            assert str(e.value) == message
        path.write_bytes(good)
        bb.load_checkpoint(path, m)

    @staticmethod
    def whole_file_writer(m, path):
        """The checkpoint writer that builds the whole file in memory."""
        buf = bytearray()
        buf += bb.CHECKPOINT_MAGIC
        items = list(m.store.items())
        buf += struct.pack("<II", bb.CHECKPOINT_VERSION, len(items))
        for name, p in items:
            nb = name.encode("utf-8")
            arr = np.ascontiguousarray(p.data, dtype="<f4")
            buf += struct.pack("<H", len(nb)) + nb
            buf += struct.pack("<BB", 0, arr.ndim)
            buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
            buf += arr.tobytes()
        buf += struct.pack("<I", zlib.crc32(bytes(buf)))
        with open(path, "wb") as fh:
            fh.write(bytes(buf))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_streamed_file_equals_whole_file_writer(self, tmp_path, dtype):
        m = bb.build_variant(tiny_interleave_config(), seed=8)
        m.store.cast_(dtype)
        bb.save_checkpoint(m, tmp_path / "a.sbtc")
        self.whole_file_writer(m, tmp_path / "b.sbtc")
        assert ((tmp_path / "a.sbtc").read_bytes()
                == (tmp_path / "b.sbtc").read_bytes())

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mangled_checkpoint_raises_only_sbt_errors(self, tmp_path, data):
        m = bb.build_variant(tiny_urm_config())
        good = tmp_path / "good.sbtc"
        if not good.exists():
            bb.save_checkpoint(m, good)
        raw = bytearray(good.read_bytes())
        kind = data.draw(st.sampled_from(
            ["truncate", "mutate", "insert", "version"]))
        if kind == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            body = raw[:-4]
            if kind == "mutate":
                for _ in range(data.draw(st.integers(1, 4))):
                    at = data.draw(st.integers(0, len(body) - 1))
                    body[at] = data.draw(st.integers(0, 255))
            elif kind == "insert":
                at = data.draw(st.integers(0, len(body)))
                body[at:at] = data.draw(st.binary(min_size=1, max_size=8))
            else:
                body[4:8] = struct.pack(
                    "<I", data.draw(st.integers(0, 2 ** 32 - 1)))
            # a valid CRC lets the damage reach the parser
            raw = body + struct.pack("<I", zlib.crc32(bytes(body)))
        path = tmp_path / "m.sbtc"
        path.write_bytes(bytes(raw))
        try:
            bb.load_checkpoint(path, m)
        except SbtError:
            pass

    def test_config_mismatch_rejected(self, tmp_path):
        m = bb.build_variant(tiny_urm_config())
        path = tmp_path / "m.sbtc"
        bb.save_checkpoint(m, path)
        other = bb.build_variant(tiny_plain_config())
        with pytest.raises(FormatError):
            bb.load_checkpoint(path, other)


class TestMim:
    def wide_grid_model(self):
        # cheap single-stage model with a full 16x16 final grid
        cfg = bb.VariantConfig(
            name="tiny-wide",
            stages=[bb.StageConfig("vg", 8, 1, heads=2, mlp_ratio=2.0)],
            embed_kernel=16, embed_stride=16, pe="none", pattern="urm",
            head="mixmlp", template_size=32, search_size=256,
        )
        return bb.build_variant(cfg)

    def test_mask_split_64_192(self):
        pre = bb.MimPretrainer(self.wide_grid_model())
        masked = pre.split_indices(0.75, np.random.default_rng(0))
        # 192 distinct sorted token indices, so 64 of the 256 stay visible
        assert len(masked) == 192 and (np.diff(masked) > 0).all()
        assert 0 <= masked[0] and masked[-1] < 256

    def test_degenerate_ratios_rejected(self):
        pre = bb.MimPretrainer(self.wide_grid_model())
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            pre.split_indices(1.0, rng)
        with pytest.raises(ConfigError):
            pre.split_indices(0.0, rng)
        with pytest.raises(ConfigError):
            pre.split_indices(1e-4, rng)  # rounds to zero masked tokens

    def test_untrained_loss_matches_pixel_variance(self):
        model = bb.build_variant(tiny_urm_config())
        pre = bb.MimPretrainer(model)
        img = tensor(np.random.default_rng(9).normal(size=(3, 64, 64)))
        masked = pre.split_indices(0.75, np.random.default_rng(7))
        with ad.no_grad():
            loss = pre.loss(img, 0.75, np.random.default_rng(7)).item()
        oracle = float((pre.patch_targets(img.data)[masked] ** 2).mean())
        assert abs(loss - oracle) < 0.25 * oracle
        assert 0.7 < oracle < 1.3

    def test_step_populates_gradients(self):
        model = bb.build_variant(tiny_urm_config())
        pre = bb.MimPretrainer(model)
        seqs = [hn.gen_sequence(s, length=3, frame_size=64) for s in (1, 2)]
        losses = hn.pretrain_loop(pre, seqs, steps=1, lr=1e-4,
                                  mask_ratio=0.75, seed=0)
        assert len(losses) == 1 and np.isfinite(losses[0])
        assert any(p.grad is not None and np.abs(p.grad).max() > 0
                   for _, p in model.store.items())
        assert any(p.grad is not None and np.abs(p.grad).max() > 0
                   for _, p in pre.store.items())

    @staticmethod
    def repaint(img, tokens, rng, grid=4):
        """img with fresh noise in the 16x16 patches at token indices."""
        out = img.copy()
        for t in tokens:
            r, c = divmod(int(t), grid)
            out[:, 16 * r:16 * r + 16, 16 * c:16 * c + 16] = rng.random(
                (3, 16, 16))
        return out

    @pytest.mark.parametrize("make_cfg", [tiny_urm_config,
                                          tiny_sr_embed_config],
                             ids=["rel-bias", "sr-overlap-embed"])
    def test_masked_pixels_never_reach_the_encoder(self, make_cfg):
        pre = bb.MimPretrainer(bb.build_variant(make_cfg()))
        rng = np.random.default_rng(4)
        img = rng.random((3, 64, 64))
        masked = pre.split_indices(0.75, np.random.default_rng(7))
        visible = np.setdiff1d(np.arange(16), masked)

        def encode(pixels):
            with ad.no_grad():
                return pre.encode(tensor(pixels), masked).data

        base = encode(img)
        assert np.array_equal(encode(self.repaint(img, masked, rng)), base)
        # a visible patch does reach it, so the check is not vacuous
        assert not np.array_equal(
            encode(self.repaint(img, visible[:1], rng)), base)

    @pytest.mark.parametrize("make_cfg", [tiny_urm_config,
                                          tiny_sr_embed_config],
                             ids=["rel-bias", "sr-overlap-embed"])
    def test_loss_grad_check(self, make_cfg):
        model = bb.build_variant(make_cfg(), seed=3)
        pre = bb.MimPretrainer(model, seed=1)
        # a fresh build's zero biases keep a gray patch's tokens at zero
        # through every LayerNorm, whose curvature there is too sharp for
        # finite differences; perturbed weights move off that point
        rng = np.random.default_rng(2)
        for store in (model.store, pre.store):
            store.cast_(np.float64)
            for _, p in store.items():
                p.data += rng.normal(scale=0.05, size=p.data.shape)
        img = tensor(np.random.default_rng(5).random((3, 64, 64)),
                     dtype=np.float64)

        def f(_):
            return pre.loss(img, 0.75, np.random.default_rng(7))

        for store in (model.store, pre.store):
            assert ad.grad_check(f, store, max_coords_per_param=1,
                                 rng=np.random.default_rng(0)) < 1e-6

    def test_patch_targets_normalized(self):
        pre = bb.MimPretrainer(self.wide_grid_model())
        img = np.random.default_rng(11).normal(size=(3, 256, 256)).astype(np.float32)
        t = pre.patch_targets(img)
        assert t.shape == (256, 768)
        np.testing.assert_allclose(t.mean(axis=1), 0.0, atol=1e-4)
        np.testing.assert_allclose(t.var(axis=1), 1.0, atol=1e-2)


class TestCheckpointLoadCopies:
    def test_each_parameter_gets_its_own_writable_array(self, tmp_path):
        m = bb.build_variant(tiny_urm_config(), seed=5)
        path = tmp_path / "m.sbtc"
        bb.save_checkpoint(m, path)
        m2 = bb.load_checkpoint(path, bb.build_variant(tiny_urm_config(),
                                                       seed=None))
        for (_, p), (_, q) in zip(m.store.items(), m2.store.items()):
            assert q.data.base is None and q.data.flags.writeable
            assert q.data.flags.c_contiguous and q.data.dtype == np.float32
            assert q.data.tobytes() == p.data.tobytes()

    def test_rejected_file_leaves_the_model_untouched(self, tmp_path):
        m = bb.build_variant(tiny_urm_config(), seed=5)
        entries = [(n, p.data) for n, p in m.store.items()]
        # the last matrix, flattened: found only after every entry is read
        i = max(k for k, (_, a) in enumerate(entries) if a.ndim == 2)
        entries[i] = (entries[i][0], entries[i][1].reshape(-1))
        path = tmp_path / "m.sbtc"
        path.write_bytes(TestCheckpoints.pack(entries))
        before = [p.data for _, p in m.store.items()]
        with pytest.raises(FormatError, match="shape mismatch"):
            bb.load_checkpoint(path, m)
        assert all(p.data is b for (_, p), b in zip(m.store.items(), before))
