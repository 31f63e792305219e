"""End-to-end acceptance criteria.

Each criterion prints exactly one PASS/FAIL line (straight to the
terminal, bypassing capture) and then asserts. Criteria 6 and 7 depend
on multi-hour training runs cached under tests/_artifacts by
acceptance_runs.py; see that module for the build details.
"""

import json
import sys
import time

import numpy as np
import pytest

import sbt_lab.autodiff as ad
from sbt_lab import backbone as bb
from sbt_lab import cli
from sbt_lab import harness as hn
from sbt_lab import tracker as trk
from sbt_lab.autodiff import ParamStore, Tensor
from sbt_lab.head import ConvHead, HeadOutput, MixMlpHead, decode_box
from sbt_lab.layers import (
    Attention, FrmLayer, LocalLayer, PatchEmbed, PatchMerge, TokenMap,
    UrmLayer, ca_dynamic_conv_oracle, concat_maps, segment_mask,
)
from sbt_lab.loss import box_losses, focal_loss, gaussian_target, total_loss

import acceptance_runs as runs

F64 = np.float64


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def make_map(rng, n, c, grid, tag="search"):
    return TokenMap(Tensor(rng.normal(size=(n, c))), [grid], [tag])


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness for every layer type
# ---------------------------------------------------------------------------

def _component_checks(seed):
    """Yield (name, objective, store, fd_eps) for one seed."""
    rng = np.random.default_rng(seed)
    data = np.random.default_rng(seed + 10_000)
    img = data.normal(size=(3, 8, 8))
    z_toks = data.normal(size=(4, 8))
    x_toks = data.normal(size=(9, 8))

    def zx(p):
        z = TokenMap(Tensor(z_toks.astype(p.dtype)), [(2, 2)], ["template"])
        x = TokenMap(Tensor(x_toks.astype(p.dtype)), [(3, 3)], ["search"])
        return z, x

    ps = ParamStore()
    pe = PatchEmbed(ps, "pe", rng, 3, 8, kernel=4, stride=4)
    yield ("patch-embed", lambda p: ad.sum_(
        pe(Tensor(img.astype(p.dtype)), "search").tokens ** 2), ps, 1e-5)

    ps = ParamStore()
    pm = PatchMerge(ps, "pm", rng, 8, 12)
    m16 = data.normal(size=(16, 8))
    yield ("patch-merge", lambda p: ad.sum_(
        pm(TokenMap(Tensor(m16.astype(p.dtype)),
                    [(4, 4)], ["search"])).tokens ** 2), ps, 1e-5)

    ps = ParamStore()
    attn_vg = Attention(ps, "vg", rng, 8, 2)
    yield ("attention-vg", lambda p: ad.sum_(
        attn_vg(zx(p)[1], zx(p)[1]) ** 2), ps, 1e-5)

    ps = ParamStore()
    attn_srg = Attention(ps, "srg", rng, 8, 2, sr_ratio=3)
    yield ("attention-srg", lambda p: ad.sum_(
        attn_srg(zx(p)[1], zx(p)[1]) ** 2), ps, 1e-5)

    ps = ParamStore()
    frm = FrmLayer(ps, "frm", rng, 8, 2)

    def f_sa(p):
        z, x = zx(p)
        zo, xo = frm(z, x, "SA")
        return ad.sum_(zo.tokens ** 2) + ad.sum_(xo.tokens ** 2)

    yield ("frm-sa", f_sa, ps, 1e-5)

    def f_ca(p):
        z, x = zx(p)
        zo, xo = frm(z, x, "CA")
        return ad.sum_(zo.tokens ** 2) + ad.sum_(xo.tokens ** 2)

    yield ("frm-ca", f_ca, ps, 1e-5)

    ps = ParamStore()
    urm = UrmLayer(ps, "urm", rng, 8, 2)
    yield ("urm", lambda p: ad.sum_(
        urm(concat_maps(list(zx(p)))).tokens ** 2), ps, 1e-5)

    ps = ParamStore()
    loc = LocalLayer(ps, "loc", rng, 8)
    yield ("local-layer", lambda p: ad.sum_(
        loc(zx(p)[1]).tokens ** 2), ps, 1e-5)

    ps = ParamStore()
    conv_head = ConvHead(ps, "ch", rng, 8, hidden=8)
    # same reasoning as the mix head: move relu inputs off the kink
    for _, p_ in ps.items():
        p_.data = (0.3 * data.normal(size=p_.data.shape)).astype(p_.data.dtype)

    def f_conv_head(p):
        x = TokenMap(Tensor(x_toks.astype(p.dtype)), [(3, 3)], ["search"])
        out = conv_head(x)
        return ad.sum_(out.score ** 2) + ad.sum_(out.offset ** 2) \
            + ad.sum_(out.size ** 2)

    # relu kinks: a smaller probe keeps both samples on one side
    yield ("conv-head", f_conv_head, ps, 1e-6)

    ps = ParamStore()
    mix_head = MixMlpHead(ps, "mh", rng, 8, 9)
    # random nonzero params: zero biases leave dead relu channels whose
    # pre-activations sit exactly on the kink, where central differences
    # and the subgradient legitimately disagree
    for _, p_ in ps.items():
        p_.data = (0.3 * data.normal(size=p_.data.shape)).astype(p_.data.dtype)

    def f_mix_head(p):
        x = TokenMap(Tensor(x_toks.astype(p.dtype)), [(3, 3)], ["search"])
        out = mix_head(x)
        return ad.sum_(out.score ** 2) + ad.sum_(out.offset ** 2) \
            + ad.sum_(out.size ** 2)

    yield ("mixmlp-head", f_mix_head, ps, 1e-6)

    target = gaussian_target((0.5, 0.5, 0.3, 0.3), (3, 3))
    ps = ParamStore()
    ps.add("logits", data.normal(size=(3, 3)))
    yield ("focal-loss", lambda p: focal_loss(ad.sigmoid(p["logits"]),
                                              target), ps, 1e-6)

    ps = ParamStore()
    ps.add("box", np.array([0.45, 0.55, 0.25, 0.2])
           + 0.05 * data.normal(size=4))
    yield ("box-losses", lambda p: ad.add(*box_losses(
        p["box"], (0.5, 0.5, 0.3, 0.25))), ps, 1e-6)

    ps = ParamStore()
    th = ConvHead(ps, "th", rng, 8, hidden=8)
    yield ("total-loss", lambda p: total_loss(
        th(TokenMap(Tensor(x_toks.astype(p.dtype)), [(3, 3)], ["search"])),
        (0.5, 0.5, 0.3, 0.25))[0], ps, 1e-6)


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    n_seeds = 20
    worst = {}
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed + 900)
        for name, f, ps, eps in _component_checks(seed):
            err = ad.grad_check(f, ps, eps=eps, max_coords_per_param=2,
                                rng=rng)
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.time() - t0
    worst_overall = max(worst.values())
    ok = worst_overall < 1e-5 and elapsed < 120.0
    report(1, "gradient-correctness", ok,
           f"{len(worst)} layer types x {n_seeds} seeds, "
           f"max_rel_err={worst_overall:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: cross-attention equals its dynamic-convolution form
# ---------------------------------------------------------------------------

def test_criterion_2_dynamic_conv_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ps = ParamStore()
        frm = FrmLayer(ps, "frm", rng, 8, 2)
        ps.cast_(F64)
        data = np.random.default_rng(seed + 100)
        z = make_map(data, 4, 8, (2, 2), tag="template")
        x = make_map(data, 9, 8, (3, 3))
        _, x_attn = frm.attention_update(z, x)
        oracle = ca_dynamic_conv_oracle(z, x, frm)
        worst = max(worst, float(np.abs(x_attn.data - oracle).max()))
    ok = worst <= 1e-6
    report(2, "dynamic-conv-equivalence", ok,
           f"50 instances, max_abs_err={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: masked joint attention reduces to the two-stream terms
# ---------------------------------------------------------------------------

def test_criterion_3_joint_attention_reduction():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ps = ParamStore()
        urm = UrmLayer(ps, "urm", rng, 8, 2)
        ps.cast_(F64)
        data = np.random.default_rng(seed + 200)
        z = make_map(data, 4, 8, (2, 2), tag="template")
        x = make_map(data, 8, 8, (2, 4))
        zx = concat_maps([z, x])
        normed = zx.with_tokens(urm.ln1(zx.tokens))
        zn, xn = normed.split()
        for keep, pairs in (
            ("same", ((zn, zn), (xn, xn))),
            ("cross", ((zn, xn), (xn, zn))),
        ):
            got = urm.attention_update(zx, segment_mask(zx, keep)).data
            ref = np.vstack([
                urm.attn(q, k).data for q, k in pairs
            ]) + zx.tokens.data
            worst = max(worst, float(np.abs(got - ref).max()))
    ok = worst <= 1e-6
    report(3, "joint-attention-reduction", ok,
           f"20 seeds x same/cross, max_abs_err={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: permutation equivariance without position encoding
# ---------------------------------------------------------------------------

def test_criterion_4_permutation_equivariance():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = np.random.default_rng(seed + 300)
        perm_rng = np.random.default_rng(seed + 400)

        ps = ParamStore()
        attn = Attention(ps, "a", rng, 8, 2)
        ps.cast_(F64)
        x = make_map(data, 12, 8, (3, 4))
        perm = perm_rng.permutation(12)
        xp = x.with_tokens(Tensor(x.tokens.data[perm]))
        worst = max(worst, float(np.abs(
            attn(x, x).data[perm] - attn(xp, xp).data).max()))

        ps = ParamStore()
        frm = FrmLayer(ps, "f", rng, 8, 2)
        ps.cast_(F64)
        z = make_map(data, 4, 8, (2, 2), tag="template")
        zo, xo = frm(z, x, "CA")
        zo2, xo2 = frm(z, xp, "CA")
        worst = max(worst, float(np.abs(
            xo.tokens.data[perm] - xo2.tokens.data).max()))
        worst = max(worst, float(np.abs(
            zo.tokens.data - zo2.tokens.data).max()))

        ps = ParamStore()
        urm = UrmLayer(ps, "u", rng, 8, 2)
        ps.cast_(F64)
        zx = concat_maps([z, x])
        jperm = perm_rng.permutation(16)
        zxp = zx.with_tokens(Tensor(zx.tokens.data[jperm]))
        worst = max(worst, float(np.abs(
            urm(zx).tokens.data[jperm] - urm(zxp).tokens.data).max()))
    ok = worst <= 1e-6
    report(4, "permutation-equivariance", ok,
           f"10 seeds, attention/frm/urm, max_abs_err={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: variant fidelity
# ---------------------------------------------------------------------------

def test_criterion_5_variant_fidelity():
    problems = []
    for name, ref_m in cli.REFERENCE_PARAMS_M.items():
        model = bb.build_variant(name)
        dev = abs(bb.count_params(model) / 1e6 - ref_m) / ref_m
        if dev > 0.10:
            problems.append(f"{name} deviates {dev:.1%}")
    cfg = bb.named_config("supersbt-light")
    last = len(cfg.stages) - 1
    tz = cfg.grid_side(cfg.template_size, last) ** 2
    tx = cfg.grid_side(cfg.search_size, last) ** 2
    if (tz, tx) != (64, 256):
        problems.append(f"final token counts {(tz, tx)} != (64, 256)")
    ps = ParamStore()
    urm = UrmLayer(ps, "u", np.random.default_rng(0), 512, 8)
    if urm.attn.flops(320, 320) != 440_401_920:
        problems.append("attention flops formula mismatch")
    ok = not problems
    report(5, "variant-fidelity", ok,
           "; ".join(problems) if problems else
           "5 variants within 10%, tokens {64,256}, closed-form flops exact")


# ---------------------------------------------------------------------------
# criterion 6: toy training reaches useful tracking quality
# ---------------------------------------------------------------------------

def test_criterion_6_toy_training():
    over = runs.overfit_result()
    drop = 1.0 - over["final"] / over["initial"]
    main = runs.main_training()
    trained = main["trained"]["ao"]
    static = main["static"]["ao"]
    untrained = main["untrained"]["ao"]
    minutes = main["train_elapsed"] / 60.0
    problems = []
    if drop < 0.90:
        problems.append(f"overfit drop {drop:.1%} < 90%")
    if trained < 0.5:
        problems.append(f"trained ao {trained:.3f} < 0.5")
    if trained <= static:
        problems.append(f"trained ao {trained:.3f} <= static {static:.3f}")
    if trained <= untrained:
        problems.append(
            f"trained ao {trained:.3f} <= untrained {untrained:.3f}")
    if minutes > 30.0:
        problems.append(f"training took {minutes:.1f} min > 30")
    ok = not problems
    report(6, "toy-training", ok,
           "; ".join(problems) if problems else
           f"overfit drop {drop:.1%}, ao {trained:.3f} vs static "
           f"{static:.3f} / untrained {untrained:.3f}, {minutes:.1f} min")


# ---------------------------------------------------------------------------
# criterion 7: masked-patch pretraining helps
# ---------------------------------------------------------------------------

def test_criterion_7_mim_pretraining():
    mim = runs.mim_result()
    drop = 1.0 - mim["recon_final"] / mim["recon_initial"]
    problems = []
    if drop < 0.50:
        problems.append(f"reconstruction drop {drop:.1%} < 50%")
    if not mim["reached_target"] or \
            mim["finetune_steps"] >= mim["random_steps_to_target"]:
        problems.append(
            f"fine-tune needed {mim['finetune_steps']} steps vs random "
            f"{mim['random_steps_to_target']}")
    ok = not problems
    report(7, "mim-pretraining", ok,
           "; ".join(problems) if problems else
           f"recon drop {drop:.1%}, fine-tune {mim['finetune_steps']} vs "
           f"random {mim['random_steps_to_target']} steps")


# ---------------------------------------------------------------------------
# the artifact cache behind criteria 6 and 7
# ---------------------------------------------------------------------------

def _no_build():
    raise AssertionError("the cache ran a build")


class TestArtifactCache:
    @pytest.fixture
    def art_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runs, "ART_DIR", str(tmp_path))
        monkeypatch.setattr(runs, "BUILD_ON_MISS", False)
        return tmp_path

    @staticmethod
    def write(art_dir, artifact):
        (art_dir / "x.json").write_text(json.dumps(artifact))

    def test_matching_fingerprint_is_read(self, art_dir):
        self.write(art_dir, {"fingerprint": runs.fingerprint(),
                             "result": {"ao": 0.5}})
        assert runs._cached("x", _no_build) == {"ao": 0.5}

    @pytest.mark.parametrize("artifact", [
        {"fingerprint": "0" * 64, "result": {"ao": 0.5}},
        {"ao": 0.5},  # written before artifacts carried a fingerprint
    ])
    def test_other_fingerprint_is_stale(self, art_dir, artifact):
        self.write(art_dir, artifact)
        with pytest.raises(runs.ArtifactStale,
                           match="python3 tests/acceptance_runs.py"):
            runs._cached("x", _no_build)

    def test_missing_artifact_is_not_built(self, art_dir):
        with pytest.raises(runs.ArtifactNotBuilt):
            runs._cached("x", _no_build)

    def test_build_script_replaces_stale_artifact(self, art_dir, monkeypatch):
        monkeypatch.setattr(runs, "BUILD_ON_MISS", True)
        self.write(art_dir, {"fingerprint": "0" * 64, "result": {"ao": 0.5}})
        assert runs._cached("x", lambda: {"ao": 0.7}) == {"ao": 0.7}
        monkeypatch.setattr(runs, "BUILD_ON_MISS", False)
        assert runs._cached("x", _no_build) == {"ao": 0.7}

    def test_fingerprint_follows_source_and_numpy(self, tmp_path,
                                                  monkeypatch):
        src = tmp_path / "sbt_lab"
        src.mkdir()
        (src / "a.py").write_text("A = 1\n")
        monkeypatch.setattr(runs, "SRC_DIR", str(src))
        base = runs.fingerprint()
        assert runs.fingerprint() == base
        (src / "a.py").write_text("A = 2\n")
        edited = runs.fingerprint()
        assert edited != base
        monkeypatch.setattr(runs.np, "__version__", "0.0.0")
        assert runs.fingerprint() != edited


# ---------------------------------------------------------------------------
# criterion 8: decode/track/serialization contracts
# ---------------------------------------------------------------------------

def test_criterion_8_decode_track_contracts(tmp_path):
    problems = []

    # decode round trip
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        grid = 16
        gt = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
              rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4))
        i, j = int(gt[1] * grid), int(gt[0] * grid)
        score = np.full((grid, grid), 0.1)
        score[i, j] = 1.0
        offset = np.zeros((2, grid, grid))
        offset[0, i, j] = gt[0] - j / grid
        offset[1, i, j] = gt[1] - i / grid
        size = np.zeros((2, grid, grid))
        size[0, i, j], size[1, i, j] = gt[2], gt[3]
        box, _, _ = decode_box(HeadOutput(Tensor(score), Tensor(offset),
                                          Tensor(size)))
        worst = max(worst, float(np.abs(np.array(box) - gt).max()))
    if worst > 1e-6:
        problems.append(f"decode round-trip err {worst:.2e}")

    # hanning endpoint exactness
    for n in (8, 15, 16):
        w = trk.hanning_1d(n)
        if w[n // 2] != 1.0 or abs(w[0]) > 1e-7 or abs(w[-1]) > 1e-7:
            problems.append(f"hanning endpoints wrong for n={n}")

    # zero window weight reproduces the raw decode
    from test_backbone import tiny_urm_config
    model = bb.build_variant(tiny_urm_config())
    frame = np.random.default_rng(0).uniform(
        size=(3, 128, 128)).astype(np.float32)
    cfg = trk.TrackerConfig(window_weight=0.0, size_smoothing=1.0)
    state = trk.init(frame, (48, 48, 32, 32), model, cfg)
    box, conf = trk.track_step(state, frame)
    side = 4.0 * 32
    patch, aff = trk.crop_region(frame, (64.0, 64.0), side,
                                 model.cfg.search_size)
    with ad.no_grad():
        xf = model.encode_early(Tensor(patch), "search")
        _, f_x = model.forward_joint(state.template_feat, xf)
        out = model.head(f_x)
    (bx, by, bw, bh), rconf, _ = decode_box(out)
    fx, fy = aff.frame_from_norm(bx, by)
    ww = min(bw * side, 128.0)
    wh = min(bh * side, 128.0)
    want = (min(max(fx - ww / 2.0, 0.0), 128.0 - ww),
            min(max(fy - wh / 2.0, 0.0), 128.0 - wh), ww, wh)
    if not np.allclose(box, want, atol=1e-9) or conf != pytest.approx(rconf):
        problems.append("window_weight=0 differs from raw decode")

    # checkpoint round trip is bitwise
    path = tmp_path / "m.sbtc"
    bb.save_checkpoint(model, path)
    clone = bb.build_variant(tiny_urm_config(), seed=99)
    bb.load_checkpoint(path, clone)
    for (_, p1), (_, p2) in zip(model.store.items(), clone.store.items()):
        if not np.array_equal(p1.data, p2.data):
            problems.append("checkpoint round trip not bitwise")
            break

    # CLI repeatability
    import io
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        assert cli.run(["variant-info", "--variant", "hi-sbt"], out=buf) == 0
        outs.append(buf.getvalue())
    if outs[0] != outs[1]:
        problems.append("variant-info output not repeatable")
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert cli.run(["gen-data", "--out", str(d), "--sequences", "1",
                        "--length", "2", "--frame-size", "64",
                        "--seed", "5"], out=io.StringIO()) == 0
        blobs.append((d / "seq_5" / "frame_0.ppm").read_bytes())
    if blobs[0] != blobs[1]:
        problems.append("gen-data output not byte-identical")

    ok = not problems
    report(8, "decode-track-contracts", ok,
           "; ".join(problems) if problems else
           "decode/hanning/window/checkpoint/cli all exact")
