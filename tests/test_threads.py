"""The fork-join that the float32 ops split their work over.

Every split op must give the same bits at every width; float64 never
splits.
"""

import queue
import sys
import threading
import weakref

import numpy as np
import pytest

from sbt_lab import autodiff as ad
from sbt_lab.autodiff import ParamStore, Tensor
from sbt_lab.backbone import StageConfig, VariantConfig, build_variant
from sbt_lab.errors import ConfigError
from sbt_lab.loss import total_loss
from sbt_lab.optim import AdamW, clip_grad_norm


@pytest.fixture
def fork_calls(monkeypatch):
    """The `parts` of every fork call made while the test runs."""
    calls = []
    real = ad.fork

    def counting(fn, n, parts):
        calls.append(parts)
        return real(fn, n, parts)

    monkeypatch.setattr(ad, "fork", counting)
    return calls


class TestForkJoin:
    @pytest.mark.parametrize("n,parts", [(1, 1), (7, 2), (10, 3), (5, 4)])
    def test_ranges_cover_once_in_order(self, n, parts):
        seen = []
        lock = threading.Lock()

        def fn(lo, hi):
            with lock:
                seen.append((lo, hi))

        with ad.thread_width(parts):
            ad.fork(fn, n, parts)
        seen.sort()
        assert [lo for lo, _ in seen] == [n * i // parts for i in range(parts)]
        assert [hi for _, hi in seen] == [n * (i + 1) // parts
                                          for i in range(parts)]

    def test_part_error_reraised_after_every_part_ran(self):
        ran = []

        def fn(lo, hi):
            ran.append(lo)
            if lo > 0:
                raise RuntimeError(f"part {lo} failed")

        with pytest.raises(RuntimeError, match="part 2 failed"):
            ad.fork(fn, 4, 2)
        assert sorted(ran) == [0, 2]

    @pytest.mark.parametrize("parts", [2, 4])
    def test_finished_parts_keep_no_arrays(self, parts):
        # an idle helper still holds its last task until the next one
        # comes; the arrays a part reads must not live on with it
        out = np.zeros(8)
        ref = weakref.ref(out)

        def fn(lo, hi, out=out):
            out[lo:hi] += 1

        ad.fork(fn, len(out), parts)
        assert (out == 1).all()
        del out, fn
        assert ref() is None

    def test_helper_range_runs_at_its_share(self):
        # both ranges wait for each other, so a helper runs the second
        seen = {}
        barrier = threading.Barrier(2, timeout=60)

        def fn(lo, hi):
            barrier.wait()
            seen[lo] = (threading.current_thread().name, ad.threads())

        with ad.thread_width(4):
            ad.fork(fn, 2, 2)
            assert ad.threads() == 4
        assert seen[1][0].startswith("sbt-lab-fork-")
        assert [w for _, w in seen.values()] == [2, 2]

    def test_taken_back_range_runs_at_its_share(self, monkeypatch):
        # no helper reads this queue: the caller runs both ranges
        monkeypatch.setattr(ad, "_tasks", queue.SimpleQueue())
        seen = []

        def fn(lo, hi):
            seen.append((threading.current_thread(), ad.threads()))

        with ad.thread_width(4):
            ad.fork(fn, 2, 2)
            assert ad.threads() == 4
        assert seen == [(threading.current_thread(), 2)] * 2

    def test_width_restored_on_error(self):
        before = ad.threads()
        with pytest.raises(ValueError):
            with ad.thread_width(3):
                assert ad.threads() == 3
                raise ValueError
        assert ad.threads() == before

    def test_width_is_per_thread(self):
        seen = []
        with ad.thread_width(3):
            t = threading.Thread(target=lambda: seen.append(ad.threads()))
            t.start()
            t.join()
        assert seen == [ad.threads()]

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("SBT_LAB_THREADS", "two")
        with pytest.raises(ConfigError, match="SBT_LAB_THREADS"):
            ad.set_threads()

    def test_blas_pinned_to_one_thread(self, monkeypatch):
        blas = ad._openblas()
        if blas is None:
            pytest.skip("numpy has no bundled OpenBLAS thread control")
        monkeypatch.setenv("SBT_LAB_THREADS", "3")
        blas[1](2)
        assert ad.set_threads() == 3
        assert blas[0]() == 1

    def test_concurrent_forks_match_serial(self):
        """More forking threads than cores, switching often: every part
        of every fork must land in its own caller's result."""
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=(512, 256)).astype(np.float32) for _ in range(6)]
        w = Tensor(rng.normal(size=(256, 384)).astype(np.float32))

        def op(x):
            return ad.gelu(ad.linear(Tensor(x), w)).data

        with ad.thread_width(1), ad.no_grad():
            want = [op(x) for x in xs]
        got = [[] for _ in xs]

        def worker(i):
            with ad.thread_width(3), ad.no_grad():
                for _ in range(4):
                    got[i].append(op(xs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, runs in enumerate(got):
            assert len(runs) == 4
            assert all(r.tobytes() == want[i].tobytes() for r in runs)


def _graph_outputs(fn, arrays):
    """fn's output and the gradient of sum(out * r) for each input."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*inputs)
    r = np.random.default_rng(1).normal(size=out.data.shape).astype(
        out.data.dtype)
    ad.backward(ad.sum_(ad.mul(out, Tensor(r))))
    return [out.data] + [t.grad for t in inputs]


def _no_graph_output(fn, arrays):
    with ad.no_grad():
        return [fn(*(Tensor(a) for a in arrays)).data]


# (name, op, input shapes); every shape is large enough to split
SPLIT_OPS = [
    ("linear", lambda x, w, b: ad.linear(x, w, b),
     [(640, 256), (256, 384), (384,)]),
    ("matmul", lambda a, b: ad.matmul(a, b),
     [(8, 320, 64), (8, 64, 320)]),
    ("conv2d", lambda t, w, b: ad.conv2d(t, w, b, stride=2, padding=1),
     [(64, 64, 32), (64, 32, 4, 4), (64,)]),
    ("conv2d-1x1", lambda t, w, b: ad.conv2d(t, w, b),
     [(48, 48, 64), (96, 64, 1, 1), (96,)]),
    ("gelu", lambda x: ad.gelu(x), [(1024, 384)]),
    ("layer_norm", lambda x, g, b: ad.layer_norm(x, g, b),
     [(1024, 256), (256,), (256,)]),
    ("softmax", lambda x: ad.softmax_lastdim(x), [(8, 320, 320)]),
    ("add", lambda a, b: ad.add(a, b), [(1024, 256), (1024, 256)]),
    ("mul-scalar", lambda a: ad.mul(a, 0.125), [(1024, 256)]),
    ("depthwise", lambda t, w, b: ad.depthwise_conv3x3(t, (64, 64), w, b,
                                                       pad="edge"),
     [(4096, 128), (128, 1, 3, 3), (128,)]),
]


class TestSplitOps:
    @pytest.mark.parametrize("name,fn,shapes", SPLIT_OPS,
                             ids=[n for n, _, _ in SPLIT_OPS])
    def test_bitwise_equal_at_every_width(self, name, fn, shapes,
                                          fork_calls):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
        runs = {}
        for width in (1, 2, 3):
            with ad.thread_width(width):
                runs[width] = (_graph_outputs(fn, arrays)
                               + _no_graph_output(fn, arrays))
        assert any(p > 1 for p in fork_calls)
        for width in (2, 3):
            for a, b in zip(runs[1], runs[width]):
                assert a.shape == b.shape and a.strides == b.strides
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fn,shapes", [
        (lambda x, w, b: ad.linear(x, w, b), [(640, 256), (256, 384), (384,)]),
        # 128 output channels: the (128, 512) weight gradient reaches
        # 2 * _MIN_PART
        (lambda t, w, b: ad.conv2d(t, w, b, stride=2, padding=1),
         [(64, 64, 32), (128, 32, 4, 4), (128,)]),
    ], ids=["linear", "conv2d"])
    def test_weight_gradient_splits_over_its_rows(self, fn, shapes,
                                                  monkeypatch):
        """The weight gradient is one product of the transposed input,
        split over its rows at width >= 2 with the width-1 bits."""
        parts, products = [], []
        real_rows, real_matmul = ad._rows, ad._matmul_rows

        def rows(kernel, n, p, shape):
            parts.append(p)
            return real_rows(kernel, n, p, shape)

        def matmul_rows(x, w, bias=None):
            out = real_matmul(x, w, bias)
            products.append((x, parts[-1], out))
            return out

        monkeypatch.setattr(ad, "_rows", rows)
        monkeypatch.setattr(ad, "_matmul_rows", matmul_rows)
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
        results = {}
        for width in (1, 2, 3):
            products.clear()
            with ad.thread_width(width):
                _graph_outputs(fn, arrays)
            (x, p, out), = [t for t in products if t[0].flags.f_contiguous
                            and not t[0].flags.c_contiguous]
            assert len(x) == shapes[1][0] and out.size == np.prod(shapes[1])
            assert (p > 1) == (width > 1)
            results[width] = out.tobytes()
        assert results[2] == results[1] and results[3] == results[1]

    @pytest.mark.parametrize("name,fn,shapes", SPLIT_OPS,
                             ids=[n for n, _, _ in SPLIT_OPS])
    def test_float64_runs_unsplit(self, name, fn, shapes, fork_calls):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=s) for s in shapes]
        with ad.thread_width(2):
            _graph_outputs(fn, arrays)
            _no_graph_output(fn, arrays)
        assert all(p == 1 for p in fork_calls)

    def test_adamw_bitwise_equal_at_every_width(self, fork_calls):
        shapes = [(512, 384), (300,), (70000,)]
        result = {}
        for width in (1, 2):
            rng = np.random.default_rng(3)
            store = ParamStore()
            for i, shape in enumerate(shapes):
                store.add(f"p{i}", rng.normal(size=shape).astype(np.float32))
            opt = AdamW(store, lr=1e-2, weight_decay=0.1)
            grads = np.random.default_rng(4)
            with ad.thread_width(width):
                for _ in range(3):
                    for _, p in store.items():
                        p.grad = grads.normal(size=p.data.shape).astype(
                            np.float32)
                    opt.step()
            result[width] = [p.data.tobytes() for _, p in store.items()]
        assert any(p > 1 for p in fork_calls)
        assert result[1] == result[2]

    @pytest.mark.parametrize("max_norm", [1e-3, 1e9])
    def test_clip_grad_norm_bitwise_equal_at_every_width(self, max_norm,
                                                        fork_calls):
        result = {}
        for width in (1, 2):
            rng = np.random.default_rng(5)
            store = ParamStore()
            for i, shape in enumerate([(512, 384), (300,), (70000,)]):
                p = store.add(f"p{i}", np.zeros(shape, dtype=np.float32))
                p.grad = rng.normal(size=shape).astype(np.float32)
            with ad.thread_width(width):
                norm = clip_grad_norm(store, max_norm)
            result[width] = (norm, [p.grad.tobytes() for _, p in store.items()])
        assert any(p > 1 for p in fork_calls)
        assert result[1] == result[2]


# tiny models of the two backbone families, small enough that their maps
# reach a lowered _MIN_PART
_TINY_STAGES = dict(
    supersbt=[StageConfig("mlp-local", 8, 1, mlp_ratio=3.0),
              StageConfig("mlp-local", 8, 1, mlp_ratio=3.0),
              StageConfig("vg", 16, 2, heads=2)],
    hisbt=[StageConfig("srg", 8, 1, heads=1, sr_ratio=4),
           StageConfig("srg", 8, 1, heads=2, sr_ratio=2),
           StageConfig("srg", 16, 2, heads=2, sr_ratio=2)],
)
_TINY_MODELS = dict(
    supersbt=dict(embed_kernel=4, embed_stride=4, inter_stage="merge",
                  pe="rel", pattern="urm", head="mixmlp"),
    hisbt=dict(embed_kernel=7, embed_stride=4, embed_padding=3,
               inter_stage="conv", pe="cond", pattern="interleave",
               head="conv"),
)


class TestMemoryOrder:
    @pytest.mark.parametrize("family", list(_TINY_MODELS))
    def test_no_split_refused_for_memory_order(self, family, monkeypatch):
        """Every activation and gradient of a forward and backward is
        C-ordered, so no op stays on one core for its layout."""
        # 2 * 64 values: the tiny backbone maps reach it, the head's
        # (2, 4, 4) maps stay below it as their full-size ones do
        monkeypatch.setattr(ad, "_MIN_PART", 64)
        refused = []
        real = ad._row_parts

        def counting(x, *others):
            if x.ndim >= 2 and x.size >= 2 * ad._MIN_PART and not all(
                    a.flags.c_contiguous for a in (x,) + others):
                refused.append(x.shape)
            return real(x, *others)

        monkeypatch.setattr(ad, "_row_parts", counting)
        cfg = VariantConfig(family, _TINY_STAGES[family], template_size=32,
                            search_size=64, **_TINY_MODELS[family])
        model = build_variant(cfg, seed=0)
        rng = np.random.default_rng(1)
        z, dyn = (Tensor(rng.random((3, 32, 32), dtype=np.float32))
                  for _ in range(2))
        x = Tensor(rng.random((3, 64, 64), dtype=np.float32))
        with ad.thread_width(2):
            loss, _ = total_loss(model.predict(z, x, dyn), (0.5, 0.5, 0.3, 0.3))
            ad.backward(loss)
        assert refused == []


class TestGradientMemory:
    @pytest.mark.parametrize("family", list(_TINY_MODELS))
    def test_parameter_gradients_own_their_memory(self, family):
        """After a float32 training backward every parameter gradient is a
        writeable array of its own: the optimizer and clip_grad_norm
        write into each one alone."""
        cfg = VariantConfig(family, _TINY_STAGES[family], template_size=32,
                            search_size=64, **_TINY_MODELS[family])
        model = build_variant(cfg, seed=0)
        rng = np.random.default_rng(2)
        z, dyn = (Tensor(rng.random((3, 32, 32), dtype=np.float32))
                  for _ in range(2))
        x = Tensor(rng.random((3, 64, 64), dtype=np.float32))
        loss, _ = total_loss(model.predict(z, x, dyn), (0.5, 0.5, 0.3, 0.3))
        ad.backward(loss)
        params = [p for _, p in model.store.items()]
        grads = [p.grad for p in params]
        assert all(g is not None and g.flags.writeable for g in grads)
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, p.data) for p in params)
            assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
