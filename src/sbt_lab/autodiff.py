"""Dense-tensor engine with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient
checking). Every differentiable op builds a node in a dynamic graph;
``backward(loss)`` replays the graph in reverse topological order and
accumulates gradients into leaf tensors.

The graph is single-use: re-run the forward pass to differentiate again.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, DimensionError, NumericError

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _GradMode(threading.local):
    # per thread: eval worker threads enter and leave no_grad blocks
    # independently, and a shared flag leaks one thread's state into others
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path).

    Applies to the calling thread only; other threads keep recording.
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """A dense n-d float array, optionally participating in the grad graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
            if not np.issubdtype(data.dtype, np.floating):
                data = data.astype(DEFAULT_DTYPE)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = _parents
        self._backward: Optional[Callable[[np.ndarray], None]] = None if _backward is None else _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, owned: bool = False):
        # owned=True promises g is a freshly allocated array used nowhere
        # else, letting the first accumulation skip a full copy
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_const(self, p)


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=requires_grad)


def _tracked(*tensors: Tensor) -> bool:
    return _grad_mode.enabled and any(
        t.requires_grad or t._backward is not None for t in tensors
    )


def _node(data, parents, backward_fn) -> Tensor:
    out = Tensor(data, _parents=tuple(parents))
    out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        data = a.data + b
        if not _tracked(a):
            return Tensor(data)

        def bwd(g, a=a):
            a.accumulate_grad(_unbroadcast(g, a.data.shape))

        return _node(data, (a,), bwd)
    data = a.data + b.data
    if not _tracked(a, b):
        return Tensor(data)

    def bwd(g, a=a, b=b):
        a.accumulate_grad(_unbroadcast(g, a.data.shape))
        b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        data = a.data * b
        if not _tracked(a):
            return Tensor(data)

        def bwd(g, a=a, b=b):
            a.accumulate_grad(_unbroadcast(g * b, a.data.shape), owned=True)

        return _node(data, (a,), bwd)
    data = a.data * b.data
    if not _tracked(a, b):
        return Tensor(data)

    def bwd(g, a=a, b=b):
        a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape), owned=True)
        b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape), owned=True)

    return _node(data, (a, b), bwd)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data ** p
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, p=p, data=data):
        if p == 2.0:
            deriv = 2.0 * a.data
        else:
            deriv = p * a.data ** (p - 1.0)
        a.accumulate_grad(g * deriv, owned=True)

    return _node(data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a):
        a.accumulate_grad(g / a.data, owned=True)

    return _node(data, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a):
        a.accumulate_grad(g * np.sign(a.data), owned=True)

    return _node(data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a):
        a.accumulate_grad(g * (a.data > 0), owned=True)

    return _node(data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    data = expit(a.data)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, data=data):
        a.accumulate_grad(g * data * (1.0 - data), owned=True)

    return _node(data, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with the standard-normal CDF."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * cdf
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, cdf=cdf):
        x = a.data
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        a.accumulate_grad(g * (cdf + x * pdf), owned=True)

    return _node(data, (a,), bwd)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a):
        a.accumulate_grad(g.reshape(a.data.shape))

    return _node(data, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, inv=tuple(inv)):
        a.accumulate_grad(np.transpose(g, inv))

    return _node(data, (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)
    if not _tracked(*parts):
        return Tensor(data)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, parts=tuple(parts), offsets=offsets, axis=axis):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            p.accumulate_grad(g[tuple(sl)])

    return _node(data, parts, bwd)


def index(a: Tensor, sl) -> Tensor:
    """Basic slicing (tuple of slices/ints); gradient scatters back."""
    data = a.data[sl]
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, sl=sl):
        gi = np.zeros_like(a.data)
        gi[sl] = g
        a.accumulate_grad(gi, owned=True)

    return _node(data, (a,), bwd)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows along axis 0 by integer index (repeats allowed)."""
    data = a.data[idx]
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, idx=idx):
        gi = np.zeros_like(a.data)
        np.add.at(gi, idx, g)
        a.accumulate_grad(gi, owned=True)

    return _node(data, (a,), bwd)


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, axis=axis, keepdims=keepdims):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    return _node(data, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    data = a.data @ b.data
    if not _tracked(a, b):
        return Tensor(data)

    def bwd(g, a=a, b=b):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        a.accumulate_grad(_unbroadcast(ga, a.data.shape), owned=True)
        b.accumulate_grad(_unbroadcast(gb, b.data.shape), owned=True)

    return _node(data, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w (+ b). Fused so one graph node covers the affine map."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(
            f"linear: input dim {x.data.shape} incompatible with weight {w.data.shape}"
        )
    data = x.data @ w.data
    if b is not None:
        data += b.data
    parents = (x, w) if b is None else (x, w, b)
    if not _tracked(*parents):
        return Tensor(data)

    def bwd(g, x=x, w=w, b=b):
        x.accumulate_grad(g @ w.data.T, owned=True)
        xd = x.data.reshape(-1, x.data.shape[-1])
        gd = g.reshape(-1, g.shape[-1])
        w.accumulate_grad(xd.T @ gd, owned=True)
        if b is not None:
            b.accumulate_grad(gd.sum(axis=0), owned=True)

    return _node(data, parents, bwd)


# ---------------------------------------------------------------------------
# normalization / attention pieces
# ---------------------------------------------------------------------------

def softmax_lastdim(a: Tensor) -> Tensor:
    """Stable softmax along the last dimension."""
    if a.data.shape[-1] < 1:
        raise DimensionError("softmax over empty last dimension")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    if not _tracked(a):
        return Tensor(data)

    def bwd(g, a=a, data=data):
        dot = (g * data).sum(axis=-1, keepdims=True)
        a.accumulate_grad(data * (g - dot), owned=True)

    return _node(data, (a,), bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-token normalization over the last (channel) dimension."""
    c = a.data.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match channels ({c},)"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    data = xhat * gamma.data + beta.data
    if not _tracked(a, gamma, beta):
        return Tensor(data)

    def bwd(g, a=a, gamma=gamma, beta=beta, xhat=xhat, inv_std=inv_std, c=c):
        red = tuple(range(g.ndim - 1))
        gamma.accumulate_grad((g * xhat).sum(axis=red), owned=True)
        beta.accumulate_grad(g.sum(axis=red), owned=True)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        a.accumulate_grad(inv_std * (dxhat - m1 - xhat * m2), owned=True)

    return _node(data, (a, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_out_side(size: int, k: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - k) // stride + 1
    if out < 1:
        raise DimensionError(
            f"conv2d output side not positive for size={size} k={k} "
            f"stride={stride} padding={padding}"
        )
    return out


def conv2d(t: Tensor, w: Tensor, b: Optional[Tensor], stride: int = 1,
           padding: int = 0, groups: int = 1) -> Tensor:
    """Cross-correlation conv on a (C,H,W) map: dense (groups=1) or
    depthwise (groups=C_in=C_out)."""
    cin, h, win = t.data.shape
    cout, cin_g, k, k2 = w.data.shape
    if k != k2:
        raise DimensionError("conv2d expects square kernels")
    depthwise = groups == cin == cout and cin_g == 1
    if not (depthwise or (groups == 1 and cin_g == cin)):
        raise DimensionError(
            f"conv2d supports dense or depthwise only: C_in={cin} "
            f"C_out={cout} groups={groups} weight={w.data.shape}"
        )
    ho = _conv_out_side(h, k, stride, padding)
    wo = _conv_out_side(win, k, stride, padding)

    if padding:
        pad = np.pad(t.data, ((0, 0), (padding, padding), (padding, padding)))
    else:
        pad = t.data
    windows = np.lib.stride_tricks.sliding_window_view(pad, (k, k), axis=(1, 2))
    patches = windows[:, ::stride, ::stride]  # (C, ho, wo, k, k)

    if depthwise:
        data = np.einsum("chwij,cij->chw", patches, w.data[:, 0], optimize=True)
        col = None
    else:
        col = patches.transpose(1, 2, 0, 3, 4).reshape(ho * wo, cin * k * k)
        data = np.empty((cout, ho, wo), dtype=t.data.dtype)
        data[:] = (col @ w.data.reshape(cout, -1).T).T.reshape(cout, ho, wo)
    if b is not None:
        if b.data.shape != (cout,):
            raise DimensionError(f"conv2d bias shape {b.data.shape} != ({cout},)")
        data += b.data[:, None, None]

    parents = (t, w) if b is None else (t, w, b)
    if not _tracked(*parents):
        return Tensor(data)

    def bwd(g, t=t, w=w, b=b, patches=patches, col=col):
        if b is not None:
            b.accumulate_grad(g.sum(axis=(1, 2)), owned=True)
        ph, pw = h + 2 * padding, win + 2 * padding
        dpad = np.zeros((cin, ph, pw), dtype=t.data.dtype)
        if depthwise:
            w.accumulate_grad(
                np.einsum("chw,chwij->cij", g, patches, optimize=True)[:, None],
                owned=True,
            )
        else:
            gm = g.reshape(cout, -1)
            w.accumulate_grad((gm @ col).reshape(w.data.shape), owned=True)
            dcol = gm.T @ w.data.reshape(cout, -1)
            dpatch = dcol.reshape(ho, wo, cin, k, k).transpose(2, 0, 1, 3, 4)
        for i in range(k):
            for j in range(k):
                if depthwise:
                    d = g * w.data[:, 0, i, j][:, None, None]
                else:
                    d = dpatch[:, :, :, i, j]
                dpad[:, i:i + stride * (ho - 1) + 1:stride,
                     j:j + stride * (wo - 1) + 1:stride] += d
        if padding:
            dpad = dpad[:, padding:-padding, padding:-padding]
        t.accumulate_grad(dpad, owned=True)

    return _node(data, parents, bwd)


def pad_edge(t: Tensor, p: int) -> Tensor:
    """Replicate-pad the two trailing spatial axes of a (C,H,W) map."""
    c, h, w = t.data.shape
    iy = np.clip(np.arange(-p, h + p), 0, h - 1)
    ix = np.clip(np.arange(-p, w + p), 0, w - 1)
    data = t.data[:, iy[:, None], ix[None, :]]
    if not _tracked(t):
        return Tensor(data)

    def bwd(g, t=t, iy=iy, ix=ix, c=c):
        gi = np.zeros_like(t.data)
        np.add.at(gi, (np.arange(c)[:, None, None], iy[None, :, None],
                       ix[None, None, :]), g)
        t.accumulate_grad(gi, owned=True)

    return _node(data, (t,), bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Populate gradients of every reachable requires_grad leaf."""
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("backward expects a scalar Tensor loss")
    if loss._backward is None and not loss._parents:
        raise ContractError("loss is not connected to the gradient graph")
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            if node is not loss:
                node.grad = None  # free intermediate gradients


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class ParamStore:
    """Named map of trainable tensors with deterministic iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    @property
    def dtype(self):
        for t in self._params.values():
            return t.data.dtype
        return DEFAULT_DTYPE

    def cast_(self, dtype):
        """In-place dtype change of every parameter; gradients are dropped."""
        for t in self._params.values():
            t.data = t.data.astype(dtype)
            t.grad = None

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[ParamStore], Tensor], params: ParamStore,
               eps: float = 1e-5, max_coords_per_param: Optional[int] = None,
               rng: Optional[np.random.Generator] = None) -> float:
    """Central finite differences vs. taped gradients, in 64-bit.

    Returns the max relative error over all (or sampled) coordinates.
    """
    orig_dtype = params.dtype
    params.cast_(np.float64)
    try:
        params.zero_grad()
        loss = f(params)
        if loss.data.size != 1:
            raise ContractError("grad_check objective must be scalar")
        backward(loss)
        analytic = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
        max_err = 0.0
        with no_grad():
            for name, p in params.items():
                flat = p.data.reshape(-1)
                ana = analytic[name].reshape(-1)
                n = flat.size
                if max_coords_per_param is not None and n > max_coords_per_param:
                    if rng is None:
                        rng = np.random.default_rng(0)
                    coords = rng.choice(n, size=max_coords_per_param, replace=False)
                else:
                    coords = range(n)
                for i in coords:
                    old = flat[i]
                    flat[i] = old + eps
                    f_plus = f(params).item()
                    flat[i] = old - eps
                    f_minus = f(params).item()
                    flat[i] = old
                    if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                        raise NumericError(f"non-finite objective while probing {name}")
                    num = (f_plus - f_minus) / (2.0 * eps)
                    err = abs(ana[i] - num) / max(abs(ana[i]) + abs(num), 1.0)
                    if err > max_err:
                        max_err = err
        return max_err
    finally:
        params.cast_(orig_dtype)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Zero-mean normal truncated at +-2 sigma (resampling)."""
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    # each round redraws only the values the last round rejected, in
    # index order
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    while bad.size:
        draw = rng.standard_normal(bad.size)
        flat[bad] = draw
        bad = bad[np.abs(draw) > 2.0]
    return (out * std).astype(DEFAULT_DTYPE)


def glorot_normal(rng: np.random.Generator, shape, fan_in: int,
                  fan_out: int) -> np.ndarray:
    """Truncated normal with the dimension-scaled Glorot std.

    A fixed small std leaves attention logits and projection outputs far
    below unit scale at widths in the hundreds, which stalls short
    training runs; scaling by fan keeps activations near unit variance.
    """
    return trunc_normal(rng, shape, std=float(np.sqrt(2.0 / (fan_in + fan_out))))
