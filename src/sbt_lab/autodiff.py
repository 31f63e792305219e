"""Dense-tensor engine with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient
checking). An op records a node in a dynamic graph only when the
calling thread records one (see ``no_grad``) and some input requires
grad or is a recorded op's output; ``_recorded`` alone decides this.
``backward(loss)`` runs the graph in reverse topological order,
accumulates gradients into leaf tensors and consumes the graph as it
goes: each node drops its closure and parent links once it has run.
Re-run the forward pass to differentiate again.

Gradient ownership: a backward hands each input a gradient array that
nothing else reads or writes afterwards (a view of its own gradient goes
to one input only). An input keeps the first gradient it receives, cast
if its dtype differs, and adds later ones into it in place.

A node is kept apart from the tensor it belongs to and holds no tensor
data of its own. Its closure keeps exactly the arrays its backward reads,
so an activation that no backward reads is freed with its tensor.

The engine owns the process's threads. numpy's OpenBLAS is pinned to one
thread, and the large float32 ops split their work over a fork-join of
the calling thread plus persistent helper threads (see ``threads``);
so do ``harness.evaluate``'s sequences, as one fork. A range of a fork
runs at max(1, width // parts) of its caller's width. Every split
leaves each output value's arithmetic unchanged, so results are bitwise
the same at every width.
"""

from __future__ import annotations

import ctypes
import glob
import math
import mmap
import os
import queue
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

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


def grad_enabled() -> bool:
    """Whether the calling thread records a graph."""
    return _grad_mode.enabled


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

def max_threads() -> int:
    """SBT_LAB_THREADS if set, else the CPU count."""
    cap = os.environ.get("SBT_LAB_THREADS")
    if cap is not None:
        try:
            n = int(cap)
        except ValueError:
            raise ConfigError(f"SBT_LAB_THREADS must be an integer, got {cap!r}")
        if not 1 <= n <= 64:  # a fork starts a helper thread per extra part
            raise ConfigError(f"SBT_LAB_THREADS must be in [1, 64], got {n}")
        return n
    return os.cpu_count() or 1


def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS.

    None when numpy was built against another BLAS or the symbols are
    missing.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


class _Width(threading.local):
    # 0 means the process width
    width = 0


_width = _Width()
_process_width = 0  # 0 until set_threads resolves it
_helpers: list = []
_helpers_lock = threading.Lock()
_tasks: "queue.SimpleQueue" = queue.SimpleQueue()


def set_threads() -> int:
    """Read max_threads() into the process's fork-join width and pin
    numpy's OpenBLAS to one thread; returns the width.

    Without a pinnable OpenBLAS the width is 1: a split op would run
    several multi-threaded BLAS calls at once. Ops call this on first use;
    a command calls it up front, so a bad SBT_LAB_THREADS fails before
    any work.
    """
    global _process_width
    n = max_threads()
    blas = _openblas()
    if blas is None:
        n = 1
    else:
        blas[1](1)
    _process_width = n
    return n


def threads() -> int:
    """Fork-join width of the calling thread: the number of parts a large
    float32 op splits into, the calling thread running the first."""
    return _width.width or _process_width or set_threads()


@contextmanager
def thread_width(n: int):
    """Run the block at fork-join width n on the calling thread only."""
    threads()  # the engine owns the BLAS threads from here on
    prev = _width.width
    _width.width = max(1, int(n))
    try:
        yield
    finally:
        _width.width = prev


class _Task:
    __slots__ = ("fn", "lo", "hi", "width", "claim", "done", "error")

    def __init__(self, fn, lo, hi, width):
        self.fn, self.lo, self.hi, self.width = fn, lo, hi, width
        self.claim = threading.Lock()  # held by whoever runs it
        self.done = threading.Lock()  # released when it has run
        self.done.acquire()
        self.error = None

    def run(self):
        prev, _width.width = _width.width, self.width
        try:
            self.fn(self.lo, self.hi)
        except BaseException as e:  # re-raised on the forking thread
            self.error = e
        finally:
            _width.width = prev
            self.fn = None  # an idle helper keeps its last task, not its arrays
            self.done.release()


def _helper_loop():
    while True:
        task = _tasks.get()
        if task.claim.acquire(blocking=False):
            task.run()


def _start_helpers(n: int):
    if len(_helpers) >= n:
        return
    with _helpers_lock:
        while len(_helpers) < n:
            t = threading.Thread(target=_helper_loop, daemon=True,
                                 name=f"sbt-lab-fork-{len(_helpers)}")
            t.start()
            _helpers.append(t)


def fork(fn: Callable[[int, int], None], n: int, parts: int):
    """fn(lo, hi) over `parts` contiguous ranges covering range(n), each
    at width max(1, threads() // parts) on whichever thread runs it.

    The calling thread runs the first range, helpers the rest; a range
    no helper has started by then runs on the calling thread too, so
    several threads can fork at once without waiting on each other.
    Returns once every range has run; re-raises the earliest range's error.
    """
    if parts == 1:
        fn(0, n)
        return
    width = max(1, threads() // parts)
    bounds = [n * i // parts for i in range(parts + 1)]
    tasks = [_Task(fn, lo, hi, width) for lo, hi in zip(bounds, bounds[1:])]
    _start_helpers(max(parts - 1, _process_width - 1))
    for t in tasks[1:]:
        _tasks.put(t)
    for t in tasks:
        if t.claim.acquire(blocking=False):
            t.run()
    # every range writes into the caller's arrays: wait for all
    for t in tasks:
        t.done.acquire()
    for t in tasks:
        if t.error is not None:
            raise t.error


# work, in elements touched, below which a part costs more to hand to a
# helper than to run
_MIN_PART = 1 << 15
# OpenBLAS takes its small-matrix kernel at M*N*K <= 1e6, whose bits can
# differ from the blocked kernel's; a split part must stay above it
_BLAS_SMALL = 10 ** 6
_FLOAT32 = np.dtype(np.float32)


def fork_parts(n: int, work: float, *arrays) -> int:
    """How many parts to split n rows of `work` total elements into: 1
    unless every array is float32 and each part gets _MIN_PART."""
    if n < 2 or work < 2 * _MIN_PART:
        return 1
    w = threads()
    if w == 1:
        return 1
    for a in arrays:
        if a.dtype != _FLOAT32:
            return 1
    return min(w, n, int(work // _MIN_PART))


def _rows(kernel, n: int, parts: int, shape) -> np.ndarray:
    """kernel(lo, hi, out) over rows [0, n) along axis 0.

    With one part it is one call whose out is None, so the kernel makes
    its result as the unsplit op always did; else the parts write into
    one C-ordered float32 array of `shape` on the fork-join. Callers
    split only where numpy's unsplit result is C-ordered too (see
    _row_parts), so a split changes no result's layout, and with it no
    later reduction's summation order.
    """
    if parts == 1:
        return kernel(0, n, None)
    out = np.empty(shape, dtype=np.float32)
    fork(lambda lo, hi: kernel(lo, hi, out[lo:hi]), n, parts)
    return out


def _row_parts(x: np.ndarray, *others: np.ndarray) -> int:
    """Parts for an op on C-ordered arrays whose rows along axis 0 are
    independent."""
    if x.ndim < 2 or x.size < 2 * _MIN_PART:
        return 1
    if not all(a.flags.c_contiguous for a in (x,) + others):
        return 1
    return fork_parts(len(x), x.size, x, *others)


def _ewise(ufunc, x: np.ndarray, y) -> np.ndarray:
    """ufunc(x, y), split by rows when y is a Python number or an array
    of x's shape."""
    if x.size < 2 * _MIN_PART:
        return ufunc(x, y)
    # a numpy scalar is not weak in type promotion: it takes the whole path
    scalar = type(y) in (int, float)
    if scalar:
        p = _row_parts(x)
    elif isinstance(y, np.ndarray) and y.shape == x.shape:
        p = _row_parts(x, y)
    else:
        p = 1
    if p == 1:
        return ufunc(x, y)
    return _rows(lambda lo, hi, out: ufunc(x[lo:hi], y if scalar else y[lo:hi],
                                           out=out),
                 len(x), p, x.shape)


class _Node:
    """The graph record of a recorded op's output: its gradient, the nodes
    of the recorded ops that made its inputs, and the closure that maps
    its gradient to its inputs'.

    It holds no tensor data: the closure keeps exactly the arrays its
    backward reads, so an output that no backward reads dies with its
    Tensor. ``backward`` drops the closure and the parent links once the
    node has run.
    """

    __slots__ = ("grad", "dtype", "parents", "backward")

    def __init__(self, dtype, parents: tuple,
                 backward: Callable[[np.ndarray], None]):
        self.grad: Optional[np.ndarray] = None
        self.dtype = dtype
        self.parents = parents
        self.backward: Optional[Callable[[np.ndarray], None]] = backward

    def accumulate_grad(self, g: np.ndarray):
        self.grad = _accumulated(self.grad, g, self.dtype)


def _accumulated(grad, g: np.ndarray, dtype) -> np.ndarray:
    """grad + g, in place into grad when there is one; else g itself (see
    gradient ownership above), cast if its dtype differs."""
    if grad is None:
        return g if g.dtype == dtype else g.astype(dtype)
    grad += g
    return grad


class Tensor:
    """A dense n-d float array, optionally participating in the grad graph.

    A leaf keeps its own gradient; the output of a recorded op keeps it in
    that op's node.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_node")

    def __init__(self, data, requires_grad=False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
            if not np.issubdtype(data.dtype, np.floating):
                data = data.astype(DEFAULT_DTYPE)
        self.data = data
        self.requires_grad = requires_grad
        self._grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._grad if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]):
        if self._node is None:
            self._grad = g
        else:
            self._node.grad = g

    @property
    def _backward(self) -> Optional[Callable[[np.ndarray], None]]:
        """The recording op's backward; None for a leaf or once consumed."""
        return None if self._node is None else self._node.backward

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

    def accumulate_grad(self, g: np.ndarray):
        # only a leaf is a sink (see _sink): an op's output sinks into its node
        self._grad = _accumulated(self._grad, g, self.data.dtype)

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

    def __pow__(self, p):
        return pow_const(self, p)


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=requires_grad)


def _tracked(*tensors: Tensor) -> bool:
    return _grad_mode.enabled and any(
        t.requires_grad or t._node is not None for t in tensors
    )


def _sink(t: Tensor):
    """What a backward accumulates t's gradient into: the node of the op
    that made t, else t itself. Unlike t, a node pins no data."""
    return t if t._node is None else t._node


def _recorded(data: np.ndarray, parents, backward_fn) -> Tensor:
    """data as the output of an op on `parents`, recorded with backward_fn
    as its node's closure only when the calling thread records a graph and
    some parent is tracked; this alone decides whether an op records.

    backward_fn(g) must reach its inputs through _sink and keep only the
    arrays it reads, never a Tensor.
    """
    out = Tensor(data)
    if _tracked(*parents):
        nodes = tuple(p._node for p in parents if p._node is not None)
        out._node = _Node(data.dtype, nodes, backward_fn)
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
        data = _ewise(np.add, a.data, b)

        def bwd(g, ra=_sink(a), shape=a.data.shape):
            ra.accumulate_grad(_unbroadcast(g, shape))

        return _recorded(data, (a,), bwd)
    data = _ewise(np.add, a.data, b.data)

    def bwd(g, ra=_sink(a), rb=_sink(b), sa=a.data.shape, sb=b.data.shape):
        ga, gb = _unbroadcast(g, sa), _unbroadcast(g, sb)
        ra.accumulate_grad(ga)
        # two views of g share memory: the second input gets a copy
        rb.accumulate_grad(np.copy(gb) if np.may_share_memory(ga, gb) else gb)

    return _recorded(data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        data = _ewise(np.multiply, a.data, b)

        def bwd(g, ra=_sink(a), shape=a.data.shape, b=b):
            ra.accumulate_grad(_unbroadcast(_ewise(np.multiply, g, b), shape))

        return _recorded(data, (a,), bwd)
    data = a.data * b.data

    def bwd(g, ra=_sink(a), rb=_sink(b), x=a.data, y=b.data):
        ra.accumulate_grad(_unbroadcast(g * y, x.shape))
        rb.accumulate_grad(_unbroadcast(g * x, y.shape))

    return _recorded(data, (a, b), bwd)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data ** p

    def bwd(g, ra=_sink(a), x=a.data, p=p):
        ra.accumulate_grad(g * (p * x ** (p - 1.0)))

    return _recorded(data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def bwd(g, ra=_sink(a), x=a.data):
        ra.accumulate_grad(g / x)

    return _recorded(data, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def bwd(g, ra=_sink(a), x=a.data):
        ra.accumulate_grad(g * np.sign(x))

    return _recorded(data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bwd(g, ra=_sink(a), x=a.data):
        ra.accumulate_grad(g * (x > 0))

    return _recorded(data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    # scipy is imported where first used, so a CLI start pays none of it
    from scipy.special import expit
    data = expit(a.data)

    def bwd(g, ra=_sink(a), data=data):
        ra.accumulate_grad(g * data * (1.0 - data))

    return _recorded(data, (a,), bwd)


# GELU's float32 kernel. Phi(-a) for a = |x| >= 0 comes from Abramowitz &
# Stegun 7.1.26, erfc(z) ~= t*(a1 + t*(a2 + ... + t*a5)) * exp(-z*z) with
# t = 1/(1 + p*z) and |error| <= 1.5e-7; the coefficients below carry the
# 1/2 of Phi(-a) = erfc(a/sqrt(2))/2. The kernel walks the input in blocks
# whose scratch buffers stay in cache, which is several times faster than
# whole-array temporaries or scipy's erf.
_AS_P = 0.3275911 * _INV_SQRT2
_AS_HALF_COEFFS = tuple(0.5 * c for c in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
_GELU_BLOCK = 1 << 16


def _gelu_f32(x: np.ndarray, want_grad: bool):
    """GELU as relu(x) - |x|*Phi(-|x|) on float32; also its derivative
    Phi(x) + x*pdf(x) if asked.

    Never writes into x; the output and the derivative are fresh C-ordered
    arrays. The values split over the fork-join.
    """
    src = np.ascontiguousarray(x).reshape(-1)
    out = np.empty(x.shape, dtype=np.float32)
    deriv = np.empty(x.shape, dtype=np.float32) if want_grad else None
    flat_out = out.reshape(-1)
    flat_deriv = deriv.reshape(-1) if want_grad else None
    n = src.size
    # about ten passes over each value
    fork(lambda lo, hi: _gelu_f32_range(src, flat_out, flat_deriv, lo, hi),
         n, fork_parts(n, 10 * n, src))
    return out, deriv


def _gelu_f32_range(src, flat_out, flat_deriv, start: int, stop: int):
    """The GELU kernel on src[start:stop], in cache-sized blocks."""
    want_grad = flat_deriv is not None
    blk = max(1, min(stop - start, _GELU_BLOCK))
    abs_buf, t_buf, q_buf = (np.empty(blk, dtype=np.float32) for _ in range(3))
    c5, c4, c3, c2, c1 = _AS_HALF_COEFFS
    # +-inf makes a*a overflow and inf*0 invalid; both end in the NaN a
    # non-finite input should give
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(start, stop, blk):
            hi = min(lo + blk, stop)
            m = hi - lo
            xs, o = src[lo:hi], flat_out[lo:hi]
            a, t, q = abs_buf[:m], t_buf[:m], q_buf[:m]
            np.abs(xs, out=a)
            np.multiply(a, a, out=q)
            q *= -0.5
            np.exp(q, out=q)
            if want_grad:
                d = flat_deriv[lo:hi]
                np.multiply(q, _INV_SQRT2PI, out=d)
                d *= xs  # x * pdf(x)
            np.multiply(a, _AS_P, out=t)
            t += 1.0
            np.reciprocal(t, out=t)
            np.multiply(t, c5, out=o)
            for c in (c4, c3, c2, c1):
                o += c
                o *= t
            q *= o  # Phi(-|x|)
            if want_grad:
                np.subtract(0.5, q, out=t)
                np.copysign(t, xs, out=t)
                t += 0.5  # Phi(x)
                d += t  # float addition commutes: the bits of cdf + x*pdf
            q *= a
            np.maximum(xs, 0.0, out=o)
            o -= q


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with the standard-normal CDF.

    float32 runs a blocked kernel within 5e-7 absolute of the float64
    result; float64 uses scipy's erf. A tracked call stores the derivative
    Phi(x) + x*pdf(x), so the backward is one multiply.
    """
    x = a.data
    tracked, deriv = _tracked(a), None
    if x.dtype == np.float32:
        data, deriv = _gelu_f32(x, want_grad=tracked)
    else:
        from scipy.special import erf
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        data = x * cdf
        if tracked:
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
            deriv = cdf + x * pdf

    def bwd(g, ra=_sink(a), deriv=deriv):
        ra.accumulate_grad(_ewise(np.multiply, g, deriv))

    return _recorded(data, (a,), bwd)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bwd(g, ra=_sink(a), shape=a.data.shape):
        ra.accumulate_grad(g.reshape(shape))

    return _recorded(data, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    data = np.transpose(a.data, axes)

    def bwd(g, ra=_sink(a), axes=tuple(axes)):
        ra.accumulate_grad(np.transpose(g, np.argsort(axes)))

    return _recorded(data, (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)

    def bwd(g, sinks=tuple(_sink(p) for p in parts),
            sizes=tuple(p.data.shape[axis] for p in parts), axis=axis):
        offsets = np.cumsum((0,) + sizes)
        for p, lo, hi in zip(sinks, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            p.accumulate_grad(g[tuple(sl)])

    return _recorded(data, parts, bwd)


def index(a: Tensor, sl) -> Tensor:
    """Basic slicing (tuple of slices/ints); gradient scatters back."""
    data = a.data[sl]

    def bwd(g, ra=_sink(a), shape=a.data.shape, dtype=a.data.dtype, sl=sl):
        gi = np.zeros(shape, dtype=dtype)
        gi[sl] = g
        ra.accumulate_grad(gi)

    return _recorded(data, (a,), bwd)


def _row_scatter(idx: np.ndarray, rows: int, dtype):
    """The (rows, len(idx)) CSR matrix with a one at (idx[i], i): times the
    gradient of a row gather, it sums each row's entries in index order."""
    # imported at the first backward: no_grad inference never pays for
    # scipy.sparse's modules
    from scipy.sparse import csr_matrix
    n = len(idx)
    return csr_matrix((np.ones(n, dtype=dtype), (idx, np.arange(n))),
                      shape=(rows, n))


def take_rows(a: Tensor, idx: np.ndarray,
              scatter_cache: Optional[dict] = None) -> Tensor:
    """Gather rows along axis 0 by a 1-D integer index (repeats allowed).

    The backward scatters the gradient through ``_row_scatter(idx, ...)``.
    A caller that gathers by the same index again passes a dict that keeps
    that matrix, per dtype, for its later backwards; it stays empty while
    no backward runs.
    """
    data = a.data[idx]

    def bwd(g, ra=_sink(a), shape=a.data.shape, dtype=a.data.dtype, idx=idx,
            cache=scatter_cache):
        s = None if cache is None else cache.get(dtype)
        if s is None:
            s = _row_scatter(idx, shape[0], dtype)
            if cache is not None:
                cache[dtype] = s
        gi = (s @ g.reshape(len(idx), -1)).reshape(shape)
        ra.accumulate_grad(gi)

    return _recorded(data, (a,), bwd)


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g, ra=_sink(a), shape=a.data.shape, axis=axis, keepdims=keepdims):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # broadcast_to gives a read-only view: a gradient is written into
        ra.accumulate_grad(np.copy(np.broadcast_to(g, shape)))

    return _recorded(data, (a,), bwd)


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
    data = _batched_matmul(a.data, b.data)

    def bwd(g, ra=_sink(a), rb=_sink(b), x=a.data, y=b.data):
        ga = _batched_matmul(g, np.swapaxes(y, -1, -2))
        gb = _batched_matmul(np.swapaxes(x, -1, -2), g)
        ra.accumulate_grad(_unbroadcast(ga, x.shape))
        rb.accumulate_grad(_unbroadcast(gb, y.shape))

    return _recorded(data, (a, b), bwd)


def _batched_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y; a stack of products with one batch shape splits over its
    first axis, each product still one BLAS call."""
    if x.ndim >= 3 and x.shape[:-2] == y.shape[:-2]:
        # matmul's result is C-ordered whatever its inputs' layout
        p = fork_parts(len(x), x.size // x.shape[-1] * y.shape[-1], x, y)
        if p > 1:
            return _rows(lambda lo, hi, out: np.matmul(x[lo:hi], y[lo:hi],
                                                       out=out),
                         len(x), p, x.shape[:-1] + y.shape[-1:])
    return x @ y


def _matmul_rows(x: np.ndarray, w: np.ndarray,
                 bias: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ w (+ bias) for 2-D w; a 2-D x splits over its rows, each part
    kept on the BLAS kernel path of the whole product. A transposed x
    splits with no copy: numpy hands BLAS each row block transposed."""
    def kernel(lo, hi, out):
        out = np.matmul(x[lo:hi], w, out=out)
        if bias is not None:
            out += bias
        return out

    m, n = len(x), w.shape[1]
    arrays = (x, w) if bias is None else (x, w, bias)
    p = fork_parts(m, m * n, *arrays) if x.ndim == 2 else 1
    while p > 1 and (m // p) * n * len(w) <= _BLAS_SMALL:
        p -= 1
    return _rows(kernel, m, p, (m, n))


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w (+ b). Fused so one graph node covers the affine map."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(
            f"linear: input dim {x.data.shape} incompatible with weight {w.data.shape}"
        )
    data = _matmul_rows(x.data, w.data, None if b is None else b.data)
    parents = (x, w) if b is None else (x, w, b)

    def bwd(g, rx=_sink(x), rw=_sink(w), rb=None if b is None else _sink(b),
            xd=x.data, wd=w.data):
        rx.accumulate_grad(_matmul_rows(g, wd.T))
        x2 = xd.reshape(-1, xd.shape[-1])
        gd = g.reshape(-1, g.shape[-1])
        rw.accumulate_grad(_matmul_rows(x2.T, gd))
        if rb is not None:
            rb.accumulate_grad(gd.sum(axis=0))

    return _recorded(data, parents, bwd)


# ---------------------------------------------------------------------------
# normalization / attention pieces
# ---------------------------------------------------------------------------

def softmax_lastdim(a: Tensor) -> Tensor:
    """Stable softmax along the last dimension."""
    if a.data.shape[-1] < 1:
        raise DimensionError("softmax over empty last dimension")
    x = a.data

    def rows(lo, hi, out):
        xs = x[lo:hi]
        out = np.subtract(xs, xs.max(axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)
        return out

    data = _rows(rows, len(x), _row_parts(x), x.shape)

    def bwd(g, ra=_sink(a), data=data):
        def rows(lo, hi, out):
            gs, ds = g[lo:hi], data[lo:hi]
            dot = (gs * ds).sum(axis=-1, keepdims=True)
            return np.multiply(ds, gs - dot, out=out)

        ra.accumulate_grad(_rows(rows, len(g), _row_parts(g, data), g.shape))

    return _recorded(data, (a,), bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-token normalization over the last (channel) dimension."""
    c = a.data.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match channels ({c},)"
        )
    # x - mu is formed in the xhat array and normalised there; without a
    # graph that array is also scaled in place into the output, while a
    # recorded graph keeps xhat for the backward and a wider gamma/beta
    # dtype gets an output of its own
    x, gd, bd = a.data, gamma.data, beta.data
    tracked = _tracked(a, gamma, beta)
    # both in x's memory order, as numpy gives x - mu
    xhat = np.empty_like(x)
    inv_std = np.empty(x.shape[:-1] + (1,), dtype=x.dtype)
    data = xhat
    if tracked or np.result_type(x, gd, bd) != x.dtype:
        data = np.empty_like(x, dtype=np.result_type(x, gd, bd))

    def rows(lo, hi):
        xs, xc, inv = x[lo:hi], xhat[lo:hi], inv_std[lo:hi]
        np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=xc)
        var = np.einsum("...c,...c->...", xc, xc)[..., None]
        var /= c
        var += eps
        np.divide(1.0, np.sqrt(var, out=var), out=inv)
        xc *= inv
        out = np.multiply(xc, gd, out=data[lo:hi])
        out += bd

    fork(rows, len(x), _row_parts(x, gd, bd))

    def bwd(g, ra=_sink(a), rgamma=_sink(gamma), rbeta=_sink(beta), gd=gd,
            xhat=xhat, inv_std=inv_std):
        red = tuple(range(g.ndim - 1))
        rgamma.accumulate_grad((g * xhat).sum(axis=red))
        rbeta.accumulate_grad(g.sum(axis=red))

        def rows(lo, hi, out):
            xs = xhat[lo:hi]
            dxhat = g[lo:hi] * gd
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xs).mean(axis=-1, keepdims=True)
            return np.multiply(inv_std[lo:hi], dxhat - m1 - xs * m2, out=out)

        ra.accumulate_grad(_rows(rows, len(g), _row_parts(g, xhat, gd), g.shape))

    return _recorded(data, (a, gamma, beta), bwd)


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
           padding: int = 0) -> Tensor:
    """Dense cross-correlation conv on a channels-last (H, W, C_in) map;
    returns (H_out, W_out, C_out).

    w is (C_out, C_in, k, k). The windows form an im2col matrix whose
    columns run in w's (C_in, k, k) order, so the conv is one product
    with w's (C_in*k*k, C_out) view, split over output positions.
    """
    h, win, cin = t.data.shape
    cout, cin_w, k, k2 = w.data.shape
    if k != k2:
        raise DimensionError("conv2d expects square kernels")
    if cin_w != cin:
        raise DimensionError(
            f"conv2d weight {w.data.shape} does not match {cin} input channels")
    if b is not None and b.data.shape != (cout,):
        raise DimensionError(f"conv2d bias shape {b.data.shape} != ({cout},)")
    ho = _conv_out_side(h, k, stride, padding)
    wo = _conv_out_side(win, k, stride, padding)

    if padding:
        pad = np.pad(t.data, ((padding, padding), (padding, padding), (0, 0)))
    else:
        pad = t.data
    windows = np.lib.stride_tricks.sliding_window_view(pad, (k, k), axis=(0, 1))
    # (ho, wo, C_in, k, k): a view where the windows tile a C-ordered map
    # (a 1x1 conv), else a copy
    col = windows[::stride, ::stride].reshape(ho * wo, cin * k * k)
    data = _matmul_rows(col, w.data.reshape(cout, -1).T,
                        None if b is None else b.data).reshape(ho, wo, cout)

    parents = (t, w) if b is None else (t, w, b)

    # an input that is no parameter and no op's output (the patch embed's
    # image) gets no gradient
    def bwd(g, rt=_sink(t) if _tracked(t) else None, rw=_sink(w),
            rb=None if b is None else _sink(b), dtype=t.data.dtype, wd=w.data,
            col=col):
        gm = g.reshape(ho * wo, cout)
        if rb is not None:
            rb.accumulate_grad(gm.sum(axis=0))
        rw.accumulate_grad(_matmul_rows(gm.T, col).reshape(wd.shape))
        if rt is None:
            return
        dpatch = _matmul_rows(gm, wd.reshape(cout, -1)).reshape(
            ho, wo, cin, k, k)
        dpad = np.zeros((h + 2 * padding, win + 2 * padding, cin), dtype=dtype)

        def scatter(c0, c1):  # input channels c0..c1, every tap in order
            for i in range(k):
                for j in range(k):
                    dpad[i:i + stride * (ho - 1) + 1:stride,
                         j:j + stride * (wo - 1) + 1:stride,
                         c0:c1] += dpatch[:, :, c0:c1, i, j]

        fork(scatter, cin, fork_parts(cin, cin * ho * wo * k * k, dpad, g))
        if padding:
            dpad = dpad[padding:-padding, padding:-padding]
        rt.accumulate_grad(dpad)

    return _recorded(data, parents, bwd)


# output values per row block of the depthwise kernel: each block runs all
# nine taps while its rows and scratch stay in cache
_DW_BLOCK = 1 << 16
_DW_PADS = ("edge", "zero")


def depthwise_conv3x3(tokens: Tensor, grid: tuple, w: Tensor,
                      b: Optional[Tensor], pad: str) -> Tensor:
    """Depthwise 3x3 cross-correlation, stride 1, on row-major (h*w, C)
    tokens; returns (h*w, C) tokens.

    pad "edge" replicates the border tokens, "zero" pads with zeros. The
    map stays channels-last: each of the nine taps is one multiply-add of
    a contiguous (h, w*C) row slice of the padded (h+2, (w+2)*C) map with
    that tap's weights tiled along the row.
    """
    h, wd = grid
    length, c = tokens.data.shape
    if length != h * wd:
        raise DimensionError(f"{length} tokens do not fill a {h}x{wd} grid")
    if w.data.shape != (c, 1, 3, 3):
        raise DimensionError(
            f"depthwise 3x3 weight {w.data.shape} != ({c}, 1, 3, 3)")
    if b is not None and b.data.shape != (c,):
        raise DimensionError(f"depthwise 3x3 bias {b.data.shape} != ({c},)")
    if pad not in _DW_PADS:
        raise ContractError(f"pad must be one of {_DW_PADS}, got {pad!r}")
    dtype = np.result_type(tokens.data, w.data)
    row = wd * c
    padded = np.empty((h + 2, wd + 2, c), dtype=dtype)
    padded[1:-1, 1:-1] = tokens.data.reshape(h, wd, c)
    if pad == "edge":
        padded[0, 1:-1] = padded[1, 1:-1]
        padded[-1, 1:-1] = padded[-2, 1:-1]
        padded[:, 0] = padded[:, 1]
        padded[:, -1] = padded[:, -2]
    else:
        padded[0] = padded[-1] = 0.0
        padded[:, 0] = padded[:, -1] = 0.0
    pmap = padded.reshape(h + 2, (wd + 2) * c)
    # taps[3*i + j] is tap (i, j) of every channel, tiled along a row
    taps = np.tile(w.data[:, 0].reshape(c, 9).T, (1, wd))

    bias = None if b is None else np.tile(b.data, wd)
    data = np.empty((h, row), dtype=dtype)
    rows = max(1, min(h, _DW_BLOCK // row))

    def blocks(start, stop):  # output rows start..stop, a block at a time
        tmp = np.empty((min(rows, stop - start), row), dtype=dtype)
        for y0 in range(start, stop, rows):
            y1 = min(stop, y0 + rows)
            out, scratch = data[y0:y1], tmp[:y1 - y0]
            for k in range(9):
                i, j = divmod(k, 3)
                src = pmap[y0 + i:y1 + i, j * c:j * c + row]
                if k == 0:
                    np.multiply(src, taps[k], out=out)
                else:
                    np.multiply(src, taps[k], out=scratch)
                    out += scratch
            if bias is not None:
                out += bias

    fork(blocks, h, fork_parts(h, 10 * data.size, data))
    data = data.reshape(length, c)

    parents = (tokens, w) if b is None else (tokens, w, b)

    def bwd(g, rt=_sink(tokens), rw=_sink(w), rb=None if b is None else _sink(b),
            pmap=pmap, taps=taps):
        if rb is not None:
            rb.accumulate_grad(g.sum(axis=0))
        g2 = g.reshape(h, row)
        dw = np.empty((9, c), dtype=dtype)
        dmap = np.zeros((h + 2, wd + 2, c), dtype=dtype)
        dflat = dmap.reshape(h + 2, (wd + 2) * c)
        tmp = np.empty_like(g2)
        for k in range(9):
            i, j = divmod(k, 3)
            cols = slice(j * c, j * c + row)
            dw[k] = np.einsum("yr,yr->r", g2, pmap[i:i + h, cols]).reshape(
                wd, c).sum(axis=0)
            np.multiply(g2, taps[k], out=tmp)
            dflat[i:i + h, cols] += tmp
        rw.accumulate_grad(dw.T.reshape(c, 1, 3, 3))
        if pad == "edge":
            # each border cell copied an edge token: fold its gradient back,
            # columns first so the corners reach the corner tokens
            dmap[:, 1] += dmap[:, 0]
            dmap[:, -2] += dmap[:, -1]
            dmap[1] += dmap[0]
            dmap[-2] += dmap[-1]
        rt.accumulate_grad(dmap[1:-1, 1:-1].reshape(length, c))

    return _recorded(data, parents, bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Populate gradients of every reachable requires_grad leaf.

    Consumes the graph: each node drops its closure, and with it the
    arrays the closure kept, and its parent links once it has run. A
    second backward through any of its nodes raises ContractError.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("backward expects a scalar Tensor loss")
    root = loss._node
    if root is None:
        raise ContractError("loss is not connected to the gradient graph")
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")

    topo: list[_Node] = []
    visited: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.backward is None:
            raise ContractError("the loss's graph was consumed by an earlier "
                                "backward; re-run the forward pass")
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        fn, node.backward, node.parents = node.backward, None, ()
        g, node.grad = node.grad, None  # free intermediate gradients
        if g is not None:
            fn(g)
        del fn, g  # the closure's arrays go now, not at the next node
    root.grad = np.ones_like(loss.data)  # not the ones handed down


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
        # C order: the optimizer updates each parameter through a flat view
        t = Tensor(np.asarray(data, order="C"), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

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
        for name, ana in analytic.items():
            if not np.isfinite(ana).all():  # err > max_err is false for NaN
                raise NumericError(f"non-finite analytic gradient for {name}")
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

def trunc_normal(rng: Optional[np.random.Generator], shape,
                 std: float = 0.02) -> np.ndarray:
    """Zero-mean normal truncated at +-2 sigma (resampling).

    With no rng nothing is drawn and the values are zeros, for a model
    whose values a checkpoint replaces or that is read only for shapes.
    """
    if rng is None:
        # an anonymous map: its zero pages stay untouched until written and
        # go back to the system when the array is freed. np.zeros may get
        # reused heap memory from calloc, which must clear and so touch it;
        # a checkpoint load then holds two resident models at its swap
        size = int(np.prod(shape))
        return np.frombuffer(mmap.mmap(-1, 4 * size or 1),
                             dtype=DEFAULT_DTYPE, count=size).reshape(shape)
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


def glorot_normal(rng: Optional[np.random.Generator], shape, fan_in: int,
                  fan_out: int) -> np.ndarray:
    """Truncated normal with the dimension-scaled Glorot std.

    A fixed small std leaves attention logits and projection outputs far
    below unit scale at widths in the hundreds, which stalls short
    training runs; scaling by fan keeps activations near unit variance.
    """
    return trunc_normal(rng, shape, std=float(np.sqrt(2.0 / (fan_in + fan_out))))
