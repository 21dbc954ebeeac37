"""Dense float tensors with a recording tape for reverse-mode gradients.

Values are numpy arrays (float32 by default, float64 for verification).
Operations run eagerly; while a Tape is active, each op records the node
needed to replay the chain rule in reverse. No implicit broadcasting is
performed except bias addition, scalar operands, and size-1 axes that an
op explicitly accepts.
"""

from __future__ import annotations

import weakref
from itertools import accumulate
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Guards against division by zero in gradient formulas.
GRAD_TINY = 1e-12


# A stand-in for perfbench/worker.py, which resets and reads `meter.peak` in
# traced jobs; memory figures come from tracemalloc (manner.bench). The
# benchmark change that retires the tensor.meter_* metrics removes it.
meter = SimpleNamespace(peak=0, reset_peak=lambda: None)


class Tensor:
    """Immutable-by-convention array node.

    Tensors produced by ops must not be mutated. Leaf tensors (parameters,
    batch-norm running stats) may have their `data` rewritten between steps
    by the optimizer or a checkpoint load.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: weakref.ref | None = None

    # -- introspection -------------------------------------------------

    @property
    def node(self) -> "Node | None":
        """The tape node that produced this tensor, while its tape lives.

        The link is weak: only the tape holds nodes, so dropping the tape
        frees a step's graph by refcount, without the cyclic collector.
        """
        return self._node() if self._node is not None else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_operands("sub", self, other)[1], self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis, keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


class Node:
    """One recorded primitive application: gradient routing, not tensors.

    `parents[i]` is the node that produced input i, the leaf parameter
    itself, or None for a constant; backward() reads both the leaves and
    which inputs need a gradient off this tuple. The node holds no
    tensor, so an intermediate lives only while a caller or a backward
    closure reads it; `backward_fn` holds exactly what the op's backward
    formula reads, and backward() drops it once it has run.
    """

    __slots__ = ("parents", "backward_fn", "__weakref__")

    def __init__(self, parents, backward_fn):
        self.parents = parents
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive applications.

    Creation order is a topological order for a define-by-run graph, so
    backward() walks the list once in reverse. A tape is single-use: its
    backward frees what each op saved, so it cannot run a second time.
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._nodes)


_TAPE_STACK: list[Tape] = []


def _parent(t: Tensor) -> "Node | Tensor | None":
    """Where an input's gradient goes: its live node, itself as a leaf, or nowhere."""
    if t._node is not None:
        return t._node()
    return t if t.requires_grad else None


def apply_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, recording a node when a tape is active.

    `backward_fn(grad, needs)` must return per-input gradients (None where
    `needs[i]` is False, as input i has no parent, or where the input is
    non-differentiable). It should close over only the arrays its formula
    reads, not over input Tensors: a captured intermediate would live until
    the tape is dropped.
    """
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    if requires and _TAPE_STACK:
        node = Node(tuple(_parent(t) for t in inputs), backward_fn)
        out._node = weakref.ref(node)
        _TAPE_STACK[-1]._nodes.append(node)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` for every leaf on the tape.

    Walks the tape once in reverse. The leaves are the Tensor parents of
    the nodes it passes; those the loss never reached get a zero gradient.
    Gradients are keyed by the id of a node or leaf, both of which the tape
    keeps alive. Each node's backward_fn is dropped as the walk passes it,
    which frees what that op saved, so a tape runs once.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ValueError("this tape's backward has already run; record a new tape to differentiate again")
    tape.consumed = True
    root = loss.node or loss
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for node in reversed(tape._nodes):
        fn, node.backward_fn = node.backward_fn, None
        parents = node.parents
        for parent in parents:
            if isinstance(parent, Tensor):
                leaves[id(parent)] = parent
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, gt in zip(parents, fn(g, tuple(p is not None for p in parents))):
            if gt is None or parent is None:
                continue
            key = id(parent)
            grads[key] = grads[key] + gt if key in grads else gt
    for leaf in leaves.values():
        g = grads.get(id(leaf))
        if g is None:
            g = np.zeros_like(leaf.data)
        leaf.grad = g if leaf.grad is None else leaf.grad + g


# ---------------------------------------------------------------------
# helpers


def _operands(op: str, a: Tensor, b) -> tuple[Tensor, Tensor]:
    """The one broadcast rule of the binary ops: a scalar b becomes a
    constant of a's dtype; otherwise dtypes must match and shapes must be
    equal, one a scalar, or differ only in size-1 axes at equal rank."""
    if isinstance(b, (int, float, np.floating, np.integer)):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if not isinstance(b, Tensor):
        raise TypeError(f"{op}: unsupported operand type {type(b).__name__}")
    if a.dtype != b.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")
    sa, sb = a.shape, b.shape
    if sa == sb or sa == () or sb == ():
        return a, b
    if len(sa) != len(sb):
        raise ValueError(f"{op}: rank mismatch {sa} vs {sb}")
    if any(da != db and da != 1 and db != 1 for da, db in zip(sa, sb)):
        raise ValueError(f"{op}: shape mismatch {sa} vs {sb}")
    return a, b


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes the forward broadcast expanded."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum(), dtype=g.dtype)
    axes = tuple(i for i, (go, si) in enumerate(zip(g.shape, shape)) if si == 1 and go != 1)
    out = g.sum(axis=axes, keepdims=True) if axes else g
    return out.reshape(shape)


def _broadcast_op(out: np.ndarray, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """Record a binary op checked by _operands. grad_a(g) and grad_b(g) give
    each operand's gradient at the output's shape; it is summed back to
    that operand's shape here."""
    sa, sb = a.shape, b.shape

    def bwd(g, needs):
        return (_reduce_to(grad_a(g), sa) if needs[0] else None,
                _reduce_to(grad_b(g), sb) if needs[1] else None)

    return apply_op(out, (a, b), bwd)


# ---------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    a, b = _operands("add", a, b)
    return _broadcast_op(a.data + b.data, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b) -> Tensor:
    a, b = _operands("sub", a, b)
    return _broadcast_op(a.data - b.data, a, b, lambda g: g, lambda g: -g)


def mul(a: Tensor, b) -> Tensor:
    a, b = _operands("mul", a, b)
    # each operand's array is read only for the other operand's gradient
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return _broadcast_op(a.data * b.data, a, b, lambda g: g * bd, lambda g: g * ad)


def div(a: Tensor, b) -> Tensor:
    a, b = _operands("div", a, b)
    ad = a.data if b.requires_grad else None
    bd = b.data
    return _broadcast_op(a.data / bd, a, b, lambda g: g / bd, lambda g: -g * ad / (bd * bd))


def tabs(a: Tensor) -> Tensor:
    """|a|, subgradient 0 at 0."""
    sign = np.sign(a.data)
    return apply_op(np.abs(a.data), (a,), lambda g, needs: (g * sign,))


def tlog(a: Tensor) -> Tensor:
    """Natural log; the caller clamps away from zero first."""
    ad = a.data
    if np.any(ad <= 0):
        raise ValueError("log requires strictly positive input")
    return apply_op(np.log(ad), (a,), lambda g, needs: (g / ad,))


def tsqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)
    denom = np.maximum(2.0 * root, GRAD_TINY)
    return apply_op(root, (a,), lambda g, needs: (g / denom,))


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max; gradient follows the winning operand (ties to a)."""
    a, b = _operands("maximum", a, b)
    take_a = a.data >= b.data
    return _broadcast_op(np.where(take_a, a.data, b.data), a, b,
                         lambda g: g * take_a, lambda g: g * ~take_a)


# ---------------------------------------------------------------------
# activations


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return apply_op(out, (a,), lambda g, needs: (g * (out > 0),))


def sigmoid(a: Tensor) -> Tensor:
    # Clip keeps exp() finite; the output is saturated there anyway.
    z = np.clip(a.data, -60.0, 60.0)
    out = 1.0 / (1.0 + np.exp(-z))
    return apply_op(out, (a,), lambda g, needs: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return apply_op(out, (a,), lambda g, needs: (g * (1.0 - out * out),))


# ---------------------------------------------------------------------
# reductions


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.shape

    def bwd(g, needs):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, shape).copy(),)

    return apply_op(out, (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if a.ndim else 1
    if count == 0:
        raise ValueError("mean over an empty axis")
    out = a.data.mean(axis=axes, keepdims=keepdims)
    shape = a.shape

    def bwd(g, needs):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, shape) / count,)

    return apply_op(out, (a,), bwd)


def tmax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; gradient routes to the first argmax."""
    ax = axis % a.ndim
    if a.shape[ax] == 0:
        raise ValueError("max over an empty axis")
    out = a.data.max(axis=ax, keepdims=keepdims)
    first = np.expand_dims(np.argmax(a.data, axis=ax), ax)  # np.argmax keeps the first of ties
    shape = a.shape

    def bwd(g, needs):
        full = np.zeros(shape, dtype=g.dtype)
        np.put_along_axis(full, first, g if keepdims else np.expand_dims(g, ax), axis=ax)
        return (full,)

    return apply_op(out, (a,), bwd)


# ---------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    src = a.shape
    return apply_op(out, (a,), lambda g, needs: (g.reshape(src),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(a.ndim)):
        raise ValueError(f"transpose axes {axes} invalid for ndim {a.ndim}")
    inv = tuple(np.argsort(axes))
    return apply_op(a.data.transpose(axes), (a,), lambda g, needs: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat of zero tensors")
    ax = axis % tensors[0].ndim
    out = np.concatenate([t.data for t in tensors], axis=ax)
    splits = list(accumulate(t.shape[ax] for t in tensors[:-1]))

    def bwd(g, needs):
        parts = np.split(g, splits, axis=ax)
        return tuple(p if need else None for p, need in zip(parts, needs))

    return apply_op(out, tuple(tensors), bwd)


def pad_end(a: Tensor, amount: int) -> Tensor:
    """Zero-pad the last axis on the right."""
    if amount < 0:
        raise ValueError("pad amount must be >= 0")
    if amount == 0:
        return a
    width = [(0, 0)] * (a.ndim - 1) + [(0, amount)]
    out = np.pad(a.data, width)
    t = a.shape[-1]
    return apply_op(out, (a,), lambda g, needs: (g[..., :t],))


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    """Slice the last axis to [start, start+length)."""
    t = a.shape[-1]
    if start < 0 or length < 0 or start + length > t:
        raise ValueError(f"narrow [{start}, {start + length}) out of range for {t}")
    out = a.data[..., start : start + length].copy()
    shape = a.shape

    def bwd(g, needs):
        full = np.zeros(shape, dtype=g.dtype)
        full[..., start : start + length] = g
        return (full,)

    return apply_op(out, (a,), bwd)


# ---------------------------------------------------------------------
# gradient verification


def finite_diff_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float | None = None,
    max_checks_per_input: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare tape gradients of a scalar function against central differences.

    Returns the worst absolute discrepancy normalized by the largest
    finite-difference magnitude seen across all inputs, so parameters whose
    true gradient is structurally zero do not amplify rounding noise. A
    gradient corrupted by a factor of two reports ~1.0.
    """
    for t in inputs:
        if not t.requires_grad:
            raise ValueError("finite_diff_check inputs must require gradients")
        t.grad = None
    with Tape() as tape:
        out = f(*inputs)
    if out.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    backward(tape, out)

    worst_abs = 0.0
    scale = GRAD_TINY
    for t in inputs:
        if eps is None:
            step = 1e-5 if t.dtype == np.float64 else 1e-2
        else:
            step = eps
        idx = np.arange(t.size)
        if max_checks_per_input is not None and t.size > max_checks_per_input:
            gen = rng or np.random.default_rng(0)
            idx = gen.choice(t.size, size=max_checks_per_input, replace=False)
        fd = np.zeros(idx.size, dtype=np.float64)
        for j, i in enumerate(idx):
            # Index via unravel so perturbation lands in t.data regardless
            # of memory layout.
            pos = np.unravel_index(i, t.shape) if t.ndim else ()
            orig = t.data[pos]
            t.data[pos] = orig + step
            hi = float(f(*inputs).data)
            t.data[pos] = orig - step
            lo = float(f(*inputs).data)
            t.data[pos] = orig
            fd[j] = (hi - lo) / (2.0 * step)
        ad = t.grad.reshape(-1)[idx].astype(np.float64)
        worst_abs = max(worst_abs, float(np.max(np.abs(ad - fd))))
        scale = max(scale, float(np.max(np.abs(fd))))
    return worst_abs / scale
