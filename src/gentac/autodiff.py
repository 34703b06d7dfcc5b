"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Tiny tape-based engine: each op returns a fresh `Tensor` holding the numpy
result plus a closure that routes the incoming adjoint to its parents. The
graph is rebuilt on every forward pass; `backward()` toposorts and walks it
once. Parameters are long-lived leaves that accumulate gradients until
`zero_grad()`.

With gradients enabled (the default) every op output is checked for NaN/Inf
and raises `NonFiniteError` naming the op, so numerical blow-ups surface at
the op that produced them.

Inference mode: inside `with no_grad():` the same ops run the same
arithmetic but keep no tape (no parents, no backward closure) and skip the
per-op finiteness check. A forward-only caller checks its final output once
with `check_finite`, naming itself; calling `backward` on a tensor built
there raises `GraphError`.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np


class NonFiniteError(ValueError):
    """An op produced NaN or Inf."""


class GraphError(RuntimeError):
    """backward() called on something that is not a live scalar graph node."""


_grad_enabled = contextvars.ContextVar("gentac_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Inference mode for the enclosed block: no tape, no per-op checks."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def check_finite(data, op):
    """Raise `NonFiniteError` naming `op` unless every value is finite."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"op '{op}' produced a non-finite value")


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "parents", "backward_fn", "op")

    def __init__(self, data, parents=(), backward_fn=None, op="const"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        if _grad_enabled.get():
            check_finite(self.data, op)
            self.parents = parents
            self.backward_fn = backward_fn
        else:
            self.parents = ()
            self.backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape})"

    # operator sugar; non-Tensor operands are treated as constants
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def __getitem__(self, idx):
        return take(self, idx)

    def backward(self):
        backward(self)


class Parameter(Tensor):
    """Trainable leaf: value plus accumulated gradient, addressed by name."""

    __slots__ = ("name",)

    def __init__(self, value, name):
        super().__init__(value, op="param")
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(loss: Tensor):
    """Populate gradients of all Parameters reachable from scalar `loss`."""
    if loss.data.size != 1:
        raise GraphError("backward() needs a scalar loss")
    if not loss.parents and not isinstance(loss, Parameter):
        raise GraphError("backward() on a detached constant: no graph attached")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Parameter):
            node.grad = node.grad + g
            continue
        node.grad = g
        if node.backward_fn is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if pg is None:
                continue
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
    return Tensor(out, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)
    return Tensor(out, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)
    return Tensor(out, (a, b), bwd, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must be >= 2-D, leading axes batch as in numpy."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions disagree ({a.data.shape} @ {b.data.shape})"
        )
    out = a.data @ b.data
    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)
    return Tensor(out, (a, b), bwd, "matmul")


def take(a: Tensor, idx) -> Tensor:
    out = a.data[idx]
    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)
    return Tensor(out, (a,), bwd, "take")


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    def bwd(g):
        return (g.reshape(a.shape),)
    return Tensor(out, (a,), bwd, "reshape")


def swapaxes(a: Tensor, ax1, ax2) -> Tensor:
    out = np.swapaxes(a.data, ax1, ax2)
    def bwd(g):
        return (np.swapaxes(g, ax1, ax2),)
    return Tensor(out, (a,), bwd, "swapaxes")


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))
    return Tensor(out, tuple(tensors), bwd, "concat")


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)
    return Tensor(out, (a,), bwd, "sum")


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), as_tensor(1.0 / n))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    def bwd(g):
        return (g * out,)
    return Tensor(out, (a,), bwd, "exp")


def log(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.data)
    def bwd(g):
        return (g / a.data,)
    return Tensor(out, (a,), bwd, "log")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    def bwd(g):
        return (g * (1.0 - out * out),)
    return Tensor(out, (a,), bwd, "tanh")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    def bwd(g):
        return (g * (a.data > 0.0),)
    return Tensor(out, (a,), bwd, "relu")


def softmax_array(x: np.ndarray, axis=-1) -> np.ndarray:
    """Stable numpy softmax along `axis`: exp(x - max) / sum, computed in
    place on the one fresh array that the max subtraction allocates."""
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(a: Tensor, axis=-1) -> Tensor:
    """Stable softmax along `axis` (max-subtracted before exponentiation)."""
    out = softmax_array(a.data, axis=axis)
    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)
    return Tensor(out, (a,), bwd, "softmax")


def log_softmax(a: Tensor, axis=-1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)
    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)
    return Tensor(out, (a,), bwd, "log_softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    # np.var's arithmetic, reusing x - mu instead of recomputing it
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / x.data.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = gain.data * xhat
    out += bias.data
    def bwd(g):
        dgain = _unbroadcast(g * xhat, gain.shape)
        dbias = _unbroadcast(g, bias.shape)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias
    return Tensor(out, (x, gain, bias), bwd, "layer_norm")
