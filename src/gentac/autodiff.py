"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Tiny tape-based engine: each op returns a fresh `Tensor` holding the numpy
result plus a closure that routes the incoming adjoint to its parents. The
graph is rebuilt on every forward pass; `backward()` toposorts and walks it
once. Parameters are long-lived leaves that accumulate gradients until
`zero_grad()`.

With gradients enabled (the default) every op output is checked for NaN/Inf
and raises `NonFiniteError` naming the op, so numerical blow-ups surface at
the op that produced them.

`attention_block` is the one fused op: a whole pre-norm residual attention
sublayer (layer norm, q/k/v projections, scaled and key-masked softmax
scores, weighted values, output projection and residual) runs as one tape
node whose parents are the input and the sublayer's eight parameters. Its
forward is the same numpy arithmetic as the chain of primitive ops, bit for
bit; its hand-written backward keeps only the arrays it reads (one
score-sized array, the softmax weights) and forms each weight gradient as
one flattened GEMM. Its inner values are not checked for finiteness on
their own; its output is. Along time it can also hand its keys and values
on as a second tape node, and take such keys and values of earlier frames
as a prefix (`attention_kv` computes them alone): the forecaster encodes a
history once and runs later rows over it. Calls that run over one prefix
again and again can write it once into a `kv_buffer` and pass that.

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
    if not np.isfinite(data).all():
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
        if b.data.ndim == 2:
            gb = _weight_grad(a.data, g)
        else:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return _unbroadcast(ga, a.shape), gb
    return Tensor(out, (a, b), bwd, "matmul")


def _weight_grad(x, g):
    """Adjoint of the 2-D weight `w` in `x @ w`: every row of every batch
    item in one GEMM, `x^T g` over the flattened rows, instead of one
    [d x d] product per batch item summed afterwards."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def take(a: Tensor, idx) -> Tensor:
    out = a.data[idx]
    # ints, slices, None and Ellipsis select each element at most once
    basic = all(isinstance(i, _BASIC_INDEX) and not isinstance(i, bool)
                for i in (idx if isinstance(idx, tuple) else (idx,)))
    def bwd(g):
        ga = np.zeros_like(a.data)
        if basic:
            ga[idx] += g  # 0 + g, as np.add.at computes it, without its loop
        else:
            np.add.at(ga, idx, g)  # a fancy index may repeat an element
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


_ROWS_PER_KEY = 32


def _columnwise(x, axis):
    """Whether a last-axis reduction of `x` runs column by column: with this
    many more rows than keys, numpy's reduce, which pays a fixed cost per
    row, loses to a loop that pays one per key."""
    keys = x.shape[-1]
    return axis in (-1, x.ndim - 1) and 0 < keys * _ROWS_PER_KEY * keys <= x.size


def _row_max(x, axis):
    """`x.max(axis, keepdims=True)`; a running maximum over the columns of
    many short rows is exact for any row length."""
    if not _columnwise(x, axis):
        return x.max(axis=axis, keepdims=True)
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    return m[..., None]


def _row_sum(x, axis):
    """`x.sum(axis, keepdims=True)` bit for bit. Numpy adds a row shorter
    than 8 left to right, so a column loop reproduces it there; from 8 on its
    pairwise sum unrolls by 8 and only numpy's own reduce gives its bits."""
    if not _columnwise(x, axis) or x.shape[-1] >= 8:
        return x.sum(axis=axis, keepdims=True)
    s = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        s += x[..., j]
    return s[..., None]


def softmax_array(x: np.ndarray, axis=-1, out=None) -> np.ndarray:
    """Stable numpy softmax along `axis`: exp(x - max) / sum, computed in
    place on `out` (`x` itself is allowed), or on the one fresh array that
    the max subtraction allocates."""
    out = np.subtract(x, _row_max(x, axis), out=out)
    np.exp(out, out=out)
    out /= _row_sum(out, axis)
    return out


def softmax(a: Tensor, axis=-1) -> Tensor:
    """Stable softmax along `axis` (max-subtracted before exponentiation)."""
    out = softmax_array(a.data, axis=axis)
    def bwd(g):
        return (_softmax_grad(out, g, axis),)
    return Tensor(out, (a,), bwd, "softmax")


def _softmax_grad(weights, g, axis):
    """Adjoint of the softmax input, given its output `weights`."""
    return weights * (g - _row_sum(g * weights, axis))


def log_softmax(a: Tensor, axis=-1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)
    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)
    return Tensor(out, (a,), bwd, "log_softmax")


_EPS = 1e-5  # layer norm's variance floor


def _layer_norm(x, gain, bias, eps):
    """(out, xhat, inv): the last axis of `x` normalized to zero mean and
    unit variance (`xhat`, with `inv` the reciprocal standard deviation),
    then scaled by `gain` and shifted by `bias`."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    # np.var's arithmetic, reusing x - mu instead of recomputing it
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = gain * xhat
    out += bias
    return out, xhat, inv


def _layer_norm_grad(g, xhat, inv, gain):
    """Adjoint of `_layer_norm`'s input, given the output adjoint `g`:
    `inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))` with
    `dxhat = g * gain`, evaluated in place in that order."""
    dx = g * gain
    m1 = dx.mean(axis=-1, keepdims=True)
    m2 = (dx * xhat).mean(axis=-1, keepdims=True)
    dx -= m1
    dx -= xhat * m2
    dx *= inv
    return dx


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps=_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    out, xhat, inv = _layer_norm(x.data, gain.data, bias.data, eps)
    def bwd(g):
        return (_layer_norm_grad(g, xhat, inv, gain.data),
                _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))
    return Tensor(out, (x, gain, bias), bwd, "layer_norm")


def _split_heads(y, heads):
    """[B x G x rows x d] -> [B x G x heads x rows x d/heads]."""
    B, G, T, d = y.shape
    return np.swapaxes(y.reshape(B, G, T, heads, d // heads), 2, 3)


def _merge_heads(y):
    """[B x G x heads x rows x dh] -> [B*G*rows x heads*dh]."""
    return np.swapaxes(y, 2, 3).reshape(-1, y.shape[2] * y.shape[4])


def _normalized_grad(dx, xhat, inv, ln_g, along_time):
    """(adjoint of the sublayer input, of ln_g, of ln_b) from the adjoint
    `dx` [B x G x T x d] of its normalized rows."""
    d = dx.shape[-1]
    dln_b = dx.reshape(-1, d).sum(0)
    if along_time:
        dx = np.swapaxes(dx, 1, 2)
    dln_g = (dx * xhat).reshape(-1, d).sum(0)
    return _layer_norm_grad(dx, xhat, inv, ln_g), dln_g, dln_b


def _kv_tensor(h, weights, rows, xhat, inv, k, v):
    """The keys and values `k`, `v` [B x E x heads x T x dh] of the
    normalized time-major `rows` of `h`, stacked into one tape node over `h`
    and the five parameters they read; its backward runs the layer norm's
    and the two projections' adjoints."""
    ln_g, ln_b, _, wk, wv, wv_b, _, _ = weights

    def bwd(g):
        dk, dv = _merge_heads(g[0]), _merge_heads(g[1])
        x_rows = rows.reshape(-1, rows.shape[-1])
        dx = dk @ wk.data.T
        dx += dv @ wv.data.T
        gh, dln_g, dln_b = _normalized_grad(dx.reshape(rows.shape), xhat, inv,
                                            ln_g.data, True)
        return gh, dln_g, dln_b, x_rows.T @ dk, x_rows.T @ dv, dv.sum(0)

    return Tensor(np.stack([k, v]), (h, ln_g, ln_b, wk, wv, wv_b), bwd,
                  "attention_kv")


def attention_kv(h: Tensor, weights, heads) -> Tensor:
    """The keys and values that `attention_block(h, weights, ...,
    along_time=True, with_kv=True)` returns beside its output, without the
    queries, scores and output: the layer norm and the two projections."""
    ln_g, ln_b, _, wk, wv, wv_b, _, _ = weights
    x, xhat, inv = _layer_norm(h.data, ln_g.data, ln_b.data, _EPS)
    rows = np.swapaxes(x, 1, 2)
    k = _split_heads(rows @ wk.data, heads)
    v = rows @ wv.data
    v += wv_b.data
    return _kv_tensor(h, weights, rows, xhat, inv, k, _split_heads(v, heads))


def kv_buffer(prefix: Tensor, draws, rows) -> np.ndarray:
    """A fresh [2 x B x G x heads x (P + rows) x dh] key/value buffer whose
    first P rows along the second-last axis hold the keys and values
    `prefix` [2 x B/draws x G x heads x P x dh], each prefix row repeated
    before `draws` consecutive rows as it is written, not copied first; the
    `rows` behind them are left for a block's own (`attention_block`). The
    buffer keeps a row's heads together in memory, as `_split_heads` views
    do, so both writes copy whole rows instead of gathering dh values at a
    time."""
    _, Bp, G, n, P, dh = prefix.shape
    out = np.swapaxes(np.empty((2, Bp, draws, G, P + rows, n, dh)), 4, 5)
    out[..., :P, :] = prefix.data[:, :, None]
    return out.reshape(2, Bp * draws, G, n, P + rows, dh)


def attention_block(h: Tensor, weights, bias, heads, along_time, prefix=None,
                    with_kv=False):
    """One pre-norm residual self-attention sublayer as one tape node.

    `h` is [B x L x E x d]; `weights` are the sublayer's Parameters in the
    order (ln_g, ln_b, wq, wk, wv, wv_b, wo, wo_b). Attention runs across
    the E entities of each frame, or, `along_time`, across the L frames of
    each entity; `bias` is the additive key mask broadcast onto the
    [B x G x heads x T x keys] scores (G groups of T queries), or None when
    no key is hidden: adding 0.0 to a score changes no softmax output, so
    skipping it gives the same bits. The output is
    `h + attn(layer_norm(h)) @ wo + wo_b`, with
    `attn = softmax(q k^T / sqrt(d / heads) + bias) v` per head and
    `q, k, v = x @ wq, x @ wk, x @ wv + wv_b`.

    Along time, two arguments split a sequence into a prefix computed once
    and rows computed later:
    - `with_kv` also returns the block's own keys and values,
      [2 x B x E x heads x L x dh], as a second tape node that shares the
      forward's arrays (`attention_kv` computes them alone). The output
      reads that node, so the adjoints of those keys and values, from this
      block's queries and from later blocks', meet there and go through the
      two projections' products once;
    - `prefix`, such keys and values of P earlier frames, goes before the
      block's own: every query attends over P + L keys, which `bias`
      covers, and the prefix receives its gradient. A prefix may have B/M
      rows for M draws that share it: its row b serves rows b*M to
      b*M + M - 1 of `h`, and its gradient is the sum over those draws.
      Without a tape, `prefix` may instead be a `kv_buffer` that already
      holds it: the block writes its own keys and values behind the prefix
      rows and reads the buffer, so calls that reuse one buffer copy the
      prefix once.

    The forward is the arithmetic of the chain of primitive ops
    (`layer_norm`, `swapaxes`, `matmul`, `add`, `concat`, `softmax`,
    `reshape`) on the same layouts, bit for bit, with the score scale, key
    mask and softmax applied in place on one score buffer. With gradients
    on, the tape keeps only what the backward reads: layer norm's `xhat` and
    `inv`, its output, q, the keys and values, the softmax weights and the
    head-merged values. Under `no_grad` no temporary outlives the point
    where the chain freed it."""
    ln_g, ln_b, wq, wk, wv, wv_b, wo, wo_b = weights
    taped = _grad_enabled.get()
    B, L, E, d = h.shape
    scale = 1.0 / np.sqrt(d // heads)

    x, xhat, inv = _layer_norm(h.data, ln_g.data, ln_b.data, _EPS)
    rows = np.swapaxes(x, 1, 2) if along_time else x        # [B x G x T x d]
    G, T = rows.shape[1:3]
    q = _split_heads(rows @ wq.data, heads)
    k = _split_heads(rows @ wk.data, heads)
    v = rows @ wv.data
    v += wv_b.data
    v = _split_heads(v, heads)
    kv = None
    if with_kv:  # attend over the stacked copy and let the projections go
        kv = _kv_tensor(h, weights, rows, xhat, inv, k, v)
        k, v = kv.data
    P = 0 if prefix is None else prefix.shape[-2]
    draws = B // prefix.shape[1] if P else 1
    if P:
        buffer = prefix
        if isinstance(prefix, Tensor):
            if draws * prefix.shape[1] != B:
                raise ValueError(f"a prefix of {prefix.shape[1]} rows cannot "
                                 f"serve {B} rows")
            buffer = kv_buffer(prefix, draws, T)
        P = buffer.shape[-2] - T
        buffer[0, ..., P:, :] = k
        buffer[1, ..., P:, :] = v
        k, v = buffer
    if not taped:
        xhat = inv = None
    att = q @ np.swapaxes(k, -1, -2)
    att *= scale
    if bias is not None:
        att += bias
    softmax_array(att, out=att)
    merged = att @ v
    if not taped:
        att = None
    merged = _merge_heads(merged)
    out = merged @ wo.data
    out += wo_b.data
    if not taped:
        merged = None
    out = out.reshape(B, G, T, d)
    if along_time:
        out = np.swapaxes(out, 1, 2)
    out = h.data + out

    def bwd(g):
        g_rows = (np.swapaxes(g, 1, 2) if along_time else g).reshape(-1, d)
        dwo, dwo_b = merged.T @ g_rows, g_rows.sum(0)
        do = _split_heads((g_rows @ wo.data.T).reshape(B, G, T, d), heads)
        dv = np.swapaxes(att, -1, -2) @ do
        ds = _softmax_grad(att, do @ np.swapaxes(v, -1, -2), -1)
        ds *= scale
        dq = _merge_heads(ds @ k)
        dk = np.swapaxes(ds, -1, -2) @ q
        # the prefix's keys and values, and with `with_kv` the block's own,
        # take their adjoints to their nodes
        grads = []
        if P:  # a prefix row's adjoint sums the `draws` rows it served
            dkv = np.stack([dk[..., :P, :], dv[..., :P, :]])
            grads.append(dkv.reshape(2, -1, draws, *dkv.shape[2:]).sum(2))
        dwq = _weight_grad(rows, dq)
        if with_kv:
            grads.append(np.stack([dk[..., P:, :], dv[..., P:, :]]))
            dx, dwk, dwv, dwv_b = dq @ wq.data.T, None, None, None
        else:
            dk, dv = _merge_heads(dk[..., P:, :]), _merge_heads(dv[..., P:, :])
            x_rows = rows.reshape(-1, d)
            dwk, dwv, dwv_b = x_rows.T @ dk, x_rows.T @ dv, dv.sum(0)
            # the three projections and the residual add into one adjoint of h
            dx = dk @ wk.data.T
            dx += dv @ wv.data.T
            dx += dq @ wq.data.T
        gh, dln_g, dln_b = _normalized_grad(dx.reshape(B, G, T, d), xhat, inv,
                                            ln_g.data, along_time)
        gh += g
        return (gh, dln_g, dln_b, dwq, dwk, dwv, dwv_b, dwo, dwo_b, *grads)

    parents = (h, *weights, *(t for t in (prefix, kv) if t is not None))
    out = Tensor(out, parents, bwd, "attention")
    return (out, kv) if with_kv else out
