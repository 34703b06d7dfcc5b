"""Autodiff engine: op semantics against independent oracles, gradient
correctness against central finite differences, and the no-silent-NaN rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gentac import autodiff as ad
from gentac.backbone import MASK_SCORE, TokenGrid, stack_grids
from helpers import attention_block_chain


def rel_err(a, b):
    m = max(abs(a), abs(b))
    return 0.0 if m < 1e-10 else abs(a - b) / m


def fd_gradient(f, params, h=1e-5):
    """Central finite differences of scalar f() w.r.t. each Parameter."""
    grads = {}
    for p in params:
        g = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p.data[i]
            p.data[i] = orig + h
            fp = f()
            p.data[i] = orig - h
            fm = f()
            p.data[i] = orig
            g[i] = (fp - fm) / (2 * h)
        grads[p.name] = g
    return grads


def check_grads(f, params, tol=1e-4):
    for p in params:
        p.zero_grad()
    loss = f(build=True)
    ad.backward(loss)
    fd = fd_gradient(lambda: float(f(build=True).data), params)
    for p in params:
        worst = max(
            (rel_err(p.grad[i], fd[p.name][i])
             for i in np.ndindex(p.data.shape)), default=0.0)
        assert worst < tol, f"{p.name}: rel err {worst}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_zeros():
    a = np.random.default_rng(0).normal(size=(3, 4))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(np.zeros((4, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
    assert np.abs(out - expected).max() < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(2, 3, 5, 2))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(out[i, j], a[i, j] @ b[i, j],
                                       rtol=0, atol=1e-12)


def test_matmul_weight_gradient_is_the_batched_formula():
    # a 2-D right operand gets its adjoint from one GEMM over the flattened
    # rows, in place of a [batch... x 5 x 3] stack summed afterwards
    rng = np.random.default_rng(5)
    a = ad.Tensor(rng.normal(size=(2, 3, 4, 5)))
    w = ad.Parameter(rng.normal(size=(5, 3)), "w")
    g = rng.normal(size=(2, 3, 4, 3))
    _, gw = ad.matmul(a, w).backward_fn(g)
    batched = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=(0, 1))
    assert gw.shape == (5, 3)
    assert np.abs(gw - batched).max() <= 1e-12 * np.abs(batched).max()


def test_matmul_weight_gradient_vs_finite_differences():
    rng = np.random.default_rng(6)
    a = ad.Parameter(rng.normal(size=(2, 3, 4)), "a")
    w = ad.Parameter(rng.normal(size=(4, 3)), "w")
    weights = np.linspace(0.5, 1.5, 18).reshape(2, 3, 3)

    def f(build=False):
        return ad.sum_(ad.mul(ad.matmul(a, w), ad.Tensor(weights)))

    check_grads(f, [a, w])


# ---------------------------------------------------------------------------
# softmax / log_softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0])).data
    np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-15)


def test_softmax_extreme_values_no_overflow():
    out = ad.softmax(ad.Tensor([1000.0, 0.0])).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)


def test_softmax_against_naive_exp_sum():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=17)
    naive = np.exp(x) / np.exp(x).sum()
    out = ad.softmax(ad.Tensor(x)).data
    assert np.abs(out - naive).max() < 1e-12


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(xs):
    out = ad.softmax(ad.Tensor(np.array(xs))).data
    assert abs(out.sum() - 1.0) < 1e-12
    assert (out >= 0).all()


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_slice_is_zero():
    g, b = ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4))
    out = ad.layer_norm(ad.Tensor([[5.0, 5.0, 5.0, 5.0]]), g, b).data
    np.testing.assert_allclose(out, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_already_normalized():
    g, b = ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2))
    out = ad.layer_norm(ad.Tensor([[1.0, -1.0]]), g, b, eps=1e-12).data
    np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_statistics():
    rng = np.random.default_rng(5)
    x = rng.normal(3.0, 2.5, size=(6, 32))
    g, b = ad.Tensor(np.ones(32)), ad.Tensor(np.zeros(32))
    out = ad.layer_norm(ad.Tensor(x), g, b, eps=1e-12).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-8)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    p = ad.Parameter(np.array([1.0, 2.0, 3.0]), "p")
    ad.backward(ad.sum_(p))
    np.testing.assert_array_equal(p.grad, np.ones(3))


def test_backward_sum_of_squares_analytic():
    p = ad.Parameter(np.array([1.0, 2.0]), "p")
    ad.backward(ad.sum_(ad.mul(p, p)))
    np.testing.assert_allclose(p.grad, [2.0, 4.0], atol=1e-14)


def test_backward_rejects_non_scalar():
    p = ad.Parameter(np.ones(3), "p")
    with pytest.raises(ad.GraphError):
        ad.backward(ad.mul(p, p))


def test_backward_rejects_detached_constant():
    with pytest.raises(ad.GraphError):
        ad.backward(ad.Tensor(1.0))


def test_gradients_accumulate_on_parameters():
    p = ad.Parameter(np.array([2.0]), "p")
    ad.backward(ad.sum_(p))
    ad.backward(ad.sum_(p))
    np.testing.assert_array_equal(p.grad, [2.0])
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, [0.0])


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(9)
    W = ad.Parameter(rng.normal(size=(4, 3)), "W")
    b = ad.Parameter(rng.normal(size=3), "b")
    g = ad.Parameter(np.ones(3), "g")
    x = np.random.default_rng(10).normal(size=(5, 4))

    def f(build=False):
        h = ad.matmul(ad.Tensor(x), W) + b
        h = ad.layer_norm(h, g, ad.Tensor(np.zeros(3)))
        h = ad.tanh(h)
        s = ad.softmax(h, axis=-1)
        y = ad.mul(s, ad.log(ad.exp(s) + ad.as_tensor(1.0)))
        return ad.mul(ad.sum_(y), ad.as_tensor(1.0 / y.data.size))

    check_grads(f, [W, b, g])


@pytest.mark.parametrize("op", ["add", "sub", "mul", "matmul", "take",
                                "softmax", "log_softmax", "layer_norm",
                                "tanh", "relu", "exp", "concat", "swapaxes"])
def test_each_op_gradient_vs_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2 ** 31)
    a = ad.Parameter(rng.normal(size=(3, 4)), "a")
    b = ad.Parameter(rng.normal(size=(3, 4)), "b")

    def f(build=False):
        if op == "add":
            out = a + b
        elif op == "sub":
            out = a - b
        elif op == "mul":
            out = ad.mul(a, b)
        elif op == "matmul":
            out = ad.matmul(a, ad.swapaxes(b, 0, 1))
        elif op == "take":
            out = a[1:, (0, 2)]
        elif op == "softmax":
            out = ad.softmax(a, axis=-1)
        elif op == "log_softmax":
            out = ad.log_softmax(a, axis=-1)
        elif op == "layer_norm":
            out = ad.layer_norm(a, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4)))
        elif op == "tanh":
            out = ad.tanh(a)
        elif op == "relu":
            out = ad.relu(a + ad.as_tensor(0.05))  # keep clear of the kink
        elif op == "exp":
            out = ad.exp(a)
        elif op == "concat":
            out = ad.concat([a, b], axis=0)
        elif op == "swapaxes":
            out = ad.swapaxes(a, 0, 1)
        weights = np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape)
        return ad.sum_(ad.mul(out, ad.Tensor(weights)))

    check_grads(f, [a, b])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_non_finite_raises_and_names_op():
    with pytest.raises(ad.NonFiniteError, match="log"):
        ad.log(ad.Tensor([-1.0]))
    with pytest.raises(ad.NonFiniteError, match="exp"):
        ad.exp(ad.Tensor([1e6]))


def test_constant_construction_rejects_nan():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([np.nan])


def test_determinism_same_inputs_bitwise():
    rng = np.random.default_rng(77)
    x = rng.normal(size=(6, 6))
    w = rng.normal(size=(6, 6))

    def run():
        p = ad.Parameter(w.copy(), "w")
        out = ad.softmax(ad.matmul(ad.Tensor(x), p), axis=-1)
        loss = ad.sum_(ad.mul(out, out))
        ad.backward(loss)
        return loss.data.copy(), p.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# inference mode
# ---------------------------------------------------------------------------

def test_no_grad_keeps_no_tape_so_backward_raises():
    w = ad.Parameter(np.random.default_rng(3).normal(size=(4, 4)), "w")
    x = ad.Tensor(np.random.default_rng(4).normal(size=(2, 4)))
    with ad.no_grad():
        out = ad.softmax(ad.matmul(x, w), axis=-1)
        loss = ad.sum_(ad.mul(out, out))
    assert out.parents == () and out.backward_fn is None
    with pytest.raises(ad.GraphError):
        ad.backward(loss)


def test_no_grad_skips_per_op_checks():
    with ad.no_grad():
        out = ad.log(ad.Tensor([-1.0]))
    assert np.isnan(out.data).all()
    with pytest.raises(ad.NonFiniteError, match="predict_noise"):
        ad.check_finite(out.data, "predict_noise")


def test_check_finite_passes_finite_values_whose_sum_overflows():
    ad.check_finite(np.array([1e308, 1e308]), "add")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_raises_on_each_non_finite_value_naming_the_op(bad):
    data = np.ones((3, 4))
    data[1, 2] = bad
    with pytest.raises(ad.NonFiniteError, match="op 'logits'"):
        ad.check_finite(data, "logits")


def _taped():
    return ad.add(ad.Tensor([1.0]), ad.Tensor([2.0])).parents != ()


def test_no_grad_is_restored_after_an_exception():
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                assert not _taped()
            assert not _taped()
            raise RuntimeError("boom")
    assert _taped()
    with pytest.raises(ad.NonFiniteError, match="log"):
        ad.log(ad.Tensor([-1.0]))


def test_softmax_array_is_the_textbook_formula_bitwise():
    x = np.random.default_rng(6).normal(size=(3, 7)) * 20.0
    before = x.copy()
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    expected = e / e.sum(axis=-1, keepdims=True)
    assert ad.softmax_array(x).tobytes() == expected.tobytes()
    assert ad.softmax(ad.Tensor(x)).data.tobytes() == expected.tobytes()
    assert x.tobytes() == before.tobytes()


# many short rows (the attention shapes) take the column-wise reductions;
# event pooling's few long rows keep numpy's
@pytest.mark.parametrize("shape", [(2, 8, 4, 7, 7), (2, 8, 4, 35, 35), (8, 175)])
def test_softmax_and_its_gradient_are_the_textbook_formula_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape) * 20.0
    g = rng.normal(size=shape)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    expected = e / e.sum(axis=-1, keepdims=True)
    out = ad.softmax(ad.Tensor(x), axis=-1)
    assert out.data.tobytes() == expected.tobytes()
    dot = (g * expected).sum(axis=-1, keepdims=True)
    (dx,) = out.backward_fn(g)
    assert dx.tobytes() == (expected * (g - dot)).tobytes()


# ---------------------------------------------------------------------------
# attention sublayer
# ---------------------------------------------------------------------------

def _block_inputs(keys, groups, along_time, seed, d=6, heads=2):
    """h [2 x L x E x d] with `keys` on the attended axis and `groups` on the
    other, the sublayer's eight weights, all Parameters, and a key mask that
    hides some keys of each group. dh=3, so the 1/sqrt(dh) scale is not a
    power of two and scaling q instead of the scores changes bits."""
    rng = np.random.default_rng(seed)
    L, E = (keys, groups) if along_time else (groups, keys)
    h = ad.Parameter(rng.normal(size=(2, L, E, d)), "h")
    weights = tuple(ad.Parameter(
        (1.0 if name == "ln_g" else 0.0)
        + rng.normal(size=(d, d) if name in ("wq", "wk", "wv", "wo") else d),
        name) for name in ("ln_g", "ln_b", "wq", "wk", "wv", "wv_b", "wo", "wo_b"))
    visible = rng.uniform(size=(2, groups, keys)) > 0.3
    visible[..., 0] = True
    bias = np.where(visible, 0.0, MASK_SCORE)[:, :, None, None, :]
    return h, weights, bias, heads


def _block_cases(keys):
    """(along_time, start): spatial, temporal, temporal from a later frame."""
    return [(False, 0), (True, 0), (True, keys // 2)]


def _run_block(block, h, weights, bias, heads, along_time, start, g):
    """Output bytes and the nine parents' gradients after backward of
    sum(out * g)."""
    for p in (h, *weights):
        p.zero_grad()
    out = block(h, weights, bias, heads, along_time, start)
    ad.backward(ad.sum_(ad.mul(out, ad.Tensor(g[:, start:]))))
    return out.data.tobytes(), [p.grad.copy() for p in (h, *weights)]


# 8 groups give many more rows than keys, the column-wise reductions; one
# group keeps numpy's row reductions
@pytest.mark.parametrize("keys,groups", [(7, 1), (7, 8), (35, 1), (35, 8)])
def test_attention_matches_the_op_chain_bitwise(keys, groups):
    for along_time, start in _block_cases(keys):
        h, weights, bias, heads = _block_inputs(keys, groups, along_time,
                                                seed=keys + groups)
        args = (h, weights, bias, heads, along_time, start)
        chain = attention_block_chain(*args).data.tobytes()
        assert ad.attention_block(*args).data.tobytes() == chain
        with ad.no_grad():
            assert ad.attention_block(*args).data.tobytes() == chain


@pytest.mark.parametrize("keys,groups", [(7, 8), (35, 1)])
def test_attention_block_gradients_match_the_op_chain(keys, groups):
    for along_time, start in _block_cases(keys):
        h, weights, bias, heads = _block_inputs(keys, groups, along_time,
                                                seed=keys * groups)
        g = np.random.default_rng(1).normal(size=h.shape)
        args = (h, weights, bias, heads, along_time, start, g)
        _, fused = _run_block(ad.attention_block, *args)
        _, chain = _run_block(attention_block_chain, *args)
        for p, a, b in zip((h, *weights), fused, chain):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), \
                (p.name, along_time, start)


def test_attention_gradient_vs_finite_differences():
    for along_time, start in _block_cases(5):
        h, weights, bias, heads = _block_inputs(5, 2, along_time, seed=8)
        rows = h.data[:, start:]
        g = np.linspace(0.5, 1.5, rows.size).reshape(rows.shape)

        def f(build=False):
            out = ad.attention_block(h, weights, bias, heads, along_time, start)
            return ad.sum_(ad.mul(out, ad.Tensor(g)))

        check_grads(f, [h, *weights])


@pytest.mark.parametrize("keys,groups", [(7, 8), (35, 1)])
def test_all_visible_attention_equals_the_chain_with_a_zero_mask(keys, groups):
    for along_time, start in _block_cases(keys):
        h, weights, bias, heads = _block_inputs(keys, groups, along_time,
                                                seed=keys + 2 * groups)
        chain = attention_block_chain(h, weights, np.zeros_like(bias), heads,
                                      along_time, start).data.tobytes()
        args = (h, weights, None, heads, along_time, start)
        assert ad.attention_block(*args).data.tobytes() == chain
        with ad.no_grad():
            assert ad.attention_block(*args).data.tobytes() == chain


def test_a_batch_with_one_hidden_key_still_applies_the_mask():
    L, E = 7, 5
    vis = np.ones((2, L, E), dtype=bool)

    def batch():
        return stack_grids([TokenGrid(np.zeros((L, E, 2)), v, np.zeros((L, E), bool),
                                      history_len=L) for v in vis])

    visible = batch()
    assert visible.spatial_bias is None and visible.temporal_bias is None
    vis[1, 3, 2] = False
    hidden = batch()
    for along_time, bias, keys in ((False, hidden.spatial_bias, vis),
                                   (True, hidden.temporal_bias,
                                    np.swapaxes(vis, 1, 2))):
        assert bias[:, :, 0, 0, :].tobytes() == \
            np.where(keys, 0.0, MASK_SCORE).tobytes()
        _, n_groups, n_keys = keys.shape
        h, weights, _, heads = _block_inputs(n_keys, n_groups, along_time, seed=12)
        masked = ad.attention_block(h, weights, bias, heads, along_time, 0).data
        chain = attention_block_chain(h, weights, bias, heads, along_time, 0)
        assert masked.tobytes() == chain.data.tobytes()
        unmasked = ad.attention_block(h, weights, None, heads, along_time, 0)
        assert not np.array_equal(masked, unmasked.data)


def test_attention_single_visible_key_gets_weight_one():
    h, weights, bias, heads = _block_inputs(7, 3, False, seed=9)
    weights[2].data *= 30.0                         # scores far from zero
    bias[...] = MASK_SCORE
    bias[..., 4] = 0.0
    out = ad.attention_block(h, weights, bias, heads, False, 0).data
    _, _, _, _, wv, wv_b, wo, wo_b = (w.data for w in weights)
    x = ad.layer_norm(h, weights[0], weights[1]).data
    v = x @ wv
    v += wv_b
    # every query's attended value is entity 4's, whatever the heads
    merged = np.ascontiguousarray(np.broadcast_to(v[:, :, 4:5], v.shape))
    projected = merged.reshape(-1, v.shape[-1]) @ wo
    projected += wo_b
    expected = h.data + projected.reshape(v.shape)
    assert out.tobytes() == expected.tobytes()


def test_attention_under_no_grad_keeps_no_tape():
    h, weights, bias, heads = _block_inputs(7, 2, True, seed=10)
    taped = ad.attention_block(h, weights, bias, heads, True, 3)
    with ad.no_grad():
        out = ad.attention_block(h, weights, bias, heads, True, 3)
    assert taped.parents == (h, *weights)
    assert out.parents == () and out.backward_fn is None
    assert out.data.tobytes() == taped.data.tobytes()


def test_attention_non_finite_output_names_the_op():
    h, weights, bias, heads = _block_inputs(7, 1, True, seed=11)
    weights[2].data[:, 0] = 1e200                   # finite inputs whose
    weights[3].data[:, 0] = 1e200                   # scores overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ad.NonFiniteError, match="'attention'"):
            ad.attention_block(h, weights, bias, heads, True, 0)


# ---------------------------------------------------------------------------
# take
# ---------------------------------------------------------------------------

def test_take_gradient_accumulates_a_repeated_fancy_index():
    a = ad.Parameter(np.zeros(4), "a")
    ad.backward(ad.sum_(ad.mul(a[np.array([1, 1, 3])],
                               ad.Tensor([2.0, 5.0, 7.0]))))
    np.testing.assert_array_equal(a.grad, [0.0, 7.0, 0.0, 7.0])


def test_take_gradient_of_a_basic_index_is_np_add_at_bitwise():
    a = ad.Tensor(np.ones((5, 3)))
    for idx in (slice(1, 4), (slice(1, 4), Ellipsis), (1, slice(None)), 2):
        out = ad.take(a, idx)
        g = np.random.default_rng(12).normal(size=out.shape)
        g.flat[0] = -0.0                            # 0 + -0.0 is +0.0
        expected = np.zeros_like(a.data)
        np.add.at(expected, idx, g)
        (got,) = out.backward_fn(g)
        assert got.tobytes() == expected.tobytes(), idx
