"""Autodiff engine: op semantics against independent oracles, gradient
correctness against central finite differences, and the no-silent-NaN rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gentac import autodiff as ad


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
        return ad.mean(ad.mul(s, ad.log(ad.exp(s) + ad.as_tensor(1.0))))

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
