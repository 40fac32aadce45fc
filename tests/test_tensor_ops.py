"""Autograd correctness tests for the Tensor engine (including gradcheck)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, no_grad


def grad_check(fn, inputs: list[Tensor], eps: float = 1e-6, atol: float = 1e-4) -> bool:
    """Finite-difference gradient verification.

    ``fn`` maps the list of input tensors to a scalar Tensor.  Returns True if
    analytic and numerical gradients agree within ``atol`` everywhere.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(inputs)
    out.backward()
    for tensor in inputs:
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = fn(inputs).item()
            flat[i] = original - eps
            minus = fn(inputs).item()
            flat[i] = original
            numeric_flat[i] = (plus - minus) / (2 * eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=1e-3):
            return False
    return True


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestBasicOps:
    def test_add_backward(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_mul_backward(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3, 4])
        assert np.allclose(b.grad, [1, 2])

    def test_sub_and_neg(self):
        a, b = t([5.0]), t([2.0])
        (a - b).backward()
        assert np.allclose(a.grad, [1])
        assert np.allclose(b.grad, [-1])

    def test_div_backward(self):
        a, b = t([6.0]), t([2.0])
        (a / b).backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.5])

    def test_pow_backward(self):
        a = t([3.0])
        (a**2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_matmul_backward(self):
        a = t(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = t(np.array([[5.0, 6.0], [7.0, 8.0]]))
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((2, 2)))

    def test_scalar_broadcast(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        (a * 2.0 + 1.0).sum().backward()
        assert np.allclose(a.grad, 2 * np.ones((2, 2)))

    def test_broadcast_bias_grad_unbroadcast(self):
        x = t(np.ones((4, 3)))
        bias = t(np.zeros(3))
        (x + bias).sum().backward()
        assert bias.grad.shape == (3,)
        assert np.allclose(bias.grad, [4, 4, 4])

    def test_rsub_rtruediv(self):
        a = t([2.0])
        (1.0 - a).backward()
        assert np.allclose(a.grad, [-1.0])
        a2 = t([2.0])
        (1.0 / a2).backward()
        assert np.allclose(a2.grad, [-0.25])

    def test_chain_reuses_node(self):
        a = t([2.0])
        b = a * a  # a used twice
        b.backward()
        assert np.allclose(a.grad, [4.0])

    def test_grad_accumulates_across_branches(self):
        a = t([1.0, 2.0])
        out = (a * 2).sum() + (a * 3).sum()
        out.backward()
        assert np.allclose(a.grad, [5, 5])


class TestActivations:
    def test_relu_gradient_mask(self):
        a = t([-1.0, 0.5, 2.0])
        a.relu().sum().backward()
        assert np.allclose(a.grad, [0, 1, 1])

    def test_leaky_relu(self):
        a = t([-2.0, 3.0])
        a.leaky_relu(0.1).sum().backward()
        assert np.allclose(a.grad, [0.1, 1.0])

    def test_sigmoid_range_and_grad(self):
        a = t([0.0])
        s = a.sigmoid()
        assert np.allclose(s.data, [0.5])
        s.backward()
        assert np.allclose(a.grad, [0.25])

    def test_tanh_grad(self):
        a = t([0.0])
        a.tanh().backward()
        assert np.allclose(a.grad, [1.0])

    def test_exp_log_inverse(self):
        a = t([1.5])
        assert np.allclose(a.exp().log().data, a.data)

    def test_gelu_positive_saturation(self):
        a = Tensor(np.array([10.0]))
        assert np.allclose(a.gelu().data, [10.0], atol=1e-3)

    def test_softmax_rows_sum_to_one(self):
        a = t(np.random.default_rng(0).standard_normal((5, 7)))
        s = a.softmax(axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        a = t(np.random.default_rng(0).standard_normal((4, 6)))
        assert np.allclose(a.log_softmax(-1).data, np.log(a.softmax(-1).data), atol=1e-10)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(1).standard_normal((3, 4))
        assert np.allclose(Tensor(x).softmax(-1).data, Tensor(x + 100.0).softmax(-1).data)

    def test_clip_gradient(self):
        a = t([-2.0, 0.5, 3.0])
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0, 1, 0])

    def test_abs_grad(self):
        a = t([-2.0, 3.0])
        a.abs().sum().backward()
        assert np.allclose(a.grad, [-1, 1])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = t(np.arange(6.0).reshape(2, 3))
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        a = t(np.ones((2, 4)))
        a.mean().backward()
        assert np.allclose(a.grad, np.full((2, 4), 1 / 8))

    def test_var_matches_numpy(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        assert np.allclose(Tensor(x).var(axis=1).data, x.var(axis=1))

    def test_max_grad_distributes_over_ties(self):
        a = t([[1.0, 2.0, 2.0]])
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0, 0.5, 0.5]])

    def test_reshape_roundtrip_grad(self):
        a = t(np.arange(6.0))
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_transpose_grad(self):
        a = t(np.arange(6.0).reshape(2, 3))
        a.transpose().sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_row_grad(self):
        a = t(np.arange(12.0).reshape(4, 3))
        a[np.array([0, 2])].sum().backward()
        expected = np.zeros((4, 3))
        expected[[0, 2]] = 1.0
        assert np.allclose(a.grad, expected)

    def test_take_rows_duplicate_indices_accumulate(self):
        a = t(np.ones((3, 2)))
        a.take_rows(np.array([1, 1, 2])).sum().backward()
        assert np.allclose(a.grad, [[0, 0], [2, 2], [1, 1]])

    def test_concatenate_grad_split(self):
        a, b = t(np.ones((2, 2))), t(np.ones((2, 3)))
        Tensor.concatenate([a, b], axis=1).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)

    def test_stack_grad(self):
        a, b = t(np.ones(3)), t(np.ones(3) * 2)
        Tensor.stack([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, np.ones(3))
        assert np.allclose(b.grad, np.ones(3))

    def test_swapaxes(self):
        a = t(np.zeros((2, 3, 4)))
        assert a.swapaxes(1, 2).shape == (2, 4, 3)


class TestGraphMechanics:
    def test_backward_on_nonscalar_requires_grad_arg(self):
        a = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        a = Tensor([1.0, 2.0])
        with pytest.raises(RuntimeError):
            a.sum().backward()

    def test_no_grad_disables_graph(self):
        a = t([1.0])
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_detach(self):
        a = t([1.0])
        d = a.detach()
        assert not d.requires_grad
        assert d.data is a.data

    def test_zero_grad(self):
        a = t([1.0])
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_integer_input_upcast_when_grad(self):
        a = Tensor(np.array([1, 2, 3]), requires_grad=True)
        assert np.issubdtype(a.dtype, np.floating)


class TestGradCheck:
    def test_mlp_like_composite(self):
        rng = np.random.default_rng(0)
        w = t(rng.standard_normal((3, 4)) * 0.3)
        x = t(rng.standard_normal((2, 3)) * 0.3)

        def fn(inputs):
            xx, ww = inputs
            return (xx @ ww).relu().sum()

        assert grad_check(fn, [x, w])

    def test_softmax_cross_entropy_like(self):
        rng = np.random.default_rng(1)
        logits = t(rng.standard_normal((3, 4)) * 0.5)

        def fn(inputs):
            (z,) = inputs
            return (z.log_softmax(-1) * Tensor(np.eye(4)[:3])).sum() * -1.0

        assert grad_check(fn, [logits])

    def test_layernorm_like_expression(self):
        rng = np.random.default_rng(2)
        x = t(rng.standard_normal((2, 5)))

        def fn(inputs):
            (xx,) = inputs
            mu = xx.mean(axis=-1, keepdims=True)
            var = xx.var(axis=-1, keepdims=True)
            return (((xx - mu) * ((var + 1e-5) ** -0.5)) ** 2).sum()

        assert grad_check(fn, [x], atol=1e-3)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_sum_grad_is_ones(rows, cols, seed):
    """d(sum(x))/dx is exactly a tensor of ones for any shape."""
    x = Tensor(np.random.default_rng(seed).standard_normal((rows, cols)), requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, np.ones((rows, cols)))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_softmax_is_distribution(n, seed):
    """Softmax outputs are non-negative and each row sums to one."""
    x = Tensor(np.random.default_rng(seed).standard_normal((3, n)) * 5)
    s = x.softmax(axis=-1).data
    assert np.all(s >= 0)
    assert np.allclose(s.sum(axis=-1), 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_matmul_grad_matches_finite_difference(seed):
    """Analytic matmul gradients agree with central finite differences."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((2, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal((3, 2)) * 0.5, requires_grad=True)

    def fn(inputs):
        aa, bb = inputs
        return (aa @ bb).sum()

    assert grad_check(fn, [a, b])
