"""Tests for modules, losses and optimizers built on the Tensor engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import (
    Adam,
    Dropout,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadAttention,
    SGD,
    Sequential,
    Tensor,
    cross_entropy,
)
from repro.tensor.attention import HopAttentionBlock
from repro.tensor.losses import accuracy
from repro.tensor.module import PReLU


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, seed=0)
        out = layer(Tensor(np.ones((4, 5))))
        assert out.shape == (4, 3)

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False, seed=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_deterministic_init_with_seed(self):
        a = Linear(4, 2, seed=11)
        b = Linear(4, 2, seed=11)
        assert np.allclose(a.weight.data, b.weight.data)

    def test_gradients_flow_to_parameters(self):
        layer = Linear(3, 2, seed=0)
        out = layer(Tensor(np.ones((5, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestModuleSystem:
    def test_named_parameters_nested(self):
        mlp = MLP(4, [8], 2, seed=0)
        names = [n for n, _ in mlp.named_parameters()]
        assert any("net.layer_0.weight" in n for n in names)

    def test_num_parameters_counts_scalars(self):
        layer = Linear(10, 5, seed=0)
        assert layer.num_parameters() == 10 * 5 + 5

    def test_train_eval_mode_propagates(self):
        model = Sequential(Linear(3, 3, seed=0), Dropout(0.5, seed=0))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears(self):
        layer = Linear(2, 2, seed=0)
        layer(Tensor(np.ones((1, 2)))).sum().backward()
        layer.zero_grad()
        assert layer.weight.grad is None


class TestDropoutAndNorm:
    def test_dropout_eval_is_identity(self):
        d = Dropout(0.5, seed=0)
        d.eval()
        x = Tensor(np.ones((10, 10)))
        assert np.allclose(d(x).data, x.data)

    def test_dropout_preserves_expectation(self):
        d = Dropout(0.5, seed=0)
        x = Tensor(np.ones((2000, 10)))
        out = d(x).data
        assert abs(out.mean() - 1.0) < 0.1

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_layernorm_normalizes(self):
        ln = LayerNorm(16)
        x = Tensor(np.random.default_rng(0).standard_normal((8, 16)) * 5 + 3)
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_wrong_dim_raises(self):
        with pytest.raises(ValueError):
            LayerNorm(8)(Tensor(np.ones((2, 4))))

    def test_prelu_learnable_slope(self):
        act = PReLU(0.25)
        x = Tensor(np.array([[-4.0, 2.0]]))
        out = act(x)
        assert np.allclose(out.data, [[-1.0, 2.0]])
        out.sum().backward()
        assert act.slope.grad is not None


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP(10, [32, 16], 4, dropout=0.1, seed=0)
        assert mlp(Tensor(np.ones((7, 10)))).shape == (7, 4)

    def test_no_hidden_layers(self):
        mlp = MLP(10, [], 4, seed=0)
        assert mlp(Tensor(np.ones((2, 10)))).shape == (2, 4)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            MLP(4, [4], 2, activation="swish")

    def test_can_overfit_tiny_problem(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 8))
        y = (x[:, 0] > 0).astype(np.int64)
        mlp = MLP(8, [16], 2, seed=0)
        opt = Adam(mlp.parameters(), lr=0.05)
        for _ in range(60):
            opt.zero_grad()
            loss = cross_entropy(mlp(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert accuracy(mlp(Tensor(x)), y) > 0.95


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadAttention(16, 4, seed=0)
        out = attn(Tensor(np.random.default_rng(0).standard_normal((3, 5, 16))))
        assert out.shape == (3, 5, 16)

    def test_weights_are_distributions(self):
        attn = MultiHeadAttention(8, 2, seed=0)
        _, weights = attn(Tensor(np.random.default_rng(0).standard_normal((2, 4, 8))), return_weights=True)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)

    def test_embed_dim_not_divisible_raises(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_rejects_2d_input(self):
        attn = MultiHeadAttention(8, 2, seed=0)
        with pytest.raises(ValueError):
            attn(Tensor(np.ones((4, 8))))

    def test_hop_attention_block_residual_shape(self):
        block = HopAttentionBlock(16, 2, dropout=0.0, seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3, 16)))
        assert block(x).shape == (4, 3, 16)

    def test_gradients_reach_qkv(self):
        attn = MultiHeadAttention(8, 2, seed=0)
        out = attn(Tensor(np.random.default_rng(0).standard_normal((2, 3, 8))))
        out.sum().backward()
        assert attn.q_proj.weight.grad is not None
        assert attn.v_proj.weight.grad is not None


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        labels = np.array([0, 1])
        expected = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert cross_entropy(logits, labels).item() == pytest.approx(expected, rel=1e-6)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_cross_entropy_reductions(self):
        logits = Tensor(np.zeros((4, 5)), requires_grad=True)
        labels = np.zeros(4, dtype=np.int64)
        none = cross_entropy(logits, labels, reduction="none")
        assert none.shape == (4,)
        total = cross_entropy(logits, labels, reduction="sum").item()
        assert total == pytest.approx(none.data.sum())

    def test_cross_entropy_unknown_reduction(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]), reduction="median")

    def test_accuracy_perfect_and_empty(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert np.isnan(accuracy(np.zeros((0, 2)), np.array([], dtype=int)))


class TestOptimizers:
    def _quadratic_step(self, optimizer_cls, **kwargs):
        from repro.tensor.parameter import Parameter

        w = Parameter(np.array([5.0]))
        opt = optimizer_cls([w], **kwargs)
        for _ in range(200):
            opt.zero_grad()
            loss = (w * w).sum()
            loss.backward()
            opt.step()
        return float(np.abs(w.data[0]))

    def test_sgd_converges_on_quadratic(self):
        assert self._quadratic_step(SGD, lr=0.1) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_step(SGD, lr=0.05, momentum=0.9) < 1e-3

    def test_adam_converges_on_quadratic(self):
        assert self._quadratic_step(Adam, lr=0.1) < 1e-2

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr_raises(self):
        from repro.tensor.parameter import Parameter

        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=8),
    classes=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_cross_entropy_nonnegative_and_bounded(batch, classes, seed):
    """Cross entropy is >= 0 and <= log(C) + margin for bounded logits."""
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.standard_normal((batch, classes)))
    labels = rng.integers(0, classes, size=batch)
    loss = cross_entropy(logits, labels).item()
    assert loss >= 0.0
    assert np.isfinite(loss)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_layernorm_output_statistics(seed):
    """LayerNorm output always has (near) zero mean and unit variance per row."""
    rng = np.random.default_rng(seed)
    ln = LayerNorm(12)
    x = Tensor(rng.standard_normal((6, 12)) * rng.uniform(0.5, 10))
    out = ln(x).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-2)
