"""The training step computes in the dtype of its data.

* dtype closure: every public ``Tensor`` op, functional, loss, ``Module`` and
  model maps float32 inputs to float32 outputs *and* float32 gradients (and
  float64 to float64); Python scalars never promote;
* state handling follows the parameter dtype;
* the float32 step stays within a stated bound of the float64 one;
* the model reads loader ring buffers in place without changing a loss bit;
* the fused dropout has the advertised mask statistics.

The float64 finite-difference gradchecks live in ``test_tensor_ops.py``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.dataloading.loaders import BaselineLoader, FusedLoader
from repro.datasets.registry import load_dataset
from repro.models import build_mp_model, build_pp_model
from repro.models.sgc import SGC
from repro.prepropagation.pipeline import PreprocessingPipeline
from repro.prepropagation.propagator import PropagationConfig
from repro.sampling import LaborSampler
from repro.tensor import (
    MLP,
    SGD,
    Adam,
    Dropout,
    GELU,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    Parameter,
    PReLU,
    ReLU,
    Sequential,
    Tensor,
    cross_entropy,
    no_grad,
)
from repro.tensor import functional as F
from repro.tensor.attention import HopAttentionBlock
from repro.tensor.sparse import scatter_sum, segment_softmax, sparse_matmul
from repro.training import MPGNNTrainer, PPGNNTrainer, TrainerConfig

DTYPES = (np.float32, np.float64)
dtypes = st.sampled_from(DTYPES)
seeds = st.integers(0, 2**16)


def leaf(rng, shape, dtype, grad=True):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=grad)


def assert_closed(out: Tensor, inputs, dtype):
    """``out`` and, after a backward pass, every input's ``.grad`` are ``dtype``."""
    assert out.dtype == dtype, f"output is {out.dtype}, expected {np.dtype(dtype)}"
    out.backward(np.ones_like(out.data))
    for tensor in inputs:
        assert tensor.grad is not None
        assert tensor.grad.dtype == dtype, f"grad is {tensor.grad.dtype}, expected {np.dtype(dtype)}"
        assert tensor.grad.shape == tensor.shape


# --------------------------------------------------------------------------- #
# dtype closure
# --------------------------------------------------------------------------- #
UNARY_OPS = {
    "neg": lambda x: -x,
    "exp": lambda x: x.exp(),
    "log": lambda x: (x * x + 1.0).log(),
    "sqrt": lambda x: (x * x + 1.0).sqrt(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "relu": lambda x: x.relu(),
    "leaky_relu": lambda x: x.leaky_relu(0.1),
    "gelu": lambda x: x.gelu(),
    "abs": lambda x: x.abs(),
    "clip": lambda x: x.clip(-0.5, 0.5),
    "sum": lambda x: x.sum(),
    "sum_axis": lambda x: x.sum(axis=0, keepdims=True),
    "mean": lambda x: x.mean(),
    "mean_axis": lambda x: x.mean(axis=-1),
    "var": lambda x: x.var(axis=-1, keepdims=True),
    "max": lambda x: x.max(),
    "max_axis": lambda x: x.max(axis=1),
    "reshape": lambda x: x.reshape(-1),
    "transpose": lambda x: x.T,
    "swapaxes": lambda x: x.swapaxes(0, 1),
    "getitem": lambda x: x[np.array([0, 0, 1])],
    "take_rows": lambda x: x.take_rows(np.array([1, 0, 1])),
    "softmax": lambda x: x.softmax(axis=-1),
    "log_softmax": lambda x: x.log_softmax(axis=-1),
    "mul_scalar": lambda x: x * 0.5,
    "rmul_scalar": lambda x: 0.5 * x,
    "mul_int": lambda x: x * 2,
    "mul_numpy_float": lambda x: x * np.sqrt(2.0),  # np.float64 is not weak in NumPy 2
    "add_scalar": lambda x: x + 1.0,
    "rsub_scalar": lambda x: 1.0 - x,
    "sub_scalar": lambda x: x - 1.0,
    "div_scalar": lambda x: x / 3.0,
    "rdiv_scalar": lambda x: 2.0 / (x * x + 1.0),
    "pow_int": lambda x: x**2,
    "pow_float": lambda x: (x * x + 1.0) ** -0.5,
    "pow_numpy": lambda x: (x * x + 1.0) ** np.float64(1.5),
    "layer_norm": lambda x: F.layer_norm(x),
    "dropout": lambda x: F.dropout(x, 0.3, rng=np.random.default_rng(0)),
    "functional_aliases": lambda x: F.tanh(F.gelu(F.leaky_relu(F.relu(x)))),
    "softmax_aliases": lambda x: F.softmax(x) + F.log_softmax(x),
    "scatter_sum": lambda x: scatter_sum(x, np.arange(x.shape[0]) % 2, 2),
    "segment_softmax": lambda x: segment_softmax(x.sum(axis=-1), np.arange(x.shape[0]) % 2, 2),
    "sparse_matmul": lambda x: sparse_matmul(sp.eye(x.shape[0], format="csr", dtype=np.float64), x),
    "cross_entropy": lambda x: cross_entropy(x, np.arange(x.shape[0]) % x.shape[1]),
    "cross_entropy_none": lambda x: cross_entropy(x, np.zeros(x.shape[0], dtype=int), reduction="none"),
    "cross_entropy_sum": lambda x: cross_entropy(x, np.zeros(x.shape[0], dtype=int), reduction="sum"),
}

BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (b * b + 1.0),
    "matmul": lambda a, b: a @ b.T,
    "broadcast_add": lambda a, b: a + b.sum(axis=0),
    "concatenate": lambda a, b: Tensor.concatenate([a, b], axis=-1),
    "functional_concatenate": lambda a, b: F.concatenate([a, b], axis=0),
    "stack": lambda a, b: Tensor.stack([a, b], axis=1),
    "functional_stack": lambda a, b: F.stack([a, b]),
    "linear": lambda a, b: F.linear(a, b),
    "prelu": lambda a, b: F.prelu(a, b.sum().reshape(1)),
    "fan_out": lambda a, b: (a + a) * b + a,
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
@settings(max_examples=12, deadline=None)
@given(dtype=dtypes, seed=seeds, rows=st.integers(2, 5), cols=st.integers(2, 5))
def test_unary_ops_keep_dtype(name, dtype, seed, rows, cols):
    x = leaf(np.random.default_rng(seed), (rows, cols), dtype)
    assert_closed(UNARY_OPS[name](x), [x], dtype)


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
@settings(max_examples=12, deadline=None)
@given(dtype=dtypes, seed=seeds, rows=st.integers(2, 5), cols=st.integers(2, 5))
def test_binary_ops_keep_dtype(name, dtype, seed, rows, cols):
    rng = np.random.default_rng(seed)
    a, b = leaf(rng, (rows, cols), dtype), leaf(rng, (rows, cols), dtype)
    assert_closed(BINARY_OPS[name](a, b), [a, b], dtype)


def test_factories_and_integer_tensors_behave_as_before():
    assert Tensor([1, 2, 3]).dtype.kind == "i"  # ints stay ints ...
    assert Tensor([1, 2, 3], requires_grad=True).dtype == np.float64  # ... unless differentiated
    assert Tensor([True, False]).dtype == np.bool_
    assert Tensor(0.5).dtype == np.float64 and Tensor([0.5]).dtype == np.float64
    assert Tensor.zeros(2, 2).dtype == Tensor.ones(2).dtype == np.float64
    assert Parameter([1, 2]).dtype == np.float64
    assert Parameter(np.ones(2, dtype=np.float32)).dtype == np.float32
    with pytest.raises(TypeError):
        Linear(2, 2, seed=0).to(np.int32)


def test_gradient_is_cast_to_the_tensor_dtype():
    """A float64 seed gradient entering a float32 graph does not widen it."""
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    (x * 2.0).backward(np.ones((2, 2), dtype=np.float64))
    assert x.grad.dtype == np.float32


def test_fan_out_gradients_do_not_alias():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    total = a + b
    total.sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, total.grad)
    a.grad += 1.0  # must not leak into the other branch
    assert np.array_equal(b.grad, np.ones(3))


MODULES = {
    "linear": lambda: Linear(4, 3, seed=0),
    "linear_no_bias": lambda: Linear(4, 3, bias=False, seed=0),
    "dropout": lambda: Dropout(0.4, seed=0),
    "relu": ReLU,
    "gelu": GELU,
    "prelu": PReLU,
    "layer_norm": lambda: LayerNorm(4),
    "sequential": lambda: Sequential(Linear(4, 4, seed=0), PReLU(), Dropout(0.2, seed=1), LayerNorm(4)),
    "mlp": lambda: MLP(4, [6], 3, dropout=0.2, activation="prelu", norm=True, seed=0),
}


@pytest.mark.parametrize("name", sorted(MODULES))
@settings(max_examples=6, deadline=None)
@given(dtype=dtypes, seed=seeds, rows=st.integers(1, 6))
def test_modules_keep_dtype(name, dtype, seed, rows):
    module = MODULES[name]().to(dtype)
    x = leaf(np.random.default_rng(seed), (rows, 4), dtype)
    assert_closed(module(x), [x] + module.parameters(), dtype)


@pytest.mark.parametrize("block", [MultiHeadAttention, HopAttentionBlock])
@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_keeps_dtype(block, dtype):
    module = block(8, 2, dropout=0.1, seed=0).to(dtype)
    x = leaf(np.random.default_rng(0), (3, 4, 8), dtype)
    assert_closed(module(x), [x] + module.parameters(), dtype)


@pytest.mark.parametrize("name", ["sgc", "sign", "hoga"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_pp_models_keep_dtype(name, dtype):
    model = build_pp_model(name, in_features=6, num_classes=3, num_hops=2, seed=0).to(dtype)
    rng = np.random.default_rng(0)
    feats = [rng.standard_normal((5, 6)).astype(dtype) for _ in range(3)]
    loss = cross_entropy(model(feats), np.array([0, 1, 2, 0, 1]))
    assert loss.dtype == dtype
    loss.backward()
    assert all(p.grad is not None and p.grad.dtype == dtype for p in model.parameters())
    with no_grad():
        assert model(feats).dtype == dtype


@pytest.mark.parametrize("name", ["sage", "gat"])
def test_mp_trainer_runs_in_the_feature_dtype(name, small_pokec):
    model = build_mp_model(name, small_pokec.num_features, small_pokec.num_classes, num_layers=2, seed=0)
    trainer = MPGNNTrainer(
        model, LaborSampler([4, 4]), small_pokec, TrainerConfig(num_epochs=1, batch_size=256, seed=0)
    )
    assert small_pokec.features.dtype == np.float32
    assert np.isfinite(trainer.train_epoch())
    assert all(p.dtype == np.float32 and p.grad.dtype == np.float32 for p in model.parameters())


# --------------------------------------------------------------------------- #
# optimizer state follows the parameter dtype
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("optimizer", [SGD, Adam])
def test_optimizer_state_follows_the_parameter_dtype(optimizer, dtype):
    layer = Linear(3, 2, seed=0).to(dtype)
    kwargs = {"momentum": 0.9} if optimizer is SGD else {}
    opt = optimizer(layer.parameters(), lr=0.01, weight_decay=0.01, **kwargs)
    for _ in range(2):
        opt.zero_grad()
        layer(Tensor(np.ones((4, 3), dtype=dtype))).sum().backward()
        opt.step()
    assert all(p.dtype == dtype for p in layer.parameters())
    moments = opt._velocity if optimizer is SGD else opt._m + opt._v
    assert all(m.dtype == dtype for m in moments)


# --------------------------------------------------------------------------- #
# SGC reads (and wraps) only the hop it uses
# --------------------------------------------------------------------------- #
def test_check_inputs_wraps_in_place_and_only_what_is_used():
    model = SGC(4, 3, num_hops=2, seed=0)
    hops = [np.ones((5, 4), dtype=np.float32) * i for i in range(3)]
    assert model.inputs == range(2, 3)
    # all stored matrices in, or exactly the selection: the deepest is wrapped in place
    for feats in (hops, hops[2:]):
        (last,) = model.check_inputs(feats)
        assert np.shares_memory(last.data, hops[-1]) and last.dtype == np.float32
    sign = build_pp_model("sign", in_features=4, num_classes=3, num_hops=2, seed=0)
    assert sign.inputs == range(3)
    wrapped = sign.check_inputs(hops)
    assert len(wrapped) == 3 and all(np.shares_memory(t.data, h) for t, h in zip(wrapped, hops))
    # validation still covers the matrices forward ignores
    with pytest.raises(ValueError, match="expects 3 hop matrices"):
        model(hops[:2])
    with pytest.raises(ValueError, match="batch size"):
        model([np.ones((4, 4)), hops[1], hops[2]])


# --------------------------------------------------------------------------- #
# numerical bound: float32 training vs float64 training
# --------------------------------------------------------------------------- #
#: Stated bound on |loss32 - loss64| / loss64 after PARITY_EPOCHS epochs of Adam
#: from the same initial weights, same batches and same dropout masks.  SGC is
#: linear, so the two runs differ by float32 rounding only (measured 1e-7).
#: SIGN agrees to 1e-7 for about three epochs; then Adam's per-element
#: normalisation has amplified rounding in near-zero gradient entries to 1e-4
#: relative weight differences, a ReLU/PReLU unit lands on the other side of its
#: kink in one of the runs and the trajectories decouple like two runs with
#: different batch orders would (measured 0.7e-3 .. 1.2e-3 on three seeds).
PARITY_LOSS_RTOL = {"sgc": 1e-5, "sign": 2e-2}
#: ... and on |valid32 - valid64|: 15 of the 300 validation nodes (measured <= 1),
#: far inside one batch's worth of nodes (128)
PARITY_VALID_ATOL = 0.05
PARITY_EPOCHS = 5
PARITY_BATCH = 128


@pytest.fixture(scope="module")
def parity_dataset():
    return load_dataset("igb-medium", seed=7, num_nodes=1500)


def _train(dataset, name, dtype):
    store = PreprocessingPipeline(PropagationConfig(num_hops=2, dtype=dtype)).run(dataset).store
    model = build_pp_model(name, dataset.num_features, dataset.num_classes, num_hops=2, seed=0)
    config = TrainerConfig(num_epochs=PARITY_EPOCHS, batch_size=PARITY_BATCH, seed=0)
    loader = FusedLoader(store, dataset.labels[store.node_ids], batch_size=PARITY_BATCH, seed=0)
    trainer = PPGNNTrainer(model, loader, dataset, config)
    assert all(p.dtype == np.dtype(dtype) for p in model.parameters())
    last = trainer.fit().records[-1]
    return last.train_loss, last.valid_accuracy


@pytest.mark.parametrize("name", ["sign", "sgc"])
def test_float32_training_stays_within_the_stated_bound_of_float64(name, parity_dataset):
    loss32, valid32 = _train(parity_dataset, name, "float32")
    loss64, valid64 = _train(parity_dataset, name, "float64")
    assert np.isfinite(loss32) and np.isfinite(loss64)
    assert abs(loss32 - loss64) <= PARITY_LOSS_RTOL[name] * abs(loss64), (loss32, loss64)
    assert PARITY_VALID_ATOL * parity_dataset.split.valid.size <= PARITY_BATCH
    assert abs(valid32 - valid64) <= PARITY_VALID_ATOL, (valid32, valid64)


# --------------------------------------------------------------------------- #
# aliasing: the model reads the loader's ring buffers in place
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["sign", "sgc"])
def test_training_over_reused_buffers_is_bit_identical(name, prepared_store, small_dataset):
    store = prepared_store.store
    labels = small_dataset.labels[store.node_ids]

    def losses(reuse_buffers: bool, prefetch: bool):
        model = build_pp_model(name, small_dataset.num_features, small_dataset.num_classes, num_hops=2, seed=0)
        loader = FusedLoader(
            store, labels, batch_size=128, seed=0, packed=True, reuse_buffers=reuse_buffers, num_buffers=3
        )
        config = TrainerConfig(num_epochs=3, batch_size=128, seed=0, prefetch=prefetch)
        with PPGNNTrainer(model, loader, small_dataset, config) as trainer:
            return [trainer.train_epoch() for _ in range(3)]

    reference = losses(reuse_buffers=False, prefetch=False)
    assert all(np.isfinite(reference))
    assert losses(reuse_buffers=True, prefetch=True) == reference
    assert losses(reuse_buffers=True, prefetch=False) == reference


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_sgc_trained_on_its_selected_input_equals_training_on_every_matrix(dtype, small_dataset):
    """The fused path assembles only SGC's hop; the baseline loader assembles
    all of them and the model picks its own.  Same schedule, same bytes."""
    store = PreprocessingPipeline(PropagationConfig(num_hops=2, dtype=dtype)).run(small_dataset).store
    labels = small_dataset.labels[store.node_ids]

    def parameters(loader_cls):
        model = build_pp_model("sgc", small_dataset.num_features, small_dataset.num_classes, num_hops=2, seed=0)
        loader = loader_cls(store, labels, batch_size=128, seed=0)
        with PPGNNTrainer(model, loader, small_dataset, TrainerConfig(batch_size=128, seed=0)) as trainer:
            for _ in range(4):
                trainer.train_epoch()
        assert loader.inputs == (model.inputs if loader_cls is FusedLoader else range(3))
        return [p.data.tobytes() for p in model.parameters()]

    assert parameters(FusedLoader) == parameters(BaselineLoader)


# --------------------------------------------------------------------------- #
# fused linear against the two-node form it replaced (float64)
# --------------------------------------------------------------------------- #
#: F.linear computes the weight gradient as one ``grad.T @ x`` GEMM over the
#: flattened batch axes; ``x.matmul(w.transpose()) + b`` computed ``x.T @ grad``
#: per leading index, summed and transposed.  Same sums, different association:
#: equal to the last bits (bit-identical for 2-D inputs on one BLAS thread).
LINEAR_GRAD_RTOL = 1e-12


@pytest.mark.parametrize("shape", [(96, 24), (32, 4, 24)], ids=["2d", "3d-as-in-hoga"])
def test_fused_linear_matches_the_two_node_form_in_float64(shape):
    rng = np.random.default_rng(3)
    x, w, b = rng.standard_normal(shape), rng.standard_normal((16, 24)), rng.standard_normal(16)
    seed_grad = rng.standard_normal(shape[:-1] + (16,))

    def grads(affine):
        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = affine(xt, wt, bt)
        out.backward(seed_grad)
        return out.data, xt.grad, wt.grad, bt.grad

    out, gx, gw, gb = grads(F.linear)
    ref_out, ref_gx, ref_gw, ref_gb = grads(lambda xt, wt, bt: xt.matmul(wt.transpose()) + bt)
    assert np.array_equal(out, ref_out) and np.array_equal(gx, ref_gx)
    for got, ref in ((gw, ref_gw), (gb, ref_gb)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=LINEAR_GRAD_RTOL * np.abs(ref).max())


# --------------------------------------------------------------------------- #
# fused dropout
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_dropout_mask_is_the_generators_uniform_stream(p, dtype):
    """Kept where ``rng.random(shape) >= p``: the seeded masks this repo has always drawn."""
    x = np.full((37, 21), 2.0, dtype=dtype)
    out = F.dropout(Tensor(x), p, rng=np.random.default_rng(11))
    expected = np.random.default_rng(11).random(x.shape) >= p
    assert np.array_equal(out.data != 0, expected)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p", [0.1, 0.5, 0.8])
def test_dropout_statistics(p, dtype):
    n = 400_000
    x = Tensor(np.full((n // 100, 100), 3.0, dtype=dtype), requires_grad=True)
    out = F.dropout(x, p, rng=np.random.default_rng(5))
    kept = out.data != 0
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(kept.mean() - (1 - p)) < 5 * sigma
    # kept entries are scaled by exactly 1 / (1 - p), so E[out] = x
    assert np.allclose(out.data[kept], 3.0 / (1.0 - p), rtol=1e-6)
    assert abs(out.data.mean() - 3.0) < 3.0 * 5 * sigma / (1 - p)
    out.backward(np.ones_like(out.data))
    assert np.array_equal(x.grad != 0, kept)
    assert np.allclose(x.grad[kept], 1.0 / (1.0 - p), rtol=1e-6)


def test_dropout_is_reproducible_per_seed_and_independent_of_dtype():
    x = np.ones((64, 33))
    masks = [
        F.dropout(Tensor(x.astype(dtype)), 0.3, rng=np.random.default_rng(seed)).data != 0
        for seed, dtype in [(1, np.float32), (1, np.float32), (1, np.float64), (2, np.float32)]
    ]
    assert np.array_equal(masks[0], masks[1])
    assert np.array_equal(masks[0], masks[2])
    assert not np.array_equal(masks[0], masks[3])
    layer_a, layer_b = Dropout(0.3, seed=9), Dropout(0.3, seed=9)
    first = layer_a(Tensor(x)).data
    assert np.array_equal(first, layer_b(Tensor(x)).data)
    assert not np.array_equal(first, layer_a(Tensor(x)).data)  # the module's stream advances
