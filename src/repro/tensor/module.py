"""Module system and the dense layers used by the GNN models."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.parameter import Parameter
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike, new_rng


class Module:
    """Base class for all neural network modules.

    Mirrors the familiar ``torch.nn.Module`` contract: submodules and
    parameters assigned as attributes are registered automatically, and
    :meth:`parameters` walks the tree.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute registration ---------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode ---------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- precision -------------------------------------------------------- #
    def to(self, dtype) -> "Module":
        """Cast every parameter to the floating ``dtype`` in place.

        The engine computes in the dtype of its operands, so this selects the
        training precision; call it before building an optimizer so that the
        optimizer's moments are allocated in the same dtype.
        """
        for p in self.parameters():
            p.to(dtype)
        return self

    # -- call ------------------------------------------------------------ #
    def forward(self, *args, **kwargs) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine transform ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: SeedLike = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = new_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng), name="weight")
        self.bias: Optional[Parameter]
        if bias:
            self.bias = Parameter(init.uniform_bias(in_features, out_features, rng), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Dropout(Module):
    """Inverted dropout layer; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, seed: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = new_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self.rng)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class PReLU(Module):
    """Parametric ReLU with a single learnable slope (used by SIGN)."""

    def __init__(self, init_slope: float = 0.25) -> None:
        super().__init__()
        self.slope = Parameter(np.array([init_slope]), name="prelu_slope")

    def forward(self, x: Tensor) -> Tensor:
        return F.prelu(x, self.slope)


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        if normalized_shape <= 0:
            raise ValueError("normalized_shape must be positive")
        self.eps = eps
        self.normalized_shape = normalized_shape
        self.weight = Parameter(np.ones(normalized_shape), name="ln_weight")
        self.bias = Parameter(np.zeros(normalized_shape), name="ln_bias")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_shape:
            raise ValueError(
                f"LayerNorm expected last dim {self.normalized_shape}, got {x.shape[-1]}"
            )
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Sequential(Module):
    """Runs modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for idx, module in enumerate(modules):
            setattr(self, f"layer_{idx}", module)
            self._layers.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._layers:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with dropout, used as the PP-GNN output head.

    ``hidden_dims`` may be empty, yielding a single linear layer.
    """

    def __init__(
        self,
        in_features: int,
        hidden_dims: Sequence[int],
        out_features: int,
        dropout: float = 0.0,
        activation: str = "relu",
        norm: bool = False,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = new_rng(seed)
        activations = {"relu": ReLU, "gelu": GELU, "prelu": PReLU}
        if activation not in activations:
            raise ValueError(f"unknown activation {activation!r}; choose from {sorted(activations)}")
        layers: List[Module] = []
        prev = in_features
        for width in hidden_dims:
            layers.append(Linear(prev, width, seed=rng))
            if norm:
                layers.append(LayerNorm(width))
            layers.append(activations[activation]())
            if dropout > 0:
                layers.append(Dropout(dropout, seed=rng))
            prev = width
        layers.append(Linear(prev, out_features, seed=rng))
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
