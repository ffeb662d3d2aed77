"""Factorized N-dimensional linear layers.

One weight matrix per feature axis, applied as sequential mode-wise
products, instead of one dense matrix on the flattened features. The
package bundles the layer with hand-written gradients, a flattened
dense-equivalence oracle, exact parameter/FLOP accounting, a small
training engine, low-rank adapters, and a CLI (``ndlinear``).
"""

from . import cli, layer, lora, ndt, nn, oracle, tensor
from .layer import (
    FlopCounter,
    NdLinearLayer,
    backward,
    dense_flop_count,
    dense_param_count,
    effective_bias,
    flop_count,
    forward,
    forward_only,
    init_xavier,
    load_layer,
    param_count,
    plan_modes,
    save_layer,
)
from .oracle import flat_forward, materialize_full_weight, probe_full_map
from .tensor import ShapeError, make_rng, mode_k_product

__version__ = "0.1.0"

__all__ = [
    "tensor", "ndt", "layer", "oracle", "nn", "lora", "cli",
    "NdLinearLayer", "FlopCounter", "init_xavier", "forward", "forward_only",
    "backward", "param_count", "dense_param_count", "flop_count",
    "dense_flop_count", "plan_modes", "effective_bias", "save_layer", "load_layer",
    "materialize_full_weight", "probe_full_map", "flat_forward",
    "make_rng", "mode_k_product", "ShapeError",
    "__version__",
]
