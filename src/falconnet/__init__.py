"""falconnet: factorized light-weight CNN operators as a numpy library.

The toolkit covers four layers of structure, from fine to coarse:

* reference tensor kernels (conv2d, inference batch norm, pooling, linear),
* RepSO, a multi-branch depthwise spatial operator that merges into a
  single biased 3x3 kernel for inference,
* SF-Conv, a two-stage sparse factorization of the dense 1x1 convolution
  that keeps a full receptive range, and RefCO, its multi-branch training
  form that merges back into one SF-Conv,
* LightNet / FalconNet model assembly with declarative block configs, a
  fusion engine, parameter/Flops accounting, weight serialization, and a
  command-line front end (see falconnet.cli).
"""

from .ops import (BnParams, ConvSpec, ShapeError, Tensor, add, batch_norm_infer, conv2d,
                  fuse_bn_into_linear, global_avg_pool, linear, relu)
from .spatial import (FusedDWConv, RepSOBranch, RepSOConfig, RepSOWeights, kernel_magnitude_matrix,
                      merge_repso, pad_kernel_to_3x3, random_repso_weights, repso_forward)
from .channel import (ChannelPattern, RefCOBranch, SFConvSpec, SFConvWeights,
                      admissible_kernel_sizes, choose_kernel_size, merge_refco,
                      random_refco_branches, receptive_range, refco_forward, sfconv_forward,
                      sfconv_param_count)
from .store import StoreError, WeightStore, load_input_tensor, load_weights, save_weights
from .model import (BlockConfig, ChannelSlot, ConfigError, FusionReport, LayerGraph, ModelConfig,
                    SpatialSlot, build_model, config_from_json, config_to_json, forward, fuse_model,
                    fused_structure, fusible_count, init_weights, iter_param_entries, load_config,
                    preset_config, save_config, verify_equivalence)
from .costs import CostReport, LayerCost, cost_report, count_flops, count_params

__version__ = "0.1.0"

__all__ = [
    "Tensor", "ShapeError", "ConvSpec", "BnParams",
    "conv2d", "batch_norm_infer", "relu", "global_avg_pool", "linear", "add",
    "RepSOConfig", "RepSOBranch", "RepSOWeights", "repso_forward",
    "kernel_magnitude_matrix", "random_repso_weights",
    "SFConvSpec", "SFConvWeights", "RefCOBranch", "ChannelPattern",
    "admissible_kernel_sizes", "choose_kernel_size", "sfconv_param_count",
    "sfconv_forward", "refco_forward", "receptive_range", "random_refco_branches",
    "FusedDWConv", "FusionReport", "fuse_bn_into_linear", "pad_kernel_to_3x3",
    "merge_repso", "merge_refco", "verify_equivalence",
    "StoreError", "WeightStore", "save_weights", "load_weights", "load_input_tensor",
    "ConfigError", "SpatialSlot", "ChannelSlot", "BlockConfig", "ModelConfig",
    "LayerGraph", "preset_config", "config_to_json", "config_from_json",
    "load_config", "save_config", "build_model", "forward", "init_weights",
    "iter_param_entries", "fuse_model", "fused_structure", "fusible_count",
    "CostReport", "LayerCost", "cost_report", "count_params", "count_flops",
]
