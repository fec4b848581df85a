"""The public API only grows: every name exported today stays exported.

``PINNED`` is ``falconnet.__all__`` as it stood when this test was added.
A release may add names; removing or renaming one breaks callers, so it
fails here. Add new names to ``PINNED`` once they ship.
"""

import falconnet
from falconnet import channel, costs, model, ops, spatial, store

PINNED = (
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
)


def test_all_keeps_every_pinned_name():
    missing = [name for name in PINNED if name not in falconnet.__all__]
    assert not missing, f"removed from falconnet.__all__: {missing}"


def test_every_exported_name_resolves():
    assert len(set(falconnet.__all__)) == len(falconnet.__all__)
    for name in falconnet.__all__:
        assert hasattr(falconnet, name), name


def test_each_exported_name_is_listed_by_one_module():
    # The package joins its modules' __all__ lists, so each name is declared once.
    owners = {}
    for module in (ops, spatial, channel, store, model, costs):
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    assert sorted(owners) == sorted(falconnet.__all__)
    for name, modules in owners.items():
        assert len(modules) == 1, (name, modules)
        assert getattr(falconnet, name) is getattr(modules[0], name)
