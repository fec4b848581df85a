"""Parameter and Flops accounting tests."""

import pytest
from fractions import Fraction

from falconnet import (BlockConfig, ChannelSlot, ModelConfig, ShapeError, SpatialSlot,
                       build_model, count_flops, count_params, fuse_model, init_weights,
                       preset_config)
from falconnet.costs import cost_report


def tiny(block=None, **overrides):
    base = dict(stem_channels=8, stage_blocks=(1, 1, 1, 1), stage_channels=(8, 16, 32, 64),
                head_width=32, num_classes=7, input_resolution=32)
    base.update(overrides)
    if block is not None:
        base["block"] = block
    return ModelConfig(**base)


def layer(report, name):
    for row in report.layers:
        if row.name == name:
            return row
    raise AssertionError(f"no layer {name}")


def test_dense_pointwise_expansion_params():
    cfg = preset_config("lightnet-repso")
    report = count_params(build_model(cfg), mode="train")
    row = layer(report, "s1.b0.expand")
    assert row.params == 32 * 192 == 6144
    assert row.category == "channel"


def test_fused_spatial_operator_params():
    cfg = preset_config("falconnet")
    report = count_params(build_model(cfg), mode="inference")
    row = layer(report, "s1.b0.spatial")
    assert row.params == 9 * 192 + 192 == 1920
    assert row.category == "spatial"
    assert row.kind == "conv3x3"


def test_flops_convention():
    cfg = preset_config("lightnet-repso")
    report = count_flops(build_model(cfg), 224, mode="train")
    # A bare dense pointwise at 56x56: params * output area.
    row = layer(report, "s1.b0.expand")
    assert row.out_h == row.out_w == 56
    assert row.flops == 6144 * 56 * 56

    pw = ModelConfig(stem_channels=32, stage_blocks=(1, 1, 1, 1),
                     stage_channels=(32, 64, 128, 256), head_width=64, num_classes=3,
                     input_resolution=224,
                     block=BlockConfig(expansion=Fraction(2), spatial=SpatialSlot("dw_conv"),
                                       channel=ChannelSlot("pw_dense")))
    r = count_flops(build_model(pw), 224, mode="train")
    assert layer(r, "s2.b0.expand").flops == (64 * 128) * 28 * 28


def test_flops_at_unit_output_equal_params():
    cfg = preset_config("falconnet")
    report = count_flops(build_model(cfg), 224, mode="inference")
    fc = layer(report, "head.fc")
    assert fc.out_h == fc.out_w == 1
    assert fc.flops == fc.params


def test_doubling_resolution_quadruples_every_conv_flops():
    cfg = tiny()
    graph = build_model(cfg)
    small = count_flops(graph, 32, mode="inference")
    large = count_flops(graph, 64, mode="inference")
    for a, b in zip(small.layers, large.layers):
        assert a.name == b.name
        if a.flops and a.out_h > 1:  # head runs at 1x1 either way
            assert b.flops == 4 * a.flops


def test_inference_count_matches_weight_enumeration():
    cfg = tiny(block=BlockConfig(expansion=Fraction(6), spatial=SpatialSlot("repso"),
                                 channel=ChannelSlot("refco")))
    graph = build_model(cfg)
    store = init_weights(graph, seed=0)
    fused_graph, fused_store = fuse_model(graph, store)
    report = count_params(graph, mode="inference")
    enumerated = sum(arr.size for _, arr in fused_store.items())
    assert report.total_params == enumerated
    # Same identity on the fused graph counted directly.
    assert count_params(fused_graph, mode="inference").total_params == enumerated
    assert count_params(fused_graph, mode="train").total_params == enumerated


def test_train_count_matches_weight_enumeration_except_bn_stats():
    cfg = tiny(block=BlockConfig(expansion=Fraction(6), spatial=SpatialSlot("repso"),
                                 channel=ChannelSlot("refco")))
    graph = build_model(cfg)
    store = init_weights(graph, seed=1)
    report = count_params(graph, mode="train")
    # Running statistics (mean, var) are buffers: stored but not counted.
    stats = sum(arr.size for name, arr in store.items()
                if name.endswith(".mean") or name.endswith(".var"))
    total = sum(arr.size for _, arr in store.items())
    assert report.total_params == total - stats


def test_head_excluded_from_category_split():
    cfg = preset_config("falconnet")
    report = count_params(build_model(cfg), mode="inference")
    assert report.params_by_category["head"] == 1024 * 1000 + 1000
    assert report.backbone_params + report.params_by_category["head"] == report.total_params
    shares = report.param_shares()
    assert sum(shares.values()) == pytest.approx(100.0, abs=1e-6)
    # Channel mixing dominates the spatial share in this family.
    assert shares["channel"] > shares["spatial"]


def test_inference_mode_has_no_norm_params():
    cfg = preset_config("falconnet")
    report = count_params(build_model(cfg), mode="inference")
    assert report.params_by_category["other"] == 0
    train = count_params(build_model(cfg), mode="train")
    assert train.params_by_category["other"] > 0


def test_mode_validation():
    graph = build_model(tiny())
    with pytest.raises(ValueError, match="mode"):
        cost_report(graph, mode="deploy")


@pytest.mark.parametrize("resolution", [0, -3])
def test_resolution_must_be_positive(resolution):
    with pytest.raises(ShapeError) as e:
        cost_report(build_model(tiny()), resolution=resolution)
    assert str(e.value) == f"resolution must be positive, got {resolution}"
