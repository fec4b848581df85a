"""Model construction, execution, fusion and serialization tests.

The compositional oracle test re-executes a small model by hand with the
low-level kernels, pulling weights by name, and requires the graph
interpreter to match exactly.
"""

import numpy as np
import pytest
from fractions import Fraction

from falconnet import (BlockConfig, BnParams, ChannelSlot, ConfigError, ConvSpec,
                       ModelConfig, ShapeError, SpatialSlot, StoreError, WeightStore,
                       build_model, config_from_json, config_to_json, conv2d, forward,
                       fuse_model, fusible_count, global_avg_pool, init_weights,
                       iter_param_entries, linear, load_weights, preset_config, relu,
                       save_weights, batch_norm_infer, verify_equivalence)
from falconnet.model import BlockNode, fused_structure


def tiny_config(**overrides):
    base = dict(
        stem_channels=4,
        stage_blocks=(1, 1, 1, 1),
        stage_channels=(4, 8, 16, 32),
        block=BlockConfig(expansion=Fraction(2), spatial=SpatialSlot("dw_conv"),
                          channel=ChannelSlot("pw_dense")),
        head_width=16,
        num_classes=5,
        input_resolution=32,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_falconnet(**overrides):
    return tiny_config(
        stem_channels=8, stage_channels=(8, 16, 32, 64),
        block=BlockConfig(expansion=Fraction(6), spatial=SpatialSlot("repso"),
                          channel=ChannelSlot("refco")),
        **overrides)


class TestConfig:
    def test_presets_build(self):
        for name in ("falconnet", "lightnet-repso", "lightnet-irb"):
            cfg = preset_config(name)
            assert cfg.stage_blocks == (3, 3, 9, 3)
            assert cfg.stage_channels == (32, 64, 128, 256)
            assert cfg.block.expansion == 6
            build_model(tiny_config())  # smoke alongside

    def test_falconnet_preset_slots(self):
        cfg = preset_config("falconnet")
        assert cfg.block.spatial.kind == "repso"
        assert cfg.block.spatial.n_parallel_3x3 == 3
        assert cfg.block.channel.kind == "refco"
        assert cfg.block.channel.reduction == 2

    def test_irb_preset_matches_light_block_slotting(self):
        cfg = preset_config("lightnet-irb")
        assert cfg.block.form == "meta_light"
        assert cfg.block.spatial.kind == "dw_conv"
        assert cfg.block.channel.kind == "pw_dense"
        assert cfg.block.expansion == 6

    def test_json_round_trip(self):
        cfg = tiny_falconnet()
        assert config_from_json(config_to_json(cfg)) == cfg
        basic = tiny_config(block=BlockConfig(
            form="meta_basic", expansion=Fraction(1, 2),
            spatial=SpatialSlot("dw_conv"), channel=ChannelSlot("pw_dense"),
            spatial_first=SpatialSlot("dw_conv")))
        assert config_from_json(config_to_json(basic)) == basic

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            config_from_json('{"bogus": 1}')
        with pytest.raises(ConfigError, match="block"):
            config_from_json('{"block": {"typo": true}}')

    def test_channel_plan_must_double(self):
        with pytest.raises(ConfigError, match="doubles"):
            tiny_config(stage_channels=(4, 8, 12, 24))

    def test_stem_must_match_first_stage(self):
        with pytest.raises(ConfigError, match="stem_channels"):
            tiny_config(stem_channels=6)

    def test_fractional_expansion_must_divide(self):
        with pytest.raises(ConfigError, match="not a"):
            tiny_config(block=BlockConfig(expansion=Fraction(1, 6),
                                          spatial=SpatialSlot("dw_conv"),
                                          channel=ChannelSlot("pw_dense")))

    def test_expansion_string_forms(self):
        cfg = config_from_json(config_to_json(tiny_config()).replace('"expansion": 2',
                                                                     '"expansion": "4/2"'))
        assert cfg.block.expansion == 2


class TestBuild:
    def test_default_block_count_is_18(self):
        import re
        graph = build_model(preset_config("falconnet"))
        blocks = [n for n in graph.nodes
                  if isinstance(n, BlockNode) and re.fullmatch(r"s\d+\.b\d+", n.name)]
        assert len(blocks) == 18

    def test_refco_slots_get_admissible_kernels(self):
        graph = build_model(preset_config("falconnet"))
        from falconnet.model import RefCONode

        def collect(nodes, out):
            for n in nodes:
                if isinstance(n, BlockNode):
                    collect(n.body, out)
                elif isinstance(n, RefCONode):
                    out.append(n.spec)
        specs = []
        collect(graph.nodes, specs)
        assert len(specs) == 36  # two channel slots in each of 18 blocks
        for s in specs:
            assert s.c_in % s.kernel == 0
            assert s.kernel % s.reduction == 0
            assert s.c_out % (s.kernel // s.reduction) == 0

    def test_resolution_too_small_fails(self):
        with pytest.raises(ShapeError, match="empty"):
            build_model(tiny_config(input_resolution=2))

    def test_inadmissible_factorization_spec_fails(self):
        # 2 -> 12 with reduction 4 has no window length: K must divide 2 and
        # be a multiple of 4.
        cfg = tiny_config(stem_channels=2, stage_channels=(2, 4, 8, 16),
                          block=BlockConfig(expansion=Fraction(6),
                                            spatial=SpatialSlot("dw_conv"),
                                            channel=ChannelSlot("refco", reduction=4)))
        with pytest.raises(ConfigError, match="no admissible"):
            build_model(cfg)

    def test_non_residual_block_drops_shortcut(self):
        cfg = tiny_config(block=BlockConfig(expansion=Fraction(2),
                                            spatial=SpatialSlot("dw_conv"),
                                            channel=ChannelSlot("pw_dense"),
                                            residual=False))
        graph = build_model(cfg)
        store = WeightStore()
        for e in iter_param_entries(graph):
            store.put(e.key, np.zeros(e.shape, np.float32))
        block = next(n for n in graph.nodes
                     if isinstance(n, BlockNode) and n.name == "s1.b0")
        assert not block.residual
        x = np.random.default_rng(3).standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = _apply_block(block, store, x)
        np.testing.assert_array_equal(out, np.zeros_like(x))


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        cfg = tiny_config()
        graph = build_model(cfg)
        store = WeightStore()
        for e in iter_param_entries(graph):
            store.put(e.key, np.zeros(e.shape, np.float32))
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        logits = forward(graph, store, x)
        np.testing.assert_array_equal(logits, np.zeros((2, 5), np.float32))

    def test_determinism_is_bitwise(self):
        cfg = tiny_falconnet()
        graph = build_model(cfg)
        store = init_weights(graph, seed=3)
        x = np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32)
        a = forward(graph, store, x)
        b = forward(graph, store, x)
        assert a.tobytes() == b.tobytes()

    def test_input_validation(self):
        cfg = tiny_config()
        graph = build_model(cfg)
        store = init_weights(graph)
        with pytest.raises(ShapeError, match="input"):
            forward(graph, store, np.zeros((1, 3, 16, 16), np.float32))
        with pytest.raises(ShapeError, match="input"):
            forward(graph, store, np.zeros((1, 1, 32, 32), np.float32))

    def test_missing_weight_is_named(self):
        cfg = tiny_config()
        graph = build_model(cfg)
        store = init_weights(graph)
        broken = WeightStore({k: v for k, v in store.items() if k != "head.fc.weight"})
        with pytest.raises(StoreError, match="head.fc.weight"):
            forward(graph, broken, np.zeros((1, 3, 32, 32), np.float32))

    def test_residual_block_with_zero_body_is_identity(self):
        cfg = tiny_config()
        graph = build_model(cfg)
        store = WeightStore()
        for e in iter_param_entries(graph):
            if e.role == "bn_gamma":
                arr = np.ones(e.shape, np.float32)  # identity normalization
            elif e.role == "bn_var":
                arr = np.ones(e.shape, np.float32)
            else:
                arr = np.zeros(e.shape, np.float32)
            store.put(e.key, arr)
        block = next(n for n in graph.nodes
                     if isinstance(n, BlockNode) and n.name == "s1.b0")
        from falconnet.model import _run
        x = np.random.default_rng(2).standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = _apply_block(block, store, x)
        np.testing.assert_array_equal(out, x)


def _apply_block(block, store, x):
    from falconnet.model import _run
    y = _run(block.body, store, x)
    return x + y if block.residual else y


def test_hand_composed_tiny_model_matches_graph_interpreter():
    cfg = tiny_config()
    graph = build_model(cfg)
    store = init_weights(graph, seed=11)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    got = forward(graph, store, x)

    def bn(prefix, c, t):
        p = BnParams(store.get(f"{prefix}.gamma"), store.get(f"{prefix}.beta"),
                     store.get(f"{prefix}.mean"), store.get(f"{prefix}.var"))
        return batch_norm_infer(t, p)

    def conv(name, spec, t, bias=False):
        b = store.get(f"{name}.bias") if bias else None
        return conv2d(t, store.get(f"{name}.weight"), b, spec)

    t = conv("stem.conv", ConvSpec(3, 4, 3, 3, 2, 2, 1, 1), x)
    t = relu(bn("stem.bn1", 4, t))
    inner = conv("stem.dw", ConvSpec(4, 4, 3, 3, 1, 1, 1, 1, groups=4, has_bias=True),
                 t, bias=True)
    inner = conv("stem.pw", ConvSpec(4, 4, has_bias=True), inner, bias=True)
    t = t + inner
    t = bn("stem.bn2", 4, conv("stem.down", ConvSpec(4, 4, 3, 3, 2, 2, 1, 1, groups=4), t))

    channels = 4
    for si in range(1, 5):
        if si > 1:
            t = conv(f"sub{si - 1}.conv",
                     ConvSpec(channels, 2 * channels, 2, 2, 2, 2, 0, 0, groups=channels), t)
            channels *= 2
            t = bn(f"sub{si - 1}.bn", channels, t)
        wide = 2 * channels
        name = f"s{si}.b0"
        body = conv(f"{name}.expand", ConvSpec(channels, wide), t)
        body = relu(bn(f"{name}.expand.bn", wide, body))
        body = conv(f"{name}.spatial",
                    ConvSpec(wide, wide, 3, 3, 1, 1, 1, 1, groups=wide), body)
        body = relu(bn(f"{name}.spatial.bn", wide, body))
        body = conv(f"{name}.reduce", ConvSpec(wide, channels), body)
        body = bn(f"{name}.reduce.bn", channels, body)
        t = t + body

    t = relu(conv("head.mix", ConvSpec(32, 16, has_bias=True), t, bias=True))
    t = global_avg_pool(t).reshape(t.shape[0], -1)
    expected = linear(t, store.get("head.fc.weight"), store.get("head.fc.bias"))
    np.testing.assert_array_equal(got, expected)


class TestFuseModel:
    def test_fused_graph_has_no_fusible_slots(self):
        cfg = tiny_falconnet()
        graph = build_model(cfg)
        store = init_weights(graph, seed=5)
        assert fusible_count(graph) > 0
        fused_graph, fused_store = fuse_model(graph, store)
        assert fusible_count(fused_graph) == 0
        # Fusing again changes nothing: same structure, same bytes.
        again_graph, again_store = fuse_model(fused_graph, fused_store)
        assert again_graph.nodes == fused_graph.nodes
        assert again_store.equals_bitwise(fused_store)

    def test_fused_structure_matches_fuse_model_topology(self):
        cfg = tiny_falconnet()
        graph = build_model(cfg)
        store = init_weights(graph, seed=6)
        fused_graph, _ = fuse_model(graph, store)
        assert fused_structure(graph).nodes == fused_graph.nodes

    def test_small_model_equivalence(self):
        for maker in (tiny_config, tiny_falconnet):
            cfg = maker()
            graph = build_model(cfg)
            store = init_weights(graph, seed=7)
            fused_graph, fused_store = fuse_model(graph, store)
            report = verify_equivalence(
                lambda z: forward(graph, store, z),
                lambda z: forward(fused_graph, fused_store, z),
                4, (1, 3, 32, 32), 1e-4)
            assert report.passed, report

    def test_store_round_trip_preserves_forward(self, tmp_path):
        cfg = tiny_falconnet()
        graph = build_model(cfg)
        store = init_weights(graph, seed=8)
        path = tmp_path / "w.falc"
        save_weights(store, path)
        loaded = load_weights(path)
        x = np.random.default_rng(5).standard_normal((1, 3, 32, 32)).astype(np.float32)
        assert forward(graph, store, x).tobytes() == forward(graph, loaded, x).tobytes()

    def test_entry_enumeration_matches_store(self):
        cfg = tiny_falconnet()
        graph = build_model(cfg)
        store = init_weights(graph, seed=9)
        keys = [e.key for e in iter_param_entries(graph)]
        assert keys == store.names()
        fused_graph, fused_store = fuse_model(graph, store)
        fused_keys = [e.key for e in iter_param_entries(fused_graph)]
        assert sorted(fused_keys) == sorted(fused_store.names())
        for e in iter_param_entries(fused_graph):
            assert fused_store.get(e.key).shape == tuple(e.shape)


def basic_sf_config(**overrides):
    """meta_basic blocks with RepSO before and after an SF-Conv sandwich."""
    block = BlockConfig(form="meta_basic", spatial_first=SpatialSlot("repso"),
                        spatial_last=SpatialSlot("repso"), channel=ChannelSlot("sf_conv"))
    return ModelConfig(block=block, **overrides)


class TestFusionBookkeeping:
    @pytest.mark.parametrize("preset", ["falconnet", "lightnet-repso", "lightnet-irb"])
    def test_preset_fusible_count(self, preset):
        assert fusible_count(build_model(preset_config(preset))) == 59

    def test_meta_basic_fusible_count(self):
        graph = build_model(basic_sf_config())
        assert fusible_count(graph) == 95
        assert fusible_count(fused_structure(graph)) == 0

    def test_undamped_closing_op_skips_trailing_repso(self):
        graph = build_model(basic_sf_config(input_resolution=64))
        store = init_weights(graph, 0, residual_damp=0.0)
        assert not store.get("s1.b0.reduce.w2").any()
        assert store.get("s1.b0.post.dw3x3_0.kernel").any()

    def test_sfconv_bn_fold_matches_hand_fold(self):
        from falconnet import fuse_bn_into_linear
        from falconnet.model import BnNode, SFConvNode
        cfg = tiny_config(block=BlockConfig(expansion=Fraction(2), spatial=SpatialSlot("dw_conv"),
                                            channel=ChannelSlot("sf_conv")))
        graph = build_model(cfg)
        store = init_weights(graph, seed=5)
        _, fused = fuse_model(graph, store)
        checked = 0
        for block in graph.nodes:
            if not isinstance(block, BlockNode):
                continue
            for node, nxt in zip(block.body, block.body[1:]):
                if not (isinstance(node, SFConvNode) and isinstance(nxt, BnNode)):
                    continue
                bn = BnParams(*(store.get(f"{nxt.name}.{p}")
                                for p in ("gamma", "beta", "mean", "var")), nxt.eps)
                w2, b2 = fuse_bn_into_linear(store.get(f"{node.name}.w2"), None, bn)
                assert fused.get(f"{node.name}.w2").tobytes() == w2.tobytes()
                assert fused.get(f"{node.name}.bias2").tobytes() == b2.tobytes()
                assert fused.get(f"{node.name}.w1").tobytes() == \
                    store.get(f"{node.name}.w1").tobytes()
                checked += 1
        assert checked == 2 * sum(cfg.stage_blocks)
