"""Model construction, execution, fusion and serialization tests.

The compositional oracle test re-executes a small model by hand with the
low-level kernels, pulling weights by name, and requires the graph
interpreter to match exactly.
"""

import json
import re
from collections import Counter

import numpy as np
import pytest
from dataclasses import replace
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import falconnet.channel as channel_mod
import falconnet.model as model_mod
import reference_kernels as ref

from falconnet import (BlockConfig, BnParams, ChannelSlot, ConfigError, ConvSpec,
                       ModelConfig, ShapeError, SpatialSlot, StoreError, WeightStore,
                       build_model, config_from_json, config_to_json, conv2d, forward,
                       fuse_model, fusible_count, global_avg_pool, init_weights,
                       iter_param_entries, LayerGraph, linear, load_weights, preset_config,
                       relu, save_weights, batch_norm_infer, verify_equivalence)
from falconnet.costs import cost_report
from falconnet.model import (PRESET_NAMES, BlockNode, ConvNode, FlattenNode, LinearNode,
                             fused_structure)


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

    @pytest.mark.parametrize("doc, message", [
        ('{"block": {"residual": "no"}}', 'block.residual must be true or false, got "no"'),
        ('{"num_classes": true}', "num_classes must be an integer, got true"),
        ('{"stage_channels": ["32", "64", "128", "256"]}',
         'stage_channels[0] must be an integer, got "32"'),
        ('{"input_resolution": 224.0}', "input_resolution must be an integer, got 224.0"),
        ('{"head_width": null}', "head_width must be an integer, got null"),
        ('{"stage_blocks": 3}', "stage_blocks must be a list of integers, got 3"),
        ('{"block": {"spatial": {"n_parallel_3x3": "3"}}}',
         'block.spatial.n_parallel_3x3 must be an integer, got "3"'),
        ('{"block": {"spatial": []}}', "block.spatial must be an object, got a list"),
        ('{"block": {"expansion": 1e400}}',
         "block.expansion must be a number or a 'p/q' string, got Infinity"),
        ('{"block": {"expansion": "1e99999999"}}', 'cannot parse block.expansion "1e99999999"'),
        ('{"block": {"expansion": "1/0"}}', 'cannot parse block.expansion "1/0"'),
        ('{"block": {"spatial_first": {"kind": "dw_conv"}}}', "only valid for meta_basic"),
        ("[" * 200000, "invalid JSON"),
        ('{"head_width": 1' + "0" * 5000 + "}", "invalid JSON"),
    ], ids=lambda text: text[:40])
    def test_mistyped_documents_raise_config_error(self, doc, message):
        with pytest.raises(ConfigError) as e:
            config_from_json(doc)
        assert message in str(e.value)

    def test_absent_keys_take_dataclass_defaults(self):
        assert config_from_json("{}") == ModelConfig()
        assert config_from_json('{"block": {"spatial": {}}}') == ModelConfig()

    @pytest.mark.parametrize("kind", ["identity", "dw_conv"])
    def test_repso_options_rejected_on_other_spatial_slots(self, kind):
        # The encoder writes RepSO options only for repso slots, so accepting
        # them elsewhere would give a config that does not round-trip.
        middle = {"spatial": {"kind": kind, "n_parallel_3x3": 5}}
        outer = {"form": "meta_basic", "spatial_last": {"kind": kind, "include_1x3": False}}
        for doc, key in ((middle, "spatial.n_parallel_3x3"),
                         (outer, "spatial_last.include_1x3")):
            with pytest.raises(ConfigError) as e:
                config_from_json(json.dumps({"block": doc}))
            assert str(e.value) == f"block.{key} is only valid for repso spatial slots"
        cfg = config_from_json('{"block": {"spatial": {"kind": "repso", "n_parallel_3x3": 5}}}')
        assert cfg.block.spatial.n_parallel_3x3 == 5
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_non_utf8_config_file_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        with pytest.raises(ConfigError, match="invalid JSON"):
            model_mod.load_config(path)

    def test_json_text_is_pinned(self):
        assert config_to_json(preset_config("lightnet-irb")) == IRB_JSON
        basic = tiny_config(block=BlockConfig(
            form="meta_basic", expansion=Fraction(1, 2),
            spatial=SpatialSlot("dw_conv"), channel=ChannelSlot("pw_dense"),
            spatial_first=SpatialSlot("dw_conv"),
            spatial_last=SpatialSlot("repso", 2, include_1x3=False)))
        assert config_to_json(basic) == BASIC_JSON
        assert config_from_json(BASIC_JSON) == basic


IRB_JSON = """\
{
  "stem_channels": 32,
  "stage_blocks": [
    3,
    3,
    9,
    3
  ],
  "stage_channels": [
    32,
    64,
    128,
    256
  ],
  "block": {
    "form": "meta_light",
    "expansion": 6,
    "residual": true,
    "spatial": {
      "kind": "dw_conv"
    },
    "channel": {
      "kind": "pw_dense",
      "reduction": 2
    }
  },
  "head_width": 1024,
  "num_classes": 1000,
  "input_resolution": 224
}
"""

BASIC_JSON = """\
{
  "stem_channels": 4,
  "stage_blocks": [
    1,
    1,
    1,
    1
  ],
  "stage_channels": [
    4,
    8,
    16,
    32
  ],
  "block": {
    "form": "meta_basic",
    "expansion": "1/2",
    "residual": true,
    "spatial": {
      "kind": "dw_conv"
    },
    "channel": {
      "kind": "pw_dense",
      "reduction": 2
    },
    "spatial_first": {
      "kind": "dw_conv"
    },
    "spatial_last": {
      "kind": "repso",
      "n_parallel_3x3": 2,
      "include_1x3": false,
      "include_3x1": true,
      "include_1x1": true,
      "include_identity": true
    }
  },
  "head_width": 16,
  "num_classes": 5,
  "input_resolution": 32
}
"""


def _leaf_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2 ** 70), st.floats(),
    st.sampled_from(["3/2", "1/0", "-1", "2.5", "identity", "dw_conv", "repso", "pw_dense",
                     "sf_conv", "refco", "meta_basic", "meta_light", "a\nb"]),
    st.text(max_size=6), st.lists(st.integers(0, 300), max_size=5),
    st.dictionaries(st.sampled_from(["kind", "form", "typo"]), st.integers(0, 3), max_size=2))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PRESET_NAMES), st.data())
def test_mutated_preset_documents_decode_or_raise_config_error(preset, data):
    """Replacing or deleting one leaf of a preset document gives a config
    that round-trips, or a one-line ConfigError; never another exception."""
    doc = json.loads(config_to_json(preset_config(preset)))
    path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_VALUES)
    try:
        cfg = config_from_json(json.dumps(doc))
    except ConfigError as e:
        assert "\n" not in str(e)
    else:
        assert config_from_json(config_to_json(cfg)) == cfg


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

    def test_residual_body_that_changes_shape_fails(self):
        graph = LayerGraph(tiny_config(), (BlockNode("b", (ConvNode("c", ConvSpec(3, 4)),), True),))
        with pytest.raises(ShapeError) as e:
            cost_report(graph, resolution=8)
        assert str(e.value) == "b: residual body changes shape (3, 8x8) -> (4, 8x8)"


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

    @pytest.mark.parametrize("key", ["stem.bn1.gamma", "head.fc.bias"])
    def test_wrong_shaped_weight_is_named(self, key):
        # Kernels flatten per-channel vectors, so a (C, 1) entry would run,
        # and fuse_model would write it back in the wrong shape.
        cfg = tiny_config()
        graph = build_model(cfg)
        store = init_weights(graph)
        shape = store.get(key).shape
        broken = WeightStore({k: v.reshape(*shape, 1) if k == key else v
                              for k, v in store.items()})
        message = f"{key} has shape {(*shape, 1)}, expected {shape}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            forward(graph, broken, np.zeros((1, 3, 32, 32), np.float32))
        with pytest.raises(ShapeError, match=re.escape(message)):
            fuse_model(graph, broken)

    def test_flatten_hands_linear_every_feature(self):
        # Conv(3->4) at 8 px, flattened without a pool: the linear layer
        # takes 4 * 8 * 8 features, and cost_report and forward agree on it.
        cfg = tiny_config(input_resolution=8)
        x = np.zeros((1, 3, 8, 8), np.float32)
        for features, ok in ((256, True), (4, False)):
            graph = LayerGraph(cfg, (ConvNode("conv", ConvSpec(3, 4)),
                                     FlattenNode("flat"), LinearNode("fc", features, 5)))
            store = init_weights(graph)
            if ok:
                assert forward(graph, store, x).shape == (1, 5)
                fc = [r for r in cost_report(graph).layers if r.name == "fc"]
                assert [(r.params, r.flops, r.out_h, r.out_w) for r in fc] == [
                    (256 * 5 + 5, 256 * 5 + 5, 1, 1)]
            else:
                with pytest.raises(ShapeError, match="fc: expects 4 features, receives 256"):
                    cost_report(graph)
                with pytest.raises(ShapeError):
                    forward(graph, store, x)

    def test_linear_refuses_a_spatial_input(self):
        # Conv(3->4) at 8 px straight into Linear(4, 5), with no pool or
        # flatten: cost_report and forward both reject the linear layer.
        cfg = tiny_config(input_resolution=8)
        graph = LayerGraph(cfg, (ConvNode("conv", ConvSpec(3, 4)), LinearNode("fc", 4, 5)))
        with pytest.raises(ShapeError, match="fc: linear input is 8x8, expected 1x1"):
            cost_report(graph)
        with pytest.raises(ShapeError, match="fc: linear input must be rank 1 or 2, got rank 4"):
            forward(graph, init_weights(graph), np.zeros((1, 3, 8, 8), np.float32))

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
        x = np.random.default_rng(2).standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = _apply_block(block, store, x)
        np.testing.assert_array_equal(out, x)


def _apply_block(block, store, x):
    y = model_mod._execute(model_mod._compile(block.body, store), x)
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

    @pytest.mark.parametrize("channel", ["pw_dense", "sf_conv", "refco"])
    def test_identity_middle_spatial_slot(self, channel):
        # A meta_light block with no middle spatial operator: expand, two
        # ReLUs, reduce. Only the channel operators are left to fuse.
        cfg = tiny_config(stem_channels=8, stage_channels=(8, 16, 32, 64),
                          block=BlockConfig(expansion=Fraction(6), spatial=SpatialSlot("identity"),
                                            channel=ChannelSlot(channel)))
        graph = build_model(cfg)
        assert not any(".spatial" in e.key for e in iter_param_entries(graph))
        store = init_weights(graph, seed=11)
        fused_graph, fused_store = fuse_model(graph, store)
        assert fusible_count(fused_graph) == 0
        x = np.random.default_rng(12).standard_normal((2, 3, 32, 32)).astype(np.float32)
        train, fused = forward(graph, store, x), forward(fused_graph, fused_store, x)
        assert np.max(np.abs(train - fused)) <= 1e-4
        for g, s, batched in ((graph, store, train), (fused_graph, fused_store, fused)):
            single = np.concatenate([forward(g, s, x[i:i + 1]) for i in range(2)])
            assert batched.tobytes() == single.tobytes()

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

    def test_normalization_after_a_merge_is_absorbed(self):
        # build_model never puts a normalization after RepSO or RefCO, but a
        # hand-built graph may: the merged conv or SF-Conv absorbs it, so one
        # fusion pass leaves nothing fusible.
        from falconnet import RepSOConfig, SFConvSpec, choose_kernel_size
        from falconnet.model import (BnNode, ConvNode, FlattenNode, LayerGraph, PoolNode,
                                     RefCONode, RepSONode)
        spec = SFConvSpec(8, 8, choose_kernel_size(8, 8, 2), 2)
        graph = LayerGraph(tiny_config(), (
            ConvNode("in", ConvSpec(3, 8)), RepSONode("rep", RepSOConfig(8)),
            BnNode("rep.bn", 8), RefCONode("ref", spec), BnNode("ref.bn", 8),
            PoolNode("pool"), FlattenNode("flat")))
        store = init_weights(graph, seed=2)
        fused_graph, fused_store = fuse_model(graph, store)
        assert fusible_count(graph) == 2 and fusible_count(fused_graph) == 0
        assert not any(isinstance(n, BnNode) for n in fused_graph.nodes)
        assert fused_store.names() == [e.key for e in iter_param_entries(fused_graph)]
        report = verify_equivalence(lambda z: forward(graph, store, z),
                                    lambda z: forward(fused_graph, fused_store, z),
                                    2, (1, 3, 32, 32), 1e-4)
        assert report.passed, report


class RecordingStore(WeightStore):
    """A copy of a weight store that records every key read from it."""

    def __init__(self, store):
        super().__init__(store.items())
        self.read = []

    def get(self, name):
        self.read.append(name)
        return super().get(name)


KEY_CONTRACT_CONFIGS = {
    **{preset: preset_config(preset) for preset in PRESET_NAMES},
    "meta_basic": basic_sf_config(),
}


class TestKeyContract:
    """iter_param_entries is the one source of weight keys: execution reads
    exactly its keys, in its order, and the fused store is laid out in the
    fused graph's entry order, which is the saved file's layout."""

    @staticmethod
    def _models(name):
        graph = build_model(replace(KEY_CONTRACT_CONFIGS[name], input_resolution=32))
        store = init_weights(graph, seed=1)
        return (graph, store), fuse_model(graph, store)

    @pytest.mark.parametrize("name", list(KEY_CONTRACT_CONFIGS))
    def test_forward_reads_exactly_the_entry_keys(self, name):
        x = np.random.default_rng(6).standard_normal((1, 3, 32, 32)).astype(np.float32)
        for graph, store in self._models(name):
            recording = RecordingStore(store)
            forward(graph, recording, x)
            assert recording.read == [e.key for e in iter_param_entries(graph)]

    @pytest.mark.parametrize("name", list(KEY_CONTRACT_CONFIGS))
    def test_fused_store_follows_fused_entry_order(self, name):
        (graph, _), (_, fused_store) = self._models(name)
        assert fused_store.names() == [e.key for e in iter_param_entries(fused_structure(graph))]


def _preset_models(preset, resolution=64):
    """Train and fused forms of a preset at a reduced input resolution."""
    graph = build_model(replace(preset_config(preset), input_resolution=resolution))
    store = init_weights(graph, seed=0)
    return (graph, store), fuse_model(graph, store)


def _use_reference_kernels(monkeypatch) -> Counter:
    """Route the executor through the plain-arithmetic reference kernels;
    returns the count of calls each patched name takes from then on."""
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module, name, fn in ((model_mod, "conv2d", ref.conv2d_per_tap),
                             (model_mod, "linear", ref.linear_whole_batch),
                             (channel_mod, "_stage1", ref.sfconv_stage1_einsum),
                             (channel_mod, "_stage2", ref.sfconv_stage2_einsum)):
        monkeypatch.setattr(module, name, counted(name, fn))
    return calls


class TestKernelNumerics:
    PRESETS = ["falconnet", "lightnet-repso", "lightnet-irb"]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_fused_forward_is_batch_invariant(self, preset):
        _, (graph, store) = _preset_models(preset)
        x = np.random.default_rng(4).standard_normal((4, 3, 64, 64)).astype(np.float32)
        batched = forward(graph, store, x)
        single = np.concatenate([forward(graph, store, x[i:i + 1]) for i in range(4)])
        assert batched.tobytes() == single.tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_train_forward_is_batch_invariant(self, preset):
        (graph, store), _ = _preset_models(preset)
        x = np.random.default_rng(4).standard_normal((4, 3, 64, 64)).astype(np.float32)
        batched = forward(graph, store, x)
        single = np.concatenate([forward(graph, store, x[i:i + 1]) for i in range(4)])
        assert batched.tobytes() == single.tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_empty_batch_gives_empty_logits(self, preset):
        x = np.zeros((0, 3, 64, 64), np.float32)
        for graph, store in _preset_models(preset):
            logits = forward(graph, store, x)
            assert logits.shape == (0, graph.config.num_classes)
            assert logits.dtype == np.float32

    @pytest.mark.parametrize("preset", PRESETS)
    def test_logits_against_reference_kernels(self, preset, monkeypatch):
        # Only the SF-Conv stages change the summation order: the RepSO and
        # dense-pointwise presets match the reference bit for bit, FalconNet
        # within 1e-5, and its train and fused forms stay within 1e-5.
        # The library runs first, so its plans are compiled and cached before
        # the patch: each form must still call every patched reference kernel
        # it uses (the SF-Conv stages only in FalconNet, through RefCO in the
        # train form and SF-Conv in the fused one).
        models = _preset_models(preset)
        x = np.random.default_rng(5).standard_normal((1, 3, 64, 64)).astype(np.float32)
        train, fused = (forward(g, s, x) for g, s in models)
        calls = _use_reference_kernels(monkeypatch)
        used = {"conv2d", "linear"} | ({"_stage1", "_stage2"} if preset == "falconnet" else set())
        ref_logits = []
        for g, s in models:
            calls.clear()
            ref_logits.append(forward(g, s, x))
            assert set(calls) == used
        ref_train, ref_fused = ref_logits
        if preset == "falconnet":
            assert np.abs(train - ref_train).max() <= 1e-5
            assert np.abs(fused - ref_fused).max() <= 1e-5
        else:
            assert train.tobytes() == ref_train.tobytes()
            assert fused.tobytes() == ref_fused.tobytes()
        assert np.abs(train - fused).max() <= 1e-5


@pytest.mark.parametrize("resolution, layer", [(16, "sub3.conv"), (8, "sub2.conv"),
                                               (1, "sub1.conv")])
def test_empty_convolution_names_its_layer(resolution, layer):
    cfg = replace(preset_config("falconnet"), input_resolution=resolution)
    with pytest.raises(ShapeError) as e:
        build_model(cfg)
    assert str(e.value) == (f"{layer}: empty convolution output (0x0) for input 1x1 with "
                            "kernel 2x2, stride 2x2, padding 0x0")


@pytest.mark.parametrize("call, error, message", [
    (lambda: SpatialSlot(n_parallel_3x3=0), ConfigError, "n_parallel_3x3 must be at least 1"),
    (lambda: ChannelSlot(reduction=0), ConfigError, "reduction must be at least 1"),
    (lambda: BlockConfig(form="meta_heavy"), ConfigError,
     "block form must be meta_light or meta_basic, got 'meta_heavy'"),
    (lambda: BlockConfig(expansion=Fraction(-1, 2)), ConfigError,
     "expansion must be positive, got -1/2"),
    (lambda: ModelConfig(stage_blocks=(1, 1, 1)), ConfigError,
     "stage_blocks and stage_channels must each list 4 stages"),
    (lambda: ModelConfig(stage_blocks=(1, 0, 1, 1)), ConfigError,
     "every stage needs at least one block"),
    (lambda: ModelConfig(stem_channels=0, stage_channels=(0, 0, 0, 0)), ConfigError,
     "stage channels must be positive"),
    (lambda: ModelConfig(head_width=0), ConfigError, "head_width must be positive, got 0"),
    (lambda: ModelConfig(num_classes=-1), ConfigError, "num_classes must be positive, got -1"),
    (lambda: ModelConfig(input_resolution=0), ConfigError,
     "input_resolution must be positive, got 0"),
    (lambda: preset_config("resnet"), ConfigError,
     "unknown preset 'resnet', expected one of ('falconnet', 'lightnet-repso', 'lightnet-irb')"),
    (lambda: config_from_json("[1, 2]"), ConfigError, "config root must be an object"),
    (lambda: verify_equivalence(lambda x: x, lambda x: x[:, :1], 1, (2, 3)), ShapeError,
     "model outputs differ in shape: (2, 3) vs (2, 1)"),
], ids=["n-parallel-3x3", "reduction", "block-form", "expansion", "stage-count", "empty-stage",
        "stage-channels", "head-width", "num-classes", "resolution", "unknown-preset",
        "json-root", "verify-output-shapes"])
def test_invalid_argument_names_the_fault(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error
    assert str(e.value) == message
