"""One property over the config space: every valid ModelConfig round-trips
through JSON, fuses to a graph with nothing left to fuse, gives train and
fused logits that agree, and gives each image of a batch the bits it gets
alone, with one image thread or two.

The strategy draws only valid configs: the expansion's denominator divides
the stem width, and a factorized channel slot's reduction divides both
widths it reads. RepSO options sit only on RepSO slots and outer spatial
slots only on meta_basic blocks, since the JSON codec drops them elsewhere.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import falconnet.model as model_mod
from falconnet import (BlockConfig, ChannelSlot, ModelConfig, SpatialSlot, build_model,
                       config_from_json, config_to_json, forward, fuse_model, fused_structure,
                       fusible_count, init_weights)
from falconnet.model import CHANNEL_KINDS, SPATIAL_KINDS


@st.composite
def spatial_slots(draw):
    kind = draw(st.sampled_from(SPATIAL_KINDS))
    if kind != "repso":
        return SpatialSlot(kind)
    return SpatialSlot(kind, draw(st.integers(1, 3)), *draw(st.tuples(*[st.booleans()] * 4)))


@st.composite
def model_configs(draw):
    width = draw(st.integers(8, 64))
    q = draw(st.sampled_from([d for d in (1, 2, 3, 4) if width % d == 0]))
    expansion = Fraction(draw(st.integers(1, 4 * q)), q)
    wide = expansion * width  # a whole count, since q divides width
    kind = draw(st.sampled_from(CHANNEL_KINDS))
    reductions = [r for r in (1, 2, 4) if kind == "pw_dense" or width % r == wide % r == 0]
    form = draw(st.sampled_from(("meta_light", "meta_basic")))
    outer = {}
    if form == "meta_basic":
        outer = {"spatial_first": draw(spatial_slots()), "spatial_last": draw(spatial_slots())}
    block = BlockConfig(form, expansion, draw(st.booleans()), draw(spatial_slots()),
                        ChannelSlot(kind, draw(st.sampled_from(reductions))), **outer)
    return ModelConfig(width, (1, 1, 1, 1), tuple(width << i for i in range(4)), block,
                       head_width=draw(st.integers(4, 32)), num_classes=draw(st.integers(1, 8)),
                       input_resolution=draw(st.sampled_from((32, 40, 48))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(model_configs())
def test_every_config_round_trips_fuses_and_runs_batch_invariant(cfg):
    assert config_from_json(config_to_json(cfg)) == cfg
    graph = build_model(cfg)
    store = init_weights(graph, seed=3)
    fused = fuse_model(graph, store)
    assert fusible_count(fused[0]) == 0
    assert fused[0].nodes == fused_structure(graph).nodes

    res = cfg.input_resolution
    x = np.random.default_rng(7).standard_normal((3, 3, res, res)).astype(np.float32)
    logits = {}
    for form, (g, s) in {"train": (graph, store), "fused": fused}.items():
        alone = [forward(g, s, x[i:i + 1])[0].tobytes() for i in range(len(x))]
        for workers in (1, 2):
            with mock.patch.object(model_mod, "_workers", lambda: workers):
                batch = forward(g, s, x)
            assert [row.tobytes() for row in batch] == alone, (form, workers)
        logits[form] = batch
    np.testing.assert_allclose(logits["fused"], logits["train"], rtol=0, atol=1e-4)
