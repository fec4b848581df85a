"""Declarative model construction and execution.

A model is a flat tuple of layer nodes (convolutions, normalizations,
activations, composite reparameterizable operators, pooling, classifier),
with residual sections expressed as a BlockNode wrapping its body. Weights
live outside the graph in a WeightStore keyed by dotted layer names, so
graphs stay immutable and cheap to transform.

The network layout: a stem (3x3 conv stride 2, BN, ReLU, a residual
depthwise+pointwise pair, then a stride-2 depthwise conv with BN), four
stages of repeated blocks with grouped 2x2 stride-2 subsampling layers in
between (each doubling the channel count), and a head (1x1 mixing conv,
ReLU, global average pooling, fully connected classifier).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from typing import Iterator, Union, get_type_hints

import numpy as np

from .channel import (RefCOBranch, SFConvSpec, SFConvWeights, choose_kernel_size,
                      refco_forward, sfconv_forward)
from .fuse import fuse_bn_into_linear, merge_refco, merge_repso
from .ops import (BnParams, ConvSpec, ShapeError, Tensor, as_f32, batch_norm_infer,
                  conv2d, global_avg_pool, linear, relu)
from .spatial import RepSOBranch, RepSOConfig, RepSOWeights, branch_kernel_shape, repso_forward
from .store import WeightStore

__all__ = [
    "ConfigError",
    "SpatialSlot",
    "ChannelSlot",
    "BlockConfig",
    "ModelConfig",
    "LayerGraph",
    "ConvNode", "BnNode", "ReluNode", "PoolNode", "FlattenNode", "LinearNode",
    "RepSONode", "RefCONode", "SFConvNode", "BlockNode",
    "PRESET_NAMES",
    "preset_config",
    "config_to_json",
    "config_from_json",
    "load_config",
    "save_config",
    "build_model",
    "forward",
    "init_weights",
    "iter_param_entries",
    "fuse_model",
    "fused_structure",
    "fusible_count",
]


class ConfigError(ValueError):
    """Invalid or inconsistent model configuration."""


SPATIAL_KINDS = ("identity", "dw_conv", "repso")
CHANNEL_KINDS = ("pw_dense", "sf_conv", "refco")


@dataclass(frozen=True)
class SpatialSlot:
    """Spatial operator choice for a block position."""

    kind: str = "repso"
    n_parallel_3x3: int = 3
    include_1x3: bool = True
    include_3x1: bool = True
    include_1x1: bool = True
    include_identity: bool = True

    def __post_init__(self):
        if self.kind not in SPATIAL_KINDS:
            raise ConfigError(f"spatial slot kind must be one of {SPATIAL_KINDS}, got {self.kind!r}")
        if self.n_parallel_3x3 < 1:
            raise ConfigError("n_parallel_3x3 must be at least 1")

    def repso_config(self, channels: int) -> RepSOConfig:
        return RepSOConfig(channels, self.n_parallel_3x3, self.include_1x3,
                           self.include_3x1, self.include_1x1, self.include_identity)


@dataclass(frozen=True)
class ChannelSlot:
    """Channel operator choice for a block position."""

    kind: str = "refco"
    reduction: int = 2

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigError(f"channel slot kind must be one of {CHANNEL_KINDS}, got {self.kind!r}")
        if self.reduction < 1:
            raise ConfigError("reduction must be at least 1")


@dataclass(frozen=True)
class BlockConfig:
    """One basic block: channel and spatial operators around an expansion.

    meta_light is expand (C -> lambda*C), one spatial operator, reduce
    (lambda*C -> C). meta_basic adds spatial operators before and after
    that sandwich, both at width C. Activations sit after the expansion
    and after the middle spatial operator; the reduction stays linear.
    """

    form: str = "meta_light"
    expansion: Fraction = Fraction(6)
    residual: bool = True
    spatial: SpatialSlot = field(default_factory=SpatialSlot)
    channel: ChannelSlot = field(default_factory=ChannelSlot)
    spatial_first: SpatialSlot = field(default_factory=lambda: SpatialSlot("identity"))
    spatial_last: SpatialSlot = field(default_factory=lambda: SpatialSlot("identity"))

    def __post_init__(self):
        if self.form not in ("meta_light", "meta_basic"):
            raise ConfigError(f"block form must be meta_light or meta_basic, got {self.form!r}")
        object.__setattr__(self, "expansion", Fraction(self.expansion))
        if self.expansion <= 0:
            raise ConfigError(f"expansion must be positive, got {self.expansion}")

    def expanded(self, channels: int) -> int:
        wide = self.expansion * channels
        if wide.denominator != 1 or wide < 1:
            raise ConfigError(
                f"expansion {self.expansion} times {channels} channels is not a "
                f"positive integer")
        return int(wide)


@dataclass(frozen=True)
class ModelConfig:
    stem_channels: int = 32
    stage_blocks: tuple = (3, 3, 9, 3)
    stage_channels: tuple = (32, 64, 128, 256)
    block: BlockConfig = field(default_factory=BlockConfig)
    head_width: int = 1024
    num_classes: int = 1000
    input_resolution: int = 224

    def __post_init__(self):
        object.__setattr__(self, "stage_blocks", tuple(int(b) for b in self.stage_blocks))
        object.__setattr__(self, "stage_channels", tuple(int(c) for c in self.stage_channels))
        if len(self.stage_blocks) != 4 or len(self.stage_channels) != 4:
            raise ConfigError("stage_blocks and stage_channels must each list 4 stages")
        if any(b < 1 for b in self.stage_blocks):
            raise ConfigError("every stage needs at least one block")
        if any(c < 1 for c in self.stage_channels):
            raise ConfigError("stage channels must be positive")
        for i in range(3):
            if self.stage_channels[i + 1] != 2 * self.stage_channels[i]:
                raise ConfigError(
                    f"subsampling doubles channels, so stage_channels[{i + 1}] must be "
                    f"{2 * self.stage_channels[i]}, got {self.stage_channels[i + 1]}")
        if self.stem_channels != self.stage_channels[0]:
            raise ConfigError(
                f"stem_channels ({self.stem_channels}) must equal stage_channels[0] "
                f"({self.stage_channels[0]})")
        for v, name in ((self.head_width, "head_width"), (self.num_classes, "num_classes"),
                        (self.input_resolution, "input_resolution")):
            if v < 1:
                raise ConfigError(f"{name} must be positive, got {v}")
        for c in self.stage_channels:
            self.block.expanded(c)  # raises when the widened width is fractional


# ---------------------------------------------------------------------------
# Presets and JSON round trip
# ---------------------------------------------------------------------------

_PRESETS = {  # name: (spatial slot kind, channel slot kind)
    "falconnet": ("repso", "refco"),
    "lightnet-repso": ("repso", "pw_dense"),
    "lightnet-irb": ("dw_conv", "pw_dense"),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str) -> ModelConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset '{name}', expected one of {PRESET_NAMES}")
    spatial, channel = _PRESETS[name]
    return ModelConfig(block=BlockConfig(spatial=SpatialSlot(spatial),
                                         channel=ChannelSlot(channel)))


_OUTER_SLOTS = ("spatial_first", "spatial_last")
_P_Q = re.compile(r"[+-]?\d+(/\d+)?")
_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string",
               tuple: "a list of integers", Fraction: "a number or a 'p/q' string"}


def _encode(value):
    """The JSON value of a config field; config dataclasses become objects."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return list(value)
    if not is_dataclass(value):
        return value
    names = [f.name for f in fields(value)]
    if isinstance(value, SpatialSlot) and value.kind != "repso":
        names = ["kind"]  # the other fields are RepSO options
    elif isinstance(value, BlockConfig) and value.form != "meta_basic":
        names = [n for n in names if n not in _OUTER_SLOTS]
    return {n: _encode(getattr(value, n)) for n in names}


def _decode(cls, doc: dict, prefix: str):
    """Build config dataclass `cls` from a JSON object whose keys sit under the
    dotted `prefix`; absent keys take the dataclass defaults."""
    hints = get_type_hints(cls)
    for key in doc:
        if key not in hints:
            raise ConfigError(f"unknown key {key!r} in {prefix[:-1] or 'config'}")
    cfg = cls(**{key: _decode_value(hints[key], v, prefix + key) for key, v in doc.items()})
    if isinstance(cfg, BlockConfig) and cfg.form != "meta_basic" \
            and not doc.keys().isdisjoint(_OUTER_SLOTS):
        raise ConfigError("spatial_first/spatial_last are only valid for meta_basic blocks")
    return cfg


def _decode_value(tp, v, key: str):
    """The field value of type `tp` that JSON value `v` at dotted `key` encodes."""
    if is_dataclass(tp) and type(v) is dict:
        return _decode(tp, v, key + ".")
    if tp is tuple and type(v) is list:
        return tuple(_decode_value(int, x, f"{key}[{i}]") for i, x in enumerate(v))
    if tp is Fraction and type(v) is str:
        try:
            if _P_Q.fullmatch(v):
                return Fraction(v)
        except (ValueError, ZeroDivisionError):  # q is 0, or p or q has over 4300 digits
            pass
        raise ConfigError(f"cannot parse {key} {json.dumps(v)}")
    if tp is Fraction and (type(v) is int or type(v) is float and math.isfinite(v)):
        return Fraction(str(v))  # 0.1 reads as 1/10, not as the nearest double
    if type(v) is tp:
        return v
    shown = {list: "a list", dict: "an object"}.get(type(v)) or json.dumps(v)
    raise ConfigError(f"{key} must be {_TYPE_NAMES.get(tp, 'an object')}, got {shown}")


def config_to_json(cfg: ModelConfig) -> str:
    return json.dumps(_encode(cfg), indent=2) + "\n"


def config_from_json(text: str) -> ModelConfig:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also over-long integers and deep nesting
        raise ConfigError(f"invalid JSON: {e}") from None
    if type(doc) is not dict:
        raise ConfigError("config root must be an object")
    return _decode(ModelConfig, doc, "")


def load_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as f:
        return config_from_json(f.read())


def save_config(cfg: ModelConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(config_to_json(cfg))


# ---------------------------------------------------------------------------
# Graph nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvNode:
    name: str
    spec: ConvSpec


@dataclass(frozen=True)
class BnNode:
    name: str
    channels: int
    eps: float = 1e-5


@dataclass(frozen=True)
class ReluNode:
    name: str


@dataclass(frozen=True)
class PoolNode:
    name: str


@dataclass(frozen=True)
class FlattenNode:
    name: str


@dataclass(frozen=True)
class LinearNode:
    name: str
    in_features: int
    out_features: int


@dataclass(frozen=True)
class RepSONode:
    name: str
    cfg: RepSOConfig


@dataclass(frozen=True)
class RefCONode:
    name: str
    spec: SFConvSpec


@dataclass(frozen=True)
class SFConvNode:
    name: str
    spec: SFConvSpec
    has_bias1: bool = False
    has_bias2: bool = False


@dataclass(frozen=True)
class BlockNode:
    """A sub-sequence, optionally wrapped by an identity shortcut."""
    name: str
    body: tuple
    residual: bool


Node = Union[ConvNode, BnNode, ReluNode, PoolNode, FlattenNode, LinearNode,
             RepSONode, RefCONode, SFConvNode, BlockNode]


@dataclass(frozen=True)
class LayerGraph:
    config: ModelConfig
    nodes: tuple


def _repso_branch_tags(cfg: RepSOConfig) -> tuple[str, ...]:
    # branch_kinds() lists the parallel 3x3 kernels first, so i numbers them.
    return tuple("identity" if kind == "identity" else
                 f"dw3x3_{i}" if kind == "3x3" else f"dw{kind}"
                 for i, kind in enumerate(cfg.branch_kinds()))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _spatial_nodes(name: str, slot: SpatialSlot, channels: int) -> list:
    if slot.kind == "identity":
        return []
    if slot.kind == "dw_conv":
        spec = ConvSpec(channels, channels, 3, 3, 1, 1, 1, 1, groups=channels)
        return [ConvNode(name, spec), BnNode(f"{name}.bn", channels)]
    return [RepSONode(name, slot.repso_config(channels))]


def _channel_nodes(name: str, slot: ChannelSlot, c_in: int, c_out: int) -> list:
    if slot.kind == "pw_dense":
        return [ConvNode(name, ConvSpec(c_in, c_out)), BnNode(f"{name}.bn", c_out)]
    try:
        k = choose_kernel_size(c_in, c_out, slot.reduction)
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from None
    spec = SFConvSpec(c_in, c_out, k, slot.reduction)
    if slot.kind == "sf_conv":
        return [SFConvNode(name, spec), BnNode(f"{name}.bn", c_out)]
    return [RefCONode(name, spec)]


def _build_block(name: str, bc: BlockConfig, channels: int) -> BlockNode:
    wide = bc.expanded(channels)
    body: list = []
    if bc.form == "meta_basic":
        body += _spatial_nodes(f"{name}.pre", bc.spatial_first, channels)
    body += _channel_nodes(f"{name}.expand", bc.channel, channels, wide)
    body.append(ReluNode(f"{name}.act1"))
    body += _spatial_nodes(f"{name}.spatial", bc.spatial, wide)
    body.append(ReluNode(f"{name}.act2"))
    body += _channel_nodes(f"{name}.reduce", bc.channel, wide, channels)
    if bc.form == "meta_basic":
        body += _spatial_nodes(f"{name}.post", bc.spatial_last, channels)
    return BlockNode(name, tuple(body), bc.residual)


def build_model(cfg: ModelConfig) -> LayerGraph:
    """Assemble stem, stages with subsampling, and head into a layer graph."""
    s = cfg.stem_channels
    nodes: list = [
        ConvNode("stem.conv", ConvSpec(3, s, 3, 3, 2, 2, 1, 1)),
        BnNode("stem.bn1", s),
        ReluNode("stem.act"),
        BlockNode("stem.pair", (
            ConvNode("stem.dw", ConvSpec(s, s, 3, 3, 1, 1, 1, 1, groups=s, has_bias=True)),
            ConvNode("stem.pw", ConvSpec(s, s, has_bias=True)),
        ), residual=True),
        ConvNode("stem.down", ConvSpec(s, s, 3, 3, 2, 2, 1, 1, groups=s)),
        BnNode("stem.bn2", s),
    ]
    channels = s
    for si in range(4):
        if si > 0:
            nodes.append(ConvNode(f"sub{si}.conv",
                                  ConvSpec(channels, 2 * channels, 2, 2, 2, 2, 0, 0,
                                           groups=channels)))
            nodes.append(BnNode(f"sub{si}.bn", 2 * channels))
            channels *= 2
        if channels != cfg.stage_channels[si]:
            raise ConfigError(
                f"stage {si + 1} runs at {channels} channels but stage_channels "
                f"names {cfg.stage_channels[si]}")
        for bi in range(cfg.stage_blocks[si]):
            nodes.append(_build_block(f"s{si + 1}.b{bi}", cfg.block, channels))
    nodes += [
        ConvNode("head.mix", ConvSpec(channels, cfg.head_width, has_bias=True)),
        ReluNode("head.act"),
        PoolNode("head.pool"),
        FlattenNode("head.flatten"),
        LinearNode("head.fc", cfg.head_width, cfg.num_classes),
    ]
    res = cfg.input_resolution
    for _ in _walk_shapes(nodes, (3, res, res)):
        pass  # the walk validates channel bookkeeping and spatial extents
    return LayerGraph(cfg, tuple(nodes))


def _leaf_shape(node: Node, c: int, h: int, w: int):
    """(input channels the leaf requires or None, what it calls them, output shape)."""
    if isinstance(node, ConvNode):
        return node.spec.in_channels, "expects {} channels", (
            node.spec.out_channels, *node.spec.out_hw(h, w))
    if isinstance(node, BnNode):
        return node.channels, "normalizes {} channels", (c, h, w)
    if isinstance(node, RepSONode):
        return node.cfg.channels, "built for {} channels", (c, h, w)
    if isinstance(node, (RefCONode, SFConvNode)):
        return node.spec.c_in, "expects {} channels", (node.spec.c_out, h, w)
    if isinstance(node, LinearNode):
        return node.in_features, "expects {} features", (node.out_features, h, w)
    if isinstance(node, PoolNode):
        return None, "", (c, 1, 1)
    return None, "", (c, h, w)


def _walk_shapes(nodes, shape: tuple):
    """Yield (leaf, in_shape, out_shape) in execution order, checking every
    channel hand-off and residual shortcut; returns the final shape."""
    for node in nodes:
        if isinstance(node, BlockNode):
            out = yield from _walk_shapes(node.body, shape)
            if node.residual and out != shape:
                (c, h, w), (c2, h2, w2) = shape, out
                raise ShapeError(f"{node.name}: residual body changes shape "
                                 f"({c}, {h}x{w}) -> ({c2}, {h2}x{w2})")
        else:
            need, what, out = _leaf_shape(node, *shape)
            if need is not None and need != shape[0]:
                raise ShapeError(f"{node.name}: {what.format(need)}, receives {shape[0]}")
            yield node, shape, out
        shape = out
    return shape


# ---------------------------------------------------------------------------
# Weight entries, initialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamEntry:
    key: str
    shape: tuple
    role: str  # conv_weight | sf_w1 | sf_w2 | linear_weight | bias | bn_gamma | bn_beta | bn_mean | bn_var
    init_fan: int = 1  # effective fan-in for 1/sqrt scaling; branch ensembles
    #                    fold their branch count in so summed outputs stay unit scale


def _bn_entries(prefix: str, channels: int):
    for part, role in (("gamma", "bn_gamma"), ("beta", "bn_beta"),
                       ("mean", "bn_mean"), ("var", "bn_var")):
        yield ParamEntry(f"{prefix}.{part}", (channels,), role)


def _node_entries(node: Node) -> Iterator[ParamEntry]:
    if isinstance(node, ConvNode):
        s = node.spec
        fan = (s.in_channels // s.groups) * s.kernel_h * s.kernel_w
        yield ParamEntry(f"{node.name}.weight", s.weight_shape(), "conv_weight", fan)
        if s.has_bias:
            yield ParamEntry(f"{node.name}.bias", (s.out_channels,), "bias")
    elif isinstance(node, BnNode):
        yield from _bn_entries(node.name, node.channels)
    elif isinstance(node, LinearNode):
        yield ParamEntry(f"{node.name}.weight", (node.out_features, node.in_features),
                         "linear_weight", node.in_features)
        yield ParamEntry(f"{node.name}.bias", (node.out_features,), "bias")
    elif isinstance(node, RepSONode):
        c = node.cfg.channels
        n_branches = node.cfg.branch_count
        for kind, tag in zip(node.cfg.branch_kinds(), _repso_branch_tags(node.cfg)):
            shape = branch_kernel_shape(kind, c)
            if shape is not None:
                fan = shape[2] * shape[3] * n_branches
                yield ParamEntry(f"{node.name}.{tag}.kernel", shape, "conv_weight", fan)
            yield from _bn_entries(f"{node.name}.{tag}", c)
    elif isinstance(node, RefCONode):
        s = node.spec
        fan = s.kernel * s.windows  # taps times summed branches, both stages
        for i in range(s.windows):
            yield ParamEntry(f"{node.name}.s1.{i}.weight",
                             (s.hidden_channels, s.windows, s.kernel), "sf_w1", fan)
            yield from _bn_entries(f"{node.name}.s1.{i}", s.hidden_channels)
        for i in range(s.kernel):
            yield ParamEntry(f"{node.name}.s2.{i}.weight", (s.c_out, s.windows), "sf_w2", fan)
            yield from _bn_entries(f"{node.name}.s2.{i}", s.c_out)
    elif isinstance(node, SFConvNode):
        s = node.spec
        yield ParamEntry(f"{node.name}.w1", (s.hidden_channels, s.windows, s.kernel),
                         "sf_w1", s.kernel)
        yield ParamEntry(f"{node.name}.w2", (s.c_out, s.windows), "sf_w2", s.windows)
        if node.has_bias1:
            yield ParamEntry(f"{node.name}.bias1", (s.hidden_channels, s.windows), "bias")
        if node.has_bias2:
            yield ParamEntry(f"{node.name}.bias2", (s.c_out,), "bias")
    elif isinstance(node, BlockNode):
        for child in node.body:
            yield from _node_entries(child)


def iter_param_entries(graph: LayerGraph) -> Iterator[ParamEntry]:
    for node in graph.nodes:
        yield from _node_entries(node)


def _closing_op_keys(nodes, keys: set) -> None:
    """Output-side weight keys of the last channel-mapping operator (conv,
    SF-Conv or RefCO; a trailing RepSO is passed over) in each residual body.

    Damping these at init keeps activations bounded as residual blocks
    stack; without it the shortcut sum grows the signal without limit and
    float32 verification tolerances lose meaning.
    """
    for node in nodes:
        if not isinstance(node, BlockNode):
            continue
        _closing_op_keys(node.body, keys)
        if not node.residual:
            continue
        closing = next((child for child in reversed(node.body)
                        if isinstance(child, (ConvNode, SFConvNode, RefCONode))), None)
        if closing is not None:
            keys.update(e.key for e in _node_entries(closing)
                        if e.role in ("conv_weight", "sf_w2"))


def init_weights(graph: LayerGraph, seed: int = 0, *,
                 residual_damp: float = 0.25) -> WeightStore:
    """Fixed-seed random weights with 1/sqrt(fan_in) scaling, suitable for
    fusion verification and smoke inference. The closing operator of every
    residual body is additionally scaled by ``residual_damp``."""
    rng = np.random.default_rng(seed)
    damped: set = set()
    _closing_op_keys(graph.nodes, damped)
    store = WeightStore()
    for entry in iter_param_entries(graph):
        role = entry.role
        if role in ("conv_weight", "linear_weight", "sf_w1", "sf_w2"):
            arr = rng.standard_normal(entry.shape) * entry.init_fan ** -0.5
            if entry.key in damped:
                arr = arr * residual_damp
        elif role == "bias":
            arr = rng.uniform(-0.1, 0.1, entry.shape)
        elif role == "bn_gamma":
            arr = rng.uniform(0.5, 1.5, entry.shape)
        elif role == "bn_beta" or role == "bn_mean":
            arr = rng.uniform(-0.3, 0.3, entry.shape)
        else:  # bn_var
            arr = rng.uniform(0.5, 2.0, entry.shape)
        store.put(entry.key, arr.astype(np.float32))
    return store


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _bn_params(prefix: str, store: WeightStore, eps: float = 1e-5) -> BnParams:
    return BnParams(store.get(f"{prefix}.gamma"), store.get(f"{prefix}.beta"),
                    store.get(f"{prefix}.mean"), store.get(f"{prefix}.var"), eps)


def _repso_weights(node: RepSONode, store: WeightStore) -> RepSOWeights:
    branches = []
    for kind, tag in zip(node.cfg.branch_kinds(), _repso_branch_tags(node.cfg)):
        kernel = None
        if kind != "identity":
            kernel = store.get(f"{node.name}.{tag}.kernel")
        bn = _bn_params(f"{node.name}.{tag}", store)
        branches.append(RepSOBranch(kind, kernel, bn))
    return RepSOWeights(tuple(branches))


def _refco_branches(node: RefCONode, store: WeightStore):
    s = node.spec
    b1 = tuple(RefCOBranch(store.get(f"{node.name}.s1.{i}.weight"),
                           _bn_params(f"{node.name}.s1.{i}", store))
               for i in range(s.windows))
    b2 = tuple(RefCOBranch(store.get(f"{node.name}.s2.{i}.weight"),
                           _bn_params(f"{node.name}.s2.{i}", store))
               for i in range(s.kernel))
    return b1, b2


def _sfconv_weights(node: SFConvNode, store: WeightStore) -> SFConvWeights:
    return SFConvWeights(
        node.spec,
        store.get(f"{node.name}.w1"),
        store.get(f"{node.name}.w2"),
        store.get(f"{node.name}.bias1") if node.has_bias1 else None,
        store.get(f"{node.name}.bias2") if node.has_bias2 else None)


def _apply(node: Node, store: WeightStore, x: Tensor) -> Tensor:
    if isinstance(node, ConvNode):
        bias = store.get(f"{node.name}.bias") if node.spec.has_bias else None
        return conv2d(x, store.get(f"{node.name}.weight"), bias, node.spec)
    if isinstance(node, BnNode):
        return batch_norm_infer(x, _bn_params(node.name, store, node.eps))
    if isinstance(node, ReluNode):
        return relu(x)
    if isinstance(node, PoolNode):
        return global_avg_pool(x)
    if isinstance(node, FlattenNode):
        return x.reshape(x.shape[0], -1)
    if isinstance(node, LinearNode):
        return linear(x, store.get(f"{node.name}.weight"), store.get(f"{node.name}.bias"))
    if isinstance(node, RepSONode):
        return repso_forward(x, _repso_weights(node, store), node.cfg)
    if isinstance(node, RefCONode):
        b1, b2 = _refco_branches(node, store)
        return refco_forward(x, node.spec, b1, b2)
    if isinstance(node, SFConvNode):
        return sfconv_forward(x, node.spec, _sfconv_weights(node, store))
    if isinstance(node, BlockNode):
        y = _run(node.body, store, x)
        return x + y if node.residual else y
    raise TypeError(f"unknown node {node!r}")


def _run(nodes, store: WeightStore, x: Tensor) -> Tensor:
    for node in nodes:
        try:
            x = _apply(node, store, x)
        except ShapeError as e:
            name = getattr(node, "name", type(node).__name__)
            raise ShapeError(f"{name}: {e}") from None
    return x


def forward(graph: LayerGraph, store: WeightStore, x: Tensor) -> np.ndarray:
    """Run the graph on a (N, 3, R, R) input; returns (N, num_classes) logits.

    Purely functional over immutable inputs: the same input and weights
    produce bitwise-identical logits on a given machine.
    """
    x = as_f32(x)
    res = graph.config.input_resolution
    if x.ndim != 4 or x.shape[1] != 3:
        raise ShapeError(f"model input must be (N, 3, {res}, {res}), got {x.shape}")
    if x.shape[2] != res or x.shape[3] != res:
        raise ShapeError(f"model input is {x.shape[2]}x{x.shape[3]}, expected {res}x{res}")
    return _run(graph.nodes, store, x)


# ---------------------------------------------------------------------------
# Whole-model fusion
# ---------------------------------------------------------------------------

def _copy_entries(node: Node, store: WeightStore, out: WeightStore) -> None:
    for entry in _node_entries(node):
        out.put(entry.key, store.get(entry.key))


def _bn_fold_target(node: Node):
    """(folded node, weight key, bias key, has a bias already) for an operator
    that absorbs a following normalization along its outputs, else None."""
    if isinstance(node, ConvNode):
        return (ConvNode(node.name, replace(node.spec, has_bias=True)),
                f"{node.name}.weight", f"{node.name}.bias", node.spec.has_bias)
    if isinstance(node, SFConvNode):
        return (replace(node, has_bias2=True),
                f"{node.name}.w2", f"{node.name}.bias2", node.has_bias2)
    return None


def _fold_bn(target, bn: BnNode, store: WeightStore, out: WeightStore) -> None:
    fused, wkey, bkey, has_bias = target
    w, b = fuse_bn_into_linear(store.get(wkey), store.get(bkey) if has_bias else None,
                               _bn_params(bn.name, store, bn.eps))
    folded = {wkey: w, bkey: b}
    for entry in _node_entries(fused):
        out.put(entry.key, folded[entry.key] if entry.key in folded else store.get(entry.key))


def _fuse_seq(nodes, store: WeightStore | None, out: WeightStore | None):
    """Rewrite a node sequence into inference form; returns (nodes, rewrites).

    Rewrites are the merges and folds applied: each RepSO and RefCO, and each
    conv or SF-Conv followed by a normalization. With ``store`` None only the
    topology is produced.
    """
    result: list = []
    rewrites = 0
    i = 0
    while i < len(nodes):
        node = nodes[i]
        nxt = nodes[i + 1] if i + 1 < len(nodes) else None
        target = _bn_fold_target(node) if isinstance(nxt, BnNode) else None
        if target is not None:
            if store is not None:
                _fold_bn(target, nxt, store, out)
            node = target[0]
            rewrites += 1
            i += 1  # the normalization is absorbed
        elif isinstance(node, RepSONode):
            c = node.cfg.channels
            spec = ConvSpec(c, c, 3, 3, 1, 1, 1, 1, groups=c, has_bias=True)
            if store is not None:
                fused = merge_repso(_repso_weights(node, store), node.cfg)
                out.put(f"{node.name}.weight", fused.kernel)
                out.put(f"{node.name}.bias", fused.bias)
            node = ConvNode(node.name, spec)
            rewrites += 1
        elif isinstance(node, RefCONode):
            if store is not None:
                b1, b2 = _refco_branches(node, store)
                fw = merge_refco(node.spec, b1, b2)
                out.put(f"{node.name}.w1", fw.w1)
                out.put(f"{node.name}.w2", fw.w2)
                out.put(f"{node.name}.bias1", fw.bias1)
                out.put(f"{node.name}.bias2", fw.bias2)
            node = SFConvNode(node.name, node.spec, True, True)
            rewrites += 1
        elif isinstance(node, BlockNode):
            body, n = _fuse_seq(node.body, store, out)
            node = BlockNode(node.name, tuple(body), node.residual)
            rewrites += n
        elif store is not None:
            _copy_entries(node, store, out)
        result.append(node)
        i += 1
    return result, rewrites


def fuse_model(graph: LayerGraph, store: WeightStore):
    """Produce the inference-form graph and weights: spatial and channel
    multi-branch operators merged, normalizations folded into the preceding
    convolution where one exists. Inputs are left untouched."""
    out = WeightStore()
    nodes, _ = _fuse_seq(graph.nodes, store, out)
    return LayerGraph(graph.config, tuple(nodes)), out


def fused_structure(graph: LayerGraph) -> LayerGraph:
    """Topology of fuse_model without touching any weights."""
    return LayerGraph(graph.config, tuple(_fuse_seq(graph.nodes, None, None)[0]))


def fusible_count(graph: LayerGraph) -> int:
    """Number of merge or fold opportunities left in the graph."""
    return _fuse_seq(graph.nodes, None, None)[1]
