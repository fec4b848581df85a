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
import os
import re
import weakref
from concurrent import futures
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Iterator, NamedTuple, get_type_hints

import numpy as np

from .channel import (SFConvSpec, SFConvWeights, _merge_refco, _refco, _refco_terms,
                      choose_kernel_size, sfconv_forward)
from .ops import (BnParams, ConvSpec, ShapeError, Tensor, _bind_conv, _channel_affine,
                  _relu_in_place, _run_branch_sum, as_f32, conv2d, fuse_bn_into_linear,
                  global_avg_pool, linear)
from .spatial import RepSOConfig, _bind_repso, _merge_repso, _repso_terms, branch_kernel_shape
from .store import WeightStore

__all__ = [
    "ConfigError",
    "SpatialSlot",
    "ChannelSlot",
    "BlockConfig",
    "ModelConfig",
    "LayerGraph",
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
    "FusionReport",
    "verify_equivalence",
]


class ConfigError(ValueError):
    """Invalid or inconsistent model configuration."""


SPATIAL_KINDS = ("identity", "dw_conv", "repso")
CHANNEL_KINDS = ("pw_dense", "sf_conv", "refco")


@dataclass(frozen=True)
class SpatialSlot:
    """Spatial operator choice for a block position."""

    kind: str = "repso"
    n_parallel_3x3: int = RepSOConfig.n_parallel_3x3
    include_1x3: bool = RepSOConfig.include_1x3
    include_3x1: bool = RepSOConfig.include_3x1
    include_1x1: bool = RepSOConfig.include_1x1
    include_identity: bool = RepSOConfig.include_identity

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
    reduction: int = SFConvSpec.reduction

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
_ONLY_FOR = {SpatialSlot: "repso spatial slots", BlockConfig: "meta_basic blocks"}
_P_Q = re.compile(r"[+-]?\d+(/\d+)?")
_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string",
               tuple: "a list of integers", Fraction: "a number or a 'p/q' string"}


def _json_names(cfg) -> list:
    """The fields of config dataclass `cfg` that its JSON object holds."""
    if isinstance(cfg, SpatialSlot) and cfg.kind != "repso":
        return ["kind"]  # the other fields are RepSO options
    names = [f.name for f in fields(cfg)]
    if isinstance(cfg, BlockConfig) and cfg.form != "meta_basic":
        return [n for n in names if n not in _OUTER_SLOTS]
    return names


def _encode(value):
    """The JSON value of a config field; config dataclasses become objects."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return list(value)
    if not is_dataclass(value):
        return value
    return {n: _encode(getattr(value, n)) for n in _json_names(value)}


def _decode(cls, doc: dict, prefix: str):
    """Build config dataclass `cls` from a JSON object whose keys sit under the
    dotted `prefix`; absent keys take the dataclass defaults."""
    hints = get_type_hints(cls)
    for key in doc:
        if key not in hints:
            raise ConfigError(f"unknown key {key!r} in {prefix[:-1] or 'config'}")
    cfg = cls(**{key: _decode_value(hints[key], v, prefix + key) for key, v in doc.items()})
    extra = [key for key in doc if key not in _json_names(cfg)]
    if extra:
        raise ConfigError(f"{prefix}{extra[0]} is only valid for {_ONLY_FOR[cls]}")
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


def config_from_json(text: str | bytes) -> ModelConfig:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also over-long integers and deep nesting
        raise ConfigError(f"invalid JSON: {e}") from None
    if type(doc) is not dict:
        raise ConfigError("config root must be an object")
    return _decode(ModelConfig, doc, "")


def load_config(path) -> ModelConfig:
    with open(path, "rb") as f:  # json.loads decodes; undecodable bytes are a ValueError
        return config_from_json(f.read())


def save_config(cfg: ModelConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(config_to_json(cfg))


# ---------------------------------------------------------------------------
# Graph nodes
# ---------------------------------------------------------------------------
#
# Each leaf node owns its rules:
#   shape(c, h, w)  the input channels it needs (or None), what it calls them,
#                   and its output shape;
#   entries()       its weight entries, the only place a weight key is spelled;
#   bind(w)         its step: the function of its input that gives its
#                   output, with the arrays of its entries, in that order,
#                   resolved once into what the kernel takes. The step calls
#                   its kernel by its name in this module, and may write over
#                   its input only when the input is writable (see `_execute`);
#   fuse(w, bn)     on Conv, SF-Conv, RepSO and RefCO: the inference-form node
#                   and its arrays, absorbing `bn`, the normalization that
#                   follows (its BnParams; its BnNode when `w` is None), if any.
#                   The arrays are None when `w` is None; the result is None
#                   when no rewrite applies;
#   cost            the (kind, category) it is priced under in costs.py, or
#                   None for a parameter-free layer.

class ParamEntry(NamedTuple):
    key: str
    shape: tuple
    role: str  # conv_weight | sf_w1 | sf_w2 | linear_weight | bias | bn_gamma | bn_beta | bn_mean | bn_var
    init_fan: int = 1  # effective fan-in for 1/sqrt scaling; branch ensembles
    #                    fold their branch count in so summed outputs stay unit scale


def _bn_entries(prefix: str, channels: int):
    for part, role in (("gamma", "bn_gamma"), ("beta", "bn_beta"),
                       ("mean", "bn_mean"), ("var", "bn_var")):
        yield ParamEntry(f"{prefix}.{part}", (channels,), role)


def _bn_prefix(node, i: int) -> str:
    """The key prefix of ``node``'s ``i``-th BN in entry order, which its
    set-up errors lead with; found only then, as it walks every entry."""
    return [e.key.removesuffix(".gamma") for e in node.entries() if e.role == "bn_gamma"][i]


def _per_shape(bind):
    """A step for a kernel bound per one-image shape: on its first input of
    a shape ``x.shape[1:]`` it keeps ``bind(shape)``, and on each input it
    runs the bound kernel by its name in this module."""
    bound = {}

    def step(x):
        b = bound.get(x.shape[1:])
        if b is None:  # threads that miss together each bind; any binding serves
            b = bound[x.shape[1:]] = bind(x.shape[1:])
        return _run_branch_sum(x, b)
    return step


@dataclass(frozen=True)
class _Leaf:
    """A weightless leaf that keeps its input's shape."""
    name: str
    cost = None

    def shape(self, c: int, h: int, w: int):
        return None, "", (c, h, w)

    def entries(self):
        return ()


@dataclass(frozen=True)
class ConvNode(_Leaf):
    spec: ConvSpec

    @property
    def cost(self):
        s = self.spec
        return f"conv{s.kernel_h}x{s.kernel_w}", "spatial" if s.kernel_h * s.kernel_w > 1 else "channel"

    def shape(self, c, h, w):
        return self.spec.in_channels, "expects {} channels", (
            self.spec.out_channels, *self.spec.out_hw(h, w))

    def entries(self):
        s = self.spec
        fan = (s.in_channels // s.groups) * s.kernel_h * s.kernel_w
        yield ParamEntry(f"{self.name}.weight", s.weight_shape(), "conv_weight", fan)
        if s.has_bias:
            yield ParamEntry(f"{self.name}.bias", (s.out_channels,), "bias")

    def bind(self, w):
        bias = w[1] if self.spec.has_bias else None
        if self.spec.is_depthwise:
            return _per_shape(partial(_bind_conv, self.spec, w=w[0], bias=bias))
        return lambda x: conv2d(x, w[0], bias, self.spec)

    def fuse(self, w, bn):
        if bn is None:
            return None
        if w is not None:
            w = list(fuse_bn_into_linear(w[0], w[1] if self.spec.has_bias else None, bn))
        return ConvNode(self.name, replace(self.spec, has_bias=True)), w


@dataclass(frozen=True)
class BnNode(_Leaf):
    channels: int
    eps = BnParams.eps
    cost = ("bn", "other")

    def shape(self, c, h, w):
        return self.channels, "normalizes {} channels", (c, h, w)

    def entries(self):
        return _bn_entries(self.name, self.channels)

    def params(self, w) -> BnParams:
        try:
            return BnParams(*w, self.eps)
        except ValueError as e:  # `w` has its entries' shapes, so a value check failed
            raise ValueError(f"{self.name}.{e}") from None

    def bind(self, w):
        s, t = self.params(w).scale_shift()
        return lambda x: _channel_affine(x, s, t, x.flags.writeable)


@dataclass(frozen=True)
class ReluNode(_Leaf):
    def bind(self, w):
        return lambda x: _relu_in_place(x)


@dataclass(frozen=True)
class PoolNode(_Leaf):
    def shape(self, c, h, w):
        return None, "", (c, 1, 1)

    def bind(self, w):
        return lambda x: global_avg_pool(x)


@dataclass(frozen=True)
class FlattenNode(_Leaf):
    def shape(self, c, h, w):
        return None, "", (c * h * w, 1, 1)

    def bind(self, w):
        return lambda x: x.reshape(x.shape[0], math.prod(x.shape[1:]))


@dataclass(frozen=True)
class LinearNode(_Leaf):
    in_features: int
    out_features: int
    cost = ("linear", "head")

    def shape(self, c, h, w):
        if (h, w) != (1, 1):
            raise ShapeError(f"linear input is {h}x{w}, expected 1x1")
        return self.in_features, "expects {} features", (self.out_features, 1, 1)

    def entries(self):
        yield ParamEntry(f"{self.name}.weight", (self.out_features, self.in_features),
                         "linear_weight", self.in_features)
        yield ParamEntry(f"{self.name}.bias", (self.out_features,), "bias")

    def bind(self, w):
        return lambda x: linear(x, *w)


@dataclass(frozen=True)
class RepSONode(_Leaf):
    cfg: RepSOConfig
    cost = ("repso", "spatial")

    def shape(self, c, h, w):
        return self.cfg.channels, "built for {} channels", (c, h, w)

    def entries(self):
        c, n = self.cfg.channels, self.cfg.branch_count
        # branch_kinds() lists the parallel 3x3 kernels first, so i numbers them.
        for i, kind in enumerate(self.cfg.branch_kinds()):
            tag = kind if kind == "identity" else f"dw3x3_{i}" if kind == "3x3" else f"dw{kind}"
            shape = branch_kernel_shape(kind, c)
            if shape is not None:
                yield ParamEntry(f"{self.name}.{tag}.kernel", shape, "conv_weight",
                                 shape[2] * shape[3] * n)
            yield from _bn_entries(f"{self.name}.{tag}", c)

    def _terms(self, w):
        """The checked branches, each a kernel (identity, the last, has none)
        and four BN arrays, as ``_bind_repso`` binds them."""
        w = list(w)
        if self.cfg.include_identity:
            w.insert(len(w) - 4, None)
        return _repso_terms([(*w[j:j + 5], BnParams.eps) for j in range(0, len(w), 5)],
                            self.cfg, partial(_bn_prefix, self))

    def bind(self, w):
        return _per_shape(partial(_bind_repso, cfg=self.cfg, terms=self._terms(w)))

    def fuse(self, w, bn):
        c = self.cfg.channels
        node = ConvNode(self.name, ConvSpec(c, c, 3, 3, 1, 1, 1, 1, groups=c, has_bias=True))
        if w is not None:
            fused = _merge_repso(self.cfg, self._terms(w))
            w = [fused.kernel, fused.bias]
        return node.fuse(w, bn) or (node, w)


@dataclass(frozen=True)
class SFConvNode(_Leaf):
    spec: SFConvSpec
    has_bias1: bool = False
    has_bias2: bool = False
    cost = ("sfconv", "channel")

    def shape(self, c, h, w):
        return self.spec.c_in, "expects {} channels", (self.spec.c_out, h, w)

    def entries(self):
        w1, w2 = self.spec.weight_shapes()
        yield ParamEntry(f"{self.name}.w1", w1, "sf_w1", self.spec.kernel)
        yield ParamEntry(f"{self.name}.w2", w2, "sf_w2", self.spec.windows)
        if self.has_bias1:
            yield ParamEntry(f"{self.name}.bias1", w1[:2], "bias")
        if self.has_bias2:
            yield ParamEntry(f"{self.name}.bias2", w2[:1], "bias")

    def _unpack(self, w):
        """(w1, w2, bias1, bias2), None for an absent bias."""
        it = iter(w[2:])
        return (w[0], w[1], next(it) if self.has_bias1 else None,
                next(it) if self.has_bias2 else None)

    def bind(self, w):
        weights = SFConvWeights(self.spec, *self._unpack(w))
        return lambda x: sfconv_forward(x, self.spec, weights)

    def fuse(self, w, bn):
        if bn is None:
            return None
        if w is not None:
            w1, w2, bias1, bias2 = self._unpack(w)
            w2, bias2 = fuse_bn_into_linear(w2, bias2, bn)
            w = [a for a in (w1, w2, bias1, bias2) if a is not None]
        return replace(self, has_bias2=True), w


@dataclass(frozen=True)
class RefCONode(_Leaf):
    spec: SFConvSpec
    cost = ("refco", "channel")

    shape = SFConvNode.shape

    def entries(self):
        s = self.spec
        fan = s.kernel * s.windows  # taps times summed branches, both stages
        for stage, n, shape, role in zip(("s1", "s2"), (s.windows, s.kernel),
                                         s.weight_shapes(), ("sf_w1", "sf_w2")):
            for i in range(n):
                yield ParamEntry(f"{self.name}.{stage}.{i}.weight", shape, role, fan)
                yield from _bn_entries(f"{self.name}.{stage}.{i}", shape[0])

    def _terms(self, w):
        """Both stages, checked, as ``_refco`` runs them; each branch is a
        weight and its four BN arrays."""
        b = [(*w[j:j + 5], BnParams.eps) for j in range(0, len(w), 5)]
        return _refco_terms(self.spec, b[:self.spec.windows], b[self.spec.windows:],
                            partial(_bn_prefix, self))

    def bind(self, w):
        terms = self._terms(w)
        return lambda x: _refco(x, self.spec, *terms)

    def fuse(self, w, bn):
        node = SFConvNode(self.name, self.spec, True, True)
        if w is not None:
            m = _merge_refco(self.spec, self._terms(w))
            w = [m.w1, m.w2, m.bias1, m.bias2]
        return node.fuse(w, bn) or (node, w)


@dataclass(frozen=True)
class BlockNode:
    """A sub-sequence, optionally wrapped by an identity shortcut."""
    name: str
    body: tuple
    residual: bool


@dataclass(frozen=True)
class LayerGraph:
    config: ModelConfig
    nodes: tuple


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
            try:
                need, what, out = node.shape(*shape)
            except ShapeError as e:
                raise ShapeError(f"{node.name}: {e}") from None
            if need is not None and need != shape[0]:
                raise ShapeError(f"{node.name}: {what.format(need)}, receives {shape[0]}")
            yield node, shape, out
        shape = out
    return shape


# ---------------------------------------------------------------------------
# Weight entries, initialization
# ---------------------------------------------------------------------------

def iter_param_entries(graph: LayerGraph) -> Iterator[ParamEntry]:
    return _entries(graph.nodes)


def _entries(nodes) -> Iterator[ParamEntry]:
    for node in nodes:
        yield from _entries(node.body) if isinstance(node, BlockNode) else node.entries()


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
            keys.update(e.key for e in closing.entries()
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
        else:  # bn_gamma, bn_beta, bn_mean, bn_var
            arr = rng.uniform(*BnParams.RANGES[role[3:]], entry.shape)
        store.put(entry.key, arr)  # put rounds to float32
    return store


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
#
# `forward` runs a plan: the graph compiled against one weight store into a
# flat list of steps. Compiling reads every weight entry once, in entry
# order, and each leaf binds its arrays into the form its kernel takes (BN
# statistics become a scale and shift), so a run only calls kernels. Every
# step looks its kernel up by name when it runs, so a kernel swapped into
# the module later is the one called. The depthwise, subsampling and RepSO
# steps go one further (`_per_shape`): on the first input of each one-image
# shape they keep the branch sum bound to it, its layout, tiling and laid
# out weights, and from then on only call `_run_branch_sum`, so the plan for
# graphs that differ only in resolution keeps one binding per resolution. A
# binding is made once: a plan that ran before `ops._CL_PLANE_FLOATS` or
# `ops._TILE_FLOATS` is changed keeps the layout and tiles it bound. Bound
# weights are at their kernel's size, and padded buffers are made per call,
# so a plan stays small beside its store. ReLU, BN and the residual add write
# over their input when it is writable, and `_execute` makes writable only
# what the run owns; a plan holds no activation, so runs are reentrant.
# `forward` keeps one plan per store and per equal tuple of nodes, so a graph
# may be rebuilt and the store is the object to keep; each call hashes every
# node to find its plan, 40 to 50 us on a 224 px preset graph, under 0.2% of
# fused `falconnet`'s batch-1 forward (2-core x86 host). Every kernel gives
# each image of a batch the bits it gets alone, so `forward` runs a batch one
# image per run, joining the rows in order: on the calling thread, or on
# threads of its own for the CPUs that BLAS leaves idle (`_workers`); the
# threads end with the call, and calls may still run concurrently. Against
# whole-batch steps on one thread, one image per run gave the same bits and
# ran 1.09x to 1.13x faster on fused `falconnet` at batch 8 and 1.34x to
# 1.36x on its train form at batch 4 (2-core x86 host, one BLAS thread or
# none set); fused `lightnet-repso` at batch 8 was within 3%. A run sets
# one small ufunc buffer for all its steps, on its own thread; a kernel
# called directly keeps its caller's buffer size.

def _weights(node, store: WeightStore) -> list:
    """The arrays of ``node``'s entries, in entry order, each checked against
    its entry's shape."""
    w = []
    for e in node.entries():
        a = store.get(e.key)
        if a.shape != e.shape:
            raise ShapeError(f"{e.key} has shape {a.shape}, expected {e.shape}")
        w.append(a)
    return w


# What a step does with the running activation x: replace it by fn(x);
# save it for a residual shortcut; or replace it by fn(saved, x), the
# shortcut sum, popping the saved one.
_CALL, _SAVE, _ADD = range(3)


class _Step(NamedTuple):
    where: str  # the node's name, after those of its enclosing blocks
    op: int
    fn: object


# Elements of numpy's ufunc buffer while a plan runs. numpy 2.4 runs a
# broadcast pass, such as a per-channel scale, shift or bias, through its
# buffer, 8192 elements by default, whenever a row is shorter than that;
# with numpy 2.4.6 on a 2-core x86 host ``y *= s`` of (16, 4096) by (16, 1)
# took 14.2 us with the default buffer and 5.5 us with this one, and a
# (64, 784) bias add 10.9 against 5.3 us. Elementwise passes give the same
# bits whatever the buffer size.
_UFUNC_BUFSIZE = 1024


def _read_only(a: np.ndarray) -> np.ndarray:
    v = a.view()
    v.flags.writeable = False
    return v


def _execute(plan: tuple, x: Tensor) -> Tensor:
    """Run ``plan`` on ``x``. The first step gets ``x``, and a residual body
    the array its shortcut keeps, as a read-only view, so every writable
    array a step sees belongs to the run and nothing else reads it. The
    steps run with numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` elements, on
    this thread only (per context on numpy 2.x); the caller's size comes
    back after them, also on an error."""
    saved = []
    x = _read_only(x)
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for where, op, fn in plan:
            try:
                if op == _CALL:
                    x = fn(x)
                elif op == _SAVE:
                    saved.append(x)
                    x = _read_only(x)
                else:
                    x = fn(saved.pop(), x)
            except ShapeError as e:
                raise ShapeError(f"{where}: {e}") from None
    finally:
        np.setbufsize(old)
    return x


def _compile(nodes, store: WeightStore, where: str = ""):
    """Yield the steps of ``nodes``, in order, reading their entries from
    ``store`` in entry order; ``where`` prefixes each step's name."""
    for node in nodes:
        at = where + node.name
        if not isinstance(node, BlockNode):
            yield _Step(at, _CALL, node.bind(_weights(node, store)))
        elif not node.residual:
            yield from _compile(node.body, store, at + ": ")
        else:
            yield _Step(at, _SAVE, None)
            yield from _compile(node.body, store, at + ": ")
            yield _Step(at, _ADD, lambda s, x: _add_into_second(s, x))


def _add_into_second(x: Tensor, y: Tensor) -> Tensor:
    return np.add(x, y, out=y if y.flags.writeable else None)


# store -> {tuple(graph.nodes): plan}, weakly keyed, so that plans live as
# long as their store and no longer. A plan is a function of the nodes and
# the store alone, so equal graphs share one. It cannot go stale: a store
# only gains entries, and its arrays are read-only copies.
_PLANS = weakref.WeakKeyDictionary()


def _plan(graph: LayerGraph, store: WeightStore) -> tuple:
    plans = _PLANS.setdefault(store, {})
    nodes = tuple(graph.nodes)
    plan = plans.get(nodes)
    if plan is None:  # threads that miss together each compile; any plan serves
        plan = plans[nodes] = tuple(_compile(nodes, store))
    return plan


def _workers() -> int:
    """How many images `forward` runs at once: the usable CPUs over the BLAS
    threads, the first positive count in OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS. With neither, BLAS is taken to use every CPU: one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


def forward(graph: LayerGraph, store: WeightStore, x: Tensor) -> np.ndarray:
    """Run the graph on a (N, 3, R, R) input; returns (N, num_classes) logits.

    Purely functional over immutable inputs: the same input and weights
    produce bitwise-identical logits on a given machine. The first call on a
    store and the graph's nodes compiles a plan that later calls on that
    store with equal nodes reuse, so the graph may be rebuilt (its nodes,
    a tuple or a list, must hold hashable nodes, and each call hashes
    them); ``x`` is never written (its steps see it read-only,
    so one that would write over it raises), and calls may run
    concurrently. A batch runs one image per task, on the calling thread or
    on as many threads as `_workers` allows; they are made for the call and
    end before it returns, or raises the error of the first failing image in
    batch order. Each image gets the bits it gets alone, so the logits do
    not depend on the thread count.

    The plan reads the graph's entries and ignores any other in ``store``.
    The fused form reuses five train-form keys (``stem.conv.weight``,
    ``stem.down.weight`` and ``sub1`` to ``sub3`` ``.conv.weight``) for
    BN-folded values, so one store cannot serve both forms; the CLI accepts
    a weight file of exactly one form.
    """
    x = as_f32(x)
    res = graph.config.input_resolution
    if x.ndim != 4 or x.shape[1] != 3:
        raise ShapeError(f"model input must be (N, 3, {res}, {res}), got {x.shape}")
    if x.shape[2] != res or x.shape[3] != res:
        raise ShapeError(f"model input is {x.shape[2]}x{x.shape[3]}, expected {res}x{res}")
    plan = _plan(graph, store)
    workers = min(_workers(), len(x))
    # An empty batch is one task, of no image.
    images = range(max(1, len(x)))
    if workers < 2:
        return np.concatenate([_execute(plan, x[i:i + 1]) for i in images])
    # `map` yields rows in image order and, on an error, cancels the images
    # not yet started; leaving the block waits for those still running.
    with futures.ThreadPoolExecutor(workers) as pool:
        return np.concatenate(list(pool.map(lambda i: _execute(plan, x[i:i + 1]), images)))


# ---------------------------------------------------------------------------
# Whole-model fusion
# ---------------------------------------------------------------------------

def _fuse_seq(nodes, store: WeightStore | None, out: WeightStore | None):
    """Rewrite a node sequence into inference form; returns (nodes, rewrites).

    Rewrites are the fuse() calls that apply: each RepSO and RefCO, and each
    conv or SF-Conv followed by a normalization. With ``store`` None only the
    topology is produced.
    """
    result: list = []
    rewrites = i = 0
    while i < len(nodes):
        node = nodes[i]
        i += 1
        if isinstance(node, BlockNode):
            body, n = _fuse_seq(node.body, store, out)
            result.append(BlockNode(node.name, tuple(body), node.residual))
            rewrites += n
            continue
        w = None if store is None else _weights(node, store)
        if hasattr(node, "fuse"):
            bn = nodes[i] if i < len(nodes) and isinstance(nodes[i], BnNode) else None
            if bn is not None and store is not None:
                bn = bn.params(_weights(bn, store))
            fused = node.fuse(w, bn)
            if fused is not None:
                node, w = fused
                rewrites += 1
                i += bn is not None  # the normalization is absorbed
        if out is not None:  # `w` holds new arrays and read-only ones of `store`
            for entry, arr in zip(node.entries(), w, strict=True):
                out._adopt(entry.key, arr)
        result.append(node)
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


@dataclass(frozen=True)
class FusionReport:
    """Outcome of an empirical train/inference equivalence check."""
    max_abs_error: float
    trials: int
    input_shape: tuple
    tolerance: float
    seed: int
    passed: bool


def verify_equivalence(reference, candidate, trials: int, input_shape,
                       tolerance: float = 1e-4, seed: int = 0) -> FusionReport:
    """Run both callables on fixed-seed pseudo-random inputs and record the
    worst absolute output discrepancy. A non-finite output from either side
    makes that discrepancy non-finite, and the report fails. A tolerance
    that no discrepancy can meet (negative or NaN) is an error."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not tolerance >= 0:  # `not >= 0` rejects a NaN tolerance too
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    shape = tuple(int(d) for d in input_shape)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(shape).astype(np.float32)
        a = np.asarray(reference(x))
        b = np.asarray(candidate(x))
        if a.shape != b.shape:
            raise ShapeError(f"model outputs differ in shape: {a.shape} vs {b.shape}")
        err = float(np.max(np.abs(a - b))) if a.size else 0.0
        if err > worst or np.isnan(err):  # max() would drop a NaN
            worst = err
    return FusionReport(worst, trials, shape, float(tolerance), seed, worst <= tolerance)
