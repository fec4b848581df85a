"""Parameter and Flops accounting.

Flops follow the convention Flops = output_H * output_W * layer weight
count, with a multiply-add counted as one. Elementwise layers, pooling and
standalone normalizations therefore cost zero. Parameters are integer
exact; normalization layers contribute their scale and shift only (running
statistics are buffers, not parameters).

Counting in "inference" mode prices the fused forms: the multi-branch
spatial operator as one biased 3x3 depthwise kernel, the multi-branch
channel operator as one biased SF-Conv, and every foldable normalization
absorbed into its convolution. Categories follow the channel/spatial
split: 1x1 channel-mixing layers are "channel", convolutions with a
spatial extent are "spatial", normalizations are "other", and the final
classifier is reported separately and excluded from category totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (BnNode, ConvNode, LayerGraph, LinearNode, Node, RefCONode, RepSONode,
                    SFConvNode, _node_entries, _walk_shapes, fused_structure)
from .ops import ShapeError

__all__ = ["LayerCost", "CostReport", "count_params", "count_flops", "cost_report"]

CATEGORIES = ("spatial", "channel", "other", "head")


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    category: str
    params: int
    flops: int
    out_h: int
    out_w: int


@dataclass(frozen=True)
class CostReport:
    """Per-layer rows plus category totals.

    ``backbone_params``/``backbone_flops`` exclude the classifier head;
    the grand totals include it.
    """

    mode: str
    layers: tuple
    params_by_category: dict
    flops_by_category: dict

    @property
    def backbone_params(self) -> int:
        return sum(self.params_by_category[c] for c in ("spatial", "channel", "other"))

    @property
    def backbone_flops(self) -> int:
        return sum(self.flops_by_category[c] for c in ("spatial", "channel", "other"))

    @property
    def total_params(self) -> int:
        return self.backbone_params + self.params_by_category["head"]

    @property
    def total_flops(self) -> int:
        return self.backbone_flops + self.flops_by_category["head"]

    def param_shares(self) -> dict:
        """Category percentages of the backbone parameter total."""
        total = self.backbone_params
        if total == 0:
            return {c: 0.0 for c in ("spatial", "channel", "other")}
        return {c: 100.0 * self.params_by_category[c] / total
                for c in ("spatial", "channel", "other")}


# Entry roles that carry multiply-adds, and the normalization roles that
# count as parameters (running statistics are buffers).
_WEIGHT_ROLES = ("conv_weight", "linear_weight", "sf_w1", "sf_w2", "bias")
_NORM_ROLES = ("bn_gamma", "bn_beta")
_KINDS = {BnNode: ("bn", "other"), LinearNode: ("linear", "head"),
          RepSONode: ("repso", "spatial"), RefCONode: ("refco", "channel"),
          SFConvNode: ("sfconv", "channel")}


def _kind(node: Node):
    """(kind, category) of a costed layer; None for parameter-free layers."""
    if isinstance(node, ConvNode):
        s = node.spec
        category = "spatial" if s.kernel_h * s.kernel_w > 1 else "channel"
        return f"conv{s.kernel_h}x{s.kernel_w}", category
    return _KINDS.get(type(node))


def cost_report(graph: LayerGraph, mode: str = "train",
                resolution: int | None = None) -> CostReport:
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got '{mode}'")
    g = fused_structure(graph) if mode == "inference" else graph
    res = graph.config.input_resolution if resolution is None else int(resolution)
    if res < 1:
        raise ShapeError(f"resolution must be positive, got {res}")
    rows: list = []
    for node, _, (_, oh, ow) in _walk_shapes(g.nodes, (3, res, res)):
        kind = _kind(node)
        if kind is None:
            continue
        entries = list(_node_entries(node))
        weights = sum(math.prod(e.shape) for e in entries if e.role in _WEIGHT_ROLES)
        norm = sum(math.prod(e.shape) for e in entries if e.role in _NORM_ROLES)
        rows.append(LayerCost(node.name, *kind, weights + norm, oh * ow * weights, oh, ow))
    params = {c: 0 for c in CATEGORIES}
    flops = {c: 0 for c in CATEGORIES}
    for row in rows:
        params[row.category] += row.params
        flops[row.category] += row.flops
    return CostReport(mode, tuple(rows), params, flops)


def count_params(graph: LayerGraph, mode: str = "train") -> CostReport:
    """Per-layer parameter table with category totals (head kept separate)."""
    return cost_report(graph, mode)


def count_flops(graph: LayerGraph, input_resolution: int | None = None,
                mode: str = "train") -> CostReport:
    """Per-layer Flops table at the given input resolution."""
    return cost_report(graph, mode, input_resolution)
