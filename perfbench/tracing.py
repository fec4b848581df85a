"""Traced replay of a layer graph through the library's public kernels.

``Replay.run`` walks a graph node by node and calls the same public
functions, with the same arguments, that ``falconnet.forward`` calls, so its
logits must equal ``forward``'s bitwise. Each call is timed from outside the
library: the spans belong to the benchmark, not to the program. Weights are
resolved from the store on every call, as ``forward`` does, and that cost
falls outside the kernel spans.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

from falconnet import (BnParams, LayerGraph, RefCOBranch, RepSOBranch, RepSOWeights,
                       SFConvWeights, add, batch_norm_infer, conv2d, cost_report,
                       global_avg_pool, iter_param_entries, linear, refco_forward, relu,
                       repso_forward, sfconv_forward)
from falconnet.model import (BlockNode, BnNode, ConvNode, FlattenNode, LinearNode, PoolNode,
                             RefCONode, ReluNode, RepSONode, SFConvNode)

# Every span name a replay can record. ``KERNELS`` minus the composite
# operators are the elementary kernels of the fused form.
KERNELS = ("ops.conv2d_dw", "ops.conv2d_dense", "ops.conv2d_other", "ops.batch_norm",
           "ops.relu", "ops.add", "ops.global_avg_pool", "ops.linear",
           "spatial.repso_forward", "channel.refco_forward", "channel.sfconv_forward")
STAGES = ("stem", "s1", "s2", "s3", "s4", "head")


def conv_kind(node: ConvNode) -> str:
    """3x3 stride-1 depthwise, 1x1 dense, or anything else (stem, subsampling)."""
    s = node.spec
    if (s.is_depthwise and s.out_channels == s.in_channels and (s.kernel_h, s.kernel_w) == (3, 3)
            and (s.stride_h, s.stride_w) == (1, 1)):
        return "ops.conv2d_dw"
    if (s.kernel_h, s.kernel_w) == (1, 1) and s.groups == 1:
        return "ops.conv2d_dense"
    return "ops.conv2d_other"


def stage_of(name: str) -> str:
    """Stage of a top-level node; subsampling layer ``sub<i>`` opens stage i+1."""
    head = name.split(".", 1)[0]
    if head.startswith("sub"):
        return f"s{int(head[3:]) + 1}"
    return head


def leaves(nodes):
    for node in nodes:
        if isinstance(node, BlockNode):
            yield from leaves(node.body)
        else:
            yield node


class Trace:
    """Span totals of one or more replays: seconds and computed bytes per
    kernel, seconds per stage. Bytes are the sizes of the array arguments
    and the result, not a measurement of memory traffic."""

    def __init__(self):
        self.kernel_s = defaultdict(float)
        self.kernel_bytes = defaultdict(int)
        self.stage_s = defaultdict(float)

    def call(self, name: str, fn, *args):
        t0 = perf_counter()
        y = fn(*args)
        self.kernel_s[name] += perf_counter() - t0
        self.kernel_bytes[name] += y.nbytes + sum(
            a.nbytes for a in args if isinstance(a, np.ndarray))
        return y


class Replay:
    """A graph and its weights, replayed with a span around every kernel call."""

    def __init__(self, graph: LayerGraph, store):
        self.graph = graph
        self.store = store
        self.keys = {node.name: [e.key for e in iter_param_entries(LayerGraph(graph.config, (node,)))]
                     for node in leaves(graph.nodes)}
        rows = {row.name: row.flops for row in cost_report(graph, "train").layers}
        self.flops = defaultdict(int)  # per image, per kernel span name
        for node in leaves(graph.nodes):
            if node.name in rows:
                self.flops[self._kernel_name(node)] += rows[node.name]

    @staticmethod
    def _kernel_name(node) -> str:
        if isinstance(node, ConvNode):
            return conv_kind(node)
        return {BnNode: "ops.batch_norm", LinearNode: "ops.linear",
                RepSONode: "spatial.repso_forward", RefCONode: "channel.refco_forward",
                SFConvNode: "channel.sfconv_forward"}[type(node)]

    def run(self, x: np.ndarray, trace: Trace) -> np.ndarray:
        for node in self.graph.nodes:
            t0 = perf_counter()
            x = self._apply(node, x, trace)
            trace.stage_s[stage_of(node.name)] += perf_counter() - t0
        return x

    def _get(self, node) -> list:
        return [self.store.get(k) for k in self.keys[node.name]]

    def _branch_bn(self, prefixes) -> list:
        get = self.store.get
        return [BnParams(get(f"{p}.gamma"), get(f"{p}.beta"), get(f"{p}.mean"), get(f"{p}.var"))
                for p in prefixes]

    def _bn_prefixes(self, node) -> list:
        return [k[:-len(".gamma")] for k in self.keys[node.name] if k.endswith(".gamma")]

    def _apply(self, node, x, trace: Trace):
        if isinstance(node, BlockNode):
            y = x
            for child in node.body:
                y = self._apply(child, y, trace)
            return trace.call("ops.add", add, x, y) if node.residual else y
        if isinstance(node, ConvNode):
            w = self._get(node)
            bias = w[1] if node.spec.has_bias else None
            return trace.call(conv_kind(node), conv2d, x, w[0], bias, node.spec)
        if isinstance(node, BnNode):
            return trace.call("ops.batch_norm", batch_norm_infer, x,
                              BnParams(*self._get(node), node.eps))
        if isinstance(node, ReluNode):
            return trace.call("ops.relu", relu, x)
        if isinstance(node, PoolNode):
            return trace.call("ops.global_avg_pool", global_avg_pool, x)
        if isinstance(node, FlattenNode):
            return x.reshape(x.shape[0], -1)
        if isinstance(node, LinearNode):
            w, b = self._get(node)
            return trace.call("ops.linear", linear, x, w, b)
        if isinstance(node, RepSONode):
            prefixes = self._bn_prefixes(node)
            branches = tuple(
                RepSOBranch(kind, None if kind == "identity" else self.store.get(f"{p}.kernel"), bn)
                for kind, p, bn in zip(node.cfg.branch_kinds(), prefixes,
                                       self._branch_bn(prefixes)))
            return trace.call("spatial.repso_forward", repso_forward, x,
                              RepSOWeights(branches), node.cfg)
        if isinstance(node, RefCONode):
            prefixes = self._bn_prefixes(node)
            branches = [RefCOBranch(self.store.get(f"{p}.weight"), bn)
                        for p, bn in zip(prefixes, self._branch_bn(prefixes))]
            n1 = node.spec.windows
            return trace.call("channel.refco_forward", refco_forward, x, node.spec,
                              branches[:n1], branches[n1:])
        if isinstance(node, SFConvNode):
            w = self._get(node)
            it = iter(w[2:])
            b1 = next(it) if node.has_bias1 else None
            b2 = next(it) if node.has_bias2 else None
            return trace.call("channel.sfconv_forward", sfconv_forward, x, node.spec,
                              SFConvWeights(node.spec, w[0], w[1], b1, b2))
        raise TypeError(f"replay has no rule for node {node!r}")
