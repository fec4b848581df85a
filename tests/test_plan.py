"""The compiled execution plan behind ``forward``.

``forward`` compiles a plan once per store and per equal set of nodes, and
reuses it for any graph with those nodes. These tests pin what that must not
change: the bits, purity towards the caller's input and the returned logits,
one plan per store and nodes, and reentrancy. A batch may run one image per
task on a thread pool; the tests of that path force the worker count, so
that the pool runs whatever the BLAS settings.
"""

import gc
import hashlib
import multiprocessing
import os
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

import falconnet.model as model_mod
import falconnet.ops as ops_mod
from falconnet import (BlockConfig, ChannelSlot, ConvSpec, LayerGraph, ModelConfig, ShapeError,
                       SpatialSlot, WeightStore, build_model, conv2d, forward, fuse_model,
                       fused_structure, init_weights, preset_config)
from falconnet.model import PRESET_NAMES, BlockNode, BnNode, ConvNode, PoolNode, ReluNode


def tiny_falconnet(resolution=32):
    """RepSO and RefCO blocks, so the train form holds per-branch BNs."""
    return ModelConfig(stem_channels=8, stage_blocks=(1, 1, 1, 1),
                       stage_channels=(8, 16, 32, 64),
                       block=BlockConfig(expansion=Fraction(6), spatial=SpatialSlot("repso"),
                                         channel=ChannelSlot("refco")),
                       head_width=16, num_classes=5, input_resolution=resolution)


def images(n, seed, resolution=32):
    return np.random.default_rng(seed).standard_normal(
        (n, 3, resolution, resolution)).astype(np.float32)


def cold(graph, store, x):
    """Logits from a graph and store no plan has been compiled for."""
    return forward(LayerGraph(graph.config, graph.nodes), WeightStore(store.items()), x)


def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def model():
    graph = build_model(tiny_falconnet())
    return graph, init_weights(graph, seed=4)


def test_threads_give_the_serial_bits(model):
    """More threads than cores, switching often, on a pair with no plan yet,
    so several may compile it at once: each must get the serial bits."""
    graph, store = model
    store = WeightStore(store.items())
    xs = [images(2, seed) for seed in range(4)]
    serial = [cold(graph, store, x).tobytes() for x in xs]
    start = threading.Barrier(len(xs))
    got = [[] for _ in xs]

    def work(i):
        start.wait()
        for _ in range(3):
            got[i].append(forward(graph, store, xs[i]).tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[bits] * 3 for bits in serial]


def test_mutating_logits_does_not_change_the_next_call(model):
    graph, store = model
    x = images(1, 3)
    first = forward(graph, store, x)
    expected = first.copy()
    first[...] = 123.0
    assert forward(graph, store, x).tobytes() == expected.tobytes()


def test_one_graph_two_stores_give_each_stores_logits(model):
    graph, _ = model
    stores = [init_weights(graph, seed=s) for s in (5, 6)]
    x = images(1, 4)
    expected = [cold(graph, s, x).tobytes() for s in stores]
    assert expected[0] != expected[1]
    for _ in range(2):
        assert [forward(graph, s, x).tobytes() for s in stores] == expected


@pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
def test_alternating_batch_sizes_keep_the_bits(model, fused):
    graph, store = fuse_model(*model) if fused else model
    x1, x8 = images(1, 5), images(8, 6)
    expected = {1: cold(graph, store, x1).tobytes(), 8: cold(graph, store, x8).tobytes()}
    for x in (x1, x8, x1, x8):
        assert forward(graph, store, x).tobytes() == expected[len(x)]


def test_input_is_never_written():
    """The first step reads the caller's array, and a residual body's first
    step reads an array its shortcut still needs: neither may be written."""
    cfg = ModelConfig(input_resolution=8)
    rng = np.random.default_rng(7)
    spec = ConvSpec(3, 3, 3, 3, 1, 1, 1, 1)
    weight = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    store = WeightStore({"conv.weight": weight})
    x = images(2, 8, resolution=8)
    before = digest(x)
    relu_x = np.maximum(x, 0)
    c = conv2d(x, weight, None, spec)
    cases = [
        ((ReluNode("act"),), relu_x),
        ((BlockNode("b", (ReluNode("b.act"),), residual=False),), relu_x),
        ((BlockNode("b", (ReluNode("b.act"),), residual=True),), x + relu_x),
        ((ConvNode("conv", spec), BlockNode("b", (ReluNode("b.act"),), residual=True)),
         c + np.maximum(c, 0)),
    ]
    for nodes, expected in cases:
        y = forward(LayerGraph(cfg, nodes), store, x)
        assert digest(x) == before
        assert y.tobytes() == expected.tobytes()


@dataclass(frozen=True)
class DoubleInPlace(model_mod._Leaf):
    """A leaf whose step wrongly doubles its input in place, whatever it is."""

    def bind(self, w):
        return lambda x: np.multiply(x, np.float32(2), out=x)


@pytest.mark.parametrize("nodes", [
    (DoubleInPlace("bad"),),
    (ReluNode("act"), BlockNode("b", (DoubleInPlace("b.bad"),), residual=True)),
], ids=["first-step", "residual-body"])
def test_a_step_that_writes_a_read_only_input_raises(nodes):
    """The caller's input and a residual shortcut reach a step read-only, so
    a step that writes over either raises rather than corrupting it (the
    shortcut would give 4 * relu(x) where 3 * relu(x) is due)."""
    x = images(2, 14, resolution=8)
    before = digest(x)
    with pytest.raises(ValueError, match="read-only"):
        forward(LayerGraph(ModelConfig(input_resolution=8), nodes), WeightStore(), x)
    assert digest(x) == before


@pytest.fixture(scope="module")
def small_presets():
    """Train and fused forms of every preset at 32 px."""
    forms = {}
    for name in PRESET_NAMES:
        graph = build_model(replace(preset_config(name), input_resolution=32))
        store = init_weights(graph, seed=0)
        forms[name, "train"] = graph, store
        forms[name, "fused"] = fuse_model(graph, store)
    return forms


def _leaves(nodes):
    for node in nodes:
        yield from _leaves(node.body) if isinstance(node, BlockNode) else (node,)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("form", ["train", "fused"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_relu_bn_and_residual_add_write_in_place(small_presets, preset, form, workers,
                                                 monkeypatch):
    """Every ReLU, BN and residual-add step of a preset writes over its input
    (the add over its second operand): none allocates."""
    graph, store = small_presets[preset, form]
    wrote = []

    def recording(kernel, operand):
        def call(*args):
            out = kernel(*args)
            wrote.append(out is args[operand])
            return out
        return call

    for name, operand in (("_relu_in_place", 0), ("_channel_affine", 0),
                          ("_add_into_second", 1)):
        monkeypatch.setattr(model_mod, name, recording(getattr(model_mod, name), operand))
    force_workers(monkeypatch, workers)
    cold(graph, store, images(2, 15))
    leaves = Counter(type(node) for node in _leaves(graph.nodes))
    adds = sum(step.op == model_mod._ADD for step in model_mod._compile(graph.nodes, store))
    steps = leaves[ReluNode] + leaves[BnNode] + adds
    assert steps > 0 and wrote == [True] * (steps * workers)  # one run per image with 2


def test_second_call_resolves_nothing(model, monkeypatch):
    graph, store = model
    calls = Counter()
    reads = []

    class Recording(WeightStore):
        def get(self, name):
            reads.append(name)
            return super().get(name)

    store = Recording(store.items())

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ops_mod.BnParams, "__post_init__",
                        counting("BnParams", ops_mod.BnParams.__post_init__))
    for cls in vars(model_mod).values():
        if isinstance(cls, type) and "entries" in vars(cls):
            monkeypatch.setattr(cls, "entries", counting("entries", cls.entries))
    x = images(1, 9)
    first = forward(graph, store, x)
    assert calls["BnParams"] > 0 and calls["entries"] > 0 and reads  # the counters count
    calls.clear()
    reads.clear()
    assert forward(graph, store, x).tobytes() == first.tobytes()
    assert calls == Counter() and reads == []


@pytest.mark.parametrize("form", ["train", "fused"])
def test_a_cached_plan_calls_relu_pool_and_add_by_name(small_presets, form, monkeypatch):
    """Kernels swapped into the module after a plan is cached are the ones
    its ReLU, pool and residual-add steps call."""
    graph, store = small_presets["falconnet", form]
    force_workers(monkeypatch, 1)
    x = images(1, 16)
    first = forward(graph, store, x)
    calls = Counter()

    def counting(name):
        kernel = getattr(model_mod, name)

        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    for name in ("_relu_in_place", "global_avg_pool", "_add_into_second"):
        monkeypatch.setattr(model_mod, name, counting(name))
    assert forward(graph, store, x).tobytes() == first.tobytes()
    leaves = Counter(type(node) for node in _leaves(graph.nodes))
    adds = sum(step.op == model_mod._ADD for step in model_mod._plan(graph, store))
    assert calls == {"_relu_in_place": leaves[ReluNode], "global_avg_pool": leaves[PoolNode],
                     "_add_into_second": adds}
    assert leaves[ReluNode] and leaves[PoolNode] and adds


def test_cached_plan_does_not_keep_the_store_alive(model):
    graph, store = model
    store = WeightStore(store.items())
    forward(graph, store, images(1, 10))
    ref = weakref.ref(store)
    del store
    gc.collect()
    assert ref() is None


FALCON_32 = replace(preset_config("falconnet"), input_resolution=32)


@pytest.fixture
def falcon_store(small_presets):
    """A copy of the 32 px falconnet train store, with no plan compiled yet."""
    return WeightStore(small_presets["falconnet", "train"][1].items())


def count_compiles(monkeypatch):
    """A list that gets one count per `forward` once the caller appends a 0:
    the calls of `model._compile`, which recurses through the module name."""
    calls = []
    compile_plan = model_mod._compile

    def counting(*args):
        calls[-1] += 1
        return compile_plan(*args)

    monkeypatch.setattr(model_mod, "_compile", counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_rebuilt_equal_graphs_share_one_plan(falcon_store, workers, monkeypatch):
    """A graph built afresh for each call compiles only on the first: the
    plan is cached by the graph's nodes, not by the graph object."""
    force_workers(monkeypatch, workers)
    calls = count_compiles(monkeypatch)
    x = images(2, 17)
    logits = []
    for _ in range(5):
        calls.append(0)
        logits.append(forward(build_model(FALCON_32), falcon_store, x).tobytes())
    assert calls[0] > 0 and calls[1:] == [0] * 4
    assert len(model_mod._PLANS[falcon_store]) == 1
    assert logits == logits[:1] * 5


def test_a_rebuilt_graph_is_freed_after_forward(falcon_store):
    graph = build_model(FALCON_32)
    forward(graph, falcon_store, images(1, 18))
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None


def test_graphs_that_differ_only_in_resolution_share_one_plan(falcon_store):
    graphs = {res: build_model(replace(FALCON_32, input_resolution=res)) for res in (32, 64)}
    xs = {res: images(1, 19, resolution=res) for res in graphs}
    expected = {res: cold(graphs[res], falcon_store, xs[res]).tobytes() for res in graphs}
    for res, graph in graphs.items():
        assert forward(graph, falcon_store, xs[res]).tobytes() == expected[res]
    assert len(model_mod._PLANS[falcon_store]) == 1
    for res, other in ((32, 64), (64, 32)):
        with pytest.raises(ShapeError) as info:
            forward(graphs[res], falcon_store, xs[other])
        assert str(info.value) == f"model input is {other}x{other}, expected {res}x{res}"


def test_train_and_fused_graphs_on_one_store_get_two_plans(falcon_store, small_presets,
                                                           monkeypatch):
    """One store holds the entries of both forms (the train values where a
    key is in both): rebuilt train and fused graphs compile a plan each, on
    their first call only."""
    fused_store = small_presets["falconnet", "fused"][1]
    for key, arr in fused_store.items():
        if key not in falcon_store:
            falcon_store.put(key, arr)
    calls = count_compiles(monkeypatch)
    x = images(1, 21)
    logits = []
    for _ in range(3):
        for graph in (build_model(FALCON_32), fused_structure(build_model(FALCON_32))):
            calls.append(0)
            logits.append(forward(graph, falcon_store, x).tobytes())
    assert calls[0] > 0 and calls[1] > 0 and calls[2:] == [0] * 4
    assert len(model_mod._PLANS[falcon_store]) == 2
    assert logits[0] != logits[1] and logits == logits[:2] * 3


@pytest.fixture(scope="module")
def presets():
    """Train and fused forms of every preset at 64 px."""
    forms = {}
    for name in PRESET_NAMES:
        graph = build_model(replace(preset_config(name), input_resolution=64))
        store = init_weights(graph, seed=0)
        forms[name, "train"] = graph, store
        forms[name, "fused"] = fuse_model(graph, store)
    return forms


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(model_mod, "_workers", lambda: workers)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("form", ["train", "fused"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_image_tasks_give_the_serial_bits(presets, preset, form, workers, monkeypatch):
    graph, store = presets[preset, form]
    plan = model_mod._plan(graph, store)
    serial = model_mod._execute
    runs = []

    def recording(plan, x):
        runs.append(len(x))
        return serial(plan, x)

    force_workers(monkeypatch, workers)
    monkeypatch.setattr(model_mod, "_execute", recording)
    for n in (0, 1, 2, 3, 5):
        x = images(n, 20 + n, resolution=64)
        runs.clear()
        assert forward(graph, store, x).tobytes() == serial(plan, x).tobytes()
        assert runs == ([n] if n < 2 else [1] * n)  # a batch runs one image per task


@pytest.mark.parametrize("workers", [2, 3])
def test_concurrent_calls_share_the_image_pool(model, workers, monkeypatch):
    """More calling threads than cores, each splitting its batch over image
    threads of its own and switching often: each call must get the serial
    bits."""
    graph, store = model
    plan = model_mod._plan(graph, store)
    xs = [images(3, 30 + seed) for seed in range(4)]
    serial = [model_mod._execute(plan, x).tobytes() for x in xs]
    force_workers(monkeypatch, workers)
    start = threading.Barrier(len(xs))
    got = [[] for _ in xs]

    def work(i):
        start.wait()
        for _ in range(3):
            got[i].append(forward(graph, store, xs[i]).tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[bits] * 3 for bits in serial]


@pytest.mark.parametrize("workers", [2, 3])
def test_first_error_propagates_once_every_task_has_finished(model, workers, monkeypatch):
    """Image 1 fails in the stem conv while the other images are still
    running: ``forward`` raises that error, with its step's name, and only
    after every task has finished."""
    graph, store = model
    x = images(5, 11)
    first = model_mod._plan(graph, store)[0].where
    serial, real_conv2d = model_mod._execute, model_mod.conv2d
    lock, active = threading.Lock(), [0]

    def counting(plan, x):
        with lock:
            active[0] += 1
        try:
            return serial(plan, x)
        finally:
            with lock:
                active[0] -= 1

    def failing_conv2d(inp, *args):
        if inp.shape[1] == 3 and np.array_equal(inp[0], x[1]):
            raise ShapeError("image 1 fails")
        if inp.shape[1] == 3:
            time.sleep(0.1)
        return real_conv2d(inp, *args)

    force_workers(monkeypatch, workers)
    monkeypatch.setattr(model_mod, "_execute", counting)
    monkeypatch.setattr(model_mod, "conv2d", failing_conv2d)
    with pytest.raises(ShapeError) as info:
        forward(graph, store, x)
    assert str(info.value) == f"{first}: image 1 fails"
    assert active == [0]
    monkeypatch.setattr(model_mod, "conv2d", real_conv2d)
    assert forward(graph, store, x).tobytes() == serial(model_mod._plan(graph, store), x).tobytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_no_thread_outlives_forward(model, workers, monkeypatch):
    """The image threads are made for the call: none is left once ``forward``
    returns, or once it raises an image's error."""
    graph, store = model
    x = images(5, 13)
    serial, real_conv2d = model_mod._execute, model_mod.conv2d
    ran_on = set()

    def recording(plan, x):
        ran_on.add(threading.current_thread())
        return serial(plan, x)

    def failing_conv2d(inp, *args):
        if inp.shape[1] == 3 and np.array_equal(inp[0], x[3]):
            raise ShapeError("image 3 fails")
        return real_conv2d(inp, *args)

    force_workers(monkeypatch, workers)
    monkeypatch.setattr(model_mod, "_execute", recording)
    before = threading.active_count()
    forward(graph, store, x)
    assert threading.active_count() == before
    monkeypatch.setattr(model_mod, "conv2d", failing_conv2d)
    with pytest.raises(ShapeError, match="image 3 fails"):
        forward(graph, store, x)
    assert threading.active_count() == before
    ran_on.discard(threading.current_thread())
    assert ran_on and not any(t.is_alive() for t in ran_on)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("var", BLAS_VARS)
@pytest.mark.parametrize("value, cpus, expected", [
    (None, 4, 1),  # unset: BLAS takes every CPU
    ("1", 4, 4),
    ("2", 4, 2),
    ("0", 4, 1),   # not a positive count: as if unset
    ("abc", 4, 1),
    ("1", 1, 1),
    ("2", 1, 1),
])
def test_worker_rule(var, value, cpus, expected, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for v in BLAS_VARS:
        monkeypatch.delenv(v, raising=False)
    if value is not None:
        monkeypatch.setenv(var, value)
    assert model_mod._workers() == expected


def test_worker_rule_takes_the_first_positive_count_and_any_cpu_count(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert model_mod._workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert model_mod._workers() == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
@pytest.mark.parametrize("workers", [2, 3])
def test_forked_child_runs_a_batch(model, workers, monkeypatch):
    """The parent's pool threads do not exist in a forked child, so the child
    must start its own pool rather than wait for them."""
    graph, store = model
    force_workers(monkeypatch, workers)
    x = images(2, 12)
    expected = forward(graph, store, x).tobytes()  # the pool now exists

    def child():
        sys.exit(0 if forward(graph, store, x).tobytes() == expected else 3)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    try:
        proc.join(60)
        assert proc.exitcode == 0, "the child hung" if proc.exitcode is None else proc.exitcode
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
