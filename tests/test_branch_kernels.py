"""Training-form RepSO and RefCO kernels: bits and purity.

``repso_forward`` normalizes each branch and adds it into the running sum
in place, walking all branches in one tiled pass. ``refco_forward`` writes
all branches' stage products in one stacked matmul per block and sums them,
each times its BN scale, in one einsum, then adds the stage's summed BN
shift once. These tests pin both bitwise to the out-of-place per-branch
composition in ``reference_kernels``, RefCO also across its blocks, and
check that no array the caller owns is written. ``forward`` runs every step
under a small ufunc buffer and restores the caller's size; a kernel called
directly runs at the caller's size, and gives the same bits under either.
"""

import hashlib
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import falconnet.model as model_mod
from falconnet import (BnParams, ConvSpec, RepSOConfig, SFConvSpec, ShapeError,
                       admissible_kernel_sizes, build_model, conv2d, forward, fuse_model,
                       init_weights, merge_refco, preset_config, random_refco_branches,
                       random_repso_weights, refco_forward, repso_forward, sfconv_forward)
from falconnet import channel, ops
from falconnet.model import PRESET_NAMES
from reference_kernels import conv2d_per_tap, refco_per_branch, repso_per_branch


@st.composite
def repso_cases(draw):
    cfg = RepSOConfig(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                      *(draw(st.booleans()) for _ in range(4)))
    n, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return cfg, n, h, w, draw(st.integers(0, 2**32 - 1))


def _repso_inputs(cfg, n, h, w, seed):
    rng = np.random.default_rng(seed)
    weights = random_repso_weights(cfg, rng, beta_range=(-3, 3), mean_range=(-3, 3),
                                   var_range=(0.01, 10.0))
    x = rng.standard_normal((n, cfg.channels, h, w)).astype(np.float32)
    return x, weights


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(repso_cases())
def test_repso_bitwise_equals_per_branch_sum(case):
    cfg, n, h, w, seed = case
    x, weights = _repso_inputs(cfg, n, h, w, seed)
    got = repso_forward(x, weights, cfg)
    ref = repso_per_branch(x, weights, cfg)
    assert got.dtype == np.float32 and got.shape == ref.shape == x.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("channels, n, h, w", [(96, 2, 30, 34), (1536, 1, 7, 7)])
def test_repso_bitwise_across_row_tiles(channels, n, h, w):
    # Several row tiles, the last one partial.
    cfg = RepSOConfig(channels)
    x, weights = _repso_inputs(cfg, n, h, w, 7)
    assert repso_forward(x, weights, cfg).tobytes() == \
        repso_per_branch(x, weights, cfg).tobytes()


@pytest.mark.parametrize("channels, n, h, w, channels_last", [
    (768, 2, 14, 14, True), (384, 1, 21, 21, True), (24, 2, 52, 54, False),
    (384, 1, 28, 28, False)])
def test_repso_bitwise_in_both_layouts(channels, n, h, w, channels_last):
    # RepSO walks the layout that conv2d picks for its 3x3 grid.
    cfg = RepSOConfig(channels)
    x, weights = _repso_inputs(cfg, n, h, w, 6)
    grid = ConvSpec(channels, channels, 3, 3, 1, 1, 1, 1, groups=channels)
    assert ops._plane_taps(x, grid, h, w).channels_last == channels_last
    assert repso_forward(x, weights, cfg).tobytes() == \
        repso_per_branch(x, weights, cfg).tobytes()


def test_nchw_tiles_bitwise_with_a_partial_last_tile():
    # 40 channels of 56x58 planes walk NCHW tiles of 19, 19 and 2 channels,
    # each summed by one einsum per branch; a depthwise conv2d and the
    # 7-branch RepSO keep their per-tap bits across them, at batch 2.
    cfg = RepSOConfig(40)
    x, weights = _repso_inputs(cfg, 2, 56, 58, 11)
    grid = ConvSpec(40, 40, 3, 3, 1, 1, 1, 1, groups=40, has_bias=True)
    planes = ops._plane_taps(x, grid, 56, 58)
    tile = planes.grid.shape[2]
    assert not planes.channels_last and 2 * tile < 40 < 3 * tile
    assert cfg.branch_count == 7
    assert repso_forward(x, weights, cfg).tobytes() == \
        repso_per_branch(x, weights, cfg).tobytes()
    w, b = weights.branches[0].kernel, weights.branches[0].bn.beta
    assert conv2d(x, w, b, grid).tobytes() == conv2d_per_tap(x, w, b, grid).tobytes()


def test_repso_nchw_rows_on_small_planes(monkeypatch):
    monkeypatch.setattr(ops, "_CL_PLANE_FLOATS", 0)
    for cfg in (RepSOConfig(3), RepSOConfig(2, 1, False, True, False, True)):
        for n, h, w in ((1, 1, 1), (2, 4, 7), (3, 6, 3)):
            x, weights = _repso_inputs(cfg, n, h, w, h * w)
            assert repso_forward(x, weights, cfg).tobytes() == \
                repso_per_branch(x, weights, cfg).tobytes()


@pytest.mark.parametrize("cfg", [
    RepSOConfig(2),                                     # every kind at once
    RepSOConfig(2, 1, False, False, False, False),      # 3x3 alone
    RepSOConfig(2, 1, True, False, False, False),       # ... with 1x3
    RepSOConfig(2, 1, False, True, False, False),       # ... with 3x1
    RepSOConfig(2, 1, False, False, True, False),       # ... with 1x1
    RepSOConfig(2, 1, False, False, False, True),       # ... with identity
])
def test_repso_bitwise_channels_last_at_two_channels(cfg):
    # Two channels is the fewest that RepSO walks channels-last, where each
    # branch's taps are summed in one einsum.
    grid = ConvSpec(2, 2, 3, 3, 1, 1, 1, 1, groups=2)
    for n, h, w in ((1, 1, 1), (2, 1, 9), (1, 9, 1), (3, 5, 7), (2, 9, 9)):
        x, weights = _repso_inputs(cfg, n, h, w, h * 10 + w)
        assert ops._plane_taps(x, grid, h, w).channels_last
        assert repso_forward(x, weights, cfg).tobytes() == \
            repso_per_branch(x, weights, cfg).tobytes()


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("channels, h, w", [(24, 14, 14), (8, 52, 53)])
def test_repso_gives_each_image_its_bits_alone(channels, n, h, w):
    # The batch is walked one image at a time, in either layout, so an
    # image's output does not depend on the batch it arrives in.
    cfg = RepSOConfig(channels)
    x, weights = _repso_inputs(cfg, n, h, w, 5)
    y = repso_forward(x, weights, cfg)
    for r in range(n):
        assert y[r].tobytes() == repso_forward(x[r:r + 1], weights, cfg)[0].tobytes()


@pytest.mark.parametrize("h, w", [(7, 7), (52, 54)])
def test_repso_empty_batch(h, w):
    cfg = RepSOConfig(4)
    x, weights = _repso_inputs(cfg, 0, h, w, 2)
    got = repso_forward(x, weights, cfg)
    assert got.shape == x.shape
    assert got.tobytes() == repso_per_branch(x, weights, cfg).tobytes()


@st.composite
def refco_cases(draw):
    """A valid SFConvSpec; about a third of them have one window (K == C)."""
    while True:
        c_in = draw(st.integers(1, 32))
        reduction = draw(st.sampled_from([1, 2, 4]))
        c_out = c_in * draw(st.sampled_from([1, 2, 3, 6]))
        sizes = admissible_kernel_sizes(c_in, c_out, reduction)
        if sizes:
            break
    one_window = c_in in sizes and draw(st.integers(0, 2)) == 0
    kernel = c_in if one_window else draw(st.sampled_from(sizes))
    spec = SFConvSpec(c_in, c_out, kernel, reduction)
    n, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return spec, n, h, w, draw(st.integers(0, 2**32 - 1))


def _refco_inputs(spec, n, h, w, seed):
    rng = np.random.default_rng(seed)
    b1, b2 = random_refco_branches(spec, rng, beta_range=(-3, 3), mean_range=(-3, 3),
                                   var_range=(0.01, 10.0))
    x = rng.standard_normal((n, spec.c_in, h, w)).astype(np.float32)
    return x, b1, b2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(refco_cases())
def test_refco_bitwise_equals_per_branch_sum(case):
    spec, n, h, w, seed = case
    x, b1, b2 = _refco_inputs(spec, n, h, w, seed)
    got = refco_forward(x, spec, b1, b2)
    ref = refco_per_branch(x, spec, b1, b2)
    assert got.dtype == np.float32 and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_refco_empty_batch():
    spec = SFConvSpec(8, 16, 4, 2)
    x, b1, b2 = _refco_inputs(spec, 0, 5, 5, 3)
    got = refco_forward(x, spec, b1, b2)
    assert got.shape == (0, 16, 5, 5)
    assert got.tobytes() == refco_per_branch(x, spec, b1, b2).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(refco_cases(), st.integers(1, 64))
def test_refco_bitwise_across_small_blocks(case, tile):
    # A block of at most `tile` floats: most stages split into several
    # blocks, the last one often partial.
    spec, n, h, w, seed = case
    x, b1, b2 = _refco_inputs(spec, n, h, w, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_TILE_FLOATS", tile)
        got = refco_forward(x, spec, b1, b2)
    assert got.tobytes() == refco_per_branch(x, spec, b1, b2).tobytes()


# At 56x56 a stage-2 block of the first spec is one hidden channel of its
# 8, and stage 1 of the second walks its 24 windows 5 at a time for one
# image and one at a time for three.
BLOCKED_SPECS = [SFConvSpec(32, 192, 16), SFConvSpec(192, 32, 8)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("spec", BLOCKED_SPECS)
def test_refco_bitwise_across_blocks(spec, n):
    x, b1, b2 = _refco_inputs(spec, n, 56, 56, 6)
    assert refco_forward(x, spec, b1, b2).tobytes() == \
        refco_per_branch(x, spec, b1, b2).tobytes()


@pytest.mark.parametrize("spec", [SFConvSpec(8, 16, 4, 2), *BLOCKED_SPECS])
def test_refco_signed_zero_sums(spec):
    # A zero input and gamma -1 give each branch scaled products of either
    # sign of zero. RefCO sums them from +0.0, where the per-branch sum
    # starts at the first branch's product; the summed shift, beta - mean *
    # s = +0.0, makes both sums +0.0.
    rng = np.random.default_rng(4)
    b1, b2 = random_refco_branches(spec, rng, gamma_range=(-1, -1), beta_range=(0, 0),
                                   mean_range=(0, 0))
    x = np.zeros((2, spec.c_in, 7, 7), np.float32)
    got = refco_forward(x, spec, b1, b2)
    assert got.tobytes() == refco_per_branch(x, spec, b1, b2).tobytes()
    assert not np.signbit(got).any()


@pytest.mark.parametrize("spec", BLOCKED_SPECS)
def test_refco_gives_each_image_its_bits_alone(spec):
    # A batch of three takes other blocks than one image does, but the same
    # BLAS product per image and stacked index.
    x, b1, b2 = _refco_inputs(spec, 3, 56, 56, 5)
    y = refco_forward(x, spec, b1, b2)
    for r in range(3):
        assert y[r].tobytes() == refco_forward(x[r:r + 1], spec, b1, b2)[0].tobytes()


def test_refco_blocks_walk_the_stacked_axis(monkeypatch):
    # One 2x2 image: a window's stage-1 products are 5 branches x 3 hidden
    # channels x 4 pixels, 60 floats, and a hidden channel's stage-2 products
    # 6 branches x 4 outputs x 4 pixels, 96. Blocks of 200 floats take the 5
    # windows 3 and 2 at a time and the 3 hidden channels 2 and 1 at a time,
    # one stage call per block for all branches at once.
    spec = SFConvSpec(30, 12, 6, 2)
    x, b1, b2 = _refco_inputs(spec, 1, 2, 2, 3)
    ref = refco_per_branch(x, spec, b1, b2)
    sizes = {"_stage1": [], "_stage2": []}
    for name in sizes:
        def record(a, w, out=None, name=name, stage=getattr(channel, name)):
            sizes[name].append((len(w), a.shape[1]))
            return stage(a, w, out)
        monkeypatch.setattr(channel, name, record)
    monkeypatch.setattr(ops, "_TILE_FLOATS", 200)
    assert refco_forward(x, spec, b1, b2).tobytes() == ref.tobytes()
    assert sizes == {"_stage1": [(5, 3), (5, 2)], "_stage2": [(6, 2), (6, 1)]}


@pytest.fixture
def caller_bufsize():
    """A ufunc buffer size of the caller's own, restored after the test."""
    old = np.setbufsize(4096)
    try:
        yield 4096
    finally:
        np.setbufsize(old)


def _small_falconnet():
    """A fresh train-form graph and store, whose plans are not yet compiled,
    with the fused form: RefCO and RepSO in one, SF-Conv and the grouped
    stem conv in the other."""
    graph = build_model(replace(preset_config("falconnet"), input_resolution=32))
    store = init_weights(graph, seed=1)
    return (graph, store), fuse_model(graph, store)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_step_of_forward_runs_under_the_small_buffer(caller_bufsize, workers,
                                                           monkeypatch):
    # The buffer size is per thread: each image thread must set its own.
    compile_plan = model_mod._compile
    seen = []

    def recording(fn):
        def step(*args):
            seen.append((np.getbufsize(), threading.get_ident()))
            return fn(*args)
        return step

    monkeypatch.setattr(model_mod, "_compile", lambda nodes, store: tuple(
        s if s.fn is None else s._replace(fn=recording(s.fn))
        for s in compile_plan(nodes, store)))
    monkeypatch.setattr(model_mod, "_workers", lambda: workers)
    x = np.random.default_rng(3).standard_normal((3, 3, 32, 32)).astype(np.float32)
    for g, s in _small_falconnet():
        seen.clear()
        forward(g, s, x)
        steps = sum(step.fn is not None for step in model_mod._plan(g, s))
        assert len(seen) == steps * (1 if workers == 1 else len(x))  # one run per image
        assert {size for size, _ in seen} == {model_mod._UFUNC_BUFSIZE}
        on_caller = {thread == threading.get_ident() for _, thread in seen}
        assert on_caller == ({True} if workers == 1 else {False})
        assert np.getbufsize() == caller_bufsize


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_step_restores_the_callers_buffer(caller_bufsize, workers, monkeypatch):
    # The third conv2d call on each thread raises, mid-plan, in either form.
    real_conv2d, local = model_mod.conv2d, threading.local()
    sizes = []

    def failing_conv2d(inp, *args):
        local.calls = getattr(local, "calls", 0) + 1
        sizes.append(np.getbufsize())
        if local.calls == 3:
            raise ShapeError("conv2d failed")
        return real_conv2d(inp, *args)

    monkeypatch.setattr(model_mod, "conv2d", failing_conv2d)
    monkeypatch.setattr(model_mod, "_workers", lambda: workers)
    x = np.random.default_rng(4).standard_normal((3, 3, 32, 32)).astype(np.float32)
    for g, s in _small_falconnet():
        sizes.clear()
        local.calls = 0
        with pytest.raises(ShapeError, match=r": conv2d failed$"):
            forward(g, s, x)
        assert sizes and set(sizes) == {model_mod._UFUNC_BUFSIZE}
        assert np.getbufsize() == caller_bufsize


def test_direct_kernel_calls_keep_the_callers_buffer(caller_bufsize, monkeypatch):
    # Outside forward, a kernel runs at whatever buffer size its caller set.
    sizes = []
    for name in ("_stage1", "_stage2"):
        def record(*args, stage=getattr(channel, name)):
            sizes.append(np.getbufsize())
            return stage(*args)
        monkeypatch.setattr(channel, name, record)
    spec = SFConvSpec(24, 12, 6, 2)
    x, b1, b2 = _refco_inputs(spec, 2, 3, 3, 2)
    refco_forward(x, spec, b1, b2)
    sfconv_forward(x, spec, merge_refco(spec, b1, b2))
    assert len(sizes) == 4 and set(sizes) == {caller_bufsize}
    assert np.getbufsize() == caller_bufsize


@pytest.mark.parametrize("bufsize", [1024, 8192])
def test_kernels_keep_their_reference_bits_under_either_buffer(bufsize):
    # forward runs every kernel under model._UFUNC_BUFSIZE, a direct call
    # runs under its caller's size, numpy's default 8192 unless set. Both
    # layouts of the branch sum, several RepSO row tiles, RefCO blocks.
    rng = np.random.default_rng(9)
    runs = []
    for c, n, h, w, stride in ((24, 2, 14, 14, 1), (8, 1, 52, 53, 1), (32, 1, 112, 112, 1),
                               (16, 2, 15, 15, 2)):
        spec = ConvSpec(c, c, 3, 3, stride, stride, 1, 1, groups=c, has_bias=True)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(c).astype(np.float32)
        runs.append((partial(conv2d, x, wt, b, spec), partial(conv2d_per_tap, x, wt, b, spec)))
    for cfg, n, h, w in ((RepSOConfig(768), 1, 14, 14), (RepSOConfig(24), 2, 52, 54),
                         (RepSOConfig(96), 2, 30, 34)):
        x, weights = _repso_inputs(cfg, n, h, w, 7)
        runs.append((partial(repso_forward, x, weights, cfg),
                     partial(repso_per_branch, x, weights, cfg)))
    for spec, n, h, w in ((SFConvSpec(64, 128, 8, 2), 2, 28, 28),
                          (SFConvSpec(30, 12, 6, 2), 3, 5, 7)):
        x, b1, b2 = _refco_inputs(spec, n, h, w, 5)
        runs.append((partial(refco_forward, x, spec, b1, b2),
                     partial(refco_per_branch, x, spec, b1, b2)))
    refs = [ref().tobytes() for _, ref in runs]
    old = np.setbufsize(bufsize)
    try:
        got = [kernel().tobytes() for kernel, _ in runs]
    finally:
        np.setbufsize(old)
    assert got == refs


def test_batched_forward_restores_the_callers_ufunc_buffer(caller_bufsize, monkeypatch):
    # One BLAS thread: forward runs the images on threads of its own where
    # there are two CPUs or more. Both forms: RefCO and RepSO in the train
    # form, SF-Conv and the grouped stem conv in the fused one.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    graph = build_model(replace(preset_config("falconnet"), input_resolution=32))
    store = init_weights(graph, seed=1)
    x = np.random.default_rng(3).standard_normal((3, 3, 32, 32)).astype(np.float32)
    for g, s in ((graph, store), fuse_model(graph, store)):
        forward(g, s, x)
        assert np.getbufsize() == caller_bufsize


def _digests(arrays):
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays]


def _bn_arrays(bn: BnParams):
    return [bn.gamma, bn.beta, bn.mean, bn.var]


@pytest.mark.parametrize("cfg", [
    RepSOConfig(3),
    RepSOConfig(2, n_parallel_3x3=1, include_1x3=False, include_3x1=False,
                include_1x1=False, include_identity=False),
    RepSOConfig(2, n_parallel_3x3=1, include_1x3=False, include_3x1=False,
                include_1x1=False),
])
def test_repso_writes_no_caller_array(cfg):
    # branch_kinds() always opens with a 3x3 branch, so identity is never the
    # first branch; the last case has identity as its second and last branch.
    x, weights = _repso_inputs(cfg, 2, 5, 6, 3)
    owned = [x] + [a for br in weights.branches
                   for a in ([] if br.kernel is None else [br.kernel]) + _bn_arrays(br.bn)]
    before = _digests(owned)
    out = repso_forward(x, weights, cfg)
    assert _digests(owned) == before
    assert not any(np.shares_memory(out, a) for a in owned)


@pytest.mark.parametrize("spec", [SFConvSpec(8, 16, 4, 2), SFConvSpec(4, 4, 4, 2),
                                  SFConvSpec(1, 3, 1, 1)])
def test_refco_writes_no_caller_array(spec):
    x, b1, b2 = _refco_inputs(spec, 2, 3, 4, 4)
    owned = [x] + [a for br in b1 + b2 for a in [br.weight] + _bn_arrays(br.bn)]
    before = _digests(owned)
    out = refco_forward(x, spec, b1, b2)
    assert _digests(owned) == before
    assert not any(np.shares_memory(out, a) for a in owned)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_forward_writes_no_input_or_store_array(preset):
    graph = build_model(replace(preset_config(preset), input_resolution=32))
    store = init_weights(graph, seed=2)
    fused = fuse_model(graph, store)
    x = np.random.default_rng(8).standard_normal((2, 3, 32, 32)).astype(np.float32)
    for g, s in ((graph, store), fused):
        owned = [x] + [a for _, a in s.items()]
        before = _digests(owned)
        forward(g, s, x)
        assert _digests(owned) == before
