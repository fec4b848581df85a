"""Factorized pointwise convolution and receptive-range tests."""

import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from falconnet import (BnParams, ChannelPattern, RefCOBranch, SFConvSpec, SFConvWeights,
                       ShapeError, admissible_kernel_sizes, choose_kernel_size, preset_config,
                       random_refco_branches, receptive_range, refco_forward, save_config,
                       sfconv_forward, sfconv_param_count)
from falconnet.model import RefCONode
from reference_kernels import receptive_range_loops


def random_valid_spec(rng, c_max=64):
    """Rejection-sample a valid spec with random admissible kernel size."""
    while True:
        c_in = int(rng.integers(1, c_max + 1))
        reduction = int(rng.choice([1, 2, 4]))
        mult = int(rng.choice([1, 2, 3, 4, 6]))
        c_out = c_in * mult
        sizes = admissible_kernel_sizes(c_in, c_out, reduction)
        if sizes:
            return SFConvSpec(c_in, c_out, int(rng.choice(sizes)), reduction)


class TestKernelSizeChoice:
    def test_expand_case(self):
        assert choose_kernel_size(64, 384, 2) == 32
        costs = {k: 64 * k // 2 + 384 * 64 // k for k in admissible_kernel_sizes(64, 384, 2)}
        assert costs[32] == 1792 and costs[16] == 2048 and costs[64] == 2432

    def test_tie_breaks_to_smaller(self):
        assert choose_kernel_size(4, 4, 2) == 2
        assert sfconv_param_count(SFConvSpec(4, 4, 2, 2)) == 12
        assert sfconv_param_count(SFConvSpec(4, 4, 4, 2)) == 12

    def test_no_admissible_size(self):
        with pytest.raises(ValueError, match="no admissible"):
            choose_kernel_size(3, 6, 2)

    @pytest.mark.parametrize("reduction", range(1, 9))
    def test_sizes_equal_the_linear_scan(self, reduction):
        # Each candidate K from 1 to c_in in turn, as the sizes were first found.
        for c_in in range(1, 257):
            divisors = [k for k in range(1, c_in + 1) if c_in % k == 0]
            for c_out in range(1, 257):
                assert admissible_kernel_sizes(c_in, c_out, reduction) == [
                    k for k in divisors if k % reduction == 0 and c_out % (k // reduction) == 0]

    def test_summarize_at_a_huge_stem_width(self, tmp_path):
        # A linear scan of the window lengths took 15 s at 2**20 channels, and
        # would take hours at 2**30.
        widths = tuple(2**30 << i for i in range(4))
        cfg_path = tmp_path / "wide.json"
        save_config(replace(preset_config("falconnet"), stem_channels=widths[0],
                            stage_channels=widths), cfg_path)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-m", "falconnet", "summarize", "--config",
                              str(cfg_path)], capture_output=True, env=env, timeout=30)
        assert run.returncode == 0, run.stderr
        assert b"total\t" in run.stdout

    def test_optimal_over_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c_in = int(rng.integers(1, 129))
            c_out = int(rng.integers(1, 129)) * int(rng.choice([1, 2, 4]))
            r = int(rng.choice([1, 2, 3, 4]))
            sizes = admissible_kernel_sizes(c_in, c_out, r)
            if not sizes:
                continue
            best = choose_kernel_size(c_in, c_out, r)
            cost = lambda k: c_in * k // r + c_out * c_in // k
            assert all(cost(best) <= cost(k) for k in sizes)
            assert all(best <= k for k in sizes if cost(k) == cost(best))


class TestParamCount:
    def test_expand_example(self):
        spec = SFConvSpec(64, 384, 32, 2)
        assert sfconv_param_count(spec) == 1024 + 768 == 1792

    def test_degenerate_single_window(self):
        # One window (C == K) and one hidden channel (R == K).
        spec = SFConvSpec(8, 5, 8, 8)
        assert sfconv_param_count(spec) == 8 + 5

    def test_ratio_close_to_continuous_bound(self):
        spec = SFConvSpec(64, 384, 32, 2)
        dense = 64 * 384
        ratio = sfconv_param_count(spec) / dense
        bound = 2.0 / np.sqrt(6 * 64 * 2)
        assert ratio == pytest.approx(0.07292, abs=1e-4)
        assert bound == pytest.approx(0.07217, abs=1e-4)
        assert abs(ratio - bound) < 0.002

    def test_counted_elements_match_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            spec = random_valid_spec(rng, c_max=256)
            w1 = np.zeros((spec.hidden_channels, spec.windows, spec.kernel), np.float32)
            w2 = np.zeros((spec.c_out, spec.windows), np.float32)
            assert w1.size + w2.size == sfconv_param_count(spec)


def ones_weights(spec):
    return SFConvWeights(spec,
                         np.ones((spec.hidden_channels, spec.windows, spec.kernel), np.float32),
                         np.ones((spec.c_out, spec.windows), np.float32))


class TestSFConvForward:
    def test_all_ones_gives_c_in(self):
        spec = SFConvSpec(16, 24, 4, 2)
        x = np.ones((1, 16, 2, 2), np.float32)
        out = sfconv_forward(x, spec, ones_weights(spec))
        np.testing.assert_array_equal(out, np.full((1, 24, 2, 2), 16.0, np.float32))

    def test_zero_second_stage_zeroes_output(self):
        spec = SFConvSpec(8, 8, 4, 2)
        rng = np.random.default_rng(2)
        w = SFConvWeights(spec, rng.standard_normal((2, 2, 4)).astype(np.float32),
                          np.zeros((8, 2), np.float32))
        x = rng.standard_normal((1, 8, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(sfconv_forward(x, spec, w), np.zeros((1, 8, 3, 3)))

    def test_zeroing_one_window_changes_outputs_linearly(self):
        spec = SFConvSpec(12, 12, 4, 2)
        rng = np.random.default_rng(3)
        w = SFConvWeights(spec, rng.standard_normal((2, 3, 4)).astype(np.float32),
                          rng.standard_normal((12, 3)).astype(np.float32))
        x = rng.standard_normal((1, 12, 2, 2)).astype(np.float32)
        full = sfconv_forward(x, spec, w)
        masked = x.copy()
        masked[:, 4:8] = 0.0  # window p=1
        part = sfconv_forward(masked, spec, w)
        only = x.copy()
        only[:, :4] = 0.0
        only[:, 8:] = 0.0
        np.testing.assert_allclose(full - part, sfconv_forward(only, spec, w), atol=1e-5)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        spec = random_valid_spec(rng)
        w = SFConvWeights(spec,
                          rng.standard_normal((spec.hidden_channels, spec.windows,
                                               spec.kernel)).astype(np.float32),
                          rng.standard_normal((spec.c_out, spec.windows)).astype(np.float32))
        x = rng.standard_normal((1, spec.c_in, 3, 3)).astype(np.float32)
        y = rng.standard_normal((1, spec.c_in, 3, 3)).astype(np.float32)
        a, b = 1.3, -0.7
        lhs = sfconv_forward(a * x + b * y, spec, w)
        rhs = a * sfconv_forward(x, spec, w) + b * sfconv_forward(y, spec, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)

    def test_pixelwise_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        spec = SFConvSpec(8, 16, 4, 2)
        w = SFConvWeights(spec, rng.standard_normal((2, 2, 4)).astype(np.float32),
                          rng.standard_normal((16, 2)).astype(np.float32))
        x = rng.standard_normal((1, 8, 2, 3)).astype(np.float32)
        out = sfconv_forward(x, spec, w)
        flat = x.reshape(1, 8, 6)
        perm = rng.permutation(6)
        xp = flat[:, :, perm].reshape(1, 8, 2, 3)
        outp = sfconv_forward(xp, spec, w)
        np.testing.assert_allclose(outp.reshape(1, 16, 6),
                                   out.reshape(1, 16, 6)[:, :, perm], atol=1e-5)

    def test_channel_mismatch_error(self):
        spec = SFConvSpec(8, 8, 4, 2)
        with pytest.raises(ShapeError, match="channels"):
            sfconv_forward(np.zeros((1, 6, 2, 2), np.float32), spec, ones_weights(spec))


# Both stages run as float32 BLAS products whose summation order is the
# library's choice, so outputs are held to a stated bound against float64:
# max |got - ref| <= REL_TOL * max |ref|, 16 float32 ulps of the largest
# output. Measured worst cases over 300 random specs: 3.7e-7 (SF-Conv) and
# 5.1e-7 (RefCO).
REL_TOL = 16 * float(np.finfo(np.float32).eps)


def _f64(a):
    return np.asarray(a, np.float64)


def _stage1_f64(xw, w1):
    return np.einsum("hpt,nptij->nhpij", _f64(w1), xw)


def _stage2_f64(hidden, w2, spec):
    w2r = _f64(w2).reshape(spec.hidden_channels, spec.width_multiplier, spec.windows)
    n, _, _, h, w = hidden.shape
    return np.einsum("hmp,nhpij->nhmij", w2r, hidden).reshape(n, spec.c_out, h, w)


def _affine_f64(bn):
    s = _f64(bn.gamma) / np.sqrt(_f64(bn.var) + bn.eps)
    return s, _f64(bn.beta) - _f64(bn.mean) * s


def _refco_f64(xw, spec, stages):
    """RefCO in float64 over per-stage ``(w, s, t)`` branch terms: each
    stage sums its branches' outputs times their scales, plus their shifts."""
    hidden = (sum(_stage1_f64(xw, w) * s[:, None, None, None] for w, s, _ in stages[0])
              + sum(t for _, _, t in stages[0])[:, None, None, None])
    return (sum(_stage2_f64(hidden, w, spec) * s[:, None, None] for w, s, _ in stages[1])
            + sum(t for _, _, t in stages[1])[:, None, None])


# A per-element bound for RefCO (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., section 3.1). Take the float32 input, branch weights
# and BN scales and shifts as given: ``exact`` is their composition in
# float64, and ``magnitude`` the same composition over absolute values. A
# hidden value takes a length-K dot product, one scaling and B1 + 1
# additions, counting the stage's summed shift, whose own sum takes B1
# more; stage 2 does the same with C/K and B2 on the rounded hidden values.
# So every output lies within gamma_N * magnitude of ``exact``, with
# N = K + C/K + B1 + B2 + 4, gamma_n = n u / (1 - n u) and u = 2**-24.

def _gamma_n(n):
    u = 2.0 ** -24
    return n * u / (1 - n * u)


def _random_case(rng):
    spec = random_valid_spec(rng)
    n = int(rng.integers(2, 4))
    h, w = (int(v) for v in rng.integers(1, 6, 2))
    x = rng.standard_normal((n, spec.c_in, h, w)).astype(np.float32)
    return spec, x, _f64(x).reshape(n, spec.windows, spec.kernel, h, w)


def _assert_within_rel_tol(got, ref):
    assert got.dtype == np.float32 and got.shape == ref.shape
    assert np.abs(got - ref).max() <= REL_TOL * np.abs(ref).max()


class TestFloat64Reference:
    def test_sfconv_within_bound(self):
        rng = np.random.default_rng(12)
        for i in range(150):
            spec, x, xw = _random_case(rng)
            w1 = rng.standard_normal((spec.hidden_channels, spec.windows, spec.kernel))
            w2 = rng.standard_normal((spec.c_out, spec.windows))
            b1 = rng.standard_normal((spec.hidden_channels, spec.windows)) if i % 2 else None
            b2 = rng.standard_normal(spec.c_out) if i % 4 < 2 else None
            w = SFConvWeights(spec, w1, w2, b1, b2)
            hidden = _stage1_f64(xw, w.w1)
            if b1 is not None:
                hidden += _f64(w.bias1)[None, :, :, None, None]
            ref = _stage2_f64(hidden, w.w2, spec)
            if b2 is not None:
                ref += _f64(w.bias2).reshape(1, -1, 1, 1)
            _assert_within_rel_tol(sfconv_forward(x, spec, w), ref)

    def test_refco_within_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            spec, x, xw = _random_case(rng)
            b1, b2 = random_refco_branches(spec, rng)
            hidden = 0.0
            for br in b1:
                s, t = _affine_f64(br.bn)
                hidden = hidden + (_stage1_f64(xw, br.weight) * s[None, :, None, None, None]
                                   + t[None, :, None, None, None])
            ref = 0.0
            for br in b2:
                s, t = _affine_f64(br.bn)
                ref = ref + (_stage2_f64(hidden, br.weight, spec) * s.reshape(1, -1, 1, 1)
                             + t.reshape(1, -1, 1, 1))
            _assert_within_rel_tol(refco_forward(x, spec, b1, b2), ref)


    def test_refco_within_per_element_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            spec, x, xw = _random_case(rng)
            b1, b2 = random_refco_branches(spec, rng, beta_range=(-3, 3), mean_range=(-3, 3),
                                           var_range=(0.01, 10.0))
            stages = [[(br.weight, *map(_f64, br.bn.scale_shift())) for br in branches]
                      for branches in (b1, b2)]
            exact = _refco_f64(xw, spec, stages)
            magnitude = _refco_f64(np.abs(xw), spec, [[tuple(map(np.abs, term)) for term in stage]
                                                      for stage in stages])
            got = refco_forward(x, spec, b1, b2)
            n = spec.kernel + spec.windows + len(b1) + len(b2) + 4
            assert np.all(np.abs(got - exact) <= _gamma_n(n) * magnitude)


class TestRefCO:
    def test_degenerate_single_branches_equal_sfconv(self):
        # C/K == K == 1 forces C == 1 and one branch per stage.
        spec = SFConvSpec(1, 3, 1, 1)
        rng = np.random.default_rng(6)
        b1, b2 = random_refco_branches(spec, rng)
        b1 = (RefCOBranch(b1[0].weight, BnParams.identity(spec.hidden_channels)),)
        b2 = (RefCOBranch(b2[0].weight, BnParams.identity(spec.c_out)),)
        x = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        fused = SFConvWeights(spec, b1[0].weight, b2[0].weight)
        np.testing.assert_allclose(refco_forward(x, spec, b1, b2),
                                   sfconv_forward(x, spec, fused), atol=1e-6)

    def test_duplicated_stage1_branch_doubles_output(self):
        spec = SFConvSpec(8, 8, 4, 2)
        rng = np.random.default_rng(7)
        w1 = rng.standard_normal((2, 2, 4)).astype(np.float32)
        id1 = BnParams.identity(2)
        stage2 = tuple(RefCOBranch(rng.standard_normal((8, 2)).astype(np.float32),
                                   BnParams.identity(8)) for _ in range(4))
        x = rng.standard_normal((1, 8, 3, 3)).astype(np.float32)
        half = np.zeros((2, 2, 4), np.float32)
        single = refco_forward(x, spec, (RefCOBranch(w1, id1), RefCOBranch(half, id1)),
                               stage2)
        double = refco_forward(x, spec, (RefCOBranch(w1, id1), RefCOBranch(w1, id1)),
                               stage2)
        np.testing.assert_allclose(double, 2 * single, atol=1e-4)

    def test_zero_branch_with_identity_bn_contributes_nothing(self):
        spec = SFConvSpec(8, 16, 4, 2)
        rng = np.random.default_rng(8)
        b1, b2 = random_refco_branches(spec, rng)
        x = rng.standard_normal((1, 8, 2, 2)).astype(np.float32)
        base = refco_forward(x, spec, b1, b2)
        zeroed = b2[:-1] + (RefCOBranch(np.zeros((16, 2), np.float32),
                                        BnParams.identity(16)),)
        muted = b2[:-1] + (RefCOBranch(b2[-1].weight, b2[-1].bn),)
        np.testing.assert_allclose(refco_forward(x, spec, b1, muted), base, atol=0)
        without_last = refco_forward(x, spec, b1, zeroed)
        manual = base - _branch_output(x, spec, b1, b2[-1])
        np.testing.assert_allclose(without_last, manual, atol=1e-5)

    def test_branch_count_is_strict(self):
        spec = SFConvSpec(8, 8, 4, 2)
        rng = np.random.default_rng(9)
        b1, b2 = random_refco_branches(spec, rng)
        with pytest.raises(ShapeError, match="stage 1"):
            refco_forward(np.zeros((1, 8, 2, 2), np.float32), spec, b1[:-1], b2)
        with pytest.raises(ShapeError, match="stage 2"):
            refco_forward(np.zeros((1, 8, 2, 2), np.float32), spec, b1, b2 + b2[:1])

    @pytest.mark.parametrize("poison, error, message", [
        # Entries 5*i to 5*i + 4 are branch i's weight, gamma, beta, mean and
        # var, the two stage-1 branches first; the first failing branch and
        # channel are reported.
        ({24: (7, -5.0), 29: (1, np.nan)}, ValueError, "at channel 7"),
        ({29: (1, np.nan), 4: (1, -1.0)}, ValueError, "at channel 1"),
        ({22: (slice(3), None)}, ShapeError, "BnParams.beta has length 3, expected 16"),
        ({21: (slice(3), None), 22: (slice(3), None), 23: (slice(3), None),
          24: (slice(3), None)},
         ShapeError, "stage-2 branch 2 normalization over 3 channels, expected 16"),
        # Stage 1 is checked whole, weights included, before stage 2's statistics.
        ({0: (slice(1), None), 24: (7, -5.0)}, ShapeError, "stage-1 branch 0 weight shape"),
        # Non-finite statistics, after a stage's variances: the first in
        # branch, then statistic, then channel order.
        ({1: (1, np.nan)}, ValueError, "gamma must be finite, violated at channel 1"),
        ({21: (0, np.nan), 24: (7, -5.0)}, ValueError, "var \\+ eps .* at channel 7"),
        ({3: (1, np.inf), 24: (7, -5.0)}, ValueError, "mean must be finite, violated at channel 1"),
        ({27: (2, np.inf), 23: (5, -np.inf), 22: (9, np.nan)}, ValueError,
         "beta must be finite, violated at channel 9"),
        ({29: (4, np.inf)}, ValueError, "var must be finite, violated at channel 4"),
        # Finite statistics whose scale or shift overflows float32, after
        # every statistic is checked; the node's eps is 1e-5.
        ({21: (3, 3e38), 24: (3, 0.0)}, ValueError, "scale must be finite, violated at channel 3"),
        ({21: (3, 3e38), 24: (3, 0.0), 29: (4, np.inf)}, ValueError,
         "var must be finite, violated at channel 4"),
        ({1: (1, 2.0), 3: (1, 3e38)}, ValueError, "shift must be finite, violated at channel 1"),
    ])
    def test_node_checks_branch_statistics_as_bn_params(self, poison, error, message):
        # A RefCO node sets up each stage's BNs over the stacked statistics,
        # with BnParams' checks, for both its forward and its fuse.
        _bind_and_fuse_raise(RefCONode("r", SFConvSpec(8, 16, 4, 2)), poison, error, message)

    @pytest.mark.parametrize("poison, message", [
        # The failing branch of each stage's BN set-up, with the rows above.
        ({24: (7, -5.0), 29: (1, np.nan)}, "r.s2.2.var + eps must be positive, violated at channel 7"),
        ({29: (1, np.nan), 4: (1, -1.0)}, "r.s1.0.var + eps must be positive, violated at channel 1"),
        ({1: (1, np.nan)}, "r.s1.0.gamma must be finite, violated at channel 1"),
        ({27: (2, np.inf), 23: (5, -np.inf), 22: (9, np.nan)},
         "r.s2.2.beta must be finite, violated at channel 9"),
        ({29: (4, np.inf)}, "r.s2.3.var must be finite, violated at channel 4"),
        ({21: (3, 3e38), 24: (3, 0.0)}, "r.s2.2.scale must be finite, violated at channel 3"),
        ({1: (1, 2.0), 3: (1, 3e38)}, "r.s1.0.shift must be finite, violated at channel 1"),
    ])
    def test_node_value_check_names_the_branch_key(self, poison, message):
        # A failed value check leads with the failing branch's key prefix.
        _bind_and_fuse_raise(RefCONode("r", SFConvSpec(8, 16, 4, 2)), poison, ValueError,
                             f"^{re.escape(message)}$")


def _bind_and_fuse_raise(node, poison, error, message):
    """Set ``poison``'s values (index -> (where, value), or a slice to keep if
    value is None) in ``node``'s all-ones entries, and check that both its
    bind and its fuse raise ``error`` matching ``message``."""
    w = [np.full(e.shape, 1.0, np.float32) for e in node.entries()]
    for i, (at, value) in poison.items():
        if value is None:
            w[i] = w[i][at]
        else:
            w[i][at] = value
    with pytest.raises(error, match=message):
        node.bind(w)
    with pytest.raises(error, match=message):
        node.fuse(w, None)

def _branch_output(x, spec, branches1, stage2_branch):
    """Stage-2 contribution of one branch given the shared fused hidden map."""
    from falconnet.channel import _split_windows, _stage1, _stage2
    from falconnet.ops import batch_norm_infer

    xw = _split_windows(np.asarray(x, np.float32), spec)
    hidden = None
    for br in branches1:
        y = _stage1(xw, br.weight)
        s, t = br.bn.scale_shift()
        y = y * s[None, :, None, None, None] + t[None, :, None, None, None]
        hidden = y if hidden is None else hidden + y
    return batch_norm_infer(_stage2(hidden, stage2_branch.weight), stage2_branch.bn)


def test_weight_shapes_are_the_layout_everywhere():
    # The two stage shapes: SFConvWeights checks them, RefCO branches and
    # graph entries take them, and the parameter count is their size.
    spec = SFConvSpec(12, 18, 6, 2)
    w1, w2 = spec.weight_shapes()
    assert (w1, w2) == ((3, 2, 6), (18, 2))
    assert sfconv_param_count(spec) == 3 * 2 * 6 + 18 * 2
    b1, b2 = random_refco_branches(spec, np.random.default_rng(0))
    assert [br.weight.shape for br in b1 + b2] == [w1] * 2 + [w2] * 6
    assert {e.shape for e in RefCONode("r", spec).entries()} == {w1, w2, (3,), (18,)}
    with pytest.raises(ShapeError, match=re.escape("bias1 shape (2, 3), expected (3, 2)")):
        SFConvWeights(spec, np.zeros(w1), np.zeros(w2), np.zeros((2, 3)))


class TestReceptiveRange:
    def test_dense_full(self):
        np.testing.assert_array_equal(receptive_range(ChannelPattern.dense(8)),
                                      np.full(8, 8))

    def test_group(self):
        np.testing.assert_array_equal(receptive_range(ChannelPattern.group(8, 4)),
                                      np.full(8, 2))

    def test_channel_wise(self):
        np.testing.assert_array_equal(
            receptive_range(ChannelPattern.channel_wise(8, 3)), np.full(8, 3))

    def test_sf_full_range(self):
        spec = SFConvSpec(16, 16, 4, 2)
        np.testing.assert_array_equal(receptive_range(ChannelPattern.sf(spec)),
                                      np.full(16, 16))

    def test_matches_reference_loops(self):
        # Every kind over a fixed sweep, counts and dtype: group and
        # channel-wise with c_out != c_in and with windows that wrap past
        # the last input, SF at reductions 1 to 4 with every admissible K.
        patterns = []
        for c_in in range(1, 13):
            for c_out in range(1, 13):
                patterns.append(ChannelPattern.dense(c_in, c_out))
                patterns += [ChannelPattern.group(c_in, g, c_out) for g in range(1, c_in + 1)
                             if c_in % g == 0 and c_out % g == 0]
                patterns += [ChannelPattern.channel_wise(c_in, k, c_out)
                             for k in range(1, c_in + 1)]
        for c_in in range(1, 33):
            for c_out in {c_in, 2 * c_in, 3 * c_in, 6 * c_in, max(1, c_in // 2)}:
                patterns += [ChannelPattern.sf(SFConvSpec(c_in, c_out, k, r))
                             for r in (1, 2, 3, 4) for k in admissible_kernel_sizes(c_in, c_out, r)]
        kinds = {p.kind for p in patterns}
        assert kinds == {"dense", "group", "channel_wise", "sf"}
        assert any(p.kind == "group" and p.c_out != p.c_in and p.groups > 1 for p in patterns)
        assert any(p.kind == "channel_wise" and p.c_out != p.c_in
                   and (p.c_out - 1) * p.c_in // p.c_out + p.window > p.c_in for p in patterns)
        assert {p.spec.reduction for p in patterns if p.kind == "sf"} == {1, 2, 3, 4}
        for p in patterns:
            got, want = receptive_range(p), receptive_range_loops(p)
            assert got.dtype == want.dtype, p
            np.testing.assert_array_equal(got, want, err_msg=str(p))

    def test_sf_range_at_a_huge_width(self):
        # The boolean product of the two stages' rules took 54 s at 8192
        # channels and grows with the cube of the width.
        c = 2**16
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-m", "falconnet", "analyze-range", "--kind", "sf",
                              "--c-in", str(c)], capture_output=True, env=env, timeout=30)
        assert run.returncode == 0, run.stderr
        assert run.stdout.endswith(f"summary\tmin\t{c}\tmax\t{c}\tmean\t{c}.00\n".encode())

    @pytest.mark.parametrize("args, count", [
        (["--kind", "dense"], 2**16),
        (["--kind", "group", "--groups", "2"], 2**15),
        (["--kind", "channelwise", "--window", "3"], 3),
    ], ids=["dense", "group", "channelwise"])
    def test_every_kind_answers_at_a_huge_width(self, args, count):
        # Under a 1 GiB address space, so a kind that builds its (c_out, c_in)
        # matrix, 4 to 32 GiB at this width, fails at once with MemoryError.
        if not hasattr(pytest.importorskip("resource"), "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")
        c = 2**16
        child = ("import resource, runpy, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                 "sys.argv = ['falconnet', *sys.argv[1:]]; "
                 "runpy.run_module('falconnet', run_name='__main__')")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", child, "analyze-range", "--c-in", str(c),
                              *args], capture_output=True, env=env, timeout=30)
        assert run.returncode == 0, run.stderr
        assert run.stdout.endswith(
            f"summary\tmin\t{count}\tmax\t{count}\tmean\t{count}.00\n".encode())

    def test_pattern_validation(self):
        with pytest.raises(ShapeError):
            ChannelPattern.group(8, 3)
        with pytest.raises(ShapeError):
            ChannelPattern.channel_wise(8, 9)
        with pytest.raises(ShapeError):
            ChannelPattern("sf", 8, 8)


def _sf_weights_with_bias2(length):
    spec = SFConvSpec(8, 8, 4)
    w1, w2 = spec.weight_shapes()
    return SFConvWeights(spec, np.zeros(w1), np.zeros(w2), bias2=np.zeros(length))


@pytest.mark.parametrize("call, message", [
    (lambda: SFConvSpec(0, 4, 2), "SFConvSpec.c_in must be positive, got 0"),
    (lambda: SFConvSpec(8, 8, 4, 0), "SFConvSpec.reduction must be positive, got 0"),
    (lambda: SFConvSpec(6, 4, 4), "kernel=4 does not divide c_in=6"),
    (lambda: SFConvSpec(8, 8, 4, 3), "reduction=3 does not divide kernel=4"),
    (lambda: SFConvSpec(8, 3, 4, 2), "hidden width 4/2 does not divide c_out=3"),
    (lambda: ChannelPattern("dense", 0, 4), "ChannelPattern extents must be positive"),
    (lambda: ChannelPattern("group", 8, 6, groups=4), "groups=4 must divide c_in=8 and c_out=6"),
    (lambda: ChannelPattern("group", 8, 8), "groups=None must divide c_in=8 and c_out=8"),
    (lambda: ChannelPattern("channel_wise", 8, 8, window=0),
     "window=0 must satisfy 1 <= window <= c_in=8"),
    (lambda: ChannelPattern("sf", 8, 8), "sf pattern requires an SFConvSpec"),
    (lambda: ChannelPattern("sf", 8, 4, spec=SFConvSpec(8, 8, 4)),
     "sf pattern extents disagree with its SFConvSpec"),
    (lambda: ChannelPattern("banded", 8, 8), "unknown pattern kind 'banded'"),
    (lambda: _sf_weights_with_bias2(5), "bias2 length 5, expected 8"),
], ids=["sf-c-in", "sf-reduction", "sf-kernel", "sf-reduction-divides", "sf-hidden-width",
        "pattern-extents", "pattern-groups", "pattern-no-groups", "pattern-window",
        "pattern-sf-no-spec", "pattern-sf-extents", "pattern-kind", "sf-bias2"])
def test_invalid_argument_is_shape_error(call, message):
    with pytest.raises(ShapeError) as e:
        call()
    assert str(e.value) == message
