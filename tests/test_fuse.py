"""Reparameterization tests: normalization folding, branch merging,
and the empirical equivalence verifier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falconnet import (BnParams, ConvSpec, RefCOBranch, RepSOBranch, RepSOConfig,
                       RepSOWeights, SFConvSpec, ShapeError, admissible_kernel_sizes,
                       conv2d, batch_norm_infer, fuse_bn_into_linear, merge_refco,
                       merge_repso, pad_kernel_to_3x3, random_refco_branches,
                       random_repso_weights, refco_forward, repso_forward,
                       sfconv_forward, sfconv_param_count, verify_equivalence)
from falconnet.spatial import branch_kernel_shape
from reference_kernels import merge_repso_per_branch


class TestBnFolding:
    def test_identity_bn_leaves_weights_alone(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        w2, b2 = fuse_bn_into_linear(w, None, BnParams.identity(3))
        np.testing.assert_array_equal(w2, w)
        np.testing.assert_array_equal(b2, np.zeros(3, np.float32))

    def test_hand_case_and_conv_identity(self):
        bn = BnParams([3.0], [5.0], [1.0], [4.0], eps=0.0)
        w = np.full((1, 1, 1, 1), 2.0, np.float32)
        w2, b2 = fuse_bn_into_linear(w, np.zeros(1), bn)
        assert w2[0, 0, 0, 0] == pytest.approx(3.0)
        assert b2[0] == pytest.approx(3.5)
        spec = ConvSpec(1, 1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
            lhs = batch_norm_infer(conv2d(x, w, None, spec), bn)
            rhs = conv2d(x, w2, b2, ConvSpec(1, 1, has_bias=True))
            np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_zero_weight_leaves_pure_shift(self):
        bn = BnParams([2.0], [0.5], [3.0], [0.25], eps=0.0)
        w2, b2 = fuse_bn_into_linear(np.zeros((1, 1, 3, 3), np.float32), None, bn)
        np.testing.assert_array_equal(w2, np.zeros((1, 1, 3, 3)))
        assert b2[0] == pytest.approx(0.5 - 3.0 * 2.0 / 0.5)

    def test_folding_identity_over_wide_stats(self):
        rng = np.random.default_rng(2)
        spec = ConvSpec(4, 6, 3, 3, 1, 1, 1, 1)
        for _ in range(20):
            w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
            bn = BnParams.random(6, rng, gamma_range=(-2, 2), var_range=(0.1, 10.0))
            w2, b2 = fuse_bn_into_linear(w, None, bn)
            x = rng.uniform(-3, 3, (1, 4, 5, 5)).astype(np.float32)
            lhs = batch_norm_infer(conv2d(x, w, None, spec), bn)
            rhs = conv2d(x, w2, b2, spec)
            np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            fuse_bn_into_linear(np.zeros((2, 1, 1, 1)), None, BnParams.identity(3))


class TestPadKernel:
    def test_one_by_one_lands_center(self):
        k = np.array([[[[5.0]]]], np.float32)
        out = pad_kernel_to_3x3(k, "1x1", 1)
        assert out[0, 0, 1, 1] == 5.0 and out.sum() == 5.0

    def test_identity_two_channels(self):
        out = pad_kernel_to_3x3(None, "identity", 2)
        assert out.shape == (2, 1, 3, 3)
        for c in range(2):
            assert out[c, 0, 1, 1] == 1.0
        assert out.sum() == 2.0

    def test_row_kernel_lands_middle_row(self):
        k = np.array([1.0, 2.0, 3.0], np.float32).reshape(1, 1, 1, 3)
        out = pad_kernel_to_3x3(k, "1x3", 1)
        np.testing.assert_array_equal(out[0, 0, 1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out[0, 0, 0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out[0, 0, 2], [0.0, 0.0, 0.0])

    def test_column_kernel_lands_middle_column(self):
        k = np.array([1.0, 2.0, 3.0], np.float32).reshape(1, 1, 3, 1)
        out = pad_kernel_to_3x3(k, "3x1", 1)
        np.testing.assert_array_equal(out[0, 0, :, 1], [1.0, 2.0, 3.0])

    def test_kind_mismatch(self):
        with pytest.raises(ShapeError):
            pad_kernel_to_3x3(np.zeros((1, 1, 1, 3), np.float32), "3x1", 1)
        with pytest.raises(ShapeError):
            pad_kernel_to_3x3(np.zeros((1, 1, 1, 1), np.float32), "identity", 1)

    def test_unknown_kind(self):
        with pytest.raises(ShapeError, match="unknown branch kind '5x5'"):
            pad_kernel_to_3x3(np.zeros((1, 1, 5, 5), np.float32), "5x5", 1)


class TestMergeRepSO:
    def test_single_branch_passthrough(self):
        cfg = RepSOConfig(2, n_parallel_3x3=1, include_1x3=False, include_3x1=False,
                          include_1x1=False, include_identity=False)
        rng = np.random.default_rng(3)
        w = random_repso_weights(cfg, rng)
        from falconnet import RepSOBranch, RepSOWeights
        w = RepSOWeights((RepSOBranch("3x3", w.branches[0].kernel, BnParams.identity(2)),))
        fused = merge_repso(w, cfg)
        np.testing.assert_array_equal(fused.kernel, w.branches[0].kernel)
        np.testing.assert_array_equal(fused.bias, np.zeros(2, np.float32))

    def test_two_all_ones_branches_sum(self):
        from falconnet import RepSOBranch, RepSOWeights
        cfg = RepSOConfig(1, n_parallel_3x3=2, include_1x3=False, include_3x1=False,
                          include_1x1=False, include_identity=False)
        ones = np.ones((1, 1, 3, 3), np.float32)
        w = RepSOWeights(tuple(RepSOBranch("3x3", ones, BnParams.identity(1))
                               for _ in range(2)))
        fused = merge_repso(w, cfg)
        np.testing.assert_array_equal(fused.kernel, 2 * ones)

    def test_default_seven_branches_match_training_form(self):
        rng = np.random.default_rng(4)
        cfg = RepSOConfig(8)
        w = random_repso_weights(cfg, rng, var_range=(0.1, 10.0))
        fused = merge_repso(w, cfg)
        spec = ConvSpec(8, 8, 3, 3, 1, 1, 1, 1, groups=8, has_bias=True)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
            train = repso_forward(x, w, cfg)
            infer = conv2d(x, fused.kernel, fused.bias, spec)
            worst = max(worst, float(np.abs(train - infer).max()))
        assert worst <= 1e-4

    def test_fused_cost_equals_plain_depthwise(self):
        cfg = RepSOConfig(16)
        fused = merge_repso(random_repso_weights(cfg, np.random.default_rng(5)), cfg)
        assert fused.kernel.size == 9 * 16
        assert fused.bias.size == 16


def _wide_bn(channels, rng):
    """BN statistics over wide ranges: gamma in +-2, beta and mean in +-3,
    variance log-uniform from 1e-8 to 1e8 (eps-dominated at the low end)."""
    return BnParams(rng.uniform(-2, 2, channels), rng.uniform(-3, 3, channels),
                    rng.uniform(-3, 3, channels), 10.0 ** rng.uniform(-8, 8, channels))


def _wide_repso_weights(cfg, dtype, seed):
    """Standard-normal kernels of ``dtype``, each branch with a ``_wide_bn``."""
    rng = np.random.default_rng(seed)
    branches = []
    for kind in cfg.branch_kinds():
        shape = branch_kernel_shape(kind, cfg.channels)
        kernel = None if shape is None else rng.standard_normal(shape).astype(dtype)
        branches.append(RepSOBranch(kind, kernel, _wide_bn(cfg.channels, rng)))
    return RepSOWeights(tuple(branches))


@st.composite
def repso_merge_cases(draw):
    cfg = RepSOConfig(draw(st.integers(1, 9)), draw(st.integers(1, 3)),
                      *(draw(st.booleans()) for _ in range(4)))
    return cfg, draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(repso_merge_cases())
def test_merge_repso_bitwise_equals_per_branch_fold(case):
    cfg, dtype, seed = case
    w = _wide_repso_weights(cfg, dtype, seed)
    got, ref = merge_repso(w, cfg), merge_repso_per_branch(w, cfg)
    assert got.kernel.dtype == got.bias.dtype == np.float32
    assert got.kernel.tobytes() == ref.kernel.tobytes()
    assert got.bias.tobytes() == ref.bias.tobytes()


# Merge exactness against float64. A merge of B branches folds each BN's
# (s, t) = (gamma / sqrt(var + eps), beta - mean * s) into its branch and sums
# the branches in float32. Each merged weight then lies within
# gamma_{B+4} * sum_b |w_b s_b| of the float64 merge of the same float32
# inputs, and each bias within gamma_{B+4} * sum_b (|beta_b| + |mean_b s_b|),
# where gamma_n = n u / (1 - n u) and u = 2**-24 (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., section 3.1).

def _gamma_n(n):
    u = 2.0 ** -24
    return n * u / (1 - n * u)


def _bn_terms64(bn):
    """A BN's scale, shift and shift magnitude |beta| + |mean * s|, computed in
    float64 from its float32 statistics."""
    gamma, beta, mean, var = (a.astype(np.float64) for a in (bn.gamma, bn.beta, bn.mean, bn.var))
    s = gamma / np.sqrt(var + np.float64(np.float32(bn.eps)))
    return s, beta - mean * s, np.abs(beta) + np.abs(mean * s)


def _along_axis0(v, ndim):
    return v.reshape(-1, *(1,) * (ndim - 1))


def _assert_within_merge_bound(got, exact, magnitude, branches):
    err = np.abs(got.astype(np.float64) - exact)
    assert np.all(err <= _gamma_n(branches + 4) * magnitude)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(repso_merge_cases())
def test_merge_repso_within_float64_bound(case):
    cfg, _, seed = case
    w = _wide_repso_weights(cfg, np.float32, seed)
    fused = merge_repso(w, cfg)
    kernel = kernel_mag = bias = bias_mag = 0.0
    for br in w.branches:
        s, t, t_mag = _bn_terms64(br.bn)
        # Padding places the float32 kernel without rounding it.
        ws = pad_kernel_to_3x3(br.kernel, br.kind, cfg.channels) * _along_axis0(s, 4)
        kernel, kernel_mag = kernel + ws, kernel_mag + np.abs(ws)
        bias, bias_mag = bias + t, bias_mag + t_mag
    _assert_within_merge_bound(fused.kernel, kernel, kernel_mag, cfg.branch_count)
    _assert_within_merge_bound(fused.bias, bias, bias_mag, cfg.branch_count)


@st.composite
def refco_merge_cases(draw):
    while True:
        c_in = draw(st.integers(1, 24))
        reduction = draw(st.sampled_from([1, 2, 4]))
        c_out = c_in * draw(st.sampled_from([1, 2, 3]))
        sizes = admissible_kernel_sizes(c_in, c_out, reduction)
        if sizes:
            break
    spec = SFConvSpec(c_in, c_out, draw(st.sampled_from(sizes)), reduction)
    return spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(refco_merge_cases())
def test_merge_refco_within_float64_bound(case):
    spec, seed = case
    rng = np.random.default_rng(seed)
    stages = [tuple(RefCOBranch(br.weight, _wide_bn(br.bn.channels, rng)) for br in branches)
              for branches in random_refco_branches(spec, rng)]
    fused = merge_refco(spec, *stages)
    for branches, w_got, b_got in zip(stages, (fused.w1, fused.w2), (fused.bias1, fused.bias2)):
        w = w_mag = b = b_mag = 0.0
        for br in branches:
            s, t, t_mag = _bn_terms64(br.bn)
            ws = br.weight * _along_axis0(s, br.weight.ndim)
            w, w_mag = w + ws, w_mag + np.abs(ws)
            # Stage 1's shift is per hidden channel, shared across windows.
            b = b + _along_axis0(t, b_got.ndim)
            b_mag = b_mag + _along_axis0(t_mag, b_got.ndim)
        _assert_within_merge_bound(w_got, w, w_mag, len(branches))
        _assert_within_merge_bound(b_got, b, b_mag, len(branches))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_fuse_bn_into_linear_within_float64_bound(c_out, c_in, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32)
    bn = _wide_bn(c_out, rng)
    w2, b2 = fuse_bn_into_linear(w, None, bn)
    s, t, t_mag = _bn_terms64(bn)
    ws = w * _along_axis0(s, w.ndim)
    _assert_within_merge_bound(w2, ws, np.abs(ws), 1)
    _assert_within_merge_bound(b2, t, t_mag, 1)


class TestMergeRefCO:
    def test_single_live_branch_passthrough(self):
        spec = SFConvSpec(8, 8, 4, 2)
        rng = np.random.default_rng(6)
        b1, b2 = random_refco_branches(spec, rng)
        from falconnet import RefCOBranch
        b1 = (RefCOBranch(b1[0].weight, BnParams.identity(2)),
              RefCOBranch(np.zeros_like(b1[1].weight), BnParams.identity(2)))
        b2 = tuple([RefCOBranch(b2[0].weight, BnParams.identity(8))] +
                   [RefCOBranch(np.zeros_like(b.weight), BnParams.identity(8))
                    for b in b2[1:]])
        fused = merge_refco(spec, b1, b2)
        np.testing.assert_allclose(fused.w1, b1[0].weight, atol=1e-7)
        np.testing.assert_allclose(fused.w2, b2[0].weight, atol=1e-7)
        np.testing.assert_array_equal(fused.bias1, np.zeros((2, 2), np.float32))
        np.testing.assert_array_equal(fused.bias2, np.zeros(8, np.float32))

    def test_duplicate_stage1_branch_doubles_bank(self):
        spec = SFConvSpec(4, 4, 2, 2)
        rng = np.random.default_rng(7)
        from falconnet import RefCOBranch
        w = rng.standard_normal((1, 2, 2)).astype(np.float32)
        b1 = (RefCOBranch(w, BnParams.identity(1)), RefCOBranch(w, BnParams.identity(1)))
        b2 = tuple(RefCOBranch(rng.standard_normal((4, 2)).astype(np.float32),
                               BnParams.identity(4)) for _ in range(2))
        fused = merge_refco(spec, b1, b2)
        np.testing.assert_allclose(fused.w1, 2 * w, atol=1e-6)

    def test_random_branches_match_training_form(self):
        rng = np.random.default_rng(8)
        spec = SFConvSpec(24, 48, 6, 2)
        b1, b2 = random_refco_branches(spec, rng, var_range=(0.1, 10.0))
        fused = merge_refco(spec, b1, b2)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal((1, 24, 4, 4)).astype(np.float32)
            train = refco_forward(x, spec, b1, b2)
            infer = sfconv_forward(x, spec, fused)
            worst = max(worst, float(np.abs(train - infer).max()))
        assert worst <= 1e-4

    def test_fused_cost_equals_single_sfconv(self):
        spec = SFConvSpec(16, 32, 4, 2)
        b1, b2 = random_refco_branches(spec, np.random.default_rng(9))
        fused = merge_refco(spec, b1, b2)
        assert fused.w1.size + fused.w2.size == sfconv_param_count(spec)
        assert fused.bias1.size == spec.hidden_channels * spec.windows
        assert fused.bias2.size == spec.c_out


class TestVerifyEquivalence:
    def test_identical_models_have_zero_error(self):
        f = lambda x: 2.0 * x
        report = verify_equivalence(f, f, 4, (1, 2, 3, 3), 1e-6)
        assert report.max_abs_error == 0.0
        assert report.passed
        assert report.trials == 4 and report.input_shape == (1, 2, 3, 3)

    def test_repso_pair_passes(self):
        rng = np.random.default_rng(10)
        cfg = RepSOConfig(4)
        w = random_repso_weights(cfg, rng)
        fused = merge_repso(w, cfg)
        spec = ConvSpec(4, 4, 3, 3, 1, 1, 1, 1, groups=4, has_bias=True)
        report = verify_equivalence(
            lambda x: repso_forward(x, w, cfg),
            lambda x: conv2d(x, fused.kernel, fused.bias, spec),
            8, (1, 4, 5, 5), 1e-4)
        assert report.passed

    def test_bias_perturbation_is_detected(self):
        rng = np.random.default_rng(11)
        cfg = RepSOConfig(4)
        w = random_repso_weights(cfg, rng)
        fused = merge_repso(w, cfg)
        spec = ConvSpec(4, 4, 3, 3, 1, 1, 1, 1, groups=4, has_bias=True)
        report = verify_equivalence(
            lambda x: repso_forward(x, w, cfg),
            lambda x: conv2d(x, fused.kernel, fused.bias + 1.0, spec),
            4, (1, 4, 5, 5), 1e-4)
        assert report.max_abs_error >= 1.0
        assert not report.passed

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_equivalence(lambda x: x, lambda x: x, 0, (1, 1, 1, 1))

    def test_nan_candidate_fails(self):
        report = verify_equivalence(lambda x: x, lambda x: x * np.nan, 1, (1, 3, 4, 4))
        assert np.isnan(report.max_abs_error)
        assert not report.passed

    def test_non_finite_error_survives_later_clean_trials(self):
        calls = []

        def flaky(x):
            calls.append(None)
            return x * np.nan if len(calls) == 1 else x

        report = verify_equivalence(lambda x: x, flaky, 3, (1, 2, 2, 2))
        assert len(calls) == 3
        assert not np.isfinite(report.max_abs_error)
        assert not report.passed

    def test_matching_infinities_fail(self):
        f = lambda x: x * np.inf
        with np.errstate(invalid="ignore"):
            report = verify_equivalence(f, f, 2, (1, 2, 2, 2))
        assert not np.isfinite(report.max_abs_error)
        assert not report.passed
