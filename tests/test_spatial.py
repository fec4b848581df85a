"""Multi-branch spatial operator and magnitude analysis tests."""

import re

import numpy as np
import pytest

from falconnet import (BnParams, ConvSpec, RepSOBranch, RepSOConfig, RepSOWeights,
                       ShapeError, conv2d, kernel_magnitude_matrix, random_repso_weights,
                       repso_forward)
from falconnet import merge_repso
from falconnet.model import RepSONode
from falconnet.spatial import branch_kernel_shape


def identity_weights(cfg, kernel_value=0.0):
    branches = []
    for kind in cfg.branch_kinds():
        shape = branch_kernel_shape(kind, cfg.channels)
        kernel = None if shape is None else np.full(shape, kernel_value, np.float32)
        branches.append(RepSOBranch(kind, kernel, BnParams.identity(cfg.channels)))
    return RepSOWeights(tuple(branches))


def test_default_config_has_seven_branches():
    cfg = RepSOConfig(8)
    assert cfg.branch_count == 7
    assert cfg.branch_kinds() == ("3x3", "3x3", "3x3", "1x3", "3x1", "1x1", "identity")


def test_zero_kernels_identity_bn_passes_input_through():
    cfg = RepSOConfig(4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
    out = repso_forward(x, identity_weights(cfg), cfg)
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_single_branch_degenerates_to_depthwise_conv():
    cfg = RepSOConfig(3, n_parallel_3x3=1, include_1x3=False, include_3x1=False,
                      include_1x1=False, include_identity=False)
    rng = np.random.default_rng(1)
    kernel = rng.standard_normal((3, 1, 3, 3)).astype(np.float32)
    w = RepSOWeights((RepSOBranch("3x3", kernel, BnParams.identity(3)),))
    x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
    expected = conv2d(x, kernel, None, ConvSpec(3, 3, 3, 3, 1, 1, 1, 1, groups=3))
    np.testing.assert_array_equal(repso_forward(x, w, cfg), expected)


def test_three_equal_all_ones_branches_triple_the_box_pattern():
    cfg = RepSOConfig(1, n_parallel_3x3=3, include_1x3=False, include_3x1=False,
                      include_1x1=False, include_identity=False)
    kernel = np.ones((1, 1, 3, 3), np.float32)
    w = RepSOWeights(tuple(RepSOBranch("3x3", kernel, BnParams.identity(1))
                           for _ in range(3)))
    x = np.ones((1, 1, 3, 3), np.float32)
    expected = 3 * np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
    np.testing.assert_array_equal(repso_forward(x, w, cfg)[0, 0], expected)


def test_branch_additivity():
    cfg = RepSOConfig(6)
    rng = np.random.default_rng(2)
    w = random_repso_weights(cfg, rng, var_range=(0.1, 10.0))
    x = rng.standard_normal((2, 6, 5, 5)).astype(np.float32)
    total = repso_forward(x, w, cfg)
    # Recompute each branch independently through single-branch configs.
    acc = np.zeros_like(total)
    pads = {"3x3": (1, 1), "1x3": (0, 1), "3x1": (1, 0), "1x1": (0, 0)}
    from falconnet import batch_norm_infer
    for br in w.branches:
        if br.kind == "identity":
            acc += batch_norm_infer(x, br.bn)
        else:
            kh, kw = br.kernel.shape[2:]
            ph, pw = pads[br.kind]
            spec = ConvSpec(6, 6, kh, kw, 1, 1, ph, pw, groups=6)
            acc += batch_norm_infer(conv2d(x, br.kernel, None, spec), br.bn)
    np.testing.assert_allclose(total, acc, atol=1e-5)


def test_zero_kernel_identity_bn_branch_contributes_nothing():
    with_branch = RepSOConfig(4, include_1x1=True)
    without = RepSOConfig(4, include_1x1=False)
    rng = np.random.default_rng(3)
    w_full = random_repso_weights(with_branch, rng)
    # Replace the 1x1 branch by zero kernel with exact-identity normalization.
    branches = []
    for br in w_full.branches:
        if br.kind == "1x1":
            branches.append(RepSOBranch("1x1", np.zeros((4, 1, 1, 1), np.float32),
                                        BnParams.identity(4)))
        else:
            branches.append(br)
    w_zeroed = RepSOWeights(tuple(branches))
    w_dropped = RepSOWeights(tuple(br for br in branches if br.kind != "1x1"))
    x = rng.standard_normal((1, 4, 7, 7)).astype(np.float32)
    a = repso_forward(x, w_zeroed, with_branch)
    b = repso_forward(x, w_dropped, without)
    np.testing.assert_allclose(a, b, atol=1e-6)


@pytest.mark.parametrize("c,h,w", [(1, 1, 1), (2, 3, 4), (5, 8, 8), (3, 1, 6)])
def test_output_shape_equals_input_shape(c, h, w):
    cfg = RepSOConfig(c)
    rng = np.random.default_rng(c + h + w)
    weights = random_repso_weights(cfg, rng)
    x = rng.standard_normal((1, c, h, w)).astype(np.float32)
    assert repso_forward(x, weights, cfg).shape == x.shape


def test_repso_errors():
    cfg = RepSOConfig(4)
    rng = np.random.default_rng(4)
    w = random_repso_weights(cfg, rng)
    with pytest.raises(ShapeError, match="channels"):
        repso_forward(np.zeros((1, 3, 2, 2), np.float32), w, cfg)
    bad = RepSOWeights(w.branches[:-1])
    with pytest.raises(ShapeError, match="branch kinds"):
        repso_forward(np.zeros((1, 4, 2, 2), np.float32), bad, cfg)


@pytest.mark.parametrize("poison, error, message", [
    # Entries 5*i to 5*i + 4 are branch i's kernel, gamma, beta, mean and
    # var for the six kernel branches; 30 to 33 are identity's BN arrays.
    ({8: (slice(3), None)}, ShapeError, "BnParams.mean has length 3, expected 4"),
    ({6: (slice(3), None), 7: (slice(3), None), 8: (slice(3), None), 9: (slice(3), None)},
     ShapeError, "branch 1 normalization has 3 channels, expected 4"),
    # Every branch's var + eps is checked before any other statistic.
    ({1: (0, np.nan), 33: (2, -1.0)}, ValueError,
     "var \\+ eps must be positive, violated at channel 2"),
    ({18: (3, np.inf), 31: (1, np.nan)}, ValueError, "mean must be finite, violated at channel 3"),
    # Finite statistics whose scale or shift overflows float32.
    ({30: (2, 3e38), 33: (2, 0.0)}, ValueError, "scale must be finite, violated at channel 2"),
    ({11: (3, 2.0), 13: (3, 3e38)}, ValueError, "shift must be finite, violated at channel 3"),
    # Kernels are checked after the statistics.
    ({5: (np.s_[:, :, :2], None), 1: (0, np.nan)}, ValueError, "gamma must be finite"),
    ({5: (np.s_[:, :, :2], None)}, ShapeError, "branch 1 \\(3x3\\) kernel shape \\(4, 1, 2, 3\\)"),
])
def test_node_sets_up_every_branch_bn_at_once(poison, error, message):
    # A RepSO node checks all its branches' BNs in one set-up, for both its
    # forward and its fuse.
    _bind_and_fuse_raise(RepSONode("r", RepSOConfig(4)), poison, error, message)


@pytest.mark.parametrize("poison, message", [
    # The failing branch of the one BN set-up, with the rows above.
    ({1: (0, np.nan), 33: (2, -1.0)}, "r.identity.var + eps must be positive, violated at channel 2"),
    ({18: (3, np.inf), 31: (1, np.nan)}, "r.dw1x3.mean must be finite, violated at channel 3"),
    ({30: (2, 3e38), 33: (2, 0.0)}, "r.identity.scale must be finite, violated at channel 2"),
    ({11: (3, 2.0), 13: (3, 3e38)}, "r.dw3x3_2.shift must be finite, violated at channel 3"),
    ({5: (np.s_[:, :, :2], None), 1: (0, np.nan)},
     "r.dw3x3_0.gamma must be finite, violated at channel 0"),
])
def test_node_value_check_names_the_branch_key(poison, message):
    # A failed value check leads with the failing branch's key prefix.
    _bind_and_fuse_raise(RepSONode("r", RepSOConfig(4)), poison, ValueError,
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
        node.bind(w, False)
    with pytest.raises(error, match=message):
        node.fuse(w, None)


def test_branch_normalization_width_is_checked():
    cfg = RepSOConfig(4)
    w = identity_weights(cfg)
    bad = RepSOWeights(w.branches[:2] + (RepSOBranch("3x3", w.branches[2].kernel,
                                                     BnParams.identity(3)),) + w.branches[3:])
    message = "branch 2 normalization has 3 channels, expected 4"
    with pytest.raises(ShapeError, match=message):
        repso_forward(np.zeros((1, 4, 2, 2), np.float32), bad, cfg)
    with pytest.raises(ShapeError, match=message):
        merge_repso(bad, cfg)


class TestKernelMagnitude:
    def test_single_nonzero_position(self):
        k1 = np.zeros((1, 1, 3, 3), np.float32)
        k1[..., 1, 1] = 2.0
        k2 = np.zeros((1, 1, 3, 3), np.float32)
        k2[..., 1, 1] = 4.0
        m = kernel_magnitude_matrix([k1, k2], 3, 3)
        assert m[1, 1] == 1.0
        assert m.sum() == 1.0

    def test_all_ones(self):
        m = kernel_magnitude_matrix([np.ones((5, 1, 3, 3), np.float32)], 3, 3)
        np.testing.assert_array_equal(m, np.ones((3, 3), np.float32))

    def test_two_by_two_hand_case(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]], np.float32).reshape(1, 1, 2, 2)
        b = np.array([[3.0, 0.0], [0.0, 0.0]], np.float32).reshape(1, 1, 2, 2)
        m = kernel_magnitude_matrix([a, b], 2, 2)
        np.testing.assert_array_equal(m, [[1.0, 0.0], [0.0, 0.0]])

    def test_all_zero_kernels_give_zero_matrix(self):
        m = kernel_magnitude_matrix([np.zeros((2, 1, 3, 3), np.float32)], 3, 3)
        np.testing.assert_array_equal(m, np.zeros((3, 3), np.float32))

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        kernels = [rng.standard_normal((4, 1, 3, 3)).astype(np.float32) for _ in range(3)]
        m1 = kernel_magnitude_matrix(kernels, 3, 3)
        m2 = kernel_magnitude_matrix([7.5 * k for k in kernels], 3, 3)
        np.testing.assert_allclose(m1, m2, atol=1e-6)

    def test_errors(self):
        with pytest.raises(ShapeError, match="at least one"):
            kernel_magnitude_matrix([], 3, 3)
        with pytest.raises(ShapeError, match="extent"):
            kernel_magnitude_matrix([np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 1, 3))], 3, 3)


@pytest.mark.parametrize("channels, n_parallel, message", [
    (0, 3, "RepSOConfig.channels must be positive, got 0"),
    (4, 0, "RepSOConfig.n_parallel_3x3 must be positive, got 0"),
])
def test_invalid_config_is_shape_error(channels, n_parallel, message):
    with pytest.raises(ShapeError) as e:
        RepSOConfig(channels, n_parallel)
    assert str(e.value) == message
