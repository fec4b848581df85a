"""Sparsely factorized pointwise convolution (SF-Conv), its multi-branch
training form (RefCO), and receptive-range analysis of channel patterns.

A dense 1x1 convolution connects every output channel to every input
channel at a cost of c_out * c_in weights per layer. The factorized form
treats the channel axis of each pixel as a tiny 1-d signal and splits the
mixing into two sparse stages:

  stage 1  slides a length-K window over the C input channels with stride
           K and spatially unshared weights, producing K/R hidden values
           for each of the C/K window positions (R is the reduction
           coefficient, 2 by default);
  stage 2  is depthwise across the C/K window positions, one hidden
           channel feeding a block of consecutive output channels.

Because every hidden channel spans all window positions and the windows
tile the input, each output channel reaches all C inputs through the
hidden layer: the receptive range stays full while the weight count drops
to c_in*K/R + c_out*c_in/K.

Both stages run as stacked BLAS products (``np.matmul``): stage 1 one per
image and window position, stage 2 one per image and hidden channel. An
image's result therefore does not depend on the batch it arrives in. The
summation order inside a product is the BLAS library's, so outputs are
held to a stated bound against float64 rather than to fixed bits.

RefCO normalizes every branch before the sum, as the paper's training form
does: per stage, each branch's output is multiplied by its BN scale, the
products are summed in branch order, and the stage's BN shifts, summed once,
are added at the end. Memory traffic, not arithmetic, sets the time of that
sum, so each stage is computed in blocks along its stacked matmul axis
(windows in stage 1, hidden channels in stage 2) that keep every branch's
products in L2: per block, one ``np.matmul`` of the branch weights, stacked
for the call, writes all branches' products, and one ``np.einsum`` scales
and sums them into the output in a single pass. The branch axis is a batch
axis of the matmul, so a block makes the same BLAS products as one branch
at a time, and einsum rounds each product before it adds it, in branch
order, so the bits depend neither on the blocks nor on the stacking. Branch
weights are never scaled or summed first, so RefCO stays an independent
check of the weights that ``merge_refco`` folds into one SF-Conv. The merge
is exact algebra over the set-up that the training form runs, so only
float32 rounding separates the two forms, and ``verify_equivalence``
measures it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import BnParams, ShapeError, Tensor, _bn_scale_shift, as_f32

__all__ = [
    "SFConvSpec",
    "SFConvWeights",
    "RefCOBranch",
    "ChannelPattern",
    "admissible_kernel_sizes",
    "choose_kernel_size",
    "sfconv_param_count",
    "sfconv_forward",
    "refco_forward",
    "receptive_range",
    "random_refco_branches",
    "merge_refco",
]


@dataclass(frozen=True)
class SFConvSpec:
    """Shape law of a sparsely factorized 1x1 convolution.

    The window stride equals the window length ``kernel``, so the windows
    tile the input channels exactly. Admissibility: kernel divides c_in,
    reduction divides kernel, and kernel/reduction divides c_out.
    """

    c_in: int
    c_out: int
    kernel: int
    reduction: int = 2

    def __post_init__(self):
        for name in ("c_in", "c_out", "kernel", "reduction"):
            if getattr(self, name) <= 0:
                raise ShapeError(f"SFConvSpec.{name} must be positive, got {getattr(self, name)}")
        if self.c_in % self.kernel:
            raise ShapeError(f"kernel={self.kernel} does not divide c_in={self.c_in}")
        if self.kernel % self.reduction:
            raise ShapeError(f"reduction={self.reduction} does not divide kernel={self.kernel}")
        if self.c_out % (self.kernel // self.reduction):
            raise ShapeError(
                f"hidden width {self.kernel}/{self.reduction} does not divide c_out={self.c_out}")

    @property
    def hidden_channels(self) -> int:
        """Hidden values per window position (K/R)."""
        return self.kernel // self.reduction

    @property
    def windows(self) -> int:
        """Window positions along the channel axis (C/K)."""
        return self.c_in // self.kernel

    @property
    def width_multiplier(self) -> int:
        """Consecutive output channels fed by one hidden channel."""
        return self.c_out // self.hidden_channels

    def weight_shapes(self) -> tuple[tuple[int, int, int], tuple[int, int]]:
        """Stage 1's (hidden_channels, windows, kernel) and stage 2's
        (c_out, windows): input channel ``p*K + t`` sits in window ``p``,
        hidden node ``(h, p)`` reads window ``p``, output ``o`` reads hidden
        channel ``o // width_multiplier`` at every window."""
        return (self.hidden_channels, self.windows, self.kernel), (self.c_out, self.windows)


def admissible_kernel_sizes(c_in: int, c_out: int, reduction: int) -> list[int]:
    """The divisors K of c_in, found in O(sqrt(c_in)) and ascending, that
    the reduction divides and whose K/reduction divides c_out."""
    low = [k for k in range(1, math.isqrt(max(c_in, 0)) + 1) if c_in % k == 0]
    divisors = low + [c_in // k for k in reversed(low) if k * k != c_in]
    return [k for k in divisors if k % reduction == 0 and c_out % (k // reduction) == 0]


def choose_kernel_size(c_in: int, c_out: int, reduction: int = SFConvSpec.reduction) -> int:
    """Admissible window length minimizing c_in*K/R + c_out*c_in/K.

    The unconstrained minimum sits at K = sqrt(c_out * R); divisibility
    forces a discrete choice, and ties break toward the smaller K.
    """
    if c_in <= 0 or c_out <= 0 or reduction <= 0:
        raise ShapeError("choose_kernel_size arguments must be positive")
    candidates = admissible_kernel_sizes(c_in, c_out, reduction)
    if not candidates:
        raise ValueError(
            f"no admissible kernel size for c_in={c_in}, c_out={c_out}, "
            f"reduction={reduction}: need K dividing c_in, K a multiple of "
            f"the reduction, and K/reduction dividing c_out")
    return min(candidates,
               key=lambda k: (sfconv_param_count(SFConvSpec(c_in, c_out, k, reduction)), k))


def sfconv_param_count(spec: SFConvSpec) -> int:
    """Weight elements of both stages, biases excluded."""
    return sum(math.prod(shape) for shape in spec.weight_shapes())


@dataclass(frozen=True)
class SFConvWeights:
    """Weight banks of one SF-Conv.

    ``w1`` is (hidden_channels, windows, kernel): unshared stage-1 filters.
    ``w2`` is (c_out, windows): depthwise stage-2 filters. Optional biases
    mirror those layouts; the stage-1 bias is unshared across windows just
    like ``w1``.
    """

    spec: SFConvSpec
    w1: np.ndarray
    w2: np.ndarray
    bias1: np.ndarray | None = None
    bias2: np.ndarray | None = None

    def __post_init__(self):
        w1, w2 = self.spec.weight_shapes()
        for name, shape in (("w1", w1), ("w2", w2), ("bias1", w1[:2])):
            if name == "bias1" and self.bias1 is None:
                continue
            a = as_f32(getattr(self, name))
            object.__setattr__(self, name, a)
            if a.shape != shape:
                raise ShapeError(f"{name} shape {a.shape}, expected {shape}")
        if self.bias2 is not None:
            object.__setattr__(self, "bias2", as_f32(self.bias2).reshape(-1))
            if self.bias2.shape != w2[:1]:
                raise ShapeError(f"bias2 length {self.bias2.shape[0]}, expected {w2[0]}")


def _split_windows(x: np.ndarray, spec: SFConvSpec) -> np.ndarray:
    """View (N, C, H, W) as (N, windows, kernel, H, W); channel = p*K + t."""
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ShapeError(f"input has {c} channels, spec expects {spec.c_in}")
    return x.reshape(n, spec.windows, spec.kernel, h, w)


def _stage1(xw: np.ndarray, w1: np.ndarray, out=None) -> np.ndarray:
    # (..., win, hid, K) @ (N, win, K, H*W) -> (..., N, win, hid, H*W), one BLAS
    # product per image and window (and branch, if w1 has a leading branch
    # axis), viewed as (..., N, hid, win, H, W). ``out``, if given, is a
    # (..., N, win, hid, H*W) buffer the products may be written into.
    n, win, k, h, w = xw.shape
    y = np.matmul(w1.swapaxes(-3, -2)[..., None, :, :, :], xw.reshape(n, win, k, h * w), out=out)
    return y.reshape(*y.shape[:-1], h, w).swapaxes(-4, -3)


def _stage2(hidden: np.ndarray, w2: np.ndarray, out=None) -> np.ndarray:
    # Output channel o reads hidden channel o // m at every window, m =
    # w2.shape[-2] // hid: (..., hid, m, win) @ (N, hid, win, H*W) -> (..., N,
    # hid, m, H*W), viewed as (..., N, c_out, H, W), with w2's leading branch
    # axis if it has one. ``hidden`` and ``w2`` may be a block of hidden
    # channels and the rows of ``w2`` that read them. ``out``, if given, is a
    # (..., N, hid, m, H*W) buffer the products may be written into.
    n, hid, win, h, w = hidden.shape
    lead = w2.shape[:-2]
    y = np.matmul(w2.reshape(*lead, 1, hid, -1, win), hidden.reshape(n, hid, win, h * w),
                  out=out)
    return y.reshape(*lead, n, w2.shape[-2], h, w)


def sfconv_forward(x: Tensor, spec: SFConvSpec, w: SFConvWeights) -> Tensor:
    """Apply both stages at every pixel; no nonlinearity in between.

    The two stages jointly replace one linear 1x1 convolution, which is
    what makes stage-wise branch fusion exact.
    """
    x = as_f32(x)
    if x.ndim != 4:
        raise ShapeError(f"sfconv_forward expects a rank-4 input, got rank {x.ndim}")
    if w.spec != spec:
        raise ShapeError("weights were built for a different SFConvSpec")
    xw = _split_windows(x, spec)
    # Both stages return fresh matmul outputs, so the biases go in in place.
    hidden = _stage1(xw, w.w1)
    if w.bias1 is not None:
        hidden += w.bias1[None, :, :, None, None]
    out = _stage2(hidden, w.w2)
    if w.bias2 is not None:
        out += w.bias2.reshape(1, -1, 1, 1)
    return out


@dataclass(frozen=True)
class RefCOBranch:
    """One parallel branch: a weight bank plus its normalization."""
    weight: np.ndarray
    bn: BnParams


def _branch_rows(branches) -> tuple:
    """``RefCOBranch``es as the ``(weight, gamma, beta, mean, var, eps)``
    rows that ``_refco_terms`` takes."""
    return tuple((br.weight, br.bn.gamma, br.bn.beta, br.bn.mean, br.bn.var, br.bn.eps)
                 for br in branches)


def _refco_terms(spec: SFConvSpec, branches1, branches2, prefix=None) -> tuple:
    """Both stages' branches, checked, as the ``(weights, scales, shift)``
    triples that ``_refco`` runs and ``_merge_refco`` folds. ``weights``
    holds each branch's weight; ``scales`` stacks their BN scales, shaped
    (B1, hid) in stage 1 and (B2, hid, m) in stage 2; ``shift`` is the
    stage's summed BN shift, the float32 sum of the branches' shifts from
    zeros in branch order, shaped to add to the stage's products as
    ``_refco`` lays them out, (N, win, hid, H*W) and (N, hid, m, H*W).

    A branch is ``(weight, gamma, beta, mean, var, eps)``. The branch counts
    are checked first. Then, stage 1 before stage 2, one ``_bn_scale_shift``
    call sets up the stage's BNs, and each branch's weight shape is checked.
    ``prefix``, if given, maps a branch's index, stage 1's then stage 2's, to
    the key prefix that the message of a failed BN value check leads with.
    """
    w1, w2 = spec.weight_shapes()
    hid = spec.hidden_channels
    stages = ((branches1, spec.windows, "C/K", w1, (-1,), (1, 1, -1, 1)),
              (branches2, spec.kernel, "K", w2, (hid, -1), (1, hid, -1, 1)))
    for i, (branches, count, law, *_) in enumerate(stages, 1):
        if len(branches) != count:
            raise ShapeError(
                f"stage {i} needs exactly {count} branches ({law}), got {len(branches)}")
    terms = []
    for i, (branches, _, _, shape, scale_axes, shift_axes) in enumerate(stages, 1):
        first = 0 if i == 1 else len(branches1)
        key = None if prefix is None else lambda j, first=first: prefix(first + j)
        s, t = _bn_scale_shift([br[1:] for br in branches], shape[0], f"stage-{i} branch {{}} "
                               "normalization over {} channels, expected {}", key)
        for j, br in enumerate(branches):
            if br[0].shape != shape:
                raise ShapeError(f"stage-{i} branch {j} weight shape {br[0].shape}")
        shift = np.zeros(shape[0], np.float32)
        for tb in t:
            shift += tb
        terms.append((tuple(as_f32(br[0]) for br in branches),
                      s.reshape(len(s), *scale_axes), shift.reshape(shift_axes)))
    return tuple(terms)


def refco_forward(x: Tensor, spec: SFConvSpec, branches1, branches2) -> Tensor:
    """Training form: C/K parallel stage-1 branches summed after per-branch
    normalization, then K parallel stage-2 branches summed the same way.

    Stage-1 normalization runs over the K/R hidden channels (shared across
    window positions); stage-2 normalization runs over c_out. Per stage,
    each branch's output is multiplied by its BN scale and the products are
    summed in branch order from zeros; the stage's BN shifts, summed once in
    branch order, are added last. This is the same float32 arithmetic as
    the forward of a RefCO node.
    """
    return _refco(x, spec, *_refco_terms(spec, _branch_rows(branches1), _branch_rows(branches2)))


def _refco(x, spec: SFConvSpec, stage1, stage2) -> np.ndarray:
    """RefCO of ``x`` given its branches as ``_refco_terms``. Each stage's
    output is laid out as its stacked matmul writes it, (N, win, hid, H*W)
    and (N, hid, m, H*W), and walked in ``_blocks`` of its stacked axis;
    stage-2 block p feeds the output channels p.start*m to p.stop*m."""
    x = as_f32(x)
    if x.ndim != 4:
        raise ShapeError(f"refco_forward expects a rank-4 input, got rank {x.ndim}")
    xw = _split_windows(x, spec)
    n, _, h, w = x.shape
    hid, win, m = spec.hidden_channels, spec.windows, spec.width_multiplier
    (w1, s1, t1), (w2, s2, t2) = stage1, stage2
    # Stacked per call, as a plan would hold a second copy of them. Whole, so
    # each branch's matrices keep their strides and each sgemm its operands.
    w1, w2 = np.stack(w1), np.stack(w2)
    out1 = np.empty((n, win, hid, h * w), np.float32)
    out2 = np.empty((n, hid, m, h * w), np.float32)
    for p, block, buf in _blocks(out1, len(w1)):
        y = _stage1(xw[:, p], w1[:, :, p], buf).swapaxes(-4, -3).reshape(buf.shape)
        np.einsum("bnphq,bh->nphq", y, s1, out=block)
        block += t1
    hidden = out1.reshape(n, win, hid, h, w).transpose(0, 2, 1, 3, 4)
    for p, block, buf in _blocks(out2, len(w2)):
        y = _stage2(hidden[:, p], w2[:, p.start * m:p.stop * m], buf).reshape(buf.shape)
        np.einsum("bnpmq,bpm->npmq", y, s2[:, p], out=block)
        block += t2[:, p]
    return out2.reshape(n, spec.c_out, h, w)


def _blocks(out: np.ndarray, branches: int):
    """The slices ``p`` of ``out``'s second axis, in order, each with its
    block ``out[:, p]`` and a (branches, *out[:, p].shape) scratch buffer of
    at most ``ops._TILE_FLOATS`` floats, or of one index."""
    size = out.shape[1]
    step = max(1, ops._TILE_FLOATS // max(1, branches * out[:, :1].size))
    scratch = np.empty((branches, *out[:, :step].shape), np.float32)
    for start in range(0, size, step):
        p = slice(start, min(size, start + step))
        yield p, out[:, p], scratch[:, :, :p.stop - start]


def merge_refco(spec: SFConvSpec, branches1, branches2) -> SFConvWeights:
    """Collapse parallel factorized-conv branches into a single SF-Conv.

    Per stage, each branch's normalization scale is folded into its weight
    bank and the banks are summed; the stage's summed shift, the one that
    ``refco_forward`` adds, becomes the stage bias. Stage-1 normalization is
    per hidden channel, so its shift broadcasts across window positions.
    """
    return _merge_refco(spec, _refco_terms(spec, _branch_rows(branches1),
                                           _branch_rows(branches2)))


def _merge_refco(spec: SFConvSpec, stages) -> SFConvWeights:
    """``merge_refco`` of the stages as ``_refco_terms`` gives them."""
    (ws1, s1, shift1), (ws2, s2, shift2) = stages
    shape1, shape2 = spec.weight_shapes()
    w1 = np.zeros(shape1, dtype=np.float32)
    for w, s in zip(ws1, s1):
        w1 += w * s.reshape(-1, 1, 1)
    b1 = np.repeat(shift1.reshape(-1, 1), spec.windows, axis=1)

    w2 = np.zeros(shape2, dtype=np.float32)
    for w, s in zip(ws2, s2):
        w2 += w * s.reshape(-1, 1)
    return SFConvWeights(spec, w1, w2, b1, shift2.reshape(-1))


def random_refco_branches(spec: SFConvSpec, rng: np.random.Generator, *,
                          weight_scale: float | None = None, **bn):
    """Draw the two branch lists; ``bn`` holds keywords of ``BnParams.random``.
    Default weight scale keeps the summed branch outputs near unit variance:
    1/sqrt(taps * branches) per stage."""
    scale = weight_scale if weight_scale is not None else (spec.kernel * spec.windows) ** -0.5

    def branches(count, shape):
        return tuple(
            RefCOBranch((rng.standard_normal(shape) * scale).astype(np.float32),
                        BnParams.random(shape[0], rng, **bn))
            for _ in range(count))

    w1, w2 = spec.weight_shapes()
    return branches(spec.windows, w1), branches(spec.kernel, w2)


@dataclass(frozen=True)
class ChannelPattern:
    """Structural connection pattern of a channel-mixing layer.

    Kinds: ``dense``, ``group`` (g groups), ``channel_wise`` (window of k
    consecutive inputs, wrapped circularly), ``sf`` (two-stage factorized
    pattern given by an SFConvSpec).
    """

    kind: str
    c_in: int
    c_out: int
    groups: int | None = None
    window: int | None = None
    spec: SFConvSpec | None = None

    def __post_init__(self):
        if self.c_in <= 0 or self.c_out <= 0:
            raise ShapeError("ChannelPattern extents must be positive")
        if self.kind == "dense":
            pass
        elif self.kind == "group":
            g = self.groups
            if g is None or g <= 0 or self.c_in % g or self.c_out % g:
                raise ShapeError(
                    f"groups={g} must divide c_in={self.c_in} and c_out={self.c_out}")
        elif self.kind == "channel_wise":
            k = self.window
            if k is None or k <= 0 or k > self.c_in:
                raise ShapeError(f"window={k} must satisfy 1 <= window <= c_in={self.c_in}")
        elif self.kind == "sf":
            if self.spec is None:
                raise ShapeError("sf pattern requires an SFConvSpec")
            if (self.spec.c_in, self.spec.c_out) != (self.c_in, self.c_out):
                raise ShapeError("sf pattern extents disagree with its SFConvSpec")
        else:
            raise ShapeError(f"unknown pattern kind '{self.kind}'")

    @classmethod
    def dense(cls, c_in: int, c_out: int | None = None):
        return cls("dense", c_in, c_in if c_out is None else c_out)

    @classmethod
    def group(cls, c_in: int, groups: int, c_out: int | None = None):
        return cls("group", c_in, c_in if c_out is None else c_out, groups=groups)

    @classmethod
    def channel_wise(cls, c_in: int, window: int, c_out: int | None = None):
        return cls("channel_wise", c_in, c_in if c_out is None else c_out, window=window)

    @classmethod
    def sf(cls, spec: SFConvSpec):
        return cls("sf", spec.c_in, spec.c_out, spec=spec)


def receptive_range(pattern: ChannelPattern) -> np.ndarray:
    """Per-output count of input neurons reachable directly or through hidden
    neurons: the row sums of the pattern's (c_out, c_in) connection matrix.
    Each direct kind builds its matrix from its rule; SF-Conv counts windows."""
    c_in, c_out = pattern.c_in, pattern.c_out
    o, i = np.ogrid[:c_out, :c_in]
    if pattern.kind == "dense":
        direct = np.ones((c_out, c_in), dtype=bool)
    elif pattern.kind == "group":
        g = pattern.groups
        direct = o // (c_out // g) == i // (c_in // g)
    elif pattern.kind == "channel_wise":  # window of inputs from o*c_in//c_out, wrapped
        direct = (i - o * c_in // c_out) % c_in < pattern.window
    else:
        # Node r = h*windows + p of hidden channel h reads window p, K inputs
        # no other window holds; output o reads hidden channel
        # o // width_multiplier.
        spec = pattern.spec
        r = np.arange(spec.hidden_channels * spec.windows)
        reads = np.zeros((spec.hidden_channels, spec.windows), dtype=bool)
        reads[r // spec.windows, r % spec.windows] = True
        return reads.sum(axis=1)[o[:, 0] // spec.width_multiplier] * spec.kernel
    return direct.sum(axis=1)
