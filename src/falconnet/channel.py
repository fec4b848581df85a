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
does: each branch's stage output is multiplied by its BN scale and added
to the stage's running sum, and the stage's BN shifts, summed once, are
added at the end. That takes two passes over each branch's output, not
three. Memory traffic, not arithmetic, sets the time of those passes, so
each stage is computed in blocks along its stacked matmul axis (windows in
stage 1, hidden channels in stage 2) of about 256 KiB of output, which
every branch writes, scales and adds while the block stays in L2; the
passes run under a small ufunc buffer, which numpy's per-channel broadcast
passes take faster. A block makes the same BLAS products as the whole
stage, so the bits do not depend on the blocks. Branch weights are never
scaled or summed first, so RefCO stays an independent check of the
weights that ``merge_refco`` folds into one SF-Conv. The merge is exact
algebra over the set-up that the training form runs, so only float32
rounding separates the two forms, and ``verify_equivalence`` measures it.
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
    return [k for k in range(1, c_in + 1)
            if c_in % k == 0 and k % reduction == 0 and c_out % (k // reduction) == 0]


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
    # (win, hid, K) @ (N, win, K, H*W) -> (N, win, hid, H*W), one BLAS product
    # per image and window, viewed as (N, hid, win, H, W). ``out``, if given,
    # is a (N, win, hid, H*W) buffer the products may be written into.
    n, win, k, h, w = xw.shape
    y = np.matmul(w1.transpose(1, 0, 2), xw.reshape(n, win, k, h * w), out=out)
    return y.reshape(n, win, w1.shape[0], h, w).transpose(0, 2, 1, 3, 4)


def _stage2(hidden: np.ndarray, w2: np.ndarray, out=None) -> np.ndarray:
    # Output channel o reads hidden channel o // m at every window, m =
    # len(w2) // hid: (hid, m, win) @ (N, hid, win, H*W) -> (N, hid, m, H*W),
    # viewed as (N, len(w2), H, W). ``hidden`` and ``w2`` may be a block of
    # hidden channels and the rows of ``w2`` that read them. ``out``, if
    # given, is a (N, hid, m, H*W) buffer the products may be written into.
    n, hid, win, h, w = hidden.shape
    y = np.matmul(w2.reshape(hid, -1, win), hidden.reshape(n, hid, win, h * w), out=out)
    return y.reshape(n, len(w2), h, w)


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
    # Both stages return fresh matmul outputs, so the biases go in in place,
    # under the small ufunc buffer that per-channel adds take faster.
    with ops._small_ufunc_buffer():
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


def _refco_terms(spec: SFConvSpec, branches1, branches2) -> tuple:
    """Both stages' branches, checked, as the ``(terms, shift)`` pairs that
    ``_refco`` runs and ``_merge_refco`` folds. ``terms`` holds per branch
    its weight and its BN's scale, shaped to scale the stage's products as
    ``_refco`` lays them out, (N, win, hid, H*W) and (N, hid, m, H*W);
    ``shift`` is the stage's summed BN shift, the float32 sum of the
    branches' shifts from zeros in branch order, shaped the same.

    A branch is ``(weight, gamma, beta, mean, var, eps)``. The branch counts
    are checked first. Then, stage 1 before stage 2, one ``_bn_scale_shift``
    call sets up the stage's BNs, and each branch's weight shape is checked.
    """
    w1, w2 = spec.weight_shapes()
    stages = ((branches1, spec.windows, "C/K", w1, (1, 1, -1, 1)),
              (branches2, spec.kernel, "K", w2, (1, spec.hidden_channels, -1, 1)))
    for i, (branches, count, law, _, _) in enumerate(stages, 1):
        if len(branches) != count:
            raise ShapeError(
                f"stage {i} needs exactly {count} branches ({law}), got {len(branches)}")
    terms = []
    for i, (branches, _, _, shape, axes) in enumerate(stages, 1):
        s, t = _bn_scale_shift([br[1:] for br in branches], shape[0], f"stage-{i} branch {{}} "
                               "normalization over {} channels, expected {}")
        for j, br in enumerate(branches):
            if br[0].shape != shape:
                raise ShapeError(f"stage-{i} branch {j} weight shape {br[0].shape}")
        shift = np.zeros(shape[0], np.float32)
        for tb in t:
            shift += tb
        terms.append((tuple(zip((as_f32(br[0]) for br in branches), s.reshape(len(s), *axes))),
                      shift.reshape(axes)))
    return tuple(terms)


def refco_forward(x: Tensor, spec: SFConvSpec, branches1, branches2) -> Tensor:
    """Training form: C/K parallel stage-1 branches summed after per-branch
    normalization, then K parallel stage-2 branches summed the same way.

    Stage-1 normalization runs over the K/R hidden channels (shared across
    window positions); stage-2 normalization runs over c_out. Per stage,
    each branch's output is multiplied by its BN scale and added to the
    running sum in branch order; the stage's BN shifts, summed once in
    branch order, are added last. This is the same float32 arithmetic as
    the forward of a RefCO node.
    """
    return _refco(x, spec, *_refco_terms(spec, _branch_rows(branches1), _branch_rows(branches2)))


def _refco(x, spec: SFConvSpec, stage1, stage2) -> np.ndarray:
    """RefCO of ``x`` given its branches as ``_refco_terms``."""
    x = as_f32(x)
    if x.ndim != 4:
        raise ShapeError(f"refco_forward expects a rank-4 input, got rank {x.ndim}")
    xw = _split_windows(x, spec)
    n, _, h, w = x.shape
    hid, win, m = spec.hidden_channels, spec.windows, spec.width_multiplier
    # Stage 1 in blocks p of windows, stage 2 in blocks p of hidden channels,
    # which feed the output channels p.start*m to p.stop*m. Each stage's
    # products are summed as the stacked matmul writes them, (N, win, hid,
    # H*W) and (N, hid, m, H*W); the stages view them as (N, hid, win, H, W)
    # and (N, c_out, H, W).
    products1 = np.empty((n, win, hid, h * w), np.float32)

    def windows(p):
        xp = xw[:, p]
        return lambda wt, buf: (
            _stage1(xp, wt[:, p], buf).transpose(0, 2, 1, 3, 4).reshape(buf.shape))

    _normalized_sum(stage1, products1, windows)
    hidden = products1.reshape(n, win, hid, h, w).transpose(0, 2, 1, 3, 4)
    products2 = np.empty((n, hid, m, h * w), np.float32)

    def hidden_channels(p):
        hp, c = hidden[:, p], slice(p.start * m, p.stop * m)
        return lambda wt, buf: _stage2(hp, wt[c], buf).reshape(buf.shape)

    _normalized_sum(stage2, products2, hidden_channels)
    return products2.reshape(n, spec.c_out, h, w)


def _normalized_sum(stage, out, block) -> None:
    """Write into ``out`` the sum over ``stage``'s terms (w, s) of w's
    products times s, in order, plus the stage's summed shift once.

    ``out`` is laid out as the stage's stacked matmul writes it, the stacked
    axis second, and is computed in blocks along that axis: as many indices
    as keep a block within ``ops._TILE_FLOATS`` floats, and one at least, so
    that a block's sum and scratch stay in L2. ``block(p)`` gives, for the
    slice ``p`` of that axis, the function ``product(w, buf)`` of w's
    products there, laid out as ``buf`` and written into it where the stage
    can. Scales and shifts that vary along the axis (stage 2's) are sliced
    with the block; those that broadcast along it (stage 1's) are not.

    In a block, the first product is written into ``out`` and scaled there;
    each later one goes through one block-sized scratch buffer, is scaled
    there and is added. The shift is added last. Each branch takes two
    passes over its output and the stage one more, where adding each
    branch's own shift would take a third pass per branch. A block makes the
    BLAS calls that the whole stage makes, one per image and stacked index,
    and every step is in place, so the bits are those of the same arithmetic
    out of place over the whole stage. The scale and add passes run under
    ``ops._small_ufunc_buffer``."""
    terms, shift = stage
    size = out.shape[1]
    step = max(1, ops._TILE_FLOATS // max(1, out[:, :1].size))
    scratch = np.empty_like(out[:, :step])
    along = shift.shape[1] > 1
    with ops._small_ufunc_buffer():
        for start in range(0, size, step):
            p = slice(start, min(size, start + step))
            sums, buf, product = out[:, p], scratch[:, :p.stop - start], block(p)
            for k, (w, s) in enumerate(terms):
                if along:
                    s = s[:, p]
                if k:
                    y = product(w, buf)
                    y *= s
                    sums += y
                else:
                    np.multiply(product(w, sums), s, out=sums)
            sums += shift[:, p] if along else shift


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
    (terms1, shift1), (terms2, shift2) = stages
    shape1, shape2 = spec.weight_shapes()
    w1 = np.zeros(shape1, dtype=np.float32)
    for w, s in terms1:
        w1 += w * s.reshape(-1, 1, 1)
    b1 = np.repeat(shift1.reshape(-1, 1), spec.windows, axis=1)

    w2 = np.zeros(shape2, dtype=np.float32)
    for w, s in terms2:
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
    Each kind's matrix is its connection rule over every (o, i) pair."""
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
        # Hidden node (h, p) is r = h*windows + p: output o reads the nodes of
        # hidden channel o // width_multiplier, and node r reads window p.
        spec = pattern.spec
        r = np.arange(spec.hidden_channels * spec.windows)
        direct = ((o // spec.width_multiplier == r // spec.windows)
                  @ (r[:, None] % spec.windows == i // spec.kernel))
    return direct.sum(axis=1)
