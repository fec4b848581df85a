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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import BnParams, ShapeError, Tensor, as_f32, batch_norm_infer

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
    def stride(self) -> int:
        return self.kernel

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


def admissible_kernel_sizes(c_in: int, c_out: int, reduction: int) -> list[int]:
    return [k for k in range(1, c_in + 1)
            if c_in % k == 0 and k % reduction == 0 and c_out % (k // reduction) == 0]


def choose_kernel_size(c_in: int, c_out: int, reduction: int = 2) -> int:
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
    return spec.c_in * spec.kernel // spec.reduction + spec.c_out * spec.c_in // spec.kernel


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
        s = self.spec
        object.__setattr__(self, "w1", as_f32(self.w1))
        object.__setattr__(self, "w2", as_f32(self.w2))
        if self.w1.shape != (s.hidden_channels, s.windows, s.kernel):
            raise ShapeError(
                f"w1 shape {self.w1.shape}, expected {(s.hidden_channels, s.windows, s.kernel)}")
        if self.w2.shape != (s.c_out, s.windows):
            raise ShapeError(f"w2 shape {self.w2.shape}, expected {(s.c_out, s.windows)}")
        if self.bias1 is not None:
            object.__setattr__(self, "bias1", as_f32(self.bias1))
            if self.bias1.shape != (s.hidden_channels, s.windows):
                raise ShapeError(
                    f"bias1 shape {self.bias1.shape}, expected {(s.hidden_channels, s.windows)}")
        if self.bias2 is not None:
            object.__setattr__(self, "bias2", as_f32(self.bias2).reshape(-1))
            if self.bias2.shape != (s.c_out,):
                raise ShapeError(f"bias2 length {self.bias2.shape[0]}, expected {s.c_out}")


def _split_windows(x: np.ndarray, spec: SFConvSpec) -> np.ndarray:
    """View (N, C, H, W) as (N, windows, kernel, H, W); channel = p*K + t."""
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ShapeError(f"input has {c} channels, spec expects {spec.c_in}")
    return x.reshape(n, spec.windows, spec.kernel, h, w)


def _stage1(xw: np.ndarray, w1: np.ndarray) -> np.ndarray:
    # (hid, win, K) x (N, win, K, H, W) -> (N, hid, win, H, W)
    return np.einsum("hpt,nptij->nhpij", w1, xw, optimize=True)


def _stage2(hidden: np.ndarray, w2: np.ndarray, spec: SFConvSpec) -> np.ndarray:
    # Output channel o reads hidden channel o // width_multiplier at every window.
    n = hidden.shape[0]
    w2r = w2.reshape(spec.hidden_channels, spec.width_multiplier, spec.windows)
    out = np.einsum("hmp,nhpij->nhmij", w2r, hidden, optimize=True)
    return out.reshape(n, spec.c_out, hidden.shape[3], hidden.shape[4])


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
    hidden = _stage1(xw, w.w1)
    if w.bias1 is not None:
        hidden = hidden + w.bias1[None, :, :, None, None]
    out = _stage2(hidden, w.w2, spec)
    if w.bias2 is not None:
        out = out + w.bias2.reshape(1, -1, 1, 1)
    return out


@dataclass(frozen=True)
class RefCOBranch:
    """One parallel branch: a weight bank plus its normalization."""
    weight: np.ndarray
    bn: BnParams


def _check_refco(spec: SFConvSpec, branches1, branches2):
    if len(branches1) != spec.windows:
        raise ShapeError(
            f"stage 1 needs exactly {spec.windows} branches (C/K), got {len(branches1)}")
    if len(branches2) != spec.kernel:
        raise ShapeError(
            f"stage 2 needs exactly {spec.kernel} branches (K), got {len(branches2)}")
    for i, br in enumerate(branches1):
        if br.weight.shape != (spec.hidden_channels, spec.windows, spec.kernel):
            raise ShapeError(f"stage-1 branch {i} weight shape {br.weight.shape}")
        if br.bn.channels != spec.hidden_channels:
            raise ShapeError(
                f"stage-1 branch {i} normalization over {br.bn.channels} channels, "
                f"expected {spec.hidden_channels}")
    for i, br in enumerate(branches2):
        if br.weight.shape != (spec.c_out, spec.windows):
            raise ShapeError(f"stage-2 branch {i} weight shape {br.weight.shape}")
        if br.bn.channels != spec.c_out:
            raise ShapeError(
                f"stage-2 branch {i} normalization over {br.bn.channels} channels, "
                f"expected {spec.c_out}")


def refco_forward(x: Tensor, spec: SFConvSpec, branches1, branches2) -> Tensor:
    """Training form: C/K parallel stage-1 branches summed after per-branch
    normalization, then K parallel stage-2 branches summed the same way.

    Stage-1 normalization runs over the K/R hidden channels (shared across
    window positions); stage-2 normalization runs over c_out.
    """
    x = as_f32(x)
    if x.ndim != 4:
        raise ShapeError(f"refco_forward expects a rank-4 input, got rank {x.ndim}")
    branches1 = tuple(branches1)
    branches2 = tuple(branches2)
    _check_refco(spec, branches1, branches2)
    xw = _split_windows(x, spec)

    hidden = None
    for br in branches1:
        y = _stage1(xw, as_f32(br.weight))
        s, t = br.bn.scale_shift()
        y = y * s[None, :, None, None, None] + t[None, :, None, None, None]
        hidden = y if hidden is None else hidden + y

    out = None
    for br in branches2:
        y = _stage2(hidden, as_f32(br.weight), spec)
        y = batch_norm_infer(y, br.bn)
        out = y if out is None else out + y
    return out


def random_refco_branches(spec: SFConvSpec, rng: np.random.Generator, *,
                          weight_scale: float | None = None,
                          gamma_range=(0.5, 1.5), beta_range=(-0.3, 0.3),
                          mean_range=(-0.3, 0.3), var_range=(0.5, 2.0),
                          eps: float = 1e-5):
    """Draw the two branch lists. Default weight scale keeps the summed branch
    outputs near unit variance: 1/sqrt(taps * branches) per stage."""
    default = (spec.kernel * spec.windows) ** -0.5
    s1_scale = weight_scale if weight_scale is not None else default
    s2_scale = weight_scale if weight_scale is not None else default

    def bn(c):
        return BnParams.random(c, rng, gamma_range=gamma_range, beta_range=beta_range,
                               mean_range=mean_range, var_range=var_range, eps=eps)

    b1 = tuple(
        RefCOBranch((rng.standard_normal((spec.hidden_channels, spec.windows, spec.kernel))
                     * s1_scale).astype(np.float32), bn(spec.hidden_channels))
        for _ in range(spec.windows))
    b2 = tuple(
        RefCOBranch((rng.standard_normal((spec.c_out, spec.windows))
                     * s2_scale).astype(np.float32), bn(spec.c_out))
        for _ in range(spec.kernel))
    return b1, b2


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
    neurons, computed by reachability over the pattern's connection graph."""
    c_in, c_out = pattern.c_in, pattern.c_out
    if pattern.kind == "dense":
        direct = np.ones((c_out, c_in), dtype=bool)
    elif pattern.kind == "group":
        g = pattern.groups
        direct = np.zeros((c_out, c_in), dtype=bool)
        in_per, out_per = c_in // g, c_out // g
        for o in range(c_out):
            gi = o // out_per
            direct[o, gi * in_per:(gi + 1) * in_per] = True
    elif pattern.kind == "channel_wise":
        k = pattern.window
        direct = np.zeros((c_out, c_in), dtype=bool)
        for o in range(c_out):
            start = (o * c_in) // c_out
            direct[o, (start + np.arange(k)) % c_in] = True
    else:
        spec = pattern.spec
        hid, win, k = spec.hidden_channels, spec.windows, spec.kernel
        # hidden node (h, p) is row h*win + p
        a1 = np.zeros((hid * win, c_in), dtype=bool)
        for h in range(hid):
            for p in range(win):
                a1[h * win + p, p * k:(p + 1) * k] = True
        a2 = np.zeros((c_out, hid * win), dtype=bool)
        m = spec.width_multiplier
        for o in range(c_out):
            h = o // m
            a2[o, h * win:(h + 1) * win] = True
        direct = a2 @ a1
    return direct.sum(axis=1)
