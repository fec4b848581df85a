"""Named weight checkpoints and inference-input loading.

The container is a small versioned binary format: magic "FALC", u32
version, u32 entry count, then per entry a u32 name length, the UTF-8
name, a u32 rank, u32 extents, and raw little-endian float32 data. Round
trips are byte exact.
"""

from __future__ import annotations

import math
import os
import re
import struct

import numpy as np

__all__ = [
    "StoreError",
    "WeightStore",
    "save_weights",
    "load_weights",
    "load_input_tensor",
]

MAGIC = b"FALC"
VERSION = 1
_MAX_RANK = 8
_MAX_NAME_BYTES = 1 << 16  # of an entry name's UTF-8 encoding


class StoreError(ValueError):
    """Malformed weight file or missing/duplicate entry."""


class WeightStore:
    """Ordered mapping of dotted names to float32 arrays.

    Entries are only ever added. Each holds a private, read-only, C-contiguous
    copy of the array put, so neither the caller's array nor one handed out by
    ``get`` can change it.
    """

    def __init__(self, entries=None):
        self._entries: dict[str, np.ndarray] = {}
        if entries is not None:
            for name, arr in (entries.items() if hasattr(entries, "items") else entries):
                self.put(name, arr)

    def put(self, name: str, array) -> None:
        self._adopt(name, np.array(array, dtype=np.float32, order="C"))  # a private copy

    def _adopt(self, name: str, array) -> None:
        """Add ``array`` as entry ``name``, copied only to make it C-contiguous
        float32: for an array that no one writes afterwards."""
        if name in self._entries:
            raise StoreError(f"duplicate entry name '{name}'")
        size = len(name.encode("utf-8"))  # the reader refuses a longer name
        if size > _MAX_NAME_BYTES:
            raise StoreError(f"entry name of {size} bytes, maximum is {_MAX_NAME_BYTES}")
        arr = np.asarray(array, dtype=np.float32, order="C")
        if arr.ndim > _MAX_RANK:
            raise StoreError(f"entry '{name}' has rank {arr.ndim}, maximum is {_MAX_RANK}")
        arr.setflags(write=False)
        self._entries[name] = arr

    def get(self, name: str) -> np.ndarray:
        try:
            return self._entries[name]
        except KeyError:
            raise StoreError(f"missing weight entry '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def equals_bitwise(self, other: "WeightStore") -> bool:
        if self.names() != other.names():
            return False
        return all(np.array_equal(a.view(np.uint32), other.get(n).view(np.uint32))
                   for n, a in self.items())


def save_weights(store: WeightStore, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(store)))
        for name, arr in store.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
            f.write(arr.astype("<f4", copy=False))


def load_weights(path) -> WeightStore:
    # Read field by field: each entry's array is a read-only view of the bytes
    # read for it, so the file's data is held once, as the loaded arrays.
    with open(path, "rb") as f:
        return _read_weights(f, os.fstat(f.fileno()).st_size)


def _read_weights(f, size: int) -> WeightStore:
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > size:  # checked before reading what a header claims
            raise StoreError("truncated weight file")
        data = f.read(n)
        if len(data) != n:
            raise StoreError("truncated weight file")
        pos += n
        return data

    magic = take(4)
    if magic != MAGIC:
        raise StoreError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise StoreError(f"unsupported weight file version {version}")
    store = WeightStore()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        if name_len > _MAX_NAME_BYTES:
            raise StoreError(f"implausible name length {name_len}")
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise StoreError(f"undecodable entry name: {e}") from None
        (rank,) = struct.unpack("<I", take(4))
        if rank > _MAX_RANK:
            raise StoreError(f"entry '{name}' has rank {rank}, maximum is {_MAX_RANK}")
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        store._adopt(name, np.ndarray(shape, "<f4", take(4 * math.prod(shape))))
    if pos != size:
        raise StoreError(f"{size - pos} trailing bytes after last entry")
    return store


# A comment runs from "#" to the end of its line; a token is a run of
# non-whitespace. In the header any "#" starts a comment, so it also ends the
# token before it. Among P3 samples a comment starts only where a token would,
# so a "#" inside a sample stays in it.
_PPM_HEADER_TOKEN = re.compile(rb"#[^\n]*|[^\s#]+")
_PPM_SAMPLE_TOKEN = re.compile(rb"#[^\n]*|\S+")


def _read_ppm_tokens(data: bytes, count: int, pos: int, token, what: str):
    """Read ``count`` tokens of ``what``, skipping # comments."""
    tokens = []
    for m in token.finditer(data, pos):
        if m[0][:1] != b"#":
            tokens.append(m[0])
            if len(tokens) == count:
                return tokens, m.end()
    raise StoreError(f"truncated {what}")


def _decode_ppm(path):
    """(H, W, 3) uint8 samples and the maxval of an 8-bit PPM (P6 or P3)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"P6", b"P3"):
        raise StoreError(f"not a PPM image (magic {data[:2]!r})")
    binary = data[:2] == b"P6"
    tokens, pos = _read_ppm_tokens(data, 3, 2, _PPM_HEADER_TOKEN, "image header")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise StoreError("malformed PPM header") from None
    if width <= 0 or height <= 0:
        raise StoreError(f"bad PPM extents {width}x{height}")
    if not 0 < maxval <= 255:
        raise StoreError(f"only 8-bit PPM supported, maxval={maxval}")
    n = width * height * 3
    if binary:
        if data.startswith(b"#", pos):  # a comment right after the maxval runs to its
            pos = data.find(b"\n", pos)  # newline, the whitespace byte before the raster
            if pos < 0:
                raise StoreError("truncated image header")
        pos += 1  # single whitespace after maxval
        if len(data) - pos < n:
            raise StoreError("truncated PPM pixel data")
        pixels = np.frombuffer(data[pos:pos + n], dtype=np.uint8)
    else:
        values, _ = _read_ppm_tokens(data, n, pos, _PPM_SAMPLE_TOKEN, "PPM pixel data")
        try:
            pixels = np.array([int(v) for v in values], dtype=np.int64)
        except (ValueError, OverflowError):
            raise StoreError("malformed PPM sample") from None
    if pixels.min() < 0 or pixels.max() > maxval:
        raise StoreError(f"PPM sample outside 0..{maxval}")
    return pixels.astype(np.uint8).reshape(height, width, 3), maxval


def read_ppm(path) -> np.ndarray:
    """Decode an 8-bit PPM (binary P6 or ASCII P3) into (H, W, 3) uint8."""
    return _decode_ppm(path)[0]


def _nearest_resize(img: np.ndarray, resolution: int) -> np.ndarray:
    h, w = img.shape[:2]
    rows = (np.arange(resolution) * h) // resolution
    cols = (np.arange(resolution) * w) // resolution
    return img[rows][:, cols]


def load_input_tensor(path, resolution: int) -> np.ndarray:
    """Load a (1, 3, resolution, resolution) float32 input.

    PPM images are scaled to [0, 1] by their maxval and resized by nearest
    neighbor; weight containers must hold a single rank-4 entry named
    "input" that already matches the target shape.
    """
    with open(path, "rb") as f:
        head = f.read(2)
    if head in (b"P6", b"P3"):
        pixels, maxval = _decode_ppm(path)
        img = pixels.astype(np.float32) / maxval
        img = _nearest_resize(img, resolution)
        return np.ascontiguousarray(img.transpose(2, 0, 1)[None])
    store = load_weights(path)
    if "input" not in store:
        raise StoreError('input container must hold an entry named "input"')
    x = store.get("input")
    if x.ndim != 4 or x.shape[1] != 3:
        raise StoreError(f'"input" entry must be rank 4 with 3 channels, got shape {x.shape}')
    if x.shape[2] != resolution or x.shape[3] != resolution:
        raise StoreError(
            f'"input" entry is {x.shape[2]}x{x.shape[3]}, model expects '
            f"{resolution}x{resolution}")
    return x.copy()  # writable, as from a PPM; the store's array is read-only
