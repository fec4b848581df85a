"""Weight container and input-loading tests."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from falconnet import (StoreError, WeightStore, build_model, fuse_model, init_weights,
                       load_weights, preset_config, save_weights)
from falconnet.store import MAGIC, load_input_tensor, read_ppm


def random_store(rng):
    store = WeightStore()
    store.put("stem.conv.weight", rng.standard_normal((8, 3, 3, 3)))
    store.put("stem.bn1.gamma", rng.standard_normal(8))
    store.put("s1.b0.expand.w1", rng.standard_normal((2, 4, 4)))
    store.put("scalarish", rng.standard_normal(1))
    return store


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    store = random_store(rng)
    path = tmp_path / "w.falc"
    save_weights(store, path)
    loaded = load_weights(path)
    assert loaded.names() == store.names()
    assert loaded.equals_bitwise(store)
    # A second save of the loaded store produces identical bytes.
    path2 = tmp_path / "w2.falc"
    save_weights(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_equal_arrays_under_other_names_are_not_bitwise_equal():
    a = np.arange(4, dtype=np.float32)
    assert WeightStore({"x": a}).equals_bitwise(WeightStore({"x": a.copy()}))
    assert not WeightStore({"x": a}).equals_bitwise(WeightStore({"y": a}))


def test_load_holds_one_entry_beside_the_loaded_arrays(tmp_path):
    # Sixteen 256 KiB entries: reading the whole file before parsing it would
    # hold the file's bytes and the arrays at once, twice the arrays' size.
    store = WeightStore()
    for i in range(16):
        store.put(f"w{i}", np.full(1 << 16, i, np.float32))
    path = tmp_path / "w.falc"
    save_weights(store, path)
    tracemalloc.start()
    try:
        loaded = load_weights(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.equals_bitwise(store)
    assert peak < 1.5 * 16 * (1 << 18)


def test_store_keeps_read_only_copies():
    a = np.arange(4, dtype=np.float32)
    store = WeightStore()
    store.put("a", a)
    a[0] = 7  # the caller's array stays the caller's, writable as before
    assert a.flags.writeable
    np.testing.assert_array_equal(store.get("a"), [0, 1, 2, 3])
    with pytest.raises(ValueError):
        store.get("a")[1] = 5
    np.testing.assert_array_equal(store.get("a"), [0, 1, 2, 3])
    got = store.get("a")
    assert got.flags.c_contiguous and got.dtype == np.float32 and not got.flags.writeable


def test_loaded_and_fused_stores_are_read_only(tmp_path):
    path = tmp_path / "w.falc"
    save_weights(random_store(np.random.default_rng(1)), path)
    graph = build_model(replace(preset_config("falconnet"), input_resolution=32))
    _, fused = fuse_model(graph, init_weights(graph))
    for store in (load_weights(path), fused):
        assert not any(arr.flags.writeable for _, arr in store.items())


def test_empty_store_round_trip(tmp_path):
    path = tmp_path / "empty.falc"
    save_weights(WeightStore(), path)
    assert len(load_weights(path)) == 0


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.falc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(StoreError, match="magic"):
        load_weights(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v9.falc"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(StoreError, match="version"):
        load_weights(path)


def test_truncated_file(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "trunc.falc"
    save_weights(random_store(rng), path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 5])
    with pytest.raises(StoreError, match="truncated"):
        load_weights(path)


@pytest.mark.parametrize("extents", [(1 << 24,), (2**31 - 1, 2**31 - 1)],
                         ids=["64MiB", "u32-max-square"])
def test_claimed_size_is_refused_before_it_is_read(tmp_path, extents):
    # A header claiming more data than the file holds is refused before any
    # of it is allocated or read.
    path = tmp_path / "claim.falc"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"w"
                     + struct.pack(f"<{len(extents) + 1}I", len(extents), *extents))
    tracemalloc.start()
    try:
        with pytest.raises(StoreError) as e:
            load_weights(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == "truncated weight file"
    assert peak < 1 << 20


def test_rank_zero_empty_and_rank_eight_entries_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    store = WeightStore()
    store.put("scalar", np.float32(1.5))
    store.put("empty", np.zeros((0, 3)))
    store.put("rank8", rng.standard_normal((2, 1, 3, 1, 2, 1, 1, 2)))
    path = tmp_path / "w.falc"
    save_weights(store, path)
    loaded = load_weights(path)
    assert loaded.names() == ["scalar", "empty", "rank8"]
    for name, arr in loaded.items():
        assert arr.shape == store.get(name).shape
        assert arr.tobytes() == store.get(name).tobytes()
        assert arr.dtype == np.float32 and arr.flags.c_contiguous
        assert not arr.flags.writeable
    save_weights(loaded, tmp_path / "again.falc")
    assert (tmp_path / "again.falc").read_bytes() == path.read_bytes()


def test_trailing_garbage(tmp_path):
    path = tmp_path / "trail.falc"
    save_weights(WeightStore(), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(StoreError, match="trailing"):
        load_weights(path)


def test_duplicate_names_rejected(tmp_path):
    entry = struct.pack("<I", 4) + b"name" + struct.pack("<I", 1) + struct.pack("<I", 1)
    entry += np.zeros(1, "<f4").tobytes()
    path = tmp_path / "dup.falc"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 2) + entry + entry)
    with pytest.raises(StoreError, match="duplicate"):
        load_weights(path)
    store = WeightStore()
    store.put("a", np.zeros(1))
    with pytest.raises(StoreError, match="duplicate"):
        store.put("a", np.zeros(1))


def test_store_refuses_names_the_reader_refuses(tmp_path):
    # The reader takes a name of up to 1 << 16 UTF-8 bytes, so a store must
    # hold no longer one: what saves must load.
    with pytest.raises(StoreError, match="65537 bytes"):
        WeightStore().put("n" * ((1 << 16) + 1), np.zeros(1))
    store = WeightStore()
    store.put("n" * (1 << 16), np.arange(3))
    path = tmp_path / "long.falc"
    save_weights(store, path)
    loaded = load_weights(path)
    assert loaded.names() == store.names() and loaded.equals_bitwise(store)
    save_weights(loaded, tmp_path / "again.falc")
    assert (tmp_path / "again.falc").read_bytes() == path.read_bytes()


def test_missing_entry_error():
    with pytest.raises(StoreError, match="missing weight entry 'nope'"):
        WeightStore().get("nope")


def write_ppm_p6(path, img):
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n# comment\n{w} {h}\n255\n".encode())
        f.write(img.astype(np.uint8).tobytes())


def test_read_ppm_p6(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm_p6(path, img)
    np.testing.assert_array_equal(read_ppm(path), img)


def test_read_ppm_p3(tmp_path):
    img = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    text = "P3\n2 2\n255\n" + " ".join(str(v) for v in img.reshape(-1)) + "\n"
    path = tmp_path / "img3.ppm"
    path.write_text(text)
    np.testing.assert_array_equal(read_ppm(path), img)


def test_load_input_from_ppm_scales_and_resizes(tmp_path):
    img = np.full((2, 2, 3), 255, np.uint8)
    img[0, 0] = [0, 128, 255]
    path = tmp_path / "in.ppm"
    write_ppm_p6(path, img)
    x = load_input_tensor(path, 4)
    assert x.shape == (1, 3, 4, 4)
    assert x.dtype == np.float32
    np.testing.assert_allclose(x[0, :, 0, 0], [0.0, 128 / 255, 1.0], atol=1e-6)
    assert float(x.max()) <= 1.0 and float(x.min()) >= 0.0


def test_load_input_from_container(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    store = WeightStore()
    store.put("input", x)
    path = tmp_path / "in.falc"
    save_weights(store, path)
    loaded = load_input_tensor(path, 8)
    np.testing.assert_array_equal(loaded, x)
    assert loaded.flags.writeable
    with pytest.raises(StoreError, match="8x8"):
        load_input_tensor(path, 16)


def test_load_input_container_requires_input_entry(tmp_path):
    store = WeightStore()
    store.put("not_input", np.zeros((1, 3, 4, 4)))
    path = tmp_path / "noinput.falc"
    save_weights(store, path)
    with pytest.raises(StoreError, match="input"):
        load_input_tensor(path, 4)


def test_load_input_scales_by_maxval(tmp_path):
    path = tmp_path / "max15.ppm"
    path.write_text("P3\n2 1\n15\n15 15 15 0 5 15\n")
    x = load_input_tensor(path, 2)
    np.testing.assert_array_equal(x[0, :, 0, 0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(x[0, :, 0, 1], [0.0, 5 / 15, 1.0], atol=1e-7)


@pytest.mark.parametrize("text", [
    "P3\n1 1\n255\n300 0 0\n",
    "P3\n1 1\n15\n16 0 0\n",
    "P3\n1 1\n255\n-1 0 0\n",
    "P3\n1 1\n255\n99999999999999999999999 0 0\n",
    "P3\n1 1\n255\nx 0 0\n",
])
def test_p3_sample_out_of_range_is_store_error(tmp_path, text):
    path = tmp_path / "bad.ppm"
    path.write_text(text)
    with pytest.raises(StoreError):
        read_ppm(path)
    with pytest.raises(StoreError):
        load_input_tensor(path, 2)


def test_p6_sample_above_maxval_is_store_error(tmp_path):
    path = tmp_path / "bad6.ppm"
    path.write_bytes(b"P6\n1 1\n15\n" + bytes([15, 16, 0]))
    with pytest.raises(StoreError, match="0..15"):
        read_ppm(path)


PIXELS = np.array([[[1, 2, 3], [4, 5, 6]]], np.uint8)


@pytest.mark.parametrize("data, expected", [
    (b"P3# after the magic\n2 # width\n1 # height\n255 # maxval\n1 2 3 4 5 6\n", PIXELS),
    (b"P3\x0b2\x0c1\x0b255\x0c1\x0b2\x0c3\x0b4\x0c5\x0b6", PIXELS),
    (b"P3\n2 1\n255\n1 2 3 # first pixel\n# second pixel\n4 5 6\n", PIXELS),
    (b"P6\n1 1\n255\n#\n\x05", np.array([[[35, 10, 5]]], np.uint8)),
    (b"P3\n1 1\n255\n12#3 0 0\n", "malformed PPM sample"),
    (b"P3\n1 1\n255\n1 2 # 3", "truncated PPM pixel data"),
    (b"P3\n2 1\n255\n1 2 3 4\n", "truncated PPM pixel data"),
    (b"P3\n1 1# h\n255\n1 2 3\n", np.array([[[1, 2, 3]]], np.uint8)),
    (b"P6 1 1 255#x\n\x01\x02\x03", np.array([[[1, 2, 3]]], np.uint8)),
    (b"P6 1 1 255#x", "truncated image header"),
    (b"P3 # magic\n2 # width\n2\t# height\n255 # maxval\n0 0 0 # first pixel\n255 255 255\n"
     b"# last two pixels\n10 20 30 200 100 50\n",
     np.array([[[0, 0, 0], [255, 255, 255]], [[10, 20, 30], [200, 100, 50]]], np.uint8)),
], ids=["header-comments", "vt-ff-separators", "sample-comments", "p6-raster-starts-with-hash",
        "hash-in-sample", "comment-to-end-of-file", "p3-samples-cut-short",
        "hash-ends-header-token",
        "p6-comment-after-maxval", "p6-comment-to-end-of-file", "commented-2x2"])
def test_ppm_tokens_skip_comments_and_whitespace(tmp_path, data, expected):
    # A comment runs from "#" to the end of its line, but a "#" inside a
    # token belongs to the token; every ASCII whitespace byte separates.
    path = tmp_path / "img.ppm"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(StoreError) as e:
            read_ppm(path)
        assert str(e.value) == expected
    else:
        np.testing.assert_array_equal(read_ppm(path), expected, strict=True)


def _read_ppm_text(text):
    def load(tmp_path):
        path = tmp_path / "in.ppm"
        path.write_text(text)
        return read_ppm(path)
    return load


def _load_input_entry(shape):
    def load(tmp_path):
        path = tmp_path / "in.falc"
        save_weights(WeightStore({"input": np.zeros(shape)}), path)
        return load_input_tensor(path, 4)
    return load


@pytest.mark.parametrize("call, message", [
    (lambda tmp_path: WeightStore().put("a", np.zeros((1,) * 9)),
     "entry 'a' has rank 9, maximum is 8"),
    (_read_ppm_text("P3\n0 1\n255\n"), "bad PPM extents 0x1"),
    (_read_ppm_text("P3\n1 1\n0\n0 0 0\n"), "only 8-bit PPM supported, maxval=0"),
    (_read_ppm_text("P3\n1 1\n256\n0 0 0\n"), "only 8-bit PPM supported, maxval=256"),
    (_load_input_entry((3, 4, 4)),
     '"input" entry must be rank 4 with 3 channels, got shape (3, 4, 4)'),
], ids=["rank-9-put", "ppm-width-0", "ppm-maxval-0", "ppm-maxval-256", "rank-3-input"])
def test_invalid_input_is_store_error(tmp_path, call, message):
    with pytest.raises(StoreError) as e:
        call(tmp_path)
    assert str(e.value) == message
