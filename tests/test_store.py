"""Weight container and input-loading tests."""

import struct

import numpy as np
import pytest

from falconnet import StoreError, WeightStore, load_weights, save_weights
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
    np.testing.assert_array_equal(load_input_tensor(path, 8), x)
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
