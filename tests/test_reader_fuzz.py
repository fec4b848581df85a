"""Fuzzed file readers: a damaged weight file or image raises StoreError.

``load_weights`` and ``read_ppm`` are fed truncated, byte-flipped and
byte-inserted copies of a valid ``.falc``, P6 and P3 file. A mutated copy
may still be a valid file (a flipped float, an inserted space); when it is
not, the reader must raise ``StoreError`` and nothing else.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from falconnet import StoreError, WeightStore, load_weights, save_weights
from falconnet.store import read_ppm


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("valid")
    store = WeightStore()
    rng = np.random.default_rng(0)
    store.put("stem.conv.weight", rng.standard_normal((4, 3, 1, 1)))
    store.put("stem.bn.gamma", rng.standard_normal(4))
    store.put("scalar", rng.standard_normal(()))
    save_weights(store, tmp / "falc")
    (tmp / "p6").write_bytes(b"P6\n# comment\n3 2\n255\n" + bytes(range(0, 18 * 14, 14)))
    (tmp / "p3").write_bytes(b"P3\n2 2\n15\n0 1 2 3 4 5 6 7 8 9 10 15\n")
    # The unmutated files are accepted by their own reader.
    load_weights(tmp / "falc")
    read_ppm(tmp / "p6")
    read_ppm(tmp / "p3")
    return {kind: (tmp / kind).read_bytes() for kind in ("falc", "p6", "p3")}


@st.composite
def mutations(draw, data: bytes):
    """A truncated, byte-flipped or byte-inserted copy of ``data``."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if kind == "truncate":
        return kind, data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return kind, data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    i = draw(st.integers(0, len(data)))
    return kind, data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]


READERS = {"load_weights": load_weights, "read_ppm": read_ppm}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("base", ["falc", "p6", "p3"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_raises_only_store_error(valid_files, tmp_path, reader, base, data):
    kind, mutated = data.draw(mutations(valid_files[base]))
    path = tmp_path / "mutated"
    path.write_bytes(mutated)
    try:
        READERS[reader](path)
    except StoreError:
        return
    # Every proper prefix of a weight file or a P6 image is incomplete.
    own_reader = "load_weights" if base == "falc" else "read_ppm"
    assert not (kind == "truncate" and base != "p3" and reader == own_reader), \
        "truncated file was accepted"
