import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oatdar.errors import TensorFileError
from oatdar.tensorfile import (read_bundle, read_tensor, write_bundle,
                               write_tensor)


def test_roundtrip_f64(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 5, 2))
    p = write_tensor(tmp_path / "a.oatd", arr)
    back = read_tensor(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_roundtrip_f32(tmp_path):
    arr = np.random.default_rng(1).standard_normal((7,)).astype(np.float32)
    back = read_tensor(write_tensor(tmp_path / "a.oatd", arr))
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)
    assert back.flags.writeable     # optimizer moments update in place


def test_scalar_and_empty(tmp_path):
    assert read_tensor(write_tensor(tmp_path / "s.oatd", np.float64(3.5))) == 3.5
    empty = read_tensor(write_tensor(tmp_path / "e.oatd", np.zeros((0, 4))))
    assert empty.shape == (0, 4)


def test_rejects_non_float(tmp_path):
    with pytest.raises(TensorFileError):
        write_tensor(tmp_path / "i.oatd", np.arange(4))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fuzzed_corruption_rejected(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    arr = np.arange(24, dtype=np.float64).reshape(4, 6)
    p = write_tensor(tmp_path / "f.oatd", arr)
    raw = bytearray(p.read_bytes())
    mode = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw = raw[:cut]
    elif mode == "flip":
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        raw[pos] ^= 1 << bit
    else:
        raw += b"\x00" * data.draw(st.integers(min_value=1, max_value=16))
    q = p.with_name("corrupt.oatd")
    q.write_bytes(bytes(raw))
    # every byte is covered by header validation, the length check, or the
    # payload CRC, so any single corruption must be rejected
    with pytest.raises(TensorFileError):
        read_tensor(q)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.oatd"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(TensorFileError):
        read_tensor(p)


def test_bundle_roundtrip(tmp_path):
    arrays = {"w": np.random.default_rng(2).standard_normal((4, 4)),
              "b": np.zeros(4, dtype=np.float32)}
    meta = {"note": "hello", "n": 3}
    write_bundle(tmp_path / "b", arrays, meta)
    back, meta2 = read_bundle(tmp_path / "b")
    assert meta2 == meta
    assert set(back) == {"w", "b"}
    assert np.array_equal(back["w"], arrays["w"])
    assert np.array_equal(back["b"], arrays["b"])


def test_bundle_missing_manifest(tmp_path):
    (tmp_path / "nb").mkdir()
    with pytest.raises(TensorFileError):
        read_bundle(tmp_path / "nb")


@pytest.mark.parametrize("text", [
    b"{", b'{"format": "oatdar-bundle\xff"}', b"[]",
    b'{"format": "oatdar-bundle"}',
    b'{"format": "oatdar-bundle", "arrays": [1]}',
    b'{"format": "oatdar-bundle", "arrays": {"w": "../../etc/passwd"}}',
    b'{"format": "oatdar-bundle", "arrays": {"w": ".."}}',
    b'{"format": "oatdar-bundle", "arrays": {}, "meta": 3}',
], ids=["not-json", "not-utf8", "list", "no-arrays", "arrays-list",
        "outside-the-bundle", "parent-dir", "meta-not-object"])
def test_bundle_unreadable_manifest(tmp_path, text):
    path = write_bundle(tmp_path / "b", {"w": np.zeros(2)})
    (path / "bundle.json").write_bytes(text)
    with pytest.raises(TensorFileError, match="unreadable manifest"):
        read_bundle(path)


def test_bundle_write_failure_keeps_previous_bundle(tmp_path, monkeypatch):
    from oatdar import tensorfile
    path = tmp_path / "ckpt"
    a = {f"a{i}": np.full(3, float(i)) for i in range(4)}
    write_bundle(path, a, {"epoch": 1})
    real, calls = tensorfile.write_tensor, []

    def failing(p, arr):
        calls.append(p)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(p, arr)

    monkeypatch.setattr(tensorfile, "write_tensor", failing)
    with pytest.raises(OSError, match="disk full"):
        write_bundle(path, {f"b{i}": np.zeros(2) for i in range(5)},
                     {"epoch": 2})
    back, meta = read_bundle(path)
    assert meta == {"epoch": 1}
    assert set(back) == set(a)
    assert all(np.array_equal(back[k], a[k]) for k in a)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_bundle_write_restores_bundle_left_mid_swap(tmp_path, monkeypatch):
    from oatdar import tensorfile
    path = tmp_path / "ckpt"
    write_bundle(path, {"w": np.ones(3)}, {"epoch": 1})
    path.rename(tmp_path / ".ckpt.old")  # a crash between the two renames

    def failing(p, arr):
        raise OSError("disk full")

    monkeypatch.setattr(tensorfile, "write_tensor", failing)
    with pytest.raises(OSError):
        write_bundle(path, {"w": np.zeros(3)}, {"epoch": 2})
    assert read_bundle(path)[1] == {"epoch": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_bundle_read_restores_bundle_left_mid_swap(tmp_path):
    path = tmp_path / "ckpt"
    write_bundle(path, {"w": np.ones(3)}, {"epoch": 1})
    path.rename(tmp_path / ".ckpt.old")  # a crash between the two renames
    arrays, meta = read_bundle(path)
    assert meta == {"epoch": 1} and np.array_equal(arrays["w"], np.ones(3))
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_bundle_overwrite_drops_stale_arrays(tmp_path):
    path = tmp_path / "ckpt"
    write_bundle(path, {f"a{i}": np.zeros(2) for i in range(3)})
    write_bundle(path, {"only": np.ones(2)}, {"v": 2})
    assert sorted(p.name for p in path.iterdir()) == ["a0000.oatd",
                                                      "bundle.json"]
    back, meta = read_bundle(path)
    assert list(back) == ["only"] and meta == {"v": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_bundle_refuses_to_replace_other_content(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "notes.txt").write_text("keep")
    with pytest.raises(TensorFileError, match="not a bundle"):
        write_bundle(tmp_path / "d", {"w": np.zeros(2)})
    assert (tmp_path / "d" / "notes.txt").read_text() == "keep"
