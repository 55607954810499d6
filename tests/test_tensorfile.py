import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import set_bundle_header
from oatdar import tensorfile
from oatdar.errors import TensorFileError
from oatdar.tensorfile import (bundle_file, read_bundle, read_tensor,
                               write_bundle, write_tensor)


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
    path = write_bundle(tmp_path / "b", arrays, meta)
    assert list(tmp_path.iterdir()) == [path]
    assert list(path.iterdir()) == [bundle_file(path)]
    assert bundle_file(path).is_file()
    back, meta2 = read_bundle(tmp_path / "b")
    assert meta2 == meta
    assert list(back) == ["w", "b"]
    assert np.array_equal(back["w"], arrays["w"])
    assert np.array_equal(back["b"], arrays["b"])
    assert back["b"].dtype == np.float32 and back["b"].flags.writeable


def test_bundle_missing_manifest(tmp_path):
    """A directory of the older one-file-per-array format, an empty
    directory, a file or a missing path is no bundle."""
    (tmp_path / "nb").mkdir()
    (tmp_path / "nb" / "bundle.json").write_text("{}")
    (tmp_path / "empty").mkdir()
    write_tensor(tmp_path / "a.oatd", np.zeros(2))
    for path in (tmp_path / "nb", tmp_path / "empty", tmp_path / "a.oatd",
                 tmp_path / "missing"):
        with pytest.raises(TensorFileError, match="cannot read"):
            read_bundle(path)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bundle_corruption_rejected(tmp_path_factory, data):
    """The header CRC, the records' CRCs and the length checks cover every
    byte of a bundle: a truncated file, a flipped bit or trailing bytes are
    refused."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    path = write_bundle(tmp_path / "b", {"w": np.arange(6.0).reshape(2, 3),
                                         "b": np.ones(2, dtype=np.float32)},
                        {"epoch": 3})
    raw = bytearray(bundle_file(path).read_bytes())
    mode = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if mode == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mode == "flip":
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(
            st.integers(0, 7))
    else:
        raw += b"\x00" * data.draw(st.integers(1, 16))
    bundle_file(path).write_bytes(bytes(raw))
    with pytest.raises(TensorFileError):
        read_bundle(path)


@pytest.mark.parametrize("field", ["header-length", "record-dims"])
def test_bundle_lengths_past_the_end_are_refused_before_allocation(
        tmp_path, field):
    """A header length of 4 GB or a record dimension of 128 GB, in a file
    of 79 bytes, is refused, not allocated."""
    path = write_bundle(tmp_path / "b", {"w": np.zeros(2)})
    raw = bytearray(bundle_file(path).read_bytes())
    if field == "header-length":
        struct.pack_into("<I", raw, 6, 2**32 - 1)
    else:   # past the bundle header, its JSON and CRC, the record header
        n = len(b'{"arrays": ["w"], "meta": {}}')
        struct.pack_into("<Q", raw, 14 + n + 8, 2**34)
    bundle_file(path).write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="truncated"):
        read_bundle(path)


@pytest.mark.parametrize("text", [
    b"{", b'{"arrays": ["w\xff"], "meta": {}}', b"[]", b'{"meta": {}}',
    b'{"arrays": [1], "meta": {}}', b'{"arrays": ["w"], "meta": 3}',
    b'{"arrays": ["w", "w"], "meta": {}}', b'{"arrays": ["w"]}',
], ids=["not-json", "not-utf8", "list", "no-arrays", "arrays-list",
        "meta-not-object", "repeated-name", "no-meta"])
def test_bundle_unreadable_manifest(tmp_path, text):
    """A header JSON of the wrong shape, its length and CRC intact."""
    path = write_bundle(tmp_path / "b", {"w": np.zeros(2)})
    set_bundle_header(path, text)
    with pytest.raises(TensorFileError, match="unreadable header"):
        read_bundle(path)


def _fail_on_third_array(monkeypatch):
    real, calls = tensorfile.write_tensor, []

    def failing(dst, arr):
        calls.append(arr)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(dst, arr)

    monkeypatch.setattr(tensorfile, "write_tensor", failing)


def test_bundle_write_failure_keeps_previous_bundle(tmp_path, monkeypatch):
    path = tmp_path / "ckpt"
    a = {f"a{i}": np.full(3, float(i)) for i in range(4)}
    write_bundle(path, a, {"epoch": 1})
    _fail_on_third_array(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write_bundle(path, {f"b{i}": np.zeros(2) for i in range(5)},
                     {"epoch": 2})
    back, meta = read_bundle(path)
    assert meta == {"epoch": 1}
    assert list(back) == list(a)
    assert all(np.array_equal(back[k], a[k]) for k in a)
    assert list(path.iterdir()) == [bundle_file(path)]


def _killed_mid_write(tmp_path, monkeypatch):
    """A bundle at ``ckpt`` plus the temp file a process killed while
    writing the next one leaves: a complete newer bundle file."""
    path = write_bundle(tmp_path / "ckpt", {"w": np.ones(3)}, {"epoch": 1})
    monkeypatch.setattr(tensorfile.os, "replace", lambda src, dst: None)
    write_bundle(path, {"w": np.zeros(3)}, {"epoch": 2})
    monkeypatch.undo()
    (tmp,) = set(path.iterdir()) - {bundle_file(path)}
    newer = write_bundle(tmp_path / "newer", {"w": np.zeros(3)}, {"epoch": 2})
    assert tmp.read_bytes() == bundle_file(newer).read_bytes()
    return path, tmp


def test_bundle_write_replaces_a_stale_tmp(tmp_path, monkeypatch):
    path, tmp = _killed_mid_write(tmp_path, monkeypatch)
    tmp.write_bytes(b"half a bundle")
    write_bundle(path, {"w": np.full(3, 2.0)}, {"epoch": 3})
    assert read_bundle(path)[1] == {"epoch": 3}
    assert list(path.iterdir()) == [bundle_file(path)]


def test_bundle_read_ignores_a_stale_tmp(tmp_path, monkeypatch):
    path, tmp = _killed_mid_write(tmp_path, monkeypatch)
    arrays, meta = read_bundle(path)
    assert meta == {"epoch": 1} and np.array_equal(arrays["w"], np.ones(3))
    bundle_file(path).unlink()
    with pytest.raises(TensorFileError, match="cannot read"):
        read_bundle(path)


def test_bundle_overwrite_drops_stale_arrays(tmp_path):
    path = tmp_path / "ckpt"
    write_bundle(path, {f"a{i}": np.zeros(2) for i in range(3)})
    write_bundle(path, {"only": np.ones(2)}, {"v": 2})
    back, meta = read_bundle(path)
    assert list(back) == ["only"] and meta == {"v": 2}
    assert list(path.iterdir()) == [bundle_file(path)]


def test_bundle_refuses_to_replace_other_content(tmp_path):
    """A directory of other files, a bundle of the older format, a directory
    where the temp file goes (as the older format's crash leftovers named
    ``.<name>.tmp`` are) or a file stays as it is."""
    for name in ("d", "old", "tmpdir"):
        (tmp_path / name).mkdir()
    (tmp_path / "d" / "notes.txt").write_text("keep")
    (tmp_path / "old" / "bundle.json").write_text("{}")
    write_bundle(tmp_path / "tmpdir", {"w": np.zeros(2)})
    (tmp_path / "tmpdir" / tensorfile._BUNDLE_TMP).mkdir()
    (tmp_path / "notes.txt").write_text("keep")
    for name in ("d", "old", "tmpdir", "notes.txt"):
        with pytest.raises(TensorFileError, match="not a bundle"):
            write_bundle(tmp_path / name, {"w": np.zeros(2)})
    assert (tmp_path / "d" / "notes.txt").read_text() == "keep"
    assert (tmp_path / "notes.txt").read_text() == "keep"
    assert (tmp_path / "tmpdir" / tensorfile._BUNDLE_TMP).is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "d", "notes.txt", "old", "tmpdir"]


def test_bundle_write_into_an_empty_directory(tmp_path):
    """An empty directory, as a crash before a bundle's first rename
    leaves, is replaced; the older format's crash leftovers beside it are
    left alone."""
    (tmp_path / "ckpt").mkdir()
    (tmp_path / ".ckpt.tmp").mkdir()
    (tmp_path / ".ckpt.old").mkdir()
    write_bundle(tmp_path / "ckpt", {"w": np.ones(2)}, {"epoch": 0})
    assert read_bundle(tmp_path / "ckpt")[1] == {"epoch": 0}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".ckpt.old", ".ckpt.tmp", "ckpt"]
