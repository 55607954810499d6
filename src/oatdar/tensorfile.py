"""Bit-exact on-disk array format shared by every pipeline stage.

One array is a *record* (a file of its own has extension ``.oatd``):

    magic   4 bytes  b"OATD"
    version u16 LE   (currently 1)
    dtype   u8       1 = float32, 2 = float64
    ndim    u8
    dims    ndim x u64 LE
    payload row-major little-endian values
    crc     u32 LE   CRC-32 of the payload bytes

Named arrays plus JSON metadata (checkpoints, serialized operators) are a
*bundle*: a directory holding one file, :func:`bundle_file`. It is magic
b"OATB", version u16 LE, the header's length n as u32 LE, the n-byte UTF-8
JSON header ``{"arrays": [names in order], "meta": {...}}`` and its CRC-32
as u32 LE, then one record per name, in order, up to the end of the file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import TensorFileError

MAGIC = b"OATD"
BUNDLE_MAGIC = b"OATB"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

_BUNDLE_FILE, _BUNDLE_TMP = "bundle.oatb", ".bundle.oatb.tmp"

_HEADER = struct.Struct("<4sHBB")
_BUNDLE_HEADER = struct.Struct("<4sHI")
_CRC = struct.Struct("<I")

# Guard against absurd headers in fuzzed/corrupt files.
_MAX_NDIM = 16
_MAX_ELEMENTS = 1 << 34


def _crc(data) -> bytes:
    return _CRC.pack(zlib.crc32(data) & 0xFFFFFFFF)


def write_tensor(dst, arr: np.ndarray) -> Path | None:
    """Write ``arr`` (float32 or float64) as one record: at the position of
    ``dst`` if it is a binary file open for writing, else as the whole file
    at path ``dst``, which is returned."""
    arr = np.ascontiguousarray(arr)
    code = _DTYPE_CODES.get(arr.dtype.newbyteorder("<"))
    if code is None:
        raise TensorFileError(f"unsupported dtype {arr.dtype}; only float32/float64")
    payload = arr.astype(_CODE_DTYPES[code], copy=False).tobytes()
    record = (_HEADER.pack(MAGIC, VERSION, code, arr.ndim),
              struct.pack(f"<{arr.ndim}Q", *arr.shape), payload, _crc(payload))
    if hasattr(dst, "write"):
        dst.writelines(record)
        return None
    with open(dst, "wb") as fh:
        fh.writelines(record)
    return Path(dst)


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        # the error's own text would name the path again
        raise TensorFileError(f"cannot read {path}: {exc.strerror}") from exc


def _read(fh, n: int, where, what: str, crc: bool = False) -> bytearray:
    """The next ``n`` bytes of ``fh``, then their CRC if ``crc``, checked;
    read into a new buffer only once the file is found to hold them."""
    size = n + _CRC.size * crc
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left or fh.readinto(buf := bytearray(size)) != size:
        raise TensorFileError(f"{where}: truncated {what} ({size} bytes, "
                              f"{left} left)")
    if crc and _crc(memoryview(buf)[:n]) != buf[n:]:
        raise TensorFileError(f"{where}: {what} CRC mismatch")
    return buf


def read_tensor(src) -> np.ndarray:
    """Read one record, validating header, length, and payload CRC: the
    record at the position of ``src`` if it is a binary file open for
    reading, else the whole file at path ``src``.

    The payload is read once into a buffer that the returned (writable)
    array views, so it is held in memory only once.
    """
    if hasattr(src, "read"):
        return _read_record(src, f"{src.name} at byte {src.tell()}")
    with _open(src) as fh:
        arr = _read_record(fh, src)
        if fh.read(1):
            raise TensorFileError(f"{src}: trailing bytes after the CRC")
    return arr


def _read_record(fh, where) -> np.ndarray:
    magic, version, code, ndim = _HEADER.unpack(
        _read(fh, _HEADER.size, where, "header"))
    if ((magic, version) != (MAGIC, VERSION) or code not in _CODE_DTYPES
            or ndim > _MAX_NDIM):
        raise TensorFileError(f"{where}: bad header (magic {magic!r}, version "
                              f"{version}, dtype code {code}, ndim {ndim})")
    dims = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, where, "dims"))
    # a zero dimension must not hide others that no array can have
    if math.prod(d or 1 for d in dims) > _MAX_ELEMENTS:
        raise TensorFileError(f"{where}: implausible dims {dims}")
    dtype, n_elem = _CODE_DTYPES[code], math.prod(dims)
    raw = _read(fh, n_elem * dtype.itemsize, where, "payload", crc=True)
    return np.frombuffer(raw, dtype=dtype, count=n_elem).reshape(dims)


def bundle_file(path) -> Path:
    """The one file that holds the bundle at directory ``path``."""
    return Path(path) / _BUNDLE_FILE


def replaceable(path) -> bool:
    """Whether :func:`write_bundle` may write ``path``: it is missing, or a
    directory holding at most the bundle's file and its temp file."""
    path = Path(path)
    return not path.exists() or (path.is_dir() and all(
        f.name in (_BUNDLE_FILE, _BUNDLE_TMP) and f.is_file()
        for f in path.iterdir()))


def check_replaceable(path):
    """Raise :class:`TensorFileError` unless ``path`` is
    :func:`replaceable`."""
    if not replaceable(path):
        raise TensorFileError(f"{path}: exists and is not a bundle; "
                              "not replacing it")


def write_bundle(path, arrays: dict, meta: dict | None = None) -> Path:
    """Write named arrays + JSON metadata as the bundle directory ``path``;
    refuses to replace anything but a bundle (:func:`check_replaceable`).

    Its file is written as ``.bundle.oatb.tmp`` beside it and renamed onto
    it by one ``os.replace``, so a write that fails (or a crash of the
    process) leaves the previous bundle whole. No reader looks at the temp
    file, and the next write replaces it. A crash before the first rename
    leaves a directory without its file, which reads as a damaged bundle
    until the next write. Nothing is fsynced.
    """
    path = Path(path)
    check_replaceable(path)
    path.mkdir(parents=True, exist_ok=True)
    header = json.dumps({"arrays": list(arrays), "meta": meta or {}},
                        sort_keys=True).encode("utf-8")
    tmp = path / _BUNDLE_TMP
    try:
        with open(tmp, "wb") as fh:
            fh.write(_BUNDLE_HEADER.pack(BUNDLE_MAGIC, VERSION, len(header))
                     + header + _crc(header))
            for arr in arrays.values():
                write_tensor(fh, np.asarray(arr))
        os.replace(tmp, bundle_file(path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_bundle(path) -> tuple[dict, dict]:
    """Read the bundle directory ``path``; returns (arrays, meta). Validates
    the header, every record, and that nothing follows the last one."""
    with _open(bundle_file(path)) as fh:
        magic, version, n = _BUNDLE_HEADER.unpack(
            _read(fh, _BUNDLE_HEADER.size, path, "bundle header"))
        if (magic, version) != (BUNDLE_MAGIC, VERSION):
            raise TensorFileError(f"{path}: not a version {VERSION} bundle "
                                  f"(magic {magic!r}, version {version})")
        raw = _read(fh, n, path, "bundle header", crc=True)
        try:
            header = json.loads(raw[:n].decode("utf-8"))
        except ValueError as exc:   # not UTF-8 or not JSON
            raise TensorFileError(f"{path}: unreadable header: {exc}") from exc
        names = header.get("arrays") if isinstance(header, dict) else None
        if not (isinstance(names, list) and header.keys() == {"arrays", "meta"}
                and all(isinstance(k, str) for k in names)
                and len(set(names)) == len(names)
                and isinstance(header["meta"], dict)):
            raise TensorFileError(f"{path}: unreadable header: 'arrays' "
                                  "must list distinct names, 'meta' an object")
        arrays = {name: read_tensor(fh) for name in names}
        if fh.read(1):
            raise TensorFileError(f"{path}: trailing bytes after the last CRC")
    return arrays, header["meta"]
