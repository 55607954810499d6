"""Bit-exact on-disk array format shared by every pipeline stage.

Single-array layout (extension ``.oatd``):

    magic   4 bytes  b"OATD"
    version u16 LE   (currently 1)
    dtype   u8       1 = float32, 2 = float64
    ndim    u8
    dims    ndim x u64 LE
    payload row-major little-endian values
    crc     u32 LE   CRC-32 of the payload bytes

Multiple named arrays plus JSON metadata (checkpoints, serialized operators)
are stored as a *bundle*: a directory containing one ``.oatd`` file per array
and a ``bundle.json`` listing names, files, and arbitrary metadata.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import TensorFileError

MAGIC = b"OATD"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

_HEADER = struct.Struct("<4sHBB")

# Guard against absurd headers in fuzzed/corrupt files.
_MAX_NDIM = 16
_MAX_ELEMENTS = 1 << 34


def write_tensor(path, arr: np.ndarray) -> Path:
    """Write ``arr`` (float32 or float64) to ``path`` in the .oatd layout."""
    path = Path(path)
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        dtype = arr.dtype.newbyteorder("<")
    else:
        raise TensorFileError(f"unsupported dtype {arr.dtype}; only float32/float64")
    code = _DTYPE_CODES[np.dtype(dtype)]
    payload = arr.astype(dtype, copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    return path


def read_tensor(path) -> np.ndarray:
    """Read a .oatd file, validating header, length, and payload CRC.

    The file is read once into a buffer that the returned (writable) array
    views, so the payload is held in memory only once.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            del raw[fh.readinto(raw):]
    except OSError as exc:
        raise TensorFileError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise TensorFileError(f"{path}: truncated header")
    magic, version, code, ndim = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise TensorFileError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise TensorFileError(f"{path}: unsupported version {version}")
    if code not in _CODE_DTYPES:
        raise TensorFileError(f"{path}: unknown dtype code {code}")
    if ndim > _MAX_NDIM:
        raise TensorFileError(f"{path}: ndim {ndim} out of range")
    dims_end = _HEADER.size + 8 * ndim
    if len(raw) < dims_end:
        raise TensorFileError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{ndim}Q", raw, _HEADER.size)
    n_elem = 1
    for d in dims:
        n_elem *= d
    if n_elem > _MAX_ELEMENTS:
        raise TensorFileError(f"{path}: implausible element count {n_elem}")
    dtype = _CODE_DTYPES[code]
    payload_end = dims_end + n_elem * dtype.itemsize
    if len(raw) != payload_end + 4:
        raise TensorFileError(
            f"{path}: length {len(raw)} does not match header "
            f"(expected {payload_end + 4})"
        )
    (crc,) = struct.unpack_from("<I", raw, payload_end)
    if zlib.crc32(memoryview(raw)[dims_end:payload_end]) & 0xFFFFFFFF != crc:
        raise TensorFileError(f"{path}: payload CRC mismatch")
    return np.frombuffer(raw, dtype=dtype, count=n_elem,
                         offset=dims_end).reshape(dims)


def write_bundle(path, arrays: dict, meta: dict | None = None) -> Path:
    """Write named arrays + JSON metadata as a bundle directory.

    The bundle is written into a hidden sibling directory and swapped into
    place only once every file is written, so a write that fails (or a
    crash of the process) leaves the previous bundle at ``path`` readable,
    and no file of an older, larger bundle survives the swap. The two
    renames of the swap are not atomic together; :func:`recover_bundle`
    undoes a crash between them. Nothing is fsynced.
    """
    path = recover_bundle(path)
    if path.exists() and not (path / "bundle.json").is_file() \
            and (not path.is_dir() or any(path.iterdir())):
        raise TensorFileError(f"{path}: exists and is not a bundle; "
                              "not replacing it")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    old = path.with_name(f".{path.name}.old")
    for stale in (tmp, old):  # left behind by an earlier crash
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir()
    try:
        entries = {}
        for i, (name, arr) in enumerate(arrays.items()):
            fname = f"a{i:04d}.oatd"
            write_tensor(tmp / fname, np.asarray(arr))
            entries[name] = fname
        manifest = {"format": "oatdar-bundle", "version": VERSION,
                    "arrays": entries, "meta": meta or {}}
        (tmp / "bundle.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if path.exists():
        path.rename(old)
    tmp.rename(path)
    shutil.rmtree(old, ignore_errors=True)
    return path


def recover_bundle(path) -> Path:
    """``path``, after moving back the bundle that a crash between
    :func:`write_bundle`'s two renames left at ``.<name>.old``.

    Every lookup of a bundle goes through here, so such a bundle is read,
    resumed from and replaced as if the swap had never started.
    """
    path = Path(path)
    old = path.with_name(f".{path.name}.old")
    if old.is_dir() and not path.exists():
        old.rename(path)
    return path


def read_bundle(path) -> tuple[dict, dict]:
    """Read a bundle directory; returns (arrays, meta). Validates every file."""
    path = recover_bundle(path)
    mpath = path / "bundle.json"
    if not mpath.is_file():
        raise TensorFileError(f"{path}: not a bundle (missing bundle.json)")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8 or JSON
        raise TensorFileError(f"{mpath}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise TensorFileError(f"{mpath}: unreadable manifest: not an object")
    if manifest.get("format") != "oatdar-bundle":
        raise TensorFileError(f"{mpath}: not an oatdar bundle")
    files, meta = manifest.get("arrays"), manifest.get("meta", {})
    # each array file is a plain name inside the bundle
    if not (isinstance(files, dict) and isinstance(meta, dict) and all(
            isinstance(f, str) and f not in ("", "..") and Path(f).name == f
            for f in files.values())):
        raise TensorFileError(f"{mpath}: unreadable manifest: 'arrays' must "
                              "map names to files in the bundle and 'meta' "
                              "must be an object")
    return {name: read_tensor(path / f) for name, f in files.items()}, meta
