"""Volume/field file format and report files.

Binary volume format ("NMV1"):
    bytes 0-3   magic b"NMV1"
    byte  4     dtype code (1 = float32, 2 = float64)
    byte  5     rank (3 or 4)
    then rank little-endian u32 extents, each >= 1, then the payload
    little-endian, C (row-major) order, exactly prod(extents) elements.

Rank-4 with leading extent 3 is a deformation field; rank-3, or rank-4 with
leading extent 1, is an intensity volume.

Reports are JSON with full float precision (repr round-trip, >= 12
significant digits), the engine version, and a config hash.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile

import numpy as np

from .config import ModelConfig
from .errors import (
    BadMagicError,
    ShapeError,
    TruncatedFileError,
    UnknownDtypeError,
    VolumeFormatError,
)
from .metrics import RegistrationReport
from .tensor import Tensor
from .warp import DeformationField, Volume

MAGIC = b"NMV1"
_CODE_OF = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_DTYPE_OF = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def atomic_write_bytes(path, *parts) -> None:
    """Write ``parts`` (bytes-like, one after another) via a temp file in the
    same directory + rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _payload_array(data) -> np.ndarray:
    if isinstance(data, Volume):
        data = data.values
    elif isinstance(data, DeformationField):
        data = data.u
    if isinstance(data, Tensor):
        data = data.data
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim not in (3, 4) or 0 in arr.shape:
        raise ShapeError(
            f"volume files hold rank 3 or 4 arrays of at least one voxel, got shape {arr.shape}"
        )
    return arr


def save_volume(path, data) -> None:
    arr = _payload_array(data)
    code = _CODE_OF[arr.dtype]
    header = MAGIC + struct.pack("<BB", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    # The array's own buffer when it is already little-endian and contiguous.
    payload = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
    atomic_write_bytes(path, header, memoryview(payload).cast("B"))


def load_volume(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 6:
        raise TruncatedFileError(f"{path}: file shorter than the fixed header")
    if blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    code, rank = struct.unpack_from("<BB", blob, 4)
    if code not in _DTYPE_OF:
        raise UnknownDtypeError(f"{path}: unknown dtype code {code}")
    if rank not in (3, 4):
        raise VolumeFormatError(f"{path}: unsupported rank {rank}")
    need = 6 + 4 * rank
    if len(blob) < need:
        raise TruncatedFileError(f"{path}: header truncated")
    extents = struct.unpack_from(f"<{rank}I", blob, 6)
    if 0 in extents:
        raise VolumeFormatError(f"{path}: extents {extents} hold no voxels")
    dtype = _DTYPE_OF[code]
    n = math.prod(extents)  # Python ints: extents near 2**32 must not wrap
    expected = need + n * dtype.itemsize
    if len(blob) != expected:
        raise TruncatedFileError(
            f"{path}: payload is {len(blob) - need} bytes, expected {n * dtype.itemsize}"
        )
    arr = np.frombuffer(blob, dtype=dtype, offset=need).reshape(extents)
    return np.ascontiguousarray(arr.astype(dtype.newbyteorder("=")))


def volume_from_file(path) -> Volume:
    arr = load_volume(path)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.shape[0] != 1:
        raise ShapeError(
            f"{path}: rank-4 leading extent {arr.shape[0]} is not an intensity "
            "volume (1) — a leading 3 is a deformation field"
        )
    return Volume(values=Tensor(arr))


def field_from_file(path) -> DeformationField:
    arr = load_volume(path)
    if arr.ndim != 4 or arr.shape[0] != 3:
        raise ShapeError(f"{path}: deformation fields are [3,D,H,W], got {arr.shape}")
    return DeformationField(u=Tensor(arr))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


ENGINE_VERSION = "0.1.0"


def config_hash(cfg: ModelConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def report_payload(report: RegistrationReport, cfg: ModelConfig) -> dict:
    return {
        "engine_version": ENGINE_VERSION,
        "config_hash": config_hash(cfg),
        "config": cfg.to_dict(),
        "metrics": report.to_dict(),
    }


def write_report(path, report: RegistrationReport, cfg: ModelConfig) -> None:
    payload = report_payload(report, cfg)
    atomic_write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode())
