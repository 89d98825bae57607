"""Dense tensor container, the RTF1 on-disk format, IDX ingestion, and the
bounds-checked reader behind the RNM1/RNS1 model loaders.

RTF1 layout (little-endian throughout):

    magic   4 bytes  b"RTF1"
    dtype   u8       1 = real64, 2 = uint32
    ndim    u8       1..4
    shape   ndim * u64
    payload prod(shape) elements, row-major

All real payloads are 64-bit; label payloads are uint32.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    ShapeError,
    TruncatedFileError,
    UnknownDtypeError,
    VersionError,
)

MAGIC = b"RTF1"

DTYPE_REAL64 = 1
DTYPE_UINT32 = 2

_NUMPY_DTYPES = {
    DTYPE_REAL64: np.dtype("<f8"),
    DTYPE_UINT32: np.dtype("<u4"),
}

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803


@dataclass(frozen=True)
class Tensor:
    """Row-major dense tensor with 1 to 4 dimensions."""

    shape: tuple[int, ...]
    data: np.ndarray
    dtype: int = DTYPE_REAL64

    def __post_init__(self) -> None:
        if not 1 <= len(self.shape) <= 4:
            raise ShapeError(f"tensor rank must be 1..4, got {len(self.shape)}")
        if self.dtype not in _NUMPY_DTYPES:
            raise UnknownDtypeError(f"unknown dtype code {self.dtype}")
        flat = np.ascontiguousarray(self.data, dtype=_NUMPY_DTYPES[self.dtype]).reshape(-1)
        expected = int(np.prod(self.shape))
        if flat.size != expected:
            raise ShapeError(
                f"shape {self.shape} implies {expected} elements, data has {flat.size}"
            )
        object.__setattr__(self, "data", flat)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor":
        arr = np.asarray(arr)
        code = DTYPE_UINT32 if arr.dtype.kind in "ui" else DTYPE_REAL64
        return cls(shape=tuple(arr.shape), data=arr, dtype=code)

    def to_array(self) -> np.ndarray:
        return self.data.reshape(self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.dtype == other.dtype
            and np.array_equal(self.data, other.data)
        )


def write_tensor(path, t: Tensor) -> None:
    """Serialize ``t`` to ``path`` in the RTF1 format."""
    header = MAGIC + struct.pack("<BB", t.dtype, len(t.shape))
    header += struct.pack(f"<{len(t.shape)}Q", *t.shape)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(t.data.tobytes())
    except OSError as exc:
        raise OSError(f"failed writing tensor to {path}: {exc}") from exc


def read_tensor(path) -> Tensor:
    """Read an RTF1 file; exact inverse of :func:`write_tensor`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: expected magic {MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 6:
        raise TruncatedFileError(f"{path}: header truncated")
    dtype, ndim = struct.unpack_from("<BB", blob, 4)
    if dtype not in _NUMPY_DTYPES:
        raise UnknownDtypeError(f"{path}: unknown dtype code {dtype}")
    if not 1 <= ndim <= 4:
        raise ShapeError(f"{path}: rank {ndim} outside 1..4")
    offset = 6 + 8 * ndim
    if len(blob) < offset:
        raise TruncatedFileError(f"{path}: shape header truncated")
    shape = struct.unpack_from(f"<{ndim}Q", blob, 6)
    np_dtype = _NUMPY_DTYPES[dtype]
    nbytes = int(np.prod(shape)) * np_dtype.itemsize
    payload = blob[offset:]
    if len(payload) < nbytes:
        raise TruncatedFileError(
            f"{path}: payload has {len(payload)} bytes, header declares {nbytes}"
        )
    data = np.frombuffer(payload[:nbytes], dtype=np_dtype).copy()
    return Tensor(shape=tuple(int(s) for s in shape), data=data, dtype=dtype)


class ContainerReader:
    """Reads a model container front to back: magic and version on opening,
    then header fields and arrays. Every read is checked against the file
    length, so a short file raises TruncatedFileError, never a bare struct or
    numpy error."""

    def __init__(self, path, magic: bytes, version: int) -> None:
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.path = path
        self.offset = 0
        if not magic.startswith(self.blob[: len(magic)]):
            raise BadMagicError(f"{path}: expected magic {magic!r}")
        self._advance(len(magic))
        (found,) = self.unpack("<I")
        if found != version:
            raise VersionError(f"{path}: unsupported model version {found}")

    def require(self, nbytes: int) -> None:
        """Fail unless ``nbytes`` more bytes follow the current offset."""
        if self.offset + nbytes > len(self.blob):
            raise TruncatedFileError(
                f"{self.path}: file has {len(self.blob)} bytes, format requires "
                f"{self.offset + nbytes}"
            )

    def _advance(self, nbytes: int) -> int:
        self.require(nbytes)
        start = self.offset
        self.offset += nbytes
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A fresh copy of the next prod(shape) elements."""
        dt = np.dtype(dtype)
        count = math.prod(shape)
        start = self._advance(count * dt.itemsize)
        return np.frombuffer(self.blob, dtype=dt, count=count, offset=start).reshape(shape).copy()


def read_idx(path) -> Tensor:
    """Decode an IDX file (big-endian header).

    Image files (magic 0x803) become an m x H x W real64 tensor with raw
    bytes scaled to [0, 1] by dividing by 255. Label files (magic 0x801)
    become an m-length uint32 tensor.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise TruncatedFileError(f"{path}: missing IDX magic")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic == IDX_MAGIC_LABELS:
        ndim = 1
    elif magic == IDX_MAGIC_IMAGES:
        ndim = 3
    else:
        raise UnknownDtypeError(f"{path}: unsupported IDX magic 0x{magic:08x}")
    offset = 4 + 4 * ndim
    if len(blob) < offset:
        raise TruncatedFileError(f"{path}: IDX dimension header truncated")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = int(np.prod(dims))
    payload = blob[offset:]
    if len(payload) < count:
        raise ShapeError(
            f"{path}: IDX declares {count} bytes of data, found {len(payload)}"
        )
    raw = np.frombuffer(payload[:count], dtype=np.uint8)
    if magic == IDX_MAGIC_LABELS:
        return Tensor(shape=(dims[0],), data=raw.astype("<u4"), dtype=DTYPE_UINT32)
    images = raw.astype("<f8") / 255.0
    return Tensor(shape=tuple(int(d) for d in dims), data=images, dtype=DTYPE_REAL64)
