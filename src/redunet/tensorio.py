"""Dense tensor container, the RTF1 on-disk format, IDX ingestion, and the
one bounds-checked reader behind every loader (RTF1, IDX, RNM1 and RNS1).

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
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    UnknownDtypeError,
    VersionError,
)
from .rate import check_labels

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
    """Row-major dense tensor with 1 to 4 dimensions. Data for a uint32
    (label) tensor that is not already uint32 must pass
    :func:`redunet.rate.check_labels`, so it is never wrapped or truncated."""

    shape: tuple[int, ...]
    data: np.ndarray
    dtype: int = DTYPE_REAL64

    def __post_init__(self) -> None:
        if not 1 <= len(self.shape) <= 4:
            raise ShapeError(f"tensor rank must be 1..4, got {len(self.shape)}")
        if self.dtype not in _NUMPY_DTYPES:
            raise UnknownDtypeError(f"unknown dtype code {self.dtype}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        data = self.data
        if self.dtype == DTYPE_UINT32 and np.asarray(data).dtype != np.uint32:
            data = check_labels(data)
        flat = np.ascontiguousarray(data, dtype=_NUMPY_DTYPES[self.dtype]).reshape(-1)
        expected = math.prod(self.shape)
        if flat.size != expected:
            raise ShapeError(
                f"shape {self.shape} implies {expected} elements, data has {flat.size}"
            )
        object.__setattr__(self, "data", flat)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor":
        """Integer arrays become uint32 (label) tensors, every other array a
        real64 tensor."""
        arr = np.asarray(arr)
        return cls(shape=arr.shape, data=arr,
                   dtype=DTYPE_UINT32 if arr.dtype.kind in "ui" else DTYPE_REAL64)

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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(t.data)  # contiguous little-endian buffer, written without a copy


def read_tensor(path) -> Tensor:
    """Read an RTF1 file; exact inverse of :func:`write_tensor`."""
    with ContainerReader(path, MAGIC) as r:
        dtype, ndim = r.unpack("<BB")
        if dtype not in _NUMPY_DTYPES:
            raise UnknownDtypeError(f"{path}: unknown dtype code {dtype}")
        if not 1 <= ndim <= 4:
            raise ShapeError(f"{path}: rank {ndim} outside 1..4")
        shape = r.unpack(f"<{ndim}Q")
        data = r.array(_NUMPY_DTYPES[dtype], shape)
        r.end()
    return Tensor(shape=shape, data=data, dtype=dtype)


class ContainerReader:
    """Reads a binary file front to back: the magic (if given) and, if
    ``versions`` lists the supported ones, the u32 version (kept as
    ``version``) on opening, then header fields and arrays. Every read
    is checked against the file length before anything is read or
    allocated, so a short file raises TruncatedFileError, never a bare
    struct or numpy error, and :meth:`end` rejects bytes after the declared
    content. Arrays are read straight into their own buffers, so reading a
    file costs its size once. Use it as a context manager: the file is
    closed on leaving it, and at once if opening fails."""

    def __init__(self, path, magic: bytes = b"", versions: tuple[int, ...] = ()) -> None:
        self.path = path
        self.offset = 0
        self._fh = open(path, "rb")
        try:
            self.size = os.fstat(self._fh.fileno()).st_size
            if not magic.startswith(self._fh.read(len(magic))):
                raise BadMagicError(f"{path}: expected magic {magic!r}")
            self.require(len(magic))
            self.offset = len(magic)
            if versions:
                (self.version,) = self.unpack("<I")
                if self.version not in versions:
                    raise VersionError(f"{path}: unsupported version {self.version}")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def require(self, nbytes: int) -> None:
        """Fail unless ``nbytes`` more bytes follow the current offset."""
        if self.offset + nbytes > self.size:
            raise TruncatedFileError(
                f"{self.path}: file has {self.size} bytes, format requires "
                f"{self.offset + nbytes}"
            )

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._read_into(bytearray(struct.calcsize(fmt))))

    def array(self, dtype, shape: tuple[int, ...]) -> np.ndarray:
        """The next prod(shape) elements, read into a new array."""
        dt = np.dtype(dtype)
        self.require(math.prod(shape) * dt.itemsize)
        try:  # an empty array may still declare extents numpy cannot index
            out = np.empty(shape, dt)
        except ValueError as exc:
            raise ShapeError(f"{self.path}: unsupported shape {shape}") from exc
        self._read_into(out.reshape(-1).view(np.uint8))
        return out

    def _read_into(self, buf):
        """Fill ``buf`` with the next len(buf) bytes; a file that shrank
        since it was opened is truncated."""
        self.require(len(buf))
        self.offset += len(buf)
        if self._fh.readinto(buf) != len(buf):
            raise TruncatedFileError(f"{self.path}: file ended before byte {self.offset}")
        return buf

    def end(self) -> None:
        """Fail unless the whole file has been read."""
        if self.offset != self.size:
            raise FormatError(f"{self.path}: {self.size - self.offset} trailing bytes")


def read_idx(path) -> Tensor:
    """Decode an IDX file (big-endian header).

    Image files (magic 0x803) become an m x H x W real64 tensor with raw
    bytes scaled to [0, 1] by dividing by 255. Label files (magic 0x801)
    become an m-length uint32 tensor; a short payload raises ShapeError.
    """
    with ContainerReader(path) as r:
        (magic,) = r.unpack(">I")
        if magic not in (IDX_MAGIC_LABELS, IDX_MAGIC_IMAGES):
            raise UnknownDtypeError(f"{path}: unsupported IDX magic 0x{magic:08x}")
        dims = r.unpack(">I" if magic == IDX_MAGIC_LABELS else ">3I")
        try:
            raw = r.array(np.uint8, dims)
        except TruncatedFileError as exc:
            raise ShapeError(f"{path}: IDX payload is shorter than its dimensions") from exc
        r.end()
    if magic == IDX_MAGIC_LABELS:
        return Tensor(shape=dims, data=raw.astype("<u4"), dtype=DTYPE_UINT32)
    return Tensor(shape=dims, data=raw.astype("<f8") / 255.0, dtype=DTYPE_REAL64)
