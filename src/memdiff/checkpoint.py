"""Versioned flat binary container for named arrays plus a JSON metadata blob.

Layout (all integers little-endian):

    magic "MDCK" | u32 version | u32 entry count
    per entry: u16 name length | name utf-8 | u8 dtype length | dtype str
               | u8 ndim | u32 dims... | raw C-order array bytes
    trailer:   u64 metadata length | canonical JSON utf-8

Entries are written in sorted-name order and numbers are stored verbatim,
so identical state always produces identical bytes and round-trips are
bit-exact. No timestamps anywhere. Loading checks every length against
the bytes left in the file, so a truncated or garbled checkpoint raises
DataError naming the file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"MDCK"
VERSION = 1


def save(path: str, arrays: "dict[str, np.ndarray]", meta: "dict | None" = None):
    """Write through a temporary file beside path that then replaces it, so a
    save that fails part way leaves the previous checkpoint whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name])
                dtype = arr.dtype.newbyteorder("<")
                arr = arr.astype(dtype, copy=False)
                name_b = name.encode("utf-8")
                dtype_b = dtype.str.encode("ascii")
                f.write(struct.pack("<H", len(name_b)))
                f.write(name_b)
                f.write(struct.pack("<B", len(dtype_b)))
                f.write(dtype_b)
                f.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    f.write(struct.pack("<I", d))
                f.write(arr.tobytes(order="C"))
            meta_b = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
            f.write(struct.pack("<Q", len(meta_b)))
            f.write(meta_b)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class _Reader:
    """Sequential reads that turn a short or impossible read into DataError."""

    def __init__(self, path: str, f):
        self.path, self.f = path, f
        self.left = os.fstat(f.fileno()).st_size

    def fail(self, what: str):
        raise DataError(f"{self.path}: corrupt checkpoint: {what}")

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            self.fail(f"{what} needs {n} bytes, {self.left} left")
        raw = self.f.read(n)
        if len(raw) != n:
            self.fail(f"{what} read {len(raw)} of {n} bytes")
        self.left -= n
        return raw

    def uint(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def text(self, n: int, encoding: str, what: str) -> str:
        try:
            return self.take(n, what).decode(encoding)
        except UnicodeDecodeError:
            self.fail(f"{what} is not {encoding}")


def load(path: str) -> "tuple[dict[str, np.ndarray], dict]":
    with open(path, "rb") as f:
        r = _Reader(path, f)
        if r.left < len(MAGIC) or r.take(len(MAGIC), "magic") != MAGIC:
            raise DataError(f"{path}: not a memdiff checkpoint")
        version = r.uint("<I", "version")
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        count = r.uint("<I", "entry count")
        arrays: "dict[str, np.ndarray]" = {}
        for i in range(count):
            name = r.text(r.uint("<H", f"entry {i} name length"), "utf-8", f"entry {i} name")
            dtype_s = r.text(r.uint("<B", f"{name!r} dtype length"), "ascii", f"{name!r} dtype")
            try:
                dtype = np.dtype(dtype_s)
            except (TypeError, ValueError):
                dtype = None
            if dtype is None or dtype.kind not in "biufc":   # plain numbers only
                r.fail(f"{name!r} has bad dtype {dtype_s!r}")
            ndim = r.uint("<B", f"{name!r} ndim")
            shape = tuple(r.uint("<I", f"{name!r} shape") for _ in range(ndim))
            raw = r.take(dtype.itemsize * math.prod(shape), f"{name!r} data")
            try:
                arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            except ValueError:   # more dims than numpy allows, or an impossible size
                r.fail(f"{name!r} has bad shape {shape}")
        meta_b = r.take(r.uint("<Q", "metadata length"), "metadata")
        try:
            meta = json.loads(meta_b.decode("utf-8"))
        except ValueError:   # bad utf-8 or bad JSON
            meta = None
        if not isinstance(meta, dict):
            r.fail("metadata is not a JSON object")
        if r.left:
            r.fail(f"{r.left} trailing bytes after the metadata")
    return arrays, meta


def require(arrays: "dict[str, np.ndarray]", name: str) -> np.ndarray:
    """arrays[name]; a missing array raises DataError naming it."""
    try:
        return arrays[name]
    except KeyError:
        raise DataError(f"checkpoint has no array {name!r} "
                        "(written under another config or an older memdiff?)") from None


def counter(arrays: "dict[str, np.ndarray]", name: str) -> int:
    """arrays[name] as a count; anything but one nonnegative integer raises DataError."""
    values = require(arrays, name)
    if values.shape != (1,) or values.dtype.kind not in "iu" or values[0] < 0:
        raise DataError(f"checkpoint array {name!r} ({values.dtype}, shape {values.shape}) "
                        "is not one nonnegative integer")
    return int(values[0])


def refuse_extra(arrays: "dict[str, np.ndarray]", prefix: str, own):
    """Raise DataError naming every array under prefix whose name is not in own."""
    extra = sorted(name for name in arrays if name.startswith(prefix) and name not in own)
    if extra:
        raise DataError(f"checkpoint holds arrays this model does not: "
                        f"{', '.join(map(repr, extra))} "
                        "(written under another config or an older memdiff?)")
