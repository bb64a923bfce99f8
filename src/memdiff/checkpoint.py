"""Versioned flat binary container for named arrays plus a JSON metadata blob.

Layout (all integers little-endian):

    magic "MDCK" | u32 version | u32 entry count
    per entry: u16 name length | name utf-8 | u8 dtype length | dtype str
               | u8 ndim | u32 dims... | raw C-order array bytes
    trailer:   u64 metadata length | canonical JSON utf-8

Entries are written in sorted-name order and numbers are stored verbatim,
so identical state always produces identical bytes and round-trips are
bit-exact. No timestamps anywhere. Loading reads the file once and checks
every length against the bytes left, so a truncated or garbled checkpoint
raises DataError naming the file; its arrays are views into that one read.
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
    """Write path.tmp, then rename it over path: a failed save leaves the old file whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(arrays)))
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name])
                arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
                name_b, dtype_b = name.encode("utf-8"), arr.dtype.str.encode("ascii")
                f.write(struct.pack(f"<H{len(name_b)}sB{len(dtype_b)}sB{arr.ndim}I", len(name_b),
                                    name_b, len(dtype_b), dtype_b, arr.ndim, *arr.shape))
                f.write(arr)   # its C-order bytes, straight from the array's memory
            meta_b = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
            f.write(struct.pack("<Q", len(meta_b)) + meta_b)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load(path: str) -> "tuple[dict[str, np.ndarray], dict]":
    """The named arrays, as read-only views into the one buffer the file is read into,
    and the metadata; an unreadable, truncated or garbled file raises DataError."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    at = len(MAGIC)   # the cursor: take() moves it past each field once its length checks

    def fail(what: str):
        raise DataError(f"{path}: corrupt checkpoint: {what}")

    def take(n: int, what: str) -> int:
        nonlocal at
        if n > len(buf) - at:
            fail(f"{what} needs {n} bytes, {len(buf) - at} left")
        at += n
        return at - n

    def uint(fmt: str, what: str) -> int:
        return struct.unpack_from(fmt, buf, take(struct.calcsize(fmt), what))[0]

    def text(n: int, encoding: str, what: str) -> str:
        lo = take(n, what)
        try:
            return buf[lo:at].decode(encoding)
        except UnicodeDecodeError:
            fail(f"{what} is not {encoding}")

    if buf[:at] != MAGIC:
        raise DataError(f"{path}: not a memdiff checkpoint")
    version = uint("<I", "version")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    arrays: "dict[str, np.ndarray]" = {}
    for i in range(uint("<I", "entry count")):
        name = text(uint("<H", f"entry {i} name length"), "utf-8", f"entry {i} name")
        dtype_s = text(uint("<B", f"{name!r} dtype length"), "ascii", f"{name!r} dtype")
        try:
            dtype = np.dtype(dtype_s)
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in "biufc":   # plain numbers only
            fail(f"{name!r} has bad dtype {dtype_s!r}")
        shape = tuple(uint("<I", f"{name!r} shape") for _ in range(uint("<B", f"{name!r} ndim")))
        lo = take(dtype.itemsize * math.prod(shape), f"{name!r} data")
        try:
            arrays[name] = np.frombuffer(buf, dtype, math.prod(shape), lo).reshape(shape)
        except ValueError:   # more dims than numpy allows, or an impossible size
            fail(f"{name!r} has bad shape {shape}")
    lo = take(uint("<Q", "metadata length"), "metadata")
    try:
        meta = json.loads(buf[lo:at].decode("utf-8"))
    except ValueError:   # bad utf-8 or bad JSON
        meta = None
    if not isinstance(meta, dict):
        fail("metadata is not a JSON object")
    if at < len(buf):
        fail(f"{len(buf) - at} trailing bytes after the metadata")
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
