"""Artifact I/O: checkpoint and index container, atomic writes, text input lines.

Layout: magic "RLCK", 4-byte kind tag, u32 version, u32 JSON-meta length,
meta bytes, then each array as (u16 name length, name, 16-byte dtype tag,
u32 ndim, u64 dims..., raw little-endian C-order data). Serialization is
byte-deterministic for identical inputs. Every artifact, binary or text, is
written by write_atomic: to a temporary name, then renamed into place, so a
reader never sees a half-written file. A checkpoint cut short by other means
is rejected with ConfigError, as is one that holds a non-numeric array, or
that lacks an array or metadata key its reader requires, or whose arrays have
another ndim or shape than its reader expects.

Every text input (corpus, queries, qrels, split, stopwords, triples, reference
texts, config files, runs) is read through read_lines, which drops a leading
byte-order mark and rejects a byte that is not UTF-8 as a ParseError at its line.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

MAGIC = b"RLCK"
VERSION = 1


def write_atomic(path, data) -> None:
    """Write bytes, or str as UTF-8, to `.<name>.tmp` and rename it over `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_lines(path):
    """Yield (line_no, line) for each non-blank line of a UTF-8 text file, numbered
    from 1 and split at LF, CRLF or CR, each ending in one LF as text-mode
    iteration gives it, less a leading byte-order mark; a byte that is not UTF-8 is
    a ParseError at its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")  # checked whole: a bad byte stops a reader before any line
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise ParseError(path, head.count("\n") + 1, f"not UTF-8 ({exc.reason})") from exc
    for line_no, line in enumerate(io.StringIO(text.removeprefix("\ufeff"), newline=None), start=1):
        if line.strip():
            yield line_no, line


def save_arrays(path, kind: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    if len(kind) != 4:
        raise ValueError("kind tag must be 4 characters")
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [MAGIC, kind.encode("ascii"), struct.pack("<II", VERSION, len(meta_bytes)), meta_bytes]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        dtype = arr.dtype.newbyteorder("<")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(dtype.str.encode("ascii").ljust(16, b"\0"))
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(dtype).tobytes(order="C"))
    write_atomic(path, b"".join(chunks))


def load_arrays(path, kind: str, required=(), meta_keys=()) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by save_arrays. `required` names arrays it must
    hold, or maps each to its ndim; `meta_keys` names keys its metadata object
    must hold. Only numeric arrays are read."""
    data = Path(path).read_bytes()
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if n > len(data) - offset:
            raise ConfigError(f"{path}: truncated checkpoint ({len(data)} bytes)")
        offset += n
        return data[offset - n : offset]

    if take(4) != MAGIC:
        raise ConfigError(f"{path}: not a ranklab checkpoint file")
    found = take(4)
    if found != kind.encode("ascii"):
        raise ConfigError(f"{path}: expected kind {kind!r}, found {found.decode('ascii', 'replace')!r}")
    version, meta_len = struct.unpack("<II", take(8))
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    meta_bytes = take(meta_len)
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: corrupt checkpoint metadata") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: checkpoint metadata is not a JSON object")
    arrays: dict[str, np.ndarray] = {}
    while offset < len(data):
        (name_len,) = struct.unpack("<H", take(2))
        name_bytes = take(name_len)
        dtype_tag = take(16)
        try:
            name = name_bytes.decode("utf-8")
            dtype = np.dtype(dtype_tag.rstrip(b"\0").decode("ascii"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: corrupt checkpoint array header") from exc
        if dtype.kind not in "biuf":
            raise ConfigError(f"{path}: array {name!r} has non-numeric dtype {dtype.str!r}")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        count = math.prod(shape)
        arrays[name] = np.frombuffer(take(count * dtype.itemsize), dtype=dtype).reshape(shape).copy()
    missing = [name for name in required if name not in arrays]
    if missing:
        raise ConfigError(f"{path}: checkpoint lacks array(s) {', '.join(missing)}")
    missing = [key for key in meta_keys if key not in meta]
    if missing:
        raise ConfigError(f"{path}: checkpoint metadata lacks key(s) {', '.join(missing)}")
    for name, ndim in (required.items() if isinstance(required, dict) else ()):
        if arrays[name].ndim != ndim:
            raise ConfigError(f"{path}: array {name!r} is {arrays[name].ndim}-d, expected {ndim}-d")
    return arrays, meta


def checked(path, make, *args):
    """make(*args) over a checkpoint's contents; the ValueError or TypeError that
    contents of the wrong shape or type raise becomes a ConfigError naming `path`."""
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed checkpoint ({exc})") from exc
