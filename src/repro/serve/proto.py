"""Length-prefixed binary frame protocol for solve requests and responses.

JSON-over-HTTP spends most of a large solve request's cost on float
formatting and parsing: a 100k-dof right-hand side is ~2.4MB of decimal text
versus 800kB of raw float64.  This module defines the zero-copy wire format
shared by the binary HTTP path (``Content-Type: application/x-repro-frame``)
and the parent↔worker pipes of :mod:`repro.serve.shard`:

.. code-block:: text

    offset  size          content
    0       4             magic  b"RPB1"
    4       4             u32 little-endian header length H
    8       H             UTF-8 JSON header
    8+H..   pad           zero padding to the first 64-byte boundary
    ...                   raw array blocks, each 64-byte aligned

The JSON header carries ``{"v": 1, "kind": ..., "meta": {...}, "arrays":
[{"name", "dtype", "shape", "offset", "nbytes"}, ...], "total": ...}``.
Array blocks are C-contiguous raw bytes (the exact ``ndarray.tobytes()``
image), so both ends decode with :func:`numpy.frombuffer` — no copy, no
float formatting, and float64 payloads survive the round trip *bitwise*.
``total`` pins the full frame length: a truncated or oversized body is
detected before any array view is built.

Every malformed-frame condition raises
:class:`~repro.serve.errors.InvalidRequest` (bad magic, truncated prefix or
blocks, header that is not valid JSON, unknown dtype, shape/nbytes
mismatch, out-of-bounds block) — callers map it to a structured 400, never
a traceback.

>>> import numpy as np
>>> frame = decode_frame(encode_frame("demo", {"n": 3}, {"b": np.arange(3.0)}))
>>> frame.kind, frame.meta["n"], frame.arrays["b"].tolist()
('demo', 3, [0.0, 1.0, 2.0])
>>> decode_frame(b"JUNK" + bytes(12))
Traceback (most recent call last):
...
repro.serve.errors.InvalidRequest: bad frame magic b'JUNK' (expected b'RPB1')
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from .errors import InvalidRequest

__all__ = [
    "MAGIC",
    "CONTENT_TYPE",
    "PROTO_VERSION",
    "TRACE_META_KEY",
    "Frame",
    "encode_frame",
    "decode_frame",
    "extract_trace_meta",
    "make_trace_meta",
]

MAGIC = b"RPB1"
#: HTTP content type selecting the binary path (JSON stays the debug path)
CONTENT_TYPE = "application/x-repro-frame"
PROTO_VERSION = 1

_PREFIX = struct.Struct("<4sI")
_ALIGN = 64
#: hard bound on a frame body — rejects absurd ``total``/header claims before
#: any allocation is attempted (a 256M-dof f64 vector is ~2GB; nothing served
#: by this repository comes within two orders of magnitude of 1GB)
MAX_FRAME_BYTES = 1 << 30
_MAX_HEADER_BYTES = 1 << 24

#: dtypes allowed on the wire — the numeric types the solver stack produces
_WIRE_DTYPES = frozenset({"f8", "f4", "i8", "i4", "u8", "u4", "u1", "b1"})

#: meta key carrying trace context across process/HTTP hops.  Unlike every
#: other header field, the trace meta is advisory: a malformed value is
#: *dropped*, never an :class:`InvalidRequest` — observability must not be
#: able to fail a request.
TRACE_META_KEY = "trace"
_TRACE_ID_CHARS = frozenset("0123456789abcdefABCDEF-")
_MAX_TRACE_ID_LEN = 128


def _clean_trace_id(value: object) -> Optional[str]:
    if (isinstance(value, str) and 0 < len(value) <= _MAX_TRACE_ID_LEN
            and all(c in _TRACE_ID_CHARS for c in value)):
        return value
    return None


def make_trace_meta(trace_id: str, parent_span_id: Optional[str] = None) -> Dict[str, str]:
    """Build the ``meta["trace"]`` payload propagating a trace across a hop."""
    meta = {"trace_id": str(trace_id)}
    if parent_span_id is not None:
        meta["parent_span_id"] = str(parent_span_id)
    return meta


def extract_trace_meta(meta: Mapping[str, object]) -> Optional[Dict[str, Optional[str]]]:
    """Sanitise ``meta["trace"]`` from an incoming frame.

    Returns ``{"trace_id": ..., "parent_span_id": ...}`` when the field is
    well-formed (hex-ish ids of sane length), else ``None``.  Never raises:
    arbitrary JSON garbage in the trace slot must leave the request servable.

    >>> extract_trace_meta({"trace": {"trace_id": "ab12"}})
    {'trace_id': 'ab12', 'parent_span_id': None}
    >>> extract_trace_meta({"trace": {"trace_id": "nope!"}}) is None
    True
    >>> extract_trace_meta({"trace": [1, 2, 3]}) is None
    True
    >>> extract_trace_meta({}) is None
    True
    """
    try:
        payload = meta.get(TRACE_META_KEY)
    except AttributeError:
        return None
    if not isinstance(payload, dict):
        return None
    trace_id = _clean_trace_id(payload.get("trace_id"))
    if trace_id is None:
        return None
    parent = payload.get("parent_span_id")
    parent_id = _clean_trace_id(parent) if parent is not None else None
    if parent is not None and parent_id is None:
        # a valid trace id with a garbage parent still correlates the hop
        parent_id = None
    return {"trace_id": trace_id, "parent_span_id": parent_id}


def _json_default(value):
    """Make numpy scalars JSON-serialisable in frame metadata."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise TypeError(f"frame meta value of type {type(value).__name__} is not JSON-serialisable")


@dataclass
class Frame:
    """One decoded frame: a kind tag, JSON metadata and zero-copy arrays.

    ``arrays`` values are read-only :func:`numpy.frombuffer` views into the
    received bytes — copy before mutating.
    """

    kind: str
    meta: Dict[str, object] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


def _pad_to(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def encode_frame(
    kind: str,
    meta: Optional[Mapping[str, object]] = None,
    arrays: Optional[Mapping[str, np.ndarray]] = None,
) -> bytes:
    """Serialise ``(kind, meta, arrays)`` into one length-pinned frame.

    Arrays are written as C-contiguous raw blocks in their native dtype
    (float64 stays float64 — the bitwise-parity guarantee); each block is
    64-byte aligned so the receiver's ``frombuffer`` views are aligned too.
    """
    normalised: Dict[str, np.ndarray] = {}
    for name, value in (arrays or {}).items():
        array = np.ascontiguousarray(value)
        if array.dtype.byteorder == ">":  # wire order is little-endian
            array = array.astype(array.dtype.newbyteorder("<"))
        if array.dtype.str[1:] not in _WIRE_DTYPES:
            raise ValueError(
                f"array {name!r} has non-wire dtype {array.dtype.str!r} "
                f"(supported: {sorted(_WIRE_DTYPES)})"
            )
        normalised[str(name)] = array
    blocks = list(normalised.values())

    # The header is json.dumps({"v", "kind", "meta", "arrays", "total"}).
    # Only the block offsets and "total" depend on the header's own length,
    # so the rest is serialised once — the text up to the arrays table, and
    # each entry up to its "offset" — and the fixed point formats integers.
    head = (f'{{"v": {PROTO_VERSION}, "kind": {json.dumps(str(kind))}, '
            f'"meta": {json.dumps(dict(meta or {}), default=_json_default)}, "arrays": [')
    entry_heads = [json.dumps({"name": name, "dtype": array.dtype.str[1:],
                               "shape": list(array.shape)})[:-1]
                   for name, array in normalised.items()]

    # fixed-point on the header length: the header is padded with trailing
    # whitespace (valid JSON) so it always ends on a 64-byte boundary; block
    # offsets then only grow in 64-byte steps as the header grows, which
    # makes the length map monotone non-decreasing — it converges
    header_bytes = b""
    for _ in range(16):
        cursor = _pad_to(_PREFIX.size + len(header_bytes))
        offsets, entries = [], []
        for entry_head, array in zip(entry_heads, blocks):
            offsets.append(cursor)
            entries.append(f'{entry_head}, "offset": {cursor}, "nbytes": {array.nbytes}}}')
            cursor = _pad_to(cursor + array.nbytes)
        total = offsets[-1] + blocks[-1].nbytes if blocks else _PREFIX.size + len(header_bytes)
        candidate = f'{head}{", ".join(entries)}], "total": {total}}}'.encode("utf-8")
        candidate += b" " * (_pad_to(_PREFIX.size + len(candidate)) - _PREFIX.size - len(candidate))
        converged = len(candidate) == len(header_bytes)
        header_bytes = candidate
        if converged:
            break
    else:  # pragma: no cover - monotone map over a bounded range
        raise RuntimeError("frame header length did not converge")

    out = bytearray(total)
    _PREFIX.pack_into(out, 0, MAGIC, len(header_bytes))
    out[_PREFIX.size:_PREFIX.size + len(header_bytes)] = header_bytes
    for offset, array in zip(offsets, blocks):
        out[offset:offset + array.nbytes] = array.tobytes()
    return bytes(out)


def decode_frame(data: bytes) -> Frame:
    """Parse one frame; every malformed condition is a typed InvalidRequest.

    The returned :class:`Frame`'s arrays are zero-copy read-only views into
    ``data`` (``np.frombuffer``) — the caller keeps ``data`` alive implicitly
    through the views' ``base``.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise InvalidRequest(
            f"frame body must be bytes, got {type(data).__name__}"
        )
    data = bytes(data)
    if len(data) > MAX_FRAME_BYTES:
        raise InvalidRequest(
            f"oversized frame: {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    if len(data) < _PREFIX.size:
        raise InvalidRequest(
            f"truncated frame: {len(data)} bytes is shorter than the "
            f"{_PREFIX.size}-byte prefix"
        )
    magic, header_len = _PREFIX.unpack_from(data, 0)
    if magic != MAGIC:
        raise InvalidRequest(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if header_len > _MAX_HEADER_BYTES:
        raise InvalidRequest(f"frame header claims {header_len} bytes (too large)")
    if _PREFIX.size + header_len > len(data):
        raise InvalidRequest(
            f"truncated frame: header claims {header_len} bytes but only "
            f"{len(data) - _PREFIX.size} follow the prefix"
        )
    try:
        header = json.loads(data[_PREFIX.size:_PREFIX.size + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise InvalidRequest(f"frame header is not valid JSON: {error}") from error
    if not isinstance(header, dict):
        raise InvalidRequest("frame header must be a JSON object")
    if header.get("v") != PROTO_VERSION:
        raise InvalidRequest(
            f"unsupported frame version {header.get('v')!r} "
            f"(this server speaks v{PROTO_VERSION})"
        )
    kind = header.get("kind")
    if not isinstance(kind, str) or not kind:
        raise InvalidRequest(f"frame kind must be a non-empty string, got {kind!r}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise InvalidRequest("frame meta must be a JSON object")
    total = header.get("total")
    if not isinstance(total, int) or total < 0:
        raise InvalidRequest(f"frame total must be a non-negative int, got {total!r}")
    if total > len(data):
        raise InvalidRequest(
            f"truncated frame: header pins total={total} bytes but the body "
            f"has only {len(data)}"
        )
    if total < len(data):
        raise InvalidRequest(
            f"oversized frame: header pins total={total} bytes but the body "
            f"has {len(data)} (trailing garbage)"
        )
    entries = header.get("arrays", [])
    if not isinstance(entries, list):
        raise InvalidRequest("frame arrays table must be a list")

    arrays: Dict[str, np.ndarray] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise InvalidRequest(f"array table entry must be an object, got {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise InvalidRequest(f"array name must be a non-empty string, got {name!r}")
        if name in arrays:
            raise InvalidRequest(f"duplicate array name {name!r} in frame")
        dtype_tag = entry.get("dtype")
        if dtype_tag not in _WIRE_DTYPES:
            raise InvalidRequest(
                f"array {name!r} has unknown wire dtype {dtype_tag!r} "
                f"(supported: {sorted(_WIRE_DTYPES)})"
            )
        dtype = np.dtype(dtype_tag).newbyteorder("<")
        shape = entry.get("shape")
        if (not isinstance(shape, list)
                or any(not isinstance(dim, int) or dim < 0 for dim in shape)):
            raise InvalidRequest(
                f"array {name!r} shape must be a list of non-negative ints, got {shape!r}"
            )
        offset = entry.get("offset")
        nbytes = entry.get("nbytes")
        if not isinstance(offset, int) or not isinstance(nbytes, int) or offset < 0 or nbytes < 0:
            raise InvalidRequest(
                f"array {name!r} offset/nbytes must be non-negative ints"
            )
        count = 1
        for dim in shape:
            count *= dim
        if count * dtype.itemsize != nbytes:
            raise InvalidRequest(
                f"array {name!r} shape {shape} × dtype {dtype_tag} needs "
                f"{count * dtype.itemsize} bytes, header claims {nbytes}"
            )
        if offset + nbytes > len(data):
            raise InvalidRequest(
                f"truncated frame: array {name!r} block [{offset}, {offset + nbytes}) "
                f"exceeds the {len(data)}-byte body"
            )
        view = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        arrays[name] = view.reshape(shape)

    return Frame(kind=kind, meta=meta, arrays=arrays)
