"""The shard-runtime wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object.  Both ends of the pipe are this
package, so the codec accepts Python's JSON NaN/Infinity extension —
failed :class:`~repro.runtime.campaign.CampaignPoint` records carry NaN
metrics and must round-trip.

Reading is defensive: a frame is data from *another process*, possibly a
half-dead one.

- EOF exactly on a frame boundary is a clean close (``None`` when the
  caller passes ``eof_ok=True`` — the supervisor's worker-death signal);
- EOF inside a header or body is a **torn frame** and raises
  :class:`~repro.errors.ProtocolError` immediately — readers never hang
  waiting for bytes that will not come;
- a declared length beyond ``max_bytes`` raises *before* any allocation
  or body read, so a corrupted header cannot make the parent buffer
  gigabytes;
- a body that is not valid JSON, or decodes to a non-object, raises too.
"""

from __future__ import annotations

import json
import struct
from typing import Callable

from repro.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "read_frame",
    "write_frame",
]

_HEADER = struct.Struct(">I")

#: Default ceiling on one frame's body.  Result frames are a few KiB of
#: JSON; anything near this bound means framing is lost.
MAX_FRAME_BYTES = 32 << 20


def encode_frame(
    payload: dict, max_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Header + body bytes for one frame (raises on oversize/non-object)."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"frame payload is not JSON-able: {exc}") from exc
    if len(body) > max_bytes:
        raise ProtocolError(
            f"frame body {len(body)} bytes exceeds ceiling {max_bytes}"
        )
    return _HEADER.pack(len(body)) + body


def write_frame(
    stream, payload: dict, max_bytes: int = MAX_FRAME_BYTES
) -> None:
    """Encode and write one frame to a binary stream, flushing it."""
    stream.write(encode_frame(payload, max_bytes))
    stream.flush()


def _read_exact(
    read: Callable[[int], bytes], n: int, what: str, got_any: bool
) -> bytes:
    """Exactly ``n`` bytes from ``read`` (which may return short reads).

    ``got_any`` marks whether earlier bytes of this frame were already
    consumed — EOF is then always torn, never clean.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = read(remaining)
        if not chunk:
            have = n - remaining
            raise ProtocolError(
                f"torn frame: EOF after {have}/{n} bytes of {what}"
                + (" (mid-frame)" if got_any else "")
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    read: Callable[[int], bytes],
    max_bytes: int = MAX_FRAME_BYTES,
    eof_ok: bool = False,
) -> dict | None:
    """Read one frame through ``read(n)`` (an ``os.read``-style callable
    returning up to ``n`` bytes, ``b""`` at EOF).

    Returns the decoded object, or ``None`` on a clean EOF at a frame
    boundary when ``eof_ok`` — every other shortfall or malformation
    raises :class:`~repro.errors.ProtocolError`.
    """
    first = read(_HEADER.size)
    if not first:
        if eof_ok:
            return None
        raise ProtocolError("EOF at frame boundary")
    if len(first) < _HEADER.size:
        first += _read_exact(
            read, _HEADER.size - len(first), "header", got_any=True
        )
    (length,) = _HEADER.unpack(first)
    if length > max_bytes:
        raise ProtocolError(
            f"frame declares {length} bytes, ceiling is {max_bytes} — "
            "stream framing lost or corrupt header"
        )
    body = _read_exact(read, length, "body", got_any=True) if length else b""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame decoded to {type(payload).__name__}, expected object"
        )
    return payload
