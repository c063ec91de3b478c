"""The shard-runtime frame protocol, pinned as properties.

The subprocess runtime's correctness rests on the codec in
:mod:`repro.serving.runtime.protocol` never lying and never hanging:

- encode → decode round-trips every JSON object bit-exactly (including
  the NaN extension failed campaign points rely on);
- a frame truncated at *any* byte raises
  :class:`~repro.errors.ProtocolError` immediately — a reader facing a
  half-dead worker must never block on bytes that will not come;
- a header declaring more than ``max_bytes`` is rejected before the body
  is read, so a corrupt header cannot make the parent allocate
  gigabytes;
- short reads (one byte at a time) decode identically to bulk reads.

Readers are plain ``read(n)`` callables over :class:`io.BytesIO`, so
exhaustion is an immediate ``b""`` — any hang would be a deadlock in the
codec itself, which these properties forbid by construction.
"""

from __future__ import annotations

import math
from io import BytesIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.serving.runtime.protocol import (
    _HEADER,
    encode_frame,
    read_frame,
    write_frame,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**31), 2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

payloads = st.dictionaries(st.text(max_size=8), json_values, max_size=6)


def _reader(data: bytes):
    """A ``read(n)`` callable over a byte string (``b""`` at EOF)."""
    return BytesIO(data).read


def _trickle(data: bytes):
    """A pathological reader: at most one byte per call."""
    buffer = BytesIO(data)
    return lambda n: buffer.read(min(1, n))


class TestRoundTrip:
    @given(payload=payloads)
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_round_trips(self, payload):
        assert read_frame(_reader(encode_frame(payload))) == payload

    @given(payload=payloads)
    @settings(max_examples=50, deadline=None)
    def test_short_reads_decode_identically(self, payload):
        """``_read_exact`` must loop over arbitrarily short reads."""
        assert read_frame(_trickle(encode_frame(payload))) == payload

    @given(payloads_list=st.lists(payloads, min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_back_to_back_frames_do_not_bleed(self, payloads_list):
        """N frames on one stream decode in order with no cross-talk."""
        stream = BytesIO()
        for payload in payloads_list:
            write_frame(stream, payload)
        read = _reader(stream.getvalue())
        for payload in payloads_list:
            assert read_frame(read) == payload
        assert read_frame(read, eof_ok=True) is None

    def test_nan_extension_round_trips(self):
        """Failed campaign points carry NaN metrics; the codec must not
        strip them (both ends are this package, so the Python JSON
        extension is in-contract)."""
        frame = encode_frame({"psnr_db": float("nan"), "speedup": 1.5})
        decoded = read_frame(_reader(frame))
        assert math.isnan(decoded["psnr_db"])
        assert decoded["speedup"] == 1.5


class TestTornFrames:
    @given(payload=payloads, cut=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_any_truncation_raises_never_hangs(self, payload, cut):
        """A frame cut at any byte is a ProtocolError, immediately."""
        frame = encode_frame(payload)
        cut %= len(frame)
        with pytest.raises(ProtocolError):
            read_frame(_reader(frame[:cut]))

    @given(payload=payloads)
    @settings(max_examples=25, deadline=None)
    def test_clean_eof_is_none_only_when_allowed(self, payload):
        """EOF at a frame boundary: ``None`` under ``eof_ok`` (the
        worker-death signal), ProtocolError otherwise."""
        assert read_frame(_reader(b""), eof_ok=True) is None
        with pytest.raises(ProtocolError):
            read_frame(_reader(b""), eof_ok=False)
        # But EOF *inside* a frame is torn even under eof_ok.
        frame = encode_frame(payload)
        with pytest.raises(ProtocolError):
            read_frame(_reader(frame[: len(frame) - 1]), eof_ok=True)

    def test_torn_header_reports_the_shortfall(self):
        with pytest.raises(ProtocolError, match="torn frame"):
            read_frame(_reader(b"\x00\x00"))

    def test_garbage_body_raises(self):
        body = b"not json at all"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_frame(_reader(_HEADER.pack(len(body)) + body))

    def test_non_object_body_raises(self):
        body = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="expected object"):
            read_frame(_reader(_HEADER.pack(len(body)) + body))


class TestOversize:
    @given(excess=st.integers(min_value=1, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_oversized_declaration_rejected_before_body_read(self, excess):
        """The ceiling check fires off the header alone: the reader must
        not consume (or allocate) a single body byte."""
        limit = 1024
        calls = []

        def read(n):
            calls.append(n)
            return _HEADER.pack(limit + excess)[: n]

        with pytest.raises(ProtocolError, match="ceiling"):
            read_frame(read, max_bytes=limit)
        assert calls == [_HEADER.size]

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(ProtocolError, match="exceeds ceiling"):
            encode_frame({"blob": "x" * 2048}, max_bytes=1024)

    def test_encode_refuses_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            encode_frame([1, 2, 3])

    def test_encode_refuses_unjsonable(self):
        with pytest.raises(ProtocolError, match="not JSON-able"):
            encode_frame({"x": object()})
