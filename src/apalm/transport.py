"""Wire format and socket endpoint for the manager-worker runtime.

Frames are [u8 version][u64 length][payload], little-endian, fixed-width
floats. A payload is one engine message: a `Job` (manager to worker), an
`IntervalResult` (worker to manager) or `None`, the one-byte stop. Thread
and process workers use the same endpoint over a socket pair, so both carry
the same encoded bytes and runs replay bit-exactly across them.
"""

from __future__ import annotations

import socket
import struct

import numpy as np

from .engine import IntervalResult, Job
from .problems import SolutionPoint

PROTOCOL_VERSION = 2

MSG_STOP = 0
MSG_JOB = 1
MSG_DATA = 2

_HEADER = struct.Struct("<BQ")
_JOB = struct.Struct("<BQQddQdQB")

# The benchmark tracer (perfbench/tracing.py) matches messages on these names.
JobMessage = Job
DataMessage = IntervalResult


class ProtocolError(RuntimeError):
    """Malformed or unexpected wire message."""


class EndpointClosed(RuntimeError):
    """Peer endpoint is gone."""


def _pack_point(w: SolutionPoint) -> bytes:
    u = np.ascontiguousarray(w.u, dtype="<f8")
    return struct.pack("<Q", u.shape[0]) + u.tobytes() + struct.pack("<d", w.lam)


def _unpack_point(buf: memoryview, off: int) -> tuple[SolutionPoint, int]:
    (n,) = struct.unpack_from("<Q", buf, off)
    off += 8
    u = np.frombuffer(buf, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    (lam,) = struct.unpack_from("<d", buf, off)
    return SolutionPoint(u, lam), off + 8


def encode(msg: Job | IntervalResult | None) -> bytes:
    if msg is None:
        return bytes([MSG_STOP])
    if isinstance(msg, Job):
        parts = [_JOB.pack(MSG_JOB, msg.id, msg.branch, msg.xi_lo, msg.xi_hi,
                           msg.level, msg.delta_L0, msg.N,
                           msg.w_prev is not None),
                 _pack_point(msg.w_start)]
        if msg.w_prev is not None:
            parts.append(_pack_point(msg.w_prev))
        parts.append(_pack_point(msg.w_ref))
        return b"".join(parts)
    if isinstance(msg, IntervalResult):
        d = np.ascontiguousarray(msg.distances, dtype="<f8")
        note = msg.message.encode("utf-8")
        parts = [struct.pack("<BQB", MSG_DATA, msg.job_id, int(msg.success)),
                 struct.pack("<Q", d.shape[0]), d.tobytes(),
                 struct.pack("<Q", len(msg.solutions))]
        parts.extend(_pack_point(w) for w in msg.solutions)
        parts.append(struct.pack("<dd", msg.lower_distance,
                                 msg.closing_distance))
        parts.append(struct.pack("<Q", len(note)) + note)
        return b"".join(parts)
    raise ProtocolError(f"cannot encode {type(msg).__name__}")


def decode(payload: bytes) -> Job | IntervalResult | None:
    buf = memoryview(payload)
    if len(buf) < 1:
        raise ProtocolError("empty payload")
    kind = buf[0]
    if kind == MSG_STOP:
        if len(buf) != 1:
            raise ProtocolError("bad stop message size")
        return None
    if kind == MSG_JOB:
        (_, jid, branch, xi_lo, xi_hi, level, dl0, n,
         has_prev) = _JOB.unpack_from(buf, 0)
        w_start, off = _unpack_point(buf, _JOB.size)
        w_prev = None
        if has_prev:
            w_prev, off = _unpack_point(buf, off)
        w_ref, off = _unpack_point(buf, off)
        try:
            return Job(id=jid, branch=branch, xi_lo=xi_lo, xi_hi=xi_hi,
                       delta_L0=dl0, w_start=w_start, w_prev=w_prev,
                       w_ref=w_ref, level=level, N=n)
        except ValueError as exc:
            raise ProtocolError(f"bad job: {exc}") from None
    if kind == MSG_DATA:
        _, jid, success = struct.unpack_from("<BQB", buf, 0)
        off = struct.calcsize("<BQB")
        (nd,) = struct.unpack_from("<Q", buf, off)
        off += 8
        dists = np.frombuffer(buf, dtype="<f8", count=nd, offset=off).tolist()
        off += 8 * nd
        (ns,) = struct.unpack_from("<Q", buf, off)
        off += 8
        sols = []
        for _ in range(ns):
            w, off = _unpack_point(buf, off)
            sols.append(w)
        lower, closing = struct.unpack_from("<dd", buf, off)
        off += 16
        (nmsg,) = struct.unpack_from("<Q", buf, off)
        off += 8
        note = bytes(buf[off:off + nmsg]).decode("utf-8")
        return IntervalResult(job_id=jid, distances=dists, solutions=sols,
                              lower_distance=lower, closing_distance=closing,
                              success=bool(success), message=note)
    raise ProtocolError(f"unknown message kind {kind}")


def frame(payload: bytes) -> bytes:
    return _HEADER.pack(PROTOCOL_VERSION, len(payload)) + payload


class SocketEndpoint:
    """Endpoint over a stream socket with length-prefixed binary frames."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, msg: Job | IntervalResult | None) -> None:
        try:
            self._sock.sendall(frame(encode(msg)))
        except OSError as exc:
            raise EndpointClosed(str(exc))

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        while n > 0:
            try:
                chunk = self._sock.recv(n)
            except OSError as exc:
                raise EndpointClosed(str(exc))
            if not chunk:
                raise EndpointClosed("peer closed connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Job | IntervalResult | None:
        header = self._read_exact(_HEADER.size)
        version, length = _HEADER.unpack(header)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {version}")
        return decode(self._read_exact(length))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
