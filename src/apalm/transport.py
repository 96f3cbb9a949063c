"""Wire format and socket endpoint for the manager-worker runtime.

Frames are [u8 version][u64 length][payload], little-endian (protocol 5).
A payload is the one-byte stop or one engine message: a header struct,
then, for an `IntervalResult`, its UTF-8 error, then one float64 block of
(u, lambda) rows. A `Job` sends w_start and w_prev if any; a reply sends
the point that ends each fine step and no step length, which the manager
measures from the points, or only the error of a failed solve, and decode
refuses one with both or neither.
Thread and process workers use the same endpoint over a socket pair, so
both carry the same encoded bytes and runs replay bit-exactly across them.
"""

from __future__ import annotations

import socket
import struct

import numpy as np

from .engine import IntervalResult, Job
from .problems import SolutionPoint

PROTOCOL_VERSION = 5

MSG_STOP = 0
MSG_JOB = 1
MSG_DATA = 2

_HEADER = struct.Struct("<BQ")
# kind, id, branch, xi_lo, xi_hi, level, delta_L0, N, has w_prev, n_dof
_JOB = struct.Struct("<BQQddQdQBQ")
# kind, job_id, steps, n_dof, error length
_DATA = struct.Struct("<BQQQQ")

# The benchmark tracer (perfbench/tracing.py) matches messages on these names.
JobMessage = Job
DataMessage = IntervalResult


class ProtocolError(RuntimeError):
    """Malformed or unexpected wire message."""


class EndpointClosed(RuntimeError):
    """Peer endpoint is gone."""


def _block(points: list[SolutionPoint], n: int) -> bytes:
    rows = np.empty((len(points), n + 1), dtype="<f8")
    for row, w in zip(rows, points):
        row[:n], row[n] = w.u, w.lam
    return rows.tobytes()


def _points(buf: memoryview, off: int, count: int, n: int
            ) -> list[SolutionPoint]:
    flat = np.frombuffer(buf, dtype="<f8", count=count * (n + 1), offset=off)
    return [SolutionPoint(flat[i:i + n].copy(), flat[i + n])
            for i in range(0, flat.size, n + 1)]


def _expect(buf: memoryview, size: int) -> None:
    if len(buf) != size:
        raise ProtocolError(f"{len(buf)}-byte payload, header gives {size}")


def encode(msg: Job | IntervalResult | None) -> bytes:
    if msg is None:
        return bytes([MSG_STOP])
    if isinstance(msg, Job):
        points = [w for w in (msg.w_start, msg.w_prev) if w is not None]
        n = msg.w_start.n_dof
        return _JOB.pack(MSG_JOB, msg.id, msg.branch, msg.xi_lo, msg.xi_hi,
                         msg.level, msg.delta_L0, msg.N,
                         msg.w_prev is not None, n) + _block(points, n)
    if isinstance(msg, IntervalResult):
        n = msg.solutions[0].n_dof if msg.solutions else 0
        error = msg.error.encode("utf-8")
        return b"".join((
            _DATA.pack(MSG_DATA, msg.job_id, len(msg.solutions), n,
                       len(error)),
            error, _block(msg.solutions, n)))
    raise ProtocolError(f"cannot encode {type(msg).__name__}")


def decode(payload: bytes) -> Job | IntervalResult | None:
    """The message in payload. Raises ProtocolError, and only that, if the
    payload is malformed or not exactly the size its header gives."""
    buf = memoryview(payload)
    try:
        kind = buf[0]
        if kind == MSG_STOP:
            _expect(buf, 1)
            return None
        if kind == MSG_JOB:
            (_, jid, branch, xi_lo, xi_hi, level, dl0, steps, has_prev,
             n) = _JOB.unpack_from(buf)
            if has_prev not in (0, 1):
                raise ProtocolError(f"bad w_prev flag {has_prev}")
            count = 2 if has_prev else 1
            _expect(buf, _JOB.size + 8 * count * (n + 1))
            w = _points(buf, _JOB.size, count, n)
            return Job(id=jid, branch=branch, xi_lo=xi_lo, xi_hi=xi_hi,
                       delta_L0=dl0, w_start=w[0],
                       w_prev=w[1] if has_prev else None, level=level,
                       N=steps)
        if kind == MSG_DATA:
            _, jid, count, n, n_error = _DATA.unpack_from(buf)
            off = _DATA.size + n_error
            _expect(buf, off + 8 * count * (n + 1))
            return IntervalResult(
                job_id=jid, solutions=_points(buf, off, count, n),
                error=bytes(buf[_DATA.size:off]).decode("utf-8"))
    except (IndexError, struct.error, ValueError) as exc:
        # ValueError also covers the checks of Job and IntervalResult
        raise ProtocolError(f"bad payload: {exc}") from None
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
                # bounded, as recv(n) allocates n bytes before reading
                chunk = self._sock.recv(min(n, 1 << 16))
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

    def end_sends(self) -> None:
        """Send the end of the stream; replies can still be read."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
