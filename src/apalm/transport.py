"""Wire format and socket endpoint for the manager-worker runtime.

Frames are [u8 version][u64 length][payload], little-endian (protocol 9).
A payload starts with its kind. It is the one-byte stop, one of the
serial phase's messages (below), or one wave: a job wave out, a reply
wave back, or a wave of serial steps to the manager. A wave is its header
(kind, member count, n_dof), then one header struct per member, then, in
a reply wave, the members' UTF-8 errors, then one float64 block of
(u, lambda) rows for all its members. A job sends three points: w_start,
w_prev, and w_end, the end point its last fine step aims at. A reply
sends the point that ends each fine step and no step length, which the
manager measures from the points, or only the error of a failed solve,
and decode refuses one with both or neither. A wave holds at least one
member, and all of one kind and one n_dof; a single job is a wave of one.

Worker 0 steps the serial phase and streams it to the manager, in step
order, as the points it reaches: a branch's start (n_dof, then the start
and its virtual predecessor as two rows), a wave of accepted steps (a
wave header, the s of each step, then its points), a branch's end (its
kind alone), a line to log (level, logger name length, name and text,
UTF-8), a failed primary step (the SerialSolveError's UTF-8 text), and a
stop when its serial phase ends. The manager makes the
level-1 jobs and the maps of them, and asks worker 0 for steps with a
frame of one count: worker 0 sends the steps it has taken once they are
as many, and the other items at once.
Thread and process workers use the same endpoint over a socket pair, so
both carry the same encoded bytes and runs replay bit-exactly across them.
"""

from __future__ import annotations

import logging
import socket
import struct
import time

import numpy as np

from .engine import (BranchEnd, BranchStart, IntervalResult, Job,
                     SerialSolveError, SerialStep)
from .problems import SolutionPoint, is_int

PROTOCOL_VERSION = 9

MSG_STOP = 0
MSG_JOB = 1
MSG_DATA = 2
MSG_ASK = 3
MSG_STEPS = 4
MSG_START = 5
MSG_END = 6
MSG_NOTE = 7
MSG_FAIL = 8

Message = (list[Job] | list[IntervalResult] | list[SerialStep] | BranchStart
           | BranchEnd | logging.LogRecord | SerialSolveError | int | None)

_HEADER = struct.Struct("<BQ")
# kind, members, n_dof
_WAVE = struct.Struct("<BQQ")
# per job: id, branch, xi_lo, xi_hi, level, delta_L0, N
_JOB = struct.Struct("<QQddQdQ")
# per reply: job_id, steps, error length
_DATA = struct.Struct("<QQQ")
# kind, jobs asked
_ASK = struct.Struct("<BQ")
# kind, n_dof
_START = struct.Struct("<BQ")
# kind, level, logger name length
_NOTE = struct.Struct("<BQQ")

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


def encode(msg: Message) -> bytes:
    if msg is None:
        return bytes([MSG_STOP])
    if is_int(msg) and msg >= 1:
        return _ASK.pack(MSG_ASK, msg)
    if isinstance(msg, BranchStart):
        return (_START.pack(MSG_START, msg.w.n_dof)
                + _block([msg.w, msg.w_prev0], msg.w.n_dof))
    if isinstance(msg, BranchEnd):
        return bytes([MSG_END])
    if isinstance(msg, logging.LogRecord):
        name = msg.name.encode("utf-8")
        return b"".join((_NOTE.pack(MSG_NOTE, msg.levelno, len(name)), name,
                         msg.getMessage().encode("utf-8")))
    if isinstance(msg, SerialSolveError):
        return bytes([MSG_FAIL]) + str(msg).encode("utf-8")
    if not isinstance(msg, list) or not msg:
        raise ProtocolError("a message is a stop or a non-empty wave")
    if all(isinstance(m, Job) for m in msg):
        kind, notes = MSG_JOB, b""
        heads = b"".join(
            _JOB.pack(job.id, job.branch, job.xi_lo, job.xi_hi, job.level,
                      job.delta_L0, job.N)
            for job in msg)
        points = [w for job in msg
                  for w in (job.w_start, job.w_prev, job.w_end)]
    elif all(isinstance(m, SerialStep) for m in msg):
        kind, notes = MSG_STEPS, b""
        heads = np.array([step.s for step in msg], dtype="<f8").tobytes()
        points = [step.w for step in msg]
    elif all(isinstance(m, IntervalResult) for m in msg):
        kind = MSG_DATA
        errors = [r.error.encode("utf-8") for r in msg]
        heads = b"".join(_DATA.pack(r.job_id, len(r.solutions), len(e))
                         for r, e in zip(msg, errors))
        notes = b"".join(errors)
        points = [w for r in msg for w in r.solutions]
    else:
        raise ProtocolError("cannot encode a wave of " + ", ".join(
            sorted({type(m).__name__ for m in msg})))
    sizes = {w.n_dof for w in points}
    if len(sizes) > 1:
        raise ProtocolError(f"wave members of mixed n_dof {sorted(sizes)}")
    n = sizes.pop() if sizes else 0
    return b"".join((_WAVE.pack(kind, len(msg), n), heads, notes,
                     _block(points, n)))


def decode(payload: bytes) -> Message:
    """The message in payload. Raises ProtocolError, and only that, if the
    payload is malformed or not exactly the size its headers give."""
    buf = memoryview(payload)
    try:
        kind = buf[0]
        if kind == MSG_STOP:
            _expect(buf, 1)
            return None
        if kind == MSG_ASK:
            _expect(buf, _ASK.size)
            count = _ASK.unpack(buf)[1]
            if count < 1:
                raise ProtocolError("an ask for no job")
            return count
        if kind == MSG_START:
            _, n = _START.unpack_from(buf)
            _expect(buf, _START.size + 8 * 2 * (n + 1))
            return BranchStart(*_points(buf, _START.size, 2, n))
        if kind == MSG_END:
            _expect(buf, 1)
            return BranchEnd()
        if kind == MSG_NOTE:
            _, level, n_name = _NOTE.unpack_from(buf)
            name = bytes(buf[_NOTE.size:_NOTE.size + n_name])
            if len(name) != n_name:
                raise ProtocolError("note shorter than its logger name")
            return logging.makeLogRecord({
                "name": name.decode("utf-8"), "levelno": level,
                "levelname": logging.getLevelName(level),
                "msg": bytes(buf[_NOTE.size + n_name:]).decode("utf-8")})
        if kind == MSG_FAIL:
            return SerialSolveError(bytes(buf[1:]).decode("utf-8"))
        if kind not in (MSG_JOB, MSG_DATA, MSG_STEPS):
            raise ProtocolError(f"unknown message kind {kind}")
        _, count, n = _WAVE.unpack_from(buf)
        if count == 0:
            raise ProtocolError("empty wave")
        if kind == MSG_STEPS:
            off = _WAVE.size + 8 * count
            _expect(buf, off + 8 * count * (n + 1))
            s = np.frombuffer(buf, dtype="<f8", count=count, offset=_WAVE.size)
            return [SerialStep(w, float(s_k)) for w, s_k in zip(
                _points(buf, off, count, n), s)]
        member = _JOB if kind == MSG_JOB else _DATA
        off = _WAVE.size + count * member.size
        if len(buf) < off:
            raise ProtocolError(f"{len(buf)}-byte payload for {count} "
                                f"member headers")
        heads = list(member.iter_unpack(buf[_WAVE.size:off]))
        if kind == MSG_JOB:
            _expect(buf, off + 8 * 3 * count * (n + 1))
            w = iter(_points(buf, off, 3 * count, n))
            return [Job(id=jid, branch=branch, xi_lo=xi_lo, xi_hi=xi_hi,
                        delta_L0=dl0, w_start=next(w), w_prev=next(w),
                        w_end=next(w), level=level, N=steps)
                    for jid, branch, xi_lo, xi_hi, level, dl0, steps in heads]
        # a reply wave: its members' errors, then its rows
        note = off
        off += sum(n_error for _, _, n_error in heads)
        rows = sum(steps for _, steps, _ in heads)
        _expect(buf, off + 8 * rows * (n + 1))
        w = iter(_points(buf, off, rows, n))
        replies = []
        for jid, steps, n_error in heads:
            error = bytes(buf[note:note + n_error]).decode("utf-8")
            note += n_error
            replies.append(IntervalResult(
                job_id=jid, solutions=[next(w) for _ in range(steps)],
                error=error))
        return replies
    except (IndexError, struct.error, ValueError) as exc:
        # ValueError also covers the checks of Job and IntervalResult
        raise ProtocolError(f"bad payload: {exc}") from None


def frame(payload: bytes) -> bytes:
    return _HEADER.pack(PROTOCOL_VERSION, len(payload)) + payload


class SocketEndpoint:
    """Endpoint over a stream socket with length-prefixed binary frames."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, msg: Message) -> None:
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

    def recv(self) -> Message:
        header = self._read_exact(_HEADER.size)
        version, length = _HEADER.unpack(header)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {version}")
        return decode(self._read_exact(length))

    def drain(self, timeout: float) -> None:
        """Read and drop what the peer sends until it hangs up, for at most
        timeout seconds."""
        deadline = time.monotonic() + timeout
        blocking = self._sock.gettimeout()
        try:
            while (left := deadline - time.monotonic()) > 0:
                self._sock.settimeout(left)
                if not self._sock.recv(1 << 16):
                    return
        except OSError:  # the timeout included
            pass
        finally:
            self._sock.settimeout(blocking)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
