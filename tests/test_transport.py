import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apalm import runtime
from apalm.engine import (BranchEnd, BranchStart, IntervalResult, Job,
                          SerialSolveError, SerialStep)
from apalm.problems import SolutionPoint
from apalm.transport import (_ASK, _DATA, _JOB, _START, _WAVE, MSG_ASK,
                             MSG_DATA, MSG_END, MSG_JOB, MSG_START,
                             MSG_STEPS, MSG_STOP, PROTOCOL_VERSION,
                             EndpointClosed, ProtocolError, SocketEndpoint,
                             decode, encode, frame)


def pt(*u, lam=0.0):
    return SolutionPoint(np.array(u, dtype=float), lam)


def points_equal(a, b):
    return np.array_equal(a.u, b.u) and a.lam == b.lam


def endpoint_pair():
    s1, s2 = socket.socketpair()
    return SocketEndpoint(s1), SocketEndpoint(s2)


def job(job_id=0, w_prev=None, w_end=None):
    return Job(id=job_id, branch=0, xi_lo=0.0, xi_hi=1.0, delta_L0=1.0,
               w_start=pt(0.0), w_prev=pt(-1.0) if w_prev is None else w_prev,
               w_end=pt(1.0, lam=1.0) if w_end is None else w_end, level=1,
               N=2)


class TestRoundTrip:
    @pytest.mark.parametrize("over_socket", [False, True])
    def test_stop(self, over_socket):
        assert encode(None) == bytes([MSG_STOP])
        if over_socket:
            a, b = endpoint_pair()
            a.send(None)
            assert b.recv() is None
            a.close()
            b.close()
        else:
            assert decode(encode(None)) is None

    def test_job_with_prev(self):
        msg = Job(id=7, branch=1, xi_lo=0.25, xi_hi=0.5, delta_L0=0.25,
                  w_start=pt(1.0, 2.0, lam=0.5),
                  w_prev=pt(0.5, 1.5, lam=0.25),
                  w_end=pt(1.5, 2.5, lam=0.75), level=3, N=2)
        out, = decode(encode([msg]))
        assert (out.id, out.branch, out.xi_lo, out.xi_hi, out.delta_L0,
                out.level, out.N) == (7, 1, 0.25, 0.5, 0.25, 3, 2)
        assert points_equal(out.w_start, msg.w_start)
        assert points_equal(out.w_prev, msg.w_prev)
        assert points_equal(out.w_end, msg.w_end)

    def test_job_without_prev(self):
        # every job carries its start's predecessor: a job of two rows,
        # its start and end, as protocol 8 sent one without, is short
        payload = encode([job()])
        heads = _WAVE.size + _JOB.size
        rows = np.frombuffer(payload[heads:], dtype="<f8").reshape(-1, 2)
        with pytest.raises(ProtocolError, match="header gives"):
            decode(payload[:heads] + rows[[0, 2]].tobytes())

    def test_data(self):
        msg = IntervalResult(job_id=3, solutions=[pt(0.5, lam=0.5),
                                                  pt(0.75, lam=0.75)])
        out, = decode(encode([msg]))
        assert out.job_id == 3
        assert len(out.solutions) == 2
        assert all(points_equal(a, b)
                   for a, b in zip(out.solutions, msg.solutions))
        assert out.error == ""

    def test_data_failure_with_note(self):
        msg = IntervalResult(job_id=9, solutions=[],
                             error="newton diverged: état")
        out, = decode(encode([msg]))
        assert out.solutions == []
        assert out.error == "newton diverged: état"

    def test_encoding_is_deterministic(self):
        msg = [IntervalResult(job_id=1, solutions=[pt(1.0)])]
        assert encode(msg) == encode(msg)

    def test_wave_keeps_its_members_in_order(self):
        # jobs, each with its own predecessor and end point, and replies
        # with points and with an error, interleaved in one wave each
        jobs = [job(job_id=i, w_prev=pt(-1.0, lam=-i), w_end=pt(2.0, lam=i))
                for i in range(5)]
        out = decode(encode(jobs))
        assert [j.id for j in out] == list(range(5))
        assert all(points_equal(a.w_prev, b.w_prev)
                   for a, b in zip(out, jobs))
        assert all(points_equal(a.w_end, b.w_end) for a, b in zip(out, jobs))
        replies = [IntervalResult(job_id=i, solutions=[pt(0.5 * i)] * i)
                   if i else IntervalResult(job_id=i, solutions=[], error="é")
                   for i in range(4)]
        out = decode(encode(replies))
        assert [(r.job_id, len(r.solutions), r.error) for r in out] == \
            [(0, 0, "é"), (1, 1, ""), (2, 2, ""), (3, 3, "")]
        assert all(points_equal(a, b) for r, q in zip(out, replies)
                   for a, b in zip(r.solutions, q.solutions))


def point_bits(w):
    return None if w is None else (w.u.tobytes(), w.lam.hex())


class TestSerialMessages:
    """What worker 0 streams and the asks it is sent (protocol 8)."""

    def test_ask(self):
        assert encode(16) == _ASK.pack(MSG_ASK, 16)
        assert decode(encode(16)) == 16
        for count in (0, -1, True):
            with pytest.raises(ProtocolError):
                encode(count)
        with pytest.raises(ProtocolError, match="no job"):
            decode(_ASK.pack(MSG_ASK, 0))

    # the primary branch's start is one tangent, with a lambda entry of 1,
    # past its predecessor, a spawned one a seed of lambda entry 0
    @pytest.mark.parametrize("w_prev0", [pt(-0.75, 0.5, lam=-0.9),
                                         pt(-0.5, 0.5, lam=0.1)],
                             ids=["primary", "spawned"])
    def test_branch_start(self, w_prev0):
        msg = BranchStart(pt(0.25, 0.5, lam=0.1), w_prev0)
        payload = encode(msg)
        assert payload[:_START.size] == _START.pack(MSG_START, 2)
        assert len(payload) == _START.size + 2 * 3 * 8
        out = decode(payload)
        assert isinstance(out, BranchStart)
        assert point_bits(out.w) == point_bits(msg.w)
        assert point_bits(out.w_prev0) == point_bits(w_prev0)

    def test_steps_wave_sends_each_point_and_s_once(self):
        msg = [SerialStep(pt(0.5, 0.25, lam=0.1), 0.1 + 0.2),
               SerialStep(pt(1.0, 0.75, lam=0.3), 0.7)]
        payload = encode(msg)
        assert len(payload) == _WAVE.size + 2 * 8 + 2 * 3 * 8
        assert payload[:_WAVE.size] == _WAVE.pack(MSG_STEPS, 2, 2)
        out = decode(payload)
        assert all(isinstance(step, SerialStep) for step in out)
        assert [(point_bits(step.w), step.s.hex()) for step in out] == [
            (point_bits(step.w), step.s.hex()) for step in msg]

    def test_branch_end(self):
        assert encode(BranchEnd()) == bytes([MSG_END])
        assert decode(bytes([MSG_END])) == BranchEnd()
        with pytest.raises(ProtocolError):
            decode(bytes([MSG_END, 0]))

    @pytest.mark.parametrize("msg", [
        BranchStart(pt(0.0, 0.0), pt(-1.0, 0.0, lam=-1.0)),
        BranchStart(pt(0.0), pt(-1.0, lam=1.0)),
        [SerialStep(pt(0.5), 0.5), SerialStep(pt(1.0), 1.0)]],
        ids=["start", "spawned-start", "steps"])
    def test_serial_truncation_and_trailing_byte_rejected(self, msg):
        payload = encode(msg)
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode(payload[:cut])
        for tail in (b"\0", bytes(24)):
            with pytest.raises(ProtocolError):
                decode(payload + tail)

    def test_steps_of_mixed_size_refused(self):
        with pytest.raises(ProtocolError, match="mixed n_dof"):
            encode([SerialStep(pt(0.5), 0.5), SerialStep(pt(1.0, 1.0), 1.0)])

    def test_note(self):
        record = logging.LogRecord("apalm.engine", logging.INFO, __file__, 1,
                                   "bifurcation at lambda=%.6g: %s",
                                   (1.25, "état"), None)
        out = decode(encode(record))
        assert isinstance(out, logging.LogRecord)
        assert (out.name, out.levelno, out.levelname, out.getMessage()) == (
            "apalm.engine", logging.INFO, "INFO",
            "bifurcation at lambda=1.25: état")

    def test_failed_primary_step(self):
        out = decode(encode(SerialSolveError("serial solve failed: é")))
        assert isinstance(out, SerialSolveError)
        assert str(out) == "serial solve failed: é"


class TestFrame:
    def test_header_layout(self):
        payload = encode(None)
        data = frame(payload)
        assert data[0] == PROTOCOL_VERSION
        assert int.from_bytes(data[1:9], "little") == len(payload)
        assert data[9:] == payload

    # v1 had a handshake; v2 framed every point separately and echoed the
    # start point; v3 sent each job's closing point; v4 sent each reply's
    # step lengths; v5 sent one job or reply per frame; v6 sent no job's
    # end point; v7 had no worker that streams the serial phase; v8 sent
    # a job or branch start without a predecessor
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 99])
    def test_other_version_rejected(self, version):
        assert PROTOCOL_VERSION == 9
        s1, s2 = socket.socketpair()
        s1.sendall(bytes([version]) + frame(encode([job()]))[1:])
        with pytest.raises(ProtocolError, match=f"version {version}"):
            SocketEndpoint(s2).recv()
        s1.close()
        s2.close()

    def test_one_block_per_payload(self):
        # a wave is its header, one header per job and one float64 block of
        # (u, lambda) rows: each job's start, its predecessor, and its end
        msg = [job(w_prev=pt(-1.0, lam=-0.5)),
               job(job_id=1, w_end=pt(2.0, lam=0.5))]
        rows = np.array([[0.0, 0.0], [-1.0, -0.5], [1.0, 1.0],
                         [0.0, 0.0], [-1.0, 0.0], [2.0, 0.5]], dtype="<f8")
        heads = _WAVE.size + 2 * _JOB.size
        assert encode(msg)[:_WAVE.size] == _WAVE.pack(MSG_JOB, 2, 1)
        assert encode(msg) == encode(msg)[:heads] + rows.tobytes()

    @pytest.mark.parametrize("at_start", [True, False])
    def test_job_carries_start_and_predecessor_only(self, at_start):
        # and its end point, and nothing else: three points, also for the
        # job at a branch start, whose predecessor is the start's virtual
        # one, one tangent behind it
        n = 3
        msg = Job(id=1, branch=0, xi_lo=0.0, xi_hi=1.0, delta_L0=1.0,
                  w_start=pt(1.0, 2.0, 3.0),
                  w_prev=pt(0.5, 1.5, 2.5, lam=-1.0) if at_start
                  else pt(0.0, 1.0, 2.0),
                  w_end=pt(2.0, 3.0, 4.0), level=1, N=2)
        assert len(encode([msg])) == _WAVE.size + _JOB.size + 8 * (n + 1) * 3

    @pytest.mark.parametrize("k,n,error", [(2, 3, ""), (1, 1, ""),
                                           (0, 0, "newton diverged: état")],
                             ids=["points", "one-point", "error"])
    def test_reply_carries_its_points_only(self, k, n, error):
        # no step length crosses the wire: the manager measures each step
        msg = IntervalResult(job_id=1, solutions=[pt(*range(n), lam=0.5)] * k,
                             error=error)
        note = len(error.encode("utf-8"))
        assert len(encode([msg])) == (_WAVE.size + _DATA.size + note
                                      + 8 * k * (n + 1))

    @pytest.mark.parametrize("n", [1, 64, 256, 4096])
    def test_full_wave_frame_passes_a_small_buffer_to_a_reading_peer(self,
                                                                     n):
        # the manager sends a job frame only to a worker waiting in recv:
        # a frame of a full wave, WAVE_VALUES // n jobs with their
        # predecessors and end points, many times the 8 KiB that both ends
        # buffer here, and a stop after it go through as the peer reads
        wave = max(1, runtime.WAVE_VALUES // n)
        jobs = [Job(id=i, branch=0, xi_lo=0.0, xi_hi=1.0, delta_L0=1.0,
                    w_start=SolutionPoint(np.full(n, 0.5), 1.0),
                    w_prev=SolutionPoint(np.zeros(n), 0.0),
                    w_end=SolutionPoint(np.ones(n), 2.0), level=1, N=2)
                for i in range(wave)]
        s1, s2 = socket.socketpair()
        for sock in (s1, s2):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        buffer = s1.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        assert len(frame(encode(jobs))) > 10 * buffer
        sender, reader = SocketEndpoint(s1), SocketEndpoint(s2)
        got = []
        t = threading.Thread(target=lambda: got.extend(
            [reader.recv(), reader.recv()]), daemon=True)
        t.start()
        try:
            sender.send(jobs)
            sender.send(None)
            t.join(timeout=10)
            assert not t.is_alive()
            wave_got, stop = got
            assert [job.id for job in wave_got] == list(range(wave))
            assert stop is None
        finally:
            sender.close()
            reader.close()

    def test_huge_length_is_not_allocated_up_front(self):
        # a peer that claims 2**62 bytes and hangs up is a lost peer, not a
        # MemoryError the manager does not catch
        s1, s2 = socket.socketpair()
        s1.sendall(bytes([PROTOCOL_VERSION]) + (2**62).to_bytes(8, "little"))
        s1.close()
        with pytest.raises(EndpointClosed):
            SocketEndpoint(s2).recv()
        s2.close()

    def test_length_mismatch_rejected(self):
        # a frame cut short by the peer closing is a lost peer
        s1, s2 = socket.socketpair()
        s1.sendall(frame(encode([job()]))[:-1])
        s1.close()
        with pytest.raises(EndpointClosed):
            SocketEndpoint(s2).recv()
        s2.close()


class TestDecodeErrors:
    def test_empty_payload(self):
        with pytest.raises(ProtocolError):
            decode(b"")

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError):
            decode(bytes([77, 0]))

    def test_oversized_stop(self):
        with pytest.raises(ProtocolError):
            decode(bytes([MSG_STOP, 0]))

    def test_encode_unknown_type(self):
        with pytest.raises(ProtocolError):
            encode("not a message")

    @pytest.mark.parametrize("xi_lo,xi_hi,delta_L0,N", [
        (0.5, 0.5, 1.0, 2), (0.75, 0.5, 1.0, 2), (0.0, 1.0, 0.0, 2),
        (0.0, 1.0, -1.0, 2), (0.0, 1.0, 1.0, 0),
    ], ids=["0.5-0.5-1.0", "0.75-0.5-1.0", "0.0-1.0-0.0", "0.0-1.0--1.0",
            "N-0"])
    def test_invalid_job_interval(self, xi_lo, xi_hi, delta_L0, N):
        # a frame that no valid Job encodes to: rewrite the header fields
        # of the second job of a wave
        payload = bytearray(encode([job(), job(job_id=1)]))
        at = _WAVE.size + _JOB.size
        head = list(_JOB.unpack_from(payload, at))
        head[2], head[3], head[5], head[6] = xi_lo, xi_hi, delta_L0, N
        _JOB.pack_into(payload, at, *head)
        with pytest.raises(ProtocolError):
            decode(bytes(payload))

    @pytest.mark.parametrize("steps,error", [(1, "état"), (0, "")],
                             ids=["both", "neither"])
    def test_reply_with_points_and_error_or_neither(self, steps, error):
        # a reply carries its fine steps or its error, never both or none
        note = error.encode("utf-8")
        rows = np.zeros((steps, 2), dtype="<f8")  # n_dof 1: (u, lambda)
        payload = (_WAVE.pack(MSG_DATA, 1, 1)
                   + _DATA.pack(4, steps, len(note)) + note + rows.tobytes())
        with pytest.raises(ProtocolError, match="solutions or an error"):
            decode(payload)

    @pytest.mark.parametrize("msg", [
        [job(w_prev=pt(-1.0, lam=-0.5))],
        [IntervalResult(job_id=4,
                        solutions=[pt(0.5, lam=0.5), pt(1.0, lam=1.0)])],
        [IntervalResult(job_id=4, solutions=[], error="état")],
        [job(), job(job_id=1, w_prev=pt(-1.0, lam=-0.5)), job(job_id=2)],
        [IntervalResult(job_id=4, solutions=[pt(0.5, lam=0.5)]),
         IntervalResult(job_id=5, solutions=[], error="état"),
         IntervalResult(job_id=6, solutions=[pt(1.0, lam=1.0)] * 2)],
    ], ids=["job", "reply", "reply-error", "job-wave", "reply-wave"])
    def test_every_truncation_and_trailing_byte_rejected(self, msg):
        # decode checks the exact size, so a cut payload never reaches
        # struct or numpy, whose errors the manager would not catch; the
        # cuts of a job wave run through its last job's w_end row
        payload = encode(msg)
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode(payload[:cut])
        # one byte more, of any value, or one more (u, lambda) row
        for tail in (b"\0", b"\1", b"\xff", bytes(16)):
            with pytest.raises(ProtocolError):
                decode(payload + tail)

    def test_job_wave_without_end_points_rejected(self):
        # a job wave as protocol 6 sent it, each job's start and
        # predecessor and no end point, is short of its size
        jobs = [job(w_prev=pt(-1.0, lam=-0.5)), job(job_id=1)]
        payload = encode(jobs)
        heads = _WAVE.size + 2 * _JOB.size
        rows = np.frombuffer(payload[heads:], dtype="<f8").reshape(-1, 2)
        without_ends = payload[:heads] + rows[[0, 1, 3, 4]].tobytes()
        with pytest.raises(ProtocolError, match="header gives"):
            decode(without_ends)

    def test_bad_utf8_note_rejected(self):
        payload = encode([IntervalResult(job_id=0, solutions=[], error="é")])
        with pytest.raises(ProtocolError):
            decode(payload[:-1] + b"\xff")

    def test_empty_wave(self):
        with pytest.raises(ProtocolError, match="non-empty wave"):
            encode([])
        with pytest.raises(ProtocolError, match="empty wave"):
            decode(_WAVE.pack(MSG_JOB, 0, 1))
        with pytest.raises(ProtocolError, match="empty wave"):
            decode(_WAVE.pack(MSG_DATA, 0, 0))

    def test_bare_job_or_reply_is_not_a_message(self):
        # a single job or reply goes as a wave of one
        with pytest.raises(ProtocolError):
            encode(job())
        with pytest.raises(ProtocolError):
            encode(IntervalResult(job_id=0, solutions=[pt(1.0)]))

    @pytest.mark.parametrize("member", [
        None, IntervalResult(job_id=0, solutions=[pt(1.0)])],
        ids=["stop", "reply"])
    def test_stop_or_reply_inside_a_job_wave(self, member):
        with pytest.raises(ProtocolError, match="cannot encode a wave"):
            encode([job(), member])
        with pytest.raises(ProtocolError, match="cannot encode a wave"):
            encode([member, job()])

    @pytest.mark.parametrize("kind", [MSG_JOB, MSG_DATA])
    def test_wave_of_the_other_kind_rejected(self, kind):
        # a job wave relabelled as replies, and replies as jobs
        other = ([IntervalResult(job_id=0, solutions=[pt(1.0)] * 2)]
                 if kind == MSG_JOB else [job(w_prev=pt(-1.0))])
        payload = bytearray(encode(other))
        payload[0] = kind
        with pytest.raises(ProtocolError):
            decode(bytes(payload))

    @pytest.mark.parametrize("wave", [
        [job(), Job(id=1, branch=0, xi_lo=0.0, xi_hi=1.0, delta_L0=1.0,
                    w_start=pt(0.0, 1.0), w_prev=pt(-1.0, 1.0),
                    w_end=pt(1.0, 2.0),
                    level=1, N=2)],
        [job(w_prev=pt(0.0, 1.0))],
        [job(w_end=pt(0.0, 1.0))],
        [IntervalResult(job_id=0, solutions=[pt(1.0)]),
         IntervalResult(job_id=1, solutions=[pt(1.0, 2.0)])],
        [IntervalResult(job_id=0, solutions=[pt(1.0), pt(1.0, 2.0)])],
    ], ids=["jobs", "one-job", "one-job-end", "replies", "one-reply"])
    def test_members_of_mixed_n_dof(self, wave):
        # one n_dof in the wave header sizes every row of the block
        with pytest.raises(ProtocolError, match="mixed n_dof"):
            encode(wave)

    def test_member_count_beyond_the_payload(self):
        # a count of 2**64 - 1 member headers is refused before any is read
        with pytest.raises(ProtocolError, match="member headers"):
            decode(_WAVE.pack(MSG_JOB, 2**64 - 1, 1) + bytes(_JOB.size))


class TestChannelEndpoint:
    """A socket-pair endpoint as the in-process channel to a thread worker."""

    def test_close_raises_on_peer(self):
        # closing one end wakes a peer already blocked in recv, as a
        # thread worker is when the manager shuts its endpoint down
        a, b = endpoint_pair()
        raised = []

        def blocked_recv():
            try:
                b.recv()
            except EndpointClosed:
                raised.append(True)

        t = threading.Thread(target=blocked_recv, daemon=True)
        t.start()
        a.close()
        t.join(timeout=10)
        assert not t.is_alive()
        assert raised == [True]
        b.close()


class TestSocketEndpoint:
    def test_round_trip_over_socketpair(self):
        a, b = endpoint_pair()
        msg = Job(id=42, branch=0, xi_lo=0.5, xi_hi=0.75, delta_L0=0.5,
                  w_start=pt(1.0, lam=1.0), w_prev=pt(0.0),
                  w_end=pt(2.0, lam=1.5), level=2, N=2)
        a.send([msg])
        out, = b.recv()
        assert out.id == 42
        assert points_equal(out.w_start, msg.w_start)
        assert points_equal(out.w_end, msg.w_end)
        a.close()
        b.close()

    def test_ping_pong(self):
        a, b = endpoint_pair()
        a.send([job(job_id=0), job(job_id=1)])
        assert [j.id for j in b.recv()] == [0, 1]
        b.send([IntervalResult(job_id=0, solutions=[pt(0.5)]),
                IntervalResult(job_id=1, solutions=[], error="no")])
        assert [r.job_id for r in a.recv()] == [0, 1]
        a.close()
        b.close()

    def test_fifo_ordering(self):
        a, b = endpoint_pair()
        for i in range(5):
            a.send([job(job_id=i)])
        assert [b.recv()[0].id for _ in range(5)] == list(range(5))
        a.close()
        b.close()

    def test_peer_close_raises(self):
        a, b = endpoint_pair()
        a.close()
        with pytest.raises(EndpointClosed):
            b.recv()
        b.close()

    def test_wire_bytes_are_framed_encoding(self):
        msg = [IntervalResult(job_id=5, solutions=[pt(0.25), pt(0.5)])]
        a, b = endpoint_pair()
        a.send(msg)
        raw = b._read_exact(9)
        version, length = raw[0], int.from_bytes(raw[1:9], "little")
        payload = b._read_exact(length)
        assert version == PROTOCOL_VERSION
        assert payload == encode(msg)
        a.close()
        b.close()

    def test_drain_reads_until_the_peer_hangs_up(self):
        # a peer blocked sending more than the socket buffers finishes its
        # send, and the drain returns as soon as it hangs up
        a, b = endpoint_pair()
        sent = []

        def sends_and_hangs_up():
            b.send([IntervalResult(job_id=0, solutions=[pt(0.5)] * 40000)])
            sent.append(True)
            b.close()

        t = threading.Thread(target=sends_and_hangs_up, daemon=True)
        t.start()
        t0 = time.monotonic()
        a.drain(10.0)
        assert time.monotonic() - t0 < 5.0
        t.join(timeout=10)
        assert sent == [True]
        a.close()

    def test_drain_of_a_silent_peer_ends_at_its_timeout(self):
        a, b = endpoint_pair()
        t0 = time.monotonic()
        a.drain(0.2)
        assert 0.2 <= time.monotonic() - t0 < 5.0
        assert a._sock.gettimeout() is None  # blocking again
        b.send(None)
        assert a.recv() is None
        a.close()
        b.close()


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def points(draw, n_dof):
    return SolutionPoint(
        np.array(draw(st.lists(finite, min_size=n_dof, max_size=n_dof))),
        draw(finite))


@st.composite
def data_messages(draw, n_dof):
    n_sol = draw(st.integers(0, 5))
    return IntervalResult(
        job_id=draw(st.integers(0, 2**64 - 1)),
        solutions=[draw(points(n_dof)) for _ in range(n_sol)],
        error=draw(st.text(min_size=1, max_size=40)) if n_sol == 0 else "")


@st.composite
def jobs(draw, n_dof):
    u64 = st.integers(0, 2**64 - 1)
    xi_lo, xi_hi = sorted(draw(st.lists(finite, min_size=2, max_size=2,
                                        unique=True)))
    return Job(id=draw(u64), branch=draw(u64), xi_lo=xi_lo, xi_hi=xi_hi,
               delta_L0=draw(st.floats(min_value=0.0, exclude_min=True,
                                       allow_infinity=False)),
               w_start=draw(points(n_dof)),
               w_prev=draw(points(n_dof)),
               w_end=draw(points(n_dof)), level=draw(u64),
               N=draw(st.integers(1, 2**64 - 1)))


@st.composite
def waves(draw, member):
    """1-16 members of one n_dof."""
    n_dof = draw(st.integers(1, 4))
    return draw(st.lists(member(n_dof), min_size=1, max_size=16))


def same_bits(x, y):
    return struct.pack("<d", x) == struct.pack("<d", y)


def same_point_bits(a, b):
    return a.u.tobytes() == b.u.tobytes() and same_bits(a.lam, b.lam)


@given(waves(data_messages))
@settings(max_examples=60, deadline=None)
def test_data_round_trip_property(wave):
    out = decode(encode(wave))
    assert len(out) == len(wave)
    for got, msg in zip(out, wave):
        assert got.job_id == msg.job_id
        assert got.error == msg.error
        assert len(got.solutions) == len(msg.solutions)
        for a, b in zip(got.solutions, msg.solutions):
            assert same_point_bits(a, b)


@given(waves(jobs))
@settings(max_examples=60, deadline=None)
def test_job_round_trip_property(wave):
    out = decode(encode(wave))
    assert len(out) == len(wave)
    for got, msg in zip(out, wave):
        assert isinstance(got, Job)
        assert (got.id, got.branch, got.level, got.N) == (
            msg.id, msg.branch, msg.level, msg.N)
        for field in ("xi_lo", "xi_hi", "delta_L0"):
            assert same_bits(getattr(got, field), getattr(msg, field))
        assert same_point_bits(got.w_start, msg.w_start)
        assert same_point_bits(got.w_end, msg.w_end)
        assert same_point_bits(got.w_prev, msg.w_prev)
