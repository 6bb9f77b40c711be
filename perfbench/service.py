"""The detection-service workload: ``service-fleet``.

``repro serve`` runs as a child process (one process, default queue and
backpressure).  The load comes from this process alone: one thread
driving two TCP connections through a selector, open loop.  Every chunk
frame is followed at once (pipelined, without waiting for its reply) by
a ``poll`` of its session; a chunk's latency runs from the time it was
*due* on the schedule to the arrival of that poll reply, which carries
the chunk's decision (the server decides every admitted chunk before it
answers a poll).

A run has three open-loop phases over the same sessions: *prime* (each
session's first three chunks, so that every later push decides exactly
one window; unmeasured), *fixed* (``--seconds`` of real-time pacing,
sessions evenly staggered: latency, CPU per chunk) and *ramp* (the
offered rate rises linearly until the service falls behind: sustained
chunks/s).  Frames are encoded from a seeded record before the server
starts, and every session's decision stream must equal
``batch_window_decisions`` over the chunks it was sent.
"""

from __future__ import annotations

import gc
import json
import math
import random
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    BenchError,
    CorrectnessError,
    child_env,
    median,
    read_line,
    stop_process,
    tail,
    task_cpu_ns,
    vm_hwm_kb,
)

#: The service's latency limit (ms): the repo's existing single-session
#: p99 SLO.  The ramp counts the service as behind past it.
LIMIT_MS = 250.0
#: A run whose generator enqueued chunks later than this (p99, ms) after
#: their due time is invalid: it did not offer the load it claims.
LAG_LIMIT_MS = 25.0
#: Set-up is measured this many times per run (server launches).
SETUP_REPEATS = 3
#: Behind for this long in a row marks the ramp's onset (a one-off stall
#: is not one).
BEHIND_FOR_S = 0.5
#: How long the ramp keeps offering after the onset: the window in which
#: the sustained rate is measured.
SATURATED_S = 1.5

FS = 256
WINDOW = 4 * FS
STEP = 1 * FS


@dataclass(frozen=True)
class Shape:
    """Sessions, chunking and the ramp of one service run."""

    sessions: int
    chunk_s: float
    #: Chunks each session is sent before the fixed phase.
    prime_chunks: int
    #: The ramp: offered chunks/s at its start, growth per second, cap.
    ramp_start: float
    ramp_slope: float
    ramp_max_s: float

    @property
    def rate(self) -> float:
        """Fixed offered rate: every session at real-time pacing."""
        return self.sessions / self.chunk_s


#: 1 s chunks, so every push featurizes one window.  192 sessions offer
#: 192 chunks/s, a little over half the sustained rate measured on a
#: 2-core host (about 335/s).
FLEET = Shape(sessions=192, chunk_s=1.0, prime_chunks=3,
              ramp_start=200.0, ramp_slope=40.0, ramp_max_s=10.0)


def windows_after(n_samples: int) -> int:
    return 0 if n_samples < WINDOW else (n_samples - WINDOW) // STEP + 1


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class Inputs:
    """The seeded record, per-session offsets and pre-encoded frames."""

    def __init__(self, shape: Shape, seed: int, max_chunks: int) -> None:
        from repro.data.dataset import SyntheticEEGDataset
        from repro.service.framing import chunk_message, encode_frame

        self.chunk = int(shape.chunk_s * FS)
        rng = random.Random(seed)
        self.offsets = [rng.randrange(0, 600) * FS for _ in range(shape.sessions)]
        seconds = 600 + max_chunks * shape.chunk_s + 8
        dataset = SyntheticEEGDataset(seed=seed)
        event = rng.choice(dataset.seizure_events())
        self.data = dataset.sample_source(
            event.patient_id, event.seizure_index, 0,
            duration_range_s=(seconds, seconds),
        ).materialize().data
        self.ids = [f"s{i:03d}" for i in range(shape.sessions)]
        self.frames = [
            [encode_frame(chunk_message(sid, k, self.samples(i, k, k + 1)))
             for k in range(max_chunks)]
            for i, sid in enumerate(self.ids)
        ]
        self.polls = [encode_frame({"op": "poll", "session": sid}) for sid in self.ids]
        self.frame_bytes = len(self.frames[0][0])

    def samples(self, session: int, k0: int, k1: int):
        """Signal of chunks ``k0 .. k1 - 1`` of a session."""
        start = self.offsets[session]
        return self.data[:, start + k0 * self.chunk: start + k1 * self.chunk]

    def new_windows(self, k: int) -> int:
        """Windows a session's ``k``-th chunk completes."""
        return windows_after((k + 1) * self.chunk) - windows_after(k * self.chunk)


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` as a child process.  Set-up ends when a warm-up
    session has received its first decision: a fresh process's first
    window costs far more than later ones, and that belongs to set-up."""

    def __init__(self, root: Path, work: Path, inputs: Inputs,
                 spans_dir: Path | None = None) -> None:
        from repro.data.records import EEGRecord
        from repro.service import ServiceClient, batch_window_decisions

        serve = ["serve", "--port", "0"]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, "perfbench/traced_serve.py", str(spans_dir), *serve]
        start = time.perf_counter()
        with open(work / "server.log", "ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        try:
            line = read_line(self.proc, timeout_s=120.0)
            if not line.startswith("repro service listening on "):
                raise BenchError(f"unexpected server output {line!r}")
            host, port = line.split()[4].rsplit(":", 1)
            self.address = (host, int(port))
            first = inputs.data[:, :WINDOW]
            with ServiceClient(host, int(port)) as client:
                client.open("warmup")
                client.push("warmup", first, seq=0)
                got = [e.to_dict() for e in client.poll("warmup")]
                client.close("warmup")
            self.setup_s = time.perf_counter() - start
            expected = batch_window_decisions(EEGRecord(first, float(FS)))
            if got != [e.to_dict() for e in expected]:
                raise CorrectnessError(
                    "warm-up decisions differ from batch_window_decisions"
                )
        except BaseException:
            self.stop()
            raise

    def cpu_s(self) -> float:
        """CPU seconds of the server so far (scheduler nanoseconds)."""
        return task_cpu_ns(self.proc.pid) / 1e9

    def peak_rss_mb(self) -> float:
        return vm_hwm_kb(self.proc.pid) / 1024.0

    def stop(self) -> None:
        stop_process(self.proc)
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------
class _Conn:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.out = bytearray()
        self.inbuf = bytearray()
        #: (chunk index in the phase, is the poll reply) per reply due.
        self.expect: list = []
        self.expect_head = 0

    def request(self, frame: bytes) -> dict:
        """Blocking request/reply, used only between phases."""
        self.sock.setblocking(True)
        self.sock.sendall(frame)
        while (reply := self.next_frame()) is None:
            data = self.sock.recv(1 << 20)
            if not data:
                raise BenchError("server closed the connection")
            self.inbuf += data
        return json.loads(reply)

    def next_frame(self) -> bytes | None:
        if len(self.inbuf) < 4:
            return None
        length = int.from_bytes(self.inbuf[:4], "big")
        if len(self.inbuf) < 4 + length:
            return None
        payload = bytes(self.inbuf[4:4 + length])
        del self.inbuf[:4 + length]
        return payload


class Phase:
    """One open-loop phase: chunk ``j`` of the phase is chunk ``seq[j]``
    of session ``sess[j]``, due ``due[j]`` seconds after the start."""

    def __init__(self, name: str, due, sess, seq, rate_at=None) -> None:
        self.name = name
        self.due, self.sess, self.seq = list(due), list(sess), list(seq)
        self.rate_at = rate_at
        n = len(self.due)
        self.enqueued = [0.0] * n
        self.arrived = [0.0] * n
        self.chunk_reply: list = [None] * n
        self.poll_reply: list = [None] * n
        self.t0 = 0.0
        self.sent = 0
        self.answered = 0
        #: Ramp bookkeeping (see behind_rule), perf_counter times.
        self.candidate = None
        self.onset = None
        self.stopped = None

    def latencies_ms(self) -> list[float]:
        return [1e3 * (self.arrived[j] - self.t0 - self.due[j])
                for j in range(self.sent)]

    def lags_ms(self) -> list[float]:
        return [1e3 * (self.enqueued[j] - self.t0 - self.due[j])
                for j in range(self.sent)]


def paced(shape: Shape, first_chunk: int, n_rounds: int, speed: float = 1.0) -> Phase:
    """``n_rounds`` chunks per session, sessions evenly staggered, at
    ``speed`` times real time."""
    due, sess, seq = [], [], []
    for r in range(n_rounds):
        for i in range(shape.sessions):
            due.append((r + i / shape.sessions) * shape.chunk_s / speed)
            sess.append(i)
            seq.append(first_chunk + r)
    return Phase("paced", due, sess, seq)


def ramp(shape: Shape, first_chunk: int) -> Phase:
    """Offered rate ``ramp_start + ramp_slope * t`` for up to
    ``ramp_max_s``; chunks go round-robin over the sessions."""
    r0, slope = shape.ramp_start, shape.ramp_slope
    total = ramp_total(shape)
    due = [(math.sqrt(r0 * r0 + 2 * slope * j) - r0) / slope for j in range(total)]
    sess = [j % shape.sessions for j in range(total)]
    seq = [first_chunk + j // shape.sessions for j in range(total)]
    return Phase("ramp", due, sess, seq, rate_at=lambda t: r0 + slope * t)


def ramp_total(shape: Shape) -> int:
    t = shape.ramp_max_s
    return int(shape.ramp_start * t + shape.ramp_slope * t * t / 2)


def drive(conns: list[_Conn], inputs: Inputs, phase: Phase, stop_rule=None) -> None:
    """Run one phase open loop; returns when every reply has arrived.

    ``stop_rule(phase, now)`` is consulted every 50 ms and returns True
    to stop offering new chunks.
    """
    sel = selectors.DefaultSelector()
    for c in conns:
        c.sock.setblocking(False)
        sel.register(c.sock, selectors.EVENT_READ, c)
    n = len(phase.due)
    received = 0
    # A collection pause would make the generator late; the phase
    # allocates little, so collect before it and not during it.
    gc.collect()
    gc.disable()
    phase.t0 = t0 = time.perf_counter() + 0.02
    next_check = t0
    deadline = None
    try:
        while received < 2 * n:
            now = time.perf_counter()
            while phase.sent < n and t0 + phase.due[phase.sent] <= now:
                j = phase.sent
                c = conns[phase.sess[j] % len(conns)]
                c.out += inputs.frames[phase.sess[j]][phase.seq[j]]
                c.out += inputs.polls[phase.sess[j]]
                c.expect.append((j, False))
                c.expect.append((j, True))
                phase.enqueued[j] = now
                phase.sent += 1
            for c in conns:
                if c.out:
                    try:
                        del c.out[:c.sock.send(c.out)]
                    except BlockingIOError:
                        pass
            if stop_rule is not None and now >= next_check and phase.sent < n:
                next_check = now + 0.05
                if stop_rule(phase, now):
                    phase.stopped = now
                    n = phase.sent
            if phase.sent < n:
                timeout = max(0.0, t0 + phase.due[phase.sent] - time.perf_counter())
            else:
                timeout = 0.05
                deadline = deadline or time.perf_counter() + 60.0
                if time.perf_counter() > deadline:
                    raise BenchError(f"{received // 2} of {n} chunks answered "
                                     f"60 s after the {phase.name} phase")
            if any(c.out for c in conns):
                timeout = min(timeout, 0.001)
            for key, _ in sel.select(timeout):
                c = key.data
                data = c.sock.recv(1 << 20)
                if not data:
                    raise BenchError("server closed a load connection")
                c.inbuf += data
                arrived = time.perf_counter()
                while (payload := c.next_frame()) is not None:
                    j, is_poll = c.expect[c.expect_head]
                    c.expect_head += 1
                    if is_poll:
                        phase.poll_reply[j] = payload
                        phase.arrived[j] = arrived
                        phase.answered += 1
                    else:
                        phase.chunk_reply[j] = payload
                    received += 1
    finally:
        gc.enable()
        for c in conns:
            sel.unregister(c.sock)
            del c.expect[:c.expect_head]
            c.expect_head = 0
        sel.close()


def behind_rule(phase: Phase, now: float) -> bool:
    """The ramp's stop rule.  The service is *behind* while the backlog
    of unanswered chunks exceeds ``LIMIT_MS`` worth of offered load;
    behind for ``BEHIND_FOR_S`` in a row marks the onset, and the ramp
    goes on for ``SATURATED_S`` after it, then stops."""
    if phase.onset is not None:
        return now - phase.onset >= BEHIND_FOR_S + SATURATED_S
    backlog = phase.sent - phase.answered
    if backlog <= phase.rate_at(now - phase.t0) * LIMIT_MS / 1e3:
        phase.candidate = None
    elif phase.candidate is None:
        phase.candidate = now
    elif now - phase.candidate >= BEHIND_FOR_S:
        phase.onset = phase.candidate
    return False


def sustained_rate(phase: Phase) -> tuple[float, bool]:
    """``(chunks/s, found)``: the offered rate at which the backlog
    started to grow.  From that point the service answers at its
    capacity, which equals the offered rate at the onset, so it is
    measured as the answer rate from the onset to the end of offering
    (hundreds of answers: steadier than reading one instant of the
    ramp).  If the service kept up with the whole ramp, its top rate."""
    last_due = phase.due[phase.sent - 1]
    if phase.onset is None:
        return phase.rate_at(last_due), False
    # The ramp may reach its cap before the saturated window ends.
    end = phase.stopped or phase.t0 + last_due
    answers = sum(1 for j in range(phase.sent)
                  if phase.onset <= phase.arrived[j] <= end)
    return answers / (end - phase.onset), True


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
class Streams:
    """Every session's collected decisions, checked reply by reply."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.events: list[list[dict]] = [[] for _ in inputs.ids]
        self.chunks = [0] * len(inputs.ids)
        self.problems: list[str] = []

    def absorb(self, phase: Phase) -> int:
        """Collect a phase's decisions; returns the chunks that failed
        (refused, error frame, or a poll without the chunk's decision)."""
        failed = 0
        for j in range(phase.sent):
            i, k = phase.sess[j], phase.seq[j]
            reply = json.loads(phase.chunk_reply[j])
            poll = json.loads(phase.poll_reply[j])
            events = poll.get("events", [])
            if not (reply.get("ok") and reply.get("accepted") and poll.get("ok")) \
                    or len(events) != self.inputs.new_windows(k):
                failed += 1
                self.problems.append(
                    f"chunk {k} of {self.inputs.ids[i]}: reply {reply}, "
                    f"{len(events)} decisions in its poll"
                )
            self.events[i].extend(events)
            self.chunks[i] = k + 1
        return failed

    def close(self, conns: list[_Conn]) -> None:
        from repro.service.framing import encode_frame

        for i, sid in enumerate(self.inputs.ids):
            reply = conns[i % len(conns)].request(
                encode_frame({"op": "close", "session": sid}))
            if not reply.get("ok") or reply.get("error"):
                raise CorrectnessError(f"close of {sid} failed: {reply}")
            self.events[i].extend(reply["trailing_events"])

    def verify(self) -> None:
        """Each stream must equal ``batch_window_decisions`` over the
        chunks its session was sent."""
        from repro.data.records import EEGRecord
        from repro.service import batch_window_decisions

        if self.problems:
            raise CorrectnessError("; ".join(self.problems[:3]))
        for i, sid in enumerate(self.inputs.ids):
            record = EEGRecord(self.inputs.samples(i, 0, self.chunks[i]), float(FS))
            expected = [e.to_dict() for e in batch_window_decisions(record)]
            if self.events[i] != expected:
                raise CorrectnessError(
                    f"session {sid}: its {len(self.events[i])} decisions differ "
                    f"from batch_window_decisions ({len(expected)})"
                )


# ----------------------------------------------------------------------
# one server run
# ----------------------------------------------------------------------
class ServiceRun:
    """Launch, prime, fixed phase, optional ramp, close, check, stop."""

    def __init__(self, root: Path, work: Path, shape: Shape, inputs: Inputs,
                 rounds: int, with_ramp: bool, spans_dir: Path | None = None) -> None:
        from repro.service.framing import encode_frame

        self.server = Server(root, work, inputs, spans_dir)
        self.streams = streams = Streams(inputs)
        self.ramp = None
        conns: list[_Conn] = []
        try:
            for _ in range(min(2, shape.sessions)):
                conns.append(_Conn(self.server.address))
            for i, sid in enumerate(inputs.ids):
                reply = conns[i % len(conns)].request(
                    encode_frame({"op": "open", "session": sid}))
                if not reply.get("ok"):
                    raise BenchError(f"open {sid} failed: {reply}")
            # Prime at 4x real time: unmeasured, only the first windows.
            prime = paced(shape, 0, shape.prime_chunks, speed=4.0)
            drive(conns, inputs, prime)
            streams.absorb(prime)

            self.fixed = paced(shape, shape.prime_chunks, rounds)
            cpu0 = self.server.cpu_s()
            drive(conns, inputs, self.fixed)
            self.fixed_cpu_s = self.server.cpu_s() - cpu0
            self.fixed_window = (self.fixed.t0, time.perf_counter())
            self.attempted = self.fixed.sent
            self.failed = streams.absorb(self.fixed)
            self.telemetry = conns[0].request(encode_frame({"op": "telemetry"}))

            if with_ramp:
                self.ramp = ramp(shape, shape.prime_chunks + rounds)
                drive(conns, inputs, self.ramp, stop_rule=behind_rule)
                self.attempted += self.ramp.sent
                self.failed += streams.absorb(self.ramp)
            streams.close(conns)
            self.peak_rss_mb = self.server.peak_rss_mb()
        finally:
            for c in conns:
                c.sock.close()
            self.server.stop()
        self.setup_s = self.server.setup_s

    def end_to_end(self) -> dict:
        lat = self.fixed.latencies_ms()
        p99, q = tail(lat)
        out = {
            "latency_p50_ms": median(lat),
            "latency_p99_ms": p99,
            "latency_quantile": q,
            "latency_samples": len(lat),
            "cpu_ms_per_item": 1e3 * self.fixed_cpu_s / self.fixed.sent,
            "peak_rss_mb": self.peak_rss_mb,
            "lag_p99_ms": tail(self.fixed.lags_ms())[0],
        }
        if self.ramp is not None:
            out["throughput_per_s"], out["onset_found"] = sustained_rate(self.ramp)
        return out


def _check_lag(run: ServiceRun) -> None:
    lag = tail(run.fixed.lags_ms())[0]
    if lag > LAG_LIMIT_MS:
        raise BenchError(
            f"load generator ran {lag:.1f} ms late (p99), above the "
            f"{LAG_LIMIT_MS:g} ms limit: the run did not offer its load"
        )


def run_service(root: Path, work: Path, seed: int, seconds: float, trace: bool,
                shape: Shape = FLEET) -> dict:
    rounds = max(1, math.ceil(seconds / shape.chunk_s))
    max_chunks = (shape.prime_chunks + rounds
                  + math.ceil(ramp_total(shape) / shape.sessions))
    inputs = Inputs(shape, seed, max_chunks)

    main = ServiceRun(root, work, shape, inputs, rounds, with_ramp=not trace)
    main.streams.verify()
    _check_lag(main)
    e2e = main.end_to_end()
    out = {"attempted": main.attempted, "failed": main.failed,
           "notes": {"generator_lag_p99_ms": e2e["lag_p99_ms"],
                     "fixed_rate_per_s": shape.rate},
           # Reported, not gated: on a shared 2-core host the run-to-run
           # spread of p99 (0.26 to 0.77 of its median over 8 to 10
           # runs) is wider than any bound the benchmark may set.
           "reported": [("decision_p99_ms", e2e["latency_p99_ms"], "ms",
                         f"not gated; quantile {e2e['latency_quantile']:.4g} "
                         f"of {e2e['latency_samples']} chunks")]}
    if trace:
        from service_layers import service_layers

        traced = ServiceRun(root, work, shape, inputs, rounds, with_ramp=False,
                            spans_dir=work / "spans")
        traced.streams.verify()
        _check_lag(traced)
        out["per_layer"], out["ledger"] = service_layers(
            work / "spans", traced, untraced_cpu_ms=e2e["cpu_ms_per_item"],
            frame_bytes=inputs.frame_bytes, telemetry=main.telemetry,
        )
        return out
    out["notes"]["ramp_onset_found"] = e2e["onset_found"]
    setups = [main.setup_s]
    while len(setups) < SETUP_REPEATS:
        server = Server(root, work, inputs)
        server.stop()
        setups.append(server.setup_s)
    out["end_to_end"] = {
        "setup_s": median(setups),
        "throughput_per_s": e2e["throughput_per_s"],
        "cpu_ms_per_item": e2e["cpu_ms_per_item"],
        "latency_p50_ms": e2e["latency_p50_ms"],
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    return out
