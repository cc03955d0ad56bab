"""Open-loop load client: one process, at most ``nproc`` connections.

Requests are sent on a fixed schedule whatever the server does, and each
is timed from the moment it was *due*, not the moment it was sent: when
the client falls behind, the delay counts against the server's latency
instead of disappearing (``repro loadgen`` starts the clock at the send).
The client measures how late it ran (``late_ms``, send time minus due
time) and rejects a step whose lateness p99 exceeds :data:`LATE_LIMIT_MS`,
since such a step measured the client.

A request that fails, is shed or gets no answer misses every latency
limit: its latency is taken as the time from its due time until the
client stopped waiting for it.  A ``predict`` the server sheds is still
answered ok, from its motion-model fallback, but marked ``degraded``;
it counts as shed.

One ``selectors`` loop does all the work, so there is no thread or event
loop of the client's own to compete with the server for the two cores.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time

import numpy as np

#: A step whose generator lateness p99 exceeds this measured the client.
LATE_LIMIT_MS = 5.0
#: Untimed load before the first measured step.
WARMUP_S = 2.0
#: Connections per client: the host has two cores.
CONNECTIONS = 2

_PENDING, _OK, _FAILED = 0, 1, 2


def succeeded(response: dict) -> bool:
    """An answer the server gave without shedding the request."""
    return bool(response.get("ok")) and not response.get("degraded")


class Step:
    """Outcome of one scheduled run of requests, indexed by schedule order."""

    def __init__(self, requests, ids, due, sent, done, status, responses, backlog, gave_up):
        self.requests = requests
        self.ops = np.array([request["op"] for request in requests])
        self.ids = ids
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.responses = responses
        self.backlog = backlog
        missed = status != _OK
        finish = np.where(missed, gave_up, done)
        self.latency_ms = (finish - due) / 1e6
        self.late_ms = (np.where(sent > 0, sent, gave_up) - due) / 1e6

    def __len__(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(self.status != _OK))

    def mask(self, *ops: str) -> np.ndarray:
        return np.isin(self.ops, ops)

    def percentile(self, q: float, mask=None) -> float:
        values = self.latency_ms if mask is None else self.latency_ms[mask]
        return float(np.percentile(values, q))

    @property
    def late_p99_ms(self) -> float:
        return float(np.percentile(self.late_ms, 99))

    @property
    def valid(self) -> bool:
        return self.late_p99_ms <= LATE_LIMIT_MS

    @property
    def backlog_max(self) -> int:
        return max(self.backlog) if self.backlog else 0

    @property
    def growing_backlog(self) -> bool:
        """Outstanding requests in the second half well above the first."""
        half = len(self.backlog) // 2
        if half == 0:
            return False
        first = float(np.mean(self.backlog[:half]))
        second = float(np.mean(self.backlog[half:]))
        return second > 1.5 * first + 5


class Client:
    def __init__(self, port: int) -> None:
        self._socks = []
        self._sel = selectors.DefaultSelector()
        self._inbuf = []
        self._outbuf = []
        self._waiting_write = []
        for i in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self._socks.append(sock)
            self._inbuf.append(bytearray())
            self._outbuf.append(bytearray())
            self._waiting_write.append(False)
            self._sel.register(sock, selectors.EVENT_READ, i)
        self._next_id = 0

    def close(self) -> None:
        self._sel.close()
        for sock in self._socks:
            sock.close()

    def call(self, request: dict, timeout_s: float = 10.0) -> dict:
        """One request, sent now, answered or failed within ``timeout_s``."""
        step = self.run([(0.0, request)], drain_s=timeout_s, keep=lambda op: True)
        return step.responses.get(0, {"ok": False, "error": "no_answer"})

    def run(self, schedule, drain_s: float = 2.0, keep=None) -> Step:
        """Send ``(offset_s, request)`` pairs at ``start + offset_s``.

        Requests alternate over the connections.  Responses of requests
        whose op satisfies ``keep`` are returned in ``Step.responses``,
        keyed by schedule index.
        """
        n = len(schedule)
        requests = [request for _, request in schedule]
        base_id = self._next_id
        self._next_id += n
        ids = np.arange(base_id, base_id + n)
        lines = [
            (json.dumps({**request, "id": base_id + i}, separators=(",", ":")) + "\n").encode()
            for i, request in enumerate(requests)
        ]
        kept = {i for i in range(n) if keep is not None and keep(requests[i]["op"])}
        start = time.monotonic_ns() + 5_000_000
        due = np.array([start + int(offset * 1e9) for offset, _ in schedule], dtype=np.int64)
        sent = np.zeros(n, dtype=np.int64)
        done = np.zeros(n, dtype=np.int64)
        status = np.zeros(n, dtype=np.int8)
        responses: dict[int, dict] = {}
        backlog: list[int] = []
        n_sent = n_done = 0
        deadline = int(due[-1] + drain_s * 1e9) if n else start
        next_sample = start
        gc.disable()
        try:
            while n_done < n:
                now = time.monotonic_ns()
                if n_sent == n and now >= deadline:
                    break
                while n_sent < n and due[n_sent] <= now:
                    self._outbuf[n_sent % len(self._socks)] += lines[n_sent]
                    sent[n_sent] = now
                    n_sent += 1
                for i, buf in enumerate(self._outbuf):
                    if buf:
                        self._flush(i)
                if n_sent < n and now >= next_sample:
                    backlog.append(n_sent - n_done)
                    next_sample = now + 10_000_000
                wake = due[n_sent] if n_sent < n else deadline
                timeout = max(0.0, (wake - time.monotonic_ns()) / 1e9)
                try:
                    ready = self._sel.select(min(timeout, 0.01))
                    for key, _ in ready:
                        received = time.monotonic_ns()
                        for response in self._read(key.data):
                            index = response.get("id", -1) - base_id
                            if not 0 <= index < n or status[index] != _PENDING:
                                continue
                            done[index] = received
                            status[index] = _OK if succeeded(response) else _FAILED
                            n_done += 1
                            if index in kept:
                                responses[index] = response
                except ConnectionError:
                    break
        finally:
            gc.enable()
        status[status == _PENDING] = _FAILED
        gave_up = time.monotonic_ns()
        return Step(requests, ids, due, sent, done, status, responses, backlog, gave_up)

    def _flush(self, i: int) -> None:
        buf = self._outbuf[i]
        try:
            written = self._socks[i].send(buf)
        except BlockingIOError:
            written = 0
        del buf[:written]
        # Wake on writability only while a line is stuck in the buffer.
        if bool(buf) != self._waiting_write[i]:
            self._waiting_write[i] = bool(buf)
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if buf else 0)
            self._sel.modify(self._socks[i], events, i)

    def _read(self, i: int) -> list[dict]:
        try:
            chunk = self._socks[i].recv(1 << 20)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf = self._inbuf[i]
        buf += chunk
        end = buf.rfind(b"\n")
        if end < 0:
            return []
        lines = bytes(buf[:end]).split(b"\n")
        del buf[: end + 1]
        return [json.loads(line) for line in lines]
