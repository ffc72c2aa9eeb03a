"""The ``ctrl-serve`` workload: an open-loop load generator against the
coordinator daemon (``repro serve``) running in its own process.

One process generates the load over two connections (allocate requests
on one, heartbeats on the other). The closed-loop phase runs on one
thread; the open loop adds a receiver thread that reads both sockets
while the main thread sends. Open-loop
latency is timed from each request's due time, so a stalled server or
a late generator shows in it; how late the generator sent is reported
too.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import loadgen
from harness import (ROOT, STATE_DIR, child_env, cpu_seconds_pid, peak_rss_mb_pid,
                     peak_rss_mb_self, stop_process)

SERVICES = ("masstree", "xapian")
NODES = 64
#: A node agent heartbeats every half registry interval
#: (``TwigNodeAgent.start_heartbeats``); the coordinator's default
#: interval is 1 s.
HEARTBEAT_PERIOD_S = 0.5
#: Ids of synchronous calls (register, ping, status) start here, above
#: any schedule index.
SYNC_ID_BASE = 1 << 40
BACKLOG_SAMPLE_S = 0.05
DRAIN_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
SERVING_PREFIX = "coordinator serving on "


def _frame(rid: int, method: str, params: Dict[str, Any]) -> bytes:
    return (json.dumps({"jsonrpc": "2.0", "id": rid, "method": method, "params": params})
            + "\n").encode()


class Channel:
    """One TCP connection speaking newline-delimited JSON-RPC."""

    def __init__(self, address: str):
        host, port = address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=START_TIMEOUT_S)
        self.sock.settimeout(None)
        self._buf = b""
        self._next_sync = SYNC_ID_BASE

    def read_lines(self) -> List[bytes]:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("coordinator closed the connection")
        self._buf += data
        *lines, self._buf = self._buf.split(b"\n")
        return [line for line in lines if line.strip()]

    def call(self, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Blocking round trip; only used while no receiver thread runs."""
        self._next_sync += 1
        rid = self._next_sync
        self.sock.sendall(_frame(rid, method, params))
        self.sock.settimeout(START_TIMEOUT_S)
        try:
            while True:
                for line in self.read_lines():
                    msg = json.loads(line)
                    if msg.get("id") == rid:
                        return msg
        finally:
            self.sock.settimeout(None)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class Coordinator:
    proc: subprocess.Popen
    address: str

    @property
    def pid(self) -> int:
        return self.proc.pid


def start_coordinator(seed: int, stats_path: Optional[Path] = None) -> Coordinator:
    """``repro serve`` (or, with ``stats_path``, the traced launcher) as a child."""
    if stats_path is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--services", *SERVICES,
               "--seed", str(seed), "--bind", "127.0.0.1:0"]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "traced_coordinator.py"),
               "--services", *SERVICES, "--seed", str(seed), "--stats", str(stats_path)]
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    with open(STATE_DIR / "coordinator.log", "a") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                                cwd=ROOT, env=child_env())
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + START_TIMEOUT_S
    try:
        while time.monotonic() < deadline:
            if not selector.select(timeout=deadline - time.monotonic()):
                break
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith(SERVING_PREFIX):
                return Coordinator(proc, line[len(SERVING_PREFIX):].strip())
    finally:
        selector.close()
    stop_process(proc)
    raise RuntimeError(f"coordinator did not start (see {STATE_DIR / 'coordinator.log'})")


def node_id(i: int) -> str:
    return f"node-{i:03d}"


def register_fleet(channel: Channel) -> Tuple[List[int], int]:
    """Register :data:`NODES` nodes; returns their epochs and failures."""
    epochs, failed = [], 0
    for i in range(NODES):
        reply = channel.call("register", {
            "node_id": node_id(i), "address": f"127.0.0.1:{20000 + i}",
            "services": list(SERVICES),
        })
        if "result" not in reply:
            failed += 1
            epochs.append(-1)
        else:
            epochs.append(int(reply["result"]["epoch"]))
    return epochs, failed


def time_setup(seed: int, stats_path: Optional[Path] = None
               ) -> Tuple[float, Coordinator, Channel, Channel, List[int], int]:
    """Spawn a coordinator, connect and register the fleet; returns the
    seconds that took and everything needed to drive it."""
    start = time.perf_counter()
    coordinator = start_coordinator(seed, stats_path)
    try:
        alloc_ch = Channel(coordinator.address)
        hb_ch = Channel(coordinator.address)
        epochs, failed = register_fleet(hb_ch)
    except BaseException:
        stop_process(coordinator.proc)
        raise
    return time.perf_counter() - start, coordinator, alloc_ch, hb_ch, epochs, failed


# --------------------------------------------------------------------- #
# open loop
# --------------------------------------------------------------------- #
@dataclass
class OpenLoopResult:
    rows: List[loadgen.StepRow]
    sent: Dict[str, int]
    failed: Dict[str, int]
    lag_ms: np.ndarray
    unknown_replies: int
    #: Peak RSS of this process plus the coordinator's, read when the
    #: measured rate ends, so it does not depend on how far the ladder got.
    rss_mb: float = 0.0
    spans: List[Dict[str, Any]] = field(default_factory=list)


class OpenLoop:
    """Sends a :class:`loadgen.Schedule` on time and collects the replies."""

    def __init__(self, schedule: loadgen.Schedule, rates, alloc_ch: Channel, hb_ch: Channel,
                 epochs: List[int], coordinator_pid: int):
        self.schedule = schedule
        self.rates = list(rates)
        self.channels = (alloc_ch, hb_ch)
        self.epochs = epochs
        self.pid = coordinator_pid
        n = len(schedule)
        self.sent_at = np.full(n, np.nan)
        self.recv_at = np.full(n, np.nan)
        self.ok = np.zeros(n, dtype=bool)
        self.replies = np.zeros(n, dtype=np.int64)
        self.unknown = 0
        self.sent_alloc = 0
        self.answered_alloc = 0
        self._stop = threading.Event()
        self.receiver_error: Optional[BaseException] = None
        #: (step, outstanding allocates), sampled every BACKLOG_SAMPLE_S.
        self.backlog: List[Tuple[int, float]] = []

    # receiver thread ------------------------------------------------- #
    def _receive(self) -> None:
        selector = selectors.DefaultSelector()
        for channel in self.channels:
            selector.register(channel.sock, selectors.EVENT_READ, channel)
        try:
            while not self._stop.is_set():
                for key, _ in selector.select(timeout=0.05):
                    lines = key.data.read_lines()
                    now = time.perf_counter()
                    for line in lines:
                        self._on_reply(line, now)
        except (OSError, ValueError) as exc:  # includes a closed connection
            self.receiver_error = exc
        finally:
            selector.close()

    def _on_reply(self, line: bytes, now: float) -> None:
        msg = json.loads(line)
        rid = msg.get("id")
        if not isinstance(rid, int) or not 0 <= rid < len(self.replies) or np.isnan(self.sent_at[rid]):
            self.unknown += 1
            return
        self.replies[rid] += 1
        if self.replies[rid] > 1:
            self.ok[rid] = False  # a second reply to one id is a failure
            return
        self.recv_at[rid] = now
        ok = "result" in msg
        if self.schedule.kind[rid] == loadgen.ALLOCATE:
            if ok:
                ok = self._conserves(msg["result"], self.schedule.demand[rid])
            self.answered_alloc += 1
        self.ok[rid] = ok

    @staticmethod
    def _conserves(result: Dict[str, Any], demand: np.ndarray) -> bool:
        """The reply's per-node rates sum to the demand, per service."""
        nodes = result.get("nodes") or {}
        for j, svc in enumerate(SERVICES):
            total = sum(float(rates[svc]) for rates in nodes.values())
            if abs(total - demand[j]) > 1e-9 * max(1.0, demand[j]):
                return False
        return True

    # sender ---------------------------------------------------------- #
    def _params(self, i: int) -> Tuple[int, str, Dict[str, Any]]:
        s = self.schedule
        if s.kind[i] == loadgen.ALLOCATE:
            return 0, "allocate", {"demand": {svc: float(s.demand[i, j])
                                              for j, svc in enumerate(SERVICES)}}
        node = int(s.node[i])
        loads = {svc: {"arrival_rps": float(s.loads[i, j, 0]),
                       "utilization": float(s.loads[i, j, 1]),
                       "backlog": float(s.loads[i, j, 2])}
                 for j, svc in enumerate(SERVICES)}
        return 1, "heartbeat", {"node_id": node_id(node), "epoch": self.epochs[node],
                                "loads": loads}

    def _step_row(self, k: int, t0: float, final: bool = True) -> loadgen.StepRow:
        """Step ``k`` as measured; before the drain (``final=False``),
        requests still awaiting a reply count as pending, not failed."""
        s = self.schedule
        in_step = (s.step == k) & ~np.isnan(self.sent_at)
        alloc = in_step & (s.kind == loadgen.ALLOCATE)
        hb = in_step & (s.kind == loadgen.HEARTBEAT)
        due_abs = t0 + s.due_s
        answered_ok = self.ok & (self.replies == 1) & ~np.isnan(self.recv_at)
        failed = in_step & ~answered_ok
        if not final:
            failed &= self.replies > 0
        samples = [b for step, b in self.backlog if step == k]
        return loadgen.StepRow(
            rate=float(self.rates[k]),
            latencies_ms=((self.recv_at - due_abs)[alloc & answered_ok] * 1e3).tolist(),
            sent=int(in_step.sum()),
            failed=int(failed.sum()),
            backlog=samples,
            lag_ms=((self.sent_at - due_abs)[in_step] * 1e3).tolist(),
            heartbeat_ms=((self.recv_at - due_abs)[hb & answered_ok] * 1e3).tolist(),
        )

    def _drain(self) -> None:
        """Wait until every sent request has a reply, or the timeout."""
        sent_mask = ~np.isnan(self.sent_at)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline and self.receiver_error is None:
            if np.all(self.replies[sent_mask] > 0):
                break
            time.sleep(0.01)
        time.sleep(0.05)  # let a duplicate reply, if any, arrive

    def _totals(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Requests sent and failed, per method."""
        sent_mask = ~np.isnan(self.sent_at)
        good = self.ok & (self.replies == 1)
        sent, failed = {}, {}
        for code, method in enumerate(loadgen.METHODS):
            mask = sent_mask & (self.schedule.kind == code)
            sent[method] = int(mask.sum())
            failed[method] = int((mask & ~good).sum())
        return sent, failed

    def _send(self, i: int) -> None:
        which, method, params = self._params(i)
        self.sent_at[i] = time.perf_counter()
        self.channels[which].sock.sendall(_frame(i, method, params))

    def run(self, measure_step: int) -> OpenLoopResult:
        """Send the schedule on time; after the measured step, stop at the
        end of the first step that fails."""
        s = self.schedule
        receiver = threading.Thread(target=self._receive, name="loadgen-recv")
        receiver.start()
        t0 = time.perf_counter()
        current = -1
        next_sample = t0
        n_send = len(s)
        rss_mb = 0.0
        try:
            for i in range(len(s)):
                step = int(s.step[i])
                if step != current:
                    if current == measure_step:
                        rss_mb = peak_rss_mb_self() + peak_rss_mb_pid(self.pid)
                    if current >= measure_step and not self._step_row(current, t0, final=False).passes():
                        n_send = i
                        break
                    current = step
                which, method, params = self._params(i)
                frame = _frame(i, method, params)
                due = t0 + s.due_s[i]
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                now = time.perf_counter()
                while now >= next_sample:
                    self.backlog.append((current, self.sent_alloc - self.answered_alloc))
                    next_sample += BACKLOG_SAMPLE_S
                self.sent_at[i] = now
                self.channels[which].sock.sendall(frame)
                if which == 0:
                    self.sent_alloc += 1
            else:
                if current == measure_step:
                    rss_mb = peak_rss_mb_self() + peak_rss_mb_pid(self.pid)
            self._drain()
        finally:
            self._stop.set()
            receiver.join()
        ran = sorted({int(k) for k in s.step[:n_send] if k >= 0})
        sent_mask = ~np.isnan(self.sent_at)
        due_abs = t0 + s.due_s
        sent, failed = self._totals()
        spans = [
            {"name": f"loadgen.{loadgen.METHODS[s.kind[i]]}", "start": float(due_abs[i]),
             "end": float(self.recv_at[i]), "parent": -1, "request_id": int(i)}
            for i in np.nonzero(sent_mask)[0]
        ]
        return OpenLoopResult(
            rows=[self._step_row(k, t0) for k in ran], sent=sent, failed=failed,
            lag_ms=(self.sent_at - due_abs)[sent_mask] * 1e3,
            unknown_replies=self.unknown + (1 if self.receiver_error else 0),
            rss_mb=rss_mb, spans=spans,
        )


@dataclass
class ClosedLoopResult:
    rtt_ms: np.ndarray       # allocate round trips answered ok, in order
    sent: Dict[str, int]
    failed: Dict[str, int]
    cpu_s: float             # coordinator CPU time over the phase
    unknown_replies: int


def _read_until(loop: OpenLoop, selector: selectors.BaseSelector, done, timeout_s: float) -> bool:
    """Read replies on both connections until ``done()`` or the timeout.

    Blocks in ``select`` rather than polling: a poller holds one of the
    two CPUs, and a coordinator thread woken onto that CPU then waits for
    the poller's time slice (round trips of 4-5 ms instead of 1 ms).
    """
    deadline = time.perf_counter() + timeout_s
    while not done():
        left = deadline - time.perf_counter()
        if left <= 0:
            return False
        for key, _ in selector.select(timeout=left):
            lines = key.data.read_lines()
            now = time.perf_counter()
            for line in lines:
                loop._on_reply(line, now)
    return True


def run_closed(loop: OpenLoop, duration_s: float) -> ClosedLoopResult:
    """Back-to-back ``allocate`` round trips for ``duration_s``.

    Each allocate is sent as soon as the previous one is answered, so the
    coordinator never idles between requests; heartbeats keep their
    schedule on the other connection. The schedule's allocate due times
    are ignored, only their demands are used. One thread sends and
    reads both connections, so no thread hand-off sits inside a round
    trip.
    """
    s = loop.schedule
    allocs = np.nonzero(s.kind == loadgen.ALLOCATE)[0]
    beats = np.nonzero(s.kind == loadgen.HEARTBEAT)[0]
    selector = selectors.DefaultSelector()
    for channel in loop.channels:
        selector.register(channel.sock, selectors.EVENT_READ, channel)
    h = 0
    cpu_s = 0.0
    try:
        cpu_start = cpu_seconds_pid(loop.pid)
        t0 = time.perf_counter()
        for i in allocs.tolist():
            now = time.perf_counter()
            if now - t0 >= duration_s:
                break
            while h < len(beats) and t0 + s.due_s[beats[h]] <= now:
                loop._send(int(beats[h]))
                h += 1
            loop._send(i)
            if not _read_until(loop, selector, lambda: loop.replies[i] > 0, DRAIN_TIMEOUT_S):
                break
        cpu_s = cpu_seconds_pid(loop.pid) - cpu_start
        sent_mask = ~np.isnan(loop.sent_at)
        _read_until(loop, selector, lambda: bool(np.all(loop.replies[sent_mask] > 0)),
                    DRAIN_TIMEOUT_S)
        # Let a duplicate reply, if any, arrive.
        _read_until(loop, selector, lambda: False, 0.05)
    except (OSError, ValueError) as exc:  # includes a closed connection
        loop.receiver_error = exc
    finally:
        selector.close()
    sent, failed = loop._totals()
    answered = ~np.isnan(loop.sent_at) & loop.ok & (loop.replies == 1) & (s.kind == loadgen.ALLOCATE)
    return ClosedLoopResult(
        rtt_ms=(loop.recv_at - loop.sent_at)[answered] * 1e3,
        sent=sent, failed=failed, cpu_s=cpu_s,
        unknown_replies=loop.unknown + (1 if loop.receiver_error else 0),
    )


def ping_ms(channel: Channel, count: int) -> Tuple[np.ndarray, int]:
    """Closed-loop ``ping`` round trips: socket, codec and dispatch only."""
    times, failed = [], 0
    for _ in range(count):
        t0 = time.perf_counter()
        reply = channel.call("ping", {})
        times.append((time.perf_counter() - t0) * 1e3)
        if "result" not in reply:
            failed += 1
    return np.asarray(times), failed


def coordinator_status(channel: Channel) -> Dict[str, Any]:
    reply = channel.call("status", {})
    result = reply.get("result") or {}
    return {"version": result.get("version"), "counts": result.get("counts")}
