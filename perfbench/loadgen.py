"""Seeded open-loop schedule and the ladder rule of ``ctrl-serve``.

Pure functions only (no sockets, no repro import), so the harness
tests can pin them.

The schedule is one timeline of requests, each with the time it is due
relative to the start: ``allocate`` requests arrive as a Poisson stream
whose rate steps through :data:`LADDER` after a warm-up, and every node
sends a heartbeat once per ``heartbeat_period_s`` at its own phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from harness import latency_summary, percentile

ALLOCATE, HEARTBEAT = 0, 1
METHODS = ("allocate", "heartbeat")

#: Offered allocate rates (req/s), in the order they are tried.
LADDER = (250, 500, 1000, 1500, 2000)
#: Rate whose latencies are the gated end-to-end numbers.
MEASURE_RATE = 500
#: A ladder rate passes when its allocate tail stays within this.
LIMIT_MS = 20.0
#: Allocate samples per tail window: p99 leaves 10 beyond in each.
TAIL_WINDOW = 1000
WARMUP_RATE = 250
WARMUP_S = 1.0

#: Per-service allocate demand, requests/s, drawn uniformly per request.
DEMAND_RANGE = (2_000.0, 60_000.0)


@dataclass
class Schedule:
    due_s: np.ndarray       # (n,) sorted
    kind: np.ndarray        # (n,) ALLOCATE or HEARTBEAT
    step: np.ndarray        # (n,) ladder index, -1 for warm-up
    node: np.ndarray        # (n,) heartbeating node, -1 for allocate
    demand: np.ndarray      # (n, services) allocate demand, 0 for heartbeats
    loads: np.ndarray       # (n, services, 3) heartbeat arrival/util/backlog
    step_start_s: np.ndarray  # (len(rates) + 1,) warm-up end, then each step's end

    def __len__(self) -> int:
        return len(self.due_s)


def poisson_arrivals(rng: np.random.Generator, rate: float, start_s: float,
                     duration_s: float) -> np.ndarray:
    """Arrival times of a Poisson stream of ``rate``/s in ``[start, start+duration)``."""
    expected = rate * duration_s
    gaps = rng.exponential(1.0 / rate, size=int(expected + 10 * np.sqrt(expected) + 20))
    times = start_s + np.cumsum(gaps)
    while times[-1] < start_s + duration_s:  # vanishingly rare: draw more
        more = times[-1] + np.cumsum(rng.exponential(1.0 / rate, size=len(gaps)))
        times = np.concatenate([times, more])
    return times[times < start_s + duration_s]


def build_schedule(seed: int, rates: Sequence[float], step_s: float, num_nodes: int,
                   num_services: int, heartbeat_period_s: float = 1.0,
                   warmup_s: float = WARMUP_S, warmup_rate: float = WARMUP_RATE) -> Schedule:
    """The whole run's requests; the same seed gives the same schedule."""
    rng = np.random.default_rng([seed, 0x5EED])
    boundaries = [warmup_s + k * step_s for k in range(len(rates) + 1)]
    end_s = boundaries[-1]

    alloc_due = [poisson_arrivals(rng, warmup_rate, 0.0, warmup_s)]
    alloc_step = [np.full(len(alloc_due[0]), -1)]
    for k, rate in enumerate(rates):
        times = poisson_arrivals(rng, float(rate), boundaries[k], step_s)
        alloc_due.append(times)
        alloc_step.append(np.full(len(times), k))
    a_due = np.concatenate(alloc_due)
    a_step = np.concatenate(alloc_step)

    # Node i beats at phase (i + u_i) / N within each period, so beats
    # stay spread evenly and every node beats once per period.
    phase = (np.arange(num_nodes) + rng.random(num_nodes)) / num_nodes * heartbeat_period_s
    beats = np.arange(int(np.ceil(end_s / heartbeat_period_s)))
    h_due = (beats[:, None] * heartbeat_period_s + phase[None, :]).ravel()
    h_node = np.tile(np.arange(num_nodes), len(beats))
    keep = h_due < end_s
    h_due, h_node = h_due[keep], h_node[keep]
    h_step = np.searchsorted(np.asarray(boundaries), h_due, side="right") - 1
    h_step[h_due < warmup_s] = -1

    due = np.concatenate([a_due, h_due])
    kind = np.concatenate([np.full(len(a_due), ALLOCATE), np.full(len(h_due), HEARTBEAT)])
    step = np.concatenate([a_step, h_step])
    node = np.concatenate([np.full(len(a_due), -1), h_node])
    order = np.argsort(due, kind="stable")
    n = len(due)
    demand = np.zeros((n, num_services))
    is_alloc = kind[order] == ALLOCATE
    demand[is_alloc] = np.round(
        rng.uniform(*DEMAND_RANGE, size=(int(is_alloc.sum()), num_services)), 3)
    loads = np.zeros((n, num_services, 3))
    h = int((~is_alloc).sum())
    loads[~is_alloc] = np.stack([
        np.round(rng.uniform(100.0, 2000.0, size=(h, num_services)), 3),
        np.round(rng.uniform(0.05, 0.95, size=(h, num_services)), 4),
        np.round(rng.uniform(0.0, 5.0, size=(h, num_services)), 3),
    ], axis=-1)
    return Schedule(
        due_s=due[order], kind=kind[order], step=step[order], node=node[order],
        demand=demand, loads=loads, step_start_s=np.asarray(boundaries),
    )


# --------------------------------------------------------------------- #
# ladder rule
# --------------------------------------------------------------------- #
@dataclass
class StepRow:
    """One ladder rate as measured."""

    rate: float
    latencies_ms: Sequence[float]   # allocate, from due time, answered ok
    sent: int
    failed: int
    backlog: Sequence[float]        # outstanding allocates, sampled evenly
    lag_ms: Sequence[float] = ()    # send time minus due time
    heartbeat_ms: Sequence[float] = ()

    def backlog_grows(self) -> bool:
        """Outstanding requests rose by more than ``LIMIT_MS`` of arrivals.

        Compares the mean of the last quarter of samples with the first
        quarter; a server that keeps up holds the backlog flat.
        """
        samples = np.asarray(self.backlog, dtype=np.float64)
        if samples.size < 4:
            return bool(samples.size and samples[-1] > max(2.0, self.rate * LIMIT_MS / 1e3))
        q = samples.size // 4
        growth = samples[-q:].mean() - samples[:q].mean()
        return bool(growth > max(2.0, self.rate * LIMIT_MS / 1e3))

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {"rate": self.rate, "sent": self.sent, "failed": self.failed}
        if len(self.latencies_ms) >= 20:
            out.update(latency_summary(self.latencies_ms, window=TAIL_WINDOW))
        out["lag_ms_p99"] = percentile(self.lag_ms, 99.0) if len(self.lag_ms) else 0.0
        if len(self.heartbeat_ms) >= 20:
            hb = latency_summary(self.heartbeat_ms)
            out["heartbeat_n"] = hb["n"]
            out["heartbeat_tail_q"] = hb["tail_q"]
            out["heartbeat_tail_ms"] = hb["tail_ms"]
        out["backlog_grows"] = self.backlog_grows()
        out["passes"] = self.passes()
        return out

    def passes(self) -> bool:
        if self.failed or self.sent == 0 or len(self.latencies_ms) < 20:
            return False
        if self.backlog_grows():
            return False
        return latency_summary(self.latencies_ms, window=TAIL_WINDOW)["tail_ms"] <= LIMIT_MS


def max_passing_rate(rows: Sequence[StepRow]) -> float:
    """Highest rate passed before the first failing rate (0 if the first fails)."""
    best = 0.0
    for row in rows:
        if not row.passes():
            break
        best = row.rate
    return best


def measured_row(rows: Sequence[StepRow], rate: float = MEASURE_RATE) -> Optional[StepRow]:
    for row in rows:
        if row.rate == rate:
            return row
    return None


def rows_table(rows: List[StepRow]) -> str:
    lines = [f"{'req/s':>6s} {'n':>6s} {'p50 ms':>9s} {'tail':>6s} {'tail ms':>9s} "
             f"{'sent':>6s} {'failed':>6s} {'lag p99 ms':>10s} {'hb tail ms':>10s} "
             f"{'backlog':>8s} {'pass':>5s}"]
    for row in rows:
        s = row.summary()
        lines.append(
            f"{row.rate:6.0f} {s.get('n', 0):6d} {s.get('p50_ms', float('nan')):9.3f} "
            f"{'p%g' % s['tail_q'] if 'tail_q' in s else '-':>6s} "
            f"{s.get('tail_ms', float('nan')):9.3f} {row.sent:6d} {row.failed:6d} "
            f"{s['lag_ms_p99']:10.3f} {s.get('heartbeat_tail_ms', float('nan')):10.3f} "
            f"{'grows' if s['backlog_grows'] else 'flat':>8s} {str(s['passes']):>5s}"
        )
    return "\n".join(lines)
