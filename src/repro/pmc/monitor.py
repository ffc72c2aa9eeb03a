"""Twig's system monitor (Section III-B1).

Gathers raw per-service counter readings each interval, smooths them with a
weighted sum over the last ``eta`` time steps (the paper found eta = 5 best),
and feature-scales them into [0, 1] by max-value normalisation against the
microbenchmark-calibrated maxima, so "the neural network can capture the
importance of each state variable equally".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Mapping, Optional, Sequence, Set

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.pmc.counters import COUNTER_NAMES


class SystemMonitor:
    """Per-service PMC aggregation, smoothing, and normalisation."""

    def __init__(
        self,
        max_values: Mapping[str, float],
        counters: Sequence[str] = COUNTER_NAMES,
        eta: int = 5,
    ):
        if eta <= 0:
            raise ConfigurationError(f"eta must be positive, got {eta}")
        missing = [c for c in counters if c not in max_values]
        if missing:
            raise ConfigurationError(f"max values missing for counters: {missing}")
        bad = [c for c in counters if max_values[c] <= 0]
        if bad:
            raise ConfigurationError(f"max values must be positive for: {bad}")
        self.counters = tuple(counters)
        self.max_values = {c: float(max_values[c]) for c in self.counters}
        self.eta = eta
        # Linear recency weights: the most recent sample counts eta times a
        # sample eta-1 steps old.
        weights = np.arange(1, eta + 1, dtype=np.float64)
        self._weights = weights / weights.sum()
        self._history: Dict[str, Deque[np.ndarray]] = {}
        #: Services whose most recent readings were rejected as non-finite
        #: (sensor dropout / NaN faults). Cleared per service on the next
        #: good sample. Twig uses this to hold its last allocation instead
        #: of acting on garbage telemetry.
        self.degraded: Set[str] = set()

    @property
    def state_dim(self) -> int:
        return len(self.counters)

    def reset(self, service: Optional[str] = None) -> None:
        """Drop smoothing history for one service (or all)."""
        if service is None:
            self._history.clear()
        else:
            self._history.pop(service, None)

    def observe(self, service: str, readings: Mapping[str, float]) -> np.ndarray:
        """Record one interval's raw readings; returns the smoothed state.

        The returned vector is ordered like ``self.counters``, smoothed over
        up to ``eta`` past intervals, and normalised to [0, 1].

        Non-finite readings (PMC dropout / NaN faults) are *not* appended:
        they would poison the smoothing window for the next ``eta``
        intervals. The service is flagged in :attr:`degraded` and the last
        good smoothed state is returned unchanged (zeros when no good
        sample was ever seen).
        """
        missing = [c for c in self.counters if c not in readings]
        if missing:
            raise ShapeError(f"readings missing counters: {missing}")
        raw = np.array([float(readings[c]) for c in self.counters])
        if not np.all(np.isfinite(raw)):
            self.degraded.add(service)
            return self.state(service)
        self.degraded.discard(service)
        history = self._history.setdefault(service, deque(maxlen=self.eta))
        history.append(raw)
        return self._normalise(self._smooth(history))

    def state(self, service: str) -> np.ndarray:
        """The current smoothed, normalised state without adding a sample."""
        history = self._history.get(service)
        if not history:
            return np.zeros(self.state_dim)
        return self._normalise(self._smooth(history))

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable smoothing state: per-service raw history + flags."""
        return {
            "history": {
                service: np.stack(list(history))
                for service, history in self._history.items()
                if history
            },
            "degraded": sorted(self.degraded),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            history = {
                str(service): np.asarray(rows, dtype=np.float64)
                for service, rows in dict(state["history"]).items()
            }
            degraded = {str(service) for service in list(state["degraded"])}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed monitor state: {exc}") from exc
        for service, rows in history.items():
            if rows.ndim != 2 or rows.shape[1] != self.state_dim or rows.shape[0] > self.eta:
                raise CheckpointError(
                    f"monitor history for {service!r} has shape {rows.shape}, "
                    f"expected (<= {self.eta}, {self.state_dim})"
                )
        self._history = {
            service: deque(list(rows), maxlen=self.eta) for service, rows in history.items()
        }
        self.degraded = degraded

    def _smooth(self, history: Deque[np.ndarray]) -> np.ndarray:
        stacked = np.stack(list(history))  # (n, counters), oldest first
        weights = self._weights[-stacked.shape[0]:]
        weights = weights / weights.sum()
        return weights @ stacked

    def _normalise(self, values: np.ndarray) -> np.ndarray:
        maxima = np.array([self.max_values[c] for c in self.counters])
        return np.clip(values / maxima, 0.0, 1.0)


class MonitorBank:
    """R independent :class:`SystemMonitor` pipelines over one array.

    The fleet path runs one monitor per (environment x service) row; as a
    bank, one ``observe_rows`` call replaces R ``observe`` calls: the
    finite check, history append, and normalisation are single array
    passes over an ``(R, eta, counters)`` history buffer. The weighted
    smoothing itself stays one small ``weights @ history`` matvec per
    row — batching those into one GEMM is *not* bitwise identical to the
    scalar dgemv, and the bank's contract is bit-identity with R scalar
    monitors (``tests/test_engine_fleet_array.py``).

    Row semantics mirror :meth:`SystemMonitor.observe` exactly: a row
    whose readings contain any non-finite value is flagged degraded, its
    history is left untouched, and its last good smoothed state (zeros if
    none) is returned unchanged.
    """

    def __init__(
        self,
        max_values: Mapping[str, float],
        num_rows: int,
        counters: Sequence[str] = COUNTER_NAMES,
        eta: int = 5,
    ):
        if eta <= 0:
            raise ConfigurationError(f"eta must be positive, got {eta}")
        if num_rows <= 0:
            raise ConfigurationError(f"num_rows must be positive, got {num_rows}")
        missing = [c for c in counters if c not in max_values]
        if missing:
            raise ConfigurationError(f"max values missing for counters: {missing}")
        bad = [c for c in counters if max_values[c] <= 0]
        if bad:
            raise ConfigurationError(f"max values must be positive for: {bad}")
        self.counters = tuple(counters)
        self.max_values = {c: float(max_values[c]) for c in self.counters}
        self.eta = eta
        self.num_rows = num_rows
        base = np.arange(1, eta + 1, dtype=np.float64)
        base = base / base.sum()
        # Per-count weight vectors, computed exactly as
        # SystemMonitor._smooth computes them for a history of length n.
        self._weights_by_n = [np.empty(0)] + [
            base[-n:] / base[-n:].sum() for n in range(1, eta + 1)
        ]
        self._maxima = np.array([self.max_values[c] for c in self.counters])
        self._history = np.zeros((num_rows, eta, len(self.counters)))
        self._counts = np.zeros(num_rows, dtype=np.int64)
        #: Rows whose most recent readings were non-finite (see
        #: :attr:`SystemMonitor.degraded`).
        self.degraded = np.zeros(num_rows, dtype=bool)

    @property
    def state_dim(self) -> int:
        return len(self.counters)

    def observe_rows(self, raw: np.ndarray) -> np.ndarray:
        """Record one interval's ``(R, counters)`` readings; smoothed states.

        Returns the ``(R, counters)`` matrix of smoothed, normalised
        states — row r equals what monitor r's ``observe`` would return.
        """
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != (self.num_rows, len(self.counters)):
            raise ShapeError(
                f"readings have shape {raw.shape}, expected "
                f"({self.num_rows}, {len(self.counters)})"
            )
        finite = np.isfinite(raw).all(axis=1)
        self.degraded = ~finite
        if finite.all():
            # All rows advanced: shift in place (NumPy buffers overlapping
            # assignments) instead of a fancy-indexed copy.
            self._history[:, :-1] = self._history[:, 1:]
            self._history[:, -1] = raw
            np.minimum(self._counts + 1, self.eta, out=self._counts)
        else:
            rows = np.nonzero(finite)[0]
            if rows.size:
                self._history[rows, :-1] = self._history[rows, 1:]
                self._history[rows, -1] = raw[rows]
                self._counts[rows] = np.minimum(self._counts[rows] + 1, self.eta)
        return self.states()

    #: The bank stands in for a single node's system monitor, whose
    #: per-interval entry point is ``observe``.
    observe = observe_rows

    def states(self) -> np.ndarray:
        """All rows' current smoothed states without adding samples.

        Rows are grouped by history length so each group is one
        broadcasted ``matmul`` — NumPy dispatches that to the same
        per-row dgemv ``SystemMonitor._smooth`` performs, so the results
        stay bitwise identical while the Python-level work drops from
        O(rows) to O(eta) group dispatches.
        """
        smoothed = np.zeros((self.num_rows, len(self.counters)))
        counts = self._counts
        history = self._history
        eta = self.eta
        for n in range(1, eta + 1):
            rows = np.nonzero(counts == n)[0]
            if not rows.size:
                continue
            if rows.size == self.num_rows:
                block = history if n == eta else history[:, eta - n:]
            else:
                block = history[rows, eta - n:]
            smoothed[rows] = np.matmul(self._weights_by_n[n], block)
        return np.clip(smoothed / self._maxima, 0.0, 1.0)

    def reset_rows(self, rows: np.ndarray) -> None:
        """Drop the smoothing history of ``rows`` (cf. :meth:`SystemMonitor.reset`)."""
        self._history[rows] = 0.0
        self._counts[rows] = 0
        self.degraded[rows] = False

    def state_dict(self) -> Dict[str, Any]:
        """Array-shaped smoothing state (histories tail-packed per row)."""
        return {
            "history": self._history.copy(),
            "counts": self._counts.copy(),
            "degraded": self.degraded.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            history = np.asarray(state["history"], dtype=np.float64)
            counts = np.asarray(state["counts"], dtype=np.int64).reshape(-1)
            degraded = np.asarray(state["degraded"], dtype=bool).reshape(-1)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed monitor-bank state: {exc}") from exc
        expected = (self.num_rows, self.eta, len(self.counters))
        if history.shape != expected:
            raise CheckpointError(
                f"monitor-bank history has shape {history.shape}, expected {expected}"
            )
        if counts.shape[0] != self.num_rows or degraded.shape[0] != self.num_rows:
            raise CheckpointError(
                f"monitor-bank counts/degraded rows do not match {self.num_rows}"
            )
        if counts.min(initial=0) < 0 or counts.max(initial=0) > self.eta:
            raise CheckpointError(
                f"monitor-bank counts out of range [0, {self.eta}]"
            )
        self._history = history.copy()
        self._counts = counts.copy()
        self.degraded = degraded.copy()
