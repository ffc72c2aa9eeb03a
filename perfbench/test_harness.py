"""Tests of the benchmark's own harness: the percentile rule, the
ladder rule, the seeded schedule, span self times and BENCHMARK.json.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import loadgen  # noqa: E402
from loadgen import StepRow  # noqa: E402


# --------------------------------------------------------------------- #
# percentile rule: highest percentile with >= 10 samples beyond it
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n, expected", [
    (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (399, 95.0), (400, 97.5), (999, 97.5), (1000, 99.0), (100_000, 99.0),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    q = harness.tail_percentile(n)
    assert q == expected
    assert n * (100 - q) / 100 >= 10 - 1e-9


def test_tail_percentile_rejects_too_few_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile(19)


def test_latency_summary_tail_is_median_over_windows():
    base = np.linspace(1.0, 100.0, 200)
    values = np.concatenate([base, base + 50.0, base + 10.0])
    pooled = harness.latency_summary(values)
    windowed = harness.latency_summary(values, window=200)
    assert pooled["tail_q"] == 97.5 and pooled["windows"] == 1
    assert windowed["tail_q"] == 95.0 and windowed["windows"] == 3 and windowed["n"] == 600
    assert windowed["tail_ms"] == pytest.approx(np.percentile(base, 95.0) + 10.0)
    assert windowed["p50_ms"] == pytest.approx(np.percentile(base, 50.0) + 10.0)


def test_latency_summary_single_window_uses_every_sample():
    values = np.linspace(1.0, 100.0, 300)
    summary = harness.latency_summary(values, window=200)
    assert summary["windows"] == 1 and summary["tail_q"] == 95.0
    assert summary["tail_ms"] == pytest.approx(np.percentile(values, 95.0))


# --------------------------------------------------------------------- #
# allocate_max_rps ladder on synthetic latency tables
# --------------------------------------------------------------------- #
def _row(rate, tail_ms, failed=0, backlog=None, n=2000):
    # n samples, all at 1 ms except the top 2 % at tail_ms, so p99 reads tail_ms.
    latencies = [1.0] * (n - n // 50) + [tail_ms] * (n // 50)
    return StepRow(rate=rate, latencies_ms=latencies, sent=n, failed=failed,
                   backlog=backlog if backlog is not None else [1.0] * 40)


def test_ladder_highest_passing_rate():
    rows = [_row(250, 5), _row(500, 8), _row(1000, 19), _row(1500, 400)]
    assert loadgen.max_passing_rate(rows) == 1000


def test_ladder_stops_at_first_failure_even_if_a_later_rate_passes():
    rows = [_row(250, 5), _row(500, 60), _row(1000, 5)]
    assert loadgen.max_passing_rate(rows) == 250


def test_ladder_first_rate_failing_gives_zero():
    assert loadgen.max_passing_rate([_row(250, 50), _row(500, 5)]) == 0


def test_ladder_every_rate_passing_gives_the_top():
    assert loadgen.max_passing_rate([_row(r, 5) for r in loadgen.LADDER]) == loadgen.LADDER[-1]


def test_ladder_failed_request_fails_the_rate():
    assert loadgen.max_passing_rate([_row(250, 5), _row(500, 5, failed=1)]) == 250


def test_ladder_growing_backlog_fails_the_rate():
    growing = list(np.linspace(0, 200, 40))
    rows = [_row(250, 5), _row(500, 5, backlog=growing)]
    assert rows[1].backlog_grows()
    assert loadgen.max_passing_rate(rows) == 250


def test_backlog_flat_with_noise_does_not_grow():
    rng = np.random.default_rng(0)
    assert not _row(1000, 5, backlog=list(rng.integers(0, 8, size=80))).backlog_grows()


def test_ladder_limit_is_inclusive():
    row = StepRow(rate=500, latencies_ms=[loadgen.LIMIT_MS] * 1000, sent=1000, failed=0,
                  backlog=[0.0] * 40)
    assert row.passes()


# --------------------------------------------------------------------- #
# seeded schedule generator
# --------------------------------------------------------------------- #
def _schedule(seed, rates=(250, 500), step_s=2.0, nodes=8, period=0.5):
    return loadgen.build_schedule(seed, rates, step_s, nodes, 2, heartbeat_period_s=period)


def test_schedule_same_seed_same_schedule():
    a, b = _schedule(3), _schedule(3)
    for field in ("due_s", "kind", "step", "node", "demand", "loads"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_schedule_other_seed_other_schedule():
    assert not np.array_equal(_schedule(3).due_s, _schedule(4).due_s)


def test_schedule_is_sorted_and_labelled():
    s = _schedule(5)
    assert np.all(np.diff(s.due_s) >= 0)
    np.testing.assert_allclose(s.step_start_s, [1.0, 3.0, 5.0])
    assert s.due_s[-1] < 5.0
    assert set(s.step[s.due_s < 1.0]) == {-1}
    assert set(s.step[(s.due_s >= 1.0) & (s.due_s < 3.0)]) == {0}
    assert set(s.step[s.due_s >= 3.0]) == {1}


def test_schedule_allocate_counts_match_poisson_rates():
    s = _schedule(7, rates=(250, 1000), step_s=4.0)
    for k, rate in enumerate((250, 1000)):
        count = int(((s.step == k) & (s.kind == loadgen.ALLOCATE)).sum())
        expected = rate * 4.0
        assert abs(count - expected) < 5 * np.sqrt(expected)


def test_schedule_every_node_heartbeats_once_per_period():
    s = _schedule(9, nodes=16, period=0.5)
    hb = s.kind == loadgen.HEARTBEAT
    for start in np.arange(0.0, s.step_start_s[-1], 0.5):
        in_period = hb & (s.due_s >= start) & (s.due_s < start + 0.5)
        assert sorted(s.node[in_period]) == list(range(16))


def test_schedule_payloads():
    s = _schedule(11)
    alloc = s.kind == loadgen.ALLOCATE
    lo, hi = loadgen.DEMAND_RANGE
    assert np.all((s.demand[alloc] >= lo) & (s.demand[alloc] <= hi))
    assert np.all(s.demand[~alloc] == 0) and np.all(s.node[alloc] == -1)
    assert np.all(s.loads[alloc] == 0) and np.all(s.loads[~alloc][..., 1] > 0)


def test_poisson_arrivals_stay_in_window():
    times = loadgen.poisson_arrivals(np.random.default_rng(0), 2000.0, 3.0, 0.5)
    assert times.min() >= 3.0 and times.max() < 3.5
    assert np.all(np.diff(times) > 0)


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
def test_self_time_subtracts_children():
    tracer = harness.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    # Replace the clock readings with known ones: outer 0-10, inners 1-3, 4-8.
    tracer.starts[:] = [0.0, 1.0, 4.0]
    tracer.ends[:] = [10.0, 3.0, 8.0]
    assert tracer.parents == [-1, 0, 0]
    self_times = tracer.self_times()
    np.testing.assert_allclose(self_times["outer"], [4.0])
    np.testing.assert_allclose(self_times["inner"], [2.0, 4.0])


def test_wrap_records_spans_and_runs_after_hook():
    class Layer:
        def work(self, x):
            return x * 2

    tracer = harness.Tracer()
    layer = Layer()
    seen = []
    tracer.wrap(layer, "work", "layer.work", lambda args, result: seen.append((args, result)))
    tracer.request_id = 7
    with tracer.span("root"):
        assert layer.work(3) == 6
    assert tracer.names == ["root", "layer.work"]
    assert tracer.parents == [-1, 0] and tracer.request_ids == [7, 7]
    assert seen == [((3,), 6)]


# --------------------------------------------------------------------- #
# BENCHMARK.json matches what run.py reports
# --------------------------------------------------------------------- #
def test_benchmark_json_names_the_harness_metrics():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == ["twig-colocated", "fleet-256", "ctrl-serve"]
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in doc["end_to_end"])
               for m in doc["end_to_end"])
