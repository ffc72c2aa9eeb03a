"""Repository benchmark: Twig decision latency, the closed-loop fleet tick
and open-loop coordinator serving.

    python3 perfbench/run.py --workload twig-colocated --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

``twig-colocated``  one node, Twig-C on masstree+moses at the fig13 mid cell
``fleet-256``       256 nodes x 4 services under one FleetTwig, diurnal traffic
``ctrl-serve``      ``repro serve`` driven open-loop over RPC by 64 nodes

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that times calls into each layer and reports the
per-layer metrics and the tracing overhead. Every run checks its outputs,
appends a record with its provenance to ``.perfbench/records.jsonl``,
prints a table and, as its last line, one JSON object. The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import END_TO_END, PER_LAYER, STATE_DIR, UNITS  # noqa: E402

WORKLOADS = ("twig-colocated", "fleet-256", "ctrl-serve")
SIM_SETUP_REPEATS = 7
CTRL_SETUP_REPEATS = 4
PING_COUNT = 200


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.extra: Dict[str, Any] = {}
        self.lines: List[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.failed += 1

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"  {name:<34s} {value:12.4f} {unit:<6s} {note}")


# --------------------------------------------------------------------- #
# simulation workloads
# --------------------------------------------------------------------- #
def _same_outcome(a, b) -> bool:
    return (a.qos_pct, a.mean_power_w, a.digest) == (b.qos_pct, b.mean_power_w, b.digest)


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import sim

    out = Outcome()
    run_pass = sim.PASSES[workload]
    per_pass = sim.TWIG_INTERVALS if workload == "twig-colocated" else sim.FLEET_TICKS
    passes = []
    if trace:
        passes.append(run_pass(seed))
        tracer = harness.Tracer()
        passes.append(run_pass(seed, tracer))
        tracer.write(STATE_DIR / "traces" / f"{workload}-seed{seed}.jsonl")
    else:
        setup = harness.timed_setup_probe(workload, seed, SIM_SETUP_REPEATS)
        started = time.perf_counter()
        while True:
            passes.append(run_pass(seed))
            elapsed = time.perf_counter() - started
            # Another pass only if it is predicted to end within --seconds.
            if len(passes) >= sim.MIN_PASSES and elapsed / len(passes) * (len(passes) + 1) > seconds:
                break
    for p in passes:
        out.attempted += p.nodes * len(p.decision_s)
        for message in p.checks_failed:
            out.fail(message)
    for i, p in enumerate(passes[1:], start=2):
        if not _same_outcome(passes[0], p):
            out.fail(f"pass {i} differs from pass 1 on the same seed: "
                     f"qos {p.qos_pct} vs {passes[0].qos_pct}, power {p.mean_power_w} vs "
                     f"{passes[0].mean_power_w}, digest {p.digest} vs {passes[0].digest}")
    first = passes[0]
    window = sim.TWIG_WINDOW if workload == "twig-colocated" else sim.FLEET_WINDOW
    decision = "Twig.update" if workload == "twig-colocated" else "FleetTwig.update_batch"
    out.extra.update({
        "passes": len(passes), "qos_guarantee_pct": first.qos_pct,
        "qos_by_service": first.qos_by_service, "mean_power_w": first.mean_power_w,
        "assignment_digest": first.digest,
    })
    out.lines.append(f"{workload}: {len(passes)} passes of {per_pass} intervals, "
                     f"seed {seed}{', pass 2 traced' if trace else ''}")
    if trace:
        untraced = passes[0].decision_s
        traced = passes[1].decision_s
        overhead = (statistics.median(traced) - statistics.median(untraced)) * 1e3
        out.metrics.update(passes[1].layers)
        out.metrics["trace.overhead_ms"] = overhead
        out.line("decision_ms_p50 (untraced pass)", statistics.median(untraced) * 1e3, "ms", decision)
        out.line("decision_ms_p50 (traced pass)", statistics.median(traced) * 1e3, "ms", decision)
    else:
        decisions_ms = np.concatenate([p.decision_s for p in passes]) * 1e3
        lat = harness.latency_summary(decisions_ms, window=per_pass)
        # Means over every interval of every pass: the host's speed flips
        # between a fast and a slow mode, which moves a median in steps
        # but a mean only by the share of time spent in each.
        loop_rate = sum(p.nodes * len(p.decision_s) for p in passes) / sum(p.loop_s for p in passes)
        out.metrics.update({
            "setup_s": statistics.median(setup),
            "latency_ms_mean": float(np.mean(decisions_ms)),
            "work_per_host_s": loop_rate,
            "peak_rss_mb": harness.peak_rss_mb_self(),
        })
        out.extra.update({"setup_samples_s": setup, "decision": lat,
                          "decision_ms_mean": out.metrics["latency_ms_mean"],
                          "loop_s": [p.loop_s for p in passes]})
        out.line("setup_s", out.metrics["setup_s"], "s",
                 f"median of {len(setup)} fresh processes, spawn to first interval")
        out.line("decision_ms_mean", out.metrics["latency_ms_mean"], "ms",
                 f"{decision}, n={lat['n']}, all passes; Table III budget 57 ms")
        out.line("decision_ms_p50", lat["p50_ms"], "ms", "median over passes; not gated")
        out.line(f"decision_ms_p{lat['tail_q']:g}", lat["tail_ms"], "ms",
                 f"median over passes; >=10 of a pass's {per_pass} samples beyond it; not gated")
        out.line("node_intervals_per_s", loop_rate, "1/s",
                 "env.step + decision, whole loop of all passes")
        out.line("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", "benchmark process")
    by_service = ", ".join(f"{k} {v:.2f}" for k, v in first.qos_by_service.items())
    out.line("qos_guarantee_pct", first.qos_pct, "%", f"last {window} intervals ({by_service})")
    out.line("mean_power_w", first.mean_power_w, "W", f"true per-node power, last {window}")
    return out


# --------------------------------------------------------------------- #
# ctrl-serve
# --------------------------------------------------------------------- #
def _close(*channels) -> None:
    for channel in channels:
        channel.close()


#: Allocate slots generated for the closed-loop phase, per second: above
#: what one connection can complete back to back.
CLOSED_SLOTS_PER_S = 5000


def _count(out: Outcome, result) -> None:
    for method, count in result.sent.items():
        out.attempted += count
        for _ in range(result.failed[method]):
            out.fail(f"{method} request failed (error, no reply, duplicate or wrong sums)")
    if result.unknown_replies:
        out.fail(f"{result.unknown_replies} replies with unknown ids or a broken connection")


def _drive(ctrl, loadgen, seed: int, rates, closed_s: float, step_s: float, out: Outcome,
           stats_path=None, pings: int = 0) -> Dict[str, Any]:
    """One coordinator: set up, ping, run the closed-loop phase, then
    ``rates`` open loop, and tear it down."""
    setup_s, coordinator, alloc_ch, hb_ch, epochs, reg_failed = ctrl.time_setup(seed, stats_path)
    out.attempted += ctrl.NODES
    for _ in range(reg_failed):
        out.fail("register failed")
    try:
        ping = None
        if pings:
            ping, ping_failed = ctrl.ping_ms(alloc_ch, pings)
            out.attempted += pings
            for _ in range(ping_failed):
                out.fail("ping failed")
        closed_schedule = loadgen.build_schedule(
            seed + 1, [CLOSED_SLOTS_PER_S], closed_s, ctrl.NODES, len(ctrl.SERVICES),
            ctrl.HEARTBEAT_PERIOD_S, warmup_s=0.0)
        closed = ctrl.run_closed(
            ctrl.OpenLoop(closed_schedule, [CLOSED_SLOTS_PER_S], alloc_ch, hb_ch, epochs,
                          coordinator.pid), closed_s)
        schedule = loadgen.build_schedule(seed, rates, step_s, ctrl.NODES, len(ctrl.SERVICES),
                                          ctrl.HEARTBEAT_PERIOD_S)
        loop = ctrl.OpenLoop(schedule, rates, alloc_ch, hb_ch, epochs, coordinator.pid)
        result = loop.run(measure_step=list(rates).index(loadgen.MEASURE_RATE))
        status = ctrl.coordinator_status(alloc_ch)
    finally:
        _close(alloc_ch, hb_ch)
        harness.stop_process(coordinator.proc)
    _count(out, closed)
    _count(out, result)
    if len(closed.rtt_ms) < 2 * harness.MIN_BEYOND:
        out.fail(f"only {len(closed.rtt_ms)} closed-loop allocate round trips")
    return {"setup_s": setup_s, "closed": closed, "result": result, "status": status,
            "ping_ms": ping}


def _closed_summary(loadgen, closed) -> Dict[str, float]:
    summary = harness.latency_summary(closed.rtt_ms, window=loadgen.TAIL_WINDOW)
    summary["mean_ms"] = float(np.mean(closed.rtt_ms))
    summary["work_per_host_s"] = (closed.sent["allocate"] + closed.sent["heartbeat"]) / max(
        closed.cpu_s, 1e-9)
    return summary


def run_ctrl(seed: int, seconds: float, trace: bool) -> Outcome:
    import ctrl
    import loadgen

    out = Outcome()
    # The gated closed-loop phase gets 70 % of --seconds, since the
    # longer it runs the less a change in the host's speed moves its
    # mean; the ladder, which usually stops after three rates, gets a
    # twentieth per rate. The traced run makes two closed-loop phases of
    # 30 % each.
    closed_s = seconds * (0.3 if trace else 0.7)
    step_s = max(2.0, seconds / 20)
    measure = [loadgen.MEASURE_RATE]
    if trace:
        plain = _drive(ctrl, loadgen, seed, measure, closed_s, step_s, out)
        stats_path = STATE_DIR / "traces" / f"ctrl-serve-seed{seed}.coordinator.json"
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        traced = _drive(ctrl, loadgen, seed, measure, closed_s, step_s, out, stats_path,
                        PING_COUNT)
        stats = json.loads(stats_path.read_text())
        closed_plain = _closed_summary(loadgen, plain["closed"])
        closed_traced = _closed_summary(loadgen, traced["closed"])
        row_plain = plain["result"].rows[0].summary()
        row_traced = traced["result"].rows[0].summary()
        res = traced["result"]
        sent = {m: res.sent[m] + traced["closed"].sent[m] for m in loadgen.METHODS}
        failed = {m: res.failed[m] + traced["closed"].failed[m] for m in loadgen.METHODS}
        out.metrics.update({
            "cluster.balancer_assign_us": stats["cluster.balancer_assign_us"],
            "ctrl.rpc.ping_ms": float(statistics.median(traced["ping_ms"])),
            "ctrl.registry.heartbeat_us": stats["ctrl.registry.heartbeat_us"],
            "ctrl.registry.sweep_us": stats["ctrl.registry.sweep_us"],
            "ctrl.registry.loads_us": stats["ctrl.registry.loads_us"],
            "ctrl.requests_sent.allocate": float(sent["allocate"]),
            "ctrl.requests_sent.heartbeat": float(sent["heartbeat"]),
            "ctrl.requests_failed.allocate": float(failed["allocate"]),
            "ctrl.requests_failed.heartbeat": float(failed["heartbeat"]),
            "loadgen.lag_ms_p99": float(harness.percentile(res.lag_ms, 99.0)),
            "trace.overhead_ms": closed_traced["p50_ms"] - closed_plain["p50_ms"],
        })
        harness.Tracer().write(STATE_DIR / "traces" / f"ctrl-serve-seed{seed}.loadgen.jsonl",
                               res.spans)
        out.extra.update({"coordinator_stats": stats, "untraced_row": row_plain,
                          "traced_row": row_traced, "untraced_closed": closed_plain,
                          "traced_closed": closed_traced})
        out.lines.append(f"ctrl-serve: closed loop for {closed_s:g} s, then {loadgen.MEASURE_RATE} "
                         f"req/s open loop for {step_s:g} s, against plain then traced "
                         f"coordinator; seed {seed}")
        out.line("allocate_rtt_ms_p50 (untraced)", closed_plain["p50_ms"], "ms",
                 f"closed loop, n={closed_plain['n']}")
        out.line("allocate_rtt_ms_p50 (traced)", closed_traced["p50_ms"], "ms",
                 f"closed loop, n={closed_traced['n']}")
        out.line("allocate_ms_p50 (untraced)", row_plain["p50_ms"], "ms",
                 f"open loop, n={row_plain['n']}")
        out.line("allocate_ms_p50 (traced)", row_traced["p50_ms"], "ms",
                 f"open loop, n={row_traced['n']}")
        return out

    setup = []
    for _ in range(CTRL_SETUP_REPEATS):
        setup_s, coordinator, alloc_ch, hb_ch, _, reg_failed = ctrl.time_setup(seed)
        _close(alloc_ch, hb_ch)
        harness.stop_process(coordinator.proc)
        setup.append(setup_s)
        out.attempted += ctrl.NODES
        for _ in range(reg_failed):
            out.fail("register failed")
    run = _drive(ctrl, loadgen, seed, list(loadgen.LADDER), closed_s, step_s, out)
    setup.append(run["setup_s"])
    closed = _closed_summary(loadgen, run["closed"])
    res = run["result"]
    max_rps = loadgen.max_passing_rate(res.rows)
    rss = res.rss_mb
    lag_p99 = float(harness.percentile(res.lag_ms, 99.0))
    out.metrics.update({
        "setup_s": statistics.median(setup),
        "latency_ms_mean": closed["mean_ms"],
        "work_per_host_s": closed["work_per_host_s"],
        "peak_rss_mb": rss,
    })
    out.extra.update({
        "setup_samples_s": setup, "closed_loop": closed,
        "ladder": [r.summary() for r in res.rows],
        "allocate_max_rps": max_rps, "loadgen_lag_ms_p99": lag_p99,
        "coordinator_status": run["status"], "sent": res.sent, "failed": res.failed,
    })
    out.lines.append(f"ctrl-serve: {ctrl.NODES} nodes heartbeating every "
                     f"{ctrl.HEARTBEAT_PERIOD_S:g} s; seed {seed}")
    out.line("setup_s", out.metrics["setup_s"], "s",
             f"median of {len(setup)}: spawn coordinator to {ctrl.NODES} nodes registered")
    out.lines.append(f" closed loop, back-to-back allocate for {closed_s:g} s:")
    out.line("allocate_rtt_ms_mean", closed["mean_ms"], "ms", f"n={closed['n']}")
    out.line("allocate_rtt_ms_p50", closed["p50_ms"], "ms",
             f"median over {closed['windows']} windows; not gated")
    out.line(f"allocate_rtt_ms_p{closed['tail_q']:g}", closed["tail_ms"], "ms",
             f"median over {closed['windows']} windows; not gated")
    out.line("work_per_host_s", closed["work_per_host_s"], "1/s",
             "requests per coordinator CPU-second")
    out.lines.append(f" open loop, allocate ladder {list(loadgen.LADDER)} req/s, "
                     f"{step_s:g} s per rate, latency from due time:")
    out.lines.append(loadgen.rows_table(res.rows))
    row = loadgen.measured_row(res.rows)
    if row is None or len(row.latencies_ms) < 20:
        out.fail(f"no allocate latencies at {loadgen.MEASURE_RATE} req/s")
    else:
        s = row.summary()
        out.line("allocate_ms_p50", s["p50_ms"], "ms", f"at {loadgen.MEASURE_RATE} req/s, n={s['n']}")
        out.line(f"allocate_ms_p{s['tail_q']:g}", s["tail_ms"], "ms",
                 f"at {loadgen.MEASURE_RATE} req/s")
        if "heartbeat_tail_ms" in s:
            out.line(f"heartbeat_ms_p{s['heartbeat_tail_q']:g}", s["heartbeat_tail_ms"], "ms",
                     f"at {loadgen.MEASURE_RATE} req/s, n={s['heartbeat_n']}")
    out.line("allocate_max_rps", max_rps, "req/s",
             f"p99 <= {loadgen.LIMIT_MS:g} ms, nothing failed, backlog flat")
    out.line("loadgen.lag_ms_p99", lag_p99, "ms", "send time minus due time, whole ladder")
    out.line("peak_rss_mb", rss, "MB",
             f"benchmark process + coordinator, through {loadgen.MEASURE_RATE} req/s")
    out.lines.append(f"  coordinator at end: {run['status']}")
    return out


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def check_against_records(out: Outcome, workload: str, seed: int, prov: Dict[str, Any]) -> None:
    """Same seed, source, benchmark code and host as an earlier record:
    outcomes must match."""
    if "assignment_digest" not in out.extra:
        return
    mine = (out.extra["qos_guarantee_pct"], out.extra["mean_power_w"],
            out.extra["assignment_digest"])
    for record in harness.load_records():
        prior = record.get("extra", {})
        if (record.get("workload") != workload or record.get("seed") != seed
                or "assignment_digest" not in prior
                or record["provenance"].get("source_digest") != prov["source_digest"]
                or record["provenance"].get("bench_digest") != prov["bench_digest"]
                or tuple(harness.host_key(record["provenance"])) != harness.host_key(prov)):
            continue
        theirs = (prior["qos_guarantee_pct"], prior["mean_power_w"], prior["assignment_digest"])
        if theirs != mine:
            out.fail(f"outcome {mine} differs from an earlier same-seed run {theirs}")
        return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_repro()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    prov = harness.provenance()
    if args.workload == "ctrl-serve":
        out = run_ctrl(args.seed, args.seconds, trace)
    else:
        out = run_sim(args.workload, args.seed, args.seconds, trace)
    check_against_records(out, args.workload, args.seed, prov)

    names = PER_LAYER if trace else END_TO_END
    if trace:
        for name, _ in PER_LAYER:
            out.metrics.setdefault(name, 0.0)  # layer not on this workload's path
    missing = [name for name, _ in names if name not in out.metrics]
    for name in missing:
        out.fail(f"metric {name} was not measured")
    correct = not out.failures
    print(f"host: {prov['cpu_model']}, {prov['affinity_cpus']} cpus, numpy {prov['numpy']}, "
          f"{prov['blas_build']} threads={prov['blas_threads']}, python {prov['python']}, "
          f"source {prov['git_sha'] or prov['source_digest']}")
    print("\n".join(out.lines))
    if trace:
        print("per-layer (traced run; 0 = layer not on this workload's path):")
        for name, unit in PER_LAYER:
            print(f"  {name:<34s} {out.metrics[name]:12.4f} {unit}")
    for failure in out.failures:
        print(f"CHECK FAILED: {failure}")
    harness.append_record({
        "time": time.time(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "provenance": prov,
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "failures": out.failures, "metrics": out.metrics, "extra": out.extra,
    })
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": UNITS[name]}
                    for name, _ in names if name in out.metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
