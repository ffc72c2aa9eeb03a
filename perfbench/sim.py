"""Closed-loop simulation workloads: ``twig-colocated`` and ``fleet-256``.

Each pass builds the workload from the seed and runs it to the end; a
run makes at least two passes, which must agree exactly (QoS, power and
a digest of the final assignments). Timed operations are the manager's
decision per interval; the environment step is timed only as part of
the loop's throughput.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from harness import Tracer, median_ms, median_us

TWIG_SERVICES = ("masstree", "moses")
#: The fig13 "mid" cell: half of the pair's colocated maximum load.
TWIG_LEVEL = 0.5
TWIG_INTERVALS = 1200
TWIG_WINDOW = 300

FLEET_SERVICES = ("masstree", "xapian", "moses", "img-dnn")
FLEET_NODES = 256
FLEET_TICKS = 200
FLEET_WINDOW = 100
FLEET_REGIONS = ("r0", "r1")

MIN_PASSES = 2


@dataclass
class PassResult:
    decision_s: np.ndarray
    #: Host time of the whole loop: environment steps plus decisions.
    loop_s: float
    nodes: int
    qos_pct: float
    mean_power_w: float
    digest: str
    qos_by_service: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks_failed: List[str] = field(default_factory=list)


def _digest(assignments: List[Dict[str, Any]]) -> str:
    h = hashlib.sha256()
    for node in assignments:
        for name in sorted(node):
            a = node[name]
            h.update(repr((name, tuple(a.cores), a.freq_index, a.llc_ways)).encode())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------- #
# builders (also used by setup_probe.py)
# --------------------------------------------------------------------- #
def build_twig_colocated(seed: int):
    from repro.experiments.common import HarnessConfig, build_twig, make_environment
    from repro.experiments.fig13_twig_c_fixed import colocated_max_sweep
    from repro.services.profiles import get_profile

    fraction = round(TWIG_LEVEL * colocated_max_sweep(TWIG_SERVICES), 4)
    env = make_environment(list(TWIG_SERVICES), [fraction, fraction], seed)
    twig = build_twig([get_profile(s) for s in TWIG_SERVICES], HarnessConfig.quick(),
                      seed_offset=seed)
    return env, twig, twig.initial_assignments()


def build_fleet(seed: int):
    from repro.cluster.environment import ClusterEnvironment
    from repro.core.config import TwigConfig
    from repro.engine.fleet import FleetTwig
    from repro.services.profiles import get_profile

    venv = ClusterEnvironment.from_services(
        list(FLEET_SERVICES), num_nodes=FLEET_NODES, seed=seed, traffic="diurnal",
        balancer="round_robin", regions=FLEET_REGIONS,
    )
    manager = FleetTwig(
        [get_profile(s) for s in FLEET_SERVICES],
        TwigConfig.fast(epsilon_mid_steps=80, epsilon_final_steps=160),
        np.random.default_rng(seed + 1),
        num_envs=FLEET_NODES,
    )
    return venv, manager, manager.initial_assignments()


BUILDERS = {"twig-colocated": build_twig_colocated, "fleet-256": build_fleet}


# --------------------------------------------------------------------- #
# one pass
# --------------------------------------------------------------------- #
def _train_layers(timings, tracer: Tracer) -> Dict[str, float]:
    train = tracer.durations("rl.train_step")
    layers = {"rl.train_step_ms": median_ms(train), "rl.train_steps": float(len(train))}
    for part in ("forward", "backward", "optim", "replay"):
        durations = np.asarray(timings.get(f"agent.train.{part}").durations_s)
        layers[f"rl.train.{part}_ms"] = median_ms(durations)
    return layers


def twig_pass(seed: int, tracer: Optional[Tracer] = None) -> PassResult:
    env, twig, assignments = build_twig_colocated(seed)
    timings = None
    if tracer is not None:
        from repro.obs.timing import TimingRegistry

        timings = TimingRegistry()
        twig.attach_obs(None, timings)
        tracer.wrap(twig.agent, "act", "rl.act")
        tracer.wrap(twig.agent, "train_step", "rl.train_step")
        tracer.wrap(twig.monitor, "observe", "pmc.observe")
        tracer.wrap(twig.mapper, "map", "core.mapper_map")
        tracer.wrap(env.machine, "apply", "server.machine_apply")
    names = list(env.service_names)
    targets = np.array([env.qos_target_of(n) for n in names])
    decision = np.empty(TWIG_INTERVALS)
    p99 = np.empty((TWIG_INTERVALS, len(names)))
    power = np.empty(TWIG_INTERVALS)
    started = time.perf_counter()
    for t in range(TWIG_INTERVALS):
        if tracer is None:
            result = env.step(assignments)
            t0 = time.perf_counter()
            assignments = twig.update(result)
            decision[t] = time.perf_counter() - t0
        else:
            tracer.request_id = t
            with tracer.span("sim.step"):
                result = env.step(assignments)
            t0 = time.perf_counter()
            with tracer.span("core.update"):
                assignments = twig.update(result)
            decision[t] = time.perf_counter() - t0
        p99[t] = [result.observations[n].p99_ms for n in names]
        power[t] = result.true_power_w
    loop_s = time.perf_counter() - started
    out = PassResult(
        decision_s=decision,
        loop_s=loop_s,
        nodes=1,
        qos_pct=float(np.mean(p99[-TWIG_WINDOW:] <= targets) * 100.0),
        mean_power_w=float(np.mean(power[-TWIG_WINDOW:])),
        digest=_digest([assignments]),
        qos_by_service={n: float(np.mean(p99[-TWIG_WINDOW:, i] <= targets[i]) * 100.0)
                        for i, n in enumerate(names)},
    )
    if tracer is not None:
        self_times = tracer.self_times()
        maps = tracer.durations("core.mapper_map")
        out.layers = {
            **_train_layers(timings, tracer),
            "rl.act_us": median_us(tracer.durations("rl.act")),
            "pmc.observe_us": median_us(tracer.durations("pmc.observe")),
            "core.mapper_map_us": median_us(maps),
            "core.mapper_calls": float(len(maps)),
            "core.update_self_ms": median_ms(self_times["core.update"]),
            "sim.step_ms": median_ms(tracer.durations("sim.step")),
            "server.machine_apply_us": median_us(tracer.durations("server.machine_apply")),
            "server.machine_apply_calls": float(len(tracer.durations("server.machine_apply"))),
        }
    return out


def fleet_pass(seed: int, tracer: Optional[Tracer] = None) -> PassResult:
    venv, manager, assignments = build_fleet(seed)
    timings = None
    failed: List[str] = []
    if tracer is not None:
        from repro.obs.timing import TimingRegistry

        timings = TimingRegistry()
        manager.attach_obs(None, timings)

        def check_conservation(args, rates):
            # Every assign must hand out exactly the regional demand.
            demand = np.asarray(args[1], dtype=np.float64)
            rates = np.asarray(rates, dtype=np.float64)
            topology = venv.topology
            for r in range(topology.num_regions):
                got = rates[topology.region_nodes(r)].sum(axis=0)
                if np.any(np.abs(got - demand[r]) > 1e-9 * np.maximum(1.0, demand[r])):
                    failed.append(f"assign at t={args[0]} does not conserve region {r} demand")

        def count_rows(args, result):
            tracer.count("engine.node_decisions", len(args[0]))

        tracer.wrap(venv.traffic, "demand", "cluster.traffic_demand")
        tracer.wrap(venv.balancer, "assign", "cluster.balancer_assign", check_conservation)
        for env in venv.envs:
            tracer.wrap(env.machine, "apply", "server.machine_apply")
        tracer.wrap(manager.agent, "act_batch", "rl.act_batch", count_rows)
        tracer.wrap(manager.agent, "train_step", "rl.train_step")
        tracer.wrap(manager.monitor_bank, "observe_rows", "pmc.bank_observe")
        tracer.wrap(manager.mapper, "map", "core.mapper_map")
    names = list(venv.service_names)
    targets = np.array([venv.qos_target_of(n) for n in names])
    decision = np.empty(FLEET_TICKS)
    met = np.zeros(len(names))
    power_sum = 0.0
    started = time.perf_counter()
    try:
        for t in range(FLEET_TICKS):
            if tracer is None:
                results = venv.step(assignments)
                t0 = time.perf_counter()
                assignments = manager.update_batch(results)
                decision[t] = time.perf_counter() - t0
            else:
                tracer.request_id = t
                with tracer.span("cluster.step"):
                    results = venv.step(assignments)
                t0 = time.perf_counter()
                with tracer.span("engine.update_batch"):
                    assignments = manager.update_batch(results)
                decision[t] = time.perf_counter() - t0
            if t >= FLEET_TICKS - FLEET_WINDOW:
                arrays = results.arrays
                met += (arrays["p99"] <= targets).sum(axis=0)
                power_sum += float(arrays["true_power_w"].sum())
        loop_s = time.perf_counter() - started
    finally:
        venv.close()
    samples = FLEET_WINDOW * FLEET_NODES
    out = PassResult(
        decision_s=decision,
        loop_s=loop_s,
        nodes=FLEET_NODES,
        qos_pct=float(met.sum() / (samples * len(names)) * 100.0),
        mean_power_w=power_sum / samples,
        digest=_digest(assignments),
        checks_failed=failed,
    )
    out.qos_by_service = {n: float(m / samples * 100.0) for n, m in zip(names, met)}
    if tracer is not None:
        self_times = tracer.self_times()
        maps = tracer.durations("core.mapper_map")
        decisions = tracer.counts.get("engine.node_decisions", 0)
        applies = tracer.durations("server.machine_apply")
        out.layers.update({
            **_train_layers(timings, tracer),
            "rl.act_batch_ms": median_ms(tracer.durations("rl.act_batch")),
            "pmc.bank_observe_us": median_us(tracer.durations("pmc.bank_observe")),
            "core.mapper_map_us": median_us(maps),
            "core.mapper_calls": float(len(maps)),
            "engine.node_decisions": float(decisions),
            "engine.mapper_memo_hit_ratio": 1.0 - len(maps) / decisions if decisions else 0.0,
            "engine.update_batch_self_ms": median_ms(self_times["engine.update_batch"]),
            "cluster.step_self_ms": median_ms(self_times["cluster.step"]),
            "cluster.traffic_demand_us": median_us(tracer.durations("cluster.traffic_demand")),
            "server.machine_apply_us": median_us(applies),
            "server.machine_apply_calls": float(len(applies)),
            "cluster.balancer_assign_us": median_us(tracer.durations("cluster.balancer_assign")),
        })
    return out


PASSES = {"twig-colocated": twig_pass, "fleet-256": fleet_pass}
