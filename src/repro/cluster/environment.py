"""Datacenter-scale simulation: hundreds of nodes in one process.

:class:`ClusterEnvironment` models a fleet of identical servers as a
:class:`~repro.engine.vector_env.VectorEnvironment` whose "environments"
are *nodes*: all queueing/interference/power/PMC math stays array-shaped
over ``(node, service)``, so a 256-node cluster steps through one fused
NumPy path per control interval. Two cluster-only pieces sit on top of
the per-node simulation:

1. a :class:`~repro.cluster.traffic.TrafficModel` produces each LC
   service's fleet-wide demand per region (diurnal curves, flash
   crowds, regional shifts) from a declarative, seed-reproducible spec;
2. a :class:`~repro.cluster.balancer.LoadBalancer` spreads each region's
   demand over its nodes every interval, fed back last interval's
   per-node utilization and backlog.

Each node's services use :class:`~repro.cluster.traffic.ScheduledLoad`
generators (zero RNG draws), so the vector engine's draw-for-draw RNG
fidelity with the scalar path is preserved — a 1-node cluster stepped
here is bit-identical to a hand-stepped scalar
:class:`~repro.sim.environment.ColocationEnvironment` receiving the same
``set_rate`` calls (pinned in ``tests/test_cluster_environment.py``).

Trace events from cluster runs carry a ``node`` envelope field instead
of ``env``, and every interval additionally emits one fleet-level
``cluster_interval`` aggregate event (see ``docs/observability.md``).
Checkpointing nests the traffic RNG, balancer state, and balancer
feedback under a ``cluster`` subtree alongside the per-node state, so
``repro.engine.rollout.run_fleet`` checkpoint/resume works unchanged.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.balancer import LoadBalancer, NodeLoads, make_balancer
from repro.cluster.topology import ClusterTopology
from repro.cluster.traffic import (
    ScheduledLoad,
    TrafficModel,
    TrafficSpec,
    make_traffic_spec,
)
from repro.engine.vector_env import ENV_SEED_STRIDE, VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.obs.events import make_event
from repro.server.machine import CoreAssignment
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig, StepResult

#: Seed offsets separating the cluster-layer RNG streams from the
#: per-node environment streams (which sit at seed + node * ENV_SEED_STRIDE).
TRAFFIC_SEED_OFFSET = 17
BALANCER_SEED_OFFSET = 29


def make_cluster_node(
    services: Sequence[str],
    seed: int,
    config: Optional[EnvironmentConfig] = None,
    qos_targets: Optional[Dict[str, float]] = None,
) -> ColocationEnvironment:
    """One node: a scalar environment with balancer-driven load generators.

    Follows the sibling-seeding recipe (env RNG at ``seed``) but installs
    :class:`~repro.cluster.traffic.ScheduledLoad` generators, so arrival
    rates come from the cluster balancer instead of per-node curves.
    """
    if not services:
        raise ConfigurationError("need at least one service")
    profiles = [get_profile(name) for name in services]
    generators = {p.name: ScheduledLoad(p.max_load_rps) for p in profiles}
    return ColocationEnvironment(
        config or EnvironmentConfig(),
        profiles,
        generators,
        np.random.default_rng(seed),
        qos_targets=qos_targets,
    )


class ClusterEnvironment(VectorEnvironment):
    """A fleet of N identical nodes stepped in lock-step, with traffic
    generation and load balancing above the per-node simulation."""

    index_tag = "node"

    def __init__(
        self,
        envs: Sequence[ColocationEnvironment],
        traffic: TrafficModel,
        balancer: LoadBalancer,
    ):
        super().__init__(envs)
        if traffic.topology.num_nodes != self.num_envs:
            raise ConfigurationError(
                f"traffic topology covers {traffic.topology.num_nodes} nodes, "
                f"cluster has {self.num_envs}"
            )
        if balancer.topology is not traffic.topology:
            if balancer.topology != traffic.topology:
                raise ConfigurationError(
                    "balancer and traffic model use different topologies"
                )
        if list(traffic.names) != self.names:
            raise ConfigurationError(
                f"traffic spec covers services {traffic.names}, "
                f"nodes host {self.names}"
            )
        self.traffic = traffic
        self.balancer = balancer
        self._last_loads: Optional[NodeLoads] = None
        self._pending_rates: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        """Alias for ``num_envs`` in cluster vocabulary."""
        return self.num_envs

    @property
    def topology(self) -> ClusterTopology:
        """The cluster topology shared by traffic model and balancer."""
        return self.traffic.topology

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_services(
        cls,
        services: Sequence[str],
        num_nodes: int,
        seed: int,
        traffic: Union[str, TrafficSpec] = "diurnal",
        balancer: str = "round_robin",
        regions: Optional[Sequence[str]] = None,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Dict[str, float]] = None,
    ) -> "ClusterEnvironment":
        """Build an N-node cluster with deterministic seeding.

        Node ``e``'s environment RNG sits at ``seed + e * ENV_SEED_STRIDE``
        (the sibling recipe), the traffic model RNG at
        ``seed + TRAFFIC_SEED_OFFSET``, and the balancer (when its policy
        is randomized) at ``seed + BALANCER_SEED_OFFSET``, so the whole
        cluster trajectory is a pure function of ``seed``. ``traffic``
        accepts either a preset name from
        :data:`~repro.cluster.traffic.TRAFFIC_PRESETS` or an explicit
        :class:`~repro.cluster.traffic.TrafficSpec`.
        """
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if regions is None:
            regions = ("r0", "r1") if num_nodes >= 2 else ("r0",)
        topology = ClusterTopology(num_nodes, tuple(regions))
        spec = (
            make_traffic_spec(traffic, services)
            if isinstance(traffic, str)
            else traffic
        )
        model = TrafficModel(
            spec, topology, np.random.default_rng(seed + TRAFFIC_SEED_OFFSET)
        )
        policy = make_balancer(balancer, topology, seed=seed + BALANCER_SEED_OFFSET)
        envs = [
            make_cluster_node(
                services, seed + e * ENV_SEED_STRIDE, config, qos_targets
            )
            for e in range(num_nodes)
        ]
        return cls(envs, model, policy)

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(
        self, assignments: Sequence[Dict[str, CoreAssignment]]
    ) -> List[StepResult]:
        """Balance this interval's fleet demand, then step every node.

        When a timing registry is attached (traced runs), the cluster
        layer reports two sub-sections of ``env.step``:
        ``cluster.control`` (traffic model + balancer) and
        ``cluster.step`` (the fused node simulation), plus
        ``cluster.install`` (placement install, a part of
        ``cluster.step``) — see ``docs/observability.md``.
        """
        timings = self.timings
        t0 = perf_counter() if timings is not None else 0.0
        demand = self.traffic.demand(self.time)
        self._pending_rates = self.balancer.assign(self.time, demand, self._last_loads)
        if timings is not None:
            timings.get("cluster.control").add(perf_counter() - t0)
            t0 = perf_counter()
        try:
            batch = super().step(assignments)
        finally:
            self._pending_rates = None
        if timings is not None:
            timings.get("cluster.step").add(perf_counter() - t0)
        return batch

    def _install_assignments(self, assignments: Sequence[Dict[str, CoreAssignment]]) -> None:
        timings = self.timings
        if timings is None:
            super()._install_assignments(assignments)
            return
        t0 = perf_counter()
        super()._install_assignments(assignments)
        timings.get("cluster.install").add(perf_counter() - t0)

    def _gather_arrivals(self) -> np.ndarray:
        # Arrival rates come from the balancer, not the per-node
        # generators; keep the generators in sync so scalar tooling that
        # inspects them (or a swapped-out node) sees the assigned rate.
        rates = self._pending_rates
        if rates is None:  # stepped outside step(); fall back to generators
            return super()._gather_arrivals()
        for e, env in enumerate(self.envs):
            for i, name in enumerate(self.names):
                env.load_generators[name].set_rate(rates[e, i])
        return rates

    def _post_step(self, results: List[StepResult], arrays: Dict[str, np.ndarray]) -> None:
        # A node whose telemetry came back non-finite (e.g. a
        # service_crash fault NaN-ing its p99) is marked degraded so the
        # balancer sheds its traffic onto live nodes next interval.
        degraded = ~np.isfinite(arrays["p99"]).all(axis=1)
        degraded |= ~np.isfinite(arrays["utilization"]).all(axis=1)
        self._last_loads = NodeLoads(
            arrival_rps=arrays["arrivals"],
            utilization=arrays["utilization"],
            backlog=arrays["backlog"],
            degraded=degraded,
        )
        if self.envs[0].trace.enabled:
            self._emit_cluster_interval(results, arrays)

    def _emit_cluster_interval(
        self, results: List[StepResult], arrays: Dict[str, np.ndarray]
    ) -> None:
        """One fleet-level aggregate event per control interval."""
        p99 = arrays["p99"]
        qos_met = p99 <= self._qos_target[None, :]
        services = {}
        for i, name in enumerate(self.names):
            services[name] = {
                "offered_rps": float(arrays["arrivals"][:, i].sum()),
                "served_rps": float(arrays["throughput"][:, i].sum()),
                "qos_nodes": int(qos_met[:, i].sum()),
                "worst_p99_ms": float(p99[:, i].max()),
                "mean_p99_ms": float(p99[:, i].mean()),
            }
        self.envs[0].trace.emit(
            make_event(
                "cluster_interval",
                results[0].time,
                nodes=self.num_envs,
                services=services,
                qos_guarantee=float(qos_met.mean()),
                power_w=float(arrays["power_w"].sum()),
                true_power_w=float(arrays["true_power_w"].sum()),
                energy_j=float(sum(env.rapl.energy_j for env in self.envs)),
            )
        )

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Per-node trees plus the cluster-layer control state."""
        tree = super().state_dict()
        cluster: Dict[str, Any] = {
            "traffic": self.traffic.state_dict(),
            "balancer": self.balancer.state_dict(),
        }
        if self._last_loads is not None:
            cluster["loads"] = {
                "arrival_rps": np.asarray(self._last_loads.arrival_rps),
                "utilization": np.asarray(self._last_loads.utilization),
                "backlog": np.asarray(self._last_loads.backlog),
            }
            if self._last_loads.degraded is not None:
                cluster["loads"]["degraded"] = np.asarray(
                    self._last_loads.degraded, dtype=bool
                )
        tree["cluster"] = cluster
        return tree

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore nodes, traffic RNG, balancer state and feedback loads."""
        try:
            cluster = dict(tree["cluster"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"cluster checkpoint missing 'cluster' subtree: {exc}"
            ) from exc
        super().load_state_dict(tree)
        self.traffic.load_state_dict(dict(cluster["traffic"]))
        self.balancer.load_state_dict(dict(cluster["balancer"]))
        loads = cluster.get("loads")
        if loads is not None:
            loads = dict(loads)
            degraded = loads.get("degraded")
            self._last_loads = NodeLoads(
                arrival_rps=np.asarray(loads["arrival_rps"], dtype=np.float64),
                utilization=np.asarray(loads["utilization"], dtype=np.float64),
                backlog=np.asarray(loads["backlog"], dtype=np.float64),
                degraded=(
                    None if degraded is None else np.asarray(degraded, dtype=bool)
                ),
            )
        else:
            self._last_loads = None
