"""Batched control for N lock-step environments: fused act + fused train.

The scalar path runs one :class:`~repro.core.twig.Twig` per experiment and
pays one trunk/bank forward per environment per interval plus one train
step per environment per interval. The fleet path amortises both:

- :class:`FleetBDQAgent` selects actions for every environment with ONE
  fused :meth:`~repro.rl.bdq.BDQNetwork.greedy_actions_batch` GEMM and
  runs ONE train round per tick, sampling its minibatch from a striped
  replay buffer (per-environment ring stripes inside one prioritized
  sum tree, so sampling and priority updates stay single tree ops);
- :class:`FleetTwig` holds per-environment monitors/control state around
  that shared agent and exposes the lock-step ``update_batch`` interface
  the rollout loop drives.

One tick of the fleet = one agent ``step_count`` increment, regardless of
N: the epsilon/beta schedules anneal per control interval exactly as they
do for a scalar run, while the replay buffer fills N times faster.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.checkpoint import load_state, save_state
from repro.core.actions import ActionSpace, Allocation
from repro.core.config import TwigConfig
from repro.core.mapper import Mapper
from repro.core.power_model import ServicePowerModel
from repro.core.reward import RewardBreakdown, reward_components
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.obs.events import make_event
from repro.obs.sink import NULL_SINK, TraceSink
from repro.obs.timing import TimingRegistry
from repro.pmc.counters import CounterCatalogue
from repro.pmc.monitor import MonitorBank
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from repro.rl.striped import StripedPrioritizedReplayBuffer
from repro.server.machine import CoreAssignment
from repro.server.power import PowerModel
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.environment import StepResult


class FleetBDQAgent(BDQAgent):
    """A :class:`BDQAgent` that learns one policy from N environments.

    Differences from the scalar agent, all confined to the replay hooks
    and the acting path:

    - **Striped replay.** One
      :class:`~repro.rl.striped.StripedPrioritizedReplayBuffer` holding
      a ring stripe per environment (stripe capacity
      ``buffer_capacity // num_envs``, floored at one batch) inside a
      single sum tree. Eviction stays per-environment (each stripe
      overwrites its own oldest transitions), while sampling is globally
      proportional to priority across the fleet — the same distribution
      and batch-global IS-weight normalisation the scalar agent uses,
      at the cost of ONE ``find_batch``/``update_batch`` per train step
      instead of N.
    - **Batched acting.** :meth:`act_batch` runs one fused forward for
      all environments and then applies the per-branch epsilon noise in
      env-major order — the RNG draw sequence for M stacked states is
      identical to M consecutive scalar :meth:`~BDQAgent.act` calls.
    - **One tick, one train round.** :meth:`observe_rows` adds N
      transitions but advances ``step_count`` (and thus the epsilon/beta
      schedules and the train/target cadence) by ONE.

    The base class's ``self.buffer`` is left in place but unused (the
    replay hooks below never touch it); it keeps the inherited
    checkpoint machinery intact, and :meth:`state_dict` adds the striped
    buffer alongside it.
    """

    def __init__(
        self,
        config: BDQAgentConfig,
        rng: np.random.Generator,
        num_envs: int,
        trace: Optional[TraceSink] = None,
        timings: Optional[TimingRegistry] = None,
    ):
        if num_envs < 1:
            raise ConfigurationError(f"num_envs must be >= 1, got {num_envs}")
        if not config.use_prioritized_replay:
            raise ConfigurationError("FleetBDQAgent requires prioritized replay")
        if len({len(agent) for agent in config.branch_sizes}) != 1:
            raise ConfigurationError(
                "FleetBDQAgent needs the same number of branches for every agent"
            )
        super().__init__(config, rng, trace=trace, timings=timings)
        self.num_envs = num_envs
        stripe_capacity = max(config.buffer_capacity // num_envs, config.batch_size)
        self.striped = StripedPrioritizedReplayBuffer(
            num_envs, stripe_capacity, rng, alpha=config.per_alpha
        )

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def act_batch(
        self, states: np.ndarray, greedy: bool = False, as_array: bool = False
    ):
        """Choose actions for M stacked states through one fused forward.

        ``states`` is ``(M, state_dim)``. Returns an ``(M, agents,
        branches)`` int64 array when ``as_array`` is set, else the same
        actions as one per-agent, per-branch nested list per row. With
        the same RNG state, row ``i`` equals what :meth:`~BDQAgent.act`
        would return for ``states[i]`` after acting on rows ``0..i-1``.
        """
        if self.timings is not None:
            with self.timings.measure("agent.act"):
                actions = self._act_batch(states, greedy)
        else:
            actions = self._act_batch(states, greedy)
        return actions if as_array else actions.tolist()

    def _act_batch(self, states: np.ndarray, greedy: bool) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.config.state_dim:
            raise ShapeError(
                f"states have dim {states.shape[1]}, expected {self.config.state_dim}"
            )
        best = self.online.greedy_actions_batch(states)         # (M, B)
        actions = best.reshape(states.shape[0], self.num_agents, -1)
        if greedy:
            return actions
        epsilon = self.epsilon()
        rand = self._rng.random
        integers = self._rng.integers
        sizes = [n for agent in self.online.branch_sizes for n in agent]
        # Env-major noise: per row, the same per-branch draw sequence as
        # the scalar _act, so batched and per-state acting are
        # stream-compatible. ``best`` is a view of ``actions``.
        for i in range(states.shape[0]):
            for b, n in enumerate(sizes):
                if rand() >= epsilon:
                    continue
                if rand() < 0.5:
                    best[i, b] = int(integers(0, n))
                else:
                    step = int(integers(1, 5)) * (1 if rand() < 0.5 else -1)
                    best[i, b] = min(max(int(best[i, b]) + step, 0), n - 1)
        return actions

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def observe_batch(
        self, transitions: Sequence[Tuple[int, Transition]]
    ) -> Optional[float]:
        """Store one tick's ``(env_index, transition)`` pairs and maybe train once.

        Stacks the transitions into rows and hands them to
        :meth:`observe_rows`.
        """
        columns = zip(*(
            (t.state, self._flatten_actions(t.actions), t.rewards, t.next_state, float(t.done))
            for _, t in transitions
        ))
        try:
            stacked = [np.array(column, dtype=np.float64) for column in columns]
        except ValueError as exc:
            raise ShapeError(f"transitions disagree in shape: {exc}") from exc
        return self.observe_rows(
            np.array([e for e, _ in transitions], dtype=np.int64),
            *(stacked or [np.zeros(0)] * 5),  # no rows: nothing is stored
        )

    def observe_rows(
        self,
        env_rows: np.ndarray,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: Optional[np.ndarray] = None,
    ) -> Optional[float]:
        """Store one tick's transitions as rows and maybe train once.

        Row ``r`` is a transition of environment ``env_rows[r]``;
        ``actions`` holds each row's agent-major flattened branch actions.
        Absent environments (degraded telemetry, broken transition chain)
        are simply not listed. One call advances ``step_count`` by one and
        runs at most one training round, however many environments
        contributed.
        """
        count = len(env_rows)
        if count:
            rewards = np.asarray(rewards, dtype=np.float64).reshape(count, -1)
            if rewards.shape[1] != self.num_agents:
                raise ShapeError(
                    f"expected {self.num_agents} rewards, got {rewards.shape[1]}"
                )
            self.striped.add_rows(
                env_rows,
                {
                    "state": states,
                    "actions": np.asarray(actions, dtype=np.float64).reshape(count, -1),
                    "rewards": rewards,
                    "next_state": next_states,
                    "done": np.zeros(count) if dones is None else dones,
                },
            )
        self.step_count += 1
        loss = None
        if (
            self._replay_size() >= self.config.min_buffer_size
            and self.step_count % self.config.train_every == 0
        ):
            for _ in range(self.config.gradient_steps):
                loss = self.train_step()
        if self.step_count % self.config.target_update_every == 0:
            self.target.copy_from(self.online)
        return loss

    # ------------------------------------------------------------------ #
    # replay hooks (striped)
    # ------------------------------------------------------------------ #
    def _replay_size(self) -> int:
        return len(self.striped)

    def _replay_sample(self):
        with self._measure("agent.train.replay"):
            beta = self.beta_schedule(self.step_count)
            batch = self.striped.sample(self.config.batch_size, beta=beta)
            weights = batch["weights"]
        return batch, weights, beta

    def _replay_update(self, batch: Dict[str, Any], td_error_accum: np.ndarray) -> None:
        with self._measure("agent.train.replay"):
            priorities = td_error_accum / self.online.total_branches
            self.striped.update_priorities(batch["indices"], priorities)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Agent state plus the striped replay buffer's stripe layout."""
        tree = super().state_dict()
        tree["num_envs"] = self.num_envs
        tree["striped"] = self.striped.state_dict()
        return tree

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore agent and striped-buffer state from :meth:`state_dict`."""
        try:
            num_envs = int(tree["num_envs"])
            striped_tree = dict(tree["striped"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet-agent checkpoint: {exc}") from exc
        if num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {num_envs} replay stripes, agent has {self.num_envs}"
            )
        # Stage the striped buffer into a scratch instance first: its load
        # is itself stage-then-commit, so a malformed buffer rejects the
        # checkpoint before anything here mutates.
        scratch = StripedPrioritizedReplayBuffer(
            self.num_envs,
            self.striped.stripe_capacity,
            self._rng,
            alpha=self.config.per_alpha,
        )
        scratch.load_state_dict(striped_tree)
        super().load_state_dict(tree)
        self.striped = scratch


class _RowDicts:
    """Lazy per-environment dict views over the fleet's state arrays.

    ``manager._last_estimated_power[e]`` and friends used to be real
    lists of dicts; with the array control plane they are rebuilt on
    demand so traces, checkpoint conversion, and tests keep their
    dict-shaped API without the manager paying O(num_envs) per tick.
    """

    def __init__(self, build, length: int):
        self._build = build
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._build(e) for e in range(*index.indices(self._length))]
        e = int(index)
        if e < 0:
            e += self._length
        if not 0 <= e < self._length:
            raise IndexError(index)
        return self._build(e)

    def __iter__(self):
        return (self._build(e) for e in range(self._length))


class FleetTwig:
    """N lock-step Twig control loops sharing one :class:`FleetBDQAgent`.

    Mirrors :class:`repro.core.twig.Twig` per environment — monitor
    smoothing, degraded-telemetry holds, Equation-1 rewards, and
    Equation-2 power estimates are computed exactly as the scalar
    manager computes them — but holds the per-environment control state
    as ``(num_envs, num_services)`` arrays instead of per-env Python
    objects: one :class:`~repro.pmc.monitor.MonitorBank` replaces N
    :class:`SystemMonitor` objects, allocation/power/reward dicts become
    integer and float matrices, and action decode/encode is index
    arithmetic. ``update_batch`` therefore does O(1) array passes per
    tick; the only remaining per-env Python work is trace emission and
    mapper placement (memoised by allocation content).

    Trajectories, RNG streams, and agent state are bit-identical to the
    frozen dict-state reference
    (:class:`repro.engine.fleet_reference.DictFleetTwig`); the
    equivalence is pinned by ``tests/test_engine_fleet_array.py``.

    Subclasses written against the original per-env hooks
    (:meth:`_shape_rewards` / :meth:`_constrain_allocations`) still
    work: the array paths detect the overrides and fall back to
    per-env dict calls for exactly those hooks.
    """

    def __init__(
        self,
        profiles: Sequence[ServiceProfile],
        config: TwigConfig,
        rng: np.random.Generator,
        num_envs: int,
        spec: Optional[ServerSpec] = None,
        power_models: Optional[Mapping[str, ServicePowerModel]] = None,
        qos_targets: Optional[Mapping[str, float]] = None,
        trace: Optional[TraceSink] = None,
        timings: Optional[TimingRegistry] = None,
    ):
        if not profiles:
            raise ConfigurationError("FleetTwig needs at least one service profile")
        if num_envs < 1:
            raise ConfigurationError(f"num_envs must be >= 1, got {num_envs}")
        self.spec = spec or ServerSpec()
        self.config = config
        self._rng = rng
        self.num_envs = num_envs
        self.profiles: Dict[str, ServiceProfile] = {p.name: p for p in profiles}
        self.service_order: List[str] = [p.name for p in profiles]
        self.name = "twig-fleet"
        #: Envelope field used to tag emitted events with the environment
        #: index ("env" for plain fleet runs, "node" for cluster runs).
        self.index_tag = "env"

        self.qos_targets = {
            name: (qos_targets or {}).get(name, self.profiles[name].qos_target_ms)
            for name in self.service_order
        }
        self.power_models = dict(power_models or {})
        self.max_power_w = PowerModel(self.spec).max_power_w()

        max_cores = config.max_cores or self.spec.cores_per_socket
        self.action_space = ActionSpace(
            self.spec, max_cores=max_cores, manage_llc=config.manage_llc
        )
        self.mapper = Mapper(self.spec, socket_index=config.socket_index)

        catalogue = CounterCatalogue(self.spec)
        self._counter_max_values = catalogue.max_values()
        k = len(self.service_order)
        # One bank row per (environment, service): eta-smoothing histories
        # must not mix samples across rows, and the bank keeps them in
        # env-major, service-minor order.
        self.monitor_bank = MonitorBank(
            self._counter_max_values, num_envs * k, eta=config.eta
        )

        agent_config = BDQAgentConfig(
            state_dim=self.monitor_bank.state_dim * k,
            branch_sizes=[self.action_space.branch_sizes for _ in range(k)],
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            discount=config.discount,
            target_update_every=config.target_update_every,
            epsilon_mid_steps=config.epsilon_mid_steps,
            epsilon_final_steps=config.epsilon_final_steps,
            buffer_capacity=config.buffer_capacity,
            use_prioritized_replay=config.use_prioritized_replay,
            per_alpha=config.per_alpha,
            per_beta_start=config.per_beta_start,
            per_beta_steps=config.epsilon_final_steps,
            min_buffer_size=config.min_buffer_size,
            shared_hidden=config.shared_hidden,
            branch_hidden=config.branch_hidden,
            dropout=config.dropout,
            train_every=config.train_every,
            gradient_steps=config.gradient_steps,
        )
        self.trace = trace or NULL_SINK
        self.agent = FleetBDQAgent(
            agent_config, rng, num_envs, trace=self.trace, timings=timings
        )

        # ---- array-state control plane ------------------------------- #
        top = len(self.spec.dvfs) - 1
        n_branches = self.action_space.n_branches
        self._prev_state_mat = np.zeros((num_envs, agent_config.state_dim))
        self._has_prev = np.zeros(num_envs, dtype=bool)
        self._prev_action_mat = np.zeros((num_envs, k, n_branches), dtype=np.int64)
        # Allocation rows default to the scalar path's fallback allocation
        # (all cores at top DVFS, the `.get` default in _estimate_power),
        # so "no allocation recorded yet" needs no separate representation
        # in the power path.
        self._alloc_cores = np.full((num_envs, k), self.action_space.max_cores, dtype=np.int64)
        self._alloc_freq = np.full((num_envs, k), top, dtype=np.int64)
        self._alloc_ways = np.zeros((num_envs, k), dtype=np.int64)
        self._has_alloc = np.zeros(num_envs, dtype=bool)
        self._est_power = np.zeros((num_envs, k))
        self._has_est = np.zeros(num_envs, dtype=bool)
        self._reward_totals = np.zeros((num_envs, k))
        self._has_reward = np.zeros(num_envs, dtype=bool)

        # Precomputed per-service Equation-2 rows (broadcast over envs).
        profs = [self.profiles[name] for name in self.service_order]
        self._sf_row = np.array([p.serial_fraction for p in profs])
        self._cpu_ms_row = np.array([p.cpu_ms_per_req for p in profs])
        self._alpha_row = np.array([p.freq_sensitivity for p in profs])
        self._one_minus_alpha_row = 1.0 - self._alpha_row
        self._aiu_row = np.array([p.active_idle_util for p in profs])
        self._qos_row = np.array([self.qos_targets[n] for n in self.service_order])
        self._dvfs_values = np.array(
            [self.spec.dvfs[i] for i in range(len(self.spec.dvfs))]
        )
        self._fmax = self.spec.dvfs.max_ghz
        self._model_cols = [
            (i, name)
            for i, name in enumerate(self.service_order)
            if self.power_models.get(name) is not None
        ]
        #: Mapper placements memoised by allocation content; identical
        #: rows (common once exploitation dominates) share one placement.
        self._mapper_cache: Dict[Tuple, Dict[str, CoreAssignment]] = {}

    # ------------------------------------------------------------------ #
    # dict-shaped compatibility views over the state arrays
    # ------------------------------------------------------------------ #
    @property
    def _last_allocations(self) -> _RowDicts:
        def build(e: int) -> Dict[str, Allocation]:
            if not self._has_alloc[e]:
                return {}
            return {
                name: Allocation(
                    num_cores=int(self._alloc_cores[e, i]),
                    freq_index=int(self._alloc_freq[e, i]),
                    llc_ways=int(self._alloc_ways[e, i]),
                )
                for i, name in enumerate(self.service_order)
            }
        return _RowDicts(build, self.num_envs)

    @property
    def _last_estimated_power(self) -> _RowDicts:
        def build(e: int) -> Dict[str, float]:
            if not self._has_est[e]:
                return {}
            return {
                name: float(self._est_power[e, i])
                for i, name in enumerate(self.service_order)
            }
        return _RowDicts(build, self.num_envs)

    @property
    def last_rewards(self) -> _RowDicts:
        def build(e: int) -> Dict[str, float]:
            if not self._has_reward[e]:
                return {}
            return {
                name: float(self._reward_totals[e, i])
                for i, name in enumerate(self.service_order)
            }
        return _RowDicts(build, self.num_envs)

    # ------------------------------------------------------------------ #
    # lock-step manager interface
    # ------------------------------------------------------------------ #
    def _initial_allocations(self) -> Dict[str, Allocation]:
        top = len(self.spec.dvfs) - 1
        return {
            name: Allocation(num_cores=self.action_space.max_cores, freq_index=top)
            for name in self.service_order
        }

    def initial_assignments(self) -> List[Dict[str, CoreAssignment]]:
        """Per-env starting assignments: all cores at max DVFS."""
        top = len(self.spec.dvfs) - 1
        self._alloc_cores[:] = self.action_space.max_cores
        self._alloc_freq[:] = top
        self._alloc_ways[:] = 0
        self._has_alloc[:] = True
        return [self._map_row(e) for e in range(self.num_envs)]

    def update_batch(self, results: Sequence[StepResult]) -> List[Dict[str, CoreAssignment]]:
        """One lock-step control tick over every environment's result.

        Semantically identical to N scalar ``Twig.update`` calls plus a
        shared agent tick, but executed as array passes: one
        ``MonitorBank.observe_rows`` for all (env, service) rows, one
        vectorized Equation-2/Equation-1 evaluation, one fused agent
        forward, and one decode-by-arithmetic over the action matrix.
        When ``results`` is a :class:`~repro.engine.vector_env.StepBatch`
        the raw matrices are consumed directly; a plain result sequence
        is gathered into matrices first.
        """
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        E = self.num_envs
        k = len(self.service_order)
        arrays = getattr(results, "arrays", None)
        if arrays is not None:
            counters = arrays["counters"]
            p99 = arrays["p99"]
            arrival = arrays["arrivals"]
            times = arrays["time"]
        else:
            counters, p99, arrival, times = self._gather_result_arrays(results)

        states = self.monitor_bank.observe_rows(counters.reshape(E * k, -1))
        states = states.reshape(E, k * self.monitor_bank.state_dim)
        degraded_rows = self.monitor_bank.degraded.reshape(E, k) | ~np.isfinite(p99)
        env_degraded = degraded_rows.any(axis=1)
        healthy_idx = np.nonzero(~env_degraded)[0]

        # Equation-2 / Equation-1 for every row; only healthy envs commit.
        est = self._power_for(self._alloc_cores, self._alloc_freq, arrival)
        qos_rew = p99 / self._qos_row
        ok = qos_rew <= 1.0
        ratio = self.max_power_w / est
        power_rew = np.where(ok, ratio, 0.0)
        totals = np.where(ok, qos_rew + self.config.reward.theta * ratio, 0.0)
        violation = ~ok
        punish = violation & ~env_degraded[:, None]
        if punish.any():
            # The violation penalty must use Python scalar pow: numpy's
            # float64 pow is not bit-identical to the scalar path's
            # ``qos_rew ** phi`` for non-integer-safe bases.
            phi = self.config.reward.phi
            cap = self.config.reward.cap
            for e, i in zip(*(idx.tolist() for idx in np.nonzero(punish))):
                totals[e, i] = max(-(float(qos_rew[e, i]) ** phi), cap)
        self._est_power[healthy_idx] = est[healthy_idx]
        self._has_est[healthy_idx] = True
        totals = self._shape_reward_rows(
            healthy_idx, totals, qos_rew, power_rew, violation, results
        )
        self._reward_totals[healthy_idx] = totals[healthy_idx]
        self._has_reward[healthy_idx] = True

        assignments: List[Optional[Dict[str, CoreAssignment]]] = [None] * E
        if env_degraded.any():
            for e in np.nonzero(env_degraded)[0].tolist():
                if self.trace.enabled:
                    self.trace.emit(
                        make_event(
                            "degraded",
                            int(times[e]),
                            services=sorted(
                                name
                                for i, name in enumerate(self.service_order)
                                if degraded_rows[e, i]
                            ),
                            held_allocation=True,
                            **{self.index_tag: e},
                        )
                    )
                self._has_prev[e] = False
                self._has_alloc[e] = True
                assignments[e] = self._map_row(e)

        learning = np.nonzero(~env_degraded & self._has_prev)[0]
        self.agent.observe_rows(
            learning,
            self._prev_state_mat[learning],
            self._prev_action_mat[learning],
            totals[learning],
            states[learning],
        )

        if healthy_idx.size:
            acts = self.agent.act_batch(states[healthy_idx], as_array=True)
            acts = self._repair_action_rows(healthy_idx, acts, arrival, results)
            cores = acts[:, :, 0] + 1
            freqs = acts[:, :, 1]
            ways = (
                acts[:, :, 2]
                if self.action_space.manage_llc
                else np.zeros_like(cores)
            )
            self._prev_state_mat[healthy_idx] = states[healthy_idx]
            self._has_prev[healthy_idx] = True
            self._prev_action_mat[healthy_idx] = acts
            self._alloc_cores[healthy_idx] = cores
            self._alloc_freq[healthy_idx] = freqs
            self._alloc_ways[healthy_idx] = ways
            self._has_alloc[healthy_idx] = True
            cores_l = cores.tolist()
            freqs_l = freqs.tolist()
            ways_l = ways.tolist()
            tracing = self.trace.enabled
            for r, e in enumerate(healthy_idx.tolist()):
                if tracing:
                    self._emit_decision_rows(
                        e, int(times[e]), totals, qos_rew, power_rew, violation,
                        p99, cores_l[r], freqs_l[r], ways_l[r],
                    )
                assignments[e] = self._map_key(
                    tuple(cores_l[r]), tuple(freqs_l[r]), tuple(ways_l[r])
                )
        # Every env took exactly one of the two branches above, so every
        # slot is filled.
        return [a for a in assignments if a is not None]

    def attach_obs(self, trace: Optional[TraceSink], timings: Optional[TimingRegistry]) -> None:
        """Wire a trace sink / timing registry in after construction."""
        if trace is not None:
            self.trace = trace
            self.agent.trace = trace
        if timings is not None:
            self.agent.timings = timings

    def exploit(self) -> None:
        """Switch to pure exploitation (recommended once trained)."""
        self.agent.exploring_frozen = True

    # ------------------------------------------------------------------ #
    # array internals
    # ------------------------------------------------------------------ #
    def _gather_result_arrays(self, results: Sequence[StepResult]):
        """Matrix views of a plain result sequence (non-StepBatch input)."""
        E = self.num_envs
        k = len(self.service_order)
        names = self.monitor_bank.counters
        counters = np.empty((E, k, len(names)))
        p99 = np.empty((E, k))
        arrival = np.empty((E, k))
        times = np.empty(E, dtype=np.int64)
        for e, result in enumerate(results):
            times[e] = result.time
            for i, name in enumerate(self.service_order):
                observation = result.observations[name]
                pmcs = observation.pmcs
                missing = [c for c in names if c not in pmcs]
                if missing:
                    raise ShapeError(f"readings missing counters: {missing}")
                for c, counter in enumerate(names):
                    counters[e, i, c] = float(pmcs[counter])
                p99[e, i] = observation.p99_ms
                arrival[e, i] = observation.interval.arrival_rate
        return counters, p99, arrival, times

    def _power_for(
        self, cores: np.ndarray, freq_index: np.ndarray, arrival: np.ndarray
    ) -> np.ndarray:
        """Vectorized Equation-2 over ``(rows, services)`` allocations.

        Every operation mirrors :meth:`_allocation_power` element-wise
        (same expressions, same association order), so each entry is
        bit-identical to the scalar estimate for that allocation.
        """
        fcores = cores.astype(np.float64)
        freq = self._dvfs_values[freq_index]
        eff_cores = fcores / (1.0 + self._sf_row * (fcores - 1.0))
        factor = self._alpha_row * (self._fmax / freq) + self._one_minus_alpha_row
        capacity = eff_cores * 1000.0 / (self._cpu_ms_row * factor)
        utilization = np.clip(arrival / np.maximum(capacity, 1e-9), 0.0, 1.0)
        effective = utilization + self._aiu_row * (1.0 - utilization)
        voltage = self.spec.voltage_base_v + self.spec.voltage_slope * freq
        per_core = self.spec.dynamic_coeff * voltage * voltage * freq * effective
        est = np.maximum(per_core * fcores, 0.5)
        for i, name in self._model_cols:
            model = self.power_models[name]
            if not model.fitted:
                continue
            max_load = self.profiles[name].max_load_rps
            for r in range(est.shape[0]):
                load_pct = 100.0 * float(arrival[r, i]) / max_load
                est[r, i] = model.predict(
                    load_pct, int(cores[r, i]), float(freq[r, i])
                )
        return est

    def _node_power_rows(self, power: np.ndarray) -> np.ndarray:
        """Per-row summed service power, accumulated left-to-right.

        Matches ``sum(...)`` over ``service_order`` in the scalar hooks
        (NumPy's axis reductions may pairwise-associate; Python's
        ``sum`` never does).
        """
        total = power[:, 0].copy()
        for i in range(1, power.shape[1]):
            total = total + power[:, i]
        return total

    def _map_row(self, e: int) -> Dict[str, CoreAssignment]:
        return self._map_key(
            tuple(self._alloc_cores[e].tolist()),
            tuple(self._alloc_freq[e].tolist()),
            tuple(self._alloc_ways[e].tolist()),
        )

    def _map_key(self, cores: Tuple, freqs: Tuple, ways: Tuple) -> Dict[str, CoreAssignment]:
        key = (cores, freqs, ways)
        cached = self._mapper_cache.get(key)
        if cached is not None:
            return cached
        allocations = {
            name: Allocation(num_cores=cores[i], freq_index=freqs[i], llc_ways=ways[i])
            for i, name in enumerate(self.service_order)
        }
        placed = self.mapper.map(allocations)
        if len(self._mapper_cache) >= 8192:
            self._mapper_cache.clear()
        self._mapper_cache[key] = placed
        return placed

    def _emit_decision_rows(
        self,
        e: int,
        t: int,
        totals: np.ndarray,
        qos_rew: np.ndarray,
        power_rew: np.ndarray,
        violation: np.ndarray,
        p99: np.ndarray,
        cores: List[int],
        freqs: List[int],
        ways: List[int],
    ) -> None:
        epsilon = self.agent.epsilon()
        tag = {self.index_tag: e}
        for i, name in enumerate(self.service_order):
            self.trace.emit(
                make_event(
                    "reward",
                    t,
                    service=name,
                    reward=float(totals[e, i]),
                    qos_rew=float(qos_rew[e, i]),
                    power_rew=float(power_rew[e, i]),
                    violation=bool(violation[e, i]),
                    measured_qos_ms=float(p99[e, i]),
                    estimated_power_w=float(self._est_power[e, i]),
                    **tag,
                )
            )
            self.trace.emit(
                make_event(
                    "action",
                    t,
                    service=name,
                    cores=cores[i],
                    freq_index=freqs[i],
                    frequency_ghz=self.spec.dvfs[freqs[i]],
                    llc_ways=ways[i],
                    epsilon=epsilon,
                    **tag,
                )
            )

    # ------------------------------------------------------------------ #
    # scalar building blocks (kept for subclasses, tools, and tests)
    # ------------------------------------------------------------------ #
    def _compute_rewards(
        self, env_index: int, result: StepResult
    ) -> Dict[str, RewardBreakdown]:
        rewards: Dict[str, RewardBreakdown] = {}
        for i, name in enumerate(self.service_order):
            observation = result.observations[name]
            estimated = self._estimate_power(
                env_index, name, observation.interval.arrival_rate
            )
            self._est_power[env_index, i] = estimated
            rewards[name] = reward_components(
                measured_qos_ms=observation.p99_ms,
                qos_target_ms=self.qos_targets[name],
                max_power_w=self.max_power_w,
                estimated_power_w=estimated,
                params=self.config.reward,
            )
        self._has_est[env_index] = True
        return rewards

    def _estimate_power(self, env_index: int, name: str, arrival_rate: float) -> float:
        i = self.service_order.index(name)
        allocation = Allocation(
            num_cores=int(self._alloc_cores[env_index, i]),
            freq_index=int(self._alloc_freq[env_index, i]),
            llc_ways=int(self._alloc_ways[env_index, i]),
        )
        return self._allocation_power(name, allocation, arrival_rate)

    def _allocation_power(
        self, name: str, allocation: Allocation, arrival_rate: float
    ) -> float:
        """Equation-2 power estimate for an arbitrary candidate allocation."""
        freq = self.spec.dvfs[allocation.freq_index]
        model = self.power_models.get(name)
        if model is not None and model.fitted:
            load_pct = 100.0 * arrival_rate / self.profiles[name].max_load_rps
            return model.predict(load_pct, allocation.num_cores, freq)
        physical = PowerModel(self.spec)
        profile = self.profiles[name]
        capacity = profile.capacity_rps(allocation.num_cores, freq, self.spec.dvfs.max_ghz)
        utilization = float(np.clip(arrival_rate / max(capacity, 1e-9), 0.0, 1.0))
        effective = utilization + profile.active_idle_util * (1.0 - utilization)
        per_core = physical.core_dynamic_w(freq, effective)
        return max(per_core * allocation.num_cores, 0.5)

    # ------------------------------------------------------------------ #
    # subclass hooks (hierarchical control plumbs budgets through these)
    # ------------------------------------------------------------------ #
    def _shape_reward_rows(
        self,
        env_rows: np.ndarray,
        totals: np.ndarray,
        qos_rew: np.ndarray,
        power_rew: np.ndarray,
        violation: np.ndarray,
        results: Sequence[StepResult],
    ) -> np.ndarray:
        """Array hook: adjust this tick's reward matrix before learning.

        Only the rows in ``env_rows`` (healthy envs) are consumed. The
        base fleet applies Equation-1 unmodified. A subclass that still
        overrides the per-env dict hook :meth:`_shape_rewards` is
        detected here and served through per-env dict calls.
        """
        if type(self)._shape_rewards is FleetTwig._shape_rewards:
            return totals
        order = self.service_order
        for e in env_rows.tolist():
            breakdowns = {
                name: RewardBreakdown(
                    total=float(totals[e, i]),
                    qos_rew=float(qos_rew[e, i]),
                    power_rew=float(power_rew[e, i]),
                    violation=bool(violation[e, i]),
                )
                for i, name in enumerate(order)
            }
            shaped = self._shape_rewards(e, breakdowns)
            if shaped is not breakdowns:
                for i, name in enumerate(order):
                    b = shaped[name]
                    totals[e, i] = b.total
                    qos_rew[e, i] = b.qos_rew
                    power_rew[e, i] = b.power_rew
                    violation[e, i] = b.violation
        return totals

    def _repair_action_rows(
        self,
        env_rows: np.ndarray,
        actions: np.ndarray,
        arrival: np.ndarray,
        results: Sequence[StepResult],
    ) -> np.ndarray:
        """Array hook: repair decoded actions before they are installed.

        ``actions`` is the ``(len(env_rows), services, branches)`` action
        matrix; returns the (possibly edited in place) matrix. Must be
        deterministic. A subclass overriding the per-env dict hook
        :meth:`_constrain_allocations` is detected and served through
        per-env dict calls.
        """
        if type(self)._constrain_allocations is FleetTwig._constrain_allocations:
            return actions
        for r, e in enumerate(env_rows.tolist()):
            self._repair_row_via_dict(r, e, actions, results)
        return actions

    def _repair_row_via_dict(
        self, r: int, e: int, actions: np.ndarray, results: Sequence[StepResult]
    ) -> None:
        """Run one env's actions through the dict repair hook, in place."""
        manage_llc = self.action_space.manage_llc
        allocations = {
            name: Allocation(
                num_cores=int(actions[r, i, 0]) + 1,
                freq_index=int(actions[r, i, 1]),
                llc_ways=int(actions[r, i, 2]) if manage_llc else 0,
            )
            for i, name in enumerate(self.service_order)
        }
        constrained = self._constrain_allocations(e, allocations, results[e])
        if constrained is not allocations:
            for i, name in enumerate(self.service_order):
                a = constrained[name]
                actions[r, i, 0] = a.num_cores - 1
                actions[r, i, 1] = a.freq_index
                if manage_llc:
                    actions[r, i, 2] = a.llc_ways

    def _shape_rewards(
        self, env_index: int, breakdowns: Dict[str, RewardBreakdown]
    ) -> Dict[str, RewardBreakdown]:
        """Per-env dict hook: adjust one env's reward breakdowns.

        The base fleet applies Equation-1 unmodified;
        :class:`repro.hier.manager.HierFleetTwig` subtracts a budget
        overshoot penalty (vectorized via :meth:`_shape_reward_rows`,
        with this dict form kept for direct calls).
        """
        return breakdowns

    def _constrain_allocations(
        self,
        env_index: int,
        allocations: Dict[str, Allocation],
        result: StepResult,
    ) -> Dict[str, Allocation]:
        """Per-env dict hook: repair decoded allocations before install.

        Must be deterministic (no RNG draws) so batched acting stays
        stream-compatible with the scalar path. Return the *same* object
        when nothing changes; a new dict signals that the executed
        actions must be re-encoded for learning.
        """
        return allocations

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    #: Checkpoint kind tag for full fleet-manager state (see repro.ckpt).
    CKPT_KIND: ClassVar[str] = "twig_fleet"

    def state_dict(self) -> Dict[str, Any]:
        """Complete fleet-manager state for crash-safe resume.

        Control state is serialised as arrays under the ``monitor_bank``
        and ``fleet`` subtrees (one O(1) array dump instead of N per-env
        dict trees). :meth:`load_state_dict` accepts both this format
        and the legacy per-env ``monitors``/``envs`` layout.
        """
        return {
            "services": list(self.service_order),
            "num_envs": self.num_envs,
            "agent": self.agent.state_dict(),
            "monitor_bank": self.monitor_bank.state_dict(),
            "fleet": {
                "prev_states": self._prev_state_mat.copy(),
                "has_prev": self._has_prev.copy(),
                "prev_actions": self._prev_action_mat.copy(),
                "alloc_cores": self._alloc_cores.copy(),
                "alloc_freq": self._alloc_freq.copy(),
                "alloc_ways": self._alloc_ways.copy(),
                "has_alloc": self._has_alloc.copy(),
                "est_power": self._est_power.copy(),
                "has_est": self._has_est.copy(),
                "reward_totals": self._reward_totals.copy(),
                "has_reward": self._has_reward.copy(),
            },
        }

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore state from :meth:`state_dict` (stage-then-commit).

        Accepts both the array format written by this class and the
        legacy per-env-dict format (``monitors``/``envs`` subtrees)
        written before the array control plane / by
        :class:`repro.engine.fleet_reference.DictFleetTwig`.
        """
        try:
            services = [str(name) for name in list(tree["services"])]
            num_envs = int(tree["num_envs"])
            agent_tree = dict(tree["agent"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet checkpoint: {exc}") from exc
        if services != self.service_order:
            raise CheckpointError(
                f"checkpoint manages services {services}, this fleet manages "
                f"{self.service_order}"
            )
        if num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {num_envs} environments, this fleet has {self.num_envs}"
            )
        if "fleet" in tree and "monitor_bank" in tree:
            self._load_array_tree(tree, agent_tree)
        elif "monitors" in tree and "envs" in tree:
            self._load_legacy_tree(tree, agent_tree)
        else:
            raise CheckpointError(
                "fleet checkpoint has neither array state (monitor_bank/fleet) "
                "nor legacy per-env state (monitors/envs)"
            )

    def _load_array_tree(self, tree: Dict[str, Any], agent_tree: Dict[str, Any]) -> None:
        E = self.num_envs
        k = len(self.service_order)
        n_branches = self.action_space.n_branches
        try:
            bank_tree = dict(tree["monitor_bank"])
            fleet = dict(tree["fleet"])
            prev_states = np.asarray(fleet["prev_states"], dtype=np.float64)
            has_prev = np.asarray(fleet["has_prev"], dtype=bool).reshape(-1)
            prev_actions = np.asarray(fleet["prev_actions"], dtype=np.int64)
            alloc_cores = np.asarray(fleet["alloc_cores"], dtype=np.int64)
            alloc_freq = np.asarray(fleet["alloc_freq"], dtype=np.int64)
            alloc_ways = np.asarray(fleet["alloc_ways"], dtype=np.int64)
            has_alloc = np.asarray(fleet["has_alloc"], dtype=bool).reshape(-1)
            est_power = np.asarray(fleet["est_power"], dtype=np.float64)
            has_est = np.asarray(fleet["has_est"], dtype=bool).reshape(-1)
            reward_totals = np.asarray(fleet["reward_totals"], dtype=np.float64)
            has_reward = np.asarray(fleet["has_reward"], dtype=bool).reshape(-1)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet array state: {exc}") from exc
        shapes = {
            "prev_states": (prev_states, (E, self.agent.config.state_dim)),
            "prev_actions": (prev_actions, (E, k, n_branches)),
            "alloc_cores": (alloc_cores, (E, k)),
            "alloc_freq": (alloc_freq, (E, k)),
            "alloc_ways": (alloc_ways, (E, k)),
            "est_power": (est_power, (E, k)),
            "reward_totals": (reward_totals, (E, k)),
        }
        for field, (value, expected) in shapes.items():
            if value.shape != expected:
                raise CheckpointError(
                    f"fleet {field} has shape {value.shape}, expected {expected}"
                )
        for flag in (has_prev, has_alloc, has_est, has_reward):
            if flag.shape[0] != E:
                raise CheckpointError("fleet flag arrays do not match num_envs")
        if alloc_cores.min() < 1 or alloc_cores.max() > self.spec.cores_per_socket:
            raise CheckpointError("fleet alloc_cores out of range")
        if alloc_freq.min() < 0 or alloc_freq.max() >= len(self.spec.dvfs):
            raise CheckpointError("fleet alloc_freq out of range")
        if alloc_ways.min() < 0:
            raise CheckpointError("fleet alloc_ways out of range")
        # The agent load goes first: it is the part that can still reject
        # the checkpoint (stage-then-commit itself); the bank validates
        # before mutating too.
        self.agent.load_state_dict(agent_tree)
        self.monitor_bank.load_state_dict(bank_tree)
        self._prev_state_mat = prev_states.copy()
        self._has_prev = has_prev.copy()
        self._prev_action_mat = prev_actions.copy()
        self._alloc_cores = alloc_cores.copy()
        self._alloc_freq = alloc_freq.copy()
        self._alloc_ways = alloc_ways.copy()
        self._has_alloc = has_alloc.copy()
        self._est_power = est_power.copy()
        self._has_est = has_est.copy()
        self._reward_totals = reward_totals.copy()
        self._has_reward = has_reward.copy()
        self._mapper_cache.clear()

    def _load_legacy_tree(self, tree: Dict[str, Any], agent_tree: Dict[str, Any]) -> None:
        """Convert a legacy per-env-dict checkpoint into the array state."""
        E = self.num_envs
        k = len(self.service_order)
        n_branches = self.action_space.n_branches
        try:
            monitors_tree = dict(tree["monitors"])
            envs_tree = dict(tree["envs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet checkpoint: {exc}") from exc
        expected = {f"{e:04d}" for e in range(E)}
        if set(monitors_tree) != expected or set(envs_tree) != expected:
            raise CheckpointError("fleet checkpoint env keys do not match num_envs")
        top = len(self.spec.dvfs) - 1
        staged: List[Dict[str, Any]] = []
        for e in range(E):
            env_tree = dict(envs_tree[f"{e:04d}"])
            try:
                prev_actions = env_tree["prev_actions"]
                if prev_actions is not None:
                    prev_actions = np.asarray(
                        [[int(a) for a in branch] for branch in prev_actions],
                        dtype=np.int64,
                    )
                    if prev_actions.shape != (k, n_branches):
                        raise CheckpointError(
                            f"fleet env {e} prev_actions has shape "
                            f"{prev_actions.shape}, expected {(k, n_branches)}"
                        )
                allocations = {
                    str(name): Allocation(
                        num_cores=int(fields["num_cores"]),
                        freq_index=int(fields["freq_index"]),
                        llc_ways=int(fields.get("llc_ways", 0)),
                    )
                    for name, fields in dict(env_tree["last_allocations"]).items()
                }
                estimated_power = {
                    str(name): float(v)
                    for name, v in dict(env_tree["last_estimated_power"]).items()
                }
                last_rewards = {
                    str(name): float(v)
                    for name, v in dict(env_tree["last_rewards"]).items()
                }
            except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
                raise CheckpointError(f"malformed fleet env {e} state: {exc}") from exc
            prev_state = env_tree.get("prev_state")
            if prev_state is not None:
                prev_state = np.asarray(prev_state, dtype=np.float64).reshape(-1)
                if prev_state.shape[0] != self.agent.config.state_dim:
                    raise CheckpointError(
                        f"fleet env {e} prev_state dim {prev_state.shape[0]} != "
                        f"state dim {self.agent.config.state_dim}"
                    )
            staged.append(
                {
                    "prev_state": prev_state,
                    "prev_actions": prev_actions,
                    "allocations": allocations,
                    "estimated_power": estimated_power,
                    "last_rewards": last_rewards,
                }
            )
        # Stage the monitor rows into a scratch bank: per-env conversion
        # mutates incrementally, so a torn tree must not touch the live one.
        scratch = MonitorBank(self._counter_max_values, E * k, eta=self.config.eta)
        for e in range(E):
            scratch.load_monitor_rows(
                e * k, dict(monitors_tree[f"{e:04d}"]), self.service_order
            )
        self.agent.load_state_dict(agent_tree)
        self.monitor_bank = scratch
        for e, env_state in enumerate(staged):
            prev_state = env_state["prev_state"]
            prev_actions = env_state["prev_actions"]
            if prev_state is None or prev_actions is None:
                self._has_prev[e] = False
                self._prev_state_mat[e] = 0.0
                self._prev_action_mat[e] = 0
            else:
                self._prev_state_mat[e] = prev_state
                self._prev_action_mat[e] = prev_actions
                self._has_prev[e] = True
            # Missing services fall back to the `.get` default allocation
            # (all cores, top DVFS) / 0.0, exactly what the dict-state
            # manager's accessors defaulted to for absent keys.
            self._alloc_cores[e] = self.action_space.max_cores
            self._alloc_freq[e] = top
            self._alloc_ways[e] = 0
            self._est_power[e] = 0.0
            self._reward_totals[e] = 0.0
            allocations = env_state["allocations"]
            estimated_power = env_state["estimated_power"]
            last_rewards = env_state["last_rewards"]
            for i, name in enumerate(self.service_order):
                allocation = allocations.get(name)
                if allocation is not None:
                    self._alloc_cores[e, i] = allocation.num_cores
                    self._alloc_freq[e, i] = allocation.freq_index
                    self._alloc_ways[e, i] = allocation.llc_ways
                if name in estimated_power:
                    self._est_power[e, i] = estimated_power[name]
                if name in last_rewards:
                    self._reward_totals[e, i] = last_rewards[name]
            self._has_alloc[e] = bool(allocations)
            self._has_est[e] = bool(estimated_power)
            self._has_reward[e] = bool(last_rewards)
        self._mapper_cache.clear()

    def save(self, path) -> None:
        """Atomically checkpoint the full fleet state (see repro.ckpt)."""
        save_state(path, self.CKPT_KIND, self.state_dict())

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`."""
        self.load_state_dict(load_state(path, kind=self.CKPT_KIND))
