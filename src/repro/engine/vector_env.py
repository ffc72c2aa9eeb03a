"""Batched lock-step simulation of N colocation environments.

:class:`VectorEnvironment` wraps N homogeneous
:class:`~repro.sim.environment.ColocationEnvironment` instances and
advances all of them through one control interval per :meth:`step` call
with array-shaped math: per-(env x service) arrival/backlog/queueing
state, the batched Erlang-C kernel
(:func:`repro.services.queueing.erlang_c_batch`), vectorized interference
resolution, telemetry synthesis, and the ground-truth power model, all as
``(E, S)`` / ``(E, C)`` NumPy operations.

Draw-for-draw RNG fidelity
--------------------------
The wrapped environments remain the source of truth for all mutable
state (machine cores, service backlogs, RAPL energy, RNG streams), and
the vector step consumes their RNG streams in exactly the order the
scalar ``ColocationEnvironment.step`` would:

- each load generator's *private* RNG draws its jitter normal first
  (one per service, in service order);
- the environment's *shared* RNG then draws, per service in service
  order, one latency normal (iff ``latency_noise_std > 0``) followed by
  eleven telemetry normals (iff ``telemetry_noise_std > 0``), and
  finally one RAPL normal (always).

The shared draws are taken as a single ``standard_normal(total)`` block
per environment and scattered; ``Generator.normal(0, s)`` equals
``s * standard_normal()`` bitwise, and array draws continue the same
stream as repeated scalar draws, so a wrapped environment's RNG state
after a vector step is identical to the state after a scalar step.

The scalar per-environment path is retained untouched as the
equivalence oracle: stepping the same seeds through
``ColocationEnvironment.step`` reproduces the vector trajectories (see
``tests/test_engine_vector.py``).

Placements and machine state
----------------------------
While wrapped, an environment's machine state (core pins, per-core DVFS
indices, migration counters) is owned by the vector engine's ``(E, ...)``
arrays, not by its :class:`~repro.server.machine.Machine`. Each step
resolves every service placement ``(name, cores, freq_index,
llc_ways)`` of every environment's assignment to a row of a bounded
placement table; a row is built, after the same checks
``ColocationEnvironment.step`` runs, only the first time a placement is
seen. Installing the changed environments is then one array pass, with
migrations counted as ``(new ^ old).sum(axis=-1)``.
The ``Machine`` objects are written from the arrays on demand by
:meth:`VectorEnvironment.sync_machines` (checkpoints, migration counts)
and re-read by :meth:`VectorEnvironment.load_env_states`.

Only the per-environment assignment key, the backlog/RNG/energy
gather/scatter and lazy result objects remain per-environment Python;
every numeric formula on the hot path is evaluated once over the whole
batch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import AllocationError, CheckpointError, ConfigurationError
from repro.obs.events import make_event
from repro.server.machine import CoreAssignment
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.services.queueing import erlang_c_batch
from repro.services.service import IntervalResult
from repro.sim.environment import (
    ColocationEnvironment,
    EnvironmentConfig,
    ServiceObservation,
    StepResult,
    effective_capacity_matrix,
)

#: Seed stride between sibling environments created by
#: :meth:`VectorEnvironment.from_services`; large and prime so the
#: derived per-generator seeds of different environments never collide.
ENV_SEED_STRIDE = 100003

#: Distinct service placements the placement table holds before it is
#: cleared and refilled (never fewer than one step can need, so one
#: step's placements always fit).
PLACEMENT_TABLE_ROWS = 8192

#: Raw counter names in the exact order ``TelemetrySynthesizer.synthesize``
#: builds (and therefore noises) them.
_COUNTER_ORDER = (
    "UNHALTED_CORE_CYCLES",
    "INSTRUCTION_RETIRED",
    "PERF_COUNT_HW_CPU_CYCLES",
    "UNHALTED_REFERENCE_CYCLES",
    "UOPS_RETIRED",
    "BRANCH_INSTRUCTIONS_RETIRED",
    "MISPREDICTED_BRANCH_RETIRED",
    "PERF_COUNT_HW_BRANCH_MISSES",
    "LLC_MISSES",
    "PERF_COUNT_HW_CACHE_L1D",
    "PERF_COUNT_HW_CACHE_L1I",
)


class StepBatch(Sequence):
    """One fused step's results: arrays now, ``StepResult`` objects on demand.

    :meth:`VectorEnvironment.step` computes the whole interval as
    ``(E, S)`` arrays; building E :class:`StepResult` objects (with their
    per-service :class:`IntervalResult`/pmcs dicts) used to dominate the
    large-fleet step cost even though array-aware consumers (the rollout
    loop, :class:`~repro.engine.fleet.FleetTwig`, the cluster balancer
    feedback) never look at them. A ``StepBatch`` carries the arrays in
    :attr:`arrays` and materialises ``results[e]`` lazily — the
    materialised object is field-for-field identical to what the eager
    scatter built, so object-oriented consumers (the scalar-equivalence
    tests, rule fleets) work unchanged.

    Environments with active faults or an enabled trace sink are
    materialised eagerly inside ``step`` (faults consume RNG and mutate
    the observation objects); their cached results are returned as-is.
    """

    def __init__(
        self,
        names: Sequence[str],
        interval_s: float,
        arrays: Dict[str, np.ndarray],
        envs: Optional[Sequence[ColocationEnvironment]] = None,
    ):
        self.names = list(names)
        self.interval_s = interval_s
        #: The interval's internal matrices; see ``VectorEnvironment.step``.
        self.arrays = arrays
        self._envs = envs
        self._results: List[Optional[StepResult]] = [None] * len(arrays["time"])

    def __len__(self) -> int:
        return len(self._results)

    def __getitem__(self, index: int) -> StepResult:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        result = self._results[index]
        if result is None:
            result = self._materialize(index)
            self._results[index] = result
        return result

    def set_result(self, index: int, result: StepResult) -> None:
        """Install an eagerly built (possibly faulted) result."""
        self._results[index] = result

    def build_observations(self, e: int) -> Dict[str, ServiceObservation]:
        """Per-service observation objects for env ``e`` from the arrays."""
        a = self.arrays
        observations: Dict[str, ServiceObservation] = {}
        for i, name in enumerate(self.names):
            interval = IntervalResult(
                service=name,
                interval_s=self.interval_s,
                arrival_rate=float(a["arrivals"][e, i]),
                throughput_rps=float(a["throughput"][e, i]),
                p99_ms=float(a["p99"][e, i]),
                mean_ms=float(a["mean_ms"][e, i]),
                utilization=float(a["utilization"][e, i]),
                capacity_rps=float(a["capacity"][e, i]),
                backlog=float(a["backlog"][e, i]),
                cores=float(a["cores"][e, i]),
                frequency_ghz=float(a["frequency_ghz"][e, i]),
                inflation=float(a["inflation"][e, i]),
                miss_inflation=float(a["miss_inflation"][e, i]),
                membw_gbps=float(a["membw_gbps"][e, i]),
                busy_core_seconds=float(a["busy_core_seconds"][e, i]),
                instructions=float(a["instructions"][e, i]),
                qos_target_ms=float(a["qos_target"][i]),
            )
            pmcs = {
                counter: float(a["counters"][e, i, c])
                for c, counter in enumerate(_COUNTER_ORDER)
            }
            observations[name] = ServiceObservation(interval=interval, pmcs=pmcs)
        return observations

    def _materialize(self, e: int) -> StepResult:
        a = self.arrays
        result = StepResult(
            time=int(a["time"][e]),
            observations=self.build_observations(e),
            socket_power_w=float(a["power_w"][e]),
            true_power_w=float(a["true_power_w"][e]),
            membw_utilization=float(a["membw_utilization"][e]),
            energy_j=float(a["energy_j"][e]),
        )
        if self._envs is not None:
            self._envs[e].last_result = result
        return result


class VectorEnvironment:
    """N homogeneous colocation environments stepped in lock-step.

    Subclass hooks: :meth:`_gather_arrivals` supplies the ``(E, S)``
    arrival-rate matrix for the interval (default: each wrapped
    environment's own load generators), and :meth:`_post_step` observes
    the interval's internal arrays after the batch has been stepped
    (default: no-op). ``index_tag`` names the envelope field used to tag
    emitted trace events with the environment index (``"env"`` here;
    :class:`repro.cluster.environment.ClusterEnvironment` retags as
    ``"node"``).
    """

    #: Envelope field used when tagging per-environment trace events.
    index_tag = "env"

    def __init__(self, envs: Sequence[ColocationEnvironment]):
        if not envs:
            raise ConfigurationError("VectorEnvironment needs at least one environment")
        self.envs: List[ColocationEnvironment] = list(envs)
        self.num_envs = len(self.envs)
        base = self.envs[0]
        self.names: List[str] = list(base.services)
        self.config = base.config
        self.spec = base.spec
        self._validate_homogeneous()

        profiles = [base.services[name].profile for name in self.names]
        as_array = lambda attr: np.array(  # noqa: E731 - tiny stacking helper
            [getattr(p, attr) for p in profiles], dtype=np.float64
        )
        self._cpu_ms = as_array("cpu_ms_per_req")
        self._serial_fraction = as_array("serial_fraction")
        self._floor_ms = as_array("floor_q99_ms")
        self._cv2 = as_array("cv2")
        self._alpha = as_array("freq_sensitivity")
        self._membw_per_req = as_array("membw_per_req_mb")
        self._working_set = as_array("llc_working_set_mb")
        self._membw_sens = as_array("membw_sensitivity")
        self._llc_sens = as_array("llc_sensitivity")
        self._instr_per_req = as_array("instr_per_req_m")
        self._llc_mpki = as_array("llc_mpki")
        self._l1d_mpki = as_array("l1d_mpki")
        self._l1i_mpki = as_array("l1i_mpki")
        self._bpi = as_array("branch_per_instr")
        self._bmr = as_array("branch_miss_rate")
        self._uops = as_array("uops_per_instr")
        self._aiu = as_array("active_idle_util")
        self._qos_target = np.array(
            [base.services[name].qos_target_ms for name in self.names], dtype=np.float64
        )
        self._ladder = np.array(
            self.spec.dvfs.frequencies_ghz, dtype=np.float64
        )
        self._core_ids = base.socket_core_ids
        self._column = {cid: j for j, cid in enumerate(self._core_ids)}

        #: Optional :class:`~repro.obs.timing.TimingRegistry` wired in by
        #: the rollout loop; subclasses report timing sub-sections here.
        self.timings = None
        E, S, C = self.num_envs, len(self.names), len(self._core_ids)
        self._placements = _PlacementTable(max(PLACEMENT_TABLE_ROWS, E * S), C)
        # Installed machine state, one row per env: the placement-table
        # rows last installed, one per service (-1: re-install on the
        # next step), and the socket state they left. The arrays own
        # this state while the env is wrapped; ``_machines_stale`` marks
        # envs whose Machine object lags behind them (see sync_machines).
        self._applied_rows = np.full((E, S), -1, dtype=np.int64)
        self._m_membership = np.zeros((E, S, C), dtype=bool)
        self._m_online = np.zeros((E, C), dtype=bool)
        self._m_freq_index = np.zeros((E, C), dtype=np.int64)
        self._m_n_cores = np.zeros((E, S))
        self._m_freq = np.zeros((E, S))
        self._m_llc_quota = np.zeros((E, S))
        self._m_migrations = np.zeros((E, S), dtype=np.int64)
        # Whether a service has a key in its Machine's migration_counts,
        # and the order new keys enter it (Machine.apply inserts them in
        # assignment order the first time a service moves).
        self._m_counted = np.zeros((E, S), dtype=bool)
        self._new_count_keys: Dict[int, List[str]] = {}
        self._machines_stale = np.zeros(E, dtype=bool)
        self._adopt_machines()

    def _assignment_key(self, assignment: Mapping[str, CoreAssignment]) -> Optional[tuple]:
        """Content key of an assignment, one ``(name, cores, freq_index,
        llc_ways)`` entry per service in batch order, or ``None`` if its
        services are not exactly this batch's (missing, unexpected)."""
        if len(assignment) != len(self.names):
            return None
        try:
            return tuple(
                (name, tuple(a.cores), a.freq_index, a.llc_ways)
                for name, a in ((n, assignment[n]) for n in self.names)
            )
        except KeyError:
            return None

    def _install_assignments(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> None:
        """Resolve every env's assignment to placement rows, then install
        the changed envs in one array pass; unchanged envs are skipped.

        Mirrors ``Machine.apply``: every core drops to DVFS index 0, then
        a core shared by several services runs at the highest index
        requested for it (Section IV arbitration); a service's frequency
        is the highest over its cores.
        """
        rows = self._resolve_placements(assignments)
        changed = np.nonzero((rows != self._applied_rows).any(axis=1))[0]
        if not changed.size:
            return
        table = self._placements
        placed = rows[changed]
        membership = table.membership[placed]                      # (n, S, C)
        requested = table.freq_index[placed]                       # (n, S)
        freq_index = np.where(membership, requested[:, :, None], 0).max(axis=1)
        core_ghz = self._ladder[freq_index]                        # (n, C)
        freq = np.where(membership, core_ghz[:, None, :], -np.inf).max(axis=2)
        moved = (membership ^ self._m_membership[changed]).sum(axis=-1)
        first = (moved > 0) & ~self._m_counted[changed]
        if first.any():
            self._note_new_counters(changed, first, assignments)
        self._m_membership[changed] = membership
        self._m_freq_index[changed] = freq_index
        self._m_n_cores[changed] = table.n_cores[placed]
        self._m_freq[changed] = freq
        self._m_llc_quota[changed] = table.llc_quota[placed]
        self._m_migrations[changed] += moved
        self._applied_rows[changed] = placed
        self._machines_stale[changed] = True

    def _resolve_placements(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> np.ndarray:
        """``(E, S)`` placement-table rows of every env's assignment.

        Checks run in env order and raise before anything is installed.
        A full table is cleared and the step's placements resolved again.
        """
        table = self._placements
        lookup = table.rows.get
        rows: List[int] = []
        for e, assignment in enumerate(assignments):
            key = self._assignment_key(assignment)
            if key is None:
                raise AllocationError(
                    f"assignments for {sorted(assignment)} but services are "
                    f"{sorted(self.envs[e].services)}"
                )
            for entry in key:
                row = lookup(entry)
                if row is None:
                    if len(table.rows) == table.capacity:
                        table.clear()
                        self._applied_rows[:] = -1
                        return self._resolve_placements(assignments)
                    row = self._add_placement(self.envs[e], entry, assignment)
                rows.append(row)
        return np.array(rows, dtype=np.int64).reshape(self.num_envs, len(self.names))

    def _add_placement(
        self,
        env: ColocationEnvironment,
        entry: tuple,
        assignment: Mapping[str, CoreAssignment],
    ) -> int:
        """Check a first-seen service placement with the checks of
        ``ColocationEnvironment.step`` and give it a table row.

        If it fails, the checks are re-run over the whole assignment so
        the error raised is the one the scalar step raises.
        """
        name, cores, freq_index, llc_ways = entry
        single = {name: assignment[name]}
        try:
            env._check_socket(single)
            env.machine._validate(single)
        except AllocationError:
            env._check_socket(assignment)
            env.machine._validate(assignment)
            raise
        membership = np.zeros(len(self._core_ids), dtype=bool)
        membership[[self._column[cid] for cid in cores]] = True
        return self._placements.add(
            entry, membership, freq_index, len(cores),
            llc_ways * self.spec.socket.mb_per_way,
        )

    def _note_new_counters(
        self,
        changed: np.ndarray,
        first: np.ndarray,
        assignments: Sequence[Mapping[str, CoreAssignment]],
    ) -> None:
        """Record services moving for the first time, in assignment order."""
        for r in np.nonzero(first.any(axis=1))[0].tolist():
            e = int(changed[r])
            new = {self.names[i] for i in np.nonzero(first[r])[0].tolist()}
            self._new_count_keys.setdefault(e, []).extend(
                name for name in assignments[e] if name in new
            )
            self._m_counted[e] |= first[r]

    def sync_machines(self) -> None:
        """Write the installed state into the wrapped envs' ``Machine`` objects.

        Leaves each Machine exactly as the same sequence of
        ``Machine.apply`` calls would have: cores outside the server
        socket unpinned at the lowest DVFS state, socket cores pinned
        and arbitrated, migration counters up to date.
        """
        names = self.names
        for e in np.nonzero(self._machines_stale)[0].tolist():
            machine = self.envs[e].machine
            pins = self._m_membership[e].T.tolist()
            freq_index = self._m_freq_index[e].tolist()
            for core in machine.cores:
                core.services = set()
                core.freq_index = 0
            for j, cid in enumerate(self._core_ids):
                core = machine.cores[cid]
                core.services = {name for name, pinned in zip(names, pins[j]) if pinned}
                core.freq_index = freq_index[j]
            counts = machine.migration_counts
            for name in self._new_count_keys.pop(e, ()):
                counts[name] = 0
            totals = self._m_migrations[e].tolist()
            for i, name in enumerate(names):
                if self._m_counted[e, i]:
                    counts[name] = totals[i]
        self._machines_stale[:] = False

    def _adopt_machines(self) -> None:
        """Re-derive the installed state from the wrapped ``Machine`` objects.

        The one place installed state is invalidated (construction and
        :meth:`load_env_states`): the next step re-installs every env.
        Only server-socket pins are read: every placement a step installs
        passed the socket check.
        """
        self._applied_rows[:] = -1
        self._machines_stale[:] = False
        self._new_count_keys = {}
        for e, env in enumerate(self.envs):
            machine = env.machine
            cores = [machine.cores[cid] for cid in self._core_ids]
            self._m_online[e] = [core.online for core in cores]
            self._m_membership[e] = [
                [name in core.services for core in cores] for name in self.names
            ]
            counts = machine.migration_counts
            self._m_migrations[e] = [counts.get(name, 0) for name in self.names]
            self._m_counted[e] = [name in counts for name in self.names]

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_services(
        cls,
        services: Sequence[str],
        load_fractions: Mapping[str, float],
        num_envs: int,
        seed: int,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Mapping[str, float]] = None,
    ) -> "VectorEnvironment":
        """Build N sibling environments with deterministic per-env seeding.

        Environment ``e`` uses base seed ``seed + e * ENV_SEED_STRIDE``
        and then follows the same recipe as
        :func:`repro.experiments.common.make_environment` (env RNG at the
        base seed, load generator ``i`` at ``base + 101 + i``), so
        environment 0 of a vector run is seed-for-seed identical to a
        scalar run at ``seed``.
        """
        if num_envs <= 0:
            raise ConfigurationError(f"num_envs must be positive, got {num_envs}")
        envs = [
            make_sibling_environment(
                services, load_fractions, seed + e * ENV_SEED_STRIDE, config, qos_targets
            )
            for e in range(num_envs)
        ]
        return cls(envs)

    def _validate_homogeneous(self) -> None:
        base = self.envs[0]
        for e, env in enumerate(self.envs):
            if list(env.services) != self.names:
                raise ConfigurationError(
                    f"environment {e} hosts services {list(env.services)}, "
                    f"environment 0 hosts {self.names}"
                )
            if env.config != base.config:
                raise ConfigurationError(
                    f"environment {e} config differs from environment 0; "
                    "vector batches must be homogeneous"
                )
            for name in self.names:
                if env.services[name].profile != base.services[name].profile:
                    raise ConfigurationError(
                        f"environment {e} profile for {name!r} differs from environment 0"
                    )
                if env.services[name].qos_target_ms != base.services[name].qos_target_ms:
                    raise ConfigurationError(
                        f"environment {e} QoS target for {name!r} differs from environment 0"
                    )

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def service_names(self) -> List[str]:
        """Colocated service names, identical across all sibling envs."""
        return list(self.names)

    @property
    def time(self) -> int:
        """Current control-interval index (all envs step in lock-step)."""
        return self.envs[0].time

    def max_power_w(self) -> float:
        """Socket power cap shared by every sibling environment."""
        return self.envs[0].max_power_w()

    def qos_target_of(self, name: str) -> float:
        """p99 QoS target (ms) for ``name`` — validated equal across envs."""
        return self.envs[0].qos_target_of(name)

    def profile_of(self, name: str):
        """The :class:`ServiceProfile` for ``name`` (same in every env)."""
        return self.envs[0].profile_of(name)

    @property
    def trace_sink(self):
        """The trace sink wrapped env 0 emits into."""
        return self.envs[0].trace

    def set_trace_sink(self, sink) -> None:
        """Point every wrapped environment at ``sink``."""
        for env in self.envs:
            env.trace = sink

    def migration_counts(self) -> List[Dict[str, int]]:
        """Per-env service migration counters (for final run traces)."""
        self.sync_machines()
        return [dict(env.machine.migration_counts) for env in self.envs]

    def close(self) -> None:
        """Release engine resources (no-op for the in-process engine)."""

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> StepBatch:
        """Install per-env assignments and advance every env one interval."""
        if len(assignments) != self.num_envs:
            raise ConfigurationError(
                f"got assignments for {len(assignments)} environments, "
                f"batch has {self.num_envs}"
            )
        E, S, C = self.num_envs, len(self.names), len(self._core_ids)
        interval = self.config.interval_s

        # Control plane: resolve placements (checked once per distinct
        # placement) and install the changed environments' rows.
        self._install_assignments(assignments)
        membership = self._m_membership
        online = self._m_online
        freq_index = self._m_freq_index
        n_cores = self._m_n_cores
        freq = self._m_freq
        llc_quota = self._m_llc_quota

        arrivals = self._gather_arrivals()

        backlog = np.empty((E, S))
        for e, env in enumerate(self.envs):
            services = env.services
            for i, name in enumerate(self.names):
                backlog[e, i] = services[name].backlog

        # --- effective capacities (demand-aware timesharing) ------------ #
        freq_factor = self._alpha * (self.spec.dvfs.max_ghz / freq) + (1.0 - self._alpha)
        service_ms_base = self._cpu_ms * freq_factor
        offered = arrivals + backlog / interval
        per_core_demand = np.minimum(
            offered * service_ms_base / 1000.0 / np.maximum(n_cores, 1.0), 1.5
        )
        capacities = effective_capacity_matrix(membership, online, per_core_demand)

        # --- interference ----------------------------------------------- #
        eff_servers = capacities / (1.0 + self._serial_fraction * (capacities - 1.0))
        capacity_uncontended = eff_servers * 1000.0 / service_ms_base
        expected = np.minimum(offered, capacity_uncontended)
        interference = self.envs[0].interference
        membw_expected = expected * self._membw_per_req / 1024.0
        bw_util = membw_expected.sum(axis=1) / interference.membw_capacity_gbps
        pressure = np.array(
            [interference._bandwidth_pressure(float(u)) for u in bw_util]
        )
        llc_cap = interference.llc_capacity_mb
        quota_total = np.minimum(
            np.minimum(llc_quota, llc_cap).sum(axis=1), llc_cap
        )
        shared_capacity = np.maximum(llc_cap - quota_total, 1e-9)
        working_set = self._working_set * 1.0  # llc_demand_mb at full load
        shared_ws = np.where(llc_quota <= 0, working_set, 0.0).sum(axis=1)
        has_quota = llc_quota > 0
        ws_positive = working_set > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            evicted_isolated = np.maximum(0.0, 1.0 - llc_quota / working_set)
            share = shared_capacity[:, None] * working_set / shared_ws[:, None]
            evicted_shared = np.maximum(0.0, 1.0 - share / working_set)
        evicted = np.where(
            has_quota,
            np.where(ws_positive, evicted_isolated, 0.0),
            np.where(
                (shared_ws > shared_capacity)[:, None] & ws_positive,
                evicted_shared,
                0.0,
            ),
        )
        miss_inflation = 1.0 + evicted
        bw_term = self._membw_sens * interference.bandwidth_strength * pressure[:, None]
        llc_term = self._llc_sens * interference.llc_strength * evicted
        inflation = 1.0 + bw_term + llc_term

        # --- service dynamics (both regimes, then select) ---------------- #
        service_ms = service_ms_base * inflation
        floor_ms = self._floor_ms * freq_factor * inflation
        mu = 1000.0 / service_ms
        capacity = eff_servers * mu
        stable = offered < 0.995 * capacity

        wait_stable = self._wait_q99_ms(offered, mu, eff_servers)
        overload_backlog = np.clip(
            backlog + (arrivals - capacity) * interval, 0.0, 2.0 * capacity
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            queueing_ms = np.where(
                capacity > 0, 1000.0 * (overload_backlog / capacity), 0.0
            )
        edge_wait = self._wait_q99_ms(0.995 * capacity, mu, eff_servers)
        p99 = np.where(
            stable,
            floor_ms + wait_stable,
            floor_ms + service_ms + np.maximum(queueing_ms, edge_wait),
        )
        new_backlog = np.where(stable, 0.0, overload_backlog)
        throughput = np.where(stable, offered, capacity)

        # --- shared-RNG noise block -------------------------------------- #
        lat_draws = 1 if self.config.latency_noise_std > 0 else 0
        tel_draws = len(_COUNTER_ORDER) if self.config.telemetry_noise_std > 0 else 0
        block = lat_draws + tel_draws
        total_draws = S * block + 1
        z = np.empty((E, total_draws))
        for e, env in enumerate(self.envs):
            z[e] = env._rng.standard_normal(total_draws)
        per_service = z[:, : S * block].reshape(E, S, block)
        if lat_draws:
            p99 = p99 * np.exp(self.config.latency_noise_std * per_service[:, :, 0])

        mean_ms = (
            floor_ms / 3.0
            + (p99 - floor_ms) / 4.6
            + service_ms / np.maximum(eff_servers, 1.0)
        )
        busy = np.minimum(offered, capacity) * service_ms / 1000.0 * interval
        utilization = np.clip(busy / (capacities * interval), 0.0, 1.0)
        instructions = throughput * interval * self._instr_per_req * 1e6
        membw_out = throughput * self._membw_per_req / 1024.0

        # --- telemetry ---------------------------------------------------- #
        spin_seconds = np.maximum(
            self._aiu * (capacities * interval - busy), 0.0
        )
        active_seconds = busy + spin_seconds
        core_cycles = active_seconds * freq * 1e9
        ref_cycles = active_seconds * 2.0e9
        spin_cycles = spin_seconds * freq * 1e9
        spin_instr = spin_cycles * 0.8
        spin_branches = spin_instr * 0.30
        kilo_instr = instructions / 1000.0
        branch_instr = instructions * self._bpi + spin_branches
        branch_misses = instructions * self._bpi * self._bmr + spin_branches * 0.001
        total_instr = instructions + spin_instr
        counters = np.stack(
            [
                core_cycles,
                total_instr,
                core_cycles,
                ref_cycles,
                total_instr * self._uops,
                branch_instr,
                branch_misses,
                branch_misses,
                kilo_instr * self._llc_mpki * miss_inflation,
                kilo_instr * self._l1d_mpki,
                kilo_instr * self._l1i_mpki,
            ],
            axis=-1,
        )  # (E, S, 11)
        if tel_draws:
            tel_z = per_service[:, :, lat_draws:]
            counters = counters * (1.0 + self.config.telemetry_noise_std * tel_z)
        counters = np.maximum(counters, 0.0)

        # --- ground-truth power and RAPL ---------------------------------- #
        effective_util = utilization + self._aiu * (1.0 - utilization)
        core_util = np.clip(
            (membership * effective_util[:, :, None]).sum(axis=1), 0.0, 1.0
        )
        allocated = membership.any(axis=1)
        core_freq = self._ladder[freq_index]
        voltage = self.spec.voltage_base_v + self.spec.voltage_slope * core_freq
        dynamic_per_core = np.where(
            allocated,
            self.spec.dynamic_coeff * voltage * voltage * core_freq * core_util,
            0.0,
        )
        if self.config.hotplug_unused:
            online_count = allocated.sum(axis=1)
        else:
            online_count = np.full(E, C)
        true_power = (
            self.spec.idle_power_w
            + self.spec.core_static_w * online_count
            + dynamic_per_core.sum(axis=1)
            + self.spec.uncore_bw_w * np.clip(bw_util, 0.0, 1.0)
        )
        rapl_noise = 1.0 + self.config.rapl_noise_std * z[:, -1]
        readings = np.maximum(true_power * rapl_noise, 0.0)

        # --- scatter state back into the wrapped environments -------------- #
        # Only the cheap per-env state sync (backlogs, RAPL, clocks) runs
        # eagerly; result-object construction is deferred to the
        # StepBatch and only forced for envs with active faults (which
        # consume RNG and mutate observations) or an enabled trace sink.
        socket = self.config.socket_index
        times = np.empty(E, dtype=np.int64)
        energy = np.empty(E)
        for e, env in enumerate(self.envs):
            services = env.services
            for i, name in enumerate(self.names):
                services[name].backlog = float(new_backlog[e, i])
            reading = float(readings[e])
            env.rapl.energy_j += reading * interval
            env.rapl.last_reading_w = {socket: reading}
            env.time += 1
            times[e] = env.time
            energy[e] = env.rapl.energy_j

        arrays = {
            "arrivals": arrivals,
            "throughput": throughput,
            "p99": p99,
            "mean_ms": mean_ms,
            "utilization": utilization,
            "capacity": capacity,
            "backlog": new_backlog,
            "cores": capacities,
            "frequency_ghz": freq,
            "inflation": inflation,
            "miss_inflation": miss_inflation,
            "membw_gbps": membw_out,
            "busy_core_seconds": busy,
            "instructions": instructions,
            "counters": counters,
            "qos_target": self._qos_target,
            "power_w": readings,
            "true_power_w": true_power,
            "membw_utilization": bw_util,
            "energy_j": energy,
            "time": times,
        }
        batch = StepBatch(self.names, interval, arrays, envs=self.envs)
        for e, env in enumerate(self.envs):
            pending = (
                env.faults is not None and env.faults.active_at(env.time)
            )
            if not pending and not env.trace.enabled:
                continue
            applied = []
            if pending:
                # Same ordering as the scalar path: injected after
                # power/RAPL, so sensor faults corrupt what the manager
                # *sees*, not what the machine drew. The per-env injector
                # RNG is consumed here, draw-for-draw with the oracle.
                observations = batch.build_observations(e)
                observations, applied = env.faults.apply(
                    env.time, observations, env.services
                )
                # Refresh the fused arrays so downstream feedback
                # (_post_step, cluster NodeLoads, the array control
                # plane's monitor bank) sees the faulted view.
                for i, name in enumerate(self.names):
                    obs = observations[name]
                    throughput[e, i] = obs.interval.throughput_rps
                    p99[e, i] = obs.p99_ms
                    utilization[e, i] = obs.interval.utilization
                    new_backlog[e, i] = obs.interval.backlog
                    for c, counter in enumerate(_COUNTER_ORDER):
                        counters[e, i, c] = obs.pmcs[counter]
                step_result = StepResult(
                    time=env.time,
                    observations=observations,
                    socket_power_w=float(readings[e]),
                    true_power_w=float(true_power[e]),
                    membw_utilization=float(bw_util[e]),
                    energy_j=env.rapl.energy_j,
                )
                env.last_result = step_result
                batch.set_result(e, step_result)
            if env.trace.enabled:
                step_result = batch[e]
                for fault in applied:
                    env.trace.emit(
                        make_event(
                            "fault",
                            env.time,
                            service=fault.service,
                            kind=fault.kind,
                            magnitude=float(fault.magnitude),
                            start=fault.start,
                            duration=fault.duration,
                            **{self.index_tag: e},
                        )
                    )
                self._emit_step_events(env, e, step_result)
        self._post_step(batch, arrays)
        return batch

    def _gather_arrivals(self) -> np.ndarray:
        """Arrival rates ``(E, S)`` for the interval about to be simulated.

        The default consumes each load generator's private RNG stream
        exactly as the scalar path does (one jitter normal per generator,
        in service order). Subclasses may override to inject externally
        computed rates — e.g. the cluster load balancer — as long as the
        replacement preserves each environment's RNG-draw ordering.
        """
        arrivals = np.empty((self.num_envs, len(self.names)))
        for e, env in enumerate(self.envs):
            for i, name in enumerate(self.names):
                arrivals[e, i] = env.load_generators[name].rate(env.time)
        return arrivals

    def _post_step(
        self, results: List[StepResult], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Hook called once per :meth:`step` after results are built.

        ``arrays`` exposes the interval's internal ``(E, S)`` / ``(E,)``
        matrices (arrivals, throughput, p99, utilization, backlog,
        power_w, true_power_w, membw_utilization) so subclasses can build
        feedback and aggregates without re-deriving them. The base class
        does nothing.
        """

    def _wait_q99_ms(
        self, arrival: np.ndarray, mu: np.ndarray, servers: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``LCService._stable_wait_q99_ms``."""
        offered = arrival / mu
        p_wait = erlang_c_batch(servers, np.maximum(offered, 0.0))
        p_wait = np.minimum(1.0, p_wait * (1.0 + self._cv2) / 2.0)
        theta = servers * mu - arrival
        with np.errstate(divide="ignore", invalid="ignore"):
            wait = 1000.0 * np.log(p_wait / 0.01) / theta
        wait = np.where(theta <= 0, np.inf, wait)
        wait = np.where(p_wait <= 0.01, 0.0, wait)
        return np.where(arrival <= 0, 0.0, wait)

    def _emit_step_events(
        self, env: ColocationEnvironment, env_index: int, result: StepResult
    ) -> None:
        """Scalar ``_emit_step_events`` with per-env envelope tagging."""
        tag = {self.index_tag: env_index}
        per_service = {}
        for name, obs in result.observations.items():
            per_service[name] = {
                "p99_ms": obs.p99_ms,
                "qos_target_ms": obs.interval.qos_target_ms,
                "qos_met": obs.qos_met,
                "arrival_rps": obs.interval.arrival_rate,
                "cores": obs.interval.cores,
                "frequency_ghz": obs.interval.frequency_ghz,
            }
            if obs.qos_met:
                env._violation_streaks[name] = 0
            else:
                streak = env._violation_streaks.get(name, 0) + 1
                env._violation_streaks[name] = streak
                env.trace.emit(
                    make_event(
                        "qos_violation",
                        result.time,
                        service=name,
                        p99_ms=obs.p99_ms,
                        qos_target_ms=obs.interval.qos_target_ms,
                        tardiness=obs.tardiness,
                        consecutive=streak,
                        **tag,
                    )
                )
        env.trace.emit(
            make_event(
                "interval",
                result.time,
                services=per_service,
                power_w=result.socket_power_w,
                true_power_w=result.true_power_w,
                membw_utilization=result.membw_utilization,
                energy_j=result.energy_j,
                **tag,
            )
        )

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Per-env state trees, keyed by zero-padded env index."""
        return {
            "num_envs": self.num_envs,
            "envs": {f"{e:04d}": tree for e, tree in enumerate(self.env_states())},
        }

    def env_states(self) -> List[Dict[str, Any]]:
        """Every wrapped env's ``state_dict``, machine state synced first."""
        self.sync_machines()
        return [env.state_dict() for env in self.envs]

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore every sibling environment from a ``state_dict`` tree."""
        try:
            num_envs = int(tree["num_envs"])
            env_trees = dict(tree["envs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed vector environment checkpoint: {exc}") from exc
        if num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint describes {num_envs} environments, batch has {self.num_envs}"
            )
        expected = {f"{e:04d}" for e in range(self.num_envs)}
        if set(env_trees) != expected:
            raise CheckpointError(
                f"vector checkpoint env keys {sorted(env_trees)} do not match "
                f"batch size {self.num_envs}"
            )
        self.load_env_states([env_trees[f"{e:04d}"] for e in range(self.num_envs)])

    def load_env_states(self, trees: Sequence[Mapping[str, Any]]) -> None:
        """Restore each wrapped env from its ``state_dict`` tree.

        Machine state is replaced wholesale, so the installed state is
        re-derived from the loaded Machines (even if a load fails part
        way) and every env re-installs on the next step.
        """
        self.sync_machines()
        try:
            for env, tree in zip(self.envs, trees):
                env.load_state_dict(dict(tree))
        finally:
            self._adopt_machines()


class _PlacementTable:
    """Checked service placements, keyed by content, at most ``capacity``.

    Row ``r`` holds one service's ``(name, cores, freq_index, llc_ways)``
    placement resolved against the server socket: its core membership
    ``(C,)``, requested DVFS index, core count and LLC quota (MB). Only
    placements that passed every check get a row.
    """

    def __init__(self, capacity: int, num_cores: int):
        self.capacity = capacity
        self.rows: Dict[tuple, int] = {}
        self.membership = np.zeros((capacity, num_cores), dtype=bool)
        self.freq_index = np.zeros(capacity, dtype=np.int64)
        self.n_cores = np.zeros(capacity)
        self.llc_quota = np.zeros(capacity)

    def add(self, key: tuple, membership: np.ndarray, freq_index: int,
            n_cores: int, llc_quota: float) -> int:
        row = len(self.rows)
        self.membership[row] = membership
        self.freq_index[row] = freq_index
        self.n_cores[row] = n_cores
        self.llc_quota[row] = llc_quota
        self.rows[key] = row
        return row

    def clear(self) -> None:
        self.rows.clear()


def make_sibling_environment(
    services: Sequence[str],
    load_fractions: Mapping[str, float],
    seed: int,
    config: Optional[EnvironmentConfig] = None,
    qos_targets: Optional[Mapping[str, float]] = None,
) -> ColocationEnvironment:
    """One scalar environment following the standard experiment recipe.

    Mirrors :func:`repro.experiments.common.make_environment`: the env RNG
    sits at ``seed`` and load generator ``i`` at ``seed + 101 + i``, so
    the same seed produces the same trajectory whether the environment is
    stepped standalone (the oracle) or inside a vector batch.
    """
    if not services:
        raise ConfigurationError("need at least one service")
    profiles = [get_profile(name) for name in services]
    generators = {}
    for i, profile in enumerate(profiles):
        fraction = load_fractions.get(profile.name, 0.5)
        generators[profile.name] = ConstantLoad(
            profile.max_load_rps,
            fraction,
            rng=np.random.default_rng(seed + 101 + i),
        )
    return ColocationEnvironment(
        config or EnvironmentConfig(),
        profiles,
        generators,
        np.random.default_rng(seed),
        qos_targets=qos_targets,
    )
