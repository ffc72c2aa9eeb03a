"""The leaf side of the hierarchy: budget-aware fleet control.

:class:`HierFleetTwig` is a :class:`~repro.engine.fleet.FleetTwig` (so
all N nodes still act through one fused forward and train through one
fused GEMM per tick) plus a :class:`~repro.hier.allocator.BudgetAllocator`
on top. Every ``period`` control ticks the manager aggregates the
window's per-node stats, rewards the allocator for the window just
ended, asks it for the next (level, tilt), derives per-node watt
budgets, and emits one ``budget_assign`` trace event.

The budget reaches the leaves through the two
:class:`~repro.engine.fleet.FleetTwig` hooks:

- **reward shaping** (:meth:`_shape_rewards`): Equation-1 stays intact;
  when a node's summed Equation-2 power estimate exceeded its budget,
  ``theta * overshoot`` is subtracted from every service's reward on
  that node, so the leaves learn to live inside the envelope;
- **action masking** (:meth:`_constrain_allocations`): decoded actions
  whose estimated node power exceeds the budget are greedily repaired —
  the highest-power service steps its DVFS down first, then sheds cores
  — entirely deterministically (no RNG draws), so batched acting stays
  stream-compatible with the scalar path. The repaired actions are what
  the agent learns from.

All hierarchical state (allocator agent, budgets, window accumulators,
provisioning log) rides in :meth:`state_dict` under a ``hier`` subtree,
so ``run_fleet``'s ``vector_run`` checkpoints resume bit-identically
with zero rollout-loop changes. ``name = "twig-hier"`` keeps flat and
hierarchical checkpoints from cross-resuming.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.actions import Allocation
from repro.core.reward import RewardBreakdown
from repro.engine.fleet import FleetTwig
from repro.errors import CheckpointError
from repro.hier.allocator import BudgetAllocator, BudgetConfig
from repro.obs.events import make_event
from repro.sim.environment import StepResult


class HierFleetTwig(FleetTwig):
    """N budget-constrained Twig leaves under one fleet allocator."""

    CKPT_KIND = "twig_hier"

    def __init__(
        self,
        profiles,
        config,
        rng: np.random.Generator,
        num_envs: int,
        budget: Optional[BudgetConfig] = None,
        allocator_rng: Optional[np.random.Generator] = None,
        **kwargs,
    ):
        super().__init__(profiles, config, rng, num_envs, **kwargs)
        self.name = "twig-hier"
        self.budget_config = budget or BudgetConfig()
        self.allocator = BudgetAllocator(
            self.budget_config,
            self.max_power_w,
            allocator_rng if allocator_rng is not None else np.random.default_rng(0),
        )
        #: Per-node watt budgets; wide open until the first assignment.
        self.budgets = np.full(num_envs, self.max_power_w, dtype=np.float64)
        self._tick = 0
        self._win_power = 0.0
        self._win_util = 0.0
        self._win_qos_met = 0
        self._win_qos_total = 0
        self._win_ticks = 0
        self._win_node_viol = np.zeros(num_envs, dtype=np.float64)
        #: Provisioning history (source checkpoint + schedule rewind),
        #: appended by :func:`repro.hier.provision.provision_fleet`.
        self._provision_log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    # lock-step control with periodic reallocation
    # ------------------------------------------------------------------ #
    def update_batch(self, results: Sequence[StepResult]):
        self._accumulate_window(results)
        self._tick += 1
        if self._tick % self.budget_config.period == 0:
            arrays = getattr(results, "arrays", None)
            t = int(arrays["time"][0]) if arrays is not None else results[0].time
            self._reallocate(t)
        return super().update_batch(results)

    def _accumulate_window(self, results: Sequence[StepResult]) -> None:
        arrays = getattr(results, "arrays", None)
        if arrays is not None:
            # Array fast path over the StepBatch matrices. The scalar
            # accumulators are still advanced env-by-env (Python float
            # adds), keeping the window sums bit-identical to the
            # object-path loop below.
            p99 = arrays["p99"]
            util = arrays["utilization"]
            met = np.isfinite(p99) & (p99 <= arrays["qos_target"])
            self._win_qos_total += met.size
            self._win_qos_met += int(met.sum())
            self._win_node_viol += (~met).sum(axis=1).astype(np.float64)
            finite_util = np.where(np.isfinite(util), util, 1.0)
            for v in arrays["power_w"].tolist():
                self._win_power += v
            for v in finite_util.mean(axis=1).tolist():
                self._win_util += v
            self._win_ticks += 1
            return
        for e, result in enumerate(results):
            self._win_power += float(result.socket_power_w)
            utils = []
            for name in self.service_order:
                observation = result.observations[name]
                util = observation.interval.utilization
                utils.append(util if np.isfinite(util) else 1.0)
                met = bool(np.isfinite(observation.p99_ms)) and bool(
                    observation.qos_met
                )
                self._win_qos_total += 1
                if met:
                    self._win_qos_met += 1
                else:
                    self._win_node_viol[e] += 1.0
            self._win_util += float(np.mean(utils))
        self._win_ticks += 1

    def _fleet_state(self) -> np.ndarray:
        ticks = max(self._win_ticks, 1)
        n_levels = len(self.allocator.level_ladder)
        n_tilts = len(self.allocator.tilt_ladder)
        return np.array(
            [
                self._win_util / (ticks * self.num_envs),
                self._win_qos_met / max(self._win_qos_total, 1),
                float((self._win_node_viol > 0).mean()),
                self._win_power / (ticks * self.num_envs * self.max_power_w),
                self.allocator._level_idx / max(n_levels - 1, 1),
                self.allocator._tilt_idx / max(n_tilts - 1, 1),
            ]
        )

    def _window_reward(self) -> float:
        qos = self._win_qos_met / max(self._win_qos_total, 1)
        power = self._win_power / (
            max(self._win_ticks, 1) * self.num_envs * self.max_power_w
        )
        return qos - self.budget_config.energy_weight * power

    def _reallocate(self, t: int) -> None:
        state = self._fleet_state()
        primed = self.allocator.primed
        reward = self._window_reward() if primed else None
        level, tilt = self.allocator.decide(state, reward)
        slack = self._win_node_viol / max(
            self._win_ticks * len(self.service_order), 1
        )
        self.budgets = self.allocator.budgets(slack)
        if self.trace.enabled:
            self.trace.emit(
                make_event(
                    "budget_assign",
                    t,
                    level=float(level),
                    tilt=float(tilt),
                    mean_budget_w=float(self.budgets.mean()),
                    min_budget_w=float(self.budgets.min()),
                    max_budget_w=float(self.budgets.max()),
                    period=int(self.budget_config.period),
                    reward=float(reward) if reward is not None else 0.0,
                )
            )
        self._win_power = 0.0
        self._win_util = 0.0
        self._win_qos_met = 0
        self._win_qos_total = 0
        self._win_ticks = 0
        self._win_node_viol[:] = 0.0

    # ------------------------------------------------------------------ #
    # budget plumbing (FleetTwig hooks)
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
        """Vectorized budget-overshoot penalty over all healthy rows.

        One array pass replaces the per-env dict hook; a subclass that
        overrides :meth:`_shape_rewards` again is handed back to the base
        fleet's per-env fallback.
        """
        if type(self)._shape_rewards is not HierFleetTwig._shape_rewards:
            return super()._shape_reward_rows(
                env_rows, totals, qos_rew, power_rew, violation, results
            )
        if not env_rows.size:
            return totals
        node_power = self._node_power_rows(self._est_power[env_rows])
        overshoot = np.maximum(
            0.0, node_power / np.maximum(self.budgets[env_rows], 1e-9) - 1.0
        )
        over = overshoot > 0.0
        if over.any():
            penalty = self.config.reward.theta * overshoot[over]
            totals[env_rows[over]] -= penalty[:, None]
        return totals

    def _repair_action_rows(
        self,
        env_rows: np.ndarray,
        actions: np.ndarray,
        arrival: np.ndarray,
        results: Sequence[StepResult],
    ) -> np.ndarray:
        """Vectorized budget screen + lock-step greedy repair.

        One :meth:`_power_for` pass screens every acting row; rows whose
        decoded actions overshoot their budget are then repaired in
        lock-step: each round, every still-over-budget row steps its
        highest-power shrinkable service (DVFS down first, else shed a
        core) — the same first-max/first-tie choice and the same
        Equation-2 values as the scalar greedy loop in
        :meth:`_constrain_allocations`, so the repaired actions are
        identical. Deterministic throughout (no RNG draws). A subclass
        that overrides :meth:`_constrain_allocations` again is handed
        back to the base fleet's per-env fallback.
        """
        if type(self)._constrain_allocations is not HierFleetTwig._constrain_allocations:
            return super()._repair_action_rows(env_rows, actions, arrival, results)
        if not env_rows.size:
            return actions
        cores = actions[:, :, 0] + 1
        freqs = actions[:, :, 1].copy()
        arr_rows = arrival[env_rows]
        power = self._power_for(cores, freqs, arr_rows)
        node_power = self._node_power_rows(power)
        budgets = self.budgets[env_rows]
        active = np.nonzero(node_power > budgets)[0]
        while active.size:
            c = cores[active]
            f = freqs[active]
            shrinkable = (f > 0) | (c > 1)
            has = shrinkable.any(axis=1)
            if not has.all():
                # Nothing left to shrink on some rows: they stop here,
                # over budget, exactly as the scalar loop breaks.
                active = active[has]
                if not active.size:
                    break
                c = c[has]
                f = f[has]
                shrinkable = shrinkable[has]
            # First max in service order, like max(key=...) over the list.
            sel = np.argmax(np.where(shrinkable, power[active], -np.inf), axis=1)
            r = np.arange(active.size)
            down = f[r, sel] > 0
            f[r[down], sel[down]] -= 1
            c[r[~down], sel[~down]] -= 1
            cores[active] = c
            freqs[active] = f
            fresh = self._power_for(c, f, arr_rows[active])
            power[active] = fresh
            fresh_node = self._node_power_rows(fresh)
            node_power[active] = fresh_node
            active = active[fresh_node > budgets[active]]
        actions[:, :, 0] = cores - 1
        actions[:, :, 1] = freqs
        return actions

    def _shape_rewards(
        self, env_index: int, breakdowns: Dict[str, RewardBreakdown]
    ) -> Dict[str, RewardBreakdown]:
        budget = float(self.budgets[env_index])
        node_power = sum(self._est_power[env_index].tolist())
        overshoot = max(0.0, node_power / max(budget, 1e-9) - 1.0)
        if overshoot <= 0.0:
            return breakdowns
        penalty = self.config.reward.theta * overshoot
        return {
            name: replace(b, total=b.total - penalty)
            for name, b in breakdowns.items()
        }

    def _constrain_allocations(
        self,
        env_index: int,
        allocations: Dict[str, Allocation],
        result: StepResult,
    ) -> Dict[str, Allocation]:
        budget = float(self.budgets[env_index])
        rates = {
            name: result.observations[name].interval.arrival_rate
            for name in self.service_order
        }

        def node_power(allocs: Dict[str, Allocation]) -> float:
            return sum(
                self._allocation_power(name, allocs[name], rates[name])
                for name in self.service_order
            )

        if node_power(allocations) <= budget:
            return allocations
        repaired = dict(allocations)
        while node_power(repaired) > budget:
            shrinkable = [
                name
                for name in self.service_order
                if repaired[name].freq_index > 0 or repaired[name].num_cores > 1
            ]
            if not shrinkable:
                break
            name = max(
                shrinkable,
                key=lambda n: self._allocation_power(n, repaired[n], rates[n]),
            )
            a = repaired[name]
            if a.freq_index > 0:
                repaired[name] = Allocation(
                    num_cores=a.num_cores,
                    freq_index=a.freq_index - 1,
                    llc_ways=a.llc_ways,
                )
            else:
                repaired[name] = Allocation(
                    num_cores=a.num_cores - 1,
                    freq_index=a.freq_index,
                    llc_ways=a.llc_ways,
                )
        return repaired

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Flat fleet state plus the ``hier`` subtree (allocator etc.)."""
        tree = super().state_dict()
        tree["hier"] = {
            "allocator": self.allocator.state_dict(),
            "budgets": np.asarray(self.budgets, dtype=np.float64).copy(),
            "tick": int(self._tick),
            "window": {
                "power": float(self._win_power),
                "util": float(self._win_util),
                "qos_met": int(self._win_qos_met),
                "qos_total": int(self._win_qos_total),
                "ticks": int(self._win_ticks),
                "node_viol": np.asarray(self._win_node_viol, dtype=np.float64).copy(),
            },
            "provisioned": {
                f"{i:04d}": dict(entry)
                for i, entry in enumerate(self._provision_log)
            },
        }
        return tree

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore fleet + hierarchy state (validates before committing)."""
        try:
            hier = dict(tree["hier"])
            allocator_tree = dict(hier["allocator"])
            budgets = np.asarray(hier["budgets"], dtype=np.float64).reshape(-1)
            tick = int(hier["tick"])
            window = dict(hier["window"])
            win_power = float(window["power"])
            win_util = float(window["util"])
            win_qos_met = int(window["qos_met"])
            win_qos_total = int(window["qos_total"])
            win_ticks = int(window["ticks"])
            node_viol = np.asarray(window["node_viol"], dtype=np.float64).reshape(-1)
            provisioned = dict(hier.get("provisioned", {}))
            provision_log = [
                {
                    "source": str(dict(provisioned[key])["source"]),
                    "restart_epsilon_at": int(
                        dict(provisioned[key])["restart_epsilon_at"]
                    ),
                }
                for key in sorted(provisioned)
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed hierarchical checkpoint (missing/bad 'hier' subtree): {exc}"
            ) from exc
        if budgets.shape[0] != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {budgets.shape[0]} budgets, fleet has {self.num_envs}"
            )
        if node_viol.shape[0] != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {node_viol.shape[0]} violation counters, "
                f"fleet has {self.num_envs}"
            )
        # The two sub-loads are each stage-then-commit; run them before
        # committing the plain fields.
        self.allocator.load_state_dict(allocator_tree)
        super().load_state_dict(tree)
        self.budgets = budgets.copy()
        self._tick = tick
        self._win_power = win_power
        self._win_util = win_util
        self._win_qos_met = win_qos_met
        self._win_qos_total = win_qos_total
        self._win_ticks = win_ticks
        self._win_node_viol = node_viol.copy()
        self._provision_log = provision_log
