"""The Twig runtime (Figure 3): system monitor + learning agent + mapper.

One ``Twig`` instance manages K colocated LC services with a single
multi-agent BDQ (Twig-S is the K = 1 special case, Twig-C the K >= 2
case). Each control interval it:

1. gathers per-service PMCs through the system monitor (eta-smoothed,
   max-normalised),
2. computes the Equation-1 reward per service from measured tail latency
   and the Equation-2 per-service power estimate,
3. feeds the (state, action, reward, next-state) transition to the deep
   Q-learning agent,
4. selects the next per-service (core count, DVFS) actions, and
5. resolves them to concrete core pins through the mapper.

That loop has one implementation, :class:`repro.engine.fleet.FleetTwig`;
``Twig`` is its single-node (N = 1) front end with the
:class:`~repro.core.manager.TaskManager` interface.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import checkpoint_kind
from repro.core.config import TwigConfig
from repro.core.manager import TaskManager
from repro.core.power_model import ServicePowerModel
from repro.engine.fleet import FleetTwig
from repro.errors import ConfigurationError
from repro.obs.sink import TraceSink
from repro.obs.timing import TimingRegistry
from repro.pmc.monitor import MonitorBank
from repro.rl.agent import BDQAgent
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.environment import StepResult


class Twig(FleetTwig, TaskManager):
    """QoS-aware, energy-minimising task manager for K LC services.

    A one-environment :class:`FleetTwig`: trace events carry no
    environment index, and checkpoints are of kind ``twig``.
    """

    #: Checkpoint kind tag for full manager state (see :mod:`repro.ckpt`).
    CKPT_KIND: ClassVar[str] = "twig"

    def __init__(
        self,
        profiles: Sequence[ServiceProfile],
        config: TwigConfig,
        rng: np.random.Generator,
        spec: Optional[ServerSpec] = None,
        power_models: Optional[Mapping[str, ServicePowerModel]] = None,
        qos_targets: Optional[Mapping[str, float]] = None,
        trace: Optional[TraceSink] = None,
        timings: Optional[TimingRegistry] = None,
    ):
        if not profiles:
            raise ConfigurationError("Twig needs at least one service profile")
        super().__init__(
            profiles, config, rng, 1, spec=spec, power_models=power_models,
            qos_targets=qos_targets, trace=trace, timings=timings,
        )
        self.name = "twig-s" if len(profiles) == 1 else "twig-c"
        self.index_tag = None

    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        """Start like the paper's experiments: all cores at max DVFS."""
        return super().initial_assignments()[0]

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        return self.update_batch((result,))[0]

    @property
    def monitor(self) -> MonitorBank:
        """The system monitor: one bank row per managed service."""
        return self.monitor_bank

    @property
    def last_rewards(self) -> Dict[str, float]:
        """Equation-1 reward per service of the last acted-on interval."""
        if not self._has_reward[0]:
            return {}
        return dict(zip(self.service_order, self._reward_totals[0].tolist()))

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`.

        Also accepts bare agent checkpoints and legacy weight-only
        ``.npz`` files (both restore the agent only; the legacy path warns
        that training state is unrecoverable). The architecture (services,
        branch sizes, hidden widths) must match.
        """
        kind = checkpoint_kind(path)
        if kind is None or kind == BDQAgent.CKPT_KIND:
            self.agent.load(path)
            return
        super().load(path)
