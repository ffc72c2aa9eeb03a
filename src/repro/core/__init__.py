"""Twig itself: the QoS-aware, energy-minimising task manager.

- :mod:`repro.core.actions` — the per-service action space (core count x
  DVFS index) and its encoding as BDQ branches.
- :mod:`repro.core.reward` — Equation 1: QoS reward + theta x power reward
  when the target is met, a capped polynomial penalty when violated.
- :mod:`repro.core.power_model` — Equation 2: the first-order per-service
  power estimate fitted by random grid search with 5-fold CV, used only
  inside the reward.
- :mod:`repro.core.mapper` — core placement with cache-locality ordering,
  DVFS programming, and resource arbitration for conflicting requests.
- :mod:`repro.core.twig` — the runtime (Figure 3): system monitor +
  learning agent + mapper, in Twig-S (single service) and Twig-C
  (colocated) variants; the single-node front end of the one control
  loop, :class:`repro.engine.fleet.FleetTwig`.
"""

from repro.core.actions import ActionSpace, Allocation
from repro.core.config import TwigConfig
from repro.core.mapper import Mapper
from repro.core.power_model import ServicePowerModel, fit_power_model
from repro.core.reward import RewardParams, compute_reward

__all__ = [
    "ActionSpace",
    "Allocation",
    "Mapper",
    "RewardParams",
    "ServicePowerModel",
    "Twig",
    "TwigConfig",
    "compute_reward",
    "fit_power_model",
]


def __getattr__(name: str):
    # Twig is the single-node front end of repro.engine.fleet.FleetTwig,
    # which imports from this package, so it loads on first use.
    if name == "Twig":
        from repro.core.twig import Twig

        return Twig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
