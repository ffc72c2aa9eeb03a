"""Array-state FleetTwig vs the frozen dict-state reference.

The array control plane (:class:`repro.engine.fleet.FleetTwig` holding
``(num_envs, num_services)`` matrices plus one
:class:`~repro.pmc.monitor.MonitorBank`) must be *bit-identical* to the
original per-env-dict implementation, preserved verbatim as
:class:`repro.engine.fleet_reference.DictFleetTwig`: same trajectories,
same RNG streams, same agent state. These tests are the pin.
"""

import numpy as np
import pytest

from repro.core.actions import Allocation
from repro.core.config import TwigConfig
from repro.core.reward import RewardBreakdown
from repro.engine.fleet import FleetTwig
from repro.engine.fleet_reference import DictFleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.hier import BudgetConfig, HierFleetTwig
from repro.pmc.counters import CounterCatalogue
from repro.pmc.monitor import MonitorBank, SystemMonitor
from repro.services.profiles import get_profile

SERVICES = ["masstree", "xapian"]
FRACTIONS = {"masstree": 0.4, "xapian": 0.5}
SEED = 7


def _twig_config():
    return TwigConfig.fast(epsilon_mid_steps=15, epsilon_final_steps=30)


def _build(cls, num_envs, seed=SEED, **kwargs):
    venv = VectorEnvironment.from_services(SERVICES, FRACTIONS, num_envs, seed)
    manager = cls(
        [get_profile(s) for s in SERVICES],
        _twig_config(),
        np.random.default_rng(seed + 1),
        num_envs=num_envs,
        **kwargs,
    )
    return manager, venv


def _assert_tree_equal(a, b, path="root"):
    if isinstance(a, dict):
        assert isinstance(b, dict), path
        assert set(a) == set(b), path
        for key in a:
            _assert_tree_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_tree_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def _assert_traces_equal(a, b):
    assert len(a) == len(b)
    for e, (ta, tb) in enumerate(zip(a, b)):
        assert ta.power_w == tb.power_w, e
        assert ta.true_power_w == tb.true_power_w, e
        assert dict(ta.migrations) == dict(tb.migrations), e
        for name in SERVICES:
            sa, sb = ta.services[name], tb.services[name]
            assert sa.p99_ms == sb.p99_ms, (e, name)
            assert sa.arrival_rps == sb.arrival_rps, (e, name)
            assert sa.cores == sb.cores, (e, name)
            assert sa.frequency_ghz == sb.frequency_ghz, (e, name)


def _assert_managers_equivalent(array_mgr, dict_mgr):
    """Array manager state == dict manager state, field by field."""
    # Identical RNG streams: exact bit-generator state, not closeness.
    assert (
        array_mgr._rng.bit_generator.state == dict_mgr._rng.bit_generator.state
    )
    assert (
        array_mgr.agent._rng.bit_generator.state
        == dict_mgr.agent._rng.bit_generator.state
    )
    # Same learned state (network weights, replay, schedule counters).
    _assert_tree_equal(array_mgr.agent.state_dict(), dict_mgr.agent.state_dict())
    # The array rows hold exactly the reference's per-env dict entries.
    for e in range(array_mgr.num_envs):
        for i, name in enumerate(SERVICES):
            allocation = dict_mgr._last_allocations[e][name]
            assert (
                array_mgr._alloc_cores[e, i],
                array_mgr._alloc_freq[e, i],
                array_mgr._alloc_ways[e, i],
            ) == (allocation.num_cores, allocation.freq_index, allocation.llc_ways)
            assert array_mgr._est_power[e, i] == dict_mgr._last_estimated_power[e][name]
        rewards = dict_mgr.last_rewards[e]
        assert array_mgr._has_reward[e] == bool(rewards)
        if rewards:
            assert array_mgr._reward_totals[e].tolist() == [rewards[n] for n in SERVICES]
    # MonitorBank rows == per-env SystemMonitor smoothed states.
    states = array_mgr.monitor_bank.states()
    k = len(SERVICES)
    for e, monitor in enumerate(dict_mgr.monitors):
        for i, name in enumerate(SERVICES):
            assert np.array_equal(states[e * k + i], monitor.state(name)), (e, name)


class TestArrayDictEquivalence:
    @pytest.mark.parametrize(
        "num_envs,steps", [(1, 12), (4, 10), (64, 4)]
    )
    def test_bit_identical_trajectories(self, num_envs, steps):
        array_mgr, array_venv = _build(FleetTwig, num_envs)
        dict_mgr, dict_venv = _build(DictFleetTwig, num_envs)
        array_traces = run_fleet(array_mgr, array_venv, steps)
        dict_traces = run_fleet(dict_mgr, dict_venv, steps)
        _assert_traces_equal(array_traces, dict_traces)
        _assert_managers_equivalent(array_mgr, dict_mgr)
        # The environments saw identical action streams.
        _assert_tree_equal(array_venv.state_dict(), dict_venv.state_dict())


class TestZeroRowTick:
    """A tick that stores no transition does not advance the agent."""

    @staticmethod
    def _snapshot(agent):
        return (
            agent.step_count,
            agent.epsilon(),
            agent.beta_schedule(agent.step_count),
            [p.value.copy() for p in agent.target.parameters()],
        )

    @staticmethod
    def _assert_unchanged(agent, before):
        step_count, epsilon, beta, target = before
        assert agent.step_count == step_count
        assert agent.epsilon() == epsilon
        assert agent.beta_schedule(agent.step_count) == beta
        for value, param in zip(target, agent.target.parameters()):
            assert np.array_equal(value, param.value)

    @pytest.mark.parametrize("num_envs", [1, 4])
    def test_no_transitions_no_tick(self, num_envs):
        manager, venv = _build(FleetTwig, num_envs)
        agent = manager.agent
        # Sync the target on every tick and make the online net differ,
        # so a spurious tick would show up as a changed target network.
        agent.config.target_update_every = 1
        agent.online.parameters()[0].value += 1.0
        before = self._snapshot(agent)
        dim = agent.config.state_dim
        branches = agent.online.total_branches
        agent.observe_rows(
            np.zeros(0, dtype=np.int64), np.zeros((0, dim)), np.zeros((0, branches)),
            np.zeros((0, agent.num_agents)), np.zeros((0, dim)),
        )
        self._assert_unchanged(agent, before)
        # The first control tick has no previous state anywhere.
        assignments = manager.update_batch(venv.step(manager.initial_assignments()))
        self._assert_unchanged(agent, before)
        manager.update_batch(venv.step(assignments))
        assert agent.step_count == 1


class TestHookFallback:
    def test_dict_hook_overrides_still_work(self):
        # Subclasses written against the original per-env dict hooks must
        # be detected and served through per-env calls — same trajectory
        # from the array manager and the reference.
        def make_subclass(base):
            class Shaped(base):
                def _shape_rewards(self, env_index, breakdowns):
                    return {
                        name: RewardBreakdown(
                            total=b.total * 0.5,
                            qos_rew=b.qos_rew,
                            power_rew=b.power_rew,
                            violation=b.violation,
                        )
                        for name, b in breakdowns.items()
                    }

                def _constrain_allocations(self, env_index, allocations, result):
                    changed = dict(allocations)
                    for name, a in allocations.items():
                        if a.num_cores > 14:
                            changed[name] = Allocation(
                                num_cores=14,
                                freq_index=a.freq_index,
                                llc_ways=a.llc_ways,
                            )
                    return changed

            return Shaped

        array_mgr, array_venv = _build(make_subclass(FleetTwig), 3)
        dict_mgr, dict_venv = _build(make_subclass(DictFleetTwig), 3)
        array_traces = run_fleet(array_mgr, array_venv, 10)
        dict_traces = run_fleet(dict_mgr, dict_venv, 10)
        _assert_traces_equal(array_traces, dict_traces)
        assert (
            array_mgr.agent._rng.bit_generator.state
            == dict_mgr.agent._rng.bit_generator.state
        )
        # The constraint actually fired somewhere, or the test is vacuous.
        cores = [
            c
            for t in array_traces
            for name in SERVICES
            for c in t.services[name].cores
        ]
        assert max(cores) <= 14


class TestHierFallback:
    def test_hier_array_repair_matches_dict_hooks(self):
        # HierFleetTwig's vectorized budget repair/shaping vs a subclass
        # that re-overrides the dict hooks (forcing the per-env path).
        class DictPath(HierFleetTwig):
            def _shape_rewards(self, env_index, breakdowns):
                return HierFleetTwig._shape_rewards(self, env_index, breakdowns)

            def _constrain_allocations(self, env_index, allocations, result):
                return HierFleetTwig._constrain_allocations(
                    self, env_index, allocations, result
                )

        results = {}
        for cls in (HierFleetTwig, DictPath):
            manager, venv = _build(
                cls,
                4,
                budget=BudgetConfig(period=50),
                allocator_rng=np.random.default_rng(SEED + 2),
            )
            # Tight budgets with a long period: the greedy repair loop and
            # overshoot penalty stay active for the whole run.
            manager.budgets[:] = 60.0
            traces = run_fleet(manager, venv, 8)
            results[cls.__name__] = (traces, manager)
        _assert_traces_equal(results["HierFleetTwig"][0], results["DictPath"][0])
        a, b = results["HierFleetTwig"][1], results["DictPath"][1]
        assert np.array_equal(a.budgets, b.budgets)
        assert (
            a.agent._rng.bit_generator.state == b.agent._rng.bit_generator.state
        )
        _assert_tree_equal(a.agent.state_dict(), b.agent.state_dict())


class TestMonitorBank:
    def _max_values(self):
        from repro.server.spec import ServerSpec

        return CounterCatalogue(ServerSpec()).max_values()

    def _random_readings(self, rng, max_values, counters):
        return np.array([rng.random(len(counters)) * 2.0 for _ in range(1)])[0]

    def test_rows_match_scalar_monitors(self):
        max_values = self._max_values()
        rows = 6
        bank = MonitorBank(max_values, rows, eta=4)
        monitors = [SystemMonitor(max_values, eta=4) for _ in range(rows)]
        counters = bank.counters
        rng = np.random.default_rng(3)
        for t in range(9):
            raw = rng.random((rows, len(counters))) * 1.5
            if t in (3, 6):  # degrade some rows with non-finite readings
                raw[1, 0] = np.nan
                raw[4, 2] = np.inf
            got = bank.observe_rows(raw)
            for r in range(rows):
                readings = dict(zip(counters, raw[r]))
                want = monitors[r].observe("svc", readings)
                assert np.array_equal(got[r], want), (t, r)
                assert bank.degraded[r] == ("svc" in monitors[r].degraded), (t, r)

    def test_state_dict_round_trip(self):
        max_values = self._max_values()
        bank = MonitorBank(max_values, 3, eta=5)
        rng = np.random.default_rng(11)
        for _ in range(4):
            bank.observe_rows(rng.random((3, len(bank.counters))))
        snapshot = bank.state_dict()
        probe = rng.random((3, len(bank.counters)))
        after = bank.observe_rows(probe.copy())

        fresh = MonitorBank(max_values, 3, eta=5)
        fresh.load_state_dict(snapshot)
        assert np.array_equal(fresh.observe_rows(probe.copy()), after)

    def test_load_rejects_bad_shapes(self):
        max_values = self._max_values()
        bank = MonitorBank(max_values, 3, eta=5)
        good = bank.state_dict()
        with pytest.raises(CheckpointError):
            bank.load_state_dict({**good, "history": good["history"][:2]})
        with pytest.raises(CheckpointError):
            bank.load_state_dict({**good, "counts": good["counts"] + 9})
        with pytest.raises(CheckpointError):
            bank.load_state_dict({"history": good["history"]})

    def test_constructor_validation(self):
        max_values = self._max_values()
        with pytest.raises(ConfigurationError):
            MonitorBank(max_values, 0)
        with pytest.raises(ConfigurationError):
            MonitorBank(max_values, 2, eta=0)
        with pytest.raises(ConfigurationError):
            MonitorBank({}, 2)


class TestLegacyCheckpoint:
    def test_legacy_tree_is_refused(self):
        # The per-env-dict layout (monitors/envs subtrees, as the dict
        # reference writes it) is not a fleet checkpoint: it is refused
        # whole and the manager is left untouched.
        dict_mgr, dict_venv = _build(DictFleetTwig, 2)
        run_fleet(dict_mgr, dict_venv, 6)
        legacy_tree = dict_mgr.state_dict()
        assert "monitors" in legacy_tree and "envs" in legacy_tree

        array_mgr, array_venv = _build(FleetTwig, 2)
        run_fleet(array_mgr, array_venv, 3)
        before = array_mgr.state_dict()
        with pytest.raises(CheckpointError):
            array_mgr.load_state_dict(legacy_tree)
        _assert_tree_equal(array_mgr.state_dict(), before)

    def test_bad_monitor_bank_never_half_loads(self):
        manager, venv = _build(FleetTwig, 2)
        run_fleet(manager, venv, 4)
        tree = manager.state_dict()
        before = manager.state_dict()
        tree["agent"]["counters"]["step_count"] = 999
        tree["monitor_bank"]["counts"] = tree["monitor_bank"]["counts"] + 99
        with pytest.raises(CheckpointError):
            manager.load_state_dict(tree)
        _assert_tree_equal(manager.state_dict(), before)

    def test_rejects_mismatched_env_count(self):
        first_mgr, first_venv = _build(FleetTwig, 2)
        run_fleet(first_mgr, first_venv, 4)
        array_mgr, _ = _build(FleetTwig, 3)
        with pytest.raises(CheckpointError):
            array_mgr.load_state_dict(first_mgr.state_dict())

    def test_array_round_trip(self):
        # Array-format save/load onto a fresh manager: identical futures.
        num_envs = 3
        first_mgr, first_venv = _build(FleetTwig, num_envs)
        run_fleet(first_mgr, first_venv, 8)
        tree = first_mgr.state_dict()
        env_tree = first_venv.state_dict()

        second_mgr, second_venv = _build(FleetTwig, num_envs)
        second_mgr.load_state_dict(tree)
        second_venv.load_state_dict(env_tree)
        a = run_fleet(first_mgr, first_venv, 5)
        b = run_fleet(second_mgr, second_venv, 5)
        _assert_traces_equal(a, b)


def test_uniform_replay_fleet_trains():
    venv = VectorEnvironment.from_services(SERVICES, FRACTIONS, 3, SEED)
    manager = FleetTwig(
        [get_profile(s) for s in SERVICES],
        _twig_config().scaled(use_prioritized_replay=False),
        np.random.default_rng(SEED + 1),
        num_envs=3,
    )
    run_fleet(manager, venv, 30)
    assert manager.agent.train_count > 0
    assert manager.agent.state_dict()["buffer_kind"] == "uniform"
