"""TwigNodeAgent: wire codecs, serving RPCs, policy updates, faults."""

import numpy as np
import pytest

from repro.core.config import TwigConfig
from repro.core.twig import Twig
from repro.ctrl.node_agent import (
    TwigNodeAgent,
    assignments_to_wire,
    step_result_to_wire,
    wire_to_assignments,
    wire_to_step_result,
)
from repro.ctrl.rpc import (
    INVALID_PARAMS,
    SERVER_ERROR,
    RpcClient,
    RpcInvalidParams,
    RpcRemoteError,
)
from repro.errors import ControlPlaneError
from repro.experiments.common import make_environment
from repro.services.profiles import get_profile
from repro.sim.faults import Fault, FaultInjector

SERVICES = ["masstree", "xapian"]


def make_env(seed=11):
    return make_environment(SERVICES, [0.5, 0.4], seed=seed)


def initial_assignments():
    """All-cores-at-max-DVFS starting assignments (what Twig starts from)."""
    twig = Twig(
        [get_profile(s) for s in SERVICES],
        TwigConfig.fast(),
        np.random.default_rng(0),
    )
    return twig.initial_assignments()


@pytest.fixture()
def agent():
    with TwigNodeAgent("n0", SERVICES, seed=3) as node:
        yield node


@pytest.fixture()
def client(agent):
    with RpcClient(agent.address, timeout_s=10.0) as cli:
        yield cli


# --------------------------------------------------------------------- #
# wire codecs
# --------------------------------------------------------------------- #
def test_step_result_round_trips_through_wire():
    env = make_env()
    result = env.step(initial_assignments())
    decoded = wire_to_step_result(step_result_to_wire(result))
    assert decoded.time == result.time
    assert decoded.socket_power_w == result.socket_power_w
    assert set(decoded.observations) == set(result.observations)
    for name, obs in result.observations.items():
        assert decoded.observations[name].interval == obs.interval
        assert decoded.observations[name].pmcs == obs.pmcs


def test_step_result_wire_preserves_nan():
    env = make_env()
    result = env.step(initial_assignments())
    injector = FaultInjector([Fault("pmc_dropout", "masstree", start=1)])
    observations, applied = injector.apply(result.time, result.observations, {})
    assert applied
    import dataclasses

    faulted = dataclasses.replace(result, observations=observations)
    decoded = wire_to_step_result(step_result_to_wire(faulted))
    assert all(
        np.isnan(v) for v in decoded.observations["masstree"].pmcs.values()
    )


def test_wire_to_step_result_rejects_malformed():
    with pytest.raises(RpcInvalidParams):
        wire_to_step_result({"time": 1})
    env = make_env()
    wire = step_result_to_wire(env.step(initial_assignments()))
    wire["observations"]["masstree"]["interval"]["bogus_field"] = 1.0
    with pytest.raises(RpcInvalidParams):
        wire_to_step_result(wire)


def test_assignments_round_trip():
    env = make_env()
    assignments = initial_assignments()
    decoded = wire_to_assignments(assignments_to_wire(assignments))
    assert decoded == assignments
    with pytest.raises(RpcInvalidParams):
        wire_to_assignments({"svc": {"cores": [1]}})  # missing freq_index


# --------------------------------------------------------------------- #
# serving RPCs
# --------------------------------------------------------------------- #
def test_describe_and_allocate(client):
    described = client.call("describe")
    assert described["node_id"] == "n0"
    assert described["services"] == SERVICES
    assert described["policy_version"] == 0
    allocation = client.call("allocate")
    assignments = wire_to_assignments(allocation["assignments"])
    assert set(assignments) == set(SERVICES)
    assert all(a.cores for a in assignments.values())


def test_report_interval_drives_twig_and_returns_assignments(agent, client):
    env = make_env()
    assignments = initial_assignments()
    for _ in range(3):
        result = env.step(assignments)
        reply = client.call(
            "report_interval", {"result": step_result_to_wire(result)}
        )
        assert reply["time"] == result.time
        assignments = wire_to_assignments(reply["assignments"])
        assert set(assignments) == set(SERVICES)
    # The serving path reflects the last update.
    allocation = client.call("allocate")
    assert wire_to_assignments(allocation["assignments"]) == assignments
    assert client.call("describe")["last_interval"] == result.time


def test_report_interval_requires_result_param(client):
    with pytest.raises(RpcRemoteError) as err:
        client.call("report_interval")
    assert err.value.code == INVALID_PARAMS


def test_faulted_telemetry_holds_allocation_over_the_wire(agent, client):
    # NaN telemetry from a faulted service must survive the wire and take
    # Twig's hold-last-allocation path, not corrupt the policy.
    import dataclasses

    env = make_env()
    result = env.step(initial_assignments())
    before = wire_to_assignments(client.call("allocate")["assignments"])
    injector = FaultInjector([Fault("pmc_dropout", "masstree", start=1,
                                    duration=10)])
    observations, applied = injector.apply(result.time, result.observations, {})
    assert applied
    faulted = dataclasses.replace(result, observations=observations)
    reply = client.call("report_interval", {"result": step_result_to_wire(faulted)})
    held = wire_to_assignments(reply["assignments"])
    assert held == before  # degraded: last known-good allocation held
    assert not agent.twig._has_prev[0]  # transition chain broken


# --------------------------------------------------------------------- #
# update_policy
# --------------------------------------------------------------------- #
def _train_checkpoint(tmp_path, steps=3):
    """A tiny trained Twig checkpoint (PR-5-era save format)."""
    twig = Twig(
        [get_profile(s) for s in SERVICES],
        TwigConfig.fast(),
        np.random.default_rng(123),
    )
    env = make_env(seed=29)
    assignments = twig.initial_assignments()
    for _ in range(steps):
        assignments = twig.update(env.step(assignments))
    path = tmp_path / "policy.npz"
    twig.save(path)
    return path


def test_update_policy_installs_checkpoint(agent, client, tmp_path):
    path = _train_checkpoint(tmp_path)
    reply = client.call("update_policy", {"path": str(path), "version": 1})
    assert reply == {"node_id": "n0", "policy_version": 1}
    assert agent.policy_version == 1
    assert client.call("describe")["policy_version"] == 1


def test_update_policy_rejects_non_advancing_version(agent, client, tmp_path):
    path = _train_checkpoint(tmp_path)
    client.call("update_policy", {"path": str(path), "version": 2})
    for stale in (0, 1, 2):
        with pytest.raises(RpcRemoteError) as err:
            client.call("update_policy", {"path": str(path), "version": stale})
        assert err.value.code == SERVER_ERROR
    assert agent.policy_version == 2


def test_update_policy_refuses_torn_checkpoint(agent, client, tmp_path):
    path = _train_checkpoint(tmp_path)
    torn = tmp_path / "torn.npz"
    data = path.read_bytes()
    torn.write_bytes(data[: len(data) // 2])
    before_params = [p.value.copy() for p in agent.twig.agent.online.parameters()]
    with pytest.raises(RpcRemoteError) as err:
        client.call("update_policy", {"path": str(torn), "version": 5})
    assert err.value.code == SERVER_ERROR
    # The staged load refused before mutating anything: version and
    # serving policy are untouched.
    assert agent.policy_version == 0
    after_params = [p.value for p in agent.twig.agent.online.parameters()]
    for before, after in zip(before_params, after_params):
        np.testing.assert_array_equal(before, after)


def test_update_policy_param_validation(client):
    with pytest.raises(RpcRemoteError) as err:
        client.call("update_policy", {"version": 1})
    assert err.value.code == INVALID_PARAMS
    with pytest.raises(RpcRemoteError) as err:
        client.call("update_policy", {"path": "x.npz"})
    assert err.value.code == INVALID_PARAMS


# --------------------------------------------------------------------- #
# lifecycle plumbing
# --------------------------------------------------------------------- #
def test_heartbeat_before_join_raises(agent):
    with pytest.raises(ControlPlaneError):
        agent.heartbeat_once()


def test_shutdown_rpc_closes_the_server(agent):
    with RpcClient(agent.address, timeout_s=10.0) as cli:
        assert cli.call("shutdown") == {"ok": True}
    import time

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            with RpcClient(agent.address, timeout_s=0.2) as probe:
                probe.call("ping", timeout_s=0.2)
        except Exception:
            return  # server is down
        time.sleep(0.05)
    pytest.fail("node agent server still serving after shutdown RPC")
