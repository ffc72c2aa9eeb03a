"""The vector engine's array install against scalar ``Machine.apply``.

:class:`~repro.engine.vector_env.VectorEnvironment` resolves each
environment's assignment to rows of a bounded placement table and
installs changed environments in one array pass; the wrapped
``Machine`` objects are only written on demand. These tests drive random
valid placements (timeshared cores, LLC ways, repeated placements, a
checkpoint round trip in the middle) through N vector environments and N
scalar ``ColocationEnvironment.step`` calls and require, after every
step, the same interval results, the same ``Machine.state_dict()`` and
the same migration counters. Invalid placements must raise the scalar
step's ``AllocationError`` even when the table is already warm.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.vector_env as vector_env
from repro.engine.vector_env import (
    ENV_SEED_STRIDE,
    VectorEnvironment,
    make_sibling_environment,
)
from repro.errors import AllocationError
from repro.server.machine import CoreAssignment

SERVICES = ["masstree", "xapian", "moses"]
FRACTIONS = {"masstree": 0.4, "xapian": 0.5, "moses": 0.3}
SEED = 13
NUM_ENVS = 3

#: StepBatch (E, S) arrays and the IntervalResult field each mirrors.
_SERVICE_FIELDS = {
    "arrivals": "arrival_rate",
    "throughput": "throughput_rps",
    "p99": "p99_ms",
    "mean_ms": "mean_ms",
    "utilization": "utilization",
    "capacity": "capacity_rps",
    "backlog": "backlog",
    "cores": "cores",
    "frequency_ghz": "frequency_ghz",
    "inflation": "inflation",
    "miss_inflation": "miss_inflation",
    "membw_gbps": "membw_gbps",
    "busy_core_seconds": "busy_core_seconds",
    "instructions": "instructions",
}


def _build(seed=SEED):
    venv = VectorEnvironment.from_services(SERVICES, FRACTIONS, NUM_ENVS, seed)
    oracles = [
        make_sibling_environment(SERVICES, FRACTIONS, seed + e * ENV_SEED_STRIDE)
        for e in range(NUM_ENVS)
    ]
    return venv, oracles


class _Placements:
    """Random valid assignments; about half repeat an earlier one."""

    def __init__(self, venv, seed):
        self.rng = np.random.default_rng(seed)
        self.core_ids = venv.envs[0].socket_core_ids
        self.levels = len(venv.spec.dvfs)
        self.seen = []

    def fresh(self):
        rng = self.rng
        assignment = {}
        for name in SERVICES:
            # Independent draws per service, so cores are often timeshared.
            count = int(rng.integers(1, 9))
            cores = rng.choice(self.core_ids, size=count, replace=False)
            assignment[name] = CoreAssignment(
                cores=tuple(int(c) for c in cores),
                freq_index=int(rng.integers(0, self.levels)),
                llc_ways=int(rng.integers(0, 5)),
            )
        if rng.random() < 0.5:
            # Dict order is part of what Machine.apply sees.
            assignment = dict(reversed(list(assignment.items())))
        self.seen.append(assignment)
        return assignment

    def __call__(self):
        if self.seen and self.rng.random() < 0.5:
            return self.seen[int(self.rng.integers(0, len(self.seen)))]
        return self.fresh()


def _assert_step_matches(batch, results):
    arrays = batch.arrays
    for e, expected in enumerate(results):
        assert int(arrays["time"][e]) == expected.time
        for i, name in enumerate(SERVICES):
            observation = expected.observations[name]
            for key, field in _SERVICE_FIELDS.items():
                assert arrays[key][e, i] == getattr(observation.interval, field), (
                    e, name, key,
                )
        # Socket power sums cores in a different association order.
        for key, value in (
            ("power_w", expected.socket_power_w),
            ("true_power_w", expected.true_power_w),
            ("energy_j", expected.energy_j),
        ):
            assert np.isclose(arrays[key][e], value, rtol=1e-12, atol=0.0), (e, key)


def _assert_machines_match(venv, oracles):
    counts = venv.migration_counts()
    for e, oracle in enumerate(oracles):
        got = venv.envs[e].machine.state_dict()
        want = oracle.machine.state_dict()
        assert np.array_equal(got["freq_index"], want["freq_index"]), e
        assert np.array_equal(got["online"], want["online"]), e
        assert got["services"] == want["services"], e
        # Key order too: it reaches checkpoint bytes.
        assert list(got["migration_counts"].items()) == list(
            want["migration_counts"].items()
        ), e
        assert list(counts[e].items()) == list(oracle.machine.migration_counts.items())


def _step_both(venv, oracles, assignments):
    batch = venv.step(assignments)
    results = [oracle.step(a) for oracle, a in zip(oracles, assignments)]
    _assert_step_matches(batch, results)
    _assert_machines_match(venv, oracles)


class TestArrayInstallMatchesScalar:
    def test_random_placements_with_checkpoint_round_trip(self):
        venv, oracles = _build()
        draw = _Placements(venv, seed=1)
        for _ in range(15):
            _step_both(venv, oracles, [draw() for _ in range(NUM_ENVS)])
        # Resume into a fresh batch mid-run: the restored Machines must
        # become the old placements the next install migrates away from.
        restored, _ = _build()
        restored.load_state_dict(venv.state_dict())
        for _ in range(15):
            _step_both(restored, oracles, [draw() for _ in range(NUM_ENVS)])

    def test_unchanged_assignments_install_nothing(self):
        venv, oracles = _build()
        draw = _Placements(venv, seed=2)
        assignments = [draw.fresh() for _ in range(NUM_ENVS)]
        for _ in range(4):
            _step_both(venv, oracles, assignments)
        assert all(
            sum(counts.values()) == sum(len(a.cores) for a in assignments[e].values())
            for e, counts in enumerate(venv.migration_counts())
        )

    def test_tiny_table_matches_default(self, monkeypatch):
        # A table that must be cleared every few steps installs the same
        # state as one that never fills.
        venv, _ = _build()
        monkeypatch.setattr(vector_env, "PLACEMENT_TABLE_ROWS", 1)
        tiny, _ = _build()
        assert tiny._placements.capacity == NUM_ENVS * len(SERVICES)
        draw = _Placements(venv, seed=3)
        for _ in range(20):
            assignments = [draw() for _ in range(NUM_ENVS)]
            a, b = venv.step(assignments), tiny.step(assignments)
            for key, value in a.arrays.items():
                assert np.array_equal(value, b.arrays[key]), key
        assert venv.migration_counts() == tiny.migration_counts()
        for a, b in zip(venv.env_states(), tiny.env_states()):
            assert a["machine"]["services"] == b["machine"]["services"]
            assert np.array_equal(a["machine"]["freq_index"], b["machine"]["freq_index"])


def _invalid_assignments(valid):
    """(label, assignment) pairs the scalar step rejects."""
    first, second = SERVICES[0], SERVICES[1]
    a = valid[first]
    return [
        ("off-socket core", {**valid, first: CoreAssignment((0,) + a.cores[1:], a.freq_index)}),
        ("repeated core", {**valid, first: CoreAssignment(a.cores + a.cores[:1], a.freq_index)}),
        ("no cores", {**valid, first: CoreAssignment((), a.freq_index)}),
        ("dvfs index", {**valid, first: CoreAssignment(a.cores, 99)}),
        # A _validate error on one service and a socket error on a later
        # one: the socket check runs over every service first.
        (
            "socket error wins",
            {
                **valid,
                first: CoreAssignment(a.cores, 99),
                second: CoreAssignment((1,), 0),
            },
        ),
        ("missing service", {k: v for k, v in valid.items() if k != first}),
        ("extra service", {**valid, "img-dnn": a}),
    ]


class TestInvalidPlacements:
    @pytest.mark.parametrize("case", range(7))
    def test_same_error_at_same_step_with_warm_table(self, case):
        venv, oracles = _build()
        draw = _Placements(venv, seed=4)
        history = [[draw() for _ in range(NUM_ENVS)] for _ in range(6)]
        for assignments in history:
            _step_both(venv, oracles, assignments)
        # Every service placement of env 1's bad assignment except the
        # broken one is already in the table.
        label, bad = _invalid_assignments(history[-1][1])[case]
        assignments = [history[-1][0], bad, history[-1][2]]
        with pytest.raises(AllocationError) as vector_error:
            venv.step(assignments)
        oracles[0].step(assignments[0])
        with pytest.raises(AllocationError) as scalar_error:
            oracles[1].step(bad)
        assert str(vector_error.value) == str(scalar_error.value), label
        # Nothing was installed or advanced, and the bad placement never
        # entered the table: the next step rejects it again.
        assert venv.time == oracles[2].time
        with pytest.raises(AllocationError):
            venv.step(assignments)
