"""Row-batched stores into the striped replay buffer.

``StripedPrioritizedReplayBuffer.add_rows`` must leave the buffer in the
exact state the same rows added one :meth:`add` at a time would: field
storage, ring cursors and sizes, every sum-tree node (leaves and the
delta-adjusted internal sums, hence the total), and ``max_priority``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.rl.replay import ReplayBuffer
from repro.rl.striped import StripedPrioritizedReplayBuffer
from repro.rl.sum_tree import SumTree


def _rows(rng, count):
    return {
        "state": rng.normal(size=(count, 5)),
        "actions": rng.integers(0, 9, size=(count, 4)).astype(float),
        "rewards": rng.normal(size=(count, 2)),
        "next_state": rng.normal(size=(count, 5)),
        "done": np.zeros(count),
    }


def _assert_same(a, b):
    assert np.array_equal(a._cursors, b._cursors)
    assert np.array_equal(a._sizes, b._sizes)
    assert a._max_priority == b._max_priority
    assert np.array_equal(a._tree._tree, b._tree._tree)
    assert a._tree.total == b._tree.total
    assert set(a._storage) == set(b._storage)
    for key, store in a._storage.items():
        assert np.array_equal(store, b._storage[key]), key


@pytest.mark.parametrize("num_envs,stripe", [(4, 3), (7, 5), (16, 8)])
def test_add_rows_matches_sequential_add(num_envs, stripe):
    rng = np.random.default_rng(num_envs * 100 + stripe)
    batched = StripedPrioritizedReplayBuffer(num_envs, stripe, np.random.default_rng(0))
    sequential = StripedPrioritizedReplayBuffer(num_envs, stripe, np.random.default_rng(0))
    for tick in range(40):
        # Mostly one row per env (the fleet's shape); sometimes a stripe
        # named several times, up to lapping its own ring in one call.
        if tick % 5 == 4:
            env_rows = rng.integers(0, num_envs, size=int(rng.integers(1, 3 * stripe)))
        else:
            env_rows = np.flatnonzero(rng.random(num_envs) < 0.8)
        fields = _rows(rng, env_rows.size)
        slots = batched.add_rows(env_rows, fields)
        expected = [
            sequential.add(int(e), {key: value[r] for key, value in fields.items()})
            for r, e in enumerate(env_rows)
        ]
        assert slots.tolist() == expected
        _assert_same(batched, sequential)
        if len(sequential) >= 4:
            # Priority updates move max_priority, which the next adds use.
            # Both buffers sample from same-seeded generators.
            a, b = batched.sample(4, beta=0.5), sequential.sample(4, beta=0.5)
            assert np.array_equal(a["indices"], b["indices"])
            assert np.array_equal(a["weights"], b["weights"])
            td = rng.normal(size=4) * (1 + tick)
            for buf in (batched, sequential):
                buf.update_priorities(a["indices"], td)


def test_add_rows_validation():
    buf = StripedPrioritizedReplayBuffer(2, 4, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    assert buf.add_rows(np.zeros(0, dtype=np.int64), _rows(rng, 0)).size == 0
    assert len(buf) == 0
    with pytest.raises(ShapeError):
        buf.add_rows(np.array([0, 2]), _rows(rng, 2))
    with pytest.raises(ShapeError):
        buf.add_rows(np.array([0, 1]), _rows(rng, 3))
    buf.add_rows(np.array([0, 1]), _rows(rng, 2))
    bad = _rows(rng, 1)
    bad["state"] = bad["state"][:, :3]
    with pytest.raises(ShapeError):
        buf.add_rows(np.array([0]), bad)
    missing = _rows(rng, 1)
    del missing["done"]
    with pytest.raises(ShapeError):
        buf.add_rows(np.array([0]), missing)
    assert len(buf) == 2


def test_sum_tree_update_sequential_matches_update_loop():
    rng = np.random.default_rng(2)
    for capacity in (1, 5, 64, 300):
        loop, batched = SumTree(capacity), SumTree(capacity)
        for _ in range(6):
            leaves = rng.permutation(capacity)[: int(rng.integers(0, capacity + 1))]
            priorities = rng.random(leaves.size) ** 0.6 * 3.0
            for leaf, priority in zip(leaves, priorities):
                loop.update(int(leaf), float(priority))
            batched.update_sequential(leaves, priorities)
            assert np.array_equal(loop._tree, batched._tree)
    with pytest.raises(ConfigurationError):
        SumTree(4).update_sequential(np.array([1, 1]), np.array([1.0, 2.0]))


def test_sample_uniform_one_stripe_matches_uniform_buffer():
    rows = _rows(np.random.default_rng(4), 9)
    striped = StripedPrioritizedReplayBuffer(1, 6, np.random.default_rng(8))
    plain = ReplayBuffer(6, np.random.default_rng(8))
    striped.add_rows(np.zeros(9, dtype=np.int64), rows)
    for r in range(9):
        plain.add({key: value[r] for key, value in rows.items()})
    got, want = striped.sample_uniform(32), plain.sample(32)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def test_sample_uniform_maps_ranks_to_occupied_slots():
    buf = StripedPrioritizedReplayBuffer(3, 4, np.random.default_rng(2))
    with pytest.raises(ConfigurationError):
        buf.sample_uniform(4)
    # Stripe sizes 2, 0, 3: ranks 0-1 are stripe 0, ranks 2-4 stripe 2.
    env_rows = np.array([0, 2, 0, 2, 2])
    buf.add_rows(env_rows, _rows(np.random.default_rng(5), 5))
    batch = buf.sample_uniform(400)
    assert set(batch["indices"].tolist()) == {0, 1, 8, 9, 10}
    for key, store in buf._storage.items():
        assert np.array_equal(batch[key], store[batch["indices"]]), key
