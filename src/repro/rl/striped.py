"""Striped prioritised replay: N per-environment stripes, ONE sum tree.

The vectorized engine (``repro.engine``) feeds one shared agent from N
environments. Giving each environment its own
:class:`~repro.rl.prioritized.PrioritizedReplayBuffer` preserves per-env
recency (each stripe is its own ring) but makes every train step pay N
small ``sample``/``update_priorities`` calls — at fleet scale the tiny
tree walks cost more than the gradient math.

This buffer keeps the per-environment ring semantics while folding all
stripes into one :class:`~repro.rl.sum_tree.SumTree`: environment ``e``
owns the contiguous leaf range ``[e * stripe_capacity, (e + 1) *
stripe_capacity)`` and overwrites its own oldest transitions, but
sampling and priority updates are single batched tree operations over
the whole fleet. Sampling is globally proportional — exactly the
distribution one big PER buffer over the union of transitions would use,
so importance-sampling weights normalise over the whole minibatch just
like the scalar agent's.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.rl.sum_tree import SumTree


class StripedPrioritizedReplayBuffer:
    """Proportional PER over ``num_envs`` per-environment ring stripes.

    Fields are declared lazily from the first transition added (same
    contract as :class:`~repro.rl.replay.ReplayBuffer`); every later
    transition must carry the same fields with the same shapes.
    """

    def __init__(
        self,
        num_envs: int,
        stripe_capacity: int,
        rng: np.random.Generator,
        alpha: float = 0.6,
        eps: float = 1e-4,
    ):
        if num_envs <= 0:
            raise ConfigurationError(f"num_envs must be positive, got {num_envs}")
        if stripe_capacity <= 0:
            raise ConfigurationError(
                f"stripe_capacity must be positive, got {stripe_capacity}"
            )
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        self.num_envs = int(num_envs)
        self.stripe_capacity = int(stripe_capacity)
        self.capacity = self.num_envs * self.stripe_capacity
        self._rng = rng
        self.alpha = alpha
        self.eps = eps
        self._tree = SumTree(self.capacity)
        self._max_priority = 1.0
        self._storage: Optional[Dict[str, np.ndarray]] = None
        self._sizes = np.zeros(self.num_envs, dtype=np.int64)
        self._cursors = np.zeros(self.num_envs, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._sizes.sum())

    def stripe_len(self, env_index: int) -> int:
        """Number of stored transitions in one environment's stripe."""
        if not 0 <= env_index < self.num_envs:
            raise IndexError(f"env index {env_index} out of range [0, {self.num_envs})")
        return int(self._sizes[env_index])

    def _allocate(self, transition: Mapping[str, np.ndarray]) -> None:
        self._storage = {}
        for key, value in transition.items():
            array = np.asarray(value, dtype=np.float64)
            self._storage[key] = np.zeros((self.capacity,) + array.shape)

    def add(self, env_index: int, transition: Mapping[str, np.ndarray]) -> int:
        """Store one transition in ``env_index``'s stripe; returns its slot.

        The slot index is global (``stripe base + ring position``), so it
        can be handed straight back to :meth:`update_priorities`.
        """
        if not 0 <= env_index < self.num_envs:
            raise ShapeError(f"env index {env_index} out of range [0, {self.num_envs})")
        if self._storage is None:
            self._allocate(transition)
        assert self._storage is not None
        if set(transition) != set(self._storage):
            raise ShapeError(
                f"transition fields {sorted(transition)} != buffer fields "
                f"{sorted(self._storage)}"
            )
        slot = env_index * self.stripe_capacity + int(self._cursors[env_index])
        for key, value in transition.items():
            array = np.asarray(value, dtype=np.float64)
            if array.shape != self._storage[key].shape[1:]:
                raise ShapeError(
                    f"field {key!r} shape {array.shape} != expected "
                    f"{self._storage[key].shape[1:]}"
                )
            self._storage[key][slot] = array
        self._cursors[env_index] = (self._cursors[env_index] + 1) % self.stripe_capacity
        self._sizes[env_index] = min(self._sizes[env_index] + 1, self.stripe_capacity)
        self._tree.update(slot, self._max_priority ** self.alpha)
        return slot

    def add_rows(
        self, env_rows: np.ndarray, fields: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Store row ``r`` of every field in stripe ``env_rows[r]``; returns the slots.

        Bit-identical to calling :meth:`add` once per row, in row order,
        but with one fancy-indexed write per field, one cursor/size
        update and one :meth:`SumTree.update_sequential`. A stripe named
        ``k`` times takes ``k`` consecutive ring slots.
        """
        env_rows = np.asarray(env_rows, dtype=np.int64).reshape(-1)
        count = env_rows.size
        if count and not (0 <= env_rows.min() and env_rows.max() < self.num_envs):
            raise ShapeError(
                f"env indices {env_rows[(env_rows < 0) | (env_rows >= self.num_envs)]} "
                f"out of range [0, {self.num_envs})"
            )
        arrays = {key: np.asarray(value, dtype=np.float64) for key, value in fields.items()}
        for key, array in arrays.items():
            if array.shape[:1] != (count,):
                raise ShapeError(
                    f"field {key!r} has {array.shape[0] if array.ndim else 0} rows, "
                    f"expected {count}"
                )
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if self._storage is None:
            self._allocate({key: array[0] for key, array in arrays.items()})
        assert self._storage is not None
        if set(arrays) != set(self._storage):
            raise ShapeError(
                f"transition fields {sorted(arrays)} != buffer fields "
                f"{sorted(self._storage)}"
            )
        for key, array in arrays.items():
            if array.shape[1:] != self._storage[key].shape[1:]:
                raise ShapeError(
                    f"field {key!r} shape {array.shape[1:]} != expected "
                    f"{self._storage[key].shape[1:]}"
                )
        # Rank of each row among the earlier rows naming the same stripe.
        order = np.argsort(env_rows, kind="stable")
        ordered = env_rows[order]
        rank = np.empty(count, dtype=np.int64)
        rank[order] = np.arange(count) - np.searchsorted(ordered, ordered)
        slots = env_rows * self.stripe_capacity + (
            self._cursors[env_rows] + rank
        ) % self.stripe_capacity
        if np.unique(slots).size != count:
            # A stripe laps its own ring within this call, so a later row
            # must see the earlier write to its slot: store row by row.
            return np.array(
                [
                    self.add(int(e), {key: array[r] for key, array in arrays.items()})
                    for r, e in enumerate(env_rows.tolist())
                ],
                dtype=np.int64,
            )
        for key, array in arrays.items():
            self._storage[key][slots] = array
        added = np.bincount(env_rows, minlength=self.num_envs)
        self._cursors = (self._cursors + added) % self.stripe_capacity
        self._sizes = np.minimum(self._sizes + added, self.stripe_capacity)
        self._tree.update_sequential(slots, np.full(count, self._max_priority ** self.alpha))
        return slots

    def sample(self, batch_size: int, beta: float = 1.0) -> Dict[str, np.ndarray]:
        """Sample proportionally across ALL stripes in one tree descent.

        Same segment-stratified scheme as
        :meth:`~repro.rl.prioritized.PrioritizedReplayBuffer.sample`;
        importance-sampling weights use the fleet-wide transition count
        and are max-normalised over the whole minibatch. Empty slots hold
        zero priority, so ``find_batch`` never returns one.
        """
        if len(self) == 0:
            raise ConfigurationError("cannot sample from an empty replay buffer")
        if not 0.0 <= beta <= 1.0:
            raise ConfigurationError(f"beta must be in [0, 1], got {beta}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        total = self._tree.total
        segment = total / batch_size
        masses = (np.arange(batch_size) + self._rng.random(batch_size)) * segment
        indices = self._tree.find_batch(masses)
        probabilities = self._tree.priorities(indices) / total
        weights = (len(self) * probabilities) ** (-beta)
        weights /= weights.max()
        assert self._storage is not None
        batch = {key: store[indices] for key, store in self._storage.items()}
        batch["indices"] = np.asarray(indices)
        batch["weights"] = weights
        return batch

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """Set new priorities from absolute TD errors (one batched update)."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        priorities = np.abs(np.asarray(td_errors, dtype=np.float64).reshape(-1)) + self.eps
        if priorities.size:
            self._max_priority = max(self._max_priority, float(priorities.max()))
        self._tree.update_batch(indices, priorities ** self.alpha)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def _occupied_slots(self) -> np.ndarray:
        """Global slot indices of every stored transition, stripe order.

        Each stripe fills its region from the base, so the occupied slots
        are per-stripe prefixes — rows past ``sizes[e]`` were never
        written and stay all-zero by allocation.
        """
        return np.concatenate(
            [
                e * self.stripe_capacity + np.arange(self._sizes[e], dtype=np.int64)
                for e in range(self.num_envs)
            ]
        ) if len(self) else np.zeros(0, dtype=np.int64)

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot: ring state per stripe, occupied rows, tree, max priority."""
        occupied = self._occupied_slots()
        fields = (
            {}
            if self._storage is None
            else {key: store[occupied].copy() for key, store in self._storage.items()}
        )
        return {
            "num_envs": self.num_envs,
            "stripe_capacity": self.stripe_capacity,
            "sizes": self._sizes.copy(),
            "cursors": self._cursors.copy(),
            "fields": fields,
            "tree": self._tree.state_dict(),
            "max_priority": self._max_priority,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            num_envs = int(state["num_envs"])
            stripe_capacity = int(state["stripe_capacity"])
            sizes = np.asarray(state["sizes"], dtype=np.int64).reshape(-1)
            cursors = np.asarray(state["cursors"], dtype=np.int64).reshape(-1)
            fields = {key: np.asarray(value) for key, value in dict(state["fields"]).items()}
            tree_state = state["tree"]
            max_priority = float(state["max_priority"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed striped-replay state: {exc}") from exc
        if num_envs != self.num_envs or stripe_capacity != self.stripe_capacity:
            raise CheckpointError(
                f"striped-replay geometry mismatch: checkpoint "
                f"{num_envs}x{stripe_capacity}, buffer "
                f"{self.num_envs}x{self.stripe_capacity}"
            )
        if sizes.shape != (self.num_envs,) or cursors.shape != (self.num_envs,):
            raise CheckpointError(
                f"expected {self.num_envs} per-stripe sizes/cursors, got "
                f"{sizes.shape[0]}/{cursors.shape[0]}"
            )
        if not (
            np.all((0 <= sizes) & (sizes <= stripe_capacity))
            and np.all((0 <= cursors) & (cursors < stripe_capacity))
        ):
            raise CheckpointError(
                f"inconsistent stripe ring state: sizes={sizes}, cursors={cursors}"
            )
        if not (np.isfinite(max_priority) and max_priority > 0):
            raise CheckpointError(
                f"max_priority must be finite and > 0, got {max_priority}"
            )
        total = int(sizes.sum())
        if total > 0 and not fields:
            raise CheckpointError(
                f"striped checkpoint claims {total} transitions but has no fields"
            )
        for key, value in fields.items():
            if value.shape[:1] != (total,):
                raise CheckpointError(
                    f"striped field {key!r} has "
                    f"{value.shape[0] if value.ndim else 0} rows, expected {total}"
                )
        staged_tree = SumTree(self.capacity)
        staged_tree.load_state_dict(tree_state)
        if total == 0 or not fields:
            storage = None
        else:
            occupied = np.concatenate(
                [
                    e * stripe_capacity + np.arange(sizes[e], dtype=np.int64)
                    for e in range(num_envs)
                ]
            )
            storage = {
                key: np.zeros((self.capacity,) + value.shape[1:])
                for key, value in fields.items()
            }
            for key, value in fields.items():
                storage[key][occupied] = value
        self._storage = storage
        self._sizes = sizes if storage is not None else np.zeros_like(sizes)
        self._cursors = cursors if storage is not None else np.zeros_like(cursors)
        self._tree = staged_tree
        self._max_priority = max_priority
