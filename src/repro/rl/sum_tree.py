"""Array-backed sum tree supporting O(log n) prefix-sum sampling.

This is the classic data structure underlying proportional prioritised
experience replay: leaves hold per-transition priorities, internal nodes
hold subtree sums, and sampling walks down from the root following a
uniform draw over the total mass.

Besides the scalar :meth:`SumTree.find` / :meth:`SumTree.update` pair, the
tree exposes batched counterparts (:meth:`SumTree.find_batch`,
:meth:`SumTree.update_batch`) that descend/propagate one whole tree level
per numpy operation, so sampling a minibatch costs O(log n) array ops
instead of O(batch * log n) Python steps.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.errors import CheckpointError, ConfigurationError


class SumTree:
    """A complete binary tree over ``capacity`` leaf priorities."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        # Pad to a power of two so the node = leaf_count + leaf mapping keeps
        # leaves in index order (required for cumulative-interval sampling).
        self._leaf_count = 1
        while self._leaf_count < self.capacity:
            self._leaf_count *= 2
        self._depth = self._leaf_count.bit_length() - 1
        self._tree = np.zeros(2 * self._leaf_count)

    @property
    def total(self) -> float:
        """Sum of all leaf priorities."""
        return float(self._tree[1])

    def __getitem__(self, leaf: int) -> float:
        self._check_leaf(leaf)
        return float(self._tree[self._leaf_count + leaf])

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.capacity:
            raise IndexError(f"leaf {leaf} out of range [0, {self.capacity})")

    def _check_leaves(self, leaves: np.ndarray) -> np.ndarray:
        leaves = np.asarray(leaves, dtype=np.int64).reshape(-1)
        if leaves.size and not (0 <= leaves.min() and leaves.max() < self.capacity):
            raise IndexError(
                f"leaves {leaves[(leaves < 0) | (leaves >= self.capacity)]} "
                f"out of range [0, {self.capacity})"
            )
        return leaves

    def priorities(self, leaves: np.ndarray) -> np.ndarray:
        """Vectorised read of many leaf priorities at once."""
        return self._tree[self._leaf_count + self._check_leaves(leaves)]

    def update(self, leaf: int, priority: float) -> None:
        """Set the priority of a leaf and propagate sums to the root."""
        self._check_leaf(leaf)
        if priority < 0 or not np.isfinite(priority):
            raise ConfigurationError(f"priority must be finite and >= 0, got {priority}")
        node = self._leaf_count + leaf
        delta = priority - self._tree[node]
        while node >= 1:
            self._tree[node] += delta
            node //= 2

    def find(self, mass: float) -> int:
        """Return the leaf whose cumulative-priority interval contains ``mass``."""
        if self.total <= 0:
            raise ConfigurationError("cannot sample from an all-zero sum tree")
        mass = min(max(mass, 0.0), self.total)
        node = 1
        while node < self._leaf_count:
            left = 2 * node
            left_sum = self._tree[left]
            right_sum = self._tree[left + 1]
            if left_sum <= 0.0:
                node = left + 1
            elif right_sum <= 0.0 or mass <= left_sum:
                node = left
            else:
                mass -= left_sum
                node = left + 1
        return node - self._leaf_count

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot: capacity plus the *whole* node array.

        Internal sums are stored verbatim rather than recomputed from the
        leaves on load: scalar :meth:`update` delta-adjusts ancestor sums,
        so a recomputation could differ in the last ulp and break the
        bit-exact resume guarantee.
        """
        return {"capacity": self.capacity, "tree": self._tree.copy()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            capacity = int(state["capacity"])
            tree = np.asarray(state["tree"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed sum-tree state: {exc}") from exc
        if capacity != self.capacity:
            raise CheckpointError(
                f"sum-tree capacity mismatch: checkpoint {capacity}, tree {self.capacity}"
            )
        if tree.shape != self._tree.shape:
            raise CheckpointError(
                f"sum-tree node-array shape mismatch: {tree.shape} != {self._tree.shape}"
            )
        self._tree = tree.copy()

    # ------------------------------------------------------------------ #
    # batched operations
    # ------------------------------------------------------------------ #
    def update_batch(self, leaves: np.ndarray, priorities: np.ndarray) -> None:
        """Set many leaf priorities and re-propagate sums level by level.

        Equivalent to a sequential loop of :meth:`update` calls: duplicate
        leaves keep the last priority in the batch. Internal sums are
        recomputed from their children rather than delta-adjusted, so
        duplicates cannot double-count.
        """
        leaves = self._check_leaves(leaves)
        priorities = np.asarray(priorities, dtype=np.float64).reshape(-1)
        if priorities.shape != leaves.shape:
            raise ConfigurationError(
                f"got {leaves.size} leaves but {priorities.size} priorities"
            )
        if priorities.size == 0:
            return
        if not np.all(np.isfinite(priorities)) or priorities.min() < 0:
            raise ConfigurationError(
                "priorities must be finite and >= 0, got "
                f"{priorities[~(np.isfinite(priorities) & (priorities >= 0))]}"
            )
        nodes = self._leaf_count + leaves
        self._tree[nodes] = priorities
        # No dedup needed while climbing: duplicate parents all recompute
        # the same sum from the same (already-final) children, so repeated
        # fancy-index writes are idempotent — and skipping the per-level
        # np.unique sort costs less than the redundant adds at minibatch
        # sizes. Leaves share one level, so exactly ``depth`` shifts reach
        # the root.
        parents = nodes >> 1
        for _ in range(self._depth):
            children = parents << 1
            self._tree[parents] = self._tree[children] + self._tree[children + 1]
            parents = parents >> 1

    def update_sequential(self, leaves: np.ndarray, priorities: np.ndarray) -> None:
        """Set many *distinct* leaves exactly as a loop of :meth:`update` would.

        Unlike :meth:`update_batch`, ancestor sums are delta-adjusted, not
        recomputed, so the node array matches the scalar loop bit for
        bit: ``np.add.at`` applies each ancestor's deltas unbuffered and
        in leaf order, which is the order the loop adds them in.
        """
        leaves = self._check_leaves(leaves)
        priorities = np.asarray(priorities, dtype=np.float64).reshape(-1)
        if priorities.shape != leaves.shape:
            raise ConfigurationError(
                f"got {leaves.size} leaves but {priorities.size} priorities"
            )
        if priorities.size == 0:
            return
        if not np.all(np.isfinite(priorities)) or priorities.min() < 0:
            raise ConfigurationError(
                "priorities must be finite and >= 0, got "
                f"{priorities[~(np.isfinite(priorities) & (priorities >= 0))]}"
            )
        if np.unique(leaves).size != leaves.size:
            raise ConfigurationError("update_sequential needs distinct leaves")
        nodes = self._leaf_count + leaves
        deltas = priorities - self._tree[nodes]
        # Row l holds every leaf's ancestor l levels up (row 0: the leaves).
        path = nodes[None, :] >> np.arange(self._depth + 1)[:, None]
        np.add.at(self._tree, path.ravel(), np.broadcast_to(deltas, path.shape).ravel())

    def find_batch(self, masses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`find`: one leaf per entry of ``masses``.

        All lookups descend in lockstep, one tree level per iteration, so
        the cost is O(log capacity) numpy operations for the whole batch.
        """
        if self.total <= 0:
            raise ConfigurationError("cannot sample from an all-zero sum tree")
        masses = np.clip(np.asarray(masses, dtype=np.float64).reshape(-1), 0.0, self.total)
        nodes = np.ones(masses.shape, dtype=np.int64)
        for _ in range(self._depth):
            left = nodes << 1
            left_sum = self._tree[left]
            right_sum = self._tree[left + 1]
            # Mirror the scalar descent: an empty left subtree forces right,
            # an empty right subtree (zero-padded tail) forces left, else
            # split on the left subtree's mass.
            go_left = (left_sum > 0.0) & ((right_sum <= 0.0) | (masses <= left_sum))
            masses = np.where(go_left | (left_sum <= 0.0), masses, masses - left_sum)
            nodes = np.where(go_left, left, left + 1)
        return nodes - self._leaf_count
