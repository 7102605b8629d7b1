"""Synthetic classification data: seeded Gaussian blobs, sharded per device.

Every shard is drawn from its own substream keyed by the owning node id, so a
device's local data does not depend on which other devices exist or on
iteration order. Batches cycle through the shard without reshuffling, which
keeps repeated runs and split-vs-central comparisons sample-for-sample
identical. A bundle keeps every shard's rows in one pair of flat arrays, each
shard a view into them, so many shards' batches are gathered with one index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RngStreams
from .errors import EmptyInput


def cyclic_rows(size, iteration: int, batch_size: int) -> np.ndarray:
    """Row indices, within a shard of `size` rows, of its cyclic minibatch
    `iteration` (0-based). `size` may be a (K, 1) array, which gives K
    shards' rows as one (K, batch_size) index."""
    return (np.arange(batch_size) + iteration * batch_size) % size


@dataclass
class Shard:
    """One node's local dataset."""

    owner: str
    x: np.ndarray       # (n, input_dim)
    labels: np.ndarray  # (n,) ints

    @property
    def size(self) -> int:
        return int(self.x.shape[0])

    def batch(self, iteration: int, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Cyclic minibatch for the given 0-based iteration."""
        if self.size == 0:
            raise EmptyInput(f"shard of {self.owner!r} is empty")
        idx = cyclic_rows(self.size, iteration, batch_size)
        return self.x[idx], self.labels[idx]


@dataclass
class DataBundle:
    shards: dict[str, Shard]
    test_x: np.ndarray
    test_labels: np.ndarray
    input_dim: int
    n_classes: int
    x: np.ndarray       # every shard's rows, shard after shard
    labels: np.ndarray
    offsets: dict[str, int]  # each shard's first row in `x`

    def shard_of(self, node_id: str) -> Shard:
        try:
            return self.shards[node_id]
        except KeyError:
            raise EmptyInput(f"no data shard for node {node_id!r}") from None

    def stacked_batches(self, owners, iterations, batch_size: int):
        """For each of `iterations`, every owner's `batch(iteration,
        batch_size)` stacked in owner order: a (K, batch_size, input_dim)
        input array and a (K, batch_size) label array, each gathered from
        the flat arrays with one index."""
        shards = [self.shard_of(owner) for owner in owners]
        for shard in shards:
            if shard.size == 0:
                raise EmptyInput(f"shard of {shard.owner!r} is empty")
        offsets = np.array([self.offsets[shard.owner] for shard in shards])[:, None]
        sizes = np.array([shard.size for shard in shards])[:, None]
        steps = []
        for iteration in iterations:
            rows = offsets + cyclic_rows(sizes, iteration, batch_size)
            steps.append((self.x[rows], self.labels[rows]))
        return steps


def make_blobs(input_dim: int, n_classes: int, shard_sizes: dict[str, int],
               test_size: int, seed: int, noise: float = 0.6,
               class_sep: float = 2.5) -> DataBundle:
    """Gaussian-blob dataset with per-node shards and a shared test set.

    Class centers come from one named stream of `RngStreams(seed)`; each
    shard and the test set come from their own, so shard contents are
    stable under adding or removing other nodes.
    """
    if n_classes < 2:
        raise EmptyInput(f"need at least 2 classes, got {n_classes}")
    streams = RngStreams(seed)
    centers = streams.stream("centers").standard_normal((n_classes, input_dim)) * class_sep

    def draw(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, size=count)
        x = centers[labels] + noise * rng.standard_normal((count, input_dim))
        return x, labels

    sizes = {owner: int(size) for owner, size in shard_sizes.items()}
    total = sum(sizes.values())
    x, labels = np.empty((total, input_dim)), np.empty(total, dtype=np.int64)
    shards, offsets = {}, {}
    offset = 0
    for owner, size in sizes.items():
        end = offset + size
        x[offset:end], labels[offset:end] = draw(streams.stream(f"shard:{owner}"), size)
        shards[owner] = Shard(owner=owner, x=x[offset:end], labels=labels[offset:end])
        offsets[owner] = offset
        offset = end
    test_x, test_labels = draw(streams.stream("test"), int(test_size))
    return DataBundle(shards=shards, test_x=test_x, test_labels=test_labels,
                      input_dim=input_dim, n_classes=n_classes, x=x, labels=labels,
                      offsets=offsets)


def merged_shard(bundle: DataBundle, owners: list[str]) -> Shard:
    """Concatenation of several shards in the given owner order."""
    if not owners:
        raise EmptyInput("no shard owners given")
    parts = [bundle.shard_of(o) for o in owners]
    return Shard(owner="+".join(owners),
                 x=np.concatenate([p.x for p in parts]),
                 labels=np.concatenate([p.labels for p in parts]))
