"""Synthetic dataset generation and shard behavior."""

import numpy as np
import pytest

from music_sim.data import make_blobs, merged_shard
from music_sim.errors import EmptyInput


def test_shapes_and_ownership():
    bundle = make_blobs(6, 3, {"ue0": 40, "ue1": 24}, test_size=16, seed=1)
    assert bundle.shard_of("ue0").x.shape == (40, 6)
    assert bundle.shard_of("ue1").labels.shape == (24,)
    assert bundle.test_x.shape == (16, 6)
    assert bundle.input_dim == 6 and bundle.n_classes == 3
    assert set(np.unique(bundle.test_labels)).issubset({0, 1, 2})
    with pytest.raises(EmptyInput):
        bundle.shard_of("ue9")


def test_generation_is_deterministic():
    a = make_blobs(4, 2, {"ue0": 16}, test_size=8, seed=7)
    b = make_blobs(4, 2, {"ue0": 16}, test_size=8, seed=7)
    assert np.array_equal(a.shard_of("ue0").x, b.shard_of("ue0").x)
    assert np.array_equal(a.test_x, b.test_x)


def test_shards_stable_under_other_nodes():
    """Adding another node's shard must not disturb existing shards or the
    test set (per-node substreams)."""
    small = make_blobs(4, 2, {"ue0": 16}, test_size=8, seed=7)
    big = make_blobs(4, 2, {"ue0": 16, "ue1": 32}, test_size=8, seed=7)
    assert np.array_equal(small.shard_of("ue0").x, big.shard_of("ue0").x)
    assert np.array_equal(small.test_x, big.test_x)


def test_cyclic_batches_wrap_around():
    bundle = make_blobs(4, 2, {"ue0": 10}, test_size=0, seed=3)
    shard = bundle.shard_of("ue0")
    x0, _ = shard.batch(0, 4)   # rows 0..3
    x2, _ = shard.batch(2, 4)   # rows 8,9,0,1
    assert np.array_equal(x2[2], x0[0])
    assert np.array_equal(x2[3], x0[1])
    assert x0.shape == (4, 4)


def test_batches_cover_all_rows_before_repeating():
    bundle = make_blobs(4, 2, {"ue0": 12}, test_size=0, seed=3)
    shard = bundle.shard_of("ue0")
    seen = np.concatenate([shard.batch(i, 4)[0] for i in range(3)])
    assert np.array_equal(seen, shard.x)


def test_merged_shard_concatenates_in_order():
    bundle = make_blobs(4, 2, {"ue0": 8, "ue1": 8}, test_size=0, seed=3)
    merged = merged_shard(bundle, ["ue1", "ue0"])
    assert merged.size == 16
    assert np.array_equal(merged.x[:8], bundle.shard_of("ue1").x)
    assert np.array_equal(merged.x[8:], bundle.shard_of("ue0").x)
    with pytest.raises(EmptyInput):
        merged_shard(bundle, [])


def test_classes_are_separable_enough_to_learn():
    # labels should be recoverable from nearest class center most of the time
    bundle = make_blobs(6, 3, {"ue0": 120}, test_size=0, seed=11)
    shard = bundle.shard_of("ue0")
    centers = np.stack([shard.x[shard.labels == c].mean(axis=0) for c in range(3)])
    nearest = np.argmin(
        ((shard.x[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)
    assert np.mean(nearest == shard.labels) > 0.9


def test_empty_shard_batch_rejected():
    bundle = make_blobs(4, 2, {"ue0": 8}, test_size=0, seed=3)
    shard = bundle.shard_of("ue0")
    empty = type(shard)(owner="x", x=shard.x[:0], labels=shard.labels[:0])
    with pytest.raises(EmptyInput):
        empty.batch(0, 4)


def test_stacked_batches_equal_each_shards_own_batch():
    """Shards of unequal sizes, some smaller than a batch, over iterations
    that wrap around each shard: the one-index gather from the bundle's flat
    arrays gives every shard's `batch` exactly, in owner order."""
    sizes = {"ue0": 3, "ue1": 16, "ue2": 7, "ue3": 1, "ue4": 40}
    bundle = make_blobs(5, 3, sizes, test_size=4, seed=9)
    owners = ["ue2", "ue0", "ue4", "ue3", "ue1"]
    iterations = range(12)
    steps = bundle.stacked_batches(owners, iterations, 8)
    assert len(steps) == len(iterations)
    for it, (x, labels) in zip(iterations, steps):
        assert x.shape == (len(owners), 8, 5) and labels.shape == (len(owners), 8)
        for k, owner in enumerate(owners):
            own_x, own_labels = bundle.shard_of(owner).batch(it, 8)
            assert np.array_equal(x[k], own_x)
            assert np.array_equal(labels[k], own_labels)


def test_shards_are_views_into_the_bundles_flat_arrays():
    bundle = make_blobs(4, 2, {"ue0": 5, "ue1": 0, "ue2": 3}, test_size=0, seed=3)
    assert bundle.x.shape == (8, 4) and bundle.labels.shape == (8,)
    for shard in bundle.shards.values():
        offset = bundle.offsets[shard.owner]
        rows = slice(offset, offset + shard.size)
        assert shard.size == 0 or np.shares_memory(shard.x, bundle.x)
        assert np.array_equal(shard.x, bundle.x[rows])
        assert np.array_equal(shard.labels, bundle.labels[rows])
    with pytest.raises(EmptyInput):
        bundle.stacked_batches(["ue0", "ue1"], range(1), 4)
