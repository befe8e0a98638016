"""Opportunistic chunk-level batching (paper §III-D2).

At mount time the packed shard ranges are divided into fixed-size *data
chunks* (256 KB by default).  Samples fully inside one chunk are
*interior*; samples crossing a chunk boundary are *edge samples* and are
fetched individually.  ``dlfs_sequence`` shuffles a **data-chunk access
list** (chunk id + key of its first complete sample) and an **edge
sample access list**; ``dlfs_bread`` then serves samples by repeatedly
picking a random in-cache chunk (or the edge stream) and delivering its
next valid sample — the discipline of Fig 5(b).

Everything here is pure (no simulation): the same order generator
drives both the simulated reader and the training-accuracy experiment
(Fig 13), so the accuracy result really reflects the I/O path's
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import DatasetLayout
from ..errors import ConfigError
from ..sim import rng as sim_rng

__all__ = [
    "ChunkPlan",
    "ChunkEpoch",
    "delivery_order",
    "DEFAULT_CHUNK_BYTES",
]

DEFAULT_CHUNK_BYTES = 256 * 1024

#: Requirement kinds attached to each delivered sample.
REQ_CHUNK = 0
REQ_EDGE = 1


class ChunkPlan:
    """Static chunking of a mounted layout: chunks, members, edge samples."""

    def __init__(self, layout: DatasetLayout, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        if chunk_bytes < 4096 or chunk_bytes % 512:
            raise ConfigError("chunk_bytes must be >= 4096 and 512-aligned")
        self.layout = layout
        self.chunk_bytes = chunk_bytes
        dataset = layout.dataset
        base = layout.base_offset

        # Chunks are numbered globally: shard s contributes
        # ceil(shard_bytes / chunk_bytes) chunks after prefix offsets.
        per_shard = np.array(
            [
                -(-layout.shard_bytes(s) // chunk_bytes)
                for s in range(layout.num_shards)
            ],
            dtype=np.int64,
        )
        self.chunks_per_shard = per_shard
        self._gid_base = np.concatenate(([0], np.cumsum(per_shard)))
        self.num_chunks = int(per_shard.sum())
        self.chunk_shard = np.repeat(
            np.arange(layout.num_shards, dtype=np.int32), per_shard
        )
        self.chunk_local = np.concatenate(
            [np.arange(c, dtype=np.int64) for c in per_shard]
        ) if self.num_chunks else np.empty(0, dtype=np.int64)

        # Classify samples (vectorized).
        rel_start = layout.offsets - base
        rel_end = rel_start + dataset.sizes - 1
        first_chunk = rel_start // chunk_bytes
        last_chunk = rel_end // chunk_bytes
        interior = first_chunk == last_chunk
        gid = self._gid_base[layout.shard_ids] + first_chunk
        self.sample_chunk = np.where(interior, gid, -1).astype(np.int64)
        self.sample_chunk.setflags(write=False)
        self.edge_samples = np.flatnonzero(~interior).astype(np.int64)
        self.edge_samples.setflags(write=False)

        # Interior members per chunk, in on-device (offset) order — for
        # packed layouts index order coincides, but batched-file layouts
        # can permute samples within a file, so sort by offset explicitly.
        members: list[np.ndarray] = [None] * self.num_chunks  # type: ignore
        interior_idx = np.flatnonzero(interior)
        order = np.lexsort(
            (layout.offsets[interior_idx], self.sample_chunk[interior_idx])
        )
        sorted_idx = interior_idx[order]
        sorted_gid = self.sample_chunk[sorted_idx]
        boundaries = np.flatnonzero(np.diff(sorted_gid)) + 1
        groups = np.split(sorted_idx, boundaries)
        group_gids = sorted_gid[np.concatenate(([0], boundaries))] if len(sorted_idx) else []
        for g, members_arr in zip(group_gids, groups):
            members[int(g)] = members_arr
        empty = np.empty(0, dtype=np.int64)
        self.chunk_members: list[np.ndarray] = [
            m if m is not None else empty for m in members
        ]

    # -- access-list construction ------------------------------------------------
    def nonempty_chunks(self) -> np.ndarray:
        """Chunk ids with at least one complete (interior) sample — the
        candidates for the data-chunk access list."""
        return np.array(
            [g for g in range(self.num_chunks) if len(self.chunk_members[g])],
            dtype=np.int64,
        )

    def access_list_entries(self, keys: np.ndarray) -> list[tuple[int, int]]:
        """(chunk id, key of first complete sample) pairs (paper Fig 5b)."""
        return [
            (int(g), int(keys[self.chunk_members[g][0]]))
            for g in self.nonempty_chunks()
        ]

    # -- geometry -----------------------------------------------------------------
    def chunk_span(self, gid: int) -> tuple[int, int, int]:
        """-> (shard, device offset, nbytes) of one chunk, clipped to the
        shard's packed extent."""
        if not 0 <= gid < self.num_chunks:
            raise ConfigError(f"chunk id {gid} out of range")
        shard = int(self.chunk_shard[gid])
        local = int(self.chunk_local[gid])
        start, end = self.layout.shard_extent(shard)
        offset = start + local * self.chunk_bytes
        nbytes = min(self.chunk_bytes, end - offset)
        return shard, offset, nbytes

    @property
    def num_edge_samples(self) -> int:
        return len(self.edge_samples)

    def __repr__(self) -> str:
        return (
            f"<ChunkPlan chunks={self.num_chunks} "
            f"edges={self.num_edge_samples} chunk={self.chunk_bytes}B>"
        )


class ChunkEpoch:
    """One epoch's shuffled chunk + edge access lists, split across ranks.

    The same ``seed`` on every rank produces the same lists; rank r
    consumes every ``num_ranks``-th entry, so collectively each chunk
    (and edge sample) is read exactly once per epoch.
    """

    def __init__(self, plan: ChunkPlan, seed: int, num_ranks: int = 1) -> None:
        if num_ranks < 1:
            raise ConfigError("num_ranks must be >= 1")
        self.plan = plan
        self.seed = seed
        self.num_ranks = num_ranks
        rng = sim_rng("dlfs.epoch.chunks", seed)
        self.chunk_list = rng.permutation(plan.nonempty_chunks())
        self.edge_list = rng.permutation(plan.edge_samples.copy())
        self.chunk_list.setflags(write=False)
        self.edge_list.setflags(write=False)

    def rank_chunks(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        return self.chunk_list[rank::self.num_ranks]

    def rank_edges(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        return self.edge_list[rank::self.num_ranks]

    def rank_sample_count(self, rank: int) -> int:
        """Samples rank r will deliver this epoch."""
        chunks = self.rank_chunks(rank)
        interior = sum(len(self.plan.chunk_members[int(g)]) for g in chunks)
        return interior + len(self.rank_edges(rank))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ConfigError(f"rank {rank} out of range ({self.num_ranks})")

    def __repr__(self) -> str:
        return (
            f"<ChunkEpoch seed={self.seed} chunks={len(self.chunk_list)} "
            f"edges={len(self.edge_list)} ranks={self.num_ranks}>"
        )


@dataclass(frozen=True)
class DeliveryPlan:
    """Precomputed delivery for one rank-epoch.

    ``order[i]`` is the i-th delivered sample; ``requirement[i]`` is
    what must be resident before delivering it: ``(REQ_CHUNK, gid)`` or
    ``(REQ_EDGE, sample)``.
    """

    order: np.ndarray
    req_kind: np.ndarray
    req_id: np.ndarray

    def __len__(self) -> int:
        return len(self.order)


def delivery_order(
    plan: ChunkPlan,
    chunks: np.ndarray,
    edges: np.ndarray,
    seed: int,
    window: int = 8,
) -> DeliveryPlan:
    """Generate the DLFS-determined sample order (paper Fig 5b).

    A window of up to ``window`` chunks is "in cache"; each step picks a
    uniformly random active cursor — one per in-window chunk, plus one
    for the edge-sample stream — and delivers that cursor's next sample.
    An exhausted chunk leaves the window and the next chunk from the
    access list enters.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    rng = sim_rng("dlfs.delivery.window", seed)
    chunk_iter = iter(int(g) for g in chunks)
    order: list[int] = []
    req_kind: list[int] = []
    req_id: list[int] = []

    # Each cursor: (kind, ident, member array, position).
    cursors: list[list] = []
    chunk_cursors = 0  # running count of REQ_CHUNK entries in ``cursors``

    def refill() -> None:
        nonlocal chunk_cursors
        while chunk_cursors < window:
            try:
                gid = next(chunk_iter)
            except StopIteration:
                return
            # Plain-list members: per-sample indexing below then yields
            # Python ints directly instead of numpy scalars.
            members = plan.chunk_members[gid].tolist()
            if members:
                cursors.append([REQ_CHUNK, gid, members, 0])
                chunk_cursors += 1

    if len(edges):
        cursors.append([REQ_EDGE, -1, list(map(int, edges)), 0])
    refill()

    while cursors:
        pick = int(rng.integers(len(cursors))) if len(cursors) > 1 else 0
        cursor = cursors[pick]
        kind, ident, members, pos = cursor
        sample = members[pos]
        order.append(sample)
        if kind == REQ_CHUNK:
            req_kind.append(REQ_CHUNK)
            req_id.append(ident)
        else:
            req_kind.append(REQ_EDGE)
            req_id.append(sample)
        cursor[3] += 1
        if cursor[3] >= len(members):
            cursors.pop(pick)
            if kind == REQ_CHUNK:
                chunk_cursors -= 1
                refill()

    return DeliveryPlan(
        order=np.asarray(order, dtype=np.int64),
        req_kind=np.asarray(req_kind, dtype=np.int8),
        req_id=np.asarray(req_id, dtype=np.int64),
    )
