"""Tenant-aware partitioning of the hugepage sample cache.

Each tenant with ``cache_share > 0`` gets a chunk quota on the node's
hugepage pool (tracked in a :class:`~repro.hw.memory.ChunkLedger`).
Before the reactor promotes a fetch, the partition decides whether the
owning tenant may take the chunks; a tenant at quota may reclaim its
*own* clean (unreferenced, resident) slots — never another tenant's —
so one tenant's working set cannot squeeze a neighbor below its share.

Progress guarantee: a span larger than the whole quota is still admitted
when the tenant holds nothing else (``charged == 0``), so an oversized
sample degrades to uncached streaming instead of wedging the job.
"""

from __future__ import annotations

from typing import Optional

from ..hw.memory import ChunkLedger, chunk_quotas

__all__ = ["CachePartition"]


class CachePartition:
    """Quota gate between the fair scheduler and the sample cache."""

    def __init__(self, specs: tuple) -> None:
        self.ledger = ChunkLedger()
        self._shares: dict[str, float] = {}
        for spec in specs:
            if spec.cache_share > 0.0:
                self._shares[spec.name] = spec.cache_share
        self.cache = None
        #: key -> (tenant, chunks) for every charged slot or reservation.
        self._owner: dict[object, tuple[str, int]] = {}
        self.reclaims = 0
        self.denials = 0

    @property
    def enabled(self) -> bool:
        return bool(self._shares)

    def attach(self, cache: object, num_chunks: int) -> None:
        """Bind to a client's sample cache and fix absolute quotas.

        Raises :class:`~repro.errors.ConfigError` when the summed quotas
        (each floored, minimum one chunk) oversubscribe the pool.
        """
        self.cache = cache
        cache.on_free = self.on_free
        for name, quota in chunk_quotas(num_chunks, self._shares).items():
            self.ledger.set_quota(name, quota)

    # -- admission ------------------------------------------------------------
    def _reclaimable(self, tenant: str) -> int:
        """Chunks the tenant could free by evicting its own clean slots."""
        total = 0
        for key in self.cache.clean_keys():
            owner = self._owner.get(key)
            if owner is not None and owner[0] == tenant:
                total += owner[1]
        return total

    def can_admit(self, tenant: Optional[str], need: int) -> bool:
        """Pure check (no side effects) used as the scheduler's fetch gate."""
        if self.cache is None or tenant is None:
            return True
        quota = self.ledger.quota(tenant)
        if quota <= 0:
            return True
        used = self.ledger.used(tenant)
        if used + need <= quota:
            return True
        residual = used - self._reclaimable(tenant)
        if residual + need <= quota:
            return True
        if residual == 0 and need > quota:
            # Oversized span: admit solo rather than wedge the tenant.
            return True
        self.denials += 1
        return False

    def reserve(self, tenant: Optional[str], key: object, need: int) -> None:
        """Charge a fetch about to be promoted, reclaiming if at quota.

        Must be preceded by a true ``can_admit`` in the same pump step;
        eviction here frees pool chunks so the cache's ``try_insert``
        finds room.
        """
        if tenant is None:
            return
        quota = self.ledger.quota(tenant)
        if quota > 0:
            limit = max(quota, need)  # the oversized-span escape hatch
            while self.ledger.used(tenant) + need > limit:
                victim = None
                for ck in self.cache.clean_keys():
                    owner = self._owner.get(ck)
                    if owner is not None and owner[0] == tenant:
                        victim = ck
                        break
                if victim is None:
                    break
                self.reclaims += 1
                self.cache.evict(victim)  # on_free uncharges the ledger
        self._owner[key] = (tenant, need)
        self.ledger.charge(tenant, need)

    def cancel(self, key: object) -> None:
        """Undo a reservation whose cache insert failed (global pressure)."""
        owner = self._owner.pop(key, None)
        if owner is not None:
            self.ledger.uncharge(owner[0], owner[1])

    # -- cache hook -----------------------------------------------------------
    def on_free(self, key: object) -> None:
        """Slot chunks returned to the pool (evicted or discarded)."""
        owner = self._owner.pop(key, None)
        if owner is not None:
            self.ledger.uncharge(owner[0], owner[1])

    def __repr__(self) -> str:
        return f"<CachePartition shares={len(self._shares)} charged={len(self._owner)}>"
