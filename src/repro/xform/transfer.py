"""Chunked fabric transfer engine with per-link accounting.

The transform tier never calls :meth:`repro.hw.Fabric.transfer` raw:
every storage→worker and worker→trainer movement goes through a
:class:`TransferEngine`, which

* splits payloads into RDMA-friendly chunks so a multi-megabyte
  span cannot monopolize a NIC pipe for its whole wire time;
* caps the chunks in flight *toward each destination* with a credit
  resource — the model of bounded receive buffers.  When a worker's
  inbox is full the sender blocks holding its tier job slot, which in
  turn stalls new submissions into the fair-queue scheduler: genuine
  end-to-end backpressure, not a dropped byte count;
* attributes bytes, chunk counts, queue (credit) wait, and wire+credit
  latency to every ``(src, dst)`` link, for the obs per-tier panels.

The engine is pay-for-use: it is only constructed when the transform
tier is configured, and it creates metrics instruments only on an
enabled registry.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import ConfigError
from ..obs import NULL_METRICS
from ..sim import Resource

__all__ = ["TransferEngine", "fabric_fluid_rate"]


def fabric_fluid_rate(
    bandwidth: float, chunk_bytes: int, propagation_latency: float = 0.0
) -> float:
    """Effective bytes/s of a chunked fabric link, for fluid lane models.

    A saturated chunked link moves one ``chunk_bytes`` payload per
    ``wire + propagation`` period (credits keep the pipe full but each
    chunk still pays the one-way latency), so the steady-state rate is
    slightly below raw ``bandwidth``.  This is the fabric stage the
    hybrid-fidelity engine (:mod:`repro.sim.fluid`) rate-balances
    against NVMe and transform stages.
    """
    if bandwidth <= 0 or chunk_bytes < 1 or propagation_latency < 0:
        raise ConfigError(
            "fabric_fluid_rate needs bandwidth > 0, chunk_bytes >= 1, "
            "propagation_latency >= 0"
        )
    return chunk_bytes / (chunk_bytes / bandwidth + propagation_latency)


class _LinkStats:
    """Byte/latency attribution for one directed fabric link."""

    __slots__ = ("nbytes", "chunks", "transfers", "credit_wait", "busy")

    def __init__(self) -> None:
        self.nbytes = 0
        self.chunks = 0
        self.transfers = 0
        self.credit_wait = 0.0
        self.busy = 0.0


class TransferEngine:
    """Moves spans between tiers in chunked, credit-limited transfers."""

    def __init__(
        self,
        env,
        fabric,
        chunk_bytes: int = 256 * 1024,
        inflight_per_dst: int = 4,
        registry=None,
    ) -> None:
        if chunk_bytes < 1:
            raise ConfigError("chunk_bytes must be >= 1")
        if inflight_per_dst < 1:
            raise ConfigError("inflight_per_dst must be >= 1")
        self.env = env
        self.fabric = fabric
        self.chunk_bytes = chunk_bytes
        self.inflight_per_dst = inflight_per_dst
        self._credits: dict[str, Resource] = {}
        self._links: dict[tuple[str, str], _LinkStats] = {}
        metrics = registry if registry is not None and registry.enabled \
            else NULL_METRICS
        self._c_bytes = metrics.counter("xform.net.bytes")
        self._c_chunks = metrics.counter("xform.net.chunks")
        self._h_latency = metrics.histogram("xform.net.transfer_latency")

    def _credit(self, dst: str) -> Resource:
        credit = self._credits.get(dst)
        if credit is None:
            credit = Resource(
                self.env, capacity=self.inflight_per_dst,
                name=f"xform.rxcredit.{dst}",
            )
            self._credits[dst] = credit
        return credit

    def _stats(self, src: str, dst: str) -> _LinkStats:
        stats = self._links.get((src, dst))
        if stats is None:
            stats = self._links[(src, dst)] = _LinkStats()
        return stats

    # -- data movement --------------------------------------------------------
    def move(
        self, src: str, dst: str, nbytes: int, parent: Optional[object] = None
    ) -> Generator[Any, Any, None]:
        """Process helper: ship ``nbytes`` from ``src`` to ``dst``.

        Chunks go out sequentially, each under one destination credit,
        so a single ``move`` holds at most one credit at a time while
        concurrent senders to the same destination share the cap.
        Zero-byte and loopback moves are free (selectivity-0 stages,
        trainer-local workers) but still counted as a transfer.
        """
        stats = self._stats(src, dst)
        stats.transfers += 1
        if nbytes <= 0 or src == dst:
            return
        t0 = self.env.now
        credit = self._credit(dst)
        remaining = int(nbytes)
        while remaining > 0:
            chunk = min(remaining, self.chunk_bytes)
            req = credit.request()
            wait0 = self.env.now
            yield req
            stats.credit_wait += self.env.now - wait0
            try:
                yield from self.fabric.transfer(src, dst, chunk, parent=parent)
            finally:
                credit.release(req)
            stats.chunks += 1
            self._c_chunks.incr()
            remaining -= chunk
        elapsed = self.env.now - t0
        stats.nbytes += int(nbytes)
        stats.busy += elapsed
        self._c_bytes.incr(int(nbytes))
        self._h_latency.observe(elapsed)

    # -- reporting ------------------------------------------------------------
    def link_rows(self) -> list[dict]:
        """Per-link attribution rows, sorted by (src, dst)."""
        rows = []
        for (src, dst) in sorted(self._links):
            s = self._links[(src, dst)]
            rows.append({
                "src": src,
                "dst": dst,
                "bytes": s.nbytes,
                "chunks": s.chunks,
                "transfers": s.transfers,
                "credit_wait": s.credit_wait,
                "busy": s.busy,
            })
        return rows

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self._links.values())

    def __repr__(self) -> str:
        return (
            f"<TransferEngine links={len(self._links)} "
            f"bytes={self.total_bytes}>"
        )
