"""The replicated cluster serving tier.

PR 1-5 built one user-level storage stack per node; this module turns
the :class:`~repro.cluster.Cluster` container into a *serving fleet*:

* :class:`ClusterSpec` — the pay-for-use switch.  ``replicas=1`` with
  the balancer off (``is_flat``) makes DLFS construct the exact
  single-node datapath of previous PRs, bit-identically.
* :class:`ClusterState` — shared placement/liveness view: the
  :class:`~repro.cluster.hashring.ShardMap`, per-(shard, lane) device
  base offsets (replica co-hosting packs several shards onto one
  device), and the standby registrations produced by shard handoff.
* :class:`FrontEndBalancer` — per-client router: shard → live replica,
  preferring lanes whose node read cache already holds the span, then
  least-loaded, with a deterministic lane-id tie-break.  The residency
  peek stands in for the residency gossip a real fleet would run.
* :class:`NodeReadCache` — per-node serving cache (hugepage chunks,
  accounted in a :class:`~repro.hw.memory.ChunkLedger`); crash drops it
  (empty ledger on rejoin) and re-warm replays the pre-crash journal.
* :class:`ClusterLifecycle` — drives the seeded
  :attr:`FaultPlan.node_crashes` schedule: crash (target wedges, client
  qpairs torn down), shard handoff to a ring standby, rejoin (qpairs
  reconnect) and background cache re-warm.
* :class:`ClusterRuntime` — the minimal tenant runtime the traffic
  engine needs to drive live multi-tenant load through a balanced
  reactor (per-tenant SLO accounting, no SFQ/admission — the balancer
  is the arbiter in cluster mode).

Module-level imports stay below ``core``/``tenancy`` so the reader can
import the lifecycle messages without a cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..hw.memory import ChunkLedger
from ..spdk.request import align_up

__all__ = [
    "ClusterSpec",
    "ClusterState",
    "FrontEndBalancer",
    "NodeReadCache",
    "ClusterLifecycle",
    "ClusterRuntime",
    "NodeDown",
    "NodeUp",
    "fluid_bulk_shares",
]


def fluid_bulk_shares(lanes: int, weights=None) -> tuple:
    """Per-lane traffic fractions of the balancer's fluid model.

    The front-end balancer spreads steady-state bulk load evenly over
    live lanes (its residency/least-loaded preferences matter per
    request, not in aggregate), so the hybrid-fidelity engine charges
    each lane ``1/lanes`` of the cohort envelope — or a normalized
    ``weights`` vector when lanes are heterogeneous.
    """
    if lanes < 1:
        raise ConfigError(f"fluid_bulk_shares: lanes={lanes} < 1")
    if weights is None:
        return tuple(1.0 / lanes for _ in range(lanes))
    if len(weights) != lanes or any(w < 0 for w in weights):
        raise ConfigError("weights must be one non-negative value per lane")
    total = float(sum(weights))
    if total <= 0:
        raise ConfigError("weights must sum to > 0")
    return tuple(float(w) / total for w in weights)


@dataclass(frozen=True)
class ClusterSpec:
    """Configuration of the replicated serving tier (``config.cluster``)."""

    #: Replication factor R: each shard lives on R distinct nodes.
    replicas: int = 2
    #: Cache-aware front-end routing.  Off with ``replicas=1`` ⇒ the
    #: flat single-lane datapath (bit-identical to no cluster spec).
    balancer: bool = True
    #: Deadline after which a still-pending part is duplicated on
    #: another replica (hedged read); 0 disables hedging.
    hedge_delay: float = 0.0
    #: Crash-detection lag: time between a node dying and clients
    #: learning about it (membership/heartbeat propagation).
    detect_delay: float = 1e-3
    #: Per-node serving-cache capacity in hugepage chunks (0 = none).
    read_cache_chunks: int = 0
    #: Copy a dead node's shards to a ring standby while it is down.
    handoff: bool = True
    #: Handoff copy granularity, bytes.
    handoff_chunk_bytes: int = 1 << 20
    #: Replay the node read cache's journal after a rejoin.
    rewarm: bool = True

    def validate(self) -> None:
        if self.replicas < 1:
            raise ConfigError(
                f"cluster replication factor must be >= 1, got {self.replicas}"
            )
        if self.hedge_delay < 0:
            raise ConfigError(f"hedge_delay must be >= 0, got {self.hedge_delay}")
        if self.detect_delay < 0:
            raise ConfigError(
                f"detect_delay must be >= 0, got {self.detect_delay}"
            )
        if self.read_cache_chunks < 0:
            raise ConfigError(
                f"read_cache_chunks must be >= 0, got {self.read_cache_chunks}"
            )
        if self.handoff_chunk_bytes < 512 or self.handoff_chunk_bytes % 512:
            raise ConfigError(
                "handoff_chunk_bytes must be a positive multiple of 512"
            )

    @property
    def is_flat(self) -> bool:
        """No replication, no routing: the single-node datapath."""
        return self.replicas == 1 and not self.balancer


class NodeDown:
    """Reactor inbox message: lane's node crashed (detection instant)."""

    __slots__ = ("lane",)

    def __init__(self, lane: int) -> None:
        self.lane = lane


class NodeUp:
    """Reactor inbox message: lane's node rejoined the fleet."""

    __slots__ = ("lane",)

    def __init__(self, lane: int) -> None:
        self.lane = lane


class NodeReadCache:
    """Server-side read cache on one storage node.

    LRU over served ``(device_offset, nbytes)`` spans; capacity is
    accounted in a :class:`ChunkLedger` so a crash demonstrably resets
    the ledger (the rejoin-from-empty-ledger case) and re-warm recharges
    it.  A hit lets :meth:`NVMeoFTarget.serve_read` skip the device
    read entirely.
    """

    def __init__(self, name: str, capacity_chunks: int, chunk_size: int) -> None:
        if capacity_chunks < 1:
            raise ConfigError("read cache needs at least one chunk")
        if chunk_size < 1:
            raise ConfigError("read cache chunk_size must be >= 1")
        self.name = name
        self.capacity_chunks = capacity_chunks
        self.chunk_size = chunk_size
        self.ledger = ChunkLedger()
        self.ledger.set_quota(name, capacity_chunks)
        #: (offset, nbytes) -> chunk count, LRU order (oldest first).
        self._lru: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.crashes = 0
        #: Spans resident at the last crash — the re-warm worklist.
        self.journal: tuple = ()
        self.rewarmed_chunks = 0

    def _chunks(self, nbytes: int) -> int:
        return -(-nbytes // self.chunk_size)

    @property
    def used_chunks(self) -> int:
        return self.ledger.used(self.name)

    def peek(self, offset: int, nbytes: int) -> bool:
        """Residency check without LRU side effects (balancer routing)."""
        return (offset, nbytes) in self._lru

    def lookup(self, offset: int, nbytes: int) -> bool:
        """Serve-path check: hit bumps LRU, miss counts."""
        key = (offset, nbytes)
        if key in self._lru:
            self._lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, offset: int, nbytes: int) -> bool:
        need = self._chunks(nbytes)
        if need > self.capacity_chunks:
            return False  # oversized span: serve uncached
        key = (offset, nbytes)
        if key in self._lru:
            self._lru.move_to_end(key)
            return True
        while self.used_chunks + need > self.capacity_chunks:
            victim, held = self._lru.popitem(last=False)
            self.ledger.uncharge(self.name, held)
            self.evictions += 1
        self._lru[key] = need
        self.ledger.charge(self.name, need)
        return True

    def crash(self) -> None:
        """Power loss: contents gone, ledger reset, journal kept."""
        self.journal = tuple(self._lru)
        for held in self._lru.values():
            self.ledger.uncharge(self.name, held)
        self._lru.clear()
        self.crashes += 1

    def __repr__(self) -> str:
        return (
            f"<NodeReadCache {self.name!r} "
            f"{self.used_chunks}/{self.capacity_chunks} chunks>"
        )


class ClusterState:
    """Placement, liveness, and replica address translation.

    Shared by every client's balancer and the lifecycle driver, so a
    crash detected once re-routes everyone.  Address translation: all
    shards occupy the *same* layout range ``[base_offset, base_offset +
    shard_bytes)`` on their own device, so co-hosting R shards per
    device requires a per-(shard, lane) base.  Bases are 4096-aligned
    with a guard page between regions; ``delta()`` turns a layout
    offset into that lane's device offset with one addition.
    """

    def __init__(self, shard_map, layout, spec: ClusterSpec) -> None:
        self.shard_map = shard_map
        self.layout = layout
        self.spec = spec
        self.lanes = tuple(shard_map.nodes)
        self.alive = {lane: True for lane in self.lanes}
        #: shard -> handoff standby lane (at most one graft per shard).
        self._standby: dict[int, int] = {}
        self._base: dict[tuple, int] = {}
        self._devend: dict[int, int] = {}
        for lane in self.lanes:
            off = 0
            for s in shard_map.shards_on(lane):
                self._base[(s, lane)] = off
                off += self._stride(s)
            self._devend[lane] = off
        #: lane -> NodeReadCache, populated by DLFS when the spec asks.
        self.read_caches: dict[int, NodeReadCache] = {}

    def _stride(self, shard: int) -> int:
        # Guard page after each region: aligned_span may round a span's
        # start down up to 511 bytes past the region base.
        return align_up(
            self.layout.base_offset + self.layout.shard_bytes(shard), 4096
        ) + 4096

    def delta(self, shard: int, lane: int) -> int:
        """``device_offset = layout_offset + delta(shard, lane)``."""
        return self._base[(shard, lane)] - self.layout.base_offset

    def has_replica(self, shard: int, lane: int) -> bool:
        return (shard, lane) in self._base

    def alive_replicas(self, shard: int) -> list[int]:
        """Routable lanes for a shard: live replicas, then live standby."""
        lanes = [
            lane
            for lane in self.shard_map.replicas_of(shard)
            if self.alive[lane]
        ]
        standby = self._standby.get(shard)
        if standby is not None and self.alive.get(standby, False):
            lanes.append(standby)
        return lanes

    def mark_dead(self, lane: int) -> None:
        self.alive[lane] = False

    def mark_alive(self, lane: int) -> None:
        self.alive[lane] = True

    def graft(self, shard: int, lane: int) -> int:
        """Reserve device address space on ``lane`` for a handoff copy."""
        base = self._devend[lane]
        self._devend[lane] = base + self._stride(shard)
        self._base[(shard, lane)] = base
        return base

    def promote_standby(self, shard: int, lane: int) -> None:
        """Handoff copy finished: the standby becomes routable."""
        self._standby[shard] = lane

    def retire_standbys(self, lane: int) -> None:
        """A replica of these shards rejoined; drop their grafts."""
        for shard in self.shard_map.shards_on(lane):
            self._standby.pop(shard, None)

    def __repr__(self) -> str:
        dead = sorted(lane for lane in self.lanes if not self.alive[lane])
        return f"<ClusterState lanes={len(self.lanes)} dead={dead}>"


class FrontEndBalancer:
    """Per-client shard → replica router (cache-aware, least-loaded)."""

    def __init__(self, state: ClusterState, hedge_delay: float = 0.0) -> None:
        self.state = state
        self.hedge_delay = hedge_delay
        #: Outstanding fetches per lane (this client's view).
        self.loads = {lane: 0 for lane in state.lanes}
        #: Fetches ever routed per lane (render_cluster).
        self.routed = {lane: 0 for lane in state.lanes}
        self.failovers = 0
        self.cache_routed = 0

    # -- liveness / translation ----------------------------------------------
    def is_alive(self, lane: int) -> bool:
        return self.state.alive[lane]

    def delta(self, shard: int, lane: int) -> int:
        return self.state.delta(shard, lane)

    def mark_dead(self, lane: int) -> None:
        self.state.mark_dead(lane)

    def mark_alive(self, lane: int) -> None:
        self.state.mark_alive(lane)

    # -- routing ---------------------------------------------------------------
    def _pick(
        self, shard: int, offset: int, nbytes: int, exclude: Optional[int]
    ) -> Optional[int]:
        cands = [
            lane
            for lane in self.state.alive_replicas(shard)
            if lane != exclude
        ]
        if not cands:
            return None
        caches = self.state.read_caches
        if caches:
            resident = []
            for lane in cands:
                rc = caches.get(lane)
                if rc is None:
                    continue
                first = min(rc.chunk_size, nbytes)
                if rc.peek(offset + self.state.delta(shard, lane), first):
                    resident.append(lane)
            if resident:
                self.cache_routed += 1
                cands = resident
        return min(cands, key=lambda lane: (self.loads[lane], lane))

    def route(self, fetch) -> int:
        """Choose the lane for a new fetch (called once, at creation).

        With every replica dead the fetch *parks* on the shard's primary
        lane; it waits in that lane's ready queue until a replica
        returns (shutdown fails parked work via the drain path).
        """
        fetch.done_parts = set()
        fetch.hedged_parts = set()
        lane = self._pick(fetch.shard, fetch.offset, fetch.nbytes, None)
        if lane is None:
            lane = self.state.shard_map.primary(fetch.shard)
        self.loads[lane] += 1
        self.routed[lane] += 1
        return lane

    def reroute(self, fetch) -> bool:
        """Move a fetch off its (dead) lane; False when nowhere to go."""
        lane = self._pick(fetch.shard, fetch.offset, fetch.nbytes, fetch.lane)
        if lane is None:
            return False
        self.loads[fetch.lane] -= 1
        self.loads[lane] += 1
        self.routed[lane] += 1
        fetch.lane = lane
        self.failovers += 1
        return True

    def pick_hedge(self, fetch, exclude: int) -> Optional[int]:
        return self._pick(fetch.shard, fetch.offset, fetch.nbytes, exclude)

    def fetch_done(self, fetch) -> None:
        self.loads[fetch.lane] -= 1

    def __repr__(self) -> str:
        return f"<FrontEndBalancer loads={self.loads}>"


class _RecordingAccounting:
    """TenantAccounting wrapper that also timestamps every completion.

    The crash/rejoin benches need *windowed* latency percentiles (the
    victim window around a crash vs the no-crash baseline); the plain
    accounting only keeps whole-run histograms.
    """

    def __init__(self, inner, env) -> None:
        self._inner = inner
        self._env = env
        #: (t_done, tenant, latency, delivered, failed) per job.
        self.records: list[tuple] = []

    def on_job_done(self, tenant, latency, delivered, failed, nbytes) -> None:
        self.records.append(
            (self._env.now, tenant, latency, delivered, failed)
        )
        self._inner.on_job_done(tenant, latency, delivered, failed, nbytes)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ClusterRuntime:
    """Tenant runtime facade for cluster serving.

    The traffic engine needs ``submit(job) -> bool`` and an
    ``accounting`` with ``on_job_done``; in cluster mode there is no
    SFQ/admission stage (the balancer spreads load), so jobs go straight
    to the reactor and every submission is accepted.
    """

    def __init__(self, env, reactor, specs: tuple = (), registry=None) -> None:
        # Lazy import: tenancy pulls obs/metrics; keep cluster import-light.
        from ..tenancy.slo import TenantAccounting

        self.env = env
        self.reactor = reactor
        self.accounting = _RecordingAccounting(
            TenantAccounting(env, tuple(specs), registry=registry), env
        )

    def submit(self, job) -> bool:
        self.reactor.submit(job)
        return True

    @property
    def records(self) -> list:
        return self.accounting.records


class ClusterLifecycle:
    """Seeded node crash/rejoin driver: failover, handoff, re-warm.

    One process per :attr:`FaultPlan.node_crashes` entry:

    1. ``crash_time``: the target wedges (in-flight service hangs, new
       capsules black-hole) and the node's read cache is lost.
    2. ``+ detect_delay``: every registered reactor gets ``NodeDown``
       (qpair teardown, queued work re-routed) and — when the spec says
       so — each shard hosted by the dead lane is copied from a live
       replica to its ring standby, chunk by chunk over the fabric.
    3. ``rejoin_time``: the target serves again, reactors get
       ``NodeUp`` (qpair rejoin), standby grafts are retired, and the
       read cache re-warms from its journal in the background.

    A rejoin racing an unfinished handoff aborts the copy (checked at
    every chunk boundary) — the crash-during-handoff sanitizer case.
    """

    def __init__(
        self,
        env,
        state: ClusterState,
        spec: ClusterSpec,
        crashes: tuple,
        targets: dict,
        devices: dict,
        fabric,
        injector=None,
        tracer=None,
    ) -> None:
        from ..obs import NULL_TRACER

        self.env = env
        self.state = state
        self.spec = spec
        self.targets = targets
        self.devices = devices
        self.fabric = fabric
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Reactors to notify (clients register themselves).
        self.reactors: list = []
        self.crashes = 0
        self.rejoins = 0
        self.handoffs_started = 0
        self.handoffs_completed = 0
        self.handoffs_aborted = 0
        self.handoff_bytes = 0
        self.rewarms = 0
        #: Shards with a handoff copy in flight.  An aborting handoff only
        #: notices the rejoin at its next chunk boundary; without this guard
        #: a crash of the shard's other replica in that gap would graft the
        #: same (shard, standby) slot twice and the two aborts would race.
        self._handoff_live: set = set()
        for entry in crashes:
            lane, crash_time, rejoin_time = entry
            if lane not in self.state.alive:
                raise ConfigError(
                    f"fault plan crashes node {lane}, which hosts no shards "
                    f"(storage lanes: {sorted(self.state.alive)})"
                )
            env.process(
                self._lifecycle(lane, crash_time, rejoin_time),
                name=f"cluster.crash[{lane}]@{crash_time:g}",
            )

    def register(self, reactor) -> None:
        self.reactors.append(reactor)

    # -- the schedule ----------------------------------------------------------
    def _lifecycle(self, lane: int, crash_time: float, rejoin_time):
        if crash_time > self.env.now:
            yield self.env.timeout(crash_time - self.env.now)
        self._crash(lane)
        if self.spec.detect_delay > 0:
            yield self.env.timeout(self.spec.detect_delay)
        self._detect(lane)
        if rejoin_time is None:
            return
        if rejoin_time > self.env.now:
            yield self.env.timeout(rejoin_time - self.env.now)
        self._rejoin(lane)

    def _crash(self, lane: int) -> None:
        self.crashes += 1
        self.targets[lane].fail()
        rc = self.state.read_caches.get(lane)
        if rc is not None:
            rc.crash()
        if self.injector is not None:
            self.injector.record(self.env.now, f"node{lane}", "node_crash")
        if self.tracer.enabled:
            self.tracer.instant("node_crash", track="cluster", lane=lane)

    def _detect(self, lane: int) -> None:
        self.state.mark_dead(lane)
        for reactor in self.reactors:
            reactor.inbox.put_nowait(NodeDown(lane))
        if self.spec.handoff and self.spec.replicas > 1:
            for shard in self.state.shard_map.shards_on(lane):
                self.env.process(
                    self._handoff(shard, lane),
                    name=f"cluster.handoff[s{shard}<-{lane}]",
                )

    def _rejoin(self, lane: int) -> None:
        self.rejoins += 1
        self.targets[lane].restore()
        self.state.mark_alive(lane)
        self.state.retire_standbys(lane)
        for reactor in self.reactors:
            reactor.inbox.put_nowait(NodeUp(lane))
        if self.injector is not None:
            self.injector.record(self.env.now, f"node{lane}", "node_rejoin")
        if self.tracer.enabled:
            self.tracer.instant("node_rejoin", track="cluster", lane=lane)
        rc = self.state.read_caches.get(lane)
        if rc is not None and self.spec.rewarm and rc.journal:
            self.env.process(
                self._rewarm(lane, rc), name=f"cluster.rewarm[{lane}]"
            )

    # -- shard handoff ---------------------------------------------------------

    #: Every handoff a crash triggers would otherwise start at the crash
    #: instant — their first device commands (and, when two nodes die in
    #: the same tick, their liveness snapshots) would race at identical
    #: timestamps, and same-tick ordering is sanitizer-perturbed.  A
    #: shard-keyed stagger gives each copy its own start instant, after
    #: every same-tick crash event has settled (same idea as the traffic
    #: engine's WORKER_START_STAGGER).
    HANDOFF_START_STAGGER = 100e-9

    def _handoff(self, shard: int, dead_lane: int):
        """Copy a dead lane's shard to its ring standby, chunk by chunk."""
        yield self.env.timeout((shard + 1) * self.HANDOFF_START_STAGGER)
        sources = [
            lane
            for lane in self.state.shard_map.replicas_of(shard)
            if lane != dead_lane and self.state.alive[lane]
        ]
        standby = self.state.shard_map.standby(shard)
        if not sources or standby is None or not self.state.alive[standby]:
            return
        if self.state._standby.get(shard) == standby:
            return  # already grafted by an earlier crash
        if shard in self._handoff_live:
            return  # a copy for this shard is already in flight
        self._handoff_live.add(shard)
        src = sources[0]
        span = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "cluster.handoff", track="cluster", cat="cluster",
                shard=shard, src=src, dst=standby,
            )
        self.handoffs_started += 1
        src_base = self.state._base[(shard, src)]
        dst_base = self.state.graft(shard, standby)
        total = align_up(self.state.layout.shard_bytes(shard), 512)
        src_dev = self.devices[src]
        dst_dev = self.devices[standby]
        src_host = self.targets[src].host
        dst_host = self.targets[standby].host
        copied = 0
        while copied < total:
            if self.state.alive[dead_lane]:
                # Rejoin won the race: abort, roll the graft back.
                self.handoffs_aborted += 1
                self._handoff_live.discard(shard)
                del self.state._base[(shard, standby)]
                if span is not None:
                    span.finish(status="aborted_rejoin")
                return
            step = min(self.spec.handoff_chunk_bytes, total - copied)
            step = align_up(step, 512)
            cmd = src_dev.read(src_base + copied, step)
            yield cmd.completion
            yield from self.fabric.transfer(src_host, dst_host, step)
            cmd = dst_dev.write(dst_base + copied, step)
            yield cmd.completion
            copied += step
            self.handoff_bytes += step
        self.state.promote_standby(shard, standby)
        self._handoff_live.discard(shard)
        self.handoffs_completed += 1
        if span is not None:
            span.finish(status="ok")
        if self.injector is not None:
            self.injector.record(
                self.env.now, f"shard{shard}", "handoff_complete"
            )

    # -- cache re-warm ----------------------------------------------------------
    def _rewarm(self, lane: int, rc: NodeReadCache):
        """Replay the pre-crash journal into the (empty) read cache."""
        self.rewarms += 1
        device = self.devices[lane]
        for offset, nbytes in rc.journal:
            if not self.state.alive[lane]:
                return  # crashed again mid-warm
            cmd = device.read(offset, align_up(nbytes, 512))
            yield cmd.completion
            if rc.insert(offset, nbytes):
                rc.rewarmed_chunks += rc._chunks(nbytes)
        if self.tracer.enabled:
            self.tracer.instant(
                "cache_rewarmed", track="cluster", lane=lane,
                chunks=rc.rewarmed_chunks,
            )

    def counters(self) -> dict:
        return {
            "crashes": self.crashes,
            "rejoins": self.rejoins,
            "handoffs_started": self.handoffs_started,
            "handoffs_completed": self.handoffs_completed,
            "handoffs_aborted": self.handoffs_aborted,
            "handoff_bytes": self.handoff_bytes,
            "rewarms": self.rewarms,
        }
