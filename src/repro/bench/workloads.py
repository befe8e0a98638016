"""Reusable experiment drivers for the figure benchmarks.

Every driver builds a fresh deterministic simulation, runs a measured
steady-state window (after warm-up), and returns plain numbers.  The
figure modules (:mod:`repro.bench.figures`) compose these into the
paper's tables and series.

Scale note: the paper's runs push millions of samples; the drivers
default to a few thousand per node, which is past the point where the
simulated steady-state throughput stops changing (the simulator has no
long-horizon drift), and keep wall-clock time per figure in seconds.
Every driver takes explicit counts so a user can crank them up.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ..cluster import Cluster, ClusterRuntime, ClusterSpec
from ..core import DLFS, DLFSConfig
from ..data import Dataset
from ..errors import ConfigError
from ..faults import FaultPlan, RecoveryPolicy
from ..hw import BoundThread, Testbed
from ..kernelfs import Ext4FileSystem
from ..octopus import OctopusFS
from ..sim import Environment
from ..sim import rng as sim_rng
from ..train import (
    DLFSTFAdapter,
    Ext4TFAdapter,
    OctopusTFAdapter,
    TFIngestSpec,
)

__all__ = [
    "dlfs_single_node",
    "ext4_single_node",
    "dlfs_multi_node",
    "ext4_multi_node",
    "octopus_multi_node",
    "dlfs_lookup_time",
    "ext4_open_time",
    "octopus_lookup_time",
    "dlfs_disaggregated",
    "tf_ingest_throughput",
    "dlfs_chaos",
    "dlfs_observed",
    "dlfs_tenancy",
    "dlfs_cluster",
    "dlfs_xform",
    "demo_tenants",
    "fair_tenants",
    "cluster_tenants",
    "Result",
    "RunReport",
]

DEFAULT_SEED = 42


@dataclass(frozen=True)
class Result:
    """One measured run."""

    #: Samples per second (aggregate over all clients).
    sample_throughput: float
    #: Payload bytes per second (aggregate).
    bandwidth: float
    #: Mean utilization of the busiest client core (1.0 = pegged).
    cpu_utilization: float = 0.0
    #: Simulated seconds of the measured window.
    sim_time: float = 0.0


@dataclass(frozen=True, kw_only=True)
class RunReport:
    """One run of a DLFS epoch or serving driver.

    :func:`dlfs_chaos`, :func:`dlfs_observed`, :func:`dlfs_tenancy`,
    :func:`dlfs_cluster` and :func:`dlfs_xform` all return this type.  A
    field a driver does not fill stays ``None``.  Field order is the key
    order of :meth:`summary`.
    """

    #: Samples delivered across all clients and tenants.
    delivered: int
    #: Samples lost to unrecoverable faults (graceful degradation).
    failed: int
    #: Samples the epochs asked for (chaos): must equal delivered + failed.
    expected: Optional[int] = None
    #: Jobs bounced by admission control (tenancy).
    rejected_jobs: Optional[int] = None
    #: Jobs completed across all traffic engines (cluster, xform).
    jobs: Optional[int] = None
    #: Simulated seconds.  Chaos: the application window only (the
    #: epochs), without the teardown and trailing-timer drain.  Observed,
    #: tenancy, cluster and xform: the final ``env.now``, after the
    #: drain and teardown.
    sim_time: float
    #: Delivered samples per simulated second.  Chaos and observed
    #: divide by the application window; the serving drivers by
    #: ``sim_time``.
    sample_throughput: float
    #: Injected fault counts per (site, kind) from the shared injector
    #: (chaos).
    fault_counts: Optional[dict] = None
    #: Fraction of device-service bytes per tenant over the measured
    #: window ``[warmup, horizon]`` (tenancy).  This is the SFQ fairness
    #: metric: job-level bytes over-credit backlogged tenants whose jobs
    #: dedup onto already-pending fetches.
    service_shares: Optional[dict] = None
    #: Device-service byte deltas behind ``service_shares``.
    service_bytes: Optional[dict] = None
    #: Scheduler counters: preemptions, forced (anti-starvation) serves
    #: (tenancy).
    preemptions: Optional[int] = None
    forced_serves: Optional[int] = None
    #: Per-tenant rows snapshotted at the arrival-horizon edge, while the
    #: system is still saturated (tenancy).  Whole-run shares equalize
    #: during the drain, so fairness is only visible in this window.
    window_rows: Optional[tuple] = None
    #: Balancer counters merged across clients: per-lane ``routed``
    #: totals plus ``failovers`` and ``cache_routed`` (cluster, xform).
    balancer: Optional[dict] = None
    #: Recovery accounting (:meth:`repro.sim.RecoveryStats.as_dict`)
    #: summed per key over every client's reactor, keys in first-seen
    #: order.  Chaos: seeded with ``degraded_time: 0.0``, so that key
    #: always comes first.  Observed and tenancy: the datapath retry,
    #: reset and media-error counters.  Cluster and xform: the same plus
    #: the failover counters (failovers, hedges_posted, node_down/up).
    recovery: Optional[dict] = None
    #: Node lifecycle counters (crashes, rejoins, handoffs, rewarms);
    #: empty when no crash schedule was installed (cluster, xform).
    lifecycle: Optional[dict] = None
    #: Transform-tier counters (tasks, direct_ships, redispatches,
    #: crashes, rejoins, boundary, stages); empty when the tier is off.
    tier: Optional[dict] = None
    #: TransferEngine per-link attribution rows; empty when xform is off.
    links: Optional[tuple] = None
    #: Per-tier CPU utilization rows (storage pushdown cores + transform
    #: workers); empty when xform is off.
    utilization: Optional[tuple] = None
    #: Per-transform-lane routed task counts; empty when xform is off.
    routed: Optional[dict] = None
    #: Per-tenant accounting rows at the end of the run.  Cluster and
    #: xform merge them across clients: counts sum, p50/p99 come from
    #: the merged completion records, the transform-queue wait p99 from
    #: the merged wait histograms.
    per_tenant: Optional[tuple] = None
    #: Delivered sample indices, the determinism witness.  Observed: in
    #: delivery order per client.  Serving drivers: every completed
    #: job's indices in (client, tenant, job-key) order, independent of
    #: completion order.
    samples_read: Optional[np.ndarray] = None
    #: Every job completion as ``(t_done, tenant, latency, delivered,
    #: failed)``, merged over all clients and sorted (cluster, xform):
    #: the raw material for windowed (victim-window) percentiles.
    records: Optional[tuple] = None
    #: The :class:`repro.obs.Observability` bundle (null objects unless
    #: metrics/trace are on).
    obs: object = None
    #: Reactor lane names, for per-lane latency attribution (observed).
    reactor_names: Optional[tuple] = None

    @property
    def accounted(self) -> bool:
        """Does the error accounting sum up exactly?"""
        return self.delivered + self.failed == self.expected

    def summary(self) -> dict:
        """The filled fields as one JSON-able dict, without the sample
        order, the completion records and the obs bundle; ``accounted``
        follows ``expected`` when that is set."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or f.name in ("samples_read", "records", "obs"):
                continue
            out[f.name] = value
            if f.name == "expected":
                out["accounted"] = self.accounted
        return out


def _bread_rolling(client, batch: int, state: dict):
    """bread() with automatic epoch rollover (as a training loop has).

    Chunk-mode epochs are partitioned by *chunk*, so per-rank sample
    counts vary slightly; long measured windows simply roll into the
    next epoch with a fresh seed.
    """
    if client.epoch_remaining == 0:
        state["epoch"] = state.get("epoch", 0) + 1
        client.sequence(seed=DEFAULT_SEED + state["epoch"])
    count = min(batch, client.epoch_remaining)
    samples = yield from client.bread(count)
    return samples


def _dataset(num_samples: int, sample_bytes: int) -> Dataset:
    return Dataset.fixed("bench", num_samples, sample_bytes, seed=DEFAULT_SEED)


def _clients(fs, cluster, num_clients: int) -> list:
    """One client per rank, rank ``r`` on node ``r``."""
    return [
        fs.client(rank=r, num_ranks=num_clients, node=cluster.node(r))
        for r in range(num_clients)
    ]


def _mount(testbed, num_nodes: int, ds, config, storage: tuple = (), **kw):
    """A fresh environment and cluster with DLFS mounted on it.

    Every node carries one NVMe device, unless ``storage=(first,
    count)`` names the only nodes that do; the dataset is then placed on
    those (the Fig 11 disaggregated topology).  ``kw`` goes to
    :class:`Cluster`.
    """
    env = Environment()
    cluster = Cluster(
        env, testbed, num_nodes=num_nodes,
        devices_per_node=0 if storage else 1, **kw,
    )
    placement = None
    if storage:
        first, count = storage
        placement = []
        for d in range(count):
            node = cluster.node(first + d)
            node.add_device()
            placement.append((node.index, 0))
    return env, cluster, DLFS.mount(cluster, ds, config, placement=placement)


def _measure(env, clients, warmup_batches: int, batches: int, batch: int):
    """Read ``warmup_batches`` per client, start the read meters, read
    ``batches`` more; returns (samples/s, bytes/s) over all clients."""
    for c in clients:
        c.sequence(seed=DEFAULT_SEED)

    def app(env, client):
        state = {}
        for _ in range(warmup_batches):
            yield from _bread_rolling(client, batch, state)
        client.reactor.read_meter.start()
        for _ in range(batches):
            yield from _bread_rolling(client, batch, state)

    procs = [env.process(app(env, c), name=f"app{c.rank}") for c in clients]
    env.run(until=env.all_of(procs))
    return (
        sum(c.sample_throughput() for c in clients),
        sum(c.bandwidth() for c in clients),
    )


def _merge_recovery(clients, merged: Optional[dict] = None) -> dict:
    """Sum every client's recovery accounting per key into ``merged``."""
    merged = {} if merged is None else merged
    for c in clients:
        for key, value in c.recovery_stats.as_dict().items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _teardown(env, clients, name: str) -> None:
    """Shut every client down in one process, then drain trailing
    timers (watchdogs, reset drivers)."""

    def teardown(env):
        for c in clients:
            yield from c.shutdown()

    env.run(until=env.process(teardown(env), name=name))
    env.run()


def _run_epochs(env, clients, app, name: str) -> float:
    """Run ``app(env, client)`` on every client to completion, then tear
    down; returns the application window's end time."""
    procs = [env.process(app(env, c), name=f"{name}{c.rank}") for c in clients]
    env.run(until=env.all_of(procs))
    app_time = env.now
    _teardown(env, clients, f"{name}.teardown")
    return app_time


# ---------------------------------------------------------------------------
# Single-node drivers (Fig 6, Fig 7)
# ---------------------------------------------------------------------------

def dlfs_single_node(
    sample_bytes: int,
    mode: str = "chunk",
    batches: int = 40,
    batch: int = 32,
    warmup_batches: int = 4,
    cores: int = 1,
    injected_compute: float = 0.0,
    queue_depth: int = 128,
    window: int = 8,
    chunk_bytes: int = 256 * 1024,
    copy_cores: tuple = (),
    testbed: Optional[Testbed] = None,
) -> Result:
    """Random-sample read throughput on one node with the real device.

    ``cores > 1`` runs that many independent DLFS reactors (one per
    core, own qpair each) splitting the workload — the paper's
    one-thread-per-core scaling discipline (Fig 7a).
    """
    total = cores * (batches + warmup_batches) * batch
    ds = _dataset(max(2 * total, 2000), sample_bytes)
    config = DLFSConfig(
        batching=mode, queue_depth=queue_depth, window=window,
        injected_compute=injected_compute, copy_cores=copy_cores,
    )
    env, cluster, fs = _mount(
        testbed or Testbed.paper(), 1, ds, config,
        hugepage_chunk_size=chunk_bytes,
    )
    clients = [
        fs.client(rank=r, num_ranks=cores, node=cluster.node(0), core_index=r)
        for r in range(cores)
    ]
    throughput, bandwidth = _measure(
        env, clients, warmup_batches, batches, batch
    )
    busiest = max(
        cluster.node(0).cpu.core(r).utilization() for r in range(cores)
    )
    return Result(throughput, bandwidth, busiest, env.now)


def ext4_single_node(
    sample_bytes: int,
    threads: int = 1,
    reads_per_thread: int = 250,
    warmup_per_thread: int = 20,
    warm_metadata: bool = True,
    testbed: Optional[Testbed] = None,
) -> Result:
    """Ext4 random-sample throughput: Ext4-Base (1 thread) / Ext4-MC."""
    env = Environment()
    tb = testbed or Testbed.paper()
    cluster = Cluster(env, tb, num_nodes=1, devices_per_node=1)
    node = cluster.node(0)
    total = threads * (reads_per_thread + warmup_per_thread)
    ds = _dataset(total + 64, sample_bytes)
    fs = Ext4FileSystem(env, node.device)
    fs.ingest_dataset(ds)
    if warm_metadata:
        fs.warm_metadata()
    order = sim_rng("bench.ext4.order", DEFAULT_SEED).permutation(ds.num_samples)
    measured_reads = 0
    t_start = [None]

    def worker(env, tid):
        nonlocal measured_reads
        thread = BoundThread(node.cpu.core(tid % len(node.cpu)), f"t{tid}")
        contention = tb.os.smp_contention_per_thread * (threads - 1)
        base = tid * (reads_per_thread + warmup_per_thread)
        for k in range(reads_per_thread + warmup_per_thread):
            if k == warmup_per_thread and t_start[0] is None:
                t_start[0] = env.now
            idx = int(order[base + k])
            yield from thread.run(contention)
            yield from fs.read_sample(thread, ds.sample_name(idx))
            if k >= warmup_per_thread:
                measured_reads += 1

    procs = [env.process(worker(env, t)) for t in range(threads)]
    env.run(until=env.all_of(procs))
    elapsed = env.now - (t_start[0] or 0.0)
    throughput = measured_reads / elapsed
    util = max(core.utilization() for core in node.cpu.cores)
    return Result(throughput, throughput * sample_bytes, util, elapsed)


# ---------------------------------------------------------------------------
# Multi-node drivers (Fig 8, Fig 9)
# ---------------------------------------------------------------------------

def dlfs_multi_node(
    num_nodes: int,
    sample_bytes: int,
    batches_per_node: int = 25,
    batch: int = 32,
    warmup_batches: int = 3,
    mode: str = "chunk",
) -> Result:
    """Aggregated DLFS throughput: one client per node, one emulated
    NVMe device per node, samples spread over all devices."""
    per_node = (batches_per_node + warmup_batches) * batch
    ds = _dataset(max(2 * num_nodes * per_node, 4000), sample_bytes)
    env, cluster, fs = _mount(
        Testbed.paper_emulated(), num_nodes, ds, DLFSConfig(batching=mode)
    )
    throughput, bandwidth = _measure(
        env, _clients(fs, cluster, num_nodes), warmup_batches,
        batches_per_node, batch,
    )
    util = max(n.cpu.core(0).utilization() for n in cluster)
    return Result(throughput, bandwidth, util, env.now)


def ext4_multi_node(
    num_nodes: int,
    sample_bytes: int,
    reads_per_node: int = 300,
    warmup_per_node: int = 20,
) -> Result:
    """Ext4 reads its node-local data (the paper's Ext4 configuration:
    datasets replicated/partitioned onto local burst buffers)."""
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    per_node = reads_per_node + warmup_per_node
    measured = 0
    t_start = [None]
    filesystems = []
    for node in cluster:
        ds = Dataset.fixed(
            f"bench{node.index}", per_node + 32, sample_bytes,
            seed=DEFAULT_SEED + node.index,
        )
        fs = Ext4FileSystem(env, node.device)
        fs.ingest_dataset(ds)
        fs.warm_metadata()
        filesystems.append((node, fs, ds))

    def worker(env, node, fs, ds):
        nonlocal measured
        thread = BoundThread(node.cpu.core(0), f"{node.name}.t0")
        order = sim_rng(
            f"bench.ext4.order.{node.index}", DEFAULT_SEED + node.index
        ).permutation(ds.num_samples)
        for k in range(per_node):
            if k == warmup_per_node and t_start[0] is None:
                t_start[0] = env.now
            yield from fs.read_sample(thread, ds.sample_name(int(order[k])))
            if k >= warmup_per_node:
                measured += 1

    procs = [env.process(worker(env, *f)) for f in filesystems]
    env.run(until=env.all_of(procs))
    elapsed = env.now - (t_start[0] or 0.0)
    throughput = measured / elapsed
    return Result(throughput, throughput * sample_bytes, 0.0, elapsed)


def octopus_multi_node(
    num_nodes: int,
    sample_bytes: int,
    reads_per_node: int = 250,
    warmup_per_node: int = 15,
) -> Result:
    """Octopus aggregated throughput: one client per node, distributed
    metadata + RDMA data reads."""
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    per_node = reads_per_node + warmup_per_node
    ds = _dataset(max(2 * num_nodes * per_node, 2000), sample_bytes)
    fs = OctopusFS(cluster)
    fs.mount(ds)
    order = sim_rng("bench.octopus.order", DEFAULT_SEED).permutation(ds.num_samples)
    measured = 0
    t_start = [None]

    def worker(env, rank):
        nonlocal measured
        base = rank * per_node
        for k in range(per_node):
            if k == warmup_per_node and t_start[0] is None:
                t_start[0] = env.now
            yield from fs.read_sample(rank, int(order[base + k]))
            if k >= warmup_per_node:
                measured += 1

    procs = [env.process(worker(env, r)) for r in range(num_nodes)]
    env.run(until=env.all_of(procs))
    elapsed = env.now - (t_start[0] or 0.0)
    throughput = measured / elapsed
    return Result(throughput, throughput * sample_bytes, 0.0, elapsed)


# ---------------------------------------------------------------------------
# Lookup-time drivers (Fig 10)
# ---------------------------------------------------------------------------

def dlfs_lookup_time(
    num_nodes: int,
    total_samples: int = 1_000_000,
    sample_bytes: int = 512,
    measured_lookups_per_node: int = 1500,
) -> float:
    """Total time for the cluster to look up ``total_samples`` samples.

    Each node resolves its share (total/num_nodes) through its directory
    replica.  A sampled subset runs in the simulator; the per-lookup
    mean is scaled to the full share (lookup cost has no queue effects —
    it is pure local CPU — so the extrapolation is exact).
    """
    # Directory scale matters (tree height); data volume does not.
    ds = _dataset(total_samples, sample_bytes)
    env, cluster, fs = _mount(
        Testbed.paper_emulated(), num_nodes, ds, DLFSConfig(batching="none")
    )
    [client] = _clients(fs, cluster, 1)
    share = total_samples // num_nodes
    count = min(measured_lookups_per_node, share)
    rng = sim_rng("bench.lookup.targets", DEFAULT_SEED)
    targets = rng.integers(0, total_samples, count)

    def app(env):
        from repro.core import LookupJob

        t0 = env.now
        for idx in targets:
            job = LookupJob(done=env.event(), index=int(idx))
            client.reactor.submit(job)
            yield job.done
        return (env.now - t0) / count

    per_lookup = env.run(until=env.process(app(env)))
    return per_lookup * share


def ext4_open_time(
    num_nodes: int,
    total_samples: int = 1_000_000,
    sample_bytes: int = 512,
    measured_opens_per_node: int = 400,
) -> float:
    """Ext4 equivalent: cold file-open time for each node's share."""
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=1, devices_per_node=1
    )
    node = cluster.node(0)
    share = total_samples // num_nodes
    count = min(measured_opens_per_node, share)
    ds = _dataset(count + 16, sample_bytes)
    fs = Ext4FileSystem(env, node.device)
    fs.ingest_dataset(ds)  # cold caches: every open pays the full walk
    thread = BoundThread(node.cpu.core(0), "opens")

    def app(env):
        t0 = env.now
        for i in range(count):
            fd = yield from fs.open(thread, ds.sample_name(i))
            yield from fs.close(thread, fd)
        return (env.now - t0) / count

    per_open = env.run(until=env.process(app(env)))
    return per_open * share


def octopus_lookup_time(
    num_nodes: int,
    total_samples: int = 1_000_000,
    sample_bytes: int = 512,
    measured_lookups_per_node: int = 400,
) -> float:
    """Octopus lookup time: concurrent clients, distributed metadata.

    All nodes look up concurrently (contention on the serialized
    metadata services is part of the measurement); returns the time for
    the slowest node's share.
    """
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    share = total_samples // num_nodes
    count = min(measured_lookups_per_node, share)
    ds = _dataset(max(num_nodes * count, 1000), sample_bytes)
    fs = OctopusFS(cluster)
    fs.mount(ds)
    rng = sim_rng("bench.octopus.lookup", DEFAULT_SEED)
    per_node_time = []

    def worker(env, rank):
        targets = rng.integers(0, ds.num_samples, count)
        t0 = env.now
        for idx in targets:
            yield from fs.lookup(rank, int(idx))
        per_node_time.append((env.now - t0) / count)

    procs = [env.process(worker(env, r)) for r in range(num_nodes)]
    env.run(until=env.all_of(procs))
    return max(per_node_time) * share


# ---------------------------------------------------------------------------
# Disaggregation-effectiveness driver (Fig 11)
# ---------------------------------------------------------------------------

def dlfs_disaggregated(
    num_devices: int,
    num_clients: int,
    sample_bytes: int = 128 * 1024,
    batches_per_client: int = 25,
    batch: int = 32,
    warmup_batches: int = 3,
    window: Optional[int] = None,
) -> Result:
    """Clients on compute nodes, devices on separate storage nodes.

    The topology of Fig 11: ``num_clients`` compute nodes access
    ``num_devices`` NVMe devices hosted on dedicated storage nodes over
    NVMe-oF.
    """
    per_client = (batches_per_client + warmup_batches) * batch
    ds = _dataset(
        max(2 * num_clients * per_client, num_devices * 512, 4000),
        sample_bytes,
    )
    if window is None:
        # A client fanning out over many devices needs a deeper chunk
        # pipeline to keep every qpair busy (one window share each).
        window = max(8, 8 * num_devices // max(num_clients, 1))
    env, cluster, fs = _mount(
        Testbed.paper_emulated(), num_clients + num_devices, ds,
        DLFSConfig(batching="chunk", window=window),
        storage=(num_clients, num_devices),
    )
    throughput, bandwidth = _measure(
        env, _clients(fs, cluster, num_clients), warmup_batches,
        batches_per_client, batch,
    )
    return Result(throughput, bandwidth, 0.0, env.now)


def ideal_disaggregated_throughput(
    num_devices: int, num_clients: int, sample_bytes: int,
    testbed: Optional[Testbed] = None,
) -> float:
    """The paper's analytic NVMe-1C / NVMe-16C curves (Fig 11).

    Aggregate device bandwidth divided by sample size, capped by the
    clients' total NIC bandwidth once devices outnumber what the client
    links can absorb (the paper's rule: with one client, the network
    bottlenecks past 2 devices).
    """
    tb = testbed or Testbed.paper_emulated()
    device_bw = num_devices * tb.nvme.read_bandwidth
    client_bw = num_clients * tb.network.bandwidth
    return min(device_bw, client_bw) / sample_bytes


# ---------------------------------------------------------------------------
# Chaos driver (fault injection + recovery)
# ---------------------------------------------------------------------------

def dlfs_chaos(
    fault_plan: FaultPlan,
    recovery: Optional[RecoveryPolicy] = None,
    num_nodes: int = 2,
    sample_bytes: int = 4 * 1024,
    num_samples: int = 1024,
    epochs: int = 2,
    batch: int = 32,
    mode: str = "chunk",
    seed: int = DEFAULT_SEED,
    queue_depth: int = 128,
    testbed: Optional[Testbed] = None,
) -> RunReport:
    """Full-epoch DLFS run under a fault plan, with strict accounting.

    Unlike the steady-state figure drivers this runs *complete* epochs
    (every sample demanded exactly once per epoch) and then shuts the
    clients down, so the invariant ``delivered + failed == expected``
    is checkable — the ISSUE's acceptance bar for graceful degradation.
    """
    config = DLFSConfig(
        batching=mode, queue_depth=queue_depth,
        fault_plan=fault_plan, recovery=recovery,
    )
    env, cluster, fs = _mount(
        testbed or Testbed.paper_emulated(), num_nodes,
        _dataset(num_samples, sample_bytes), config,
    )
    clients = _clients(fs, cluster, num_nodes)
    expected = [0] * num_nodes

    def app(env, client):
        for e in range(epochs):
            client.sequence(seed=seed + e)
            while client.epoch_remaining > 0:
                count = min(batch, client.epoch_remaining)
                samples = yield from client.bread(count)
                expected[client.rank] += len(samples)

    # Measure over the application window; the teardown drain only lets
    # trailing recovery timers (watchdogs, reset drivers) expire.
    app_time = _run_epochs(env, clients, app, "chaos")
    delivered = sum(c.samples_delivered for c in clients)
    return RunReport(
        sample_throughput=delivered / app_time if app_time > 0 else 0.0,
        delivered=delivered,
        failed=sum(c.failed_samples for c in clients),
        expected=sum(expected),
        sim_time=app_time,
        recovery=_merge_recovery(clients, {"degraded_time": 0.0}),
        fault_counts=(
            fs.injector.counts.as_dict() if fs.injector is not None else {}
        ),
    )


# ---------------------------------------------------------------------------
# Observed driver (tracing + metrics + latency attribution)
# ---------------------------------------------------------------------------

def dlfs_observed(
    samples: int = 2000,
    sample_bytes: int = 16 * 1024,
    batch: int = 32,
    mode: str = "chunk",
    num_nodes: int = 1,
    trace: bool = True,
    metrics: bool = True,
    snapshot_period: float = 0.0,
    fault_plan: Optional[FaultPlan] = None,
    recovery: Optional[RecoveryPolicy] = None,
    seed: int = DEFAULT_SEED,
    queue_depth: int = 128,
    testbed: Optional[Testbed] = None,
) -> RunReport:
    """One DLFS run with the observability subsystem attached.

    Drives ``samples`` total sample reads (rolling over epochs as a
    training loop does), then shuts the clients down cleanly.  With
    ``trace``/``metrics`` off this is the exact same simulation — the
    returned ``samples_read`` order and ``sim_time`` are bit-identical,
    which is what the determinism test in ``tests/test_obs.py`` checks.
    """
    config = DLFSConfig(
        batching=mode, queue_depth=queue_depth,
        fault_plan=fault_plan, recovery=recovery,
        trace=trace, metrics=metrics, snapshot_period=snapshot_period,
    )
    env, cluster, fs = _mount(
        testbed or (Testbed.paper() if num_nodes == 1 else Testbed.paper_emulated()),
        num_nodes, _dataset(max(2 * samples, 2000), sample_bytes), config,
    )
    clients = _clients(fs, cluster, num_nodes)
    for c in clients:
        c.sequence(seed=seed)
    per_client = samples // num_nodes
    read_log: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * num_nodes

    def app(env, client):
        state = {}
        done = 0
        chunks = []
        while done < per_client:
            got = yield from _bread_rolling(
                client, min(batch, per_client - done), state
            )
            chunks.append(np.asarray(got, dtype=np.int64))
            done += len(got)
        read_log[client.rank] = np.concatenate(chunks)

    app_time = _run_epochs(env, clients, app, "obs")
    delivered = sum(c.samples_delivered for c in clients)
    return RunReport(
        sample_throughput=delivered / app_time if app_time > 0 else 0.0,
        delivered=delivered,
        failed=sum(c.failed_samples for c in clients),
        sim_time=env.now,
        samples_read=np.concatenate(read_log),
        obs=fs.obs,
        reactor_names=tuple(c.reactor.name for c in clients),
        recovery=_merge_recovery(clients),
    )


# ---------------------------------------------------------------------------
# Multi-tenant serving driver
# ---------------------------------------------------------------------------

def demo_tenants() -> tuple:
    """The reference three-tenant mix: ``(specs, workloads)``.

    Two closed-loop training tenants with 2:1 weights (concurrency 4
    keeps each trainer backlogged at the scheduler, so the weighted
    share is actually realized) plus one bursty
    open-loop scan tenant that is rate-limited by a token bucket, runs
    at a lower priority class, and is capped to a quarter of the sample
    cache and half of each qpair's depth — the configuration the
    example, the ``serve`` CLI, and the perfcheck workload all share.
    Sample ranges are disjoint thirds of a 3072-sample dataset.
    """
    from ..tenancy import TenantSpec, TenantWorkload

    specs = (
        TenantSpec(name="train_a", weight=2.0, slo_latency=5e-3),
        TenantSpec(name="train_b", weight=1.0, slo_latency=5e-3),
        TenantSpec(
            name="scan", weight=1.0, priority=2, rate=4000.0, burst=256.0,
            max_queued_jobs=32, cache_share=0.25, qpair_share=0.5,
        ),
    )
    workloads = (
        TenantWorkload(
            name="train_a", kind="train", batch=16, concurrency=4,
            sample_lo=0, sample_hi=1024,
        ),
        TenantWorkload(
            name="train_b", kind="train", batch=16, concurrency=4,
            sample_lo=1024, sample_hi=2048,
        ),
        TenantWorkload(
            name="scan", kind="bursty", rate=300.0, batch=32,
            sample_lo=2048, sample_hi=3072,
        ),
    )
    return specs, workloads


def fair_tenants(
    weights: tuple = (1.0, 2.0, 4.0),
    rate: float = 20000.0,
    span: int = 1024,
    batch: int = 8,
) -> tuple:
    """A saturating fairness mix: ``(specs, workloads)``.

    One open-loop Poisson tenant per weight, all offering the *same*
    load (``rate`` jobs/s of ``batch`` samples) over disjoint ranges, so
    under saturation the achieved device-service shares are set purely
    by the SFQ weights.
    """
    from ..tenancy import TenantSpec, TenantWorkload

    specs = tuple(
        TenantSpec(name=f"t{i}w{w:g}", weight=float(w))
        for i, w in enumerate(weights)
    )
    workloads = tuple(
        TenantWorkload(
            name=s.name, kind="poisson", rate=rate, batch=batch,
            sample_lo=i * span, sample_hi=(i + 1) * span,
        )
        for i, s in enumerate(specs)
    )
    return specs, workloads


def dlfs_tenancy(
    specs: Optional[tuple] = None,
    workloads: Optional[tuple] = None,
    num_samples: int = 3072,
    sample_bytes: int = 16 * 1024,
    horizon: float = 0.05,
    warmup: float = 0.01,
    seed: int = DEFAULT_SEED,
    queue_depth: int = 32,
    hugepage_bytes: int = 16 * 1024 * 1024,
    metrics: bool = False,
    trace: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    recovery: Optional[RecoveryPolicy] = None,
    max_bypass: int = 8,
    testbed: Optional[Testbed] = None,
) -> RunReport:
    """One multi-tenant serving run on a single node.

    Defaults to :func:`demo_tenants`.  The testbed's hugepage pool is
    shrunk (16 MB ≫ one batch, ≪ the dataset) so the run is I/O-bound:
    with the whole dataset cache-resident, hits bypass the scheduler and
    fairness becomes unmeasurable.  ``warmup``/``horizon`` bound the
    service-share measurement window; arrivals stop at ``horizon`` and
    the run then drains every outstanding job and shuts down cleanly.
    """
    import dataclasses

    from ..tenancy import TrafficEngine

    if (specs is None) != (workloads is None):
        raise ConfigError("pass both specs and workloads, or neither")
    if specs is None:
        specs, workloads = demo_tenants()
    if not 0.0 <= warmup < horizon:
        raise ConfigError("need 0 <= warmup < horizon")
    tb = testbed or Testbed.paper()
    if hugepage_bytes:
        tb = dataclasses.replace(tb, hugepage_bytes=hugepage_bytes)
    ds = _dataset(num_samples, sample_bytes)
    config = DLFSConfig(
        batching="sample", queue_depth=queue_depth, tenants=tuple(specs),
        tenancy_max_bypass=max_bypass, trace=trace, metrics=metrics,
        fault_plan=fault_plan, recovery=recovery,
    )
    env, cluster, fs = _mount(tb, 1, ds, config)
    [client] = _clients(fs, cluster, 1)
    runtime = client.tenancy
    engine = TrafficEngine(
        env, runtime, ds, tuple(workloads), seed=seed, horizon=horizon
    )
    procs = engine.start()

    def service_bytes() -> dict:
        return dict(runtime.scheduler.bytes_served)

    if warmup > 0:
        env.run(until=warmup)
    base = service_bytes()
    env.run(until=horizon)
    edge = service_bytes()
    window_rows = tuple(runtime.accounting.rows())
    env.run(until=env.all_of(procs))
    env.run(until=env.process(engine.drain(), name="tenancy.drain"))
    _teardown(env, [client], "tenancy.teardown")

    deltas = {
        t: edge[t] - base.get(t, 0) for t in sorted(edge)
        if edge[t] - base.get(t, 0) > 0
    }
    total = sum(deltas.values())
    shares = {t: deltas[t] / total for t in deltas} if total else {}
    sched = runtime.scheduler
    return RunReport(
        sample_throughput=engine.delivered / env.now if env.now > 0 else 0.0,
        delivered=engine.delivered,
        failed=engine.failed,
        rejected_jobs=engine.rejected_jobs,
        sim_time=env.now,
        samples_read=engine.samples_read(),
        per_tenant=tuple(runtime.accounting.rows()),
        window_rows=window_rows,
        service_shares=shares,
        service_bytes=deltas,
        preemptions=sched.preemptions,
        forced_serves=sched.forced_serves,
        recovery=_merge_recovery([client]),
        obs=fs.obs,
    )


# ---------------------------------------------------------------------------
# Replicated cluster serving driver (crash / rejoin / hedged reads)
# ---------------------------------------------------------------------------

def cluster_tenants(num_samples: int = 8192, rate: float = 3000.0) -> tuple:
    """The reference cluster serving mix: ``(specs, workloads)``.

    One closed-loop training tenant (backlogged, throughput-oriented)
    plus one open-loop Poisson inference tenant with a tight SLO — the
    mix every cluster bench, the ``cluster`` CLI, and the perfcheck /
    sanitizer scenarios share.  Sample ranges are disjoint halves so
    the two tenants exercise different shards.
    """
    from ..tenancy import TenantSpec, TenantWorkload

    half = num_samples // 2
    specs = (
        TenantSpec(name="train", weight=2.0, slo_latency=5e-3),
        TenantSpec(name="serve", weight=1.0, slo_latency=2e-3),
    )
    workloads = (
        TenantWorkload(
            name="train", kind="train", batch=16, concurrency=4,
            sample_lo=0, sample_hi=half,
        ),
        TenantWorkload(
            name="serve", kind="poisson", rate=rate, batch=8,
            sample_lo=half, sample_hi=num_samples,
        ),
    )
    return specs, workloads


def _merge_tenant_rows(runtimes: list, records: tuple) -> tuple:
    """Merge per-client accounting rows by tenant name.

    Counts sum exactly; latency percentiles are recomputed from the
    merged completion records, and the transform-queue wait p99 from the
    exactly merged per-client ``xform_wait`` histograms.
    """
    from ..obs.metrics import merge_histograms

    by_latency: dict = {}
    for _t, tenant, latency, _ok, _fail in records:
        by_latency.setdefault(tenant, []).append(latency)
    merged: dict = {}
    for rt in runtimes:
        for row in rt.accounting.rows():
            name = row["tenant"]
            if name not in merged:
                merged[name] = dict(row)
            else:
                for key in (
                    "jobs", "rejected", "samples", "failed", "bytes",
                    "slo_violations",
                ):
                    merged[name][key] += row[key]
    total_bytes = sum(m["bytes"] for m in merged.values())
    for name, m in merged.items():
        m["share"] = m["bytes"] / total_bytes if total_bytes else 0.0
        lats = sorted(by_latency.get(name, ()))
        if lats:
            m["p50"] = lats[int(0.50 * (len(lats) - 1))]
            m["p99"] = lats[int(0.99 * (len(lats) - 1))]
        wait = merge_histograms(
            rt.accounting.registry.histograms.get(f"tenant.{name}.xform_wait")
            for rt in runtimes
        )
        m["xform_wait_p99"] = wait.percentile(99.0) if wait is not None else 0.0
    return tuple(merged[name] for name in sorted(merged))


def _merge_balancers(clients) -> dict:
    """Per-client front-end balancer counters, summed."""
    merged: dict = {"routed": {}, "failovers": 0, "cache_routed": 0}
    for fe in (c.balancer for c in clients if c.balancer is not None):
        for lane, count in fe.routed.items():
            merged["routed"][lane] = merged["routed"].get(lane, 0) + count
        merged["failovers"] += fe.failovers
        merged["cache_routed"] += fe.cache_routed
    return merged


def dlfs_cluster(
    num_storage: int = 8,
    num_clients: int = 2,
    replicas: int = 2,
    num_samples: int = 8192,
    sample_bytes: int = 64 * 1024,
    horizon: float = 0.02,
    seed: int = DEFAULT_SEED,
    node_crashes: tuple = (),
    hedge_delay: float = 0.0,
    read_cache_chunks: int = 0,
    balancer: bool = True,
    queue_depth: int = 32,
    specs: Optional[tuple] = None,
    workloads: Optional[tuple] = None,
    metrics: bool = False,
    trace: bool = False,
    spec=None,
    xform_crashes: tuple = (),
    testbed: Optional[Testbed] = None,
) -> RunReport:
    """One replicated cluster serving run under live traffic.

    ``num_clients`` compute nodes front ``num_storage`` single-device
    storage nodes (the Fig 11 disaggregated topology), each shard
    placed on ``replicas`` nodes via rendezvous hashing.  Every client
    runs its own front-end balancer and traffic engine (per-client seed
    offsets keep arrival scripts distinct but deterministic).

    ``node_crashes`` entries are ``(lane, crash_time, rejoin_time)``
    with ``rejoin_time=None`` for a permanent loss.  With ``replicas >=
    2`` a single crash loses zero samples: queued work fails over to
    surviving replicas and the drain completes; with ``replicas == 1``
    and no rejoin the drain would wedge on parked fetches, so permanent
    single-replica crashes are rejected by :class:`FaultPlan`
    validation upstream.

    ``spec`` (a :class:`repro.xform.XformSpec` with stages) adds the
    fetch/transform tier, ``xform_crashes`` crashes its workers and
    ``testbed`` overrides the hardware; :func:`dlfs_xform` documents
    all three.  With ``spec=None`` nothing of the tier is built.
    """
    from ..tenancy import TrafficEngine

    if (specs is None) != (workloads is None):
        raise ConfigError("pass both specs and workloads, or neither")
    if specs is None:
        specs, workloads = cluster_tenants(num_samples)
    enabled = spec is not None and spec.enabled
    if xform_crashes and not enabled:
        raise ConfigError("xform_crashes given but no transform stages")
    num_workers = spec.workers if enabled else 0
    ds = _dataset(num_samples, sample_bytes)
    plan = FaultPlan(node_crashes=tuple(node_crashes)) if node_crashes else None
    config = DLFSConfig(
        batching="sample",
        queue_depth=queue_depth,
        cluster=ClusterSpec(
            replicas=replicas,
            balancer=balancer,
            hedge_delay=hedge_delay,
            read_cache_chunks=read_cache_chunks,
        ),
        fault_plan=plan,
        trace=trace,
        metrics=metrics,
    )
    env, cluster, fs = _mount(
        testbed or Testbed.paper_emulated(),
        num_clients + num_storage + num_workers, ds, config,
        storage=(num_clients, num_storage),
    )
    tier = None
    if enabled:
        from ..xform import XformRuntime, XformTier

        worker_nodes = [
            cluster.node(num_clients + num_storage + w)
            for w in range(num_workers)
        ]
        tier = XformTier(
            env, spec, fs, worker_nodes,
            crashes=tuple(xform_crashes),
            registry=fs.obs.metrics if fs.obs.enabled else None,
        )
    clients = _clients(fs, cluster, num_clients)
    runtimes = []
    engines = []
    procs = []
    for r, client in enumerate(clients):
        runtime = ClusterRuntime(env, client.reactor, specs)
        runtimes.append(runtime)
        if tier is not None:
            runtime = XformRuntime(
                env, runtime, tier, cluster.node(r).name, rank=r
            )
        engine = TrafficEngine(
            env, runtime, ds, tuple(workloads),
            seed=seed + 1000 * r, horizon=horizon,
        )
        engines.append(engine)
        procs.extend(engine.start())
    env.run(until=env.all_of(procs))
    for r, engine in enumerate(engines):
        env.run(until=env.process(engine.drain(), name=f"cluster.drain[{r}]"))
    # One teardown process per client, each run to completion in turn.
    for r, client in enumerate(clients):
        env.run(
            until=env.process(client.shutdown(), name=f"cluster.teardown[{r}]")
        )
    env.run()  # drain trailing timers (rejoin schedules, watchdogs)

    records = tuple(sorted(rec for rt in runtimes for rec in rt.records))
    witness_parts = [e.samples_read() for e in engines]
    delivered = sum(e.delivered for e in engines)
    return RunReport(
        sample_throughput=delivered / env.now if env.now > 0 else 0.0,
        delivered=delivered,
        failed=sum(e.failed for e in engines),
        jobs=sum(e.jobs_completed for e in engines),
        sim_time=env.now,
        samples_read=(
            np.concatenate(witness_parts)
            if witness_parts
            else np.empty(0, dtype=np.int64)
        ),
        per_tenant=_merge_tenant_rows(runtimes, records),
        records=records,
        recovery=_merge_recovery(clients),
        lifecycle=fs.lifecycle.counters() if fs.lifecycle is not None else {},
        balancer=_merge_balancers(clients),
        tier=tier.counters() if tier is not None else {},
        links=tuple(tier.engine.link_rows()) if tier is not None else (),
        utilization=tuple(tier.utilization_rows()) if tier is not None else (),
        routed=tier.routed() if tier is not None else {},
        obs=fs.obs,
    )


# ---------------------------------------------------------------------------
# Disaggregated fetch/transform tier driver (xform)
# ---------------------------------------------------------------------------

def dlfs_xform(
    num_storage: int = 2,
    num_clients: int = 2,
    num_samples: int = 2048,
    sample_bytes: int = 64 * 1024,
    horizon: float = 0.01,
    seed: int = DEFAULT_SEED,
    spec=None,
    xform_crashes: tuple = (),
    replicas: int = 1,
    balancer: bool = False,
    queue_depth: int = 32,
    specs: Optional[tuple] = None,
    workloads: Optional[tuple] = None,
    metrics: bool = False,
    trace: bool = False,
    testbed: Optional[Testbed] = None,
) -> RunReport:
    """One serving run through the disaggregated fetch/transform tier.

    A preset of :func:`dlfs_cluster`: a small flat fleet (two storage
    nodes, one replica, no balancer).  ``spec`` is a
    :class:`repro.xform.XformSpec`; ``None`` or a spec with no stages is
    the pay-for-use contract: **no** transform worker nodes are built
    (extra NICs would perturb the fabric digest) and the run is
    bit-identical to :func:`dlfs_cluster` with the same arguments — the
    ``xform_pay_for_use`` perfcheck workload holds the two side by side.

    With stages configured, ``spec.workers`` extra CPU-only nodes join
    the cluster as transform lanes.  Each fetched job re-enters the
    tier: the pushdown prefix of the stage pipeline burns storage-node
    CPU, the boundary bytes ship storage→worker through the chunked
    :class:`~repro.xform.TransferEngine`, the suffix runs on the
    client's affinity lane, and the output ships worker→trainer before
    the job completes — so transform queueing counts against tenant
    SLOs.  ``testbed`` overrides the hardware description (the
    crossover benchmark sweeps fabric bandwidth through it).
    ``xform_crashes`` entries are ``(worker, crash_time,
    rejoin_time)``; in-flight tasks on a crashed lane re-dispatch to
    survivors (re-shipping their bytes), and the run must still deliver
    every sample.
    """
    return dlfs_cluster(
        num_storage=num_storage, num_clients=num_clients, replicas=replicas,
        num_samples=num_samples, sample_bytes=sample_bytes, horizon=horizon,
        seed=seed, balancer=balancer, queue_depth=queue_depth, specs=specs,
        workloads=workloads, metrics=metrics, trace=trace, spec=spec,
        xform_crashes=xform_crashes, testbed=testbed,
    )


# ---------------------------------------------------------------------------
# TensorFlow ingest driver (Fig 12)
# ---------------------------------------------------------------------------

def tf_ingest_throughput(
    system: str,
    num_nodes: int,
    sample_bytes: int,
    batches_per_node: int = 20,
    batch: int = 32,
    warmup_batches: int = 3,
    spec: Optional[TFIngestSpec] = None,
) -> Result:
    """Aggregate TF-adapter ingest throughput for one system."""
    if system not in ("dlfs", "ext4", "octopus"):
        raise ConfigError(f"unknown system {system!r}")
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    per_node = (batches_per_node + warmup_batches) * batch
    adapters = []
    if system == "dlfs":
        ds = _dataset(max(2 * num_nodes * per_node, 4000), sample_bytes)
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="chunk"))
        for r in range(num_nodes):
            client = fs.client(rank=r, num_ranks=num_nodes, node=cluster.node(r))
            # The TF input-pipeline thread lives on a second core; the
            # reactor busy-polls core 0.
            thread = BoundThread(cluster.node(r).cpu.core(1), f"tf{r}")
            adapters.append(DLFSTFAdapter(client, thread, spec))
    elif system == "ext4":
        for node in cluster:
            ds = Dataset.fixed(
                f"bench{node.index}", per_node + 32, sample_bytes,
                seed=DEFAULT_SEED + node.index,
            )
            fs = Ext4FileSystem(env, node.device)
            fs.ingest_dataset(ds)
            fs.warm_metadata()
            thread = BoundThread(node.cpu.core(0), f"tf{node.index}")
            adapters.append(Ext4TFAdapter(fs, ds, thread, spec=spec))
    else:
        ds = _dataset(max(2 * num_nodes * per_node, 2000), sample_bytes)
        fs = OctopusFS(cluster)
        fs.mount(ds)
        for r in range(num_nodes):
            thread = BoundThread(cluster.node(r).cpu.core(0), f"tf{r}")
            adapters.append(
                OctopusTFAdapter(fs, thread, rank=r, num_ranks=num_nodes,
                                 spec=spec)
            )

    def app(env, adapter):
        adapter.start_epoch(DEFAULT_SEED)
        for _ in range(warmup_batches):
            yield from adapter.next_batch(batch)
        adapter.meter.start()
        for _ in range(batches_per_node):
            yield from adapter.next_batch(batch)

    procs = [env.process(app(env, a)) for a in adapters]
    env.run(until=env.all_of(procs))
    throughput = sum(a.ingest_rate() for a in adapters)
    bandwidth = sum(a.meter.bandwidth() for a in adapters)
    return Result(throughput, bandwidth, 0.0, env.now)
