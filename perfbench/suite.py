"""The five benchmark workloads, each one run of a public driver.

Every workload function takes the benchmark seed and the process's
:class:`~probes.Probe`, which knows whether the process is traced.  It
imports what it needs inside an ``import`` span (so each workload pays
only for its own imports in ``setup_s``), installs the probe hooks,
calls the driver, and returns one plain dict:

``witness``
    sha1 over the run's deterministic output (sample order, completion
    records, digests); every process of one invocation must agree.
``sim_time`` / ``events``
    final simulated time and events scheduled (``env._eid``).
``accounting``
    ``expected`` / ``delivered`` / ``failed`` reference units; the
    benchmark checks ``delivered + failed == expected``.
``model``
    the modelled (simulated-clock) metrics of the reference operation.
``layers``
    counters the program keeps, read after the run.
``checks``
    workload-specific output checks, name -> passed.

Why each workload exists is documented in ``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import shutil
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_TREE = os.path.join(HERE, "frozen", "simflow-tree.tar.gz")
#: The commit whose ``src/repro``, ``tests`` and ``benchmarks`` Python
#: files (plus ``simflow-baseline.json``) are frozen in FROZEN_TREE.
FROZEN_COMMIT = "3b4f9e52055db5e2c3b3a6ee6c006fd07a64268d"

#: Workload parameters; the seed is added per invocation.
PARAMS = {
    "ingest-epochs": dict(
        nodes=4, samples=40000, sample_bytes=16 * 1024, epochs=2, batch=32,
        batching="chunk", hugepage_mib_per_node=32,
    ),
    "serve-failover": dict(
        storage=8, clients=2, replicas=2, samples=8192,
        sample_bytes=64 * 1024, horizon=0.17, balancer=True,
        crash_lane=3, crash_at=0.3, rejoin_at=0.6,
    ),
    "pushdown-transform": dict(
        storage=4, clients=2, workers=2, samples=2048,
        sample_bytes=64 * 1024, horizon=3.0, stages="parse,augment:0.5",
        placement="cost", serve_rate=400.0, serve_batch=8, serve_slo=0.010,
        scan_rate=200.0, scan_batch=16, crash_worker=1, crash_at=0.3,
        rejoin_at=0.6,
    ),
    "fleet-day": dict(
        users=200_000, day=8 * 3600.0, slice_users=2000, slice_day=600.0,
    ),
    "flow-lint": dict(
        frozen_commit=FROZEN_COMMIT, roots=["src/repro", "tests", "benchmarks"],
    ),
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(p * len(ordered)) - 1))
    return ordered[rank]


def _model(samples_per_s, latencies, ops, slo_misses, failed, expected):
    return {
        "sim_samples_per_s": samples_per_s,
        "sim_p50_ms": percentile(latencies, 0.50) * 1e3,
        "sim_p99_ms": percentile(latencies, 0.99) * 1e3,
        "ref_ops": ops,
        "slo_miss_frac": slo_misses / ops if ops else 0.0,
        "failed_frac": failed / expected if expected else 0.0,
    }


def _hist(registry, name: str, q: float) -> float:
    """Quantile of a registry histogram (0 when metrics are off)."""
    hist = getattr(registry, "histograms", {}).get(name)
    return hist.quantile(q) if hist is not None and hist.count else 0.0


def _sim_layers(probe, recovery: dict) -> dict:
    """Counters every DLFS-datapath workload reads the same way."""
    clients = [c for fs in probe.filesystems for c in fs._clients]
    hits = sum(c.cache.hits for c in clients)
    misses = sum(c.cache.misses for c in clients)
    registry = None
    for fs in probe.filesystems:
        if fs.obs.enabled:
            registry = fs.obs.metrics
    now = max((env.now for env in probe.envs), default=0.0)
    layers = getattr(registry, "layers_by_name", {})
    # Reactor busy time without its idle polling: the share of the run
    # the reactor spent on prep, post, poll, copy and compute.
    busy = [
        (layers[c.reactor.name].busy
         - layers[c.reactor.name].stages.get("poll_idle", 0.0)) / now
        for c in clients if now > 0 and c.reactor.name in layers
    ]
    # A reactor busy-polls its core for the whole run, so reactor cores
    # read 100% and are left out of the core-utilization maximum.
    polled = {id(c.reactor.thread.core) for c in clients}
    cores = [
        core.utilization()
        for cluster in probe.clusters for node in cluster
        for core in node.cpu.cores if id(core) not in polled
    ]
    nvme = getattr(registry, "histograms", {}).get("nvme.latency")
    tenancy = [c.tenancy for c in clients if c.tenancy is not None]
    return {
        "core.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.cache_evictions": sum(c.cache.evictions for c in clients),
        "core.reactor_busy_frac": max(busy, default=0.0),
        "core.job_p99_ms": _hist(registry, "reactor.job_latency", 0.99) * 1e3,
        "spdk.qpair_p50_us": _hist(registry, "qpair.latency", 0.50) * 1e6,
        "spdk.qpair_p99_us": _hist(registry, "qpair.latency", 0.99) * 1e6,
        "spdk.retries": recovery.get("retries", 0),
        "spdk.resets": recovery.get("resets", 0),
        "hw.nvme_commands": nvme.count if nvme is not None else 0,
        "hw.nvme_p99_us": _hist(registry, "nvme.latency", 0.99) * 1e6,
        "hw.fabric_p99_us": _hist(registry, "fabric.latency", 0.99) * 1e6,
        "hw.core_util_max": max(cores, default=0.0),
        "tenancy.preemptions": sum(t.scheduler.preemptions for t in tenancy),
        "tenancy.forced_serves": sum(t.scheduler.forced_serves for t in tenancy),
    }


def _events(probe) -> int:
    return sum(env._eid for env in probe.envs)


def _serving_rows(report, workloads) -> dict:
    """Accounting and checks shared by the two traffic-engine drivers."""
    batch = {w.name: w.batch for w in workloads}
    rows = {row["tenant"]: row for row in report.per_tenant}
    expected = sum(row["jobs"] * batch[name] for name, row in rows.items())
    return {
        "rows": rows,
        "rejected": sum(row.get("rejected", 0) for row in rows.values()),
        "accounting": {
            "expected": expected,
            "delivered": report.delivered,
            "failed": report.failed,
        },
        "checks": {
            "every_job_recorded": len(report.records) == report.jobs,
            "tenant_samples_sum": sum(r["samples"] for r in rows.values())
            == report.delivered,
        },
    }


def _serve_model(report, rows, tenant: str) -> dict:
    lats = [rec[2] for rec in report.records if rec[1] == tenant]
    row = rows[tenant]
    attempted = row["jobs"] + row.get("rejected", 0)
    failed_jobs = sum(1 for rec in report.records if rec[1] == tenant and rec[4])
    misses = row.get("slo_violations", 0) + row.get("rejected", 0) + failed_jobs
    return _model(
        report.sample_throughput, lats, attempted, misses,
        report.failed, report.delivered + report.failed,
    )


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# ingest-epochs
# ---------------------------------------------------------------------------

def ingest_epochs(seed: int, probe) -> dict:
    p = PARAMS["ingest-epochs"]
    with probe.span("import"):
        import numpy as np

        from repro.bench.workloads import dlfs_chaos
        from repro.core.api import DLFSClient
        from repro.faults import FaultPlan
        from repro.hw import Testbed
    probe.install_sim_hooks()

    # One (rank, t_start, t_end, samples) row per batch read, in
    # completion order: the reference-op latencies and the witness.
    log = []
    bread = DLFSClient.bread

    def logged_bread(client, *args, **kwargs):
        start = client.env.now
        samples = yield from bread(client, *args, **kwargs)
        log.append((client.rank, start, client.env.now, samples))
        return samples

    testbed = dataclasses.replace(
        Testbed.paper_emulated(),
        hugepage_bytes=p["hugepage_mib_per_node"] * 1024 * 1024,
    )
    DLFSClient.bread = logged_bread
    try:
        probe.start_profile()
        r = dlfs_chaos(
            FaultPlan(), num_nodes=p["nodes"], sample_bytes=p["sample_bytes"],
            num_samples=p["samples"], epochs=p["epochs"], batch=p["batch"],
            mode=p["batching"], seed=seed, testbed=testbed,
        )
        probe.stop_profile()
    finally:
        # A repeat in the same process wraps the original again.
        DLFSClient.bread = bread
    witness = hashlib.sha1()
    for rank, _start, _end, samples in log:
        witness.update(rank.to_bytes(2, "little"))
        witness.update(np.asarray(samples, dtype=np.int64).tobytes())
    lats = [end - start for _rank, start, end, _s in log]
    layers = _sim_layers(probe, r.recovery)
    return {
        "witness": witness.hexdigest(),
        "sim_time": r.sim_time,
        "events": _events(probe),
        "accounting": {
            "expected": r.expected, "delivered": r.delivered, "failed": r.failed,
        },
        "model": _model(
            r.sample_throughput, lats, len(log), 0, r.failed, r.expected
        ),
        "layers": layers,
        "checks": {
            "every_sample_demanded_each_epoch":
                r.expected == p["epochs"] * p["samples"],
            "cache_smaller_than_dataset":
                p["nodes"] * p["hugepage_mib_per_node"] * 1024 * 1024
                < p["samples"] * p["sample_bytes"],
            "cache_evicts": layers["core.cache_evictions"] > 0,
        },
    }


# ---------------------------------------------------------------------------
# serve-failover
# ---------------------------------------------------------------------------

def _cluster_layers(report) -> dict:
    routed = list(report.balancer.get("routed", {}).values())
    mean = sum(routed) / len(routed) if routed else 0.0
    life = report.lifecycle
    return {
        "cluster.failovers": report.recovery.get("failovers", 0),
        "cluster.hedges_posted": report.recovery.get("hedges_posted", 0),
        "cluster.handoffs_completed": life.get("handoffs_completed", 0),
        "cluster.handoffs_aborted": life.get("handoffs_aborted", 0),
        "cluster.handoff_bytes": life.get("handoff_bytes", 0),
        "cluster.degraded_ms": report.recovery.get("degraded_time", 0.0) * 1e3,
        "cluster.route_imbalance": max(routed) / mean if mean else 0.0,
    }


def serve_failover(seed: int, probe) -> dict:
    p = PARAMS["serve-failover"]
    with probe.span("import"):
        from repro.bench.workloads import cluster_tenants, dlfs_cluster
    probe.install_sim_hooks()
    specs, workloads = cluster_tenants(p["samples"])
    h = p["horizon"]
    probe.start_profile()
    r = dlfs_cluster(
        num_storage=p["storage"], num_clients=p["clients"],
        replicas=p["replicas"], num_samples=p["samples"],
        sample_bytes=p["sample_bytes"], horizon=h, seed=seed,
        node_crashes=((p["crash_lane"], p["crash_at"] * h, p["rejoin_at"] * h),),
        balancer=p["balancer"], specs=specs, workloads=workloads,
        metrics=probe.traced,
    )
    probe.stop_profile()
    shared = _serving_rows(r, workloads)
    layers = _sim_layers(probe, r.recovery)
    layers.update(_cluster_layers(r))
    layers["tenancy.rejected_jobs"] = shared["rejected"]
    checks = shared["checks"]
    checks["node_crashed_and_rejoined"] = (
        r.lifecycle.get("crashes") == 1 and r.lifecycle.get("rejoins") == 1
    )
    return {
        "witness": _digest(r.samples_read.tobytes(), r.records),
        "sim_time": r.sim_time,
        "events": _events(probe),
        "accounting": shared["accounting"],
        "model": _serve_model(r, shared["rows"], "serve"),
        "layers": layers,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# pushdown-transform
# ---------------------------------------------------------------------------

def pushdown_transform(seed: int, probe) -> dict:
    p = PARAMS["pushdown-transform"]
    with probe.span("import"):
        from repro.bench.workloads import dlfs_xform
        from repro.tenancy import TenantSpec, TenantWorkload
        from repro.xform import XformSpec, parse_stages
    probe.install_sim_hooks()
    half = p["samples"] // 2
    # Open-loop tenants only: a closed-loop trainer would keep the tier
    # backlogged and every serve job over its SLO (see README.md).
    specs = (
        TenantSpec(name="serve", slo_latency=p["serve_slo"]),
        TenantSpec(name="scan"),
    )
    workloads = (
        TenantWorkload(
            name="serve", kind="poisson", rate=p["serve_rate"],
            batch=p["serve_batch"], sample_lo=0, sample_hi=half,
        ),
        TenantWorkload(
            name="scan", kind="poisson", rate=p["scan_rate"],
            batch=p["scan_batch"], sample_lo=half, sample_hi=p["samples"],
        ),
    )
    spec = XformSpec(
        stages=parse_stages(p["stages"]), workers=p["workers"],
        placement=p["placement"],
    )
    h = p["horizon"]
    probe.start_profile()
    r = dlfs_xform(
        num_storage=p["storage"], num_clients=p["clients"],
        num_samples=p["samples"], sample_bytes=p["sample_bytes"], horizon=h,
        seed=seed, spec=spec,
        xform_crashes=((p["crash_worker"], p["crash_at"] * h, p["rejoin_at"] * h),),
        specs=specs, workloads=workloads, metrics=probe.traced,
    )
    probe.stop_profile()
    shared = _serving_rows(r, workloads)
    layers = _sim_layers(probe, {})
    util = {"xform": [], "storage": []}
    for row in r.utilization:
        util[row["tier"]].append(row["cpu"])
    layers.update({
        "tenancy.rejected_jobs": shared["rejected"],
        "xform.tasks": r.tier.get("tasks", 0),
        "xform.redispatches": r.tier.get("redispatches", 0),
        "xform.queue_wait_p99_ms": max(
            row.get("xform_wait_p99", 0.0) for row in shared["rows"].values()
        ) * 1e3,
        "xform.link_bytes": sum(link["bytes"] for link in r.links),
        "xform.worker_util": sum(util["xform"]) / len(util["xform"]),
        "xform.storage_core_util": sum(util["storage"]) / len(util["storage"]),
    })
    checks = shared["checks"]
    checks["every_job_transformed"] = r.tier.get("tasks") == r.jobs
    checks["worker_crashed_and_rejoined"] = (
        r.tier.get("crashes") == 1 and r.tier.get("rejoins") == 1
    )
    return {
        "witness": _digest(r.samples_read.tobytes(), r.records),
        "sim_time": r.sim_time,
        "events": _events(probe),
        "accounting": shared["accounting"],
        "model": _serve_model(r, shared["rows"], "serve"),
        "layers": layers,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# fleet-day
# ---------------------------------------------------------------------------

def _fleet_spec(seed: int):
    from repro.sim.fluid import ScaleSpec

    p = PARAMS["fleet-day"]
    return ScaleSpec(users=p["users"], day=p["day"], seed=seed)


def fleet_day(seed: int, probe) -> dict:
    with probe.span("import"):
        from repro.sim.fluid import run_scale
    probe.install_sim_hooks(datapath=False)
    spec = _fleet_spec(seed)
    probe.start_profile()
    r = run_scale(spec, mode="hybrid")
    probe.stop_profile()
    lats = [rec.latency for rec in r.tagged]
    ops = len(r.tagged)
    misses = sum(1 for v in lats if v > spec.slo)
    return {
        "witness": _digest(r.order_digest, r.latency_digest, r.lanes),
        "sim_time": r.sim_time,
        "events": r.events_scheduled,
        # Tagged requests the lanes served against those the tagged
        # processes recorded: two counters kept on different sides.
        "accounting": {
            "expected": sum(lane["tagged_requests"] for lane in r.lanes),
            "delivered": ops,
            "failed": 0,
        },
        "model": _model(
            (r.bulk_requests + ops) / r.sim_time, lats, ops, misses, 0, ops
        ),
        "layers": {
            "fluid.elide_ratio": r.elide_ratio,
            "fluid.bulk_requests": r.bulk_requests,
        },
        "checks": {
            "tagged_requests_recorded": ops > 0,
            "most_bulk_elided": 0.5 < r.elide_ratio <= 1.0,
        },
    }


def fleet_equivalence(seed: int) -> dict:
    """The tagged-flow equivalence obligation on a scaled-down slice
    (run once per invocation, outside every timed process)."""
    from repro.sim.fluid import equivalence_check

    p = PARAMS["fleet-day"]
    verdict = equivalence_check(
        _fleet_spec(seed).sliced(p["slice_users"], p["slice_day"])
    )
    return {"fleet_equivalence": bool(verdict.get("ok"))}


# ---------------------------------------------------------------------------
# flow-lint
# ---------------------------------------------------------------------------

def flow_lint(seed: int, probe) -> dict:
    p = PARAMS["flow-lint"]
    with probe.span("import"):
        from repro.analysis.simflow import (
            diff_against_baseline,
            fingerprint_findings,
            load_baseline,
            run_simflow,
        )
    probe.install_flow_hooks()
    work = os.path.join(os.getcwd(), ".perfbench-work", f"flow-{os.getpid()}")
    with tarfile.open(FROZEN_TREE) as tar:
        tar.extractall(work, filter="data")
    # The seed permutes the analysis roots; findings must not depend on
    # the order the project graph meets its files.
    roots = list(itertools.permutations(p["roots"]))[seed % 6]
    home = os.getcwd()
    os.chdir(work)
    try:
        probe.mark_first_event()
        probe.start_profile()
        report = run_simflow(roots)
        probe.stop_profile()
        baseline = load_baseline("simflow-baseline.json")
    finally:
        os.chdir(home)
        shutil.rmtree(work)
    new, stale = diff_against_baseline(report.findings, baseline)
    prints = sorted(fp for fp, _f in fingerprint_findings(report.findings))
    files = len(report.analyzed_files)
    errors = len(report.parse_errors)
    return {
        "witness": _digest(prints, report.analyzed_files),
        "sim_time": 0.0,
        "events": 0,
        "accounting": {"expected": files, "delivered": files - errors,
                       "failed": errors},
        "model": _model(0.0, [], files, 0, errors, files),
        "layers": {
            "analysis.files": files,
            "analysis.findings": len(report.findings),
        },
        "checks": {
            "findings_all_baselined": not new,
            "baseline_fully_matched": not stale,
        },
    }


#: Workloads with checks that run in their own untimed process.
CHECK_PROCESS = {"fleet-day": fleet_equivalence}

WORKLOADS = {
    "ingest-epochs": ingest_epochs,
    "serve-failover": serve_failover,
    "pushdown-transform": pushdown_transform,
    "fleet-day": fleet_day,
    "flow-lint": flow_lint,
}
