"""Run a compiled scenario and capture its golden-master fingerprint.

A fingerprint is a plain JSON-able dict with four sections:

* ``digests`` — sha1 of the sample-order witness and of the latency
  stream (``float.hex`` — bit-exact, no repr rounding);
* ``counters`` — flat key counters (delivered/failed/jobs, recovery,
  lifecycle, balancer, transform tier, fluid lanes), every key carrying
  its layer in the prefix so a drift attributes itself;
* ``percentiles`` — p50/p90/p99/p999 per tenant (tenancy: merged
  phase-step histograms from the MetricsRegistry; cluster/xform: exact
  nearest-rank over completion records; fluid: tagged-flow set);
* ``phases`` — the same metrics re-cut per phase window, so a drift
  names *which phase* moved, not just which metric.

Work is attributed to the phase that *submitted* it (workload names
carry their phase), never to completion time — so drain-tail
completions cannot smear across phase boundaries and the attribution is
completion-order independent, the same property every witness in this
repo is built on.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional

from ..errors import ConfigError
from ..obs.metrics import merge_histograms
from .compile import (
    compile_crashes,
    compile_envelopes,
    compile_fault_plan,
    compile_scale_spec,
    compile_workloads,
    split_workload_name,
)
from .dsl import Scenario

__all__ = ["run_scenario", "fingerprint_digest"]

_PCTS = ((50, "p50"), (90, "p90"), (99, "p99"), (99.9, "p999"))


def run_scenario(
    scn: Scenario,
    quick: bool = False,
    seed: Optional[int] = None,
    perturb: float = 0.0,
) -> dict:
    """Execute ``scn`` and return its fingerprint dict."""
    scn.validate()
    eff_seed = seed if seed is not None else scn.seed
    if scn.engine == "tenancy":
        fp = _run_tenancy(scn, quick, eff_seed, perturb)
    elif scn.engine == "cluster":
        fp = _run_cluster(scn, quick, eff_seed, perturb)
    elif scn.engine == "xform":
        fp = _run_xform(scn, quick, eff_seed, perturb)
    elif scn.engine == "fluid":
        fp = _run_fluid(scn, quick, eff_seed, perturb)
    else:  # pragma: no cover - validate() rejects this
        raise ConfigError(f"unknown engine {scn.engine!r}")
    fp["scenario"] = scn.name
    fp["engine"] = scn.engine
    fp["mode"] = "quick" if quick else "full"
    fp["seed"] = eff_seed
    return fp


def fingerprint_digest(fp: dict) -> str:
    """One sha1 over the whole fingerprint (stable key order)."""
    import json

    return hashlib.sha1(
        json.dumps(fp, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _order_digest(samples) -> str:
    return hashlib.sha1(samples.tobytes()).hexdigest()


def _nearest_rank(lats: List[float]) -> dict:
    """Exact nearest-rank percentiles of a latency list."""
    if not lats:
        return {"count": 0}
    lats = sorted(lats)
    out: dict = {"count": len(lats)}
    for p, key in _PCTS:
        i = math.ceil(p / 100.0 * len(lats)) - 1
        out[key] = lats[max(0, min(i, len(lats) - 1))]
    return out


def _hist_percentiles(hist) -> dict:
    out = {"count": hist.count}
    for p, key in _PCTS:
        out[key] = hist.percentile(p)
    return out


def _phase_entries(scn: Scenario, horizon: float, per_phase: Dict[str, dict]):
    """Fingerprint ``phases`` section from per-phase metric dicts."""
    out = []
    for name, lo, hi in scn.phase_windows():
        out.append({
            "name": name,
            "window": [lo * horizon, hi * horizon],
            "metrics": per_phase.get(name, {}),
        })
    return out


# ---------------------------------------------------------------------------
# tenancy
# ---------------------------------------------------------------------------

def _run_tenancy(scn: Scenario, quick: bool, seed: int, perturb: float) -> dict:
    from ..bench.workloads import dlfs_tenancy

    horizon = scn.effective_horizon(quick)
    specs, workloads = compile_workloads(scn, quick, perturb)
    plan = compile_fault_plan(scn, quick, seed)
    rep = dlfs_tenancy(
        specs=specs,
        workloads=workloads,
        num_samples=scn.num_samples,
        sample_bytes=scn.sample_bytes,
        horizon=horizon,
        warmup=0.0,
        seed=seed,
        metrics=True,
        fault_plan=plan,
    )
    registry = rep.obs.metrics

    lat = hashlib.sha1()
    names = sorted(
        n[len("tenant."):-len(".job_latency")]
        for n in registry.histograms
        if n.startswith("tenant.") and n.endswith(".job_latency")
    )
    hist_by_name = {}
    for n in names:
        h = registry.histograms[f"tenant.{n}.job_latency"]
        hist_by_name[n] = h
        lat.update(
            f"{n}:{h.count}:{h.total.hex()}:"
            f"{h.minimum.hex()}:{h.maximum.hex()}\n".encode("utf-8")
        )

    counters: dict = {
        "delivered": rep.delivered,
        "failed": rep.failed,
        "rejected_jobs": rep.rejected_jobs,
        "preemptions": rep.preemptions,
        "forced_serves": rep.forced_serves,
    }
    by_base: Dict[str, dict] = {}
    by_phase_base: Dict[str, Dict[str, List[str]]] = {}
    for row in rep.per_tenant:
        base, phase = split_workload_name(row["tenant"])
        agg = by_base.setdefault(base, {
            "jobs": 0, "rejected": 0, "samples": 0, "failed": 0,
            "bytes": 0, "slo_violations": 0,
        })
        for key in agg:
            agg[key] += row[key]
        if phase:
            by_phase_base.setdefault(phase, {}).setdefault(base, []).append(
                row["tenant"]
            )
    for base, agg in sorted(by_base.items()):
        for key, value in agg.items():
            counters[f"tenant.{base}.{key}"] = value

    percentiles: dict = {}
    for base in sorted(by_base):
        merged = merge_histograms(
            hist_by_name.get(n) for n in names
            if split_workload_name(n)[0] == base
        )
        if merged is not None:
            percentiles[base] = _hist_percentiles(merged)

    per_phase: Dict[str, dict] = {}
    for phase, bases in by_phase_base.items():
        metrics: dict = {}
        for base, wnames in sorted(bases.items()):
            rows = [r for r in rep.per_tenant if r["tenant"] in wnames]
            metrics[f"{base}.jobs"] = sum(r["jobs"] for r in rows)
            metrics[f"{base}.samples"] = sum(r["samples"] for r in rows)
            metrics[f"{base}.failed"] = sum(r["failed"] for r in rows)
            merged = merge_histograms(hist_by_name.get(n) for n in wnames)
            if merged is not None:
                metrics[f"{base}.p99"] = merged.percentile(99.0)
        per_phase[phase] = metrics

    return {
        "sim_time": rep.sim_time,
        "digests": {
            "order": _order_digest(rep.samples_read),
            "latency": lat.hexdigest(),
        },
        "counters": counters,
        "percentiles": percentiles,
        "phases": _phase_entries(scn, horizon, per_phase),
    }


# ---------------------------------------------------------------------------
# cluster / xform (record-based engines)
# ---------------------------------------------------------------------------

def _records_fingerprint(scn: Scenario, horizon: float, rep) -> dict:
    """Digests / percentiles / phases shared by cluster and xform."""
    lat = hashlib.sha1()
    for t_done, tenant, latency, ok, fail in rep.records:
        lat.update(
            f"{t_done.hex()}:{tenant}:{latency.hex()}:{ok}:{fail}\n"
            .encode("utf-8")
        )
    by_base: Dict[str, List[float]] = {}
    by_phase: Dict[str, Dict[str, List[float]]] = {}
    for _t, tenant, latency, _ok, _fail in rep.records:
        base, phase = split_workload_name(tenant)
        by_base.setdefault(base, []).append(latency)
        if phase:
            by_phase.setdefault(phase, {}).setdefault(base, []).append(latency)
    percentiles = {
        base: _nearest_rank(lats) for base, lats in sorted(by_base.items())
    }
    per_phase: Dict[str, dict] = {}
    for phase, bases in by_phase.items():
        metrics: dict = {}
        for base, lats in sorted(bases.items()):
            metrics[f"{base}.jobs"] = len(lats)
            metrics[f"{base}.p99"] = _nearest_rank(lats)["p99"]
        per_phase[phase] = metrics
    return {
        "digests": {
            "order": _order_digest(rep.samples_read),
            "latency": lat.hexdigest(),
        },
        "percentiles": percentiles,
        "phases": _phase_entries(scn, horizon, per_phase),
    }


def _scalar_items(prefix: str, mapping: dict) -> dict:
    out = {}
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[f"{prefix}.{key}"] = value
    return out


def _run_cluster(scn: Scenario, quick: bool, seed: int, perturb: float) -> dict:
    from ..bench.workloads import dlfs_cluster

    horizon = scn.effective_horizon(quick)
    specs, workloads = compile_workloads(scn, quick, perturb)
    rep = dlfs_cluster(
        num_storage=scn.storage,
        num_clients=scn.clients,
        replicas=scn.replicas,
        num_samples=scn.num_samples,
        sample_bytes=scn.sample_bytes,
        horizon=horizon,
        seed=seed,
        node_crashes=compile_crashes(scn, "node_crash", horizon),
        specs=specs,
        workloads=workloads,
    )
    counters = {
        "delivered": rep.delivered,
        "failed": rep.failed,
        "jobs": rep.jobs,
    }
    counters.update(_scalar_items("recovery", rep.recovery))
    counters.update(_scalar_items("lifecycle", rep.lifecycle))
    counters.update(_scalar_items("balancer.routed", rep.balancer["routed"]))
    counters["balancer.failovers"] = rep.balancer["failovers"]
    counters["balancer.cache_routed"] = rep.balancer["cache_routed"]
    fp = _records_fingerprint(scn, horizon, rep)
    fp["sim_time"] = rep.sim_time
    fp["counters"] = counters
    return fp


def _run_xform(scn: Scenario, quick: bool, seed: int, perturb: float) -> dict:
    from ..bench.workloads import dlfs_xform
    from ..xform import XformSpec
    from ..xform.stages import parse_stages

    if not scn.stages:
        raise ConfigError(f"scenario {scn.name!r}: xform engine needs stages")
    horizon = scn.effective_horizon(quick)
    specs, workloads = compile_workloads(scn, quick, perturb)
    rep = dlfs_xform(
        num_storage=scn.storage,
        num_clients=scn.clients,
        num_samples=scn.num_samples,
        sample_bytes=scn.sample_bytes,
        horizon=horizon,
        seed=seed,
        spec=XformSpec(stages=parse_stages(scn.stages), workers=scn.workers),
        xform_crashes=compile_crashes(scn, "worker_crash", horizon),
        replicas=scn.replicas,
        specs=specs,
        workloads=workloads,
    )
    counters = {
        "delivered": rep.delivered,
        "failed": rep.failed,
        "jobs": rep.jobs,
    }
    counters.update(_scalar_items("tier", rep.tier))
    counters.update(_scalar_items("routed", rep.routed))
    fp = _records_fingerprint(scn, horizon, rep)
    fp["sim_time"] = rep.sim_time
    fp["counters"] = counters
    return fp


# ---------------------------------------------------------------------------
# fluid
# ---------------------------------------------------------------------------

def _run_fluid(scn: Scenario, quick: bool, seed: int, perturb: float) -> dict:
    from ..cluster.serving import fluid_bulk_shares
    from ..sim.fluid import ArrivalSchedule, run_scale

    day = scn.effective_horizon(quick)
    envelopes = compile_envelopes(scn, quick, perturb)
    spec = compile_scale_spec(scn, quick, seed)
    report = run_scale(spec, mode="hybrid", envelopes=envelopes)

    counters = {
        "bulk_requests": report.bulk_requests,
        "bulk_bytes": report.bulk_bytes,
        "fluid_requests": report.fluid_requests,
        "fluid_bytes": report.fluid_bytes,
    }
    for lane in report.lanes:
        prefix = f"lane.{lane['name']}"
        counters[f"{prefix}.requests"] = lane["requests"]
        counters[f"{prefix}.bytes"] = lane["bytes"]
        counters[f"{prefix}.tagged_requests"] = lane["tagged_requests"]
        counters[f"{prefix}.latency_sum"] = lane["latency_sum"]

    # Per-phase bulk counts re-derive the schedules exactly as run_scale
    # built them (same envelopes, same shares, same fraction), so the
    # counts are the integer-exact mid-riser grid counts per window.
    shares = fluid_bulk_shares(spec.lanes)
    scheds = []
    for name, envelope, flows in envelopes:
        k = min(spec.tagged_per_cohort, flows)
        bulk_frac = (flows - k) / flows
        scheds.append((
            name,
            [ArrivalSchedule(envelope, fraction=bulk_frac * s) for s in shares],
        ))
    per_phase: Dict[str, dict] = {}
    for phase, lo, hi in scn.phase_windows():
        a, b = lo * day, hi * day
        metrics: dict = {}
        for name, lane_scheds in scheds:
            metrics[f"{name}.bulk_requests"] = sum(
                s.count_between(a, b) for s in lane_scheds
            )
        metrics["tagged_requests"] = sum(
            1 for r in report.tagged if a <= r.t < b
        )
        per_phase[phase] = metrics

    return {
        "sim_time": report.sim_time,
        "digests": {
            "order": report.order_digest,
            "latency": report.latency_digest,
        },
        "counters": counters,
        "percentiles": {"tagged": report.tagged_percentiles()},
        "phases": _phase_entries(scn, day, per_phase),
    }
