"""perfcheck — prove the fast-path kernel changes nothing observable.

PR "fast-path DES kernel" carries two implementations of the hot paths:
the *reference* one (heap-only scheduling, one process per NVMe command
and per qpair flight, per-chunk pool seeding) and the *optimized* one
(immediate-event FIFO lane, closed-form device timing, callback
flights, bulk pool preload).  The optimizations are only admissible if
they are invisible to the simulation: ``python -m repro perfcheck``
runs the fig06 (single-node) and fig08 (multi-node emulated) workloads
under both implementations in one process — flipping
:func:`repro.sim.set_fastpath` between builds — and asserts the
*witnesses* are bit-identical:

* final ``sim_time`` (exact float equality);
* the delivered sample-order digest (sha1 over ``samples_read``);
* delivered/failed counts;
* the full metrics-registry snapshot (sha1 over the canonical JSON of
  ``MetricsRegistry.dump()``), minus the one counter that *measures the
  kernel itself* — ``sim.events_processed`` counts processed events, and
  processing fewer events is the entire point of the PR.

This is the same witness the SimSanitizer uses for its tiebreak sweeps
(:func:`repro.analysis.sanitizer._witness`), extended with the metrics
digest.  Timing (wall-clock) is deliberately *not* compared here — that
is ``benchmarks/bench_engine.py``'s job; perfcheck must never fail on
timing noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..sim import engine as _engine
from .sanitizer import _witness

__all__ = ["PerfCheckReport", "run_perfcheck", "default_workloads"]

#: Metrics-dump keys that describe the kernel, not the simulation.
#: ``counters.sim.events_processed`` is the engine's own step counter;
#: the optimized kernel processes fewer events by design.
KERNEL_META_COUNTERS = ("sim.events_processed",)


def _metrics_digest(result: Any) -> Optional[str]:
    """Canonical sha1 of the run's metrics snapshot, if metrics were on."""
    obs = getattr(result, "obs", None)
    metrics = getattr(obs, "metrics", None)
    if metrics is None or not getattr(metrics, "enabled", False):
        return None
    dump = metrics.dump()
    counters = dump.get("counters")
    if isinstance(counters, dict):
        counters = dict(counters)
        for key in KERNEL_META_COUNTERS:
            counters.pop(key, None)
        dump = dict(dump)
        dump["counters"] = counters
    blob = json.dumps(dump, sort_keys=True, default=repr).encode()
    return hashlib.sha1(blob).hexdigest()


def _full_witness(result: Any) -> Dict[str, Any]:
    w = _witness(result)
    digest = _metrics_digest(result)
    if digest is not None:
        w["metrics_sha1"] = digest
    return w


def _xform_pay_for_use(num_samples: int, horizon: float) -> Dict[str, Any]:
    """The transform tier's pay-for-use gate, self-checking.

    Runs the xform workload with *no* stages and the flat cluster
    datapath it claims to be, and diffs their full witnesses inside the
    workload; any mismatch lands in ``self_divergences``, which
    :func:`run_perfcheck` surfaces as a failure.  On top of that, the
    pair runs under both kernels like every other gate.
    """
    from ..bench.workloads import dlfs_cluster, dlfs_xform

    x = _full_witness(dlfs_xform(
        num_storage=2, num_clients=2, num_samples=num_samples,
        horizon=horizon, spec=None, metrics=True,
    ))
    flat = _full_witness(dlfs_cluster(
        num_storage=2, num_clients=2, num_samples=num_samples,
        horizon=horizon, replicas=1, balancer=False, metrics=True,
    ))
    x["self_divergences"] = tuple(
        f"pay-for-use: {key} xform={x.get(key)!r} != flat={flat.get(key)!r}"
        for key in sorted(set(x) | set(flat))
        if x.get(key) != flat.get(key)
    )
    return x


def default_workloads(quick: bool = False) -> Dict[str, Callable[[], Any]]:
    """The fig06/fig08/tenancy correctness gates.

    All return a :class:`~repro.bench.workloads.RunReport` (or a
    witness dict) with metrics enabled so the snapshot digest is part of
    the witness.  ``quick`` shrinks the sample counts for CI smoke use; the
    datapath coverage (client → reactor → qpair → device → fabric) is
    the same.  The tenancy workload routes through the multi-tenant
    splice — admission, SFQ lanes, cache partition — so the fast-path
    kernel is also proven invisible to the fair-queued datapath.  The
    cluster workload drives the replicated serving tier through a full
    crash/failover/rejoin cycle, proving the fast-path kernel invisible
    to lane teardown, re-routing, and the handoff copy loop too.  The
    xform workloads gate the fetch/transform tier: the pushdown
    datapath under both kernels, and the pay-for-use identity (no
    stages ⇒ bit-identical to the flat cluster datapath, checked
    inside the workload via ``self_divergences``).
    """
    from ..bench.workloads import dlfs_cluster, dlfs_observed, dlfs_tenancy, \
        dlfs_xform
    from ..xform import XformSpec, parse_stages

    samples = 256 if quick else 1024
    nodes = 2 if quick else 4
    horizon = 0.02 if quick else 0.05
    cluster_nodes = 4 if quick else 8
    cluster_samples = 2048 if quick else 8192
    xform_samples = 512 if quick else 2048
    xform_horizon = 0.004 if quick else 0.01
    return {
        "fig06_single_node": lambda: dlfs_observed(
            samples=samples, batch=32, mode="chunk", num_nodes=1,
            trace=False, metrics=True,
        ),
        "fig08_multi_node": lambda: dlfs_observed(
            samples=samples, batch=32, mode="chunk", num_nodes=nodes,
            trace=False, metrics=True,
        ),
        "tenancy_multi_tenant": lambda: dlfs_tenancy(
            horizon=horizon, warmup=horizon / 5, metrics=True,
        ),
        "cluster_crash_rejoin": lambda: dlfs_cluster(
            num_storage=cluster_nodes, num_clients=1, replicas=2,
            num_samples=cluster_samples, horizon=0.01,
            node_crashes=((1, 0.004, 0.008),), metrics=True,
        ),
        "xform_pushdown": lambda: dlfs_xform(
            num_storage=2, num_clients=2, num_samples=xform_samples,
            horizon=xform_horizon,
            spec=XformSpec(stages=parse_stages("parse,augment:0.5"),
                           workers=2),
            metrics=True,
        ),
        "xform_pay_for_use": lambda: _xform_pay_for_use(
            xform_samples, xform_horizon
        ),
    }


@dataclass
class PerfCheckReport:
    """Outcome of one reference-vs-optimized equivalence check."""

    workloads: List[str]
    witnesses: Dict[str, Dict[str, Dict[str, Any]]] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "workloads": self.workloads,
            "witnesses": self.witnesses,
            "divergences": self.divergences,
        }

    def render(self) -> str:
        lines = [f"perfcheck: {len(self.workloads)} workload(s)"]
        for name in self.workloads:
            pair = self.witnesses.get(name, {})
            ref = pair.get("reference", {})
            status = (
                "bit-identical"
                if not [d for d in self.divergences if d.startswith(name)]
                else "DIVERGED"
            )
            lines.append(f"  {name}: {status}")
            for key, value in sorted(ref.items()):
                lines.append(f"    {key}={value}")
        for d in self.divergences:
            lines.append(f"  divergence: {d}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_perfcheck(
    workloads: Optional[Dict[str, Callable[[], Any]]] = None,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> PerfCheckReport:
    """Run each workload under both kernels and compare witnesses.

    The fast-path flag is flipped *between* workload builds (components
    snapshot it at construction), and always restored afterwards.
    """
    workloads = workloads or default_workloads(quick=quick)
    report = PerfCheckReport(workloads=list(workloads))
    previous = _engine.fastpath_enabled()
    try:
        for name, workload in workloads.items():
            pair: Dict[str, Dict[str, Any]] = {}
            for label, enabled in (("reference", False), ("optimized", True)):
                if progress:
                    progress(f"{name}: {label} kernel")
                _engine.set_fastpath(enabled)
                pair[label] = _full_witness(workload())
            # A workload can self-check an internal identity (e.g. the
            # xform pay-for-use gate) and report the diffs out-of-band;
            # they fail the run but are excluded from the ref/opt diff.
            for label, witness in pair.items():
                for d in witness.pop("self_divergences", ()):
                    report.divergences.append(f"{name}[{label}]: {d}")
            report.witnesses[name] = pair
            ref, opt = pair["reference"], pair["optimized"]
            for key in sorted(set(ref) | set(opt)):
                if ref.get(key) != opt.get(key):
                    report.divergences.append(
                        f"{name}: {key} {ref.get(key)!r} != {opt.get(key)!r}"
                    )
    finally:
        _engine.set_fastpath(previous)
    return report
