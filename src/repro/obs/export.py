"""Exporters: Chrome trace-event JSON, latency breakdown, metrics dump.

* :func:`chrome_trace` — the Trace Event Format consumed by Perfetto /
  ``chrome://tracing``: one *process* per simulated node, one *thread*
  per execution lane (reactor, qpair, copy thread, NVMe device, fabric
  link).  Span timestamps are simulated microseconds; span events and
  tracer instants become thread-scoped instant events, so qpair resets
  and retries show up pinned to the request they hit.
* :func:`breakdown_rows` / :func:`render_breakdown` — the per-layer
  time-attribution table (the paper's Fig 7 CPU analysis): each
  instrumented stage's busy seconds plus the idle/wait remainder, so
  the rows sum to total simulated time exactly.
* :func:`percentile_rows` / :func:`render_percentiles` — the per-layer
  latency panel (p50/p90/p99/p999) from the registry's histograms.
* :func:`write_chrome_trace` / :func:`write_metrics` — file writers.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Optional, Union

from .metrics import Histogram, LayerTimes, MetricsRegistry
from .span import Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "breakdown_rows",
    "render_breakdown",
    "percentile_rows",
    "render_percentiles",
    "render_tenants",
    "render_cluster",
    "render_xform",
]

#: Seconds -> Chrome trace microseconds.
_US = 1e6


def chrome_trace(tracer: Tracer) -> dict:
    """Convert a tracer's spans/instants to a Chrome trace-event object.

    Events within each thread are sorted by timestamp (the format's
    expectation and what the viewers assume).  Spans still open at
    export time are clipped to the current sim time.
    """
    pids: dict[str, int] = {}
    tids: dict[str, int] = {}
    events: list[dict] = []
    meta: list[dict] = []

    def ids_for(track: str) -> tuple[int, int]:
        process = tracer.processes.get(track, "sim")
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids) + 1
            meta.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": process},
            })
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            meta.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        return pid, tid

    now = tracer.now
    for span in tracer.spans:
        pid, tid = ids_for(span.track)
        end = span.end if span.end is not None else now
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.args:
            args.update(span.args)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat or "span",
            "pid": pid,
            "tid": tid,
            "ts": span.start * _US,
            "dur": (end - span.start) * _US,
            "args": args,
        })
        for t, name, ev_args in span.events:
            instant = {
                "ph": "i",
                "name": name,
                "cat": "event",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": t * _US,
                "args": {"span_id": span.span_id},
            }
            if ev_args:
                instant["args"].update(ev_args)
            events.append(instant)
    for t, name, track, args in tracer.instants:
        pid, tid = ids_for(track)
        events.append({
            "ph": "i",
            "name": name,
            "cat": "event",
            "s": "t",
            "pid": pid,
            "tid": tid,
            "ts": t * _US,
            "args": dict(args) if args else {},
        })

    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated", "spans": len(tracer.spans)},
    }


def write_chrome_trace(tracer: Tracer, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Serialize :func:`chrome_trace` to ``path`` (Perfetto-loadable)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer)) + "\n")
    return path


def write_metrics(
    registry: MetricsRegistry, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Serialize the registry dump as JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(registry.dump(), indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Latency attribution
# ---------------------------------------------------------------------------

def breakdown_rows(
    layers: LayerTimes,
    total: float,
    idle_label: str = "wait (device/fabric) + idle",
) -> list[tuple[str, float, float]]:
    """(stage, seconds, fraction) rows summing to ``total`` seconds.

    ``layers`` holds the lane's instrumented busy stages; the idle row
    is the remainder, so the column of seconds sums to ``total``
    exactly (the acceptance bar: within 1% of total sim time).
    """
    rows = [
        (stage, seconds, (seconds / total) if total > 0 else 0.0)
        for stage, seconds in layers.stages.items()
    ]
    idle = max(total - layers.busy, 0.0)
    rows.append((idle_label, idle, (idle / total) if total > 0 else 0.0))
    return rows


def render_breakdown(
    layers: LayerTimes, total: float, title: Optional[str] = None
) -> str:
    """The plaintext per-layer time-attribution table."""
    rows = breakdown_rows(layers, total)
    lines = [f"-- latency attribution: {title or layers.name} --"]
    width = max(len(stage) for stage, _, _ in rows)
    for stage, seconds, fraction in rows:
        lines.append(
            f"  {stage:<{width}}  {seconds * 1e3:>12.4f} ms  {fraction:>7.2%}"
        )
    lines.append(
        f"  {'total (sim time)':<{width}}  {total * 1e3:>12.4f} ms  {1:>7.2%}"
    )
    return "\n".join(lines)


def render_tenants(
    rows: Iterable[dict],
    title: str = "per-tenant serving report",
    service_shares: Optional[dict] = None,
) -> str:
    """Plaintext per-tenant SLO/fairness table.

    ``rows`` are the plain dicts from
    :meth:`repro.tenancy.TenantAccounting.rows` (kept as dicts so obs
    never imports tenancy).  ``service_shares`` optionally adds the
    device-service share column from the scheduler — the SFQ fairness
    metric, as opposed to the job-level byte share in ``rows``.
    """
    rows = list(rows)
    if not rows:
        return f"-- {title}: (no tenants) --"

    def ms(v: float) -> str:
        return f"{v * 1e3:.2f}ms"

    width = max(len("tenant"), max(len(r["tenant"]) for r in rows))
    header = (
        f"  {'tenant':<{width}}  {'wt':>5}  {'pri':>3}  {'jobs':>7}  "
        f"{'rej':>5}  {'samples':>8}  {'failed':>6}  {'MB':>9}  "
        f"{'share':>6}  {'p50':>9}  {'p99':>9}  {'xq p99':>9}  {'slo!':>5}"
    )
    if service_shares is not None:
        header += f"  {'svc%':>6}"
    lines = [f"-- {title} --", header]
    for r in rows:
        line = (
            f"  {r['tenant']:<{width}}  {r['weight']:>5.1f}  "
            f"{r['priority']:>3}  {r['jobs']:>7}  {r['rejected']:>5}  "
            f"{r['samples']:>8}  {r['failed']:>6}  "
            f"{r['bytes'] / 1e6:>9.2f}  {r['share']:>6.1%}  "
            f"{ms(r['p50']):>9}  {ms(r['p99']):>9}  "
            f"{ms(r.get('xform_wait_p99', 0.0)):>9}  "
            f"{r['slo_violations']:>5}"
        )
        if service_shares is not None:
            svc = service_shares.get(r["tenant"])
            line += f"  {svc:>6.1%}" if svc is not None else f"  {'-':>6}"
        lines.append(line)
    return "\n".join(lines)


def _routed_table(routed: dict) -> list[str]:
    """Per-lane routed counts with their shares and a total row."""
    total = sum(routed.values())
    lines = [f"  {'lane':>6}  {'routed':>8}  {'share':>6}"]
    for lane in sorted(routed):
        count = routed[lane]
        share = (count / total) if total else 0.0
        lines.append(f"  {lane:>6}  {count:>8}  {share:>6.1%}")
    lines.append(f"  {'total':>6}  {total:>8}")
    return lines


def render_cluster(
    routed: dict,
    recovery: Optional[dict] = None,
    lifecycle: Optional[dict] = None,
    title: str = "cluster serving report",
) -> str:
    """Plaintext replicated-serving report: per-lane routing + lifecycle.

    ``routed`` maps lane -> fetches routed there (the balancer's view,
    merged over clients); ``recovery`` and ``lifecycle`` are the plain
    counter dicts from the reactor recovery stats and the cluster
    lifecycle (kept as dicts so obs never imports cluster).
    """
    lines = [f"-- {title} --"]
    lines.extend(_routed_table(routed) if routed else ["  (no fetches routed)"])
    for label, counters in (("recovery", recovery), ("lifecycle", lifecycle)):
        if not counters:
            continue
        lines.append(f"  {label}:")
        width = max(len(k) for k in counters)
        for key in sorted(counters):
            value = counters[key]
            shown = f"{value * 1e3:.3f} ms" if key == "degraded_time" else value
            lines.append(f"    {key:<{width}}  {shown}")
    return "\n".join(lines)


def render_xform(
    tier: dict,
    utilization: Iterable[dict] = (),
    links: Iterable[dict] = (),
    routed: Optional[dict] = None,
    title: str = "fetch/transform tier report",
) -> str:
    """Plaintext transform-tier report: per-tier utilization, transfer
    engine per-link byte/latency attribution, per-lane routing.

    All inputs are plain dicts/rows (``XformTier.counters()``,
    ``.utilization_rows()``, ``TransferEngine.link_rows()``,
    ``XformTier.routed()``) so obs never imports xform; ``tier`` is a
    running tier's counters.
    """
    lines = [
        f"-- {title} --",
        f"  boundary: {tier['boundary']}/{tier['stages']} stages on storage"
        f"  tasks={tier['tasks']}  direct_ships={tier['direct_ships']}"
        f"  redispatches={tier['redispatches']}"
        f"  crashes={tier['crashes']}  rejoins={tier['rejoins']}",
    ]
    rows = list(utilization)
    if rows:
        lines.append(f"  {'tier':<8}  {'node':<8}  {'cores':>5}  {'cpu':>6}")
        for r in rows:
            lines.append(
                f"  {r['tier']:<8}  {r['node']:<8}  {r['cores']:>5}  "
                f"{r['cpu']:>6.1%}"
            )
    if routed:
        lines.extend(_routed_table(routed))
    link_rows = list(links)
    if link_rows:
        lines.append(
            f"  {'link':<18}  {'MB':>9}  {'chunks':>7}  {'xfers':>6}  "
            f"{'credit wait':>11}  {'busy':>9}"
        )
        for r in link_rows:
            lines.append(
                f"  {r['src'] + '->' + r['dst']:<18}  "
                f"{r['bytes'] / 1e6:>9.2f}  {r['chunks']:>7}  "
                f"{r['transfers']:>6}  {r['credit_wait'] * 1e3:>9.3f}ms  "
                f"{r['busy'] * 1e3:>7.3f}ms"
            )
    return "\n".join(lines)


def percentile_rows(
    registry: MetricsRegistry, names: Optional[Iterable[str]] = None
) -> list[tuple[str, Histogram]]:
    """(name, histogram) rows for the latency panel, sorted by name."""
    hists = registry.histograms
    if names is None:
        names = sorted(hists)
    return [(n, hists[n]) for n in names if n in hists and hists[n].count > 0]


def render_percentiles(
    registry: MetricsRegistry, names: Optional[Iterable[str]] = None
) -> str:
    """Plaintext p50/p90/p99/p999 table over the registry's histograms."""
    rows = percentile_rows(registry, names)
    if not rows:
        return "-- latency percentiles: (no observations) --"
    width = max(len(n) for n, _ in rows)
    lines = [
        "-- latency percentiles (estimated from fixed log buckets) --",
        f"  {'layer':<{width}}  {'count':>8}  {'p50':>9}  {'p90':>9}  "
        f"{'p99':>9}  {'p999':>9}",
    ]

    def us(v: float) -> str:
        return f"{v * 1e6:.2f}us" if v < 1e-2 else f"{v * 1e3:.2f}ms"

    for name, h in rows:
        p = h.percentiles()
        lines.append(
            f"  {name:<{width}}  {h.count:>8}  {us(p['p50']):>9}  "
            f"{us(p['p90']):>9}  {us(p['p99']):>9}  {us(p['p999']):>9}"
        )
    return "\n".join(lines)
