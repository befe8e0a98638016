"""Plain-text rendering of figure results and driver runs.

The benchmark targets print these tables so a run of
``pytest benchmarks/ --benchmark-only`` regenerates every figure's data
as readable rows (series per column) plus the paper-vs-measured
headline block.  :func:`render_run` prints one
:class:`~repro.bench.workloads.RunReport` for the run subcommands of
the CLI.
"""

from __future__ import annotations

from typing import Iterable

from .figures import FigureResult

__all__ = [
    "render_figure",
    "render_headline",
    "render_run",
    "format_quantity",
]


def format_quantity(value) -> str:
    """Human-scale numbers: 1.23M, 45.6K, 0.0123, True/False."""
    if isinstance(value, bool):
        return str(value)
    if not isinstance(value, (int, float)):
        return str(value)
    v = float(value)
    if v == 0.0:
        return "0"
    a = abs(v)
    if a >= 1e9:
        return f"{v / 1e9:.3g}G"
    if a >= 1e6:
        return f"{v / 1e6:.3g}M"
    if a >= 1e3:
        return f"{v / 1e3:.3g}K"
    if a >= 1:
        return f"{v:.4g}"
    if a >= 1e-3:
        return f"{v * 1e3:.3g}m"
    return f"{v * 1e6:.3g}u"


def render_figure(result: FigureResult, max_rows: int = 40) -> str:
    """Figure data as an aligned table: one row per x, one column per series."""
    lines = [
        f"== {result.figure}: {result.title} ==",
        f"   ({result.x_label} vs {result.y_label})",
    ]
    names = list(result.series)
    xs: list = sorted({x for s in result.series.values() for x in s})
    if len(xs) > max_rows:
        stride = -(-len(xs) // max_rows)
        xs = xs[::stride]
    header = [result.x_label] + names
    rows = [header]
    for x in xs:
        row = [format_quantity(x)]
        for name in names:
            value = result.series[name].get(x)
            row.append("-" if value is None else format_quantity(value))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
    if result.headline:
        lines.append("")
        lines.append(render_headline(result))
    if result.notes:
        lines.extend(f"note: {n}" for n in result.notes)
    return "\n".join(lines)


def render_headline(result: FigureResult) -> str:
    """The paper-vs-measured comparison block."""
    lines = ["-- paper vs measured --"]
    for desc, (paper, measured) in result.headline.items():
        lines.append(
            f"  {desc}: paper={format_quantity(paper)} "
            f"measured={format_quantity(measured)}"
        )
    return "\n".join(lines)


def render_run(report, title: str, extra: Iterable[str] = ()) -> str:
    """Plaintext report of one driver run.

    The headline counters come first (a counter the driver left empty
    is not printed), then the ``extra`` lines, then one table per
    filled section: the tenancy saturation window, the cluster
    routing/recovery/lifecycle block, the transform tier and the
    per-tenant rows.
    """
    from ..obs import render_cluster, render_tenants, render_xform

    r = report
    lines = [
        f"== {title} ==",
        f"throughput        {r.sample_throughput:,.0f} samples/s",
        f"delivered         {r.delivered}",
    ]
    if r.failed or r.expected is not None:
        lines.append(f"failed            {r.failed}")
    if r.expected is not None:
        verdict = "accounted" if r.accounted else "MISMATCH"
        lines.append(f"expected          {r.expected}  ({verdict})")
    if r.rejected_jobs:
        lines.append(f"rejected jobs     {r.rejected_jobs}")
    if r.jobs is not None:
        lines.append(f"jobs              {r.jobs}")
    lines.append(f"sim time          {r.sim_time * 1e3:.3f} ms")
    if r.preemptions is not None:
        lines.append(f"preemptions       {r.preemptions}  "
                     f"(forced anti-starvation serves: {r.forced_serves})")
    for key, value in sorted((r.fault_counts or {}).items()):
        lines.append(f"injected {key:<17} {value}")
    # Runs that routed over replicas or crashed nodes get the cluster
    # block, which lists recovery itself.
    cluster = r.balancer is not None and bool(
        r.balancer["routed"] or r.lifecycle
    )
    if not cluster:
        for key, value in sorted((r.recovery or {}).items()):
            shown = f"{value * 1e3:.3f} ms" if key == "degraded_time" else value
            lines.append(f"recovery {key:<17} {shown}")
    lines.extend(extra)
    sections = ["\n".join(lines)]
    if r.window_rows is not None:
        sections.append(render_tenants(
            r.window_rows, title="saturation window (arrival-horizon edge)",
            service_shares=r.service_shares,
        ))
    if cluster:
        sections.append(
            render_cluster(r.balancer["routed"], r.recovery, r.lifecycle)
        )
    if r.tier:
        sections.append(render_xform(r.tier, r.utilization, r.links, r.routed))
    if r.per_tenant:
        sections.append(render_tenants(r.per_tenant, title=(
            "full run (after drain)" if r.window_rows is not None
            else "per-tenant (merged)"
        )))
    return "\n\n".join(sections)
