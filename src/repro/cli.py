"""Command-line interface: regenerate paper figures without pytest.

Usage::

    python -m repro list
    python -m repro figure fig09 [--scale 0.5] [--out results/]
    python -m repro all [--scale 1.0] [--out results/]
    python -m repro claims [--scale 0.5]

``figure``/``all`` print each figure's data table and headline block
(the same rendering the benchmarks produce) and optionally write them
to files.  ``claims`` prints only the paper-vs-measured headlines —
the quickest way to check the reproduction end to end.

``chaos`` runs a fault-injected epoch sweep (not a paper figure)::

    python -m repro chaos --fault-plan media=0.01,reset_period=0.002
    python -m repro chaos --fault-plan '{"media_error_rate": 0.05}' --epochs 3

``trace`` runs one observed workload and exports the observability
artifacts: a Perfetto-loadable Chrome trace, the JSON metrics dump, and
the per-layer latency attribution / percentile tables::

    python -m repro trace --samples 2000
    python -m repro trace --fault-plan media=0.02,reset_period=0.002 --out results/trace

``serve`` runs the multi-tenant serving demo — the seeded traffic
engine driving weighted tenants through admission control and the
fair-queued datapath — and prints the per-tenant SLO/fairness tables::

    python -m repro serve
    python -m repro serve --horizon 0.1 --seed 7 --out results/serve.json

``lint`` and ``sanitize`` are the determinism gates (both used by CI)::

    python -m repro lint src/repro              # AST rules, exit 1 on findings
    python -m repro sanitize --runs 5           # tiebreak-perturbation sweep

``perfcheck`` is the fast-path equivalence gate: it runs the fig06 and
fig08 workloads under both the reference and the optimized kernel and
asserts sim_time, the sample-order digest, and the metrics snapshot are
bit-identical (exit 1 on divergence)::

    python -m repro perfcheck
    python -m repro perfcheck --quick --out results/perfcheck.json

``cluster`` runs the replicated serving tier — rendezvous-hashed
replica placement, the cache-aware front-end balancer, and the full
node crash/failover/rejoin lifecycle — under live multi-tenant
traffic, and prints per-lane routing plus recovery/lifecycle counters::

    python -m repro cluster
    python -m repro cluster --crash 1=0.004:0.012 --replicas 2
    python -m repro cluster --quick --crash 1=0.004:0.008 --out results/cluster.json

``xform`` runs the disaggregated fetch/transform tier: decode/transform
stages with pushdown placement (storage node vs transform workers), the
chunked fabric transfer engine, and per-tier utilization reporting::

    python -m repro xform --stages parse,augment:0.5
    python -m repro xform --stages parse,decompress:2 --placement storage
    python -m repro xform --stages parse --crash 0=0.002:0.005 --out results/xform.json

``scenario`` is the golden-master regression harness: named, seeded
traffic/fault scenarios (flash crowds, tenant churn, dataset hot-swap,
rolling upgrades, regional failover, diurnal fleet days) compiled onto
the engines above, with bit-exact drift checking against committed
baselines under ``scenarios/golden/``::

    python -m repro scenario list
    python -m repro scenario run flash-crowd --quick
    python -m repro scenario record rolling-upgrade --label "why this baseline is right"
    python -m repro scenario check                    # exit 1 on drift, with attribution
    python -m repro scenario check --quick --perturb 0.01   # must FAIL (gate self-check)
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable

from .bench import figures as F
from .bench.report import render_figure, render_headline, render_run

__all__ = ["main", "FIGURES"]

#: name -> (callable, description)
FIGURES: dict[str, tuple[Callable, str]] = {
    "fig01": (F.fig01_size_distribution, "sample-size distributions"),
    "fig06": (F.fig06_single_node_throughput, "single-node throughput"),
    "fig07a": (F.fig07a_core_scaling, "CPU core scaling"),
    "fig07b": (F.fig07b_compute_overlap, "compute/I-O overlap"),
    "fig08": (F.fig08_throughput_16_nodes, "16-node throughput"),
    "fig09": (F.fig09_scalability, "scalability 2-16 nodes"),
    "fig10": (F.fig10_lookup_time, "sample lookup time"),
    "fig11": (F.fig11_disaggregation, "disaggregation effectiveness"),
    "fig12": (F.fig12_tensorflow, "TensorFlow ingest"),
    "fig13": (F.fig13_training_accuracy, "training accuracy"),
}

#: Figures whose drivers accept a ``scale`` parameter.
_UNSCALED = {"fig01"}


def _run_figure(name: str, scale: float):
    fn, _ = FIGURES[name]
    if name in _UNSCALED:
        return fn()
    return fn(scale=scale)


def _fault_plan(text: str):
    """argparse type of ``--fault-plan``: a :class:`FaultPlan`."""
    from .errors import ConfigError
    from .faults import parse_fault_plan

    try:
        return parse_fault_plan(text)
    except (ConfigError, OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _crash(spec: str) -> tuple:
    """argparse type of ``--crash INDEX=T1[:T2]``: one crash entry."""
    index, _, times = spec.partition("=")
    t1, rejoins, t2 = times.partition(":")
    try:
        return (int(index), float(t1), float(t2) if rejoins else None)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{spec!r}: expected INDEX=T1[:T2] (integer lane or worker, "
            "times in sim seconds)"
        ) from None


def _common_parent() -> argparse.ArgumentParser:
    """Shared flags for every workload subcommand.

    ``chaos``/``serve``/``cluster``/``xform``/``scale``/``scenario`` all
    inherit ``--seed``/``--quick``/``--json``/``--out`` from this parent
    so the flags mean the same thing everywhere.  ``--seed`` defaults to
    ``None`` and each command resolves its own default (42 for the
    traffic engines; ``chaos`` keeps the fault plan's seed), preserving
    the historical per-command semantics.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=None,
                        help="deterministic seed (default: per-command)")
    parent.add_argument("--quick", action="store_true",
                        help="downscaled run (CI smoke)")
    parent.add_argument("--json", action="store_true",
                        help="print the JSON summary to stdout instead of "
                             "the human tables")
    parent.add_argument("--out", type=pathlib.Path, default=None,
                        help="write a JSON summary here")
    return parent


def _write_json(out: pathlib.Path | None, blob, as_json: bool) -> None:
    """Honor the shared ``--json`` / ``--out`` flags for one summary."""
    import json

    if as_json:
        print(json.dumps(blob, indent=2, default=str))
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(blob, indent=2, default=str) + "\n")
        if not as_json:
            print(f"\nwrote {out}")


def _emit(result, out_dir: pathlib.Path | None, headline_only: bool) -> None:
    text = render_headline(result) if headline_only else render_figure(result)
    print(f"\n== {result.figure}: {result.title} ==" if headline_only else "")
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{result.figure}.txt").write_text(
            render_figure(result) + "\n"
        )


def _chaos(args):
    import dataclasses

    from .bench.workloads import dlfs_chaos

    plan = args.fault_plan
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    r = dlfs_chaos(
        plan, num_nodes=args.nodes, sample_bytes=args.size,
        num_samples=args.samples, epochs=args.epochs, mode=args.batching,
    )
    title = (f"chaos: {args.nodes} nodes, {args.epochs} epochs, "
             f"{args.samples} x {args.size} B samples")
    return r, title, [f"plan              {plan}"]


def _trace(args):
    from .bench.workloads import dlfs_observed
    from .obs import (
        render_breakdown,
        render_percentiles,
        write_chrome_trace,
        write_metrics,
    )

    r = dlfs_observed(
        samples=args.samples, sample_bytes=args.size, num_nodes=args.nodes,
        mode=args.batching,
        fault_plan=None if args.fault_plan.is_zero else args.fault_plan,
        snapshot_period=args.snapshot_period,
    )
    trace_path = write_chrome_trace(r.obs.tracer, args.out / "trace.json")
    metrics_path = write_metrics(r.obs.metrics, args.out / "metrics.json")
    tables = [
        render_breakdown(r.obs.metrics.layers(name), r.sim_time)
        for name in r.reactor_names
    ]
    tables.append(render_percentiles(r.obs.metrics))
    breakdown_text = "\n\n".join(tables)
    (args.out / "breakdown.txt").write_text(breakdown_text + "\n")
    title = (f"trace: {args.nodes} node(s), {r.delivered} samples "
             f"x {args.size} B")
    return r, title, [
        f"spans             {len(r.obs.tracer.spans)}",
        "",
        breakdown_text,
        "",
        f"wrote {trace_path} (load in https://ui.perfetto.dev)",
        f"wrote {metrics_path}",
        f"wrote {args.out / 'breakdown.txt'}",
    ]


def _serve(args):
    from .bench.workloads import dlfs_tenancy

    r = dlfs_tenancy(
        horizon=args.horizon, warmup=min(args.warmup, args.horizon / 5),
        seed=args.seed, queue_depth=args.queue_depth,
        fault_plan=None if args.fault_plan.is_zero else args.fault_plan,
    )
    title = (f"serve: 3 tenants, horizon {args.horizon * 1e3:.0f} ms, "
             f"seed {args.seed}")
    return r, title, []


def _cluster(args):
    from .bench.workloads import dlfs_cluster

    r = dlfs_cluster(
        num_storage=args.storage, num_clients=args.clients,
        replicas=args.replicas, num_samples=args.samples,
        horizon=args.horizon, seed=args.seed,
        node_crashes=tuple(args.crash), hedge_delay=args.hedge,
        read_cache_chunks=args.read_cache,
    )
    title = (f"cluster: {args.storage} storage nodes, {args.clients} "
             f"client(s), R={args.replicas}, horizon "
             f"{args.horizon * 1e3:.0f} ms, seed {args.seed}")
    return r, title, []


def _xform(args):
    from .bench.workloads import dlfs_xform
    from .xform import XformSpec, parse_stages

    stages = (
        () if args.stages.strip() in ("", "none")
        else parse_stages(args.stages)
    )
    spec = None
    if stages:
        spec = XformSpec(
            stages=stages, workers=args.workers,
            placement=args.placement, packed_ratio=args.packed,
        )
    else:
        args.workers = 0  # no transform nodes are built
    r = dlfs_xform(
        num_storage=args.storage, num_clients=args.clients,
        num_samples=args.samples, sample_bytes=args.size,
        horizon=args.horizon, seed=args.seed, spec=spec,
        xform_crashes=tuple(args.crash),
    )
    title = (f"xform: {args.storage} storage + {args.workers} transform "
             f"nodes, {args.clients} client(s), stages '{args.stages}', "
             f"placement {args.placement}, horizon "
             f"{args.horizon * 1e3:.0f} ms, seed {args.seed}")
    return r, title, []


#: Run subcommand -> (preset returning ``(report, title, extra lines)``,
#: the arguments its JSON summary leads with or ``None`` for no JSON
#: summary, the argument values ``--quick`` sets).
_RUNS = {
    "chaos": (_chaos, (), {"samples": 512, "epochs": 1}),
    "trace": (_trace, None, {}),
    "serve": (_serve, (), {"horizon": 0.02}),
    "cluster": (
        _cluster, ("storage", "clients", "replicas"),
        {"storage": 4, "clients": 1, "samples": 2048, "horizon": 0.01},
    ),
    "xform": (
        _xform,
        ("storage", "workers", "clients", "stages", "placement", "packed"),
        {"samples": 1024, "horizon": 0.005},
    ),
}


def _run(args) -> int:
    """Run one driver preset, print its report, write its JSON summary.

    Exit 2 on a configuration error, 1 if a run with an ``expected``
    count does not account for every sample, 0 otherwise.
    """
    from .errors import ConfigError

    preset, head, quick = _RUNS[args.command]
    if getattr(args, "quick", False):
        vars(args).update(quick)
    if args.command in ("serve", "cluster", "xform") and args.seed is None:
        args.seed = 42  # the traffic engines' default; chaos keeps the plan's
    t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
    try:
        r, title, extra = preset(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    as_json = getattr(args, "json", False)
    if not as_json:
        print(render_run(r, title, extra))
    if head is not None:
        blob = {key: getattr(args, key) for key in head}
        _write_json(args.out, {**blob, **r.summary()}, as_json)
    if not as_json:
        print(f"\n[{args.command} in {time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
    return 0 if r.expected is None or r.accounted else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the DLFS (CLUSTER 2019) evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()

    sub.add_parser("list", help="list available figures")

    p_fig = sub.add_parser("figure", help="run one figure")
    p_fig.add_argument("name", choices=sorted(FIGURES))
    p_fig.add_argument("--scale", type=float, default=1.0,
                       help="workload scale factor (default 1.0)")
    p_fig.add_argument("--out", type=pathlib.Path, default=None,
                       help="directory to write the rendered table to")

    p_all = sub.add_parser("all", help="run every figure")
    p_all.add_argument("--scale", type=float, default=1.0)
    p_all.add_argument("--out", type=pathlib.Path, default=None)

    p_claims = sub.add_parser(
        "claims", help="print only the paper-vs-measured headlines"
    )
    p_claims.add_argument("--scale", type=float, default=0.5)

    p_chaos = sub.add_parser(
        "chaos", parents=[common],
        help="fault-injected run with recovery accounting",
    )
    p_chaos.add_argument(
        "--fault-plan", type=_fault_plan,
        default="media=0.01,reset_period=0.002",
        help="JSON or key=value,... fault plan; 'zero' disables injection "
             "(keys: media, hiccup, timeout, drop, nvmf_drop, reset_period, "
             "reset_jitter, seed)",
    )
    p_chaos.add_argument("--nodes", type=int, default=2)
    p_chaos.add_argument("--samples", type=int, default=1024)
    p_chaos.add_argument("--epochs", type=int, default=2)
    p_chaos.add_argument("--size", type=int, default=4096,
                         help="sample size in bytes (default 4096)")
    p_chaos.add_argument("--batching", default="chunk",
                         choices=("none", "sample", "chunk"))

    p_trace = sub.add_parser(
        "trace", help="observed run: Chrome trace + latency attribution"
    )
    p_trace.add_argument("--samples", type=int, default=2000,
                         help="total sample reads to drive (default 2000)")
    p_trace.add_argument("--size", type=int, default=16 * 1024,
                         help="sample size in bytes (default 16384)")
    p_trace.add_argument("--nodes", type=int, default=1)
    p_trace.add_argument("--batching", default="chunk",
                         choices=("none", "sample", "chunk"))
    p_trace.add_argument(
        "--fault-plan", type=_fault_plan, default="zero",
        help="fault plan as for 'chaos'; default 'zero' (healthy run)",
    )
    p_trace.add_argument("--snapshot-period", type=float, default=0.0,
                         help="metrics time-series period in sim seconds")
    p_trace.add_argument("--out", type=pathlib.Path,
                         default=pathlib.Path("results/trace"),
                         help="output directory (default results/trace)")

    p_serve = sub.add_parser(
        "serve", parents=[common],
        help="multi-tenant serving demo: traffic engine + admission + "
             "weighted-fair scheduling, with per-tenant SLO tables",
    )
    p_serve.add_argument("--horizon", type=float, default=0.05,
                         help="arrival window in sim seconds (default 0.05)")
    p_serve.add_argument("--warmup", type=float, default=0.01,
                         help="service-share window start (default 0.01)")
    p_serve.add_argument("--queue-depth", type=int, default=32)
    p_serve.add_argument(
        "--fault-plan", type=_fault_plan, default="zero",
        help="fault plan as for 'chaos'; supports tenant.NAME=rate keys",
    )

    p_lint = sub.add_parser(
        "lint", help="simlint: static determinism analysis (exit 1 on findings)"
    )
    p_lint.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src/repro)")
    p_lint.add_argument("--rules", action="store_true",
                        help="print the rule table and exit")
    p_lint.add_argument("--flow", action="store_true",
                        help="run simflow (whole-program dataflow + "
                             "lifecycle protocols, SF2xx/SF3xx)")
    p_lint.add_argument("--changed", nargs="*", default=None,
                        metavar="FILE",
                        help="[--flow] pre-commit mode: analyze only the "
                             "import-closure of these changed files "
                             "(default: git diff vs HEAD)")
    p_lint.add_argument("--baseline", type=pathlib.Path, default=None,
                        metavar="JSON",
                        help="[--flow] fail only on findings absent from "
                             "this baseline file")
    p_lint.add_argument("--update-baseline", action="store_true",
                        help="[--flow] rewrite the baseline from current "
                             "findings (keeps existing reasons)")
    p_lint.add_argument("--sarif", type=pathlib.Path, default=None, metavar="JSON",
                        help="[--flow] also write findings as SARIF 2.1.0")

    p_san = sub.add_parser(
        "sanitize",
        help="SimSanitizer: rerun the default workload under perturbed "
             "same-timestamp tiebreaks and assert invariant results",
    )
    p_san.add_argument("--runs", type=int, default=5,
                       help="perturbed tiebreak seeds to sweep (default 5)")
    p_san.add_argument("--seed", type=int, default=2019,
                       help="base perturbation seed (default 2019)")
    p_san.add_argument(
        "--scenario",
        choices=("default", "cluster", "xform", "scale", "scenario", "all"),
        default="all",
        help="workload(s) to sweep: the flat datapath smoke, the "
             "cluster crash-during-handoff scenario, the transform-tier "
             "crash scenario, the hybrid-fidelity scale scenario, the "
             "golden-master scenario pack, or all (default all)",
    )
    p_san.add_argument("--out", type=pathlib.Path, default=None,
                       help="write the JSON report here")

    p_perf = sub.add_parser(
        "perfcheck",
        help="prove fast-path kernel results are bit-identical to the "
             "reference kernel on the fig06/fig08 workloads",
    )
    p_perf.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    p_perf.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")

    p_cluster = sub.add_parser(
        "cluster", parents=[common],
        help="replicated serving tier demo: rendezvous placement, "
             "crash/rejoin failover, hedged reads under live traffic",
    )
    p_cluster.add_argument("--storage", type=int, default=8,
                           help="storage nodes in the fleet (default 8)")
    p_cluster.add_argument("--clients", type=int, default=2,
                           help="client nodes driving traffic (default 2)")
    p_cluster.add_argument("--replicas", type=int, default=2,
                           help="replication factor R (default 2)")
    p_cluster.add_argument(
        "--crash", action="append", type=_crash, default=[],
        metavar="LANE=T1[:T2]",
        help="seeded node crash: lane index, crash time, optional rejoin "
             "time (sim seconds); repeatable",
    )
    p_cluster.add_argument("--hedge", type=float, default=0.0,
                           help="hedged-read delay in sim seconds (0 = off)")
    p_cluster.add_argument("--read-cache", type=int, default=0,
                           help="per-node read-cache chunks (default 0)")
    p_cluster.add_argument("--samples", type=int, default=8192,
                           help="dataset samples (default 8192)")
    p_cluster.add_argument("--horizon", type=float, default=0.02,
                           help="arrival window in sim seconds (default 0.02)")

    p_xform = sub.add_parser(
        "xform", parents=[common],
        help="disaggregated fetch/transform tier: pushdown placement, "
             "chunked fabric transfers, per-tier utilization",
    )
    p_xform.add_argument(
        "--stages", default="parse,augment:0.5",
        help="comma list of kind[:arg][@placement] stages — parse "
             "(arg = payload bytes), decompress (arg = ratio), augment "
             "(arg = selectivity); @storage/@worker pin a stage "
             "(default parse,augment:0.5); 'none' disables the tier",
    )
    p_xform.add_argument("--placement", default="cost",
                         choices=("cost", "storage", "worker"),
                         help="pushdown policy for auto stages (default cost)")
    p_xform.add_argument("--packed", type=float, default=1.0,
                         help="FanStore-style packed-format ratio (>= 1; "
                              "adds an unpack stage, default 1 = off)")
    p_xform.add_argument("--workers", type=int, default=2,
                         help="transform worker nodes (default 2)")
    p_xform.add_argument("--storage", type=int, default=2,
                         help="storage nodes (default 2)")
    p_xform.add_argument("--clients", type=int, default=2,
                         help="client nodes driving traffic (default 2)")
    p_xform.add_argument(
        "--crash", action="append", type=_crash, default=[],
        metavar="WORKER=T1[:T2]",
        help="seeded transform-worker crash: worker index, crash time, "
             "optional rejoin time (sim seconds); repeatable",
    )
    p_xform.add_argument("--samples", type=int, default=2048,
                         help="dataset samples (default 2048)")
    p_xform.add_argument("--size", type=int, default=64 * 1024,
                         help="sample size in bytes (default 65536)")
    p_xform.add_argument("--horizon", type=float, default=0.01,
                         help="arrival window in sim seconds (default 0.01)")

    p_scale = sub.add_parser(
        "scale", parents=[common],
        help="hybrid-fidelity fleet day: fluid bulk lanes + event-accurate "
             "tagged flows over a 1M-user diurnal workload",
    )
    p_scale.add_argument("--users", type=int, default=1_000_000,
                         help="fleet size (default 1000000)")
    p_scale.add_argument("--cohorts", type=int, default=8,
                         help="tenant cohorts (default 8)")
    p_scale.add_argument("--day", type=float, default=86400.0,
                         help="simulated day length in seconds (default 86400)")
    p_scale.add_argument("--lanes", type=int, default=8,
                         help="fluid lanes / storage paths (default 8)")
    p_scale.add_argument("--rate", type=float, default=0.02,
                         help="midline requests/s per user (default 0.02)")
    p_scale.add_argument("--size", type=int, default=262144,
                         help="sample size in bytes (default 262144)")
    p_scale.add_argument("--tagged", type=int, default=4,
                         help="event-accurate tagged flows per cohort "
                              "(default 4)")
    p_scale.add_argument("--slice-users", type=int, default=2000,
                         help="equivalence-slice fleet size (default 2000)")
    p_scale.add_argument("--slice-day", type=float, default=600.0,
                         help="equivalence-slice day length (default 600)")
    p_scale.add_argument("--no-check", dest="check", action="store_false",
                         help="skip the slice equivalence gate")

    p_scn = sub.add_parser(
        "scenario", parents=[common],
        help="scenario DSL + golden-master harness: run named traffic "
             "scenarios, record reviewed baselines, check for drift",
    )
    p_scn.add_argument("action", choices=("list", "run", "record", "check"),
                       help="list scenarios; run and print a fingerprint; "
                            "record golden masters; check against goldens")
    p_scn.add_argument("names", nargs="*",
                       help="scenario names (default: the whole pack)")
    p_scn.add_argument("--label", default="",
                       help="[record] reviewed one-line justification for "
                            "the new baseline (required)")
    p_scn.add_argument("--perturb", type=float, default=0.0,
                       help="[run/check] scale open-loop rates by "
                            "1+PERTURB — the drift self-check's injected "
                            "divergence (default 0)")
    p_scn.add_argument("--golden-root", type=pathlib.Path, default=None,
                       help="directory holding scenarios/golden/ "
                            "(default: the repo root)")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, (_, desc) in sorted(FIGURES.items()):
            print(f"{name:<8} {desc}")
        return 0

    if args.command == "figure":
        t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
        result = _run_figure(args.name, args.scale)
        _emit(result, args.out, headline_only=False)
        print(f"\n[{args.name} in {time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
        return 0

    if args.command in _RUNS:
        return _run(args)

    if args.command == "lint":
        from .analysis import RULES, lint_paths, render_findings

        if args.rules:
            from .analysis.rules import FLOW_RULES

            for rule in RULES + FLOW_RULES:
                print(f"{rule.id} [{rule.name}] {rule.summary}")
                print(f"    fix: {rule.hint}")
            return 0
        paths = args.paths or ["src/repro"]
        if not args.flow:
            findings = lint_paths(paths)
            print(render_findings(findings))
            return 1 if findings else 0

        import json

        from .analysis.simflow import (
            diff_against_baseline,
            load_baseline,
            run_simflow,
            to_sarif,
            write_baseline,
        )

        changed = args.changed
        if changed is not None and not changed:
            # Bare --changed: ask git for the modified files.
            import subprocess

            out = subprocess.run(
                ["git", "diff", "--name-only", "HEAD", "--", "*.py"],
                capture_output=True, text=True, check=False,
            ).stdout
            changed = [ln for ln in out.splitlines() if ln.strip()]
            if not changed:
                print("flow: no changed python files")
                return 0
        report = run_simflow(paths, changed=changed)
        for path, err in report.parse_errors:
            print(f"{path}: parse error: {err}", file=sys.stderr)
        if args.sarif is not None:
            args.sarif.parent.mkdir(parents=True, exist_ok=True)
            args.sarif.write_text(
                json.dumps(to_sarif(report.findings), indent=2) + "\n"
            )
            print(f"wrote {args.sarif}", file=sys.stderr)
        if args.update_baseline:
            target = args.baseline or pathlib.Path("simflow-baseline.json")
            prev = load_baseline(target)
            n = write_baseline(target, report.findings, prev)
            print(f"flow: baseline rewritten: {n} findings -> {target}")
            return 0
        baseline = load_baseline(args.baseline) if args.baseline else {}
        new, stale = diff_against_baseline(report.findings, baseline)
        for fp, f in new:
            print(f.render())
            print(f"    fingerprint: {fp}")
        known = len(report.findings) - len(new)
        print(
            f"flow: {len(report.analyzed_files)} files, "
            f"{len(report.findings)} findings "
            f"({len(new)} new, {known} baselined, "
            f"{report.suppressed} suppressed)"
        )
        if changed is None:
            # Pruned runs can't see the whole tree, so absence there
            # does not mean an entry went stale.
            for fp in stale:
                entry = baseline[fp]
                print(
                    f"flow: stale baseline entry {fp} "
                    f"({entry.get('rule')} {entry.get('path')}) — "
                    "remove it", file=sys.stderr,
                )
        return 1 if new else 0

    if args.command == "sanitize":
        from .analysis import run_sanitizer
        from .analysis.sanitizer import (
            cluster_crash_workload,
            default_workload,
            scale_hybrid_workload,
            scenario_pack_workload,
            xform_crash_workload,
        )

        scenarios = {
            "default": default_workload,
            "cluster": cluster_crash_workload,
            "xform": xform_crash_workload,
            "scale": scale_hybrid_workload,
            "scenario": scenario_pack_workload,
        }
        selected = (
            list(scenarios) if args.scenario == "all" else [args.scenario]
        )
        t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
        reports = {}
        for name in selected:
            reports[name] = run_sanitizer(
                workload=scenarios[name],
                runs=args.runs, base_seed=args.seed,
                progress=lambda msg, name=name: print(
                    f"  .. [{name}] {msg}", file=sys.stderr
                ),
            )
        _write_json(
            args.out, {name: r.to_dict() for name, r in reports.items()}, False
        )
        for name, report in reports.items():
            print(f"== scenario: {name} ==")
            print(report.render())
        print(f"[sanitize in {time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
        return 0 if all(r.ok for r in reports.values()) else 1

    if args.command == "perfcheck":
        from .analysis import run_perfcheck

        t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
        report = run_perfcheck(
            quick=args.quick,
            progress=lambda msg: print(f"  .. {msg}", file=sys.stderr),
        )
        _write_json(args.out, report.to_dict(), False)
        print(report.render())
        print(f"[perfcheck in {time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
        return 0 if report.ok else 1

    if args.command == "scale":
        import dataclasses

        from .errors import ConfigError
        from .sim.fluid import ScaleSpec, equivalence_check, run_scale

        def say(*a, **k):
            if not args.json:
                print(*a, **k)

        users = 50_000 if args.quick else args.users
        day = 7200.0 if args.quick else args.day
        spec = ScaleSpec(
            users=users, cohorts=args.cohorts, day=day, lanes=args.lanes,
            rate_per_user=args.rate, sample_bytes=args.size,
            tagged_per_cohort=args.tagged,
            seed=42 if args.seed is None else args.seed,
        )
        try:
            spec.validate()
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        say(f"== scale: {spec.users:,} users, {spec.cohorts} cohorts, "
            f"{spec.lanes} lanes, {spec.day:,.0f} s day, "
            f"seed {spec.seed} ==")
        t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
        hybrid = run_scale(spec, mode="hybrid")
        hybrid_wall = time.time() - t0  # simlint: disable=SL101 -- CLI progress timing, not sim state
        total_requests = hybrid.bulk_requests + len(hybrid.tagged)
        say(f"hybrid wall       {hybrid_wall:.2f} s")
        say(f"events scheduled  {hybrid.events_scheduled:,}")
        say(f"bulk requests     {hybrid.bulk_requests:,} "
            f"({hybrid.bulk_bytes / 1e12:.2f} TB)")
        say(f"events elided     {hybrid.elide_ratio:.4f} of bulk requests")
        pct = hybrid.tagged_percentiles()
        if pct.get("count"):
            say(f"tagged flows      {pct['count']:,} requests | "
                f"p50 {pct['p50'] * 1e3:.3f} ms  "
                f"p90 {pct['p90'] * 1e3:.3f} ms  "
                f"p99 {pct['p99'] * 1e3:.3f} ms  "
                f"p999 {pct['p999'] * 1e3:.3f} ms")
            say(f"SLO violations    {pct['slo_violations']:,} "
                f"(bound {spec.slo * 1e3:.1f} ms)")
        # Extrapolate the all-event cost from a downscaled slice: measure
        # its event throughput, scale by the full run's request count.
        slice_spec = spec.sliced(
            min(args.slice_users, spec.users),
            min(args.slice_day, spec.day),
        )
        t1 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
        ev = run_scale(slice_spec, mode="event")
        slice_wall = max(time.time() - t1, 1e-9)  # simlint: disable=SL101 -- CLI progress timing, not sim state
        ev_requests = ev.bulk_requests + len(ev.tagged)
        events_per_req = ev.events_scheduled / max(ev_requests, 1)
        events_per_s = ev.events_scheduled / slice_wall
        est_event_wall = events_per_req * total_requests / events_per_s
        speedup = est_event_wall / max(hybrid_wall, 1e-9)
        say(f"slice (all-event) {slice_spec.users:,} users / "
            f"{slice_spec.day:,.0f} s: {ev.events_scheduled:,} events "
            f"in {slice_wall:.2f} s")
        say(f"extrapolated all-event wall  {est_event_wall:,.0f} s")
        say(f"speedup vs all-event         {speedup:,.0f}x")
        check = None
        if args.check:
            t2 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
            check = equivalence_check(slice_spec)
            verdict = "PASS" if check["ok"] else "FAIL"
            say(f"equivalence gate  {verdict} "
                f"(order {check['order_digest'][:12]}, "
                f"latency {check['latency_digest'][:12]}, "
                f"eps {check['epsilon']:g})")
            for f in check["failures"]:
                say(f"  FAIL: {f}")
            say(f"[equivalence in {time.time() - t2:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
        ok = (check is None or check["ok"]) and speedup >= 20.0
        _write_json(args.out, {
            "ok": ok,
            "spec": dataclasses.asdict(spec),
            "hybrid": hybrid.summary(),
            "hybrid_wall_s": hybrid_wall,
            "slice": {
                "users": slice_spec.users,
                "day": slice_spec.day,
                "events": ev.events_scheduled,
                "wall_s": slice_wall,
                "events_per_s": events_per_s,
                "events_per_request": events_per_req,
            },
            "extrapolated_event_wall_s": est_event_wall,
            "speedup": speedup,
            "equivalence": check,
        }, args.json)
        say(f"[scale in {time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
        return 0 if ok else 1

    if args.command == "scenario":
        from .errors import ConfigError
        from .scenarios import (
            SCENARIOS,
            compare_fingerprints,
            fingerprint_digest,
            get_scenario,
            golden_path,
            load_golden,
            render_drifts,
            run_scenario,
            write_golden,
        )

        root = (
            str(args.golden_root) if args.golden_root is not None else None
        )
        try:
            names = list(args.names) if args.names else sorted(SCENARIOS)
            scns = [get_scenario(n) for n in names]
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        if args.action == "list":
            rows = []
            for scn in scns:
                has_golden = pathlib.Path(golden_path(scn.name, root)).exists()
                rows.append({
                    "name": scn.name,
                    "engine": scn.engine,
                    "title": scn.title,
                    "tenants": len(scn.tenants),
                    "phases": [p.name for p in scn.phases],
                    "events": len(scn.events),
                    "golden": has_golden,
                })
            if not args.json:
                for row in rows:
                    mark = "golden" if row["golden"] else "no golden"
                    print(f"{row['name']:<18} {row['engine']:<8} "
                          f"[{mark:<9}] {row['title']}")
            _write_json(args.out, rows, args.json)
            return 0

        t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state

        if args.action == "run":
            blob = {}
            for scn in scns:
                fp = run_scenario(
                    scn, quick=args.quick, seed=args.seed,
                    perturb=args.perturb,
                )
                blob[scn.name] = fp
                if not args.json:
                    print(f"{scn.name:<18} [{fp['mode']}] "
                          f"digest {fingerprint_digest(fp)[:16]}  "
                          f"sim_time {fp['sim_time']:.6g} s")
            _write_json(args.out, blob, args.json)
            if not args.json:
                print(f"[scenario run in {time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
            return 0

        if args.action == "record":
            try:
                for scn in scns:
                    recorded = {}
                    for mode in ("quick", "full"):
                        recorded[mode] = run_scenario(
                            scn, quick=(mode == "quick"), seed=args.seed,
                        )
                    path = write_golden(scn.name, args.label, recorded, root)
                    if not args.json:
                        print(f"recorded {scn.name} -> {path}")
            except ConfigError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not args.json:
                print(f"[scenario record in {time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
            return 0

        # check: rerun and diff against the committed goldens.
        report: dict = {}
        failures = 0
        for scn in scns:
            try:
                doc = load_golden(scn.name, root)
            except ConfigError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            modes = ("quick",) if args.quick else ("quick", "full")
            for mode in modes:
                golden = doc["recorded"].get(mode)
                if golden is None:
                    print(f"error: golden for {scn.name!r} has no "
                          f"{mode!r} fingerprint — re-record it",
                          file=sys.stderr)
                    return 2
                fp = run_scenario(
                    scn, quick=(mode == "quick"), seed=args.seed,
                    perturb=args.perturb,
                )
                drifts = compare_fingerprints(golden, fp)
                if drifts:
                    failures += 1
                if not args.json:
                    print(render_drifts(
                        scn.name, mode, drifts,
                        label=doc.get("label", ""),
                    ))
                report.setdefault(scn.name, {})[mode] = {
                    "ok": not drifts,
                    "label": doc.get("label", ""),
                    "drifts": [d.as_dict() for d in drifts],
                }
        _write_json(args.out, report, args.json)
        if not args.json:
            verdict = "FAIL" if failures else "PASS"
            print(f"scenario check: {verdict} "
                  f"({len(scns)} scenario(s), {failures} drifted run(s)) "
                  f"[{time.time() - t0:.1f}s]")  # simlint: disable=SL101 -- CLI progress timing, not sim state
        return 1 if failures else 0

    if args.command in ("all", "claims"):
        headline_only = args.command == "claims"
        out = getattr(args, "out", None)
        for name in sorted(FIGURES):
            t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
            result = _run_figure(name, args.scale)
            _emit(result, out, headline_only=headline_only)
            print(f"[{name} in {time.time() - t0:.1f}s]", file=sys.stderr)  # simlint: disable=SL101 -- CLI progress timing, not sim state
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
