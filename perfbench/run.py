"""The repository benchmark: one command, five workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest-epochs --seed 1 --seconds 18 --trace 0

It byte-compiles ``src/repro``, runs the checks that must stay outside
the timed processes (fleet-day's equivalence check) in an untimed
process, and then measures with fresh processes (``child.py``) until
``--seconds`` are used.  It checks the outputs of every run and prints
a readable report, a provenance record and, as the last line, one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (see :func:`measure`):
``setup_s``, the median of a few cold starts; ``run_rel``, the median
over rounds of the run's CPU time on this code over its CPU time on the
frozen reference, the two sharing one CPU; and ``peak_rss_mb`` of one
cold run.  ``--trace 1`` runs one untraced
process, then traced one-run processes, and reports the per-layer
metrics (see ``README.md``) from the traced ones.
``--perturb count|digest`` corrupts one result before the checks; the
command must then exit nonzero, which shows the checks can fail.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probes import PACKAGES  # noqa: E402
from suite import (  # noqa: E402
    CHECK_PROCESS,
    FROZEN_COMMIT,
    FROZEN_TREE,
    PARAMS,
    WORKLOADS,
)

#: Later performance claims must also hold on this seed.
HELD_OUT_SEED = 1729
#: Cold starts per ``--trace 0`` invocation, one process at a time:
#: ``setup_s`` is their median.  The first process also runs the
#: workload to the end, alone, so every invocation has a run to check
#: the shared rounds' runs against.
SETUPS = 3
#: A measurement process that runs longer than this is killed.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "run_rel": "ratio", "peak_rss_mb": "MB"}

#: Per-layer metric -> unit.  Counters the program keeps come from the
#: traced process's ``layers`` dict and are 0 where the workload does
#: not exercise that layer (the "near-idle, predict no change" rows).
PER_LAYER_UNITS = {
    "run_s": "s",
    "import.s": "s",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "fluid.elide_ratio": "ratio",
    "fluid.bulk_requests": "count",
    "core.mount_s": "s",
    "core.cache_hit_ratio": "ratio",
    "core.cache_evictions": "count",
    "core.reactor_busy_frac": "ratio",
    "core.job_p99_ms": "ms",
    "spdk.qpair_p50_us": "us",
    "spdk.qpair_p99_us": "us",
    "spdk.retries": "count",
    "spdk.resets": "count",
    "hw.nvme_commands": "count",
    "hw.nvme_p99_us": "us",
    "hw.fabric_p99_us": "us",
    "hw.core_util_max": "ratio",
    "tenancy.rejected_jobs": "count",
    "tenancy.preemptions": "count",
    "tenancy.forced_serves": "count",
    "cluster.failovers": "count",
    "cluster.hedges_posted": "count",
    "cluster.handoffs_completed": "count",
    "cluster.handoffs_aborted": "count",
    "cluster.handoff_bytes": "B",
    "cluster.degraded_ms": "ms",
    "cluster.route_imbalance": "ratio",
    "xform.tasks": "count",
    "xform.redispatches": "count",
    "xform.queue_wait_p99_ms": "ms",
    "xform.link_bytes": "B",
    "xform.worker_util": "ratio",
    "xform.storage_core_util": "ratio",
    "analysis.graph_s": "s",
    "analysis.taint_s": "s",
    "analysis.protocols_s": "s",
    "analysis.files": "count",
    "analysis.findings": "count",
    "sim_samples_per_s": "1/s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "ref_ops": "count",
    "slo_miss_frac": "ratio",
    "failed_frac": "ratio",
    "trace.overhead_s": "s",
}
SELF_TIME = PACKAGES + ("other",)
for _pkg in SELF_TIME:
    PER_LAYER_UNITS[f"{_pkg}.self_s"] = "s"
#: Per-layer metrics read from host spans of the traced processes.
SPAN_METRICS = {
    "import.s": "import",
    "core.mount_s": "core.mount",
    "analysis.graph_s": "analysis.graph",
    "analysis.taint_s": "analysis.taint",
    "analysis.protocols_s": "analysis.protocols",
}


def clock_of(name: str, unit: str) -> str:
    """Which clock a metric reads: ``host`` (wall seconds of this
    machine), ``sim`` (simulated time) or ``-`` (a count or ratio)."""
    if name in END_TO_END or unit == "s" or name == "sim.host_us_per_event":
        return "host"
    if unit in ("ms", "us", "1/s") or name.endswith(("_util", "util_max",
                                                      "busy_frac")):
        return "sim"
    return "-"


class ChildFailed(RuntimeError):
    pass


class Child:
    """One measurement process (``child.py``), kept alive so that it
    can run the workload again on request."""

    def __init__(self, workload: str, seed: int, mode: str, env: dict,
                 cpu: int | None = None):
        self.mode = mode
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.read()

    def read(self) -> dict:
        """The next record the process prints (one per request)."""
        pipes = [self.proc.stdout]
        ready, _w, _x = select.select(pipes, [], [], CHILD_TIMEOUT_S)  # simlint: disable=SL110 -- waits for a host process, not in sim time
        if not ready:
            self.kill()
            raise ChildFailed(f"{self.mode} process timed out after "
                              f"{CHILD_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            raise ChildFailed(f"{self.mode} process exited {code} "
                              "(its standard error is above)")
        return json.loads(line)

    def request(self) -> None:
        """Ask for one more run of the workload."""
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()

    def run(self) -> dict:
        """Run the workload once more; that run's result."""
        self.request()
        return self.read()

    def close(self) -> dict:
        """End the process; its closing record (spans, self times)."""
        self.proc.stdin.close()
        final = self.read()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def unpack_reference(work: str) -> None:
    """Unpack the frozen ``src/repro`` under ``work`` and byte-compile it."""
    with tarfile.open(FROZEN_TREE) as tar:
        members = [m for m in tar.getmembers()
                   if m.name.startswith("src/repro/")]
        tar.extractall(work, members=members, filter="data")
    compileall.compile_dir(os.path.join(work, "src", "repro"), quiet=1)


def python_path(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def measure(args, cur_env: dict, ref_env: dict, left, live: list) -> dict:
    """The ``--trace 0`` measurement, on one CPU.

    First ``SETUPS`` cold starts on the code under test, one process at
    a time: one solo run, then set-up-only processes.  Then one process
    on the code under test and one on the frozen reference
    (FROZEN_COMMIT) run the workload in rounds, at least one and then
    until the seconds are used.  In a round both start a run at once
    and share the CPU: the scheduler switches between them every few
    milliseconds, so both meet the same host interference, and each
    run's CPU time is its process's own share.  A round's ratio is the
    two CPU times' quotient.

    Returns the set-up samples, the solo run and the rounds."""
    cpu = max(os.sched_getaffinity(0))
    setups = []
    for i in range(SETUPS):
        proc = Child(args.workload, args.seed, "setup" if i else "plain",
                     cur_env, cpu)
        live.append(proc)
        result = proc.run()
        proc.close()
        setups.append(result["setup_s"])
        if not i:
            solo = result
    cur = Child(args.workload, args.seed, "plain", cur_env, cpu)
    live.append(cur)
    ref = Child(args.workload, args.seed, "plain", ref_env, cpu)
    live.append(ref)
    rounds = []
    longest = 0.0
    while not rounds or left() > longest:
        start = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
        cur.request()
        ref.request()
        c = cur.read()
        r = ref.read()
        end = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
        wall = end - start
        if not rounds:
            # The first round also pays for both cold starts.
            wall -= max(c["setup_s"], r["setup_s"])
        longest = max(longest, wall)
        rounds.append((c, r))
    cur.close()
    ref.close()
    return {"setups": setups, "solo": solo, "rounds": rounds}


def quartile_spread(values: list) -> float:
    """(Q3 - Q1) / median, 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def check(results: list, check_child: dict) -> dict:
    """Output checks over every run of every measurement process;
    name -> passed."""
    first = results[0]
    out = {}
    out["accounting_closes"] = all(
        r["accounting"]["delivered"] + r["accounting"]["failed"]
        == r["accounting"]["expected"]
        for r in results
    )
    out["no_failed_ops"] = all(r["accounting"]["failed"] == 0 for r in results)
    for name in first["checks"]:
        out[name] = all(r["checks"][name] for r in results)
    out.update(check_child["checks"])
    for key in ("witness", "sim_time", "events", "model"):
        out[f"same_{key}_every_run"] = all(r[key] == first[key] for r in results)
    return out


def source_digest(repro_dir: str) -> str:
    """sha1 over the package's Python sources (a revision stand-in that
    works in a checkout without git metadata)."""
    h = hashlib.sha1()
    for base, _dirs, files in sorted(os.walk(repro_dir)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, repro_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_revision(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(root, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        return f"unresolved {ref[5:]}"
    return ref


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def perturb(results: list, how: str) -> None:
    """Corrupt one result the way a real defect would."""
    if how == "count":
        results[0]["accounting"]["delivered"] += 1
    elif how == "digest":
        results[-1]["witness"] = "0" * 40


def per_layer(plain: dict, traced: list) -> dict:
    """Per-layer metrics from the traced processes (one run each) and
    the untraced one."""
    def med(values):
        return statistics.median(values) if values else 0.0

    first = traced[0]["runs"][0]
    layers = {name: 0 for name in PER_LAYER_UNITS}
    layers.update(first["layers"])
    layers.update(first["model"])
    for name, span in SPAN_METRICS.items():
        layers[name] = med([t["final"]["spans"].get(span, 0.0) for t in traced])
    for pkg in SELF_TIME:
        layers[f"{pkg}.self_s"] = med([t["final"]["self_s"][pkg] for t in traced])
    events = first["events"]
    plain_run = med([r["run_s"] for r in plain["runs"]])
    layers["run_s"] = plain_run
    layers["sim.events"] = events
    layers["sim.host_us_per_event"] = plain_run / events * 1e6 if events else 0.0
    # A traced process makes one cold run, so it is compared with the
    # first (cold) run of the untraced process.
    layers["trace.overhead_s"] = (
        med([t["runs"][0]["run_s"] for t in traced]) - plain["runs"][0]["run_s"]
    )
    return {name: layers[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", choices=("none", "count", "digest"),
                        default="none",
                        help="self-test: corrupt one result; must exit nonzero")
    args = parser.parse_args(argv)

    root = os.getcwd()
    repro_dir = os.path.join(root, "src", "repro")
    if not os.path.isfile(os.path.join(repro_dir, "__init__.py")):
        print(f"error: no src/repro package under {root}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    cur_env = python_path(os.path.join(root, "src"))

    # Byte-compile the package first, so the first measured process of a
    # fresh checkout does not pay for it in ``setup_s``.
    compileall.compile_dir(repro_dir, quiet=1)
    live = []
    reference = None
    try:
        check_child = {"checks": {}}
        if args.workload in CHECK_PROCESS:
            checker = Child(args.workload, args.seed, "check", cur_env)
            live.append(checker)
            check_child = checker.run()
            checker.close()
        start = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state

        def left() -> float:
            now = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
            return args.seconds - (now - start)

        if args.trace:
            # One untraced process for the overhead and per-event
            # figures, then one-run traced processes while the seconds
            # last.
            proc = Child(args.workload, args.seed, "plain", cur_env)
            live.append(proc)
            runs = [proc.run()]
            while left() > args.seconds / 2 + runs[-1]["run_s"]:
                runs.append(proc.run())
            plain = {"runs": runs, "final": proc.close()}
            traced = []
            longest = 0.0
            while not traced or left() > longest:
                t0 = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
                proc = Child(args.workload, args.seed, "traced", cur_env)
                live.append(proc)
                run = proc.run()
                traced.append({"runs": [run], "final": proc.close()})
                t1 = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
                longest = max(longest, t1 - t0)
            results = plain["runs"] + [t["runs"][0] for t in traced]
            ref_results = []
        else:
            reference = os.path.join(root, ".perfbench-work",
                                     f"reference-{os.getpid()}")
            unpack_reference(reference)
            ref_env = python_path(os.path.join(reference, "src"))
            measured = measure(args, cur_env, ref_env, left, live)
            results = [measured["solo"]] + [c for c, _r in measured["rounds"]]
            ref_results = [r for _c, r in measured["rounds"]]
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in live:
            proc.kill()
        if reference is not None:
            shutil.rmtree(reference, ignore_errors=True)

    if args.perturb != "none":
        perturb(results, args.perturb)
    checks = check(results, check_child)
    if ref_results:
        for name, passed in check(ref_results, {"checks": {}}).items():
            checks[f"reference.{name}"] = passed
    correct = all(checks.values())

    first = results[0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "params": PARAMS[args.workload],
        "revision": git_revision(root),
        "source_sha1": source_digest(repro_dir),
        "reference_commit": FROZEN_COMMIT,
        "host": host_fingerprint(),
        "witness": first["witness"],
        "sim_time": first["sim_time"],
        "sim.events": first["events"],
        "model": first["model"],
        "checks": checks,
    }
    if args.trace:
        values = per_layer(plain, traced)
        units = PER_LAYER_UNITS
        provenance["runs"] = {"plain": len(plain["runs"]), "traced": len(traced)}
    else:
        host = {
            "setup_s": measured["setups"],
            "solo_run_s": [measured["solo"]["run_s"]],
            "run_cpu_s": [c["run_cpu_s"] for c, _r in measured["rounds"]],
            "reference_run_cpu_s": [r["run_cpu_s"] for r in ref_results],
            "run_ratio": [c["run_cpu_s"] / r["run_cpu_s"]
                          for c, r in measured["rounds"]],
        }
        values = {
            "setup_s": statistics.median(host["setup_s"]),
            "run_rel": statistics.median(host["run_ratio"]),
            "peak_rss_mb": measured["solo"]["peak_rss_mb"],
        }
        units = END_TO_END
        provenance["runs"] = {"setups": len(host["setup_s"]),
                              "rounds": len(measured["rounds"])}
        provenance["host_values"] = host
        provenance["host_spread"] = {k: quartile_spread(v) for k, v in host.items()}

    print(f"== {args.workload} seed {args.seed}: {provenance['runs']} ==")
    for name, value in values.items():
        print(f"{name:28s} {value:16.6g} {units[name]:6s} "
              f"[{clock_of(name, units[name])}]")
    for name, passed in checks.items():
        print(f"check {name:40s} {'ok' if passed else 'FAILED'}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["accounting"]["expected"] for r in results),
        "failed": sum(r["accounting"]["failed"] for r in results),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
