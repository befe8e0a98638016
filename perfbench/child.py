"""One measurement process: a fresh interpreter that runs one workload
each time ``run.py`` asks it to.

The process speaks a line protocol.  Standard output carries only the
protocol (anything the program prints goes to standard error):

1. At start it prints ``{"ready": true}``.
2. For every line ``run`` read from standard input it runs the
   workload once and prints that run's result as one JSON line.
3. At the end of its input it prints ``{"spans", "self_s"}`` and
   exits.

The clock starts before any import below, so the first run's
``setup_s`` includes importing ``repro`` from cold.  Time spent idle
waiting for a request is left out.  Later runs in the same interpreter
are warm: they give ``run_s`` samples only, and are checked like the
first, so a run that comes out different (state left behind by the run
before it) fails the benchmark.  Each run reports its wall time
(``run_s``) and the CPU time the process spent on it (``run_cpu_s``);
the first also reports ``setup_s`` and the process's peak resident
memory so far (``peak_rss_mb``).

Modes: ``plain`` (tracing off: the end-to-end numbers), ``setup``
(tracing off, stops at the first simulated event: one ``setup_s``
sample only), ``traced`` (metrics registry on, cProfile and host spans:
the per-layer numbers) and ``check`` (untimed: the checks that must
stay outside every timed process, such as fleet-day's equivalence
check).  ``--cpu`` pins the process to one CPU.
"""

import time

T0 = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from probes import Probe, SetupDone  # noqa: E402
from suite import CHECK_PROCESS, WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "setup", "traced", "check"))
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    protocol = sys.stdout
    sys.stdout = sys.stderr

    def send(obj) -> None:
        protocol.write(json.dumps(obj) + "\n")
        protocol.flush()

    probe = Probe(args.mode == "traced", setup_only=args.mode == "setup")
    workload = WORKLOADS[args.workload]
    ready = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
    send({"ready": True})
    runs = 0
    for line in sys.stdin:
        if line.strip() != "run":
            continue
        if args.mode == "check":
            send({"checks": CHECK_PROCESS[args.workload](args.seed)})
            continue
        if runs:
            # The last run's garbage is collected here, outside every
            # timed span, rather than at some point inside this run.
            gc.collect()
            probe.new_repeat()
        asked = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
        try:
            result = workload(args.seed, probe)
        except SetupDone:
            result = {}
        end = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
        end_cpu = time.process_time()  # simlint: disable=SL101 -- host timing, not sim state
        if args.mode != "setup":
            result["run_s"] = end - probe.first_event
            result["run_cpu_s"] = end_cpu - probe.first_event_cpu
        if not runs:
            result["setup_s"] = (ready - T0) + (probe.first_event - asked)
            # ru_maxrss is in KiB on Linux: the peak of one cold run.
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            spans = probe.spans
        runs += 1
        send(result)
    send({
        "spans": spans if runs else {},
        "self_s": probe.self_times(),
    })


if __name__ == "__main__":
    main()
