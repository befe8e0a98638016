"""Kernel/datapath performance harness — writes ``BENCH_engine.json``.

Measures the fast-path PR's wall-clock win at three levels, each run
under both the reference kernel (``set_fastpath(False)``, equivalent to
the pre-PR seed implementation) and the optimized kernel:

* **timeout storm** — pure engine scheduling: many processes, many
  timeouts, a deep heap;
* **resource contention** — Condition/Request machinery: processes
  fighting over a small FIFO resource;
* **qpair burst** — the SPDK datapath in isolation: a queue-depth
  window of block reads through one qpair into one NVMe device;
* **fig06 end-to-end** — the paper's single-node throughput workload
  (``dlfs_single_node``), the PR's headline ≥2x target, compared both
  against the in-process reference kernel and against the recorded
  wall-clock of the seed tree.

Every benchmark also cross-checks final ``sim_time`` (and delivered
counts where applicable) between the two kernels, and the run ends with
the full ``repro.analysis.run_perfcheck`` digest comparison — the only
check CI fails on.  Wall-clock numbers are informational: machines
differ, CI runners throttle; digests must not.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import run_perfcheck  # noqa: E402
from repro.bench.workloads import dlfs_single_node  # noqa: E402
from repro.hw import NVMeDevice  # noqa: E402
from repro.hw.memory import HugePagePool  # noqa: E402
from repro.sim import Environment, Resource, set_fastpath  # noqa: E402
from repro.spdk.request import SPDKRequest  # noqa: E402

#: Seed-tree wall-clock (seconds) for the fig06 cases below: the tree at
#: commit 1352006 (pre-PR), re-measured best-of-4 on the machine that
#: produced the committed BENCH_engine.json.  The in-process "reference"
#: timings understate the win — the reference kernel still benefits from
#: this PR's shared model-layer work (single-event compute charges,
#: cursor bookkeeping) — so these pin the honest before/after.
RECORDED_SEED_FIG06_S = {"4KiB": 0.0429, "128KiB": 0.0932}

KiB = 1024


# ---------------------------------------------------------------------------
# Microbenchmark workloads.  Each returns (sim_time, posted_events).
# ---------------------------------------------------------------------------

def timeout_storm(procs: int, ticks: int) -> tuple[float, int]:
    """Pure scheduling: ``procs`` generators x ``ticks`` timeouts each."""
    env = Environment()

    def worker(env: Environment, i: int):
        for k in range(ticks):
            # Deterministic pseudo-spread of delays, no RNG object needed.
            yield env.timeout(((i * 2654435761 + k * 40503) % 997) * 1e-6)

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return env.now, env._eid


def event_churn(procs: int, rounds: int) -> tuple[float, int]:
    """Condition-tree allocation churn: AllOf/AnyOf over fresh timeouts.

    Every round allocates a small condition tree (three Timeouts plus an
    AllOf or AnyOf), fires it, and drops it — the allocation pattern the
    ``__slots__`` layout on Event/Condition/AllOf/AnyOf exists to make
    cheap.  The instance-size deltas themselves are recorded separately
    (see ``slots_layout`` in the JSON); this measures the wall-clock
    side of the same change.
    """
    env = Environment()

    def worker(env: Environment, i: int):
        for k in range(rounds):
            t1 = env.timeout((1 + (i + k) % 7) * 1e-6)
            t2 = env.timeout((1 + (i * 3 + k) % 11) * 1e-6)
            t3 = env.timeout((1 + (i + 5 * k) % 13) * 1e-6)
            if k % 2 == 0:
                yield env.all_of([t1, t2, t3])
            else:
                yield env.any_of([t1, t2, t3])

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return env.now, env._eid


def slots_layout() -> dict:
    """Per-instance memory of the slotted event classes vs a dict layout.

    ``Event``/``Condition``/``AllOf``/``AnyOf`` all declare
    ``__slots__``; this records the resulting per-instance size next to
    a shape-identical ``__dict__``-based control so the saving the
    heap-churn benchmark rides on is pinned in the artifact, not just
    claimed in a commit message.
    """
    import sys as _sys

    from repro.sim.engine import AllOf, AnyOf, Condition, Event

    class DictEvent:  # the pre-__slots__ layout: same attrs, dict-backed
        def __init__(self, env) -> None:
            self.env = env
            self.callbacks = []
            self._value = None
            self._ok = None
            self._defused = False

    env = Environment()
    slotted = Event(env)
    control = DictEvent(env)
    slotted_size = _sys.getsizeof(slotted)
    control_size = _sys.getsizeof(control) + _sys.getsizeof(control.__dict__)
    instances = {
        "Event": Event(env),
        "Condition": Condition(env, []),
        "AllOf": AllOf(env, []),
        "AnyOf": AnyOf(env, []),
    }
    return {
        "event_slotted_bytes": slotted_size,
        "event_dict_control_bytes": control_size,
        "bytes_saved_per_event": control_size - slotted_size,
        "classes_slotted": sorted(
            name for name, obj in instances.items()
            if not hasattr(obj, "__dict__")
        ),
    }


def resource_contention(procs: int, rounds: int, capacity: int) -> tuple[float, int]:
    """Request/grant churn on one small FIFO resource."""
    env = Environment()
    res = Resource(env, capacity=capacity, name="bench")

    def worker(env: Environment, i: int):
        for k in range(rounds):
            yield from res.hold(((i + 3 * k) % 13) * 1e-6)

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return env.now, env._eid


def qpair_burst(requests: int, depth: int) -> tuple[float, int]:
    """A queue-depth window of 128 KiB reads through one qpair.

    Builds the datapath directly (device + qpair + hugepage chunks)
    rather than through a Cluster so the measurement isolates the SPDK
    layer from mount/setup costs.
    """
    from repro.spdk.qpair import IOQPair

    env = Environment()
    device = NVMeDevice(env)
    pool = HugePagePool(env, total_bytes=depth * 256 * KiB, chunk_size=256 * KiB)
    qpair = IOQPair(env, "bench-host", device, queue_depth=depth)
    nbytes = 128 * KiB
    done = {"n": 0}

    def driver(env: Environment):
        posted = 0
        while done["n"] < requests:
            while posted < requests and qpair.free_slots > 0:
                chunk = pool.try_alloc()
                req = SPDKRequest(
                    offset=(posted * nbytes) % (64 * 1024 * KiB),
                    nbytes=nbytes,
                    chunks=[chunk],
                )
                qpair.post(req)
                posted += 1
            req = yield qpair.completion_sink.get()
            done["n"] += 1
            pool.free(req.chunks[0])

    env.process(driver(env))
    env.run()
    assert done["n"] == requests
    return env.now, env._eid


def fig06_case(sample_bytes: int, batches: int) -> tuple[float, int]:
    r = dlfs_single_node(sample_bytes=sample_bytes, batches=batches)
    return r.sim_time, -1  # driver does not expose its Environment


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------

def _time_pair(fn, reps: int) -> tuple[float, tuple, float, tuple]:
    """Best-of-``reps`` wall time for fn under both kernels.

    Reference and fast-path reps are interleaved (ABAB...) so slow
    drift in machine speed (VM scheduling, frequency scaling) hits
    both sides equally instead of skewing the ratio; best-of filters
    the one-off stalls.  -> (ref_s, ref_result, opt_s, opt_result).
    """
    set_fastpath(False)
    fn()  # warm-up (imports, allocator)
    set_fastpath(True)
    fn()
    ref_best = opt_best = float("inf")
    ref_result = opt_result = None
    for _ in range(reps):
        set_fastpath(False)
        t0 = time.perf_counter()
        ref_result = fn()
        ref_best = min(ref_best, time.perf_counter() - t0)
        set_fastpath(True)
        t0 = time.perf_counter()
        opt_result = fn()
        opt_best = min(opt_best, time.perf_counter() - t0)
    return ref_best, ref_result, opt_best, opt_result


def run(quick: bool) -> dict:
    reps = 2 if quick else 5
    scale = 4 if quick else 1
    micros = {
        "timeout_storm": lambda: timeout_storm(200 // scale, 200),
        "event_churn": lambda: event_churn(200 // scale, 150),
        "resource_contention": lambda: resource_contention(
            300 // scale, 100, capacity=4
        ),
        "qpair_burst": lambda: qpair_burst(4000 // scale, depth=64),
    }
    out: dict = {"quick": quick, "benchmarks": {}, "fig06": {"cases": {}}}
    out["slots_layout"] = slots_layout()
    layout = out["slots_layout"]
    print(
        f"slots layout           Event {layout['event_slotted_bytes']} B "
        f"vs dict control {layout['event_dict_control_bytes']} B "
        f"({layout['bytes_saved_per_event']} B saved/event; slotted: "
        f"{', '.join(layout['classes_slotted'])})"
    )

    for name, fn in micros.items():
        ref_s, (ref_sim, ref_events), opt_s, (opt_sim, opt_events) = _time_pair(
            fn, reps
        )
        out["benchmarks"][name] = {
            "reference_s": round(ref_s, 6),
            "optimized_s": round(opt_s, 6),
            "speedup": round(ref_s / opt_s, 3),
            "reference_events": ref_events,
            "optimized_events": opt_events,
            "reference_events_per_sec": round(ref_events / ref_s),
            "optimized_events_per_sec": round(opt_events / opt_s),
            "sim_time_match": ref_sim == opt_sim,
        }
        print(
            f"{name:<22} ref {ref_s * 1e3:8.2f} ms   opt {opt_s * 1e3:8.2f} ms"
            f"   speedup {ref_s / opt_s:5.2f}x   "
            f"(events {ref_events} -> {opt_events})"
        )

    fig_cases = {
        "4KiB": (4 * KiB, 40 // scale),
        "128KiB": (128 * KiB, 40 // scale),
    }
    speedups = []
    for label, (size, batches) in fig_cases.items():
        def fn(size=size, batches=batches):
            return fig06_case(size, batches)

        ref_s, (ref_sim, _), opt_s, (opt_sim, _) = _time_pair(fn, reps)
        speedup = ref_s / opt_s
        speedups.append(speedup)
        case = {
            "sample_bytes": size,
            "batches": batches,
            "reference_s": round(ref_s, 6),
            "optimized_s": round(opt_s, 6),
            "speedup": round(speedup, 3),
            "sim_time_match": ref_sim == opt_sim,
        }
        if not quick and label in RECORDED_SEED_FIG06_S:
            case["recorded_seed_s"] = RECORDED_SEED_FIG06_S[label]
            case["speedup_vs_recorded_seed"] = round(
                RECORDED_SEED_FIG06_S[label] / opt_s, 3
            )
        out["fig06"]["cases"][label] = case
        print(
            f"fig06 {label:<16} ref {ref_s * 1e3:8.2f} ms   "
            f"opt {opt_s * 1e3:8.2f} ms   speedup {speedup:5.2f}x"
        )
    out["fig06"]["min_speedup"] = round(min(speedups), 3)

    # The gate CI enforces: bit-identical results, not timings.
    set_fastpath(True)
    print("perfcheck digest comparison ...")
    perf = run_perfcheck(quick=quick)
    out["digest_check"] = {"ok": perf.ok, "divergences": perf.divergences}
    print(perf.render())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads and fewer reps (CI smoke)")
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    out = run(quick=args.quick)
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not out["digest_check"]["ok"]:
        print("FAIL: optimized kernel diverged from reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
