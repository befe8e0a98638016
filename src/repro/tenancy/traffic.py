"""Open-loop traffic engine: seeded multi-tenant workload generation.

Tenants come in three kinds:

* ``"poisson"`` — open-loop inference-style scans: job arrivals are a
  Poisson process at ``rate`` jobs/second, regardless of completions;
* ``"bursty"`` — open-loop with heavy-tailed (Pareto) inter-arrivals at
  the same mean rate: long quiet gaps punctuated by arrival bursts, the
  classic noisy neighbor;
* ``"train"`` — closed-loop epoch training: ``concurrency`` workers each
  walk a seeded permutation of the tenant's sample range batch by batch,
  submitting the next job only when the previous completes (plus
  ``think_time``).

Every random draw comes from a blessed per-tenant substream
(``repro.sim.rng``), so two runs with the same seed generate an
identical arrival script — the determinism property
``tests/test_tenancy.py`` checks across runs and the SimSanitizer
checks across same-timestamp event shuffles.

Tenants default to disjoint sample ranges.  Overlapping ranges are
allowed (fetch sharing dedupes the I/O) but a span is charged to
whichever tenant's job reached prep first, so overlap trades strict
accounting isolation for cache efficiency.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import AdmissionRejected, ConfigError
from ..sim import rng as sim_rng

__all__ = ["TenantWorkload", "TrafficEngine"]

#: Deterministic gap between closed-loop worker start instants.  Every
#: worker submitting its first job at exactly t=0 would race in the
#: reactor inbox on the event queue's same-timestamp tiebreak — results
#: would then depend on process creation order, which the SimSanitizer
#: rejects.  Real trainers never start in nanosecond lockstep either;
#: 100 ns is far below any simulated service time, so steady-state
#: behavior is unchanged.
WORKER_START_STAGGER = 100e-9


@dataclass(frozen=True)
class TenantWorkload:
    """One tenant's traffic shape."""

    name: str
    #: "poisson" | "bursty" (open loop) | "train" (closed loop).
    kind: str = "poisson"
    #: Mean job arrival rate (open loop), jobs/second.
    rate: float = 100.0
    #: Samples per job.
    batch: int = 8
    #: Sample range [lo, hi) this tenant reads (hi=0: dataset end).
    sample_lo: int = 0
    sample_hi: int = 0
    #: Closed loop: think time between a completion and the next submit.
    think_time: float = 0.0
    #: Closed loop: concurrent workers.
    concurrency: int = 1
    #: Bursty: Pareto tail index (must be > 1 for a finite mean).
    tail_shape: float = 1.5
    #: Test hook: pin the first arrival instant (None = drawn).  Lets
    #: the sanitizer force same-timestamp arrivals from two tenants.
    start_offset: Optional[float] = None
    #: Open loop only: restrict arrivals to ``[lo, hi)`` sim-seconds.
    #: ``None`` keeps the legacy whole-horizon behavior bit-identical.
    #: Scenario phases compile to one windowed workload per phase step,
    #: so phase-scoped rates (and phase-scoped metrics) need no mid-run
    #: mutation of a live generator.
    window: Optional[tuple] = None

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("workload name must be non-empty")
        if self.kind not in ("poisson", "bursty", "train"):
            raise ConfigError(f"unknown workload kind {self.kind!r}")
        if self.kind != "train" and self.rate <= 0:
            raise ConfigError(f"workload {self.name!r}: rate must be > 0")
        if self.batch < 1:
            raise ConfigError(f"workload {self.name!r}: batch must be >= 1")
        if self.concurrency < 1:
            raise ConfigError(
                f"workload {self.name!r}: concurrency must be >= 1"
            )
        if self.think_time < 0:
            raise ConfigError(f"workload {self.name!r}: think_time must be >= 0")
        if self.kind == "bursty" and self.tail_shape <= 1.0:
            raise ConfigError(
                f"workload {self.name!r}: tail_shape must be > 1 "
                "(finite-mean Pareto)"
            )
        if self.window is not None:
            if self.kind == "train":
                raise ConfigError(
                    f"workload {self.name!r}: window applies to open-loop "
                    "kinds only"
                )
            lo, hi = self.window
            if not 0 <= lo < hi:
                raise ConfigError(
                    f"workload {self.name!r}: bad window [{lo}, {hi})"
                )

class TrafficEngine:
    """Drives many concurrent ReadJobs through a tenant runtime."""

    def __init__(
        self,
        env,
        runtime,
        dataset,
        workloads: tuple,
        seed: int = 0,
        horizon: float = 0.05,
    ) -> None:
        if horizon <= 0:
            raise ConfigError("horizon must be > 0")
        names = []
        for w in workloads:
            w.validate()
            if w.name in names:
                raise ConfigError(f"duplicate workload {w.name!r}")
            names.append(w.name)
        self.env = env
        self.runtime = runtime
        self.dataset = dataset
        self.workloads = tuple(workloads)
        self.seed = seed
        self.horizon = horizon
        self.procs: list = []
        #: Per-tenant {job key -> delivered samples}; keys are
        #: ``(worker_id, seq)`` so the witness order never depends on
        #: completion order.
        self._log: dict[str, dict] = {w.name: {} for w in self.workloads}
        self._outstanding = 0
        self._waiter = None
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.rejected_jobs = 0
        self.delivered = 0
        self.failed = 0

    # -- random substreams ----------------------------------------------------
    def _stream(self, w: TenantWorkload, what: str, extra: int = 0):
        return sim_rng(
            f"tenancy.{what}.{w.name}",
            [self.seed, zlib.crc32(w.name.encode()), extra],
        )

    def _range(self, w: TenantWorkload) -> tuple[int, int]:
        hi = w.sample_hi if w.sample_hi > 0 else self.dataset.num_samples
        lo = w.sample_lo
        if not 0 <= lo < hi <= self.dataset.num_samples:
            raise ConfigError(
                f"workload {w.name!r}: bad sample range [{lo}, {hi})"
            )
        return lo, hi

    def _gap(self, w: TenantWorkload, arr) -> float:
        if w.kind == "bursty":
            # Lomax + 1 => Pareto with mean a/(a-1); scale to the rate.
            a = w.tail_shape
            scale = (a - 1.0) / (a * w.rate)
            return scale * (float(arr.pareto(a)) + 1.0)
        return float(arr.exponential(1.0 / w.rate))

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> list:
        """Spawn one process per open-loop tenant / closed-loop worker."""
        spawn = 0
        for w in self.workloads:
            if w.kind == "train":
                for wid in range(w.concurrency):
                    self.procs.append(
                        self.env.process(
                            self._closed_loop(w, wid, spawn),
                            name=f"traffic.{w.name}.{wid}",
                        )
                    )
                    spawn += 1
            else:
                self.procs.append(
                    self.env.process(
                        self._open_loop(w), name=f"traffic.{w.name}"
                    )
                )
        return self.procs

    def drain(self):
        """Process helper: wait for every outstanding job to complete."""
        while self._outstanding > 0:
            self._waiter = self.env.event()
            yield self._waiter

    # -- generators -----------------------------------------------------------
    def _open_loop(self, w: TenantWorkload):
        arr = self._stream(w, "arrival")
        pick = self._stream(w, "samples", extra=1)
        lo, hi = self._range(w)
        if w.window is not None:
            yield from self._windowed_open_loop(w, arr, pick, lo, hi)
            return
        t = w.start_offset if w.start_offset is not None else self._gap(w, arr)
        seq = 0
        while t <= self.horizon:
            if t > self.env.now:
                yield self.env.timeout(t - self.env.now)
            samples = pick.integers(lo, hi, size=w.batch).astype(np.int64)
            self._submit(w, (0, seq), samples)
            seq += 1
            t += self._gap(w, arr)

    def _windowed_open_loop(self, w: TenantWorkload, arr, pick, lo, hi):
        # Arrivals confined to [win_lo, win_hi): the first instant is
        # win_lo plus a drawn gap, so two phase-step workloads sharing a
        # boundary can never collide on the same timestamp (distinct rng
        # substreams => distinct gaps), and a rate change at a boundary
        # is a clean renewal-process restart.
        win_lo, win_hi = w.window
        t = win_lo + self._gap(w, arr)
        seq = 0
        while t < win_hi and t <= self.horizon:
            if t > self.env.now:
                yield self.env.timeout(t - self.env.now)
            samples = pick.integers(lo, hi, size=w.batch).astype(np.int64)
            self._submit(w, (0, seq), samples)
            seq += 1
            t += self._gap(w, arr)

    def _closed_loop(self, w: TenantWorkload, wid: int, spawn: int = 0):
        lo, hi = self._range(w)
        perm_rng = self._stream(w, "epoch", extra=wid + 2)
        # Worker `wid` owns every concurrency-th sample of the epoch
        # permutation, so workers never contend on log keys and the
        # witness is insensitive to worker interleaving.
        order = (perm_rng.permutation(hi - lo) + lo)[wid :: w.concurrency]
        if len(order) == 0:
            return
        if w.start_offset is not None and w.start_offset > 0:
            yield self.env.timeout(w.start_offset)
        # `spawn` is the engine-wide worker index: distinct first-submit
        # instants for every closed-loop worker (see WORKER_START_STAGGER).
        yield self.env.timeout((spawn + 1) * WORKER_START_STAGGER)
        pos = 0
        seq = 0
        while self.env.now < self.horizon:
            batch = order[pos : pos + w.batch]
            if len(batch) < w.batch:  # epoch wrap
                batch = np.concatenate([batch, order[: w.batch - len(batch)]])
                pos = (pos + w.batch) % len(order)
            else:
                pos += w.batch
            job = self._submit(w, (wid, seq), batch.astype(np.int64))
            seq += 1
            yield job.done
            if w.think_time > 0:
                yield self.env.timeout(w.think_time)

    # -- submission / completion ----------------------------------------------
    def _submit(self, w: TenantWorkload, key: tuple, samples: np.ndarray):
        from ..core.reader import ReadJob  # local import: no core<->tenancy cycle

        job = ReadJob(
            samples=samples, done=self.env.event(), tenant=w.name
        )
        arrival = self.env.now
        self._outstanding += 1
        self.jobs_submitted += 1
        job.done.callbacks.append(
            lambda _ev, w=w, key=key, job=job, arrival=arrival: self._job_done(
                w, key, job, arrival
            )
        )
        self.runtime.submit(job)
        return job

    def _job_done(self, w: TenantWorkload, key: tuple, job, arrival: float) -> None:
        self._outstanding -= 1
        self.jobs_completed += 1
        rejected = False
        failed = 0
        failed_bytes = 0
        sizes = self.dataset.sizes
        for exc in job.errors:
            if isinstance(exc, AdmissionRejected):
                rejected = True
                break
            failed += 1
            exc_key = getattr(exc, "key", None)
            if (
                isinstance(exc_key, tuple)
                and len(exc_key) == 2
                and exc_key[0] == "s"
            ):
                failed_bytes += int(sizes[exc_key[1]])
        if rejected:
            self.rejected_jobs += 1
        else:
            n = len(job.samples)
            ok = n - failed
            nbytes = int(sizes[job.samples].sum()) - failed_bytes
            self.delivered += ok
            self.failed += failed
            self._log[w.name][key] = job.samples
            self.runtime.accounting.on_job_done(
                w.name, self.env.now - arrival, ok, failed, nbytes
            )
        if self._outstanding == 0 and self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.succeed()

    # -- witness --------------------------------------------------------------
    def samples_read(self) -> np.ndarray:
        """All completed jobs' samples in (tenant, job-key) order.

        Deterministic by construction — keys are submission identities,
        not completion order — so it doubles as the bit-identity witness
        for perfcheck and the sanitizer.
        """
        parts = []
        for name in sorted(self._log):
            jobs = self._log[name]
            for key in sorted(jobs):
                parts.append(jobs[key])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def __repr__(self) -> str:
        return (
            f"<TrafficEngine tenants={len(self.workloads)} "
            f"submitted={self.jobs_submitted} outstanding={self._outstanding}>"
        )
