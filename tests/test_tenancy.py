"""Multi-tenant serving: admission, fair scheduling, partitioning, traffic.

Covers the tenancy subsystem's acceptance properties:

* token-bucket conformance (unit and end-to-end, with rejection
  accounting);
* SFQ weighted fairness — exact at the unit level, within 5% of the
  configured weights end to end under saturation;
* priority classes with bounded bypass (no starvation);
* per-tenant qpair-depth caps and cache quotas with self-only reclaim;
* noisy-neighbor isolation (victim p99 within 2x of solo);
* traffic-engine determinism across runs, under the SimSanitizer's
  same-timestamp arrival shuffles, and across the fast-path kernels.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.analysis.perfcheck import run_perfcheck
from repro.analysis.sanitizer import run_sanitizer
from repro.bench.workloads import demo_tenants, dlfs_tenancy, fair_tenants
from repro.cluster import Cluster
from repro.core import DLFS, DLFSConfig
from repro.data import Dataset
from repro.errors import AllocationError, ConfigError
from repro.faults import FaultPlan
from repro.hw import Testbed
from repro.hw.memory import ChunkLedger
from repro.sim import Environment
from repro.tenancy import (
    CachePartition,
    FairScheduler,
    TenantSpec,
    TenantWorkload,
    TokenBucket,
)


def _fetch(tenant, nbytes, key=None):
    return SimpleNamespace(tenant=tenant, nbytes=nbytes, key=key)


def _part(tenant, nbytes):
    return SimpleNamespace(tag=SimpleNamespace(tenant=tenant), nbytes=nbytes)


def _row(report_rows, tenant):
    for row in report_rows:
        if row["tenant"] == tenant:
            return row
    raise AssertionError(f"no row for {tenant!r}")


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        b = TokenBucket(rate=1000.0, burst=10.0)
        assert b.try_take(10, 0.0)
        assert not b.try_take(1, 0.0)
        # A long quiet period refills to burst, never beyond.
        assert b.try_take(10, 100.0)
        assert not b.try_take(1, 100.0)

    def test_lazy_refill_is_exact(self):
        b = TokenBucket(rate=1000.0, burst=10.0)
        assert b.try_take(10, 0.0)
        assert b.eta(5, 0.0) == pytest.approx(5e-3)
        assert not b.try_take(5, 4e-3)  # only 4 tokens so far
        assert b.try_take(5, 5.001e-3)

    def test_conformance_bound_end_to_end(self):
        # Offered 16,000 samples/s against a 4,000/s bucket: the
        # delivered total can never exceed burst + rate * sim_time.
        spec = TenantSpec(name="limited", rate=4000.0, burst=32.0,
                          max_queued_jobs=256)
        wl = TenantWorkload(name="limited", kind="poisson", rate=2000.0,
                            batch=8, sample_lo=0, sample_hi=1024)
        r = dlfs_tenancy(specs=(spec,), workloads=(wl,),
                         horizon=0.02, warmup=0.004)
        row = _row(r.per_tenant, "limited")
        assert row["samples"] == r.delivered > 0
        assert r.delivered <= 32.0 + 4000.0 * r.sim_time + wl.batch

    def test_queue_overflow_rejects_with_accounting(self):
        spec = TenantSpec(name="burst", rate=1000.0, burst=8.0,
                          max_queued_jobs=2)
        wl = TenantWorkload(name="burst", kind="poisson", rate=5000.0,
                            batch=8, sample_lo=0, sample_hi=1024)
        r = dlfs_tenancy(specs=(spec,), workloads=(wl,),
                         horizon=0.01, warmup=0.002)
        assert r.rejected_jobs > 0
        row = _row(r.per_tenant, "burst")
        assert row["rejected"] == r.rejected_jobs
        # Rejected jobs are not in the witness; completed ones all are.
        assert len(r.samples_read) == r.delivered
        assert r.failed == 0


# ---------------------------------------------------------------------------
# Fair scheduler (unit)
# ---------------------------------------------------------------------------

class TestFairScheduler:
    def test_backlogged_service_tracks_weights_exactly(self):
        sched = FairScheduler(
            (TenantSpec(name="a", weight=1.0), TenantSpec(name="b", weight=2.0)),
            queue_depth=64,
        )
        for _ in range(90):
            sched.enqueue_part_charged(0, _part("a", 1000))
            sched.enqueue_part_charged(0, _part("b", 1000))
        served = {"a": 0, "b": 0}
        for _ in range(60):
            entry = sched.select_part(0)
            sched.take(0, entry, "part")
            served[entry.tenant] += 1
        assert served == {"a": 20, "b": 40}
        assert sched.bytes_served["b"] == 2 * sched.bytes_served["a"]

    def test_priority_served_first_with_bounded_bypass(self):
        sched = FairScheduler(
            (
                TenantSpec(name="low", weight=1.0, priority=2),
                TenantSpec(name="high", weight=1.0, priority=1),
            ),
            queue_depth=64,
            max_bypass=3,
        )
        # The low-priority entry is the SFQ leader (enqueued first, so
        # the smallest start tag) but keeps being passed over ...
        sched.enqueue_part_charged(0, _part("low", 1000))
        for _ in range(10):
            sched.enqueue_part_charged(0, _part("high", 1000))
        order = []
        for _ in range(5):
            entry = sched.select_part(0)
            sched.take(0, entry, "part")
            order.append(entry.tenant)
        # ... until max_bypass forces it through (anti-starvation).
        assert order[:3] == ["high", "high", "high"]
        assert "low" in order
        assert order.index("low") == 3
        assert sched.forced_serves >= 1
        assert sched.preemptions >= 3

    def test_qpair_share_caps_inflight(self):
        sched = FairScheduler(
            (TenantSpec(name="a", weight=1.0, qpair_share=0.25),),
            queue_depth=8,
        )
        for _ in range(5):
            sched.enqueue_part_charged(0, _part("a", 1000))
        # cap = max(1, int(8 * 0.25)) = 2 concurrent posts.
        for _ in range(2):
            entry = sched.select_part(0)
            assert entry is not None
            sched.take(0, entry, "part")
            sched.on_posted("a", 0)
        assert sched.select_part(0) is None
        sched.on_complete("a", 0)
        assert sched.select_part(0) is not None

    def test_fetch_gate_filters_candidates(self):
        sched = FairScheduler((TenantSpec(name="a"), TenantSpec(name="b")),
                              queue_depth=8)
        sched.enqueue_fetch(0, _fetch("a", 1000, key="ka"))
        sched.enqueue_fetch(0, _fetch("b", 1000, key="kb"))
        sched.fetch_gate = lambda tenant, fetch: tenant != "a"
        entry = sched.select_fetch(0)
        assert entry.tenant == "b"

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="").validate()
        with pytest.raises(ConfigError):
            TenantSpec(name="x", weight=0.0).validate()
        with pytest.raises(ConfigError):
            TenantSpec(name="x", qpair_share=0.0).validate()
        with pytest.raises(ConfigError):
            TenantSpec(name="x", cache_share=1.5).validate()
        with pytest.raises(ConfigError):
            FairScheduler((TenantSpec(name="x"), TenantSpec(name="x")), 8)


# ---------------------------------------------------------------------------
# Cache partitioning
# ---------------------------------------------------------------------------

class _FakeCache:
    """Just enough of SampleCache for CachePartition: clean-slot LRU."""

    def __init__(self):
        self.clean = []
        self.on_free = None
        self.evictions = 0

    def clean_keys(self):
        return tuple(self.clean)

    def evict(self, key):
        self.clean.remove(key)
        self.evictions += 1
        self.on_free(key)


class TestCachePartition:
    def test_chunk_ledger_accounting(self):
        ledger = ChunkLedger()
        ledger.set_quota("a", 4)
        assert ledger.quota("a") == 4
        assert ledger.quota("unknown") == 0  # 0 = unlimited
        ledger.charge("a", 3)
        assert ledger.used("a") == 3
        ledger.uncharge("a", 2)
        assert ledger.used("a") == 1
        with pytest.raises(AllocationError):
            ledger.uncharge("a", 2)

    def test_quota_denial_and_self_reclaim(self):
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.5),))
        part.attach(cache, 8)  # quota = 4 chunks
        part.reserve("a", "k1", 2)
        part.reserve("a", "k2", 2)
        # At quota with nothing clean: denied.
        assert not part.can_admit("a", 1)
        assert part.denials == 1
        # A clean slot of its own makes the same request admissible ...
        cache.clean.append("k1")
        assert part.can_admit("a", 2)
        part.reserve("a", "k3", 2)  # ... by evicting k1 (self-reclaim)
        assert cache.evictions == 1
        assert part.reclaims == 1
        assert part.ledger.used("a") == 4

    def test_unlimited_and_oversized_escape_hatch(self):
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.25),))
        part.attach(cache, 8)  # quota = 2
        # Tenants without a share are unlimited.
        assert part.can_admit("other", 100)
        # A span bigger than the whole quota admits solo (no wedge) ...
        assert part.can_admit("a", 5)
        part.reserve("a", "big", 5)
        assert part.ledger.used("a") == 5
        # ... but blocks everything else until it is freed.
        assert not part.can_admit("a", 1)
        part.on_free("big")
        assert part.ledger.used("a") == 0
        assert part.can_admit("a", 1)

    def test_cancel_undoes_reservation(self):
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.5),))
        part.attach(cache, 8)
        part.reserve("a", "k", 3)
        part.cancel("k")
        assert part.ledger.used("a") == 0
        part.cancel("k")  # idempotent


# ---------------------------------------------------------------------------
# End-to-end: fairness, isolation, tenant faults, pay-for-use
# ---------------------------------------------------------------------------

class TestServing:
    def test_weighted_fairness_within_5_percent(self):
        specs, workloads = fair_tenants(weights=(1.0, 2.0, 4.0))
        r = dlfs_tenancy(specs=specs, workloads=workloads,
                         horizon=0.02, warmup=0.004)
        total_w = sum(s.weight for s in specs)
        for s in specs:
            want = s.weight / total_w
            got = r.service_shares[s.name]
            assert got == pytest.approx(want, rel=0.05), s.name

    def test_noisy_neighbor_isolation_p99_within_2x(self):
        specs = (
            TenantSpec(name="victim", weight=2.0),
            TenantSpec(name="noisy", weight=1.0, priority=2,
                       qpair_share=0.5, cache_share=0.25),
        )
        victim = TenantWorkload(name="victim", kind="train", batch=16,
                                concurrency=2, sample_lo=0, sample_hi=1024)
        noisy = TenantWorkload(name="noisy", kind="bursty", rate=2000.0,
                               batch=32, sample_lo=1024, sample_hi=3072)
        solo = dlfs_tenancy(specs=specs, workloads=(victim,),
                            horizon=0.02, warmup=0.004)
        duo = dlfs_tenancy(
            specs=specs, workloads=(victim, noisy),
            horizon=0.02, warmup=0.004,
            fault_plan=FaultPlan(seed=7, tenant_faults=(("noisy", 0.1),)),
        )
        p99_solo = _row(solo.window_rows, "victim")["p99"]
        p99_duo = _row(duo.window_rows, "victim")["p99"]
        assert p99_solo > 0
        assert p99_duo <= 2.0 * p99_solo

    def test_tenant_faults_stay_on_the_targeted_tenant(self):
        specs, workloads = demo_tenants()
        r = dlfs_tenancy(
            specs=specs, workloads=workloads, horizon=0.02, warmup=0.004,
            fault_plan=FaultPlan(seed=7, tenant_faults=(("scan", 0.9),)),
        )
        assert _row(r.per_tenant, "train_a")["failed"] == 0
        assert _row(r.per_tenant, "train_b")["failed"] == 0
        # At 90% per-delivery media errors the retry budget is overrun.
        assert _row(r.per_tenant, "scan")["failed"] > 0
        assert r.failed == _row(r.per_tenant, "scan")["failed"]

    def test_untagged_reads_coexist_with_tenants(self):
        # A plain bread() client on a tenancy-enabled mount rides the
        # UNTAGGED lane; nothing deadlocks or misaccounts.
        env = Environment()
        cluster = Cluster(env, Testbed.paper(), num_nodes=1,
                          devices_per_node=1)
        ds = Dataset.fixed("t", 512, 16 * 1024, seed=1)
        specs, _ = demo_tenants()
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="sample",
                                                tenants=specs))
        client = fs.client(rank=0, num_ranks=1)
        client.sequence(seed=3)

        def app(env):
            got = yield from client.bread(32)
            return got

        got = env.run(until=env.process(app(env)))
        assert len(got) == 32
        assert client.tenancy is not None
        assert client.tenancy.scheduler.bytes_served.get("_untagged", 0) > 0

    def test_tenancy_is_pay_for_use(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper(), num_nodes=1,
                          devices_per_node=1)
        ds = Dataset.fixed("t", 256, 16 * 1024, seed=1)
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="sample"))
        client = fs.client(rank=0, num_ranks=1)
        assert client.tenancy is None

    def test_config_rejects_duplicate_tenants(self):
        with pytest.raises(ConfigError):
            DLFSConfig(tenants=(TenantSpec(name="a"),
                                TenantSpec(name="a"))).validate()


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _digest(report):
    return hashlib.sha1(report.samples_read.tobytes()).hexdigest()


class TestDeterminism:
    def test_traffic_engine_identical_across_runs(self):
        a = dlfs_tenancy(horizon=0.02, warmup=0.004)
        b = dlfs_tenancy(horizon=0.02, warmup=0.004)
        assert a.sim_time == b.sim_time
        assert _digest(a) == _digest(b)
        assert a.window_rows == b.window_rows
        assert a.service_bytes == b.service_bytes

    def test_seed_changes_the_arrival_script(self):
        a = dlfs_tenancy(horizon=0.02, warmup=0.004, seed=1)
        b = dlfs_tenancy(horizon=0.02, warmup=0.004, seed=2)
        assert _digest(a) != _digest(b)

    def test_sanitizer_same_instant_arrivals_from_two_tenants(self):
        # Both tenants' first jobs arrive at the same simulated instant
        # (start_offset pins them); the sanitizer shuffles the engine's
        # same-timestamp tiebreaks and the witness must not move.
        specs = (TenantSpec(name="x", weight=1.0),
                 TenantSpec(name="y", weight=3.0))
        workloads = (
            TenantWorkload(name="x", kind="poisson", rate=8000.0, batch=8,
                           sample_lo=0, sample_hi=1024, start_offset=5e-4),
            TenantWorkload(name="y", kind="poisson", rate=8000.0, batch=8,
                           sample_lo=1024, sample_hi=2048, start_offset=5e-4),
        )
        report = run_sanitizer(
            workload=lambda: dlfs_tenancy(
                specs=specs, workloads=workloads, horizon=0.01, warmup=0.002,
            ),
            runs=3,
        )
        assert report.ok, report.render()

    def test_perfcheck_tenancy_bit_identity(self):
        report = run_perfcheck(workloads={
            "tenancy": lambda: dlfs_tenancy(
                horizon=0.01, warmup=0.002, metrics=True,
            ),
        })
        assert report.ok, report.render()
