"""Fault-injection subsystem: determinism, recovery, and drain semantics."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import DLFS, DLFSConfig
from repro.core.reader import ReadJob, _DeadlineCheck
from repro.data import Dataset
from repro.errors import (
    ConfigError,
    DeadlockError,
    FaultError,
    MediaError,
    QPairResetError,
    ReproError,
    RequestTimeout,
    SampleReadError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    ZERO_PLAN,
    parse_fault_plan,
)
from repro.hw import (
    KB,
    NVMeDevice,
    STATUS_ABORTED_RESET,
    STATUS_MEDIA_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Testbed,
)
from repro.sim import Environment, RecoveryStats, Store
from repro.spdk import IOQPair, SPDKRequest


# ---------------------------------------------------------------------------
# Plans, policies, parsing
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_zero_plan_is_zero(self):
        assert ZERO_PLAN.is_zero
        assert not FaultPlan(media_error_rate=0.1).is_zero
        assert not FaultPlan(qpair_reset_period=1e-3).is_zero

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(media_error_rate=-0.1).validate()
        with pytest.raises(ConfigError):
            FaultPlan(media_error_rate=1.5).validate()
        FaultPlan(media_error_rate=1.0).validate()

    def test_parse_inline_aliases(self):
        plan = parse_fault_plan("media=0.01, reset_period=0.05, seed=7")
        assert plan.media_error_rate == 0.01
        assert plan.qpair_reset_period == 0.05
        assert plan.seed == 7

    def test_parse_inline_json(self):
        plan = parse_fault_plan('{"media_error_rate": 0.05, "seed": 3}')
        assert plan.media_error_rate == 0.05
        assert plan.seed == 3

    def test_parse_json_file(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text('{"timeout_rate": 0.2}')
        assert parse_fault_plan(str(p)).timeout_rate == 0.2

    def test_parse_zero_and_errors(self):
        assert parse_fault_plan("") == ZERO_PLAN
        assert parse_fault_plan("zero") == ZERO_PLAN
        with pytest.raises(ConfigError):
            parse_fault_plan("bogus_field=1")
        with pytest.raises(ConfigError):
            parse_fault_plan("media")
        # Unparsable numbers surface as ConfigError (the CLI contract is a
        # one-line "error: --fault-plan: ..." + exit 2), never a bare
        # ValueError traceback.
        with pytest.raises(ConfigError):
            parse_fault_plan("media=bad")
        with pytest.raises(ConfigError):
            parse_fault_plan("tenant.alice=lots")
        with pytest.raises(ConfigError):
            parse_fault_plan("tenant.=0.1")

    def test_parse_tenant_faults(self):
        plan = parse_fault_plan("media=0.01,tenant.alice=0.02,tenant.bob=0.3")
        assert plan.tenant_faults == (("alice", 0.02), ("bob", 0.3))
        plan = parse_fault_plan('{"tenant_faults": {"alice": 0.02}}')
        assert plan.tenant_faults == (("alice", 0.02),)


class TestRecoveryPolicy:
    def test_backoff_schedule_doubles_to_cap(self):
        p = RecoveryPolicy(backoff_base=1e-3, backoff_cap=5e-3)
        assert p.backoff(1) == 1e-3
        assert p.backoff(2) == 2e-3
        assert p.backoff(3) == 4e-3
        assert p.backoff(4) == 5e-3  # capped
        assert p.backoff(10) == 5e-3
        with pytest.raises(ConfigError):
            p.backoff(0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RecoveryPolicy(deadline=0.0).validate()
        with pytest.raises(ConfigError):
            RecoveryPolicy(max_retries=-1).validate()
        with pytest.raises(ConfigError):
            RecoveryPolicy(backoff_base=2e-3, backoff_cap=1e-3).validate()


# ---------------------------------------------------------------------------
# Injector determinism
# ---------------------------------------------------------------------------

class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=9, media_error_rate=0.3, timeout_rate=0.1)
        a, b = FaultInjector(plan), FaultInjector(plan)
        da = [a.nvme_fault("nvme0", t * 1e-6) for t in range(200)]
        db = [b.nvme_fault("nvme0", t * 1e-6) for t in range(200)]
        assert da == db
        assert a.trace_signature() == b.trace_signature()
        assert a.counts.as_dict() == b.counts.as_dict()

    def test_sites_are_independent_substreams(self):
        """Interleaving order across sites must not change any site's
        decision sequence."""
        plan = FaultPlan(seed=4, media_error_rate=0.3)
        a, b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [a.nvme_fault("nvme0", 0.0) for _ in range(50)]
        # b interleaves another site's draws between nvme0's.
        seq_b = []
        for _ in range(50):
            seq_b.append(b.nvme_fault("nvme0", 0.0))
            b.nvme_fault("nvme1", 0.0)
        assert seq_a == seq_b

    def test_different_seed_differs(self):
        rolls = {}
        for seed in (1, 2):
            inj = FaultInjector(FaultPlan(seed=seed, media_error_rate=0.5))
            rolls[seed] = [
                inj.nvme_fault("nvme0", 0.0) is not None for _ in range(64)
            ]
        assert rolls[1] != rolls[2]

    def test_zero_rate_sites_draw_no_randomness(self):
        inj = FaultInjector(ZERO_PLAN)
        for _ in range(10):
            assert inj.nvme_fault("nvme0", 0.0) is None
            assert inj.link_fault("a", "b", 0.0) is None
            assert inj.nvmf_fault("t", 0.0) is None
        assert inj._streams == {}  # no substream ever instantiated
        assert inj.trace == []

    def test_reset_delay_is_jittered_period(self):
        plan = FaultPlan(seed=2, qpair_reset_period=1e-3, qpair_reset_jitter=0.5)
        inj = FaultInjector(plan)
        assert inj.resets_enabled
        delays = [inj.next_reset_delay("qp0") for _ in range(32)]
        assert all(1e-3 <= d <= 1.5e-3 for d in delays)
        assert len(set(delays)) > 1  # jitter engaged


# ---------------------------------------------------------------------------
# Device-level injection
# ---------------------------------------------------------------------------

class TestNVMeInjection:
    def _device(self, plan):
        env = Environment()
        dev = NVMeDevice(env, name="nvme0")
        dev.install_fault_injector(FaultInjector(plan))
        return env, dev

    def test_media_error_completes_with_status(self):
        env, dev = self._device(FaultPlan(media_error_rate=1.0))
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        assert cmd.status == STATUS_MEDIA_ERROR
        assert not cmd.ok
        assert dev.read_meter.bytes == 0  # failed reads move no data

    def test_timeout_stalls_then_completes(self):
        plan = FaultPlan(timeout_rate=1.0, timeout_stall=30e-3)
        env, dev = self._device(plan)
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        assert cmd.status == STATUS_TIMEOUT
        assert env.now >= 30e-3

    def test_hiccup_completes_ok_but_late(self):
        env0 = Environment()
        healthy = NVMeDevice(env0, name="nvme0")
        c0 = healthy.read(0, 4 * KB)
        env0.run(until=c0.completion)
        base = env0.now

        plan = FaultPlan(hiccup_rate=1.0, hiccup_duration=2e-3)
        env, dev = self._device(plan)
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        assert cmd.status == STATUS_OK
        assert env.now == pytest.approx(base + 2e-3)

    def test_healthy_device_unchanged_by_zero_plan(self):
        env0 = Environment()
        d0 = NVMeDevice(env0, name="nvme0")
        c0 = d0.read(0, 4 * KB)
        env0.run(until=c0.completion)

        env1, d1 = self._device(ZERO_PLAN)
        c1 = d1.read(0, 4 * KB)
        env1.run(until=c1.completion)
        assert c1.status == STATUS_OK
        assert env1.now == env0.now


# ---------------------------------------------------------------------------
# QPair reset lifecycle
# ---------------------------------------------------------------------------

class TestQPairReset:
    def _qpair(self, depth=8):
        env = Environment()
        from repro.hw import HugePagePool

        dev = NVMeDevice(env, name="nvme0")
        pool = HugePagePool(env, total_bytes=64 * 256 * KB, chunk_size=256 * KB)
        sink = Store(env, name="sink")
        qp = IOQPair(env, "c0", dev, queue_depth=depth, completion_sink=sink)
        return env, dev, pool, sink, qp

    def _request(self, pool, offset=0):
        chunk = pool.try_alloc()
        assert chunk is not None
        return SPDKRequest(offset=offset, nbytes=4 * KB, chunks=[chunk])

    def test_reset_aborts_inflight_to_sink(self):
        env, dev, pool, sink, qp = self._qpair()
        reqs = [self._request(pool, i * 8192) for i in range(3)]
        for r in reqs:
            qp.post(r)
        assert qp.inflight == 3
        aborted = qp.reset()
        assert sorted(r.request_id for r in aborted) == sorted(
            r.request_id for r in reqs
        )
        assert qp.inflight == 0
        assert not qp.connected
        assert qp.free_slots == 0
        for r in reqs:
            assert r.status == STATUS_ABORTED_RESET
        with pytest.raises(QPairResetError):
            qp.post(self._request(pool, 32768))

    def test_stale_device_completion_dropped_after_repost(self):
        """The device completion of an aborted command must not be
        double-counted against a re-posted request."""
        env, dev, pool, sink, qp = self._qpair()
        req = self._request(pool)
        qp.post(req)
        qp.reset()
        qp.reconnect()
        qp.post(req)  # re-post the very same request object
        assert qp.inflight == 1
        env.run()
        # Exactly one live completion: the abort + the repost's, not the
        # stale original.
        deliveries = [req.status]
        assert deliveries == [STATUS_OK]
        assert qp.inflight == 0
        assert qp.completed == 1
        # Sink saw the abort and the live completion, nothing else.
        assert len(sink) == 2

    def test_reconnect_restores_service(self):
        env, dev, pool, sink, qp = self._qpair()
        qp.reset()
        qp.reconnect()
        assert qp.connected
        with pytest.raises(ConfigError):
            qp.reconnect()  # double reconnect is a caller bug
        req = self._request(pool)
        qp.post(req)
        env.run()
        assert req.status == STATUS_OK

    def test_inflight_accounting_survives_fault_completions(self):
        """Satellite bugfix: the queue slot is reclaimed even when the
        service path completes with a fault status."""
        env = Environment()
        from repro.hw import HugePagePool

        dev = NVMeDevice(env, name="nvme0")
        dev.install_fault_injector(
            FaultInjector(FaultPlan(media_error_rate=1.0))
        )
        pool = HugePagePool(env, total_bytes=64 * 256 * KB, chunk_size=256 * KB)
        qp = IOQPair(env, "c0", dev, queue_depth=4)
        req = SPDKRequest(offset=0, nbytes=4 * KB, chunks=[pool.try_alloc()])
        qp.post(req)
        env.run()
        assert req.status == STATUS_MEDIA_ERROR
        assert qp.inflight == 0
        assert qp.free_slots == 4


# ---------------------------------------------------------------------------
# Recovery stats
# ---------------------------------------------------------------------------

class TestRecoveryStats:
    def test_counts_and_dict(self):
        env = Environment()
        stats = RecoveryStats(env, name="r")
        stats.incr("retries")
        stats.incr("retries")
        stats.incr("resets")
        assert stats["retries"] == 2
        assert stats["missing"] == 0
        d = stats.as_dict()
        assert d["retries"] == 2 and d["resets"] == 1
        assert d["degraded_time"] == 0.0

    def test_degraded_time_windows(self):
        env = Environment()
        stats = RecoveryStats(env, name="r")

        def proc(env):
            stats.enter_degraded()
            yield env.timeout(1.0)
            stats.exit_degraded()
            yield env.timeout(1.0)
            stats.enter_degraded()
            yield env.timeout(0.5)
            stats.exit_degraded()

        env.run(until=env.process(proc(env)))
        assert stats.degraded_time == pytest.approx(1.5)

    def test_nested_degraded_counts_overlap_once(self):
        env = Environment()
        stats = RecoveryStats(env, name="r")

        def proc(env):
            stats.enter_degraded()
            stats.enter_degraded()
            yield env.timeout(1.0)
            stats.exit_degraded()
            yield env.timeout(1.0)
            stats.exit_degraded()

        env.run(until=env.process(proc(env)))
        assert stats.degraded_time == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------

class TestErrorHierarchy:
    def test_fault_errors_are_repro_errors(self):
        for exc_type in (MediaError, RequestTimeout, QPairResetError):
            assert issubclass(exc_type, FaultError)
            assert issubclass(exc_type, ReproError)

    def test_sample_read_error_carries_key(self):
        exc = SampleReadError("span lost", key=("c", 7))
        assert exc.key == ("c", 7)
        assert isinstance(exc, FaultError)


# ---------------------------------------------------------------------------
# End-to-end recovery through the reactor
# ---------------------------------------------------------------------------

def _injected_sites(fs):
    """Names of the datapath components that hold a fault injector."""
    sites = {"fabric"} if fs.cluster.fabric.injector is not None else set()
    for shard, target in enumerate(fs.targets):
        if fs.device_for_shard(shard).injector is not None:
            sites.add(f"device{shard}")
        if target.injector is not None:
            sites.add(f"target{shard}")
    return sites


def _mount(env, n=128, size=4 * KB, mode="sample", plan=None, recovery=None,
           num_nodes=1):
    testbed = Testbed.paper() if num_nodes == 1 else Testbed.paper_emulated()
    cluster = Cluster(env, testbed, num_nodes=num_nodes, devices_per_node=1)
    ds = Dataset.fixed("faults", n, size, seed=3)
    fs = DLFS.mount(
        cluster, ds,
        DLFSConfig(batching=mode, fault_plan=plan, recovery=recovery),
    )
    return fs


class TestReactorRecovery:
    def test_transient_media_errors_are_retried_to_success(self):
        env = Environment()
        fs = _mount(
            env, plan=FaultPlan(seed=6, media_error_rate=0.2),
            recovery=RecoveryPolicy(max_retries=8),
        )
        client = fs.client()

        def app(env):
            got = yield from client.read_batch(list(range(64)))
            return got

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 64
        assert client.failed_samples == 0
        assert client.recovery_stats["retries"] > 0

    def test_budget_exhaustion_fails_sample_not_batch(self):
        env = Environment()
        fs = _mount(
            env, plan=FaultPlan(seed=1, media_error_rate=1.0),
            recovery=RecoveryPolicy(max_retries=1),
        )
        client = fs.client()

        def app(env):
            yield from client.read_batch(list(range(16)))

        env.run(until=env.process(app(env)))  # batch completes regardless
        assert client.samples_delivered == 0
        assert client.failed_samples == 16
        assert all(isinstance(e, SampleReadError) for e in client.error_log)
        assert client.recovery_stats["budget_exhausted"] == 16
        # retries = max_retries per request before giving up
        assert client.recovery_stats["retries"] == 16

    def test_forced_resets_requeue_without_duplicates(self):
        env = Environment()
        fs = _mount(
            env, n=256,
            plan=FaultPlan(seed=8, qpair_reset_period=5e-5),
            recovery=RecoveryPolicy(),
        )
        client = fs.client()
        seen = []

        def app(env):
            for start in range(0, 256, 32):
                got = yield from client.read_batch(
                    list(range(start, start + 32))
                )
                seen.append(got)

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 256
        assert client.failed_samples == 0
        assert client.recovery_stats["resets"] > 0
        assert client.recovery_stats["aborted"] > 0

    def test_stuck_command_recovered_via_deadline_reset(self):
        env = Environment()
        fs = _mount(
            env,
            plan=FaultPlan(seed=5, timeout_rate=0.2, timeout_stall=100e-3),
            recovery=RecoveryPolicy(deadline=2e-3, max_retries=8),
        )
        client = fs.client()

        def app(env):
            yield from client.read_batch(list(range(32)))

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 32
        assert client.recovery_stats["deadline_timeouts"] > 0
        assert client.recovery_stats["resets"] > 0
        # Recovery is far faster than waiting out the 100 ms stalls.
        assert env.now < 100e-3

    def test_remote_path_faults_recovered(self):
        env = Environment()
        fs = _mount(
            env, n=128, num_nodes=2,
            plan=FaultPlan(
                seed=10, media_error_rate=0.1, link_drop_rate=0.05,
                nvmf_drop_rate=0.05, link_stall=1e-4,
            ),
            recovery=RecoveryPolicy(max_retries=8),
        )
        client = fs.client(rank=0, num_ranks=1, node=fs.cluster.node(0))

        def app(env):
            yield from client.read_batch(list(range(128)))

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 128
        assert client.failed_samples == 0
        counts = fs.injector.counts.as_dict()
        assert counts.get("media_error", 0) > 0

    def test_nonzero_plan_without_recovery_resolves_defaults(self):
        env = Environment()
        fs = _mount(env, plan=FaultPlan(media_error_rate=0.01))
        assert fs.recovery == RecoveryPolicy()
        assert fs.injector is not None

    def test_zero_plan_builds_nothing(self):
        env = Environment()
        fs = _mount(env, plan=ZERO_PLAN)
        assert fs.injector is None
        assert fs.recovery is None
        assert _injected_sites(fs) == set()

    @pytest.mark.parametrize(
        "plan, sites",
        [
            (FaultPlan(node_crashes=((0, 1e-3, 2e-3),)), set()),
            (FaultPlan(media_error_rate=0.1), {"device0", "device1"}),
            (FaultPlan(link_drop_rate=0.1), {"fabric"}),
            (FaultPlan(nvmf_drop_rate=0.1), {"target0", "target1"}),
        ],
        ids=["crash_only", "media", "link_drop", "nvmf_drop"],
    )
    def test_injector_installed_only_where_plan_can_fault(self, plan, sites):
        """Pay-for-use per site kind: the shared injector always exists
        for a non-zero plan (the crash lifecycle records into it), but a
        device, the fabric or a target holds it only if the plan rolls a
        rate there — a crash-only plan keeps the analytic device path."""
        env = Environment()
        cluster = Cluster(
            env, Testbed.paper_emulated(), num_nodes=3, devices_per_node=0
        )
        placement = []
        for lane in (1, 2):
            cluster.node(lane).add_device()
            placement.append((lane, 0))
        fs = DLFS.mount(
            cluster, Dataset.fixed("sites", 64, 4 * KB, seed=1),
            DLFSConfig(
                batching="sample", fault_plan=plan,
                cluster=ClusterSpec(replicas=2),
            ),
            placement=placement,
        )
        assert fs.injector is not None
        assert fs.recovery is not None
        assert _injected_sites(fs) == sites

    def test_deadline_fires_at_post_time_plus_deadline(self, monkeypatch):
        """Every deadline check reaches the reactor inbox exactly one
        ``RecoveryPolicy.deadline`` after its request was posted."""
        env = Environment()
        recovery = RecoveryPolicy(deadline=2e-3, max_retries=2)
        fs = _mount(
            env, n=32, plan=FaultPlan(seed=4, timeout_rate=1.0),
            recovery=recovery,
        )
        client = fs.client()
        inbox = client.reactor.inbox
        put = inbox.put_nowait
        fired = []

        def spy(msg):
            if isinstance(msg, _DeadlineCheck):
                fired.append((env.now, msg.req.submit_time))
            put(msg)

        monkeypatch.setattr(inbox, "put_nowait", spy)

        def app(env):
            yield from client.read_batch(list(range(32)))

        env.run(until=env.process(app(env)))
        assert client.failed_samples == 32
        assert len(fired) >= 32
        for now, submitted in fired:
            assert now == submitted + recovery.deadline


# ---------------------------------------------------------------------------
# Shutdown / drain semantics (satellite: CopyPool + Reactor.stop deadlock)
# ---------------------------------------------------------------------------

class TestShutdownDrain:
    def test_engine_deadlock_raises_deadlock_error(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(DeadlockError, match="deadlock"):
            env.run(until=ev)

    def test_stop_with_inflight_job_does_not_deadlock(self):
        """Regression: stopping the reactor while a job's I/O is in
        flight used to orphan the fetches — awaiting the job then hit
        the engine's deadlock detector.  The drain must complete it."""
        env = Environment()
        fs = _mount(env)
        client = fs.client()
        job = ReadJob(
            samples=np.arange(16, dtype=np.int64), done=env.event()
        )

        def app(env):
            client.reactor.submit(job)
            # Give the reactor a moment to post real I/O, then stop it
            # with that I/O still in flight.
            yield env.timeout(20e-6)
            yield client.reactor.stop()
            result = yield job.done  # must fire, not deadlock
            return result

        env.run(until=env.process(app(env)))
        assert job.remaining == 0
        delivered = 16 - len(job.errors)
        assert client.reactor.samples_delivered == delivered
        assert all(isinstance(e, SampleReadError) for e in job.errors)

    def test_stop_before_any_posting_fails_all_samples(self):
        env = Environment()
        fs = _mount(env)
        client = fs.client()
        job = ReadJob(samples=np.arange(8, dtype=np.int64), done=env.event())

        def app(env):
            client.reactor.submit(job)
            stopped = client.reactor.stop()  # same-instant shutdown
            yield stopped
            yield job.done
            return True

        assert env.run(until=env.process(app(env)))
        assert job.remaining == 0
        assert len(job.errors) + client.reactor.samples_delivered == 8

    def test_copy_pool_shut_down_with_reactor(self):
        env = Environment()
        testbed = Testbed.paper()
        cluster = Cluster(env, testbed, num_nodes=1, devices_per_node=1)
        ds = Dataset.fixed("faults", 64, 4 * KB, seed=3)
        fs = DLFS.mount(
            cluster, ds, DLFSConfig(batching="sample", copy_cores=(1, 2))
        )
        client = fs.client()

        def app(env):
            yield from client.read_batch(list(range(32)))
            yield from client.shutdown()

        env.run(until=env.process(app(env)))
        env.run()  # nothing left: copy workers exited, no deadlock
        assert client.reactor.copy_pool._shut_down
        assert client.samples_delivered == 32

    def test_copy_pool_double_shutdown_is_idempotent(self):
        env = Environment()
        from repro.core.reader import CopyPool
        from repro.hw import CPU, CPUSpec

        cpu = CPU(env, CPUSpec(), node_name="cpu")
        pool = CopyPool(env, [cpu.core(0), cpu.core(1)], kick=lambda: None)
        pool.shutdown()
        pool.shutdown()  # no extra sentinels queued
        env.run()
        assert len(pool.tasks) == 0


class TestChaosDeterminism:
    def test_full_chaos_run_reproducible(self):
        from repro.bench.workloads import dlfs_chaos

        plan = FaultPlan(
            seed=13, media_error_rate=0.02, timeout_rate=0.004,
            qpair_reset_period=1e-3,
        )
        a = dlfs_chaos(plan, num_nodes=2, num_samples=256, epochs=1)
        b = dlfs_chaos(plan, num_nodes=2, num_samples=256, epochs=1)
        assert a == b

    def test_zero_plan_bit_identical_to_no_injector(self):
        from repro.bench.workloads import dlfs_chaos

        rz = dlfs_chaos(ZERO_PLAN, num_nodes=2, num_samples=256, epochs=1)
        rn = dlfs_chaos(None, num_nodes=2, num_samples=256, epochs=1)
        assert rz == rn
        assert rz.failed == 0 and rz.accounted
