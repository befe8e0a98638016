"""Disaggregated fetch/transform tier: stages, pushdown policy, tier.

Covers the tentpole surfaces — stage parsing and pipeline arithmetic,
the :class:`PushdownPolicy` boundary decision (static extremes,
placement pins, the cost crossover), FanStore-style packed formats —
and the end-to-end gates: pay-for-use bit-identity with the flat
cluster datapath, crash/redispatch delivery, and repeat determinism.
"""

import numpy as np
import pytest

from repro.bench.workloads import dlfs_cluster, dlfs_xform
from repro.errors import ConfigError
from repro.xform import (
    PushdownPolicy,
    XformSpec,
    augment,
    decompress,
    parse_stages,
    pipeline_bytes,
    pipeline_cost,
    stages_with_packing,
    tfrecord_parse,
)

KB = 1024


# ---------------------------------------------------------------------------
# Stage parsing and pipeline arithmetic
# ---------------------------------------------------------------------------

class TestParseStages:
    def test_kinds_args_and_placements(self):
        stages = parse_stages("parse,decompress:2@storage,augment:0.25@worker")
        assert [s.name for s in stages] == \
            ["parse", "decompress:2", "augment:0.25"]
        assert [s.placement for s in stages] == ["auto", "storage", "worker"]
        assert stages[1].selectivity == 2.0
        assert stages[2].selectivity == 0.25

    def test_defaults(self):
        stages = parse_stages("decompress,augment")
        assert stages[0].selectivity == 2.0
        assert stages[1].selectivity == 0.5

    @pytest.mark.parametrize("bad", ["resize", "augment:x", "", "parse@gpu"])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ConfigError):
            parse_stages(bad)

    def test_pipeline_bytes_chains_selectivities(self):
        stages = (decompress(ratio=2.0), augment(selectivity=0.5))
        sizes = pipeline_bytes(stages, 64 * KB)
        assert sizes == [64 * KB, 128 * KB, 64 * KB]
        costs = pipeline_cost(stages, 64 * KB)
        assert len(costs) == 2
        # The augment stage sees the *inflated* record.
        assert costs[1] == stages[1].cost.cost(128 * KB)


class TestPushdownPolicy:
    def test_static_extremes(self):
        stages = (tfrecord_parse(), augment())
        assert PushdownPolicy(mode="worker").boundary(stages, 64 * KB) == 0
        assert PushdownPolicy(mode="storage").boundary(stages, 64 * KB) == 2

    def test_placement_pins_bound_the_range(self):
        pinned = (tfrecord_parse(placement="storage"),
                  augment(placement="worker"))
        assert PushdownPolicy(mode="worker").boundary(pinned, 64 * KB) == 1
        assert PushdownPolicy(mode="storage").boundary(pinned, 64 * KB) == 1

    def test_contradictory_pins_rejected(self):
        backwards = (tfrecord_parse(placement="worker"),
                     augment(placement="storage"))
        with pytest.raises(ConfigError):
            PushdownPolicy(mode="cost").boundary(backwards, 64 * KB)

    def test_cost_crossover_on_fabric_bandwidth(self):
        """Shrinking stage: pushdown on a slow wire, ship-raw on a fast one."""
        stages = (tfrecord_parse(),
                  augment(selectivity=0.25, per_byte=0.5e-9))
        slow = PushdownPolicy(mode="cost", fabric_bandwidth=1.5e9,
                              storage_core_budget=1, worker_core_budget=2)
        fast = PushdownPolicy(mode="cost", fabric_bandwidth=6e9,
                              storage_core_budget=1, worker_core_budget=2)
        assert slow.boundary(stages, 64 * KB) == 2
        assert fast.boundary(stages, 64 * KB) == 0

    def test_inflating_stage_stays_on_workers(self):
        stages = (tfrecord_parse(), decompress(ratio=2.0, per_byte=0.5e-9))
        policy = PushdownPolicy(mode="cost", fabric_bandwidth=6e9,
                                storage_core_budget=1, worker_core_budget=2)
        assert policy.boundary(stages, 64 * KB) == 0

    @pytest.mark.parametrize("bad", [
        dict(mode="gpu"),
        dict(fabric_bandwidth=0.0),
        dict(storage_core_budget=-1.0),
    ])
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(ConfigError):
            PushdownPolicy(**bad)


class TestPacking:
    def test_ratio_one_is_identity(self):
        stages = (tfrecord_parse(),)
        assert stages_with_packing(stages, 1.0) == stages

    def test_packed_ratio_prefixes_unpack(self):
        stages = stages_with_packing((tfrecord_parse(),), 2.0)
        assert len(stages) == 2
        assert stages[0].name.startswith("unpack")
        assert stages[0].selectivity == 2.0


class TestXformSpec:
    def test_no_stages_means_disabled(self):
        assert not XformSpec(stages=()).enabled
        assert XformSpec(stages=(tfrecord_parse(),)).enabled

    @pytest.mark.parametrize("bad", [
        dict(workers=0),
        dict(worker_cores=0),
        dict(queue_depth=0),
        dict(max_inflight_jobs=0),
        dict(storage_cores=0),
        dict(packed_ratio=0.5),
        dict(placement="gpu"),
    ])
    def test_validate_rejects_bad_knobs(self, bad):
        with pytest.raises(ConfigError):
            XformSpec(stages=(tfrecord_parse(),), **bad).validate()


# ---------------------------------------------------------------------------
# End-to-end gates
# ---------------------------------------------------------------------------

def _small_run(**kwargs):
    defaults = dict(
        num_storage=2, num_clients=2, num_samples=256, horizon=0.002,
        spec=XformSpec(stages=parse_stages("parse,augment:0.5"), workers=2),
    )
    defaults.update(kwargs)
    return dlfs_xform(**defaults)


class TestXformEndToEnd:
    def test_delivers_through_the_tier(self):
        r = _small_run()
        assert r.delivered > 0
        assert r.failed == 0
        assert r.tier["tasks"] > 0
        assert r.tier["stages"] == 2
        # Both tiers appear in the utilization panel.
        assert {row["tier"] for row in r.utilization} == {"storage", "xform"}
        # Every delivered sample went through a transform lane.
        assert sum(r.routed.values()) == r.jobs

    def test_repeat_determinism(self):
        a, b = _small_run(), _small_run()
        assert a.sim_time == b.sim_time
        assert np.array_equal(a.samples_read, b.samples_read)

    def test_pay_for_use_bit_identical_to_flat_cluster(self):
        common = dict(num_storage=2, num_clients=2, num_samples=256,
                      horizon=0.002)
        x = dlfs_xform(spec=None, **common)
        flat = dlfs_cluster(replicas=1, balancer=False, **common)
        assert x.sim_time == flat.sim_time
        assert np.array_equal(x.samples_read, flat.samples_read)
        assert x.tier == {} and x.links == () and x.routed == {}

    def test_storage_placement_ships_direct(self):
        r = _small_run(
            spec=XformSpec(stages=parse_stages("parse,augment:0.5"),
                           workers=2, placement="storage"),
        )
        assert r.failed == 0
        assert r.tier["direct_ships"] > 0
        assert r.tier["tasks"] == 0
        # The worker lanes never run a stage.
        xform_rows = [row for row in r.utilization if row["tier"] == "xform"]
        assert all(row["cpu"] == 0.0 for row in xform_rows)

    def test_crash_redispatch_still_delivers_everything(self):
        r = _small_run(xform_crashes=((0, 0.0005, 0.001),))
        assert r.failed == 0
        assert r.tier["crashes"] == 1
        assert r.tier["rejoins"] == 1

    def test_merged_xform_wait_p99_covers_every_client(self):
        """Per-tenant rows merged across clients report the p99 of every
        client's transform-queue waits, not the first client's alone."""
        from repro.bench.workloads import _merge_tenant_rows
        from repro.cluster import ClusterRuntime
        from repro.obs.metrics import Histogram
        from repro.sim import Environment
        from repro.tenancy import TenantSpec

        env = Environment()
        runtimes = [
            ClusterRuntime(env, None, (TenantSpec(name="train"),))
            for _ in range(2)
        ]
        everything = Histogram("everything")
        for rt, base in zip(runtimes, (1e-3, 10e-3)):
            for k in range(100):
                rt.accounting.on_xform_wait("train", base * (1 + k / 100))
                everything.observe(base * (1 + k / 100))
        [row] = _merge_tenant_rows(runtimes, records=())
        assert row["xform_wait_p99"] == everything.percentile(99.0)
        assert row["xform_wait_p99"] > 10e-3

    def test_crashes_require_stages(self):
        with pytest.raises(ConfigError):
            dlfs_xform(spec=None, xform_crashes=((0, 0.0005, 0.001),))
