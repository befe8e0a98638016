"""Fig 6: random-read sample throughput on the single real NVMe device.

Series: Ext4-Base (1 thread), Ext4-MC (10 threads/cores), DLFS-Base
(synchronous dlfs_read), DLFS (full batching).

Also emits the per-layer latency attribution and percentile panel from
an observed run of the same workload (:mod:`repro.obs`).
"""

from conftest import RESULTS_DIR, run_once

from repro.bench import fig06_single_node_throughput
from repro.bench.workloads import dlfs_observed
from repro.hw import KB
from repro.obs import render_breakdown, render_percentiles


def test_fig06_single_node_throughput(benchmark, emit):
    result = run_once(benchmark, fig06_single_node_throughput, scale=1.0)
    emit(result)
    small = [s for s in result.series["DLFS"] if s <= 4 * KB]

    # Ordering for small samples: DLFS > Ext4-MC > DLFS-Base > Ext4-Base.
    for s in small:
        assert result.series["DLFS"][s] > result.series["Ext4-MC"][s]
        assert result.series["Ext4-MC"][s] > result.series["DLFS-Base"][s]
        assert result.series["DLFS-Base"][s] > result.series["Ext4-Base"][s]

    # Paper: DLFS-Base beats Ext4-Base by at least 1.82x at <= 4 KB.
    _, base_ratio = result.headline[
        "DLFS-Base / Ext4-Base (<=4KB), paper: >= 1.82x"
    ]
    assert base_ratio >= 1.8

    # Paper: Ext4-MC still 3.35x below DLFS for small samples.
    _, mc_ratio = result.headline["DLFS / Ext4-MC (small), paper: 3.35x"]
    assert 1.5 <= mc_ratio <= 8.0

    # Paper: at >= 16 KB Ext4-Base is still 43.8% below DLFS.
    _, big_frac = result.headline[
        "Ext4-Base vs DLFS (>=16KB), paper: 43.8% lower"
    ]
    assert 0.35 <= big_frac <= 0.75

    # DLFS is the best system at every size.
    for s in result.series["DLFS"]:
        for other in ("Ext4-Base", "DLFS-Base"):
            assert result.series["DLFS"][s] >= result.series[other][s]


def test_fig06_latency_attribution(capsys):
    """Observed single-node run: where does each sample's time go?"""
    r = dlfs_observed(samples=2000, sample_bytes=4 * KB)
    name = r.reactor_names[0]
    layers = r.obs.metrics.layers(name)
    text = "\n".join([
        render_breakdown(layers, r.sim_time, title=f"{name} (4 KB samples)"),
        "",
        render_percentiles(r.obs.metrics),
    ])
    with capsys.disabled():
        print()
        print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fig06_attribution.txt").write_text(text + "\n")
    # The attribution table must account for all simulated time: the
    # instrumented stages plus the idle remainder sum to sim_time.
    from repro.obs import breakdown_rows

    rows = breakdown_rows(layers, r.sim_time)
    assert abs(sum(sec for _, sec, _ in rows) - r.sim_time) <= 0.01 * r.sim_time
    # Every datapath layer produced latency observations.
    for hist in ("nvme.latency", "qpair.latency", "reactor.job_latency"):
        assert r.obs.metrics.histogram(hist).count > 0
