"""Host-side instrumentation installed from outside the program.

Nothing here lives in ``src/``: a :class:`Probe` wraps a handful of
public entry points *on the class objects* inside one measurement
process, so it can

* stamp the host clock and the process's CPU clock at the first
  simulated event (the first ``Environment.run`` call), which splits
  ``setup_s`` from the run, and in a set-up-only process stop the
  workload there;
* keep references to the environments, clusters and mounted file
  systems a driver builds, so counters the program already keeps
  (``env._eid``, ``SampleCache.hits``, core utilization, ...) can be
  read after the driver returns;
* time host spans around the calls into each layer;
* in a traced process, run :mod:`cProfile` and fold its per-function
  self time into one bucket per ``repro.<package>``.

The wrappers add no simulated events and draw no randomness, so the
simulation they observe is bit-identical to an unobserved one; the
benchmark asserts that by comparing witnesses across runs.  A process
that runs its workload again calls :meth:`Probe.new_repeat` in between;
the hooks stay installed once.
"""

from __future__ import annotations

import cProfile
import dataclasses
import os
import pstats
import time
from contextlib import contextmanager

#: Self-time buckets, one per package of the program (``fluid`` is the
#: ``repro.sim.fluid`` module, split out of ``sim``).  ``misc`` holds the
#: packages none of the workloads drive (top-level modules, kernelfs,
#: octopus, scenarios, train); ``other`` is numpy, the standard library,
#: builtins and the benchmark's own wrappers.
PACKAGES = (
    "sim", "fluid", "core", "spdk", "hw", "tenancy", "cluster", "xform",
    "analysis", "data", "obs", "faults", "bench", "misc",
)


def package_of(filename: str, repro_dir: str) -> str:
    """The self-time bucket a profiled code object belongs to."""
    if not filename.startswith(repro_dir):
        return "other"
    rel = filename[len(repro_dir):].lstrip(os.sep).split(os.sep)
    if rel == ["sim", "fluid.py"]:
        return "fluid"
    if len(rel) > 1 and rel[0] in PACKAGES:
        return rel[0]
    return "misc"


class SetupDone(Exception):
    """Raised at the first simulated event by a set-up-only probe."""


class Probe:
    """One measurement process's clock stamps, spans and captured objects."""

    def __init__(self, traced: bool, setup_only: bool = False) -> None:
        self.traced = traced
        #: Stop the workload at its first simulated event (``setup_s``
        #: samples without paying for a run).
        self.setup_only = setup_only
        #: ``time.perf_counter()`` at the first ``Environment.run`` call.
        self.first_event: float | None = None
        #: ``time.process_time()`` at the same moment.
        self.first_event_cpu: float | None = None
        #: Host seconds per span name, accumulated.
        self.spans: dict[str, float] = {}
        self.envs: list = []
        self.clusters: list = []
        self.filesystems: list = []
        self._profile = cProfile.Profile() if traced else None
        #: Hook sets already installed; a repeat installs none twice.
        self._hooked: set[str] = set()

    def new_repeat(self) -> None:
        """Forget the last run's stamps, spans and captured objects
        before the process runs its workload again.  The hooks stay
        installed."""
        self.first_event = None
        self.first_event_cpu = None
        self.spans = {}
        self.envs = []
        self.clusters = []
        self.filesystems = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
        try:
            yield
        finally:
            end = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
            self.spans[name] = self.spans.get(name, 0.0) + end - start

    def mark_first_event(self) -> None:
        """Stamp the first simulated event (non-simulation workloads
        call this where their measured work starts)."""
        if self.first_event is None:
            now = time.perf_counter()  # simlint: disable=SL101 -- host timing, not sim state
            self.first_event = now  # simlint: disable=SF201 -- host timing, not sim state
            cpu = time.process_time()  # simlint: disable=SL101 -- host timing, not sim state
            self.first_event_cpu = cpu  # simlint: disable=SF201 -- host timing, not sim state
            if self.setup_only:
                raise SetupDone

    # -- hooks ---------------------------------------------------------------
    def install_sim_hooks(self, datapath: bool = True) -> None:
        """Wrap the kernel's ``Environment``, and with ``datapath`` also
        the topology and mount entry points.  Workloads that never build
        a DLFS pass ``datapath=False``, so the hooks import nothing the
        workload itself would not."""
        if "sim" in self._hooked:
            return
        self._hooked.add("sim")
        from repro.sim import Environment

        probe = self
        env_init = Environment.__init__
        env_run = Environment.run

        def init_env(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            probe.envs.append(env)

        def run(env, *args, **kwargs):
            probe.mark_first_event()
            with probe.span("sim.run"):
                return env_run(env, *args, **kwargs)

        Environment.__init__ = init_env
        Environment.run = run
        if not datapath:
            return

        from repro.cluster import Cluster
        from repro.core import DLFS

        cluster_init = Cluster.__init__
        mount = DLFS.mount.__func__

        def init_cluster(cluster, *args, **kwargs):
            with probe.span("hw.topology"):
                cluster_init(cluster, *args, **kwargs)
            probe.clusters.append(cluster)

        def mount_fs(cls, cluster, dataset, config=None, *args, **kwargs):
            # A traced process always mounts with the metrics registry
            # on, also under drivers that take no ``metrics`` argument.
            if probe.traced and config is not None and not config.metrics:
                config = dataclasses.replace(config, metrics=True)
            with probe.span("core.mount"):
                fs = mount(cls, cluster, dataset, config, *args, **kwargs)
            probe.filesystems.append(fs)
            return fs

        Cluster.__init__ = init_cluster
        DLFS.mount = classmethod(mount_fs)

    def install_flow_hooks(self) -> None:
        """Wrap the three simflow passes (graph, taint, protocols)."""
        if "flow" in self._hooked:
            return
        self._hooked.add("flow")
        from repro.analysis.simflow import driver

        probe = self
        build = driver.ProjectGraph.build.__func__
        taint_run = driver.TaintAnalysis.run
        protocols_run = driver.ProtocolAnalysis.run

        def build_graph(cls, *args, **kwargs):
            with probe.span("analysis.graph"):
                return build(cls, *args, **kwargs)

        def run_taint(self, *args, **kwargs):
            with probe.span("analysis.taint"):
                return taint_run(self, *args, **kwargs)

        def run_protocols(self, *args, **kwargs):
            with probe.span("analysis.protocols"):
                return protocols_run(self, *args, **kwargs)

        driver.ProjectGraph.build = classmethod(build_graph)
        driver.TaintAnalysis.run = run_taint
        driver.ProtocolAnalysis.run = run_protocols

    # -- profiling -----------------------------------------------------------
    def start_profile(self) -> None:
        if self._profile is not None:
            self._profile.enable()

    def stop_profile(self) -> None:
        if self._profile is not None:
            self._profile.disable()

    def self_times(self) -> dict[str, float]:
        """Profiled host self time (seconds) per package bucket."""
        out = {name: 0.0 for name in PACKAGES + ("other",)}
        if self._profile is None:
            return out
        import repro

        repro_dir = os.path.dirname(repro.__file__)
        stats = pstats.Stats(self._profile).stats
        for (filename, _line, _func), row in stats.items():
            out[package_of(filename, repro_dir)] += row[2]
        return out
