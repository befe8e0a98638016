"""Compute nodes and the cluster container.

A :class:`Node` bundles the per-host hardware (cores, NIC, hugepage
pool, zero or more NVMe devices); a :class:`Cluster` owns the fabric and
the node set.  File systems and applications are layered on top and
never talk to raw hardware except through these objects.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..errors import ConfigError
from ..hw import CPU, Fabric, HugePagePool, NVMeDevice, Testbed
from ..hw.memory import chunk_quotas
from ..sim import Environment

__all__ = ["Node", "Cluster", "fluid_lane_stages"]


def fluid_lane_stages(nvme=None, network=None, chunk_bytes: int = 256 * 1024):
    """``(name, bytes/s)`` fluid service stages for one storage lane.

    The hybrid-fidelity engine (:mod:`repro.sim.fluid`) models a lane as
    a rate-balanced pipeline; this is the storage half: the NVMe read
    stream feeding the chunked fabric link.  Rates come from the same
    hardware specs the event-accurate models use, so the fluid
    bottleneck is the one the per-event lane would saturate.
    """
    from ..hw.platform import NetworkSpec, NVMeSpec
    from ..xform.transfer import fabric_fluid_rate
    nvme = nvme or NVMeSpec()
    network = network or NetworkSpec()
    return (
        ("nvme", float(nvme.read_bandwidth)),
        ("fabric", fabric_fluid_rate(
            network.bandwidth, chunk_bytes, network.propagation_latency)),
    )


class Node:
    """One compute node: cores, NIC, hugepage pool, local NVMe devices."""

    def __init__(self, cluster: "Cluster", index: int) -> None:
        testbed = cluster.testbed
        self.cluster = cluster
        self.env = cluster.env
        self.index = index
        self.name = f"node{index}"
        self.cpu = CPU(cluster.env, testbed.cpu, node_name=self.name)
        self.nic = cluster.fabric.attach(self.name)
        self.hugepages = HugePagePool(
            cluster.env,
            total_bytes=testbed.hugepage_bytes,
            chunk_size=cluster.hugepage_chunk_size,
            name=f"{self.name}.hugepages",
        )
        self.devices: list[NVMeDevice] = []

    def add_device(self, device: Optional[NVMeDevice] = None) -> NVMeDevice:
        """Attach an NVMe device (created from the testbed spec by default)."""
        if device is None:
            device = NVMeDevice(
                self.env,
                self.cluster.testbed.nvme,
                name=f"{self.name}.nvme{len(self.devices)}",
            )
        self.devices.append(device)
        return device

    def chunk_quotas(self, shares: dict[str, float]) -> dict[str, int]:
        """Per-tenant chunk quotas; raises ConfigError on oversubscription."""
        return chunk_quotas(self.hugepages.num_chunks, shares)

    @property
    def device(self) -> NVMeDevice:
        """The node's single device; raises if there are zero or many."""
        if len(self.devices) != 1:
            raise ConfigError(
                f"{self.name} has {len(self.devices)} devices; "
                "use .devices for multi-device nodes"
            )
        return self.devices[0]

    def __repr__(self) -> str:
        return f"<Node {self.name!r} devices={len(self.devices)}>"


class Cluster:
    """A set of nodes joined by one RDMA fabric.

    ``devices_per_node`` attaches that many NVMe devices (testbed spec)
    to every node; pass 0 and call :meth:`Node.add_device` selectively to
    model the paper's single-real-SSD topology.
    """

    def __init__(
        self,
        env: Environment,
        testbed: Optional[Testbed] = None,
        num_nodes: int = 1,
        devices_per_node: int = 1,
        hugepage_chunk_size: int = 256 * 1024,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError("cluster needs at least one node")
        if devices_per_node < 0:
            raise ConfigError("devices_per_node must be >= 0")
        self.env = env
        self.testbed = testbed or Testbed.paper()
        self.testbed.validate()
        self.hugepage_chunk_size = hugepage_chunk_size
        self.fabric = Fabric(env, self.testbed.network)
        self.nodes = [Node(self, i) for i in range(num_nodes)]
        for node in self.nodes:
            for _ in range(devices_per_node):
                node.add_device()

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def node(self, index: int) -> Node:
        if not 0 <= index < len(self.nodes):
            raise ConfigError(f"node index {index} out of range")
        return self.nodes[index]

    def all_devices(self) -> list[NVMeDevice]:
        """Every NVMe device in the cluster, node order."""
        return [d for n in self.nodes for d in n.devices]

    def __repr__(self) -> str:
        return (
            f"<Cluster {len(self.nodes)} nodes, "
            f"{len(self.all_devices())} NVMe devices>"
        )
