"""Backend parallel file system (staging source for ``dlfs_mount``).

DL jobs on the paper's target systems stage their dataset from the HPC
persistent file system (Lustre/GPFS-class) into the burst buffers at
mount time.  The model is intentionally coarse — a pool of server
streams, each with fixed bandwidth — because staging cost only appears
in mount-time measurements, never in the steady-state figures.
"""

from __future__ import annotations

from typing import Any, Generator

from ..errors import ConfigError
from ..hw.platform import GB, MSEC
from ..sim import Environment, Event, Resource, ThroughputMeter

__all__ = ["ParallelFS"]


class ParallelFS:
    """An aggregate-bandwidth staging source with limited parallelism."""

    def __init__(
        self,
        env: Environment,
        streams: int = 16,
        stream_bandwidth: float = 1.5 * GB,
        request_latency: float = 0.5 * MSEC,
        name: str = "pfs",
    ) -> None:
        if streams < 1:
            raise ConfigError("streams must be >= 1")
        if stream_bandwidth <= 0:
            raise ConfigError("stream_bandwidth must be positive")
        if request_latency < 0:
            raise ConfigError("request_latency must be >= 0")
        self.env = env
        self.name = name
        self.streams = streams
        self.stream_bandwidth = stream_bandwidth
        self.request_latency = request_latency
        self._pipes = Resource(env, capacity=streams, name=f"{name}.streams")
        self.meter = ThroughputMeter(env, name=f"{name}.read")

    def read(self, nbytes: int) -> Generator[Event, Any, None]:
        """Stream ``nbytes`` out of the PFS (process helper).

        One stream slot is held for the duration; concurrent readers
        beyond ``streams`` queue up, which is how staging contention
        across many mounting nodes shows up.
        """
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        if nbytes == 0:
            return
        yield from self._pipes.hold(
            self.request_latency + nbytes / self.stream_bandwidth
        )
        self.meter.record(nbytes=nbytes)

    def __repr__(self) -> str:
        return (
            f"<ParallelFS {self.name!r} {self.streams}x"
            f"{self.stream_bandwidth / GB:.1f} GB/s>"
        )
