"""NVMe device model.

The controller is reduced to the three features the paper's evaluation
exercises:

* a serialized **command processor** — fixed cost per command, which
  caps IOPS and is what chunk-level batching amortizes;
* a shared **data pipe** — the device's read bandwidth;
* a constant **media latency** per command, paid concurrently by
  outstanding commands (the device's internal parallelism).

A command's solo latency is ``cmd_overhead + read_latency +
nbytes/bandwidth``; sustained small-command throughput approaches
``1/cmd_overhead``; sustained large-command throughput approaches
``bandwidth``.  Those are the published envelope numbers for the
paper's Intel Optane device.

For multi-node experiments the paper emulates NVMe with RAMdisk plus an
injected delay; ``NVMeSpec.emulated_ramdisk()`` mirrors that by keeping
the same envelope and tagging the spec, exactly as the paper intends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from collections import deque

from ..errors import ConfigError, HardwareError, QueueFullError
from ..obs import NULL_METRICS, NULL_TRACER
from ..sim import Environment, Event, Resource, Tally, ThroughputMeter
from ..sim.engine import fastpath_enabled
from .platform import GB, NVMeSpec

__all__ = [
    "NVMeCommand",
    "NVMeDevice",
    "READ",
    "WRITE",
    "STATUS_OK",
    "STATUS_MEDIA_ERROR",
    "STATUS_TIMEOUT",
    "STATUS_ABORTED_RESET",
]

READ = "read"
WRITE = "write"

#: Completion statuses shared by NVMe commands and SPDK requests.
STATUS_OK = "ok"
STATUS_MEDIA_ERROR = "media_error"
STATUS_TIMEOUT = "timeout"
STATUS_ABORTED_RESET = "aborted_reset"

#: Logical block size used for address validation.
BLOCK_SIZE = 512


@dataclass(eq=False)
class NVMeCommand:
    """One NVMe I/O command."""

    op: str
    offset: int
    nbytes: int
    #: Fires (with the command as value) when the device completes it.
    completion: Event = field(repr=False)
    #: Opaque tag the submitter can use to route completions.
    tag: Optional[object] = None
    submit_time: float = 0.0
    complete_time: float = 0.0
    #: Completion status (``STATUS_OK`` unless a fault was injected).
    status: str = STATUS_OK
    #: Observability context: causal parent span of this command and the
    #: device-side span opened while servicing it (``None`` = untraced).
    parent_span: Optional[object] = None
    span: Optional[object] = None

    @property
    def latency(self) -> float:
        return self.complete_time - self.submit_time

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class NVMeDevice:
    """One NVMe SSD (real or paper-style RAMdisk emulation)."""

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        spec: Optional[NVMeSpec] = None,
        name: Optional[str] = None,
        capacity: int = 480 * GB,
    ) -> None:
        self.env = env
        self.spec = spec or NVMeSpec.intel_optane_480g()
        self.spec.validate()
        if capacity <= 0:
            raise ConfigError("device capacity must be positive")
        self.name = name or f"nvme{next(self._ids)}"
        self.capacity = capacity
        #: Optional fault injector (see :mod:`repro.faults`); ``None``
        #: keeps the healthy fast path with zero overhead.
        self.injector = None
        self._cmd_proc = Resource(env, capacity=1, name=f"{self.name}.cmdproc")
        self._data_pipe = Resource(env, capacity=1, name=f"{self.name}.data")
        self._outstanding = 0
        self._active_queues = 0
        self.read_meter = ThroughputMeter(env, name=f"{self.name}.read")
        self.write_meter = ThroughputMeter(env, name=f"{self.name}.write")
        self.latency = Tally(f"{self.name}.latency")
        #: Observability (null objects until install_observability).
        self.tracer = NULL_TRACER
        self._h_latency = NULL_METRICS.histogram("")
        #: Analytic fast path (healthy commands only): completion times
        #: are computed in closed form at submit and a single timer chain
        #: delivers them, replacing the per-command service process.
        #: ``perfcheck`` proves results bit-identical to the process path.
        self._fastpath = fastpath_enabled()
        #: Next instant each serialized stage is free (closed-form
        #: mirrors of the _cmd_proc/_data_pipe FIFO resources).
        self._proc_free = 0.0
        self._pipe_free = 0.0
        #: Pending analytic completions, (complete_time, cmd), sorted —
        #: completion times are strictly increasing in submit order
        #: because both stages are FIFO pipes.
        self._fp_pending: deque[tuple[float, NVMeCommand]] = deque()
        self._fp_timer_active = False

    def install_observability(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle."""
        self.tracer = obs.tracer
        self._h_latency = obs.metrics.histogram("nvme.latency")

    # -- introspection -------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Commands submitted but not yet completed."""
        return self._outstanding

    def bandwidth_utilization(self) -> float:
        """Fraction of the data pipe kept busy since t=0."""
        return self._data_pipe.utilization()

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this device."""
        self.injector = injector

    def register_queue(self) -> None:
        """Declare one more active submission queue.

        The controller arbitrates round-robin across queues; each extra
        active queue adds ``spec.queue_arbitration_penalty`` to the
        per-command processing cost (the Fig 7a high-core-count dip).
        """
        self._active_queues += 1

    @property
    def effective_cmd_overhead(self) -> float:
        extra_queues = max(0, self._active_queues - 1)
        return (
            self.spec.cmd_overhead
            + self.spec.queue_arbitration_penalty * extra_queues
        )

    # -- command submission ----------------------------------------------------
    def submit(
        self,
        op: str,
        offset: int,
        nbytes: int,
        tag: Optional[object] = None,
        parent: Optional[object] = None,
    ) -> NVMeCommand:
        """Queue one command; returns it with a live ``completion`` event.

        Raises :class:`QueueFullError` beyond ``spec.max_outstanding`` —
        queue-depth pacing is the submitter's job (the SPDK QPair and the
        kernel block layer both do it).
        """
        if op not in (READ, WRITE):
            raise HardwareError(f"unsupported NVMe opcode: {op!r}")
        if nbytes <= 0:
            raise HardwareError(f"command size must be positive, got {nbytes}")
        if offset < 0 or offset + nbytes > self.capacity:
            raise HardwareError(
                f"command [{offset}, {offset + nbytes}) outside device "
                f"capacity {self.capacity}"
            )
        if offset % BLOCK_SIZE:
            raise HardwareError(
                f"offset {offset} not aligned to {BLOCK_SIZE}-byte blocks"
            )
        if self._outstanding >= self.spec.max_outstanding:
            raise QueueFullError(
                f"{self.name}: {self._outstanding} commands outstanding "
                f"(max {self.spec.max_outstanding})"
            )
        cmd = NVMeCommand(
            op=op,
            offset=offset,
            nbytes=nbytes,
            completion=self.env.event(),
            tag=tag,
            submit_time=self.env.now,
            parent_span=parent,
        )
        if self.tracer.enabled:
            cmd.span = self.tracer.start(
                "nvme.cmd", track=self.name, parent=parent, cat="nvme",
                op=op, nbytes=nbytes,
            )
        self._outstanding += 1
        if self._fastpath and self.injector is None:
            self._fp_submit(cmd)
        else:
            self.env.process(self._service(cmd), name=f"{self.name}.cmd")
        return cmd

    def read(
        self,
        offset: int,
        nbytes: int,
        tag: Optional[object] = None,
        parent: Optional[object] = None,
    ) -> NVMeCommand:
        return self.submit(READ, offset, nbytes, tag, parent=parent)

    def write(
        self,
        offset: int,
        nbytes: int,
        tag: Optional[object] = None,
        parent: Optional[object] = None,
    ) -> NVMeCommand:
        return self.submit(WRITE, offset, nbytes, tag, parent=parent)

    # -- analytic fast path ------------------------------------------------------
    def _fp_submit(self, cmd: NVMeCommand) -> None:
        """Closed-form service timing for one healthy command.

        Mirrors :meth:`_service` stage by stage with the *same float
        operations in the same order*, so completion times are
        bit-identical to the process path:

        1. serialized command processing — FIFO grant of ``_cmd_proc``
           at ``max(now, proc_free)``, released ``cmd_overhead`` later;
        2. media latency — paid concurrently, ``read_latency`` after
           processing;
        3. serialized data movement — FIFO grant of ``_data_pipe``.

        Both stages are capacity-1 FIFO pipes fed in submit order, so
        grant order equals submit order and each stage's free time is a
        single scalar.  Busy-time integrals are credited to the same
        resources with the same per-hold summands in the same (submit ==
        release) order the process path would accumulate them, keeping
        ``bandwidth_utilization()`` bit-identical at end of run (the
        integral is booked at submit, so a mid-flight reading would run
        slightly ahead of the process path).

        The path engages whenever *this device* has no injector (a crash-
        or reset-only plan installs none on devices).  Injectors go in at
        mount, before any I/O, so the two accounting schemes never mix.
        """
        env = self.env
        now = env._now
        proc_start = self._proc_free if self._proc_free > now else now
        proc_done = proc_start + self.effective_cmd_overhead
        self._proc_free = proc_done
        ready = proc_done + self.spec.read_latency
        pipe_start = self._pipe_free if self._pipe_free > ready else ready
        complete = pipe_start + self.spec.transfer_time(cmd.nbytes)
        self._pipe_free = complete
        self._cmd_proc._busy_integral += proc_done - proc_start
        self._data_pipe._busy_integral += complete - pipe_start
        self._fp_pending.append((complete, cmd))
        if not self._fp_timer_active:
            self._fp_schedule(complete)

    def _fp_schedule(self, when: float) -> None:
        """Arm the delivery timer for the earliest pending completion."""
        timer = Event(self.env)
        timer._value = None
        timer.callbacks.append(self._fp_deliver)
        self.env._post_at(timer, when)
        self._fp_timer_active = True

    def _fp_deliver(self, _timer: Event) -> None:
        """Complete every command due now; re-arm for the next instant.

        One timer event per completion *instant* — a same-instant burst
        is drained in submit order under a single event, and the 5+
        intermediate events per command of the process path (process
        start, stage grants, stage timeouts, process end) never exist.
        """
        pending = self._fp_pending
        now = self.env._now
        while pending and pending[0][0] <= now:
            _, cmd = pending.popleft()
            self._complete(cmd, STATUS_OK)
        if pending:
            self._fp_schedule(pending[0][0])
        else:
            self._fp_timer_active = False

    # -- service -----------------------------------------------------------------
    def _service(self, cmd: NVMeCommand) -> Generator[Event, Any, None]:
        fault = None
        if self.injector is not None and cmd.op == READ:
            fault = self.injector.nvme_fault(self.name, self.env.now)
        if fault is not None and cmd.span is not None:
            cmd.span.event("fault_injected", kind=fault[0])
        # 1. command processing (serialized: the IOPS ceiling)
        yield from self._cmd_proc.hold(self.effective_cmd_overhead)
        if fault is not None:
            kind, extra = fault
            if kind == "media_error":
                # The media access fails after its latency; no data moves.
                yield self.env.timeout(self.spec.read_latency)
                self._complete(cmd, STATUS_MEDIA_ERROR)
                return
            if kind == "timeout":
                # The command wedges inside the controller before it
                # surfaces — far past any sane client deadline.
                yield self.env.timeout(self.spec.read_latency + extra)
                self._complete(cmd, STATUS_TIMEOUT)
                return
            # Hiccup: a latency spike on an otherwise-healthy read.
            yield self.env.timeout(extra)
        # 2. media access latency (paid concurrently across commands)
        yield self.env.timeout(self.spec.read_latency)
        # 3. data movement (serialized on the device's bandwidth)
        yield from self._data_pipe.hold(self.spec.transfer_time(cmd.nbytes))
        self._complete(cmd, STATUS_OK)

    def _complete(self, cmd: NVMeCommand, status: str) -> None:
        cmd.status = status
        cmd.complete_time = self.env.now
        self._outstanding -= 1
        self.latency.observe(cmd.latency)
        self._h_latency.observe(cmd.latency)
        if cmd.span is not None:
            cmd.span.finish(status=status)
        if status == STATUS_OK:
            meter = self.read_meter if cmd.op == READ else self.write_meter
            meter.record(nbytes=cmd.nbytes)
        cmd.completion.succeed(cmd)

    def __repr__(self) -> str:
        kind = "emulated" if self.spec.emulated else "real"
        return f"<NVMeDevice {self.name!r} ({kind}, {self.capacity // GB} GB)>"
