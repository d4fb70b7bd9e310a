"""Deadlock diagnosis and structured run outcomes for simulated SPMD runs.

The engine already detects the *fact* of a deadlock (empty event heap
with unfinished processes); this module turns the blocked-process state
into a structured report: who is blocked, on what primitive, which
pending receives have no matching in-flight message, how many messages
the fault layer discarded, and when the world wedged.  The paper's §3
blocking pseudocode is exactly the kind of program that deadlocks when
the schedule is wrong (e.g. two neighbours both in ``MPI_Recv``), so the
report is part of the library's debugging surface.

:class:`RunOutcome` is the watchdog-aware result of
:meth:`~repro.sim.mpi.World.run_outcome`: instead of raising (or hanging
in churn), a run under fault injection finishes as ``completed``,
``degraded`` (completed, but only thanks to retransmissions) or
``deadlocked`` (with the diagnosis attached) — always in bounded virtual
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.critical_path import CriticalPath
from repro.sim.mpi import World

__all__ = [
    "BlockedRank",
    "DeadlockReport",
    "RunOutcome",
    "WatchdogConfig",
    "diagnose",
]


@dataclass(frozen=True)
class BlockedRank:
    """One stuck process: its rank name and the primitive it waits in."""

    name: str
    waiting_on: str


@dataclass(frozen=True)
class DeadlockReport:
    """Snapshot of a deadlocked world.

    ``unmatched_receives`` lists posted receives no message reached and
    ``undelivered_messages`` messages that arrived at their destination
    node but were never received by a matching receive, each entry a
    ``(dst, src, tag)`` tuple, sorted (see :meth:`World.unmatched`);
    ``messages_dropped`` counts messages the fault layer discarded (the
    usual root cause); ``sim_time`` is the virtual time at diagnosis.
    """

    blocked: tuple[BlockedRank, ...]
    unmatched_receives: tuple[tuple[int, int, int], ...]
    undelivered_messages: tuple[tuple[int, int, int], ...]
    messages_dropped: int = 0
    sim_time: float = 0.0

    @property
    def is_deadlocked(self) -> bool:
        return bool(self.blocked)

    def describe(self) -> str:
        if not self.is_deadlocked:
            return "no deadlock: all processes finished"
        lines = [
            f"deadlock: {len(self.blocked)} process(es) blocked "
            f"at t={self.sim_time:.6g}"
        ]
        for b in self.blocked:
            lines.append(f"  {b.name}: {b.waiting_on}")
        if self.messages_dropped:
            lines.append(f"messages dropped by fault injection: "
                         f"{self.messages_dropped}")
        if self.unmatched_receives:
            lines.append("posted receives never matched (dst, src, tag):")
            for dst, src, tag in self.unmatched_receives:
                lines.append(f"  rank {dst} <- rank {src} tag {tag}")
        if self.undelivered_messages:
            lines.append("undelivered messages (arrived, never received) "
                         "(dst, src, tag):")
            for dst, src, tag in self.undelivered_messages:
                lines.append(f"  rank {dst} <- rank {src} tag {tag}")
        return "\n".join(lines)


@dataclass(frozen=True)
class WatchdogConfig:
    """Live no-progress detection for :meth:`World.run_outcome`.

    The watchdog fires when no process has advanced for ``stall_time``
    virtual seconds (retry churn without progress), or immediately when
    the event heap is empty with unfinished ranks (true quiescence).
    ``stall_time`` must exceed the longest single charge in the run (one
    tile's compute, one backoff ladder) or a slow-but-healthy run could
    be misdiagnosed; :func:`repro.runtime.executor.default_watchdog`
    derives a safe value from the workload and machine.
    """

    stall_time: float = 1.0
    interval: float | None = None
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.stall_time <= 0:
            raise ValueError("stall_time must be positive")
        if self.interval is not None and self.interval <= 0:
            raise ValueError("interval must be positive")

    @property
    def effective_interval(self) -> float:
        return self.interval if self.interval is not None else self.stall_time / 4.0


@dataclass(frozen=True)
class RunOutcome:
    """Structured result of a watched run under (possible) faults.

    ``status`` is one of:

    * ``"completed"`` — every rank finished, no fault-layer intervention;
    * ``"degraded"`` — every rank finished, but messages were dropped,
      corrupted, duplicated or retransmitted along the way (results are
      still bit-identical to the fault-free run — reliability is
      exactly-once — only timing degrades);
    * ``"deadlocked"`` — the watchdog detected a wedged pipeline; the
      diagnosis is in ``report``.

    ``critical_path`` is the measured binding chain
    (:class:`~repro.sim.critical_path.CriticalPath`) — present when the
    world was built with ``trace=True`` and the run completed.
    """

    status: str
    completion_time: float
    messages_sent: int = 0
    messages_dropped: int = 0
    messages_corrupted: int = 0
    retransmits: int = 0
    duplicates_suppressed: int = 0
    acks_sent: int = 0
    gave_up: int = 0
    report: DeadlockReport | None = None
    reliable_stats: dict = field(default_factory=dict)
    critical_path: CriticalPath | None = None

    @property
    def completed(self) -> bool:
        return self.status in ("completed", "degraded")

    def describe(self) -> str:
        lines = [
            f"run {self.status} at t={self.completion_time:.6g}: "
            f"{self.messages_sent} messages sent, "
            f"{self.messages_dropped} dropped, "
            f"{self.retransmits} retransmits, "
            f"{self.duplicates_suppressed} duplicates suppressed, "
            f"{self.gave_up} transfers abandoned"
        ]
        if self.report is not None:
            lines.append(self.report.describe())
        if self.critical_path is not None:
            lines.append(self.critical_path.describe())
        return "\n".join(lines)


def diagnose(world: World) -> DeadlockReport:
    """Inspect a world after :meth:`Simulator.run` returned.

    Call when ``check_all_finished`` raised (or instead of it) to get a
    structured report of the blockage.
    """
    blocked = tuple(
        BlockedRank(p.name, p.waiting_on)
        for p in world.sim.unfinished_processes()
    )
    receives, messages, _held = world.unmatched()
    return DeadlockReport(
        blocked,
        receives,
        messages,
        messages_dropped=world.messages_dropped,
        sim_time=world.sim.now,
    )
