"""Syscall objects yielded by simulated processes.

A simulated process is a Python generator.  It interacts with the
kernel by yielding one of the request objects below; the kernel
performs the request and resumes the generator with the result (if
any).  Higher layers (the MPI library, the Dyn-MPI runtime) are built
from these five primitives:

* :class:`Compute` — consume CPU work units on the owning node.  The
  time this takes depends on the node's speed *and* on competing
  processes sharing the CPU — this is the essence of the non dedicated
  cluster model.  :class:`Poll` is one chunk of a busy-wait loop.
* :class:`Sleep` — advance simulated time without using CPU.
* :class:`Wait` — block until a :class:`~repro.simcluster.kernel.Signal`
  fires; resumes with the fired value.
* :class:`WaitAny` — block until the first of several signals fires;
  resumes with ``(index, value)``.
* :class:`Fork` — start another process (used by daemons).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Signal, SimProcess

__all__ = ["Compute", "Poll", "Sleep", "Wait", "WaitAny", "Fork", "Syscall"]


class Syscall:
    """Marker base class for kernel requests."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(Syscall):
    """Consume ``work`` CPU work units on the calling process's node."""

    work: float

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"negative work: {self.work}")


@dataclass(frozen=True)
class Poll(Compute):
    """One chunk of a busy-wait loop: a :class:`Compute` that carries
    the loop's ``check``, a zero-argument call returning None to keep
    spinning or the value the loop waits for.

    After a plain completion the request resumes with None and the
    process runs the check itself.  A round-robin CPU that completes
    the chunk with nothing else due at that instant runs the check in
    place instead: on None it re-arms the same chunk without resuming
    the process, otherwise it resumes the process with the value (see
    :meth:`~repro.simcluster.cpu.RoundRobinCPU._fold`).  The check must
    therefore be safe to call from inside a CPU event.
    """

    check: Callable[[], Any]


@dataclass(frozen=True)
class Sleep(Syscall):
    """Suspend for ``duration`` simulated seconds (no CPU use)."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative sleep: {self.duration}")


@dataclass(frozen=True)
class Wait(Syscall):
    """Block until ``signal`` fires; resume with its value."""

    signal: "Signal"


@dataclass(frozen=True)
class WaitAny(Syscall):
    """Block until the first of ``signals`` fires; resume with
    ``(index, value)``."""

    signals: Sequence["Signal"]


@dataclass(frozen=True)
class Fork(Syscall):
    """Schedule ``process`` to start immediately; resume with it."""

    process: "SimProcess"
