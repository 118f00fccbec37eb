"""CPU scheduling disciplines for simulated nodes.

Two disciplines are provided:

* :class:`RoundRobinCPU` — quantized time slicing (default, quantum =
  10 ms).  This is the faithful model: it produces the wallclock-timer
  artifacts the paper's Section 4.2 is about (an iteration shorter than
  a quantum either completes unpreempted, giving its true time, or
  spans a context switch and absorbs a competing process's slice).
* :class:`ProcessorSharingCPU` — an idealized fluid model in which all
  runnable jobs progress simultaneously at ``speed / n``.  It generates
  far fewer events and no timing noise; the Dyn-MPI *predictor* uses
  the same fluid arithmetic, and tests use it when noise-free times are
  wanted.

Both disciplines support *background jobs* — the competing processes of
a non dedicated cluster — which are CPU-bound forever until removed.

Fast path: when a round-robin queue holds a single job, the slice runs
to the job's completion in one event; the arrival of another job
preempts the long slice and falls back to quantized slicing.  A
completion normally costs two more events: the job's callback (for a
process, the resume of its generator) and a deferred dispatch that
lets the process claim its quantum continuation first.  When the run
queue is empty and the kernel has nothing else due at this instant
(:meth:`~repro.simcluster.kernel.Simulator.due_now`), the callback is
provably the next event and the deferred dispatch provably a no-op, so
the slice end *folds* them: it calls the callback inline and posts
nothing.  A busy-poll chunk (:class:`~repro.simcluster.syscalls.Poll`)
folds further: the CPU runs the chunk's check itself and, when it
finds nothing, re-arms the same job in place with exactly the
bookkeeping a resubmit would do — one kernel event per lone poll
chunk, no generator resume.  Loaded CPUs and same-instant ties keep
the posted events, so every RNG draw and simulated time stays what it
was.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..errors import SimulationError
from .kernel import ProcState, Simulator, Timer

__all__ = ["Job", "BackgroundJob", "RoundRobinCPU", "ProcessorSharingCPU", "make_cpu"]

_EPS = 1e-12


class BackgroundJob:
    """A competing process: CPU-bound, never finishes until removed.

    It is not a :class:`SimProcess` — it has no program — but it
    occupies the run queue and therefore shows up in the node's process
    table (and in ``dmpi_ps`` samples).
    """

    __slots__ = ("name", "state", "cpu_time", "node")

    def __init__(self, name: str):
        self.name = name
        self.state = ProcState.READY
        self.cpu_time = 0.0
        self.node = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BackgroundJob {self.name} {self.state}>"


class Job:
    """One outstanding compute request on a CPU.

    ``allowed`` is the quantum budget left for a *continuation* job — a
    request submitted by the process that was running at this very
    instant with quantum to spare.  ``used_before`` carries the quantum
    already consumed in that unexpired slice, and ``slice_count``
    tracks whether the job ever got requeued (which breaks the
    continuation chain).
    """

    __slots__ = ("proc", "remaining", "callback", "cb_arg", "cancelled",
                 "allowed", "used_before", "slice_count", "boost_time", "poll")

    def __init__(self, proc, remaining: float,
                 callback: Optional[Callable[..., None]], cb_arg=None):
        self.proc = proc
        self.remaining = remaining
        self.callback = callback
        self.cb_arg = cb_arg  # posted with the callback when not None
        self.cancelled = False
        self.allowed: Optional[float] = None
        self.used_before = 0.0
        self.slice_count = 0
        self.boost_time: Optional[float] = None  # instant this job was boosted
        # the syscalls.Poll request this job runs, set by the kernel; a
        # folded completion passes a non-None check result to the
        # callback as a second argument
        self.poll = None


class _CPUBase:
    def __init__(self, sim: Simulator, speed: float, quantum: float):
        if speed <= 0:
            raise SimulationError("CPU speed must be positive")
        self.sim = sim
        self.speed = speed
        self.quantum = quantum
        self.busy_time = 0.0  # total CPU-seconds delivered to any job
        self._bg_jobs: dict[BackgroundJob, Job] = {}

    # -- background (competing) processes --------------------------------
    def add_background(self, bg: BackgroundJob) -> None:
        if bg in self._bg_jobs:
            raise SimulationError(f"background job {bg.name} already running")
        job = self.submit(bg, math.inf, None)
        self._bg_jobs[bg] = job

    def remove_background(self, bg: BackgroundJob) -> None:
        job = self._bg_jobs.pop(bg, None)
        if job is None:
            raise SimulationError(f"background job {bg.name} is not running")
        self.cancel(job)
        bg.state = ProcState.DONE

    @property
    def n_background(self) -> int:
        return len(self._bg_jobs)

    # -- interface --------------------------------------------------------
    def submit(self, proc, work: float, callback, cb_arg=None) -> Job:  # pragma: no cover
        raise NotImplementedError

    def cancel(self, job: Job) -> None:  # pragma: no cover
        raise NotImplementedError

    def runnable_jobs(self) -> list[Job]:  # pragma: no cover
        raise NotImplementedError

    def runnable_count(self) -> int:
        return len(self.runnable_jobs())


class RoundRobinCPU(_CPUBase):
    """Quantized round-robin scheduling (see module docstring).

    Quantum continuation: when a job completes mid-quantum and its
    process immediately (at the same simulated instant) submits another
    compute request — the common pattern of an application timing
    individual iterations — the new request continues in the unexpired
    quantum at the head of the queue instead of going to the tail.
    Without this, a loaded node would charge every sub-quantum
    iteration a full competing time slice, which no real OS does, and
    the paper's min-over-cycles filter (Figure 7) could never recover
    true iteration times.
    """

    def __init__(self, sim: Simulator, speed: float, quantum: float = 0.010,
                 rng=None):
        super().__init__(sim, speed, quantum)
        if quantum <= 0:
            raise SimulationError("quantum must be positive")
        self._queue: list[Job] = []
        self._current: Optional[Job] = None
        self._slice_timer: Optional[Timer] = None
        self._slice_start = 0.0
        self._slice_long = False  # True when running the single-job fast path
        # (proc, time, quantum_used) of the most recent mid-quantum completion
        self._cont: Optional[tuple] = None
        # (proc, time) of the most recent completion of any kind: a
        # process resubmitting at that instant is CPU-bound, not waking
        self._last_done: Optional[tuple] = None
        # per-process EMA of CPU usage (id(proc) -> [t_last, score]);
        # share over the recent window is score / _EMA_TAU
        self._ema: dict[int, list] = {}
        self._rng = rng
        self.n_context_switches = 0
        self.n_wake_boosts = 0

    # -- public -----------------------------------------------------------
    def submit(self, proc, work: float, callback, cb_arg=None) -> Job:
        job = Job(proc, work, callback, cb_arg)
        proc.state = ProcState.READY
        cont = self._cont
        now = self.sim.now
        if (
            cont is not None
            and cont[0] is proc
            and cont[1] == now
            and cont[2] < self.quantum - _EPS
        ):
            # continuation within the unexpired quantum: head of queue
            job.allowed = self.quantum - cont[2]
            job.used_before = cont[2]
            self._queue.insert(0, job)
            self._cont = None  # consumed
            if self._current is None:
                self._start_next()
            elif self._slice_long:
                self._preempt_current()
            return job
        # NOTE: an unmatched continuation record is left in place — a
        # same-instant submit by another process (e.g. an isend shadow)
        # must not destroy the running process's quantum credit; the
        # timestamp check invalidates it as soon as time advances.

        # wakeup boost: a process that was blocked (I/O, message wait)
        # and becomes runnable preempts CPU-bound work — the standard
        # interactivity boost of classic UNIX schedulers — but only
        # while its recent CPU share is below its fair share.  Without
        # the boost, every tiny post-receive CPU burst on a loaded node
        # would wait k full competing quanta (no real OS does that);
        # without the fair-share governor, a compute-heavy app would
        # dodge competing processes entirely (no real OS does that
        # either — a process that keeps consuming CPU loses priority).
        was_blocked = not (
            self._last_done is not None
            and self._last_done[0] is proc
            and self._last_done[1] == now
        )
        if was_blocked and not isinstance(proc, BackgroundJob):
            if not self._below_fair_share(proc):
                # above fair share: the wakeup still preempts (so
                # message handling is prompt) but only for a short
                # interactive slice — long computation cannot use the
                # boost to dodge competing processes.  The slice is
                # jittered so its expiry never pins the same
                # application iteration cycle after cycle (which would
                # defeat the grace period's min-filter).
                slice_budget = self.quantum * self._INTERACTIVE_FRAC
                if self._rng is not None:
                    slice_budget *= 0.5 + float(self._rng.random())
                job.allowed = slice_budget
                job.used_before = max(0.0, self.quantum - slice_budget)
            self.n_wake_boosts += 1
            job.boost_time = now
            # FIFO among jobs boosted at this same instant — otherwise
            # two back-to-back isends would have their wire order
            # reversed, violating MPI's non-overtaking guarantee
            idx = 0
            while (idx < len(self._queue)
                   and self._queue[idx].boost_time == now):
                idx += 1
            cur = self._current
            if cur is not None and cur.boost_time == now:
                self._queue.insert(idx, job)  # queue behind the peer boost
            elif cur is not None:
                self._queue.insert(idx, job)
                if idx == 0:
                    self._preempt_current(insert_pos=1)
            else:
                self._queue.insert(idx, job)
                self._start_next()
            return job

        self._queue.append(job)
        if self._current is None:
            self._start_next()
        elif self._slice_long:
            # A long (unbounded) slice is in flight; preempt it so the
            # newcomer gets quantized service.
            self._preempt_current()
        return job

    def cancel(self, job: Job) -> None:
        job.cancelled = True
        if job is self._current:
            self._account_current()
            self._current = None
            if self._slice_timer is not None:
                self._slice_timer.cancel()
                self._slice_timer = None
            self._start_next()
        else:
            try:
                self._queue.remove(job)
            except ValueError:
                pass  # already finished

    def runnable_jobs(self) -> list[Job]:
        jobs = list(self._queue)
        if self._current is not None:
            jobs.append(self._current)
        return jobs

    # -- internals ----------------------------------------------------------
    def _start_next(self) -> None:
        if not self._queue:
            self._current = None
            return
        job = self._queue.pop(0)
        job.slice_count += 1
        self._current = job
        self._slice_start = self.sim.now
        job.proc.state = ProcState.RUNNING
        if not self._queue and math.isfinite(job.remaining):
            # fast path: run to completion unless preempted
            self._slice_long = True
            duration = job.remaining / self.speed
        else:
            self._slice_long = False
            budget = self.quantum if job.allowed is None else job.allowed
            if self._rng is not None and job.allowed is None:
                # real schedulers do not slice with zero variance; the
                # jitter decorrelates quantum boundaries from iteration
                # boundaries so the grace period's min-filter sees an
                # occasionally-unpreempted run of every iteration
                budget *= 1.0 + 0.1 * (float(self._rng.random()) - 0.5)
            duration = min(budget, job.remaining / self.speed)
        self._slice_timer = self.sim.schedule(duration, self._on_slice_end)

    # EMA window for the fair-share governor (seconds); several quanta
    # long, so sustained compute loses its boost within a few tens of
    # milliseconds — roughly the reaction time of a UNIX TS scheduler's
    # priority decay
    _EMA_TAU = 0.04
    # hysteresis: full-quantum boost only while share < fair * this
    _BOOST_HEADROOM = 0.9
    # fraction of a quantum granted to an above-fair-share wakeup
    _INTERACTIVE_FRAC = 0.1

    def _ema_share(self, proc) -> float:
        """Recent CPU share of ``proc`` (0..1)."""
        rec = self._ema.get(id(proc))
        if rec is None:
            return 0.0
        dt = self.sim.now - rec[0]
        if dt > 0:
            rec[1] *= math.exp(-dt / self._EMA_TAU)
            rec[0] = self.sim.now
        return rec[1] / self._EMA_TAU

    def _ema_add(self, proc, elapsed: float) -> None:
        now = self.sim.now
        rec = self._ema.get(id(proc))
        if rec is None:
            self._ema[id(proc)] = [now, elapsed]
            return
        dt = now - rec[0]
        if dt > 0:
            rec[1] *= math.exp(-dt / self._EMA_TAU)
        rec[0] = now
        rec[1] += elapsed

    def _below_fair_share(self, proc) -> bool:
        runnable = len(self._queue) + (1 if self._current is not None else 0) + 1
        fair = 1.0 / runnable
        return self._ema_share(proc) < fair * self._BOOST_HEADROOM

    def _account_current(self) -> float:
        """Credit the elapsed part of the in-flight slice to its job;
        returns the elapsed slice time."""
        job = self._current
        if job is None:
            return 0.0
        now = self.sim.now
        elapsed = now - self._slice_start
        if elapsed > 0:
            done = elapsed * self.speed
            job.remaining = max(0.0, job.remaining - done)
            job.proc.cpu_time += elapsed
            self._ema_add(job.proc, elapsed)
            self.busy_time += elapsed
            if job.allowed is not None:
                job.allowed = max(0.0, job.allowed - elapsed)
        self._slice_start = now
        return elapsed

    def _preempt_current(self, insert_pos: int = 0) -> None:
        job = self._current
        if job is None:
            return
        if self._slice_timer is not None:
            self._slice_timer.cancel()
            self._slice_timer = None
        elapsed = self._account_current()
        self.n_context_switches += 1
        self._current = None
        if job.remaining <= _EPS * self.speed:
            self._complete(job, elapsed)
            self._post_callback(job)
        else:
            job.proc.state = ProcState.READY
            job.allowed = None  # fresh quantum on its next dispatch
            # preempted job keeps its turn (or yields to a waking one)
            self._queue.insert(min(insert_pos, len(self._queue)), job)
        self._start_next()

    def _on_slice_end(self) -> None:
        job = self._current
        if job is None:
            return
        self._slice_timer = None
        elapsed = self._account_current()
        self._current = None
        if job.cancelled:
            self._start_next()
            return
        if job.remaining <= _EPS * self.speed:
            self._complete(job, elapsed)
            if not self._queue and not self.sim.due_now():
                self._fold(job)
                return
            self._post_callback(job)
            # Defer the next dispatch one event so the completing
            # process can resubmit at this instant and claim its
            # quantum continuation before anyone else is dispatched.
            self.sim.call_soon(self._deferred_start)
            return
        self.n_context_switches += 1
        job.proc.state = ProcState.READY
        job.allowed = None  # fresh quantum on its next dispatch
        self._queue.append(job)
        self._start_next()

    def _deferred_start(self) -> None:
        if self._current is None:
            self._start_next()

    def _fold(self, job: Job) -> None:
        """Finish a completion whose posted events are provably
        redundant (see module docstring): with an empty run queue and
        nothing else due at this instant, the callback would be the
        very next event, and ``_deferred_start`` a no-op after it —
        with the queue empty, every :meth:`submit` dispatches its own
        job.  Posting nothing also leaves every other event's relative
        ``(time, seq)`` order as it was."""
        poll = job.poll
        if poll is not None:
            found = poll.check()
            if found is None:
                self._rearm(job)
            else:
                job.callback(job.cb_arg, found)
        elif job.callback is not None:
            if job.cb_arg is None:
                job.callback()
            else:
                job.callback(job.cb_arg)

    def _rearm(self, job: Job) -> None:
        """Resubmit a poll job that found nothing, in place.

        This is :meth:`submit` + :meth:`_start_next` for the process's
        next ``Compute`` of the same size, specialised to the instant
        of a fold: the CPU is idle, the queue empty, and ``_complete``
        has just recorded this process in ``_last_done`` and (when the
        quantum is unexpired) in ``_cont``.  So the continuation credit
        is taken exactly when ``submit`` would take it, the resubmit is
        never a wakeup (no boost, no RNG draw), and the lone job runs
        on the fast path.  The process's ``cpu_job`` still points at
        ``job``, so a kill or inject cancels it as usual.
        """
        cont = self._cont
        if cont is not None:
            job.allowed = self.quantum - cont[2]
            job.used_before = cont[2]
            self._cont = None  # consumed
        else:
            job.allowed = None
            job.used_before = 0.0
        job.remaining = work = job.poll.work
        job.slice_count = 1
        job.boost_time = None
        job.proc.state = ProcState.RUNNING
        self._current = job
        self._slice_start = self.sim.now
        self._slice_long = True
        self._slice_timer = self.sim.schedule(work / self.speed,
                                              self._on_slice_end)

    def _complete(self, job: Job, last_slice_elapsed: float) -> None:
        job.proc.state = ProcState.BLOCKED
        self._last_done = (job.proc, self.sim.now)
        used = last_slice_elapsed
        if job.slice_count == 1:
            used += job.used_before
        if used < self.quantum - _EPS:
            self._cont = (job.proc, self.sim.now, used)
        else:
            self._cont = None

    def _post_callback(self, job: Job) -> None:
        if job.callback is not None:
            # Defer so completion ordering matches event ordering.
            if job.cb_arg is None:
                self.sim.call_soon(job.callback)
            else:
                self.sim._post1(job.callback, job.cb_arg)


class ProcessorSharingCPU(_CPUBase):
    """Idealized fluid sharing: n runnable jobs each progress at speed/n."""

    def __init__(self, sim: Simulator, speed: float, quantum: float = 0.010):
        super().__init__(sim, speed, quantum)
        self._jobs: list[Job] = []
        self._timer: Optional[Timer] = None
        self._last = 0.0

    def submit(self, proc, work: float, callback, cb_arg=None) -> Job:
        self._advance()
        job = Job(proc, work, callback, cb_arg)
        proc.state = ProcState.RUNNING
        self._jobs.append(job)
        self._reschedule()
        return job

    def cancel(self, job: Job) -> None:
        self._advance()
        job.cancelled = True
        if job in self._jobs:
            self._jobs.remove(job)
        self._reschedule()

    def runnable_jobs(self) -> list[Job]:
        return list(self._jobs)

    def _advance(self) -> None:
        now = self.sim.now
        elapsed = now - self._last
        self._last = now
        n = len(self._jobs)
        if elapsed <= 0 or n == 0:
            return
        rate = self.speed / n
        share = elapsed / n
        for job in self._jobs:
            job.remaining = max(0.0, job.remaining - rate * elapsed)
            job.proc.cpu_time += share
        self.busy_time += elapsed

    def _reschedule(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        finite = [j for j in self._jobs if math.isfinite(j.remaining)]
        if not finite:
            return
        n = len(self._jobs)
        rate = self.speed / n
        nxt = min(finite, key=lambda j: j.remaining)
        self._timer = self.sim.schedule(nxt.remaining / rate, self._on_completion)

    def _on_completion(self) -> None:
        self._timer = None
        self._advance()
        done = [j for j in self._jobs if j.remaining <= _EPS * self.speed]
        for job in done:
            self._jobs.remove(job)
            job.proc.state = ProcState.BLOCKED
            if job.callback is not None:
                if job.cb_arg is None:
                    self.sim.call_soon(job.callback)
                else:
                    self.sim._post1(job.callback, job.cb_arg)
        self._reschedule()


def make_cpu(sim: Simulator, discipline: str, speed: float, quantum: float, rng=None):
    """Factory used by :class:`~repro.simcluster.node.Node`."""
    if discipline == "rr":
        return RoundRobinCPU(sim, speed, quantum, rng=rng)
    if discipline == "ps":
        return ProcessorSharingCPU(sim, speed, quantum)
    raise SimulationError(f"unknown CPU discipline {discipline!r}")
