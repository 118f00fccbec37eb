"""Probes the benchmark attaches to the simulator from outside.

Nothing under ``src/`` knows about them: every probe replaces a public
entry point of a layer (a class attribute or a module attribute) with a
wrapper and puts the original back on :meth:`Patcher.restore`.

Two kinds:

* :class:`Clock` hooks are always on.  They stamp when the simulator
  starts running, every call of the cycle-end hook (each rank's, or the
  farm master's) and of the :data:`TICKS` entry points, which of those
  stamps ends a global phase cycle, and which clusters a case built.
  They cost a few calls per rank cycle.  With ``reference`` on, each
  cycle-end stamp first runs :func:`reference_chunk`, a fixed piece of
  interpreter work, and times it; the clock leaves that time out of the
  host time it reports.
* :class:`Tracer` wraps every entry point listed in :data:`LAYERS` and
  charges host time to the innermost open span.  A generator entry
  point is timed per resumption, so a rank blocked in ``recv`` charges
  nothing while the kernel runs other ranks.  Because every instant is
  charged to exactly one layer (``other`` when no span is open), the
  self times of a window sum to its length.
"""

from __future__ import annotations

import functools
import gc
import heapq
import importlib
import sys
import types
from array import array
from time import perf_counter

#: layer -> entry points the workloads reach, as (module, class or None,
#: attribute names).  Calls into these are the layer's spans.
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "kernel": [
        ("repro.simcluster.kernel", "Simulator", ("run",)),
    ],
    "cpu": [
        ("repro.simcluster.cpu", "RoundRobinCPU",
         ("submit", "cancel", "_on_slice_end", "_deferred_start")),
    ],
    "net": [
        ("repro.simcluster.network", "Network",
         ("transmit", "transmit_many")),
    ],
    "p2p": [
        ("repro.mpi.comm", "Endpoint",
         ("send", "recv", "sendrecv", "isend", "irecv", "iprobe")),
        ("repro.mpi.comm", "Request", ("wait", "test")),
        ("repro.mpi.comm", "SimComm", ("_deliver", "mark_rank_dead")),
    ],
    "coll": [
        ("repro.mpi.collectives", None,
         ("barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
          "allgather", "allgather_dissemination", "alltoallv")),
    ],
    "rma": [
        ("repro.mpi.rma", "RmaHandle",
         ("lock", "unlock", "put", "get", "accumulate", "fetch_and_op",
          "compare_and_swap")),
        ("repro.mpi.rma", "Window", ("local", "_on_rank_dead")),
    ],
    "runtime": [
        ("repro.core.runtime", "DynMPI",
         ("begin_cycle", "end_cycle", "compute", "send_rel", "recv_rel",
          "sendrecv_rel", "allreduce_active", "allgather_active",
          "bcast_active", "global_reduce", "my_bounds", "nn_neighbors",
          "register_dense", "register_sparse", "init_phase",
          "add_array_access", "commit")),
        ("repro.core.runtime", "DynMPIJob", ("launch",)),
    ],
    "adapt": [
        ("repro.core.runtime", "DynMPI",
         ("_enter_grace", "_redistribute", "_apply_bounds", "_consider_drop",
          "_physical_drop", "_logical_drop")),
        ("repro.core.balance", None,
         ("successive_balance", "closed_form_shares", "predict_times")),
        ("repro.core.redistribute", None,
         ("needed_map", "plan_sends", "redistribute")),
        ("repro.core.removal", None, ("evaluate_drop",)),
        ("repro.core.timing", None, ("estimate_unloaded_times",)),
    ],
    "dplane": [
        ("repro._intervals", "IntervalSet",
         ("union", "intersect", "subtract", "clip", "issuperset",
          "isdisjoint", "to_rows", "from_rows", "from_range", "from_bounds",
          "coerce", "span")),
        ("repro.dmem.dense", "ProjectedArray",
         ("hold", "drop", "held_rows", "held_intervals", "row", "set_row",
          "block", "set_block", "pack", "unpack", "retarget")),
        ("repro.dmem.sparse", "SparseMatrix",
         ("hold", "drop", "held_rows", "held_intervals", "row_nnz",
          "row_wire_nbytes", "get", "set", "set_row_items", "row_items",
          "pack", "unpack", "retarget", "csr_rows")),
    ],
    "app": [
        ("repro.apps.base", None,
         ("exchange_halo", "halo_start", "halo_finish", "collect_rows")),
        ("repro.apps.jacobi", None, ("jacobi_program",)),
        ("repro.apps.cg", None, ("cg_program",)),
        ("repro.apps.kernels", None,
         ("jacobi_row_update", "make_cg_rows")),
    ],
    "farm": [
        ("repro.farm.runtime", None,
         ("run_farm", "_farm_master", "_farm_worker", "_rma_phase",
          "_chunk_work", "_chunk_results")),
        ("repro.farm.jobs", "JobQueue", ("take", "extend", "requeue")),
        ("repro.farm.policies", None, ("make_policy",)),
    ],
    "ckpt": [
        ("repro.core.runtime", "DynMPI", ("_maybe_checkpoint",)),
        ("repro.resilience.checkpoint", None,
         ("snapshot", "checkpoint_exchange", "holder_for")),
        ("repro.resilience.checkpoint", "CheckpointStore",
         ("put", "get", "discard")),
    ],
    "sysmon": [
        ("repro.sysmon.dmpi_ps", "DmpiPs",
         ("_daemon", "_take_sample", "load", "loads", "app_alive",
          "last_sample_time")),
        ("repro.sysmon.hrtimer", "HrTimer", ("read", "interval")),
        ("repro.sysmon.proctime", "ProcClock", ("read", "read_exact")),
    ],
    "san": [
        ("repro.analysis.sanitizer", "CommSanitizer",
         ("mark_dead", "on_send", "on_recv_posted", "on_match", "on_block",
          "on_unblock", "kernel_block_hook", "check_deadlock",
          "on_rma_lock_request", "on_rma_lock_granted", "on_rma_unlock",
          "on_rma_op", "on_collective", "finalize")),
        ("repro.analysis.plancheck", None,
         ("build_plan", "verify_plan", "verify_transition")),
    ],
}

#: (module, class or None, attribute) -> the count metric its calls feed.
#: A layer listed in ``CALL_COUNTS`` counts every call into the layer.
COUNTED = {
    ("repro.simcluster.cpu", "RoundRobinCPU", "submit"): "cpu.submits",
    ("repro.core.runtime", "DynMPI", "end_cycle"): "runtime.rank_cycles",
    ("repro.sysmon.dmpi_ps", "DmpiPs", "_take_sample"): "sysmon.samples",
    ("repro.analysis.sanitizer", "CommSanitizer", "check_deadlock"):
        "san.deadlock_checks",
    **{("repro.mpi.comm", "Endpoint", name): "p2p.calls"
       for name in ("send", "recv", "sendrecv", "isend", "irecv", "iprobe")},
    **{("repro.mpi.rma", "RmaHandle", name): "rma.ops"
       for name in ("lock", "unlock", "put", "get", "accumulate",
                    "fetch_and_op", "compare_and_swap")},
}
CALL_COUNTS = {"coll": "coll.calls", "adapt": "adapt.calls",
               "dplane": "dplane.calls", "ckpt": "ckpt.calls"}

#: entry points whose callable arguments are application code (the
#: per-row work and execution callbacks of ``DynMPI.compute``); those
#: callbacks run as spans of the named layer
CALLBACKS = {("repro.core.runtime", "DynMPI", "compute"): "app"}

OTHER = "other"

#: entry points the clock stamps besides the cycle ends, to cut long
#: stretches of host time between them: each rank's compute request,
#: each message put on the wire (a cycle's halo and control traffic,
#: with the sanitizer's checks between messages), and each row the CG
#: app builds before its first cycle (0.1 s per rank)
TICKS = [
    ("repro.core.runtime", "DynMPI", "compute"),
    ("repro.simcluster.network", "Network", "transmit"),
    ("repro.apps.kernels", None, "make_cg_rows"),
]


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` in every ``repro`` module that
        imported it by name, so ``from x import fn`` call sites see it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def _wrap_entry(owner, name: str, patcher: Patcher, make) -> None:
    """Wrap ``owner.name`` (a module function or a method, static or
    class methods included) with ``make(function)``."""
    raw = owner.__dict__[name]
    if isinstance(raw, (staticmethod, classmethod)):
        patcher.set(owner, name, type(raw)(make(raw.__func__)))
    elif isinstance(owner, types.ModuleType):
        patcher.replace_function(raw, make(raw))
    else:
        patcher.set(owner, name, make(raw))


def _resolve(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


# ---------------------------------------------------------------------------
# always-on clock hooks
# ---------------------------------------------------------------------------

def _accumulator():
    total = 0.0
    while True:
        total = total * 0.5 + (yield total)


def reference_chunk(n: int = 40) -> None:
    """A fixed piece of interpreter work shaped like a simulator step
    (heap pushes and pops, dict updates, generator resumptions), which
    calls nothing under ``src/``; about 30 us on a 2.1 GHz Xeon core.
    The cyclic collector is held off so the program's heap cannot add a
    collection to it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        counts: dict[int, int] = {}
        acc = _accumulator()
        next(acc)
        for i in range(n):
            heapq.heappush(heap, ((i * 7919) % 97 * 1e-3, i))
            counts[i & 15] = counts.get(i & 15, 0) + 1
            acc.send(float(i))
        while heap:
            heapq.heappop(heap)
    finally:
        if collecting:
            gc.enable()


class Clock:
    """Per-case stamps: simulator start and global cycle ends.

    Times are on the clock's own time line, :meth:`now`, which leaves
    out the reference chunks."""

    def __init__(self) -> None:
        #: run :func:`reference_chunk` at every cycle-end stamp
        self.reference = False
        #: host seconds of every reference chunk of the current case,
        #: one per cycle-end stamp, run just before it
        self.chunks = array("d")
        self._excluded = 0.0
        self.mode = "end_cycle"
        self.sim_start: float | None = None
        #: host time of every stamped call (cycle ends and ``TICKS``),
        #: in call order; the simulation is deterministic, so the order
        #: repeats between runs
        self.stamps = array("d")
        #: global cycle -> index in ``stamps`` of the stamp that ended it
        self.cycle_end: dict[int, int] = {}
        self.clusters: list = []
        #: called once per case when the simulator starts running
        self.on_sim_start = None

    def begin_case(self, mode: str) -> None:
        self.mode = mode
        self.sim_start = None
        self.stamps = array("d")
        self.chunks = array("d")
        self.cycle_end = {}
        self.clusters = []

    def now(self) -> float:
        return perf_counter() - self._excluded

    def stamp(self, chunk: bool = True) -> int:
        """Stamp a hook call, with a reference chunk first if ``chunk``;
        returns the stamp's index."""
        if chunk and self.reference:
            t0 = perf_counter()
            reference_chunk()
            seconds = perf_counter() - t0
            self.chunks.append(seconds)
            self._excluded += seconds
        self.stamps.append(self.now())
        return len(self.stamps) - 1

    def segments(self, end: float):
        """The case's host time from the simulator start to ``end``, cut
        at every stamp: ``(seconds, spans)``.  ``seconds[i]`` ends at
        stamp ``i``; the gap between consecutive global cycle ends is
        ``sum(seconds[lo:hi])`` for each ``(lo, hi)`` in ``spans``."""
        edges = array("d", [self.sim_start])
        edges.extend(self.stamps)
        edges.append(end)
        seconds = array("d", (b - a for a, b in zip(edges, edges[1:])))
        cycles = sorted(self.cycle_end)
        spans = [(self.cycle_end[a] + 1, self.cycle_end[b] + 1)
                 for a, b in zip(cycles, cycles[1:]) if b == a + 1]
        return seconds, spans

    def install(self, patcher: Patcher) -> None:
        from repro.core.runtime import DynMPI
        from repro.simcluster.cluster import Cluster
        from repro.simcluster.kernel import Simulator

        clock = self
        run = Simulator.run
        end_cycle = DynMPI.end_cycle
        notify_cycle = Cluster.notify_cycle
        cluster_init = Cluster.__init__

        @functools.wraps(run)
        def run_hook(sim, *args, **kwargs):
            if clock.sim_start is None:
                clock.sim_start = clock.now()
                if clock.on_sim_start is not None:
                    clock.on_sim_start()
            return run(sim, *args, **kwargs)

        @functools.wraps(end_cycle)
        def end_cycle_hook(ctx):
            if clock.mode == "end_cycle":
                index = clock.stamp()
                # the last active rank to enter a cycle's end ends it
                if ctx.active:
                    clock.cycle_end[ctx.cycle] = index
            return end_cycle(ctx)

        @functools.wraps(notify_cycle)
        def notify_cycle_hook(cluster, cycle):
            if clock.mode == "notify_cycle":
                clock.cycle_end[cycle] = clock.stamp()
            return notify_cycle(cluster, cycle)

        @functools.wraps(cluster_init)
        def cluster_init_hook(cluster, *args, **kwargs):
            cluster_init(cluster, *args, **kwargs)
            clock.clusters.append(cluster)

        def tick_hook(fn):
            @functools.wraps(fn)
            def tick(*args, **kwargs):
                clock.stamp(chunk=False)
                return fn(*args, **kwargs)
            return tick

        for module, cls, name in TICKS:
            _wrap_entry(_resolve(module, cls), name, patcher, tick_hook)
        patcher.set(Simulator, "run", run_hook)
        patcher.set(DynMPI, "end_cycle", end_cycle_hook)
        patcher.set(Cluster, "notify_cycle", notify_cycle_hook)
        patcher.set(Cluster, "__init__", cluster_init_hook)


# ---------------------------------------------------------------------------
# the layer tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Charges host time to the innermost open layer span."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys([*LAYERS, OTHER], 0.0)
        self.counts: dict[str, int] = dict.fromkeys(
            [*set(COUNTED.values()), *CALL_COUNTS.values()], 0)
        self._stack = [OTHER]
        self._t = perf_counter()

    def reset_counts(self) -> None:
        for name in self.counts:
            self.counts[name] = 0

    def snapshot(self) -> dict[str, float]:
        """Self seconds so far, charged up to this instant."""
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._t
        self._t = now
        return dict(self.self_s)

    def _make(self, layer: str, counter: str | None,
              callback_layer: str | None = None):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        tracer = self

        def enter() -> None:
            now = perf_counter()
            self_s[stack[-1]] += now - tracer._t
            stack.append(layer)
            tracer._t = now

        def leave() -> None:
            now = perf_counter()
            self_s[stack.pop()] += now - tracer._t
            tracer._t = now

        def resumed(gen):
            # drive ``gen`` one step per resumption inside the span
            value, error = None, None
            while True:
                enter()
                try:
                    out = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    leave()
                    return stop.value
                except BaseException:
                    leave()
                    raise
                leave()
                error = None
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    value, error = None, exc

        span_callback = (None if callback_layer is None
                         else self._make(callback_layer, None))

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if span_callback is not None:
                    args = [span_callback(a) if callable(a) else a
                            for a in args]
                    kwargs = {k: span_callback(v) if callable(v) else v
                              for k, v in kwargs.items()}
                if counter is not None:
                    counts[counter] += 1
                enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if type(result) is types.GeneratorType:
                    return resumed(result)
                return result
            return traced

        return make

    def install(self, patcher: Patcher) -> None:
        for layer, entries in LAYERS.items():
            for module, cls, names in entries:
                owner = _resolve(module, cls)
                for name in names:
                    key = (module, cls, name)
                    counter = COUNTED.get(key, CALL_COUNTS.get(layer))
                    _wrap_entry(owner, name, patcher,
                                self._make(layer, counter, CALLBACKS.get(key)))
