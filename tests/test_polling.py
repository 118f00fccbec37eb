"""Tests for the busy-polling receive mode (2003-era MPICH ch_p4
behavior) — the mechanism behind the paper's node-removal results."""

import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.errors import RankFailedError
from repro.mpi import make_comm, run_spmd
from repro.simcluster import Cluster, Compute, ProcState, Sleep
from repro.simcluster.trace import Tracer


def make_cluster(recv_mode, n=2, quantum=0.010, speed=1e8):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=speed, quantum=quantum),
        network=NetworkSpec(latency=1e-5, bandwidth=1e8,
                            cpu_per_byte=0.0, cpu_per_msg=0.0,
                            recv_mode=recv_mode),
    ))


def test_polling_recv_burns_cpu_while_waiting():
    cluster = make_cluster("polling")
    times = {}

    def program(ep):
        if ep.rank == 0:
            yield Sleep(0.1)  # make the receiver wait 100 ms
            yield from ep.send(1, tag=0, payload="x")
        else:
            _, _ = yield from ep.recv(0, tag=0)
            times["cpu"] = [p for p in ep.comm.sim.processes
                            if p.name == "rank1"][0].cpu_time

    run_spmd(cluster, program)
    # the receiver spun for ~the whole wait
    assert times["cpu"] == pytest.approx(0.1, rel=0.1)


def test_blocking_recv_uses_no_cpu_while_waiting():
    cluster = make_cluster("blocking")
    times = {}

    def program(ep):
        if ep.rank == 0:
            yield Sleep(0.1)
            yield from ep.send(1, tag=0, payload="x")
        else:
            _, _ = yield from ep.recv(0, tag=0)
            times["cpu"] = [p for p in ep.comm.sim.processes
                            if p.name == "rank1"][0].cpu_time

    run_spmd(cluster, program)
    assert times["cpu"] < 0.001


def test_polling_delivery_correctness():
    """Payloads and ordering are identical to blocking mode."""
    for mode in ("blocking", "polling"):
        cluster = make_cluster(mode)

        def program(ep):
            if ep.rank == 0:
                for i in range(5):
                    yield from ep.send(1, tag=3, payload=i)
            else:
                got = []
                for _ in range(5):
                    v, _ = yield from ep.recv(0, tag=3)
                    got.append(v)
                assert got == list(range(5))

        run_spmd(cluster, program)


def test_polling_on_loaded_node_delays_message_notice():
    """The Figure 6 mechanism: with k competing processes, a polling
    receiver notices an arrived message only when it next gets the
    CPU — a multi-quantum stall that a blocking receiver (with wakeup
    boost) does not suffer."""
    send_times = [0.173, 0.331, 0.489, 0.642, 0.817, 0.971]
    notice = {}
    for mode in ("blocking", "polling"):
        cluster = make_cluster(mode)
        for _ in range(3):
            cluster.nodes[1].start_competing()
        delays = []

        def program(ep):
            sim = ep.comm.sim
            if ep.rank == 0:
                for t_send in send_times:
                    yield Sleep(t_send - sim.now)
                    yield from ep.send(1, tag=0, payload="x")
            else:
                # burn CPU first so the EMA share is realistic
                yield Compute(1e6)
                for t_send in send_times:
                    _, _ = yield from ep.recv(0, tag=0)
                    delays.append(sim.now - t_send)

        run_spmd(cluster, program)
        notice[mode] = sum(delays) / len(delays)
    assert notice["polling"] > notice["blocking"]
    # average stall is on the order of the competing quanta ahead of us
    assert notice["polling"] > 0.005


def test_polling_sub_quantum_chunks_bound_overshoot():
    """On an unloaded node the polling loop notices a message within
    one poll chunk (quantum/100), not a full quantum."""
    cluster = make_cluster("polling")
    arrival = {}

    def program(ep):
        sim = ep.comm.sim
        if ep.rank == 0:
            yield Sleep(0.0501)
            yield from ep.send(1, tag=0, payload="x")
        else:
            _, _ = yield from ep.recv(0, tag=0)
            arrival["t"] = sim.now

    run_spmd(cluster, program)
    assert arrival["t"] - 0.0501 < 0.001


# ---------------------------------------------------------------------------
# folded poll chunks (simcluster.cpu): a lone poller's CPU runs the match
# check in place at each chunk boundary.  Every test below runs twice —
# folded, and under the unfolded oracle (the ``fold_oracle`` fixture) —
# and the two runs must agree exactly.  The cluster is dyadic: one poll
# chunk lasts D = 2**-14 s exactly, so chunk boundaries, sleeps and
# wire latencies land on exactly representable instants and a message
# can arrive *at* a boundary, not merely near one.
# ---------------------------------------------------------------------------

D = 2.0 ** -14


def dyadic_cluster(n, latency=D):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=2.0 ** 20, quantum=100 * D),
        network=NetworkSpec(latency=latency, bandwidth=1e8,
                            cpu_per_byte=0.0, cpu_per_msg=0.0,
                            recv_mode="polling"),
    ))


def cpu_times(cluster):
    return [(p.name, p.cpu_time.hex()) for p in cluster.sim.processes]


@pytest.mark.parametrize("send_at, latency", [
    # the delivery is queued long before the boundary's slice timer, so
    # it runs first and the folded boundary's check finds the message
    (5 * D, 20 * D),
    # queued after the slice timer: at the boundary the delivery is
    # still due at this instant, so the CPU must not fold past it
    (24.5 * D, 0.5 * D),
])
def test_message_at_chunk_boundary_is_noticed_there(fold_oracle, send_at,
                                                    latency):
    arrive = send_at + latency
    assert arrive == 25 * D  # exactly the 25th chunk boundary

    def run():
        cluster = dyadic_cluster(2, latency)
        seen = {}

        def program(ep):
            sim = ep.comm.sim
            if ep.rank == 0:
                yield Sleep(send_at)
                yield from ep.send(1, tag=0, payload="x", nbytes=0)
            else:
                payload, _ = yield from ep.recv(0, tag=0)
                seen["notice"] = (payload, sim.now)

        run_spmd(cluster, program)
        return seen["notice"], cpu_times(cluster), cluster.sim.n_events

    folded, unfolded = fold_oracle(run)
    assert folded[0] == unfolded[0] == ("x", arrive)
    assert folded[1] == unfolded[1]
    assert folded[2] < unfolded[2]


def test_coincident_lone_pollers_resume_in_order(fold_oracle):
    # two identical pollers on their own nodes share every chunk
    # boundary; their messages land on the same boundaries, so each
    # notice is a same-instant tie the CPUs must leave to the posted
    # event order
    def run():
        cluster = dyadic_cluster(3)
        order = []

        def program(ep):
            sim = ep.comm.sim
            if ep.rank == 0:
                for t in (7 * D, 19 * D, 40 * D):
                    yield Sleep(t - sim.now)
                    for dst in (2, 1):
                        yield from ep.send(dst, tag=0, payload=t, nbytes=0)
            else:
                for _ in range(3):
                    t, _ = yield from ep.recv(0, tag=0)
                    order.append((ep.rank, t, sim.now))

        run_spmd(cluster, program)
        return order, cpu_times(cluster), cluster.sim.n_events

    folded, unfolded = fold_oracle(run)
    assert folded[0] == unfolded[0]
    assert folded[1] == unfolded[1]
    assert folded[2] < unfolded[2]
    # both pollers noticed each round at the same instant
    by_round = {}
    for rank, t, now in folded[0]:
        by_round.setdefault(t, set()).add(now)
    assert all(len(times) == 1 for times in by_round.values())


class _Interrupt(Exception):
    pass


@pytest.mark.parametrize("how", ["kill", "inject"])
def test_kill_or_inject_mid_fold_fires_done_once(fold_oracle, how):
    # a process struck while its Compute is in flight must have that
    # CPU job cancelled, or the stale completion resumes a closed
    # generator and fires ``done_signal`` twice.  A folded poller never
    # re-enters the kernel between chunks, so its ``cpu_job`` must keep
    # pointing at the job its CPU re-arms in place.
    def run():
        cluster = dyadic_cluster(2)
        sim = cluster.sim
        comm = make_comm(cluster)
        cpu = cluster.nodes[1].cpu

        def sender(ep):
            yield Sleep(1000 * D)  # long after the poller is gone
            yield from ep.send(1, tag=0, payload="late", nbytes=0)

        def poller(ep):
            try:
                yield from ep.recv(0, tag=0)
            except _Interrupt:
                return "interrupted"
            return "received"

        p0 = sim.spawn(sender(comm.endpoint(0)), name="rank0",
                       node=cluster.nodes[0])
        p1 = sim.spawn(poller(comm.endpoint(1)), name="rank1",
                       node=cluster.nodes[1])
        fired = []
        p1.done_signal.add_waiter(fired.append)
        jobs = []

        def sample():
            # between chunk boundaries: the poller's job is the CPU's
            # only job, whether fresh or re-armed
            assert p1.cpu_job is not None
            assert cpu.runnable_jobs() == [p1.cpu_job]
            jobs.append(p1.cpu_job)

        for k in range(1, 40):
            sim.schedule((k + 0.5) * D, sample)

        def strike():
            if how == "kill":
                sim.kill(p1)
            else:
                sim.inject(p1, _Interrupt())

        sim.schedule(40.25 * D, strike)
        sim.run_all([p0, p1], tolerate=lambda p: p is p1)
        distinct_jobs = len({id(j) for j in jobs})
        return ((fired, p1.state, p1.result, p1.cpu_job,
                 cpu.runnable_jobs(), p1.cpu_time.hex(), sim.now),
                distinct_jobs, sim.n_events)

    folded, unfolded = fold_oracle(run)
    assert folded[0] == unfolded[0]
    fired, state, result, cpu_job, runnable, _, _ = folded[0]
    assert len(fired) == 1
    assert state == (ProcState.FAILED if how == "kill" else ProcState.DONE)
    assert result == (None if how == "kill" else "interrupted")
    assert cpu_job is None and runnable == []
    # folded: one job re-armed in place; unfolded: one job per chunk
    assert folded[1] == 1
    assert unfolded[1] == 39
    assert folded[2] < unfolded[2]


def test_poller_whose_source_dies_fails_at_same_time(fold_oracle):
    def run():
        cluster = dyadic_cluster(2)
        sim = cluster.sim
        comm = make_comm(cluster)

        def victim(ep):
            yield Sleep(1000 * D)

        def poller(ep):
            try:
                yield from ep.recv(0, tag=0)
            except RankFailedError as err:
                return err.rank, sim.now
            return None

        p0 = sim.spawn(victim(comm.endpoint(0)), name="rank0",
                       node=cluster.nodes[0])
        p1 = sim.spawn(poller(comm.endpoint(1)), name="rank1",
                       node=cluster.nodes[1])
        comm.watch_rank(0, p0)
        sim.schedule(30.25 * D, lambda: sim.kill(p0))
        sim.run_all([p0, p1], tolerate=lambda p: p is p0)
        return (p1.result, p1.cpu_time.hex(),
                cluster.nodes[1].cpu.runnable_jobs(), sim.n_events)

    folded, unfolded = fold_oracle(run)
    assert folded[:3] == unfolded[:3]
    # the death lands mid-chunk; the next boundary's check raises
    assert folded[0] == (0, 31 * D)
    assert folded[3] < unfolded[3]


@pytest.mark.parametrize("loaded", [False, True])
def test_traced_slices_fold_invariant(fold_oracle, loaded):
    # simcluster.trace.Tracer wraps each CPU's _account_current per
    # instance; folded slice ends must go through that wrapper too
    def run():
        cluster = dyadic_cluster(2)
        if loaded:
            cluster.nodes[1].start_competing()
        tracer = Tracer(cluster).attach()

        def program(ep):
            sim = ep.comm.sim
            if ep.rank == 0:
                for t in (30 * D, 250.5 * D, 700 * D):
                    yield Sleep(t - sim.now)
                    yield from ep.send(1, tag=0, payload=None, nbytes=0)
            else:
                for _ in range(3):
                    yield from ep.recv(0, tag=0)
                    yield Compute(3000.0)

        run_spmd(cluster, program)
        tracer.detach()
        return tracer.slices, cpu_times(cluster), cluster.sim.n_events

    folded, unfolded = fold_oracle(run)
    assert folded[0] == unfolded[0]
    assert folded[1] == unfolded[1]
    assert any(s.proc == "rank1" for s in folded[0])
    assert folded[2] < unfolded[2]
