"""Folded CPU completions are observationally invisible.

A round-robin CPU whose job completes with an empty run queue, while
the kernel has nothing else due at that instant, runs the completion
callback inline instead of posting it (and the no-op deferred
dispatch) — and re-arms a lone busy-poll chunk in place.  The
*unfolded oracle* (the ``fold_oracle`` fixture) patches the kernel query
(:meth:`Simulator.due_now`) to always answer "something else is due",
which restores the posted-event stream of the scheduler before
folding.  Every scenario here runs both ways and must agree byte for
byte: the dynscope JSONL export, every process's CPU time and the
run's digest (simulated times as exact float bits).  Only the kernel
event count may differ, and it must drop — otherwise the test would
pass without ever taking the folded path.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.config import (
    ClusterSpec, NetworkSpec, NodeSpec, ResilienceSpec, RuntimeSpec,
)
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.obs.export import jsonl_text
from repro.obs.scenario import RemovalScenario, run_removal
from repro.resilience import node_crash
from repro.simcluster import Cluster


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cpu_times(cluster) -> list:
    procs = [(p.name, p.cpu_time.hex()) for p in cluster.sim.processes]
    nodes = [(n.cpu.busy_time.hex(), n.cpu.n_context_switches,
              n.cpu.n_wake_boosts) for n in cluster.nodes]
    return [procs, nodes]


def app_digest(result, cluster) -> str:
    return _sha({
        "now": cluster.sim.now.hex(),
        "wall": float(result.wall_time).hex(),
        "cycle_times": [[float(t).hex() for t in ct]
                        for ct in result.cycle_times],
        "events": [(ev.kind, ev.cycle, float(ev.time).hex(),
                    float(ev.duration).hex()) for ev in result.events],
        "bounds": [list(b) for b in result.bounds],
    })


def first_difference(a: str, b: str):
    """The first differing line of two exports (a short failure
    message: a full diff of two megabyte traces takes minutes)."""
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return i, x, y
    return "lengths differ", len(a), len(b)


def assert_equivalent(folded, unfolded):
    (f_text, f_cpu, f_digest, f_events) = folded
    (u_text, u_cpu, u_digest, u_events) = unfolded
    assert _sha(f_text) == _sha(u_text), first_difference(f_text, u_text)
    assert f_cpu == u_cpu
    assert f_digest == u_digest
    assert f_events < u_events, (f_events, u_events)


def removal_run(scenario):
    def run():
        result, cluster = run_removal(scenario, observe=True)
        return (jsonl_text(cluster.obs), cpu_times(cluster),
                app_digest(result, cluster), cluster.sim.n_events)
    return run


@pytest.fixture
def clean_env(monkeypatch):
    for var in ("DYNMPI_PERTURB", "DYNMPI_SANITIZE", "DYNMPI_KERNEL"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.mark.parametrize("n_nodes", [4, 16])
def test_removal_scenario_fold_equivalent(clean_env, fold_oracle, n_nodes):
    # the canonical removal run (busy-polling Ultra-Sparc ranks), the
    # same scenario `python -m repro.obs export --nodes N` writes
    folded, unfolded = fold_oracle(
        removal_run(RemovalScenario(n_nodes=n_nodes)))
    assert_equivalent(folded, unfolded)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_removal_fold_equivalent_under_perturbation(clean_env, fold_oracle,
                                                    seed):
    clean_env.setenv("DYNMPI_PERTURB", str(seed))
    folded, unfolded = fold_oracle(
        removal_run(RemovalScenario(n_nodes=4)))
    assert_equivalent(folded, unfolded)


@pytest.mark.parametrize("engine", ["calendar", "reference"])
def test_removal_fold_equivalent_sanitized(clean_env, fold_oracle, engine):
    clean_env.setenv("DYNMPI_SANITIZE", "1")
    clean_env.setenv("DYNMPI_KERNEL", engine)
    folded, unfolded = fold_oracle(
        removal_run(RemovalScenario(n_nodes=4, n=96, iters=14,
                                    load_cycle=4)))
    assert_equivalent(folded, unfolded)


SPEED = 1e8
N_ROWS = 64
ROW_WORK = SPEED * 0.04 / (N_ROWS // 4)


def _crash_program(ctx, n_cycles, row_work):
    A = ctx.register_dense("A", (N_ROWS, 8))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=64))
    ctx.add_array_access(1, "A", AccessMode.READWRITE, lo_off=-1, hi_off=1)
    ctx.commit()
    s, e = ctx.my_bounds()
    for g in range(s, e + 1):
        A.row(g)[:] = g

    def work_of(s, e):
        return np.full(e - s + 1, row_work)

    for _t in range(n_cycles):
        yield from ctx.begin_cycle()
        if ctx.participating():
            yield from ctx.compute(1, work_of)
        yield from ctx.end_cycle()
    return ctx.my_bounds()


def test_crash_recovery_fold_equivalent(clean_env, fold_oracle):
    # a node crash mid-run with polling receives: heartbeat detection,
    # buddy-checkpoint replay and the involuntary removal all replay
    # identically with and without folding
    def run():
        cluster = Cluster(ClusterSpec(
            n_nodes=4,
            node=NodeSpec(speed=SPEED),
            network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                                cpu_per_byte=0.4, cpu_per_msg=3000.0,
                                recv_mode="polling"),
            observe=True,
        ))
        cluster.install_failure_script(node_crash(2, at_cycle=10))
        job = DynMPIJob(cluster, RuntimeSpec(
            grace_period=2, post_redist_period=3, allow_removal=True,
            drop_mode="physical", allow_rejoin=True, daemon_interval=0.01,
            resilience=ResilienceSpec(heartbeat_timeout=0.055),
        ))
        results = job.launch(_crash_program, args=(20, ROW_WORK))
        digest = _sha({"now": cluster.sim.now.hex(),
                       "results": [list(r) if r is not None else None
                                   for r in results]})
        return (jsonl_text(cluster.obs), cpu_times(cluster), digest,
                cluster.sim.n_events)

    folded, unfolded = fold_oracle(run)
    assert_equivalent(folded, unfolded)
