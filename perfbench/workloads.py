"""The benchmark's workloads: recipes, output digests and checks.

A workload is a list of cases run back to back; one pass over the list
is one timed sample of ``host_s``.  Every case pins ``sanitize``,
``observe``, ``perturb`` and the kernel engine in its ``ClusterSpec``,
so no ``DYNMPI_*`` environment switch changes what is measured.

Each case reduces its simulated outputs to a digest (sha256 over the
exact float bits) and checks invariants that hold for every seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable

import repro.apps as apps
import repro.farm as farm
from repro.config import (
    ClusterSpec,
    ResilienceSpec,
    RuntimeSpec,
    pentium_cluster,
    ultrasparc_cluster,
)
from repro.resilience import CycleFault, FailureScript
from repro.simcluster import Cluster, CycleTrigger, LoadScript, single_competitor

#: the seed whose digests ``digests.json`` must hold
DEFAULT_SEED = 0


def _pin(spec: ClusterSpec, *, sanitize: bool) -> ClusterSpec:
    """Set every environment-deferring switch of the cluster."""
    return replace(spec, sanitize=sanitize, observe=False, perturb=None,
                   kernel="calendar")


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _sha(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Case:
    """One simulator run inside a workload pass.

    ``clock`` names the hook that stamps global cycle ends:
    ``"end_cycle"`` (the last active rank entering ``DynMPI.end_cycle``)
    or ``"notify_cycle"`` (the farm master's ``Cluster.notify_cycle``).
    """

    name: str
    kind: str                       # "spmd" or "farm"
    cycles: int                     # global cycles one run must complete
    clock: str
    run: Callable[[], Any]
    recipe: dict
    #: the workload's own invariants beyond the per-kind ones
    expect: Callable[[Any], list[str]] = lambda result: []


# ---------------------------------------------------------------------------
# SPMD cases (Dyn-MPI runtime over an application)
# ---------------------------------------------------------------------------

def _spmd_case(name: str, cluster_spec: ClusterSpec, program: str, cfg,
               *, spec: RuntimeSpec, adaptive: bool,
               competitor_cycle: int | None, n_cp: int = 1,
               expect=lambda result: []) -> Case:
    """``n_cp`` competing processes land on node 0 at
    ``competitor_cycle`` (None: a dedicated cluster)."""

    def run():
        # a load script is consumed by the run it is installed in
        load = None if competitor_cycle is None else single_competitor(
            0, start_cycle=competitor_cycle, count=n_cp)
        # resolved at call time, so a traced run sees the wrapped program
        return apps.run_program(Cluster(cluster_spec), getattr(apps, program),
                                cfg, spec=spec, adaptive=adaptive,
                                load_script=load)

    recipe = {"cluster": repr(cluster_spec), "program": program,
              "cfg": repr(cfg), "spec": repr(spec), "adaptive": adaptive,
              "competitors": (competitor_cycle, n_cp)}
    return Case(name, "spmd", cfg.iters, "end_cycle", run, recipe, expect)


def spmd_digest(result) -> str:
    """Sim wall time, per-rank cycle times, adaptation events and final
    bounds of one run."""
    events = [(ev.kind, ev.cycle, float(ev.time).hex(),
               float(ev.duration).hex()) for ev in result.events]
    return _sha({
        "wall": float(result.wall_time).hex(),
        "cycle_times": [_hexes(ct) for ct in result.cycle_times],
        "events": events,
        "bounds": [list(b) for b in result.bounds],
    })


def _spmd_problems(case: Case, result) -> list[str]:
    problems = []
    finished = [ctx.cycle for ctx in result.job.contexts]
    if any(c != case.cycles - 1 for c in finished):
        problems.append(f"ranks stopped at cycles {sorted(set(finished))}, "
                        f"expected {case.cycles - 1}")
    ran = [len(ct) for ctx, ct in zip(result.job.contexts, result.cycle_times)
           if ctx.active]
    if not ran or any(n != case.cycles for n in ran):
        problems.append(f"active ranks timed {sorted(set(ran))} cycles, "
                        f"expected {case.cycles}")
    return problems + case.expect(result)


def _redistributed_and_dropped(result) -> list[str]:
    out = []
    if result.n_redistributions < 1:
        out.append("no redistribution")
    if result.n_drops < 1:
        out.append("no node drop")
    return out


def removal_polling(seed: int) -> list[Case]:
    """The canonical removal scenario at 32 Ultra-Sparc ranks."""
    n_nodes = 32
    spec = RuntimeSpec(
        allow_removal=True, drop_margin=1e-9, post_redist_period=5,
        daemon_interval=0.002,
        resilience=ResilienceSpec(checkpoint_interval=6),
    )
    cfg = apps.JacobiConfig(n=4 * n_nodes, iters=101, materialized=False)
    cluster = _pin(ultrasparc_cluster(n_nodes, seed=seed), sanitize=False)
    return [_spmd_case("removal", cluster, "jacobi_program", cfg, spec=spec,
                       adaptive=True, competitor_cycle=8, n_cp=2,
                       expect=_redistributed_and_dropped)]


def cg_sparse(seed: int) -> list[Case]:
    """The Figure 4 CG cell at 8 Pentium nodes, all three variants."""
    n_nodes = 8
    cfg = apps.CGConfig(n=14000, iters=75, exact_math=False)
    spec = RuntimeSpec(allow_removal=False)
    cluster = _pin(pentium_cluster(n_nodes, seed=seed), sanitize=False)
    cases = []
    for variant in ("dedicated", "noadapt", "dynmpi"):
        cases.append(_spmd_case(
            f"cg-{variant}", cluster, "cg_program", cfg, spec=spec,
            adaptive=(variant == "dynmpi"),
            competitor_cycle=None if variant == "dedicated" else 10))
    return cases


def jacobi64_sanitized(seed: int) -> list[Case]:
    """The Figure 4 Jacobi recipe at 64 Pentium nodes, sanitizer on.

    A cycle takes about 11 simulated ms here, so the paper's 1 Hz
    ``dmpi_ps`` would notice the competitor 30 to 70 cycles late,
    depending on the seed's sampling phase, and the run's cost with it.
    At 10 ms every seed redistributes at cycle 15.
    """
    n_nodes = 64
    cfg = apps.JacobiConfig(n=2048, iters=101, materialized=False)
    spec = RuntimeSpec(allow_removal=False, daemon_interval=0.01)
    cluster = _pin(pentium_cluster(n_nodes, seed=seed), sanitize=True)
    return [_spmd_case("jacobi64", cluster, "jacobi_program", cfg, spec=spec,
                       adaptive=True, competitor_cycle=10)]


# ---------------------------------------------------------------------------
# farm cases
# ---------------------------------------------------------------------------

FARM_RANKS = 64
FARM_JOBS = 100_000


def _farm_case(policy: str, seed: int) -> Case:
    fspec = farm.FarmSpec(n_jobs=FARM_JOBS, policy=policy, chunk=16,
                          seed=seed, cycles=128)
    cluster_spec = _pin(ClusterSpec(n_nodes=FARM_RANKS, seed=seed,
                                    name=f"bench-farm-{policy}"),
                        sanitize=False)
    kill = [CycleFault(cycle=32, node=16, action="kill")]
    burst = [CycleTrigger(cycle=48, node=32, action="start", count=2),
             CycleTrigger(cycle=80, node=32, action="stop", count=2)]

    def run():
        return farm.run_farm(Cluster(cluster_spec), fspec,
                             load_script=LoadScript(cycle_triggers=burst),
                             failure_script=FailureScript(cycle_faults=kill))

    recipe = {"cluster": repr(cluster_spec), "farm": repr(fspec),
              "kill": repr(kill), "load": repr(burst)}
    return Case(f"farm-{policy}", "farm", fspec.cycles, "notify_cycle", run,
                recipe)


def farm_churn(seed: int) -> list[Case]:
    """Master self-scheduling, then RMA self-scheduling, same churn."""
    return [_farm_case("self", seed), _farm_case("rma", seed)]


@functools.lru_cache(maxsize=None)
def _farm_reference(n_jobs: int, seed: int) -> str:
    return farm.farm_digest(farm.reference_results(n_jobs, seed))


def _farm_problems(case: Case, result, cycles_seen: int) -> list[str]:
    spec = result.spec
    problems = []
    if result.jobs_done != spec.n_jobs:
        problems.append(f"{result.jobs_done}/{spec.n_jobs} jobs done")
    if result.duplicates != 0:
        problems.append(f"{result.duplicates} duplicate results")
    reference = _farm_reference(spec.n_jobs, spec.seed)
    if result.digest != reference:
        problems.append(f"digest {result.digest} != reference {reference}")
    if cycles_seen < case.cycles:
        problems.append(f"{cycles_seen}/{case.cycles} cycle boundaries")
    return problems


# ---------------------------------------------------------------------------
# what run.py calls
# ---------------------------------------------------------------------------

def digest(case: Case, result) -> str:
    return result.digest if case.kind == "farm" else spmd_digest(result)


def problems(case: Case, result, cycles_seen: int) -> list[str]:
    """Invariants every seed must satisfy; ``cycles_seen`` is the number
    of global cycle ends the clock stamped."""
    if case.kind == "farm":
        return _farm_problems(case, result, cycles_seen)
    return _spmd_problems(case, result)


WORKLOADS: dict[str, Callable[[int], list[Case]]] = {
    "removal-polling": removal_polling,
    "cg-sparse": cg_sparse,
    "farm-churn": farm_churn,
    "jacobi64-sanitized": jacobi64_sanitized,
}


def recipe_hash(cases: list[Case]) -> str:
    return _sha([(c.name, c.recipe) for c in cases])
