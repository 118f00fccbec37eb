"""Sanitizer overhead bench: host time of the node-removal recipe run
sanitized versus plain, on the same host.

The recipe is the canonical Jacobi removal scenario
(:mod:`repro.obs.scenario`) scaled with the rank count: a ``4N x 4N``
grid on ``N`` Ultra-Sparc ranks, 36 phase cycles, and 2 competing
processes on node 0 from cycle 8, so a run covers balancing,
redistribution, the forced drop and buddy checkpoints — every place a
rank blocks and the sanitizer's deadlock check runs.

Each cell runs plain and sanitized (``DYNMPI_SANITIZE`` toggled around
the run) alternately, ``REPEATS`` times, and keeps the best wall time
of each; the ratio of the two bests is the overhead.  Both must execute
the same number of kernel events — the sanitizer observes the run and
must never change it.  The ratio at 128 ranks is gated at ``MAX_RATIO``.
"""

from __future__ import annotations

import time

from repro.obs.scenario import RemovalScenario, run_removal

GRID = (64, 128)
REPEATS = 3
GATED_N = 128
MAX_RATIO = 2.0


def _run_once(n_nodes: int, sanitize: bool, monkeypatch) -> tuple[int, float]:
    if sanitize:
        monkeypatch.setenv("DYNMPI_SANITIZE", "1")
    else:
        monkeypatch.delenv("DYNMPI_SANITIZE", raising=False)
    scenario = RemovalScenario(
        n_nodes=n_nodes, n=4 * n_nodes, iters=36, load_cycle=8, n_cp=2,
    )
    t0 = time.perf_counter()
    _, cluster = run_removal(scenario, observe=False)
    wall = time.perf_counter() - t0
    assert (cluster.sanitizer is not None) == sanitize
    return cluster.sim.n_events, wall


def _format(rows: list[dict]) -> str:
    head = (f"{'n_nodes':>7} {'events':>9} {'plain_s':>8} "
            f"{'sanitized_s':>11} {'ratio':>6}")
    lines = [f"sanitizer overhead on the removal recipe (best of {REPEATS}, "
             "interleaved, same host)", head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['n_nodes']:>7} {r['events']:>9} {r['plain_s']:>8.2f} "
            f"{r['sanitized_s']:>11.2f} {r['ratio']:>5.2f}x"
        )
    return "\n".join(lines)


def test_sanitizer_overhead(record_table, monkeypatch):
    rows = []
    for n in GRID:
        best = {False: float("inf"), True: float("inf")}
        events = set()
        for _ in range(REPEATS):
            for sanitize in (False, True):
                n_events, wall = _run_once(n, sanitize, monkeypatch)
                events.add(n_events)
                best[sanitize] = min(best[sanitize], wall)
        assert len(events) == 1, (n, events)
        rows.append({
            "n_nodes": n, "events": events.pop(), "plain_s": best[False],
            "sanitized_s": best[True], "ratio": best[True] / best[False],
        })
    record_table("sanitizer_overhead", _format(rows), data=rows)

    gated = next(r for r in rows if r["n_nodes"] == GATED_N)
    assert gated["ratio"] <= MAX_RATIO, gated
