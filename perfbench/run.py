"""Host-time benchmark of the Dyn-MPI simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload removal-polling --seed 0 \\
        --seconds 24 --trace 0

Runs one workload in this process: set-up, then passes over the
workload's cases until ``--seconds`` have gone by (at least
``MIN_PASSES``).  Every case's simulated outputs are checked (see
``workloads.py``).

``--trace 0`` prints the end-to-end metrics, measured with only the
clock hooks attached.  A pass repeats the same deterministic
simulation, so the clock's stamps (each rank's cycle end, compute
request and message; see ``probes.TICKS``) cut every pass into the same
segments, well under a millisecond each.  Each segment's time is the
least over the passes (best of N, as ``timeit`` takes it), and
``host_s`` and the cycle-gap percentiles are sums of those best
segments.  Other tenants of a shared host only ever add time, and they
come and go within a fraction of a second, so the least is the
steadiest estimate of the program's own cost.

The host's speed also drifts over minutes, which no best-of removes.
So at every cycle-end stamp the clock runs a fixed reference chunk of
interpreter work (``probes.reference_chunk``) and times it; chunk time
is left out of the segments.  The chunks get the same best-of per
stamp, and the host and cycle times are reported at the reference
speed: scaled by ``REFERENCE_CHUNK_S`` over the mean best chunk.  A slower
stretch of the host slows both, so the ratio holds far stiller than
the raw seconds; both are printed.

``--trace 1`` runs one untraced pass, then at
least two traced passes, and prints the per-layer metrics: exact counts
(which must repeat between the traced passes) and host self time per
layer (which must sum to the traced host time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2
without a result when the simulator sources are missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the line above)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: environment switches that would otherwise change what is simulated
SCRUBBED = ("DYNMPI_SANITIZE", "DYNMPI_OBS", "DYNMPI_PERTURB",
            "DYNMPI_KERNEL", "DYNMPI_BENCH_SCALE")

#: the self times of a traced pass must sum to its host time within this
#: share of it
ATTRIBUTION_TOLERANCE = 0.01
#: minimum traced passes, so exact counts can be compared
TRACED_PASSES = 2
#: minimum global-cycle gaps per pass (p90 then has >= 10 beyond it)
MIN_CYCLE_SAMPLES = 100
#: minimum untraced passes, so every segment is the best of three
MIN_PASSES = 3
#: import times measured again in a fresh interpreter, one after each of
#: the first passes, so ``setup_s`` is a median of several set-ups
SETUP_REPEATS = 2
#: the reference speed: one ``probes.reference_chunk`` takes this long
#: (about its best on a quiet 2-core 2.1 GHz Xeon VM, Python 3.11)
REFERENCE_CHUNK_S = 30e-6

EXACT_COUNTS = ("kernel.events", "cpu.submits", "net.messages", "net.bytes",
                "p2p.calls", "coll.calls", "rma.ops", "adapt.calls",
                "ckpt.calls", "san.deadlock_checks", "farm.requeued")
#: counts known without tracing; the traced passes must reproduce them
UNTRACED_COUNTS = ("kernel.events", "net.messages", "net.bytes",
                   "farm.requeued")


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Pass:
    """What one pass over a workload's cases measured."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.host_s = 0.0
        #: host seconds between consecutive clock stamps, all cases
        self.segments = array("d")
        #: ``segments[lo:hi]`` of each gap between global cycle ends
        self.spans: list[tuple[int, int]] = []
        #: host seconds of the reference chunk run at each stamp
        self.chunks = array("d")
        self.digests: dict[str, str] = {}
        self.counts: dict[str, int] = dict.fromkeys(UNTRACED_COUNTS, 0)
        self.self_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0


def run_pass(cases, workloads, expected: dict, clock, tracer=None) -> Pass:
    """Run every case once; checks happen after each case's clock stops."""
    rec = Pass()
    base: dict[str, float] = {}
    if tracer is not None:
        tracer.reset_counts()
        clock.on_sim_start = lambda: base.update(tracer.snapshot())
    for case in cases:
        rec.attempted += 1
        clock.begin_case(case.clock)
        t0 = clock.now()
        try:
            result = case.run()
        except Exception:
            rec.failed += 1
            print(f"FAIL {case.name}: raised", file=sys.stderr)
            traceback.print_exc()
            continue
        t1 = clock.now()
        if clock.sim_start is None:
            rec.failed += 1
            print(f"FAIL {case.name}: the simulator never ran", file=sys.stderr)
            continue
        rec.setup_s += clock.sim_start - t0
        rec.host_s += t1 - clock.sim_start
        if tracer is not None:
            end = tracer.snapshot()
            for layer, value in end.items():
                rec.self_s[layer] = (rec.self_s.get(layer, 0.0)
                                     + value - base[layer])
        seconds, spans = clock.segments(t1)
        offset = len(rec.segments)
        rec.segments.extend(seconds)
        rec.spans.extend((lo + offset, hi + offset) for lo, hi in spans)
        rec.chunks.extend(clock.chunks)
        for cluster in clock.clusters:
            rec.counts["kernel.events"] += cluster.sim.n_events
            rec.counts["net.messages"] += cluster.network.n_messages
            rec.counts["net.bytes"] += cluster.network.n_bytes
        problems = workloads.problems(case, result, len(clock.cycle_end))
        if case.kind == "farm":
            rec.counts["farm.requeued"] += result.n_requeued
        digest = workloads.digest(case, result)
        rec.digests[case.name] = digest
        want = expected.get(case.name)
        if want is not None and want != digest:
            problems.append(f"digest {digest} != recorded {want}")
        if problems:
            rec.failed += 1
            print(f"FAIL {case.name}: " + "; ".join(problems), file=sys.stderr)
    if tracer is not None:
        clock.on_sim_start = None
        rec.counts.update(tracer.counts)
    return rec


def measure_import(args) -> float:
    """Import time of this workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def least(so_far: array | None, samples: array) -> array:
    """Position-wise least of the samples so far and ``samples``."""
    return samples if so_far is None else array("d", map(min, so_far,
                                                         samples))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else 0.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # print the import time and stop (how set-up is measured again)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    scrubbed = sorted(v for v in SCRUBBED if os.environ.pop(v, None))
    sys.path[:0] = [SRC, HERE]
    import probes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_cases = workloads.WORKLOADS[args.workload]
    cases = make_cases(args.seed)
    patcher = probes.Patcher()
    clock = probes.Clock()
    clock.install(patcher)
    import_s = perf_counter() - T_START
    if args.setup_only:
        print(repr(import_s))
        return 0

    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh).get(args.workload, {})
    expected = recorded.get(str(args.seed), {})

    print("provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git": git_revision(), "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "recipe": workloads.recipe_hash(make_cases(workloads.DEFAULT_SEED)),
        "digests_recorded": bool(expected), "scrubbed_env": scrubbed,
    }, sort_keys=True))

    # reference chunks only where they are used; a traced run's self
    # times must sum to its host time without them
    clock.reference = not args.trace
    passes = [run_pass(cases, workloads, expected, clock)]
    traced: list[Pass] = []
    if args.trace:
        tracer = probes.Tracer()
        tracer.install(patcher)
        t0 = perf_counter()
        while (len(traced) < TRACED_PASSES
               or perf_counter() - t0 < args.seconds):
            traced.append(run_pass(cases, workloads, expected, clock, tracer))
    else:
        t0 = T_START + import_s
        imports = [import_s]
        best = chunks = None
        while True:
            # fold each pass into the best of N as it ends, so memory
            # does not grow with the number of passes
            rec = passes[-1]
            best = least(best, rec.segments)
            chunks = least(chunks, rec.chunks)
            rec.segments = rec.chunks = None
            if (len(passes) >= MIN_PASSES
                    and perf_counter() - t0 >= args.seconds):
                break
            if len(imports) <= SETUP_REPEATS:
                imports.append(measure_import(args))
            passes.append(run_pass(cases, workloads, expected, clock))
    patcher.restore()

    problems = []
    everything = passes + traced
    for i, rec in enumerate(everything):
        if rec.digests != everything[0].digests:
            problems.append(f"pass {i} digests differ from pass 0")
        if rec.spans != everything[0].spans:
            problems.append(f"pass {i} cycle ends differ from pass 0")
        if len(rec.spans) < MIN_CYCLE_SAMPLES:
            problems.append(f"pass {i}: {len(rec.spans)} cycle gaps < "
                            f"{MIN_CYCLE_SAMPLES}")
    for name, digest in sorted(passes[0].digests.items()):
        print(f"digest {name} {digest}")

    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted} "
          "case runs)")

    if args.trace:
        metrics = per_layer(passes[0], traced, problems)
    else:
        speed = REFERENCE_CHUNK_S * len(chunks) / sum(chunks)
        gaps = [speed * sum(best[lo:hi]) for lo, hi in passes[0].spans]
        print(f"passes {len(passes)}, cycle samples {len(gaps)}, host_s per "
              f"pass {' '.join(f'{r.host_s:.3f}' for r in passes)}; best of "
              f"{len(passes)} per segment {sum(best):.4f} s, per reference "
              f"chunk {1e6 / speed * REFERENCE_CHUNK_S:.3f} us over "
              f"{len(chunks)} chunks, speed factor {speed:.4f}")
        setup_s = median(imports) + median([r.setup_s for r in passes])
        print(f"setup {setup_s:.4f} s: import "
              f"{' '.join(f'{t:.4f}' for t in imports)} s, launch per pass "
              f"{' '.join(f'{r.setup_s:.4f}' for r in passes)} s")
        metrics = {
            # not scaled: over ten seeds, raw set-up time did not follow
            # the chunk's speed (mostly unmarshalling and file reads)
            "setup_s": metric(setup_s, "s"),
            "host_s": metric(speed * sum(best), "s"),
            "cycle_ms.p50": metric(1e3 * median(gaps), "ms"),
            "cycle_ms.p90": metric(1e3 * p90(gaps), "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
        }
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:>22} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer(untraced: Pass, traced: list[Pass], problems) -> dict:
    """Per-layer metrics from the traced passes, with their checks."""
    counts = [rec.counts for rec in traced]
    for c in counts[1:]:
        for name in EXACT_COUNTS:
            if c.get(name) != counts[0].get(name):
                problems.append(f"{name} differs between traced passes: "
                                f"{counts[0].get(name)} vs {c.get(name)}")
    for name in UNTRACED_COUNTS:
        if counts[0][name] != untraced.counts[name]:
            problems.append(f"{name}: traced {counts[0][name]} != "
                            f"untraced {untraced.counts[name]}")
    for i, rec in enumerate(traced):
        total = sum(rec.self_s.values())
        if abs(total - rec.host_s) > ATTRIBUTION_TOLERANCE * rec.host_s:
            problems.append(f"traced pass {i}: self times sum to {total:.4f}"
                            f" s, host time is {rec.host_s:.4f} s")
    host_traced = median([r.host_s for r in traced])
    print(f"traced passes {len(traced)}, traced host_s {host_traced:.4f}, "
          f"untraced host_s {untraced.host_s:.4f}, attribution tolerance "
          f"{ATTRIBUTION_TOLERANCE:.0%}")

    def self_s(layer):
        return metric(median([r.self_s.get(layer, 0.0) for r in traced]), "s")

    def count(name, unit="count"):
        return metric(counts[0][name], unit)

    return {
        "kernel.events": count("kernel.events"),
        "kernel.self_s": self_s("kernel"),
        "kernel.events_per_s": metric(
            counts[0]["kernel.events"] / untraced.host_s
            if untraced.host_s else 0.0, "1/s"),
        "cpu.submits": count("cpu.submits"),
        "cpu.self_s": self_s("cpu"),
        "net.messages": count("net.messages"),
        "net.bytes": count("net.bytes", "B"),
        "net.self_s": self_s("net"),
        "p2p.calls": count("p2p.calls"),
        "p2p.self_s": self_s("p2p"),
        "coll.calls": count("coll.calls"),
        "coll.self_s": self_s("coll"),
        "rma.ops": count("rma.ops"),
        "rma.self_s": self_s("rma"),
        "runtime.rank_cycles": count("runtime.rank_cycles"),
        "runtime.self_s": self_s("runtime"),
        "adapt.calls": count("adapt.calls"),
        "adapt.self_s": self_s("adapt"),
        "dplane.calls": count("dplane.calls"),
        "dplane.self_s": self_s("dplane"),
        "app.self_s": self_s("app"),
        "farm.self_s": self_s("farm"),
        "farm.requeued": count("farm.requeued"),
        "ckpt.calls": count("ckpt.calls"),
        "ckpt.self_s": self_s("ckpt"),
        "sysmon.samples": count("sysmon.samples"),
        "sysmon.self_s": self_s("sysmon"),
        "san.deadlock_checks": count("san.deadlock_checks"),
        "san.self_s": self_s("san"),
        "other.self_s": self_s("other"),
        "trace.overhead_s": metric(host_traced - untraced.host_s, "s"),
    }


if __name__ == "__main__":
    sys.exit(main())
