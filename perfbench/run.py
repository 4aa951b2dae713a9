"""Benchmark of the radixgraph package: one closed-loop caller, no threads.

    python3 perfbench/run.py --workload fractions_small --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
./src. Each request is timed alone and its output is checked against an
independent reference after the clock stops. The run ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced; with
--trace 1 they are the per-layer ones, from a traced pass over the same
requests (see README.md for what each one means).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
CLI_CALLS = 21
TRACE_PROBE_REQUESTS = 45
IMPORT_REPEATS = 5
# After a request whose timing and check took this long, the collector runs
# untimed, so that the check's garbage is not collected inside the next
# timed request.
COLLECT_AFTER_S = 0.01
# Warm-up requests before timing: fractions_small is served from warm
# numtheory caches in steady state, the others are dominated by their walk,
# factorization or rendering.
WARMUP = {"fractions_small": 2048}
# Throughput is taken over chunks of whole rounds with at least this much
# request time each, long enough to pool the heavy tail of census costs.
CHUNK_S = 1.0
# The highest percentile with at least ten samples beyond it in a run.
TAIL = {"fractions_small": 99, "fractions_long": 90, "census_wide": 90, "graph_export": 90}


@dataclass
class Pass:
    """Outcome of running requests: latencies, work and failures."""

    # unboxed doubles: a run of fractions_small times a quarter of a
    # million requests, and a list of floats would add megabytes to the
    # peak RSS the run reports
    latencies: array = field(default_factory=lambda: array("d"))
    trace_latencies: array = field(default_factory=lambda: array("d"))
    work: int = 0
    attempted: int = 0
    errors: list = field(default_factory=list)
    rounds: int = 0
    seconds: float = 0.0
    # (requests, work units, request time) of each whole round
    per_round: list = field(default_factory=list)


def run_requests(requests, result: Pass, *, cold=None, tracer=None) -> None:
    """Time and check each request; `cold` empties the caches before each one."""
    from workloads import check, execute

    for req in requests:
        if cold is not None:
            cold.clear()
        if tracer is not None:
            tracer.enabled = True
        output = None
        start = perf_counter()
        try:
            output, units = execute(req)
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{req!r} raised {exc!r}"
        else:
            error = None
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            error = check(req, output)
        output = None
        if perf_counter() - start >= COLLECT_AFTER_S:
            gc.collect()
        result.attempted += 1
        result.seconds += elapsed
        result.latencies.append(elapsed)
        if req[0] == "trace":
            result.trace_latencies.append(elapsed)
        if error is None:
            result.work += units
        else:
            result.errors.append(error)


def run_stream(rounds, seconds: float, *, max_rounds=None, cold=None, tracer=None, side=()) -> Pass:
    """Whole rounds until `seconds` of request time (or `max_rounds`) is spent.

    `side` calls run between rounds, untimed, spread evenly over the stream:
    this machine's speed drifts over seconds, so probes bunched at one end
    of a run would see only one phase of the drift.
    """
    result = Pass()
    done = 0
    while (max_rounds is None and result.seconds < seconds) or (max_rounds is not None and result.rounds < max_rounds):
        before = (result.attempted, result.work, result.seconds)
        run_requests(rounds[result.rounds % len(rounds)], result, cold=cold, tracer=tracer)
        result.per_round.append(tuple(x - y for x, y in zip((result.attempted, result.work, result.seconds), before)))
        result.rounds += 1
        while done < len(side) and (done + 0.5) / len(side) <= result.seconds / seconds:
            side[done]()
            done += 1
    for call in side[done:]:
        call()
    return result


def warm_up(workload: str, rounds) -> None:
    count = WARMUP.get(workload, 0)
    if count:
        flat = [req for batch in rounds for req in batch][:count]
        run_requests(flat, Pass())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_python(code: str) -> float:
    """Run code in a fresh interpreter; it prints one float, returned here."""
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_code(workload: str, seed: int) -> str:
    """A fresh interpreter's set-up: import radixgraph, generate the inputs."""
    return (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "t0 = time.perf_counter()\n"
        "import radixgraph, inputs\n"
        f"inputs.generate({workload!r}, {seed})\n"
        "print(time.perf_counter() - t0)\n"
    )


def import_ms(module: str) -> float:
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - t0)\n"
    )
    return 1000 * statistics.median(fresh_python(code) for _ in range(IMPORT_REPEATS))


def cli_call(k: int, m: int, base: int, result: Pass) -> float:
    """Wall time of one cold `python -m radixgraph.cli expand K/M --base B`."""
    import radixgraph as rg

    cmd = [sys.executable, "-m", "radixgraph.cli", "expand", f"{k}/{m}", "--base", str(base)]
    start = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    want = rg.format_expansion(rg.long_division_oracle(rg.Fraction(k, m), base))
    result.attempted += 1
    if done.returncode != 0 or done.stdout != want + "\n":
        result.errors.append(f"cli expand {k}/{m} --base {base} printed {done.stdout!r}, exit {done.returncode}")
    return elapsed


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_hash(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_hash() -> str:
    """Identifies the measured code where there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "radixgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def spread(groups) -> list:
    """Merge lists of calls so that each list is spread evenly through the result."""
    keyed = [((i + 0.5) / len(g), call) for g in groups for i, call in enumerate(g)]
    return [call for _, call in sorted(keyed, key=lambda kv: kv[0])]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def chunk_rates(stream: Pass) -> tuple[float, float]:
    """Median over chunks of requests and of work units per second.

    A chunk is a run of consecutive whole rounds with at least CHUNK_S of
    request time; a short last chunk joins the one before. Every round of
    a workload holds the same mix, so each chunk's rate estimates the same
    throughput, and their median drops the chunks that a stall or a slow
    phase of the machine hit, which would drag a mean.
    """
    chunks = [[0, 0, 0.0]]
    for rnd in stream.per_round:
        if chunks[-1][2] >= CHUNK_S:
            chunks.append([0, 0, 0.0])
        chunks[-1] = [x + y for x, y in zip(chunks[-1], rnd)]
    if len(chunks) > 1 and chunks[-1][2] < CHUNK_S:
        last = chunks.pop()
        chunks[-1] = [x + y for x, y in zip(chunks[-1], last)]
    ops = statistics.median(n / s for n, _, s in chunks)
    work = statistics.median(w / s for _, w, s in chunks)
    return ops, work


def untraced(workload: str, seed: int, seconds: float, rounds, cache) -> tuple[Pass, dict, list]:
    from inputs import cli_fractions, trace_probe

    notes = []
    probe = Pass()
    setups, cli_times = [], []
    groups = [
        [lambda: setups.append(fresh_python(setup_code(workload, seed)))] * SETUP_REPEATS,
        [lambda f=f: cli_times.append(cli_call(*f, probe)) for f in cli_fractions(seed, CLI_CALLS)],
    ]
    if workload != "fractions_long":
        groups.append([lambda r=r: run_requests([r], probe) for r in trace_probe(seed, TRACE_PROBE_REQUESTS)])
    side = spread(groups)

    warm_up(workload, rounds)
    cold = cache if workload == "census_wide" else None
    stream = run_stream(rounds, seconds, cold=cold, side=side)
    # before the percentiles below sort a boxed copy of the latencies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = stream.latencies
    tail = TAIL[workload]
    tail_s = percentile(lat, tail)
    beyond = sum(1 for x in lat if x > tail_s)
    if beyond < 10:
        notes.append(f"warning: only {beyond} samples beyond p{tail}")
    trace_lat = stream.trace_latencies if workload == "fractions_long" else probe.trace_latencies
    ops_per_s, work_per_s = chunk_rates(stream)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "work_per_s": (work_per_s, "1/s"),
        "trace_latency_p50_ms": (1000 * statistics.median(trace_lat), "ms"),
        "cli_p50_ms": (1000 * statistics.median(cli_times), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes.append(
        f"{workload}: {len(lat)} requests in {stream.rounds} rounds, tail = p{tail} with {beyond} beyond, "
        f"{len(trace_lat)} trace requests, {len(cli_times)} cli calls, {len(setups)} set-ups"
    )
    stream.attempted += probe.attempted
    stream.errors += probe.errors
    return stream, metrics, notes


def traced(workload: str, seed: int, seconds: float, rounds, cache) -> tuple[Pass, dict, list]:
    from tracer import TRACED, Tracer
    from workloads import LAYER_PROBE

    cold = cache if workload == "census_wide" else None
    cache.clear()
    warm_up(workload, rounds)
    plain = run_stream(rounds, seconds / 2, cold=cold)

    tracer = Tracer()
    tracer.install()
    try:
        cache.clear()
        warm_up(workload, rounds)
        cache.reset()
        result = run_stream(rounds, 0, max_rounds=plain.rounds, cold=cold, tracer=tracer)
        probe = Pass()
        run_requests(LAYER_PROBE, probe, tracer=tracer)
    finally:
        tracer.uninstall()
    hits, misses = cache.totals()
    wall = result.seconds + probe.seconds
    self_sum = sum(tracer.self_s.values())
    if self_sum > wall:
        result.errors.append(f"layer self times sum to {self_sum} s, above the traced wall time {wall} s")
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in ("numtheory.factorize", "numtheory.mult_order", "digits.to_digit_string", "graph.census"):
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    metrics.update(
        {
            "numtheory.factorize.max_n": (tracer.max_n, "integer"),
            "numtheory.cache.hits": (hits, "count"),
            "numtheory.cache.misses": (misses, "count"),
            "numtheory.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "expansion.period_digits.digits": (tracer.period_digits, "count"),
            "graph.build_graph.vertices": (tracer.vertices, "count"),
            "export.bytes": (tracer.export_bytes, "bytes"),
            "cli.import_ms": (import_ms("radixgraph.cli"), "ms"),
            "trace.overhead_ratio": (plain.seconds / result.seconds, "ratio"),
            "trace.wall_s": (wall, "s"),
            "trace.self_sum_s": (self_sum, "s"),
        }
    )
    notes = [f"{workload}: {plain.attempted} untraced and {result.attempted} traced requests ({plain.rounds} rounds)"]
    if tracer.absent:
        notes.append("absent (reported as 0): " + ", ".join(tracer.absent))
    edges = sorted(tracer.edges.items(), key=lambda kv: -kv[1])
    notes.append("span edges (parent -> child: total s): " + ", ".join(f"{p} -> {c}: {t:.4g}" for (p, c), t in edges))
    for other in (plain, probe):
        result.attempted += other.attempted
        result.errors += other.errors
    return result, metrics, notes


def parse_args(argv):
    from inputs import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "radixgraph" / "__init__.py").is_file():
        print(f"error: no radixgraph package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import radixgraph
    import radixgraph.numtheory

    if Path(radixgraph.__file__).resolve().parent != SRC / "radixgraph":
        print(f"error: imported radixgraph from {radixgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from inputs import generate
    from tracer import CacheCounter

    import workloads  # noqa: F401  (sympy, for the checks, loads here)

    rounds = generate(args.workload, args.seed)
    cache = CacheCounter(radixgraph.numtheory)
    # Imports and inputs live for the whole run; frozen, they are no longer
    # traversed by the collections the timed requests trigger.
    gc.freeze()
    mode = traced if args.trace else untraced
    result, metrics, notes = mode(args.workload, args.seed, args.seconds, rounds, cache)

    failed = len(result.errors)
    print("# machine: " + json.dumps(machine()))
    for note in notes:
        print("# " + note)
    for error in result.errors[:20]:
        print("# FAILED: " + error)
    print(f"# fail_ratio: {failed / result.attempted} ({failed} of {result.attempted})")
    report = {
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
