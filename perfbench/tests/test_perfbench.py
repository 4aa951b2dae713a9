"""Tests of the benchmark itself: seeded inputs, the tracer, and a smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
from tracer import CacheCounter, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.01"]
    return subprocess.run(cmd + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_generated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert inputs.generate(workload, 5) == inputs.generate(workload, 5)
    assert inputs.generate(workload, 5) != inputs.generate(workload, 6)


def test_fractions_small_samples_the_acceptance_grid():
    for _, k, m, base in (req for batch in inputs.generate("fractions_small", 1) for req in batch):
        assert 1 <= m <= inputs.SMALL_MAX_M and 0 <= k <= 2 * m and base in inputs.SMALL_BASES


def test_long_periods_are_fixed_by_the_draw():
    for req in inputs.generate("fractions_long", 1)[0]:
        if req[0] == "expand":
            _, k, p, base = req
        else:
            _, k, n, base = req
            p = base * n - 1
        order = (p - 1) // 2
        assert k % p and pow(base, order, p) == 1
        assert all(pow(base, order // q, p) != 1 for q in inputs._prime_factors(order))


def test_census_pairs_are_distinct():
    pairs = [(base, n) for batch in inputs.generate("census_wide", 1) for _, n, base in batch]
    assert len(set(pairs)) == len(pairs)


def test_tracer_wraps_every_binding_and_restores_them():
    import radixgraph.expansion
    import radixgraph.numtheory

    original = radixgraph.numtheory.factorize
    tracer = Tracer()
    tracer.install()
    try:
        assert radixgraph.expansion.factorize is not original
        assert radixgraph.numtheory.factorize.__wrapped__ is original
        tracer.enabled = True
        radixgraph.expand(radixgraph.Fraction(1, 7 * 10**4), 10)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert radixgraph.expansion.factorize is original and radixgraph.numtheory.factorize is original
    assert tracer.absent == []
    assert tracer.calls["expansion.expand"] == 1 and tracer.calls["numtheory.factorize"] >= 2
    # self times partition the outer span: expand's children are not in its self time
    assert tracer.edges[("request", "expansion.expand")] >= sum(tracer.self_s.values())


def test_cache_counter_survives_clearing():
    import radixgraph.numtheory as nt

    cache = CacheCounter(nt)
    cache.clear()
    nt.factorize(360)
    nt.factorize(360)
    cache.clear()
    nt.factorize(360)
    hits, misses = cache.totals()
    assert (hits, misses) == (1, 2)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_named_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in report["metrics"].values())
    else:
        assert report["metrics"]["trace.self_sum_s"]["value"] <= report["metrics"]["trace.wall_s"]["value"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fractions_small", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
