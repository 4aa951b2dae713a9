"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints `acceptance N <name>: PASS/FAIL [elapsed]` on the real
stdout, so the lines are visible in any pytest run. Budgets are wall clock,
single threaded.
"""

import random
import time
from collections import Counter

from sympy import n_order

from radixgraph.cli import main as cli_main
from radixgraph.expansion import (
    Fraction,
    expand,
    long_division_oracle,
    period_digits,
    run_oracle_sweep,
    value_of,
)
from radixgraph.export import format_expansion
from radixgraph.graph import (
    GraphParams,
    build_graph,
    census,
    iterate,
    reverse_step,
    step,
)
from radixgraph.digits import rightmost_digit

SWEEP_BASES = (2, 3, 8, 10, 12, 16)
GRAPH_BASES = (2, 8, 10, 12, 16)
MAX_MODULUS = 10**4


def _verdict(capsys, num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"acceptance {num} {name}: {status} [{elapsed:.2f}s]{tail}", flush=True)


def test_criterion_1_worked_examples(capsys):
    cases = [
        # numerator, denominator, base, integer, preperiod, period, rendered
        (1, 39, 10, (0,), (), (0, 2, 5, 6, 4, 1), "0.‾025641 (base 10)"),
        (25, 39, 10, (0,), (), (6, 4, 1, 0, 2, 5), "0.‾641025 (base 10)"),
        (1, 13, 10, (0,), (), (0, 7, 6, 9, 2, 3), "0.‾076923 (base 10)"),
        (
            1, 17, 10, (0,), (),
            (0, 5, 8, 8, 2, 3, 5, 2, 9, 4, 1, 1, 7, 6, 4, 7),
            "0.‾0588235294117647 (base 10)",
        ),
        (7, 20, 12, (0,), (4,), (2, 4, 9, 7), "0.4‾2497 (base 12)"),
        (1, 5, 12, (0,), (), (2, 4, 9, 7), "0.‾2497 (base 12)"),
    ]
    t0 = time.perf_counter()
    ok = True
    for num, den, base, want_int, want_pre, want_per, want_text in cases:
        got, _ = expand(Fraction(num, den), base)
        ok = ok and got.integer_part.digits == want_int
        ok = ok and got.preperiod.digits == want_pre
        ok = ok and got.period.digits == want_per
        ok = ok and format_expansion(got) == want_text
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 1, "worked example regression", ok and elapsed < 1.0, elapsed, f"{len(cases)} expansions")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_census_regression(capsys):
    t0 = time.perf_counter()
    got_4 = [(r.d, r.order, r.phi, r.cycle_count, r.cycle_length) for r in census(GraphParams(10, 4))]
    want_4 = [(1, 1, 1, 1, 1), (3, 1, 2, 2, 1), (13, 6, 12, 2, 6), (39, 6, 24, 4, 6)]
    got_12 = [(r.d, r.order, r.phi, r.cycle_count, r.cycle_length) for r in census(GraphParams(10, 12))]
    # note d = 17: order of 10 mod 17 is 16, so one cycle of length 16
    want_12 = [(1, 1, 1, 1, 1), (7, 6, 6, 1, 6), (17, 16, 16, 1, 16), (119, 48, 96, 2, 48)]
    elapsed = time.perf_counter() - t0
    ok = got_4 == want_4 and got_12 == want_12 and elapsed < 1.0
    _verdict(capsys, 2, "census regression", ok, elapsed, "moduli 39 and 119")
    assert got_4 == want_4
    assert got_12 == want_12
    assert elapsed < 1.0


def test_criterion_3_oracle_equivalence_sweep(capsys):
    t0 = time.perf_counter()
    result = run_oracle_sweep(300, SWEEP_BASES)
    elapsed = time.perf_counter() - t0
    expected_cases = len(SWEEP_BASES) * sum(2 * m + 1 for m in range(1, 301))
    ok = result.ok and result.cases == expected_cases and elapsed < 60.0
    _verdict(capsys, 3, "oracle equivalence sweep", ok, elapsed, f"{result.cases} fractions")
    assert result.mismatch is None
    assert result.cases == expected_cases
    assert elapsed < 60.0


def test_criterion_4_census_vs_materialization(capsys):
    t0 = time.perf_counter()
    graphs = 0
    vertices = 0
    ok = True
    for base in GRAPH_BASES:
        n = 1
        while base * n - 1 <= MAX_MODULUS:
            params = GraphParams(base, n)
            rows = census(params)
            g = build_graph(params)
            predicted = Counter()
            for row in rows:
                predicted[row.cycle_length] += row.cycle_count
            ok = ok and predicted == Counter(g.cycle_lengths())
            ok = ok and sum(r.phi for r in rows) == params.modulus
            graphs += 1
            vertices += params.modulus
            n += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(capsys, 4, "census vs materialization", ok, elapsed, f"{graphs} graphs, {vertices} vertices")
    assert ok
    assert elapsed < 120.0


def _check_iterate_vs_steps(rng):
    checks = 0
    for _ in range(10_000):
        base = rng.randrange(2, 17)
        n = rng.randrange(1, 2500 // base + 1)
        m = base * n - 1
        x = rng.randrange(m) if m > 1 else 0
        i = rng.randrange(2 * m + 1)
        y = x
        for _ in range(i):
            y = base * y % m
        if iterate(GraphParams(base, n), x, i) != y:
            return checks, False
        checks += 1
    return checks, True


def _check_digit_homomorphism(rng):
    checks = 0
    for _ in range(100_000):
        base = rng.randrange(2, 17)
        a = rng.randrange(10**9)
        b = rng.randrange(10**9)
        da, db = rightmost_digit(a, base), rightmost_digit(b, base)
        if rightmost_digit(a + b, base) != rightmost_digit(da + db, base):
            return checks, False
        if rightmost_digit(a * b, base) != rightmost_digit(da * db, base):
            return checks, False
        checks += 1
    return checks, True


def _check_reverse_law(rng):
    checks = 0
    # exhaustive on every vertex of every small graph, plus the largest per base
    for base in SWEEP_BASES:
        graphs = [GraphParams(base, n) for n in range(1, 2048 // base + 1)]
        graphs.append(GraphParams(base, (MAX_MODULUS + 1) // base))
        for params in graphs:
            for x in range(params.modulus):
                if reverse_step(params, step(params, x)) != x:
                    return checks, False
                if step(params, reverse_step(params, x)) != x:
                    return checks, False
                checks += 1
    # stratified vertices on every remaining graph with modulus up to the cap
    for base in SWEEP_BASES:
        for n in range(2048 // base + 1, (MAX_MODULUS + 1) // base + 1):
            params = GraphParams(base, n)
            m = params.modulus
            spots = {0, 1, m - 1, m // 2, base % m, n % m}
            spots.update(rng.randrange(m) for _ in range(16))
            for x in spots:
                if reverse_step(params, step(params, x)) != x:
                    return checks, False
                if step(params, reverse_step(params, x)) != x:
                    return checks, False
                checks += 1
    return checks, True


def _rotation_graphs():
    for base in SWEEP_BASES:
        n = 1
        while base * n - 1 <= 1024:
            yield GraphParams(base, n)
            n += 1
        # largest modulus under the cap whose cycles are all short
        for n in range((MAX_MODULUS + 1) // base, 1, -1):
            if n_order(base, base * n - 1) <= 64:
                yield GraphParams(base, n)
                break
    yield GraphParams(10, 4)
    yield GraphParams(10, 12)
    yield GraphParams(12, 3)


def _check_rotation():
    checks = 0
    for params in _rotation_graphs():
        g = build_graph(params)
        for cyc in g.cycles:
            digits = period_digits(cyc[0], params).digits
            for j, v in enumerate(cyc):
                if period_digits(v, params).digits != digits[j:] + digits[:j]:
                    return checks, False
                checks += 1
    return checks, True


def _check_value_round_trip():
    checks = 0
    for base in SWEEP_BASES:
        for m in range(1, 301):
            for k in range(2 * m + 1):
                f = Fraction(k, m)
                result, _ = expand(f, base)
                if value_of(result) != f.reduced():
                    return checks, False
                checks += 1
    return checks, True


def test_criterion_5_property_suites(capsys):
    rng = random.Random(20260818)
    t0 = time.perf_counter()
    parts = {}
    parts["iterate"] = _check_iterate_vs_steps(rng)
    parts["digit_hom"] = _check_digit_homomorphism(rng)
    parts["reverse"] = _check_reverse_law(rng)
    parts["rotation"] = _check_rotation()
    parts["round_trip"] = _check_value_round_trip()
    elapsed = time.perf_counter() - t0
    ok = all(good for _, good in parts.values())
    detail = ", ".join(f"{name} {count}" for name, (count, _) in parts.items())
    _verdict(capsys, 5, "property suites", ok, elapsed, detail)
    for name, (count, good) in parts.items():
        assert good, f"property {name} failed after {count} checks"
        assert count > 0


def test_criterion_6_deterministic_export(capsys):
    t0 = time.perf_counter()
    assert cli_main(["graph", "12", "--base", "10", "--format", "dot"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["graph", "12", "--base", "10", "--format", "dot"]) == 0
    second = capsys.readouterr().out
    ok = first == second and first.count("->") == 119
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 6, "deterministic graph export", ok, elapsed, "two identical dot runs")
    assert first == second
    assert first.count("->") == 119


def test_acceptance_spot_check_oracle_agreement():
    # belt and braces: a couple of adversarial inputs next to the sweep grid
    for num, den, base in [(0, 1, 2), (999, 1000, 10), (599, 600, 12), (1, 9973, 16)]:
        f = Fraction(num, den)
        got, _ = expand(f, base)
        assert got == long_division_oracle(f, base)
