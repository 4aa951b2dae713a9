from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from sympy import n_order, totient

from radixgraph import graph
from radixgraph.errors import CapacityError, ValidationError
from radixgraph.expansion import period_digits
from radixgraph.graph import (
    GraphParams,
    build_graph,
    census,
    iterate,
    reverse_step,
    step,
)
from radixgraph.numtheory import factorize


def test_params_modulus():
    assert GraphParams(10, 4).modulus == 39
    assert GraphParams(12, 3).modulus == 35
    assert GraphParams(2, 1).modulus == 1


def test_params_validate():
    with pytest.raises(ValidationError):
        GraphParams(1, 4)
    with pytest.raises(ValidationError):
        GraphParams(10, 0)


@pytest.mark.parametrize(
    "base,n,x,want",
    [(10, 4, 25, 16), (10, 4, 0, 0), (10, 4, 4, 1), (12, 3, 7, 14), (10, 4, 13, 13)],
)
def test_step_examples(base, n, x, want):
    assert step(GraphParams(base, n), x) == want


def test_step_rejects_out_of_range():
    with pytest.raises(ValidationError):
        step(GraphParams(10, 4), 39)
    with pytest.raises(ValidationError):
        step(GraphParams(10, 4), -1)


def test_iterate_examples():
    p = GraphParams(10, 4)
    assert iterate(p, 1, 3) == 25
    assert iterate(p, 1, 0) == 1
    assert iterate(p, 7, 0) == 7
    # d = 17 vertices sit on a 16-cycle, so 16 steps close the loop
    assert iterate(GraphParams(10, 12), 7, 16) == 7
    assert iterate(p, 1, 6) == 1


def test_iterate_validates():
    with pytest.raises(ValidationError):
        iterate(GraphParams(10, 4), 1, -1)


def test_reverse_step_examples():
    p = GraphParams(10, 4)
    assert reverse_step(p, 1) == 4
    assert reverse_step(p, 0) == 0
    q = GraphParams(12, 3)
    assert reverse_step(q, 7) == 21
    assert step(q, 21) == 7


def test_cycle_of_examples():
    # the cycle through x: x, then the stops of its period walk up to x
    def cycle(p, x):
        rems = period_digits(x, p).remainders
        assert rems[-1] == x
        return [x, *rems[:-1]]

    assert cycle(GraphParams(10, 4), 1) == [1, 10, 22, 25, 16, 4]
    assert cycle(GraphParams(10, 4), 0) == [0]
    assert cycle(GraphParams(12, 3), 7) == [7, 14, 28, 21]
    assert cycle(GraphParams(10, 4), 13) == [13]


@pytest.mark.parametrize(
    "base,n,x,want",
    [(10, 4, 13, 1), (10, 4, 0, 1), (10, 4, 1, 6), (10, 12, 17, 6), (10, 12, 7, 16), (12, 3, 7, 4)],
)
def test_cycle_length_examples(base, n, x, want):
    assert len(period_digits(x, GraphParams(base, n))) == want


def test_census_small():
    rows = census(GraphParams(10, 4))
    assert [(r.d, r.order, r.phi, r.cycle_count, r.cycle_length) for r in rows] == [
        (1, 1, 1, 1, 1),
        (3, 1, 2, 2, 1),
        (13, 6, 12, 2, 6),
        (39, 6, 24, 4, 6),
    ]


def test_census_trivial_graph():
    assert [(r.d, r.cycle_count) for r in census(GraphParams(2, 1))] == [(1, 1)]


def test_census_vertex_total():
    for base, n in [(10, 4), (10, 12), (12, 3), (2, 8), (16, 40)]:
        rows = census(GraphParams(base, n))
        assert sum(r.phi for r in rows) == base * n - 1
        assert sum(r.cycle_count * r.cycle_length for r in rows) == base * n - 1


@pytest.mark.parametrize(
    "base,n,modulus",
    [
        (10, 23717, 487**2),  # 10 is a Wieferich base of 487: the order stays 486
        (2, 597325, 1093**2),  # 1093 is a Wieferich prime: the order stays 364
        (10, 73, 3**6),
        (3, 3, 2**3),
        (3, 11, 2**5),
        (10, 5, 7**2),
    ],
)
def test_census_lifts_orders_over_prime_powers(base, n, modulus):
    p = GraphParams(base, n)
    assert p.modulus == modulus
    for r in census(p):
        assert r.phi == totient(r.d)
        assert r.order == (1 if r.d == 1 else n_order(base, r.d))


def test_census_factors_m_and_each_p_minus_1_once(monkeypatch):
    # M = 819 = 3^2 * 7 * 13 has 3 distinct primes, so 1 + 3 factorizations
    p = GraphParams(10, 82)
    assert factorize(p.modulus) == ((3, 2), (7, 1), (13, 1))
    calls = []
    monkeypatch.setattr(graph, "factorize", lambda n: calls.append(n) or factorize(n))
    assert len(census(p)) == 12
    assert sorted(calls) == [2, 6, 12, 819]


def test_build_graph_small():
    g = build_graph(GraphParams(10, 4))
    assert len(g.successor) == 39
    assert g.cycles[0] == (0,)
    assert (1, 10, 22, 25, 16, 4) in g.cycles
    assert (13,) in g.cycles and (26,) in g.cycles
    assert sorted(map(len, g.cycles)) == [1, 1, 1, 6, 6, 6, 6, 6, 6]


def test_build_graph_canonical_order():
    g = build_graph(GraphParams(12, 3))
    assert sorted(map(len, g.cycles)) == [1, 4, 6, 12, 12]
    starts = [c[0] for c in g.cycles]
    assert starts == sorted(starts)
    for c in g.cycles:
        assert c[0] == min(c)


def test_build_graph_successor_matches_step():
    p = GraphParams(12, 3)
    g = build_graph(p)
    for x in range(p.modulus):
        assert g.successor[x] == step(p, x)


def test_build_graph_cap():
    # M = 1000009 is just above MATERIALIZATION_CAP, which no caller can move
    with pytest.raises(CapacityError, match="above cap 1000000"):
        build_graph(GraphParams(10, 100001))


@st.composite
def params_and_vertex(draw, max_modulus=5000):
    base = draw(st.integers(2, 16))
    n = draw(st.integers(1, max(1, (max_modulus + 1) // base)))
    p = GraphParams(base, n)
    x = draw(st.integers(0, p.modulus - 1))
    return p, x


@given(params_and_vertex())
def test_iterate_agrees_with_repeated_step(pv):
    p, x = pv
    i = x % 40
    y = x
    for _ in range(i):
        y = step(p, y)
    assert iterate(p, x, i) == y


@given(params_and_vertex())
def test_reverse_step_inverts_step(pv):
    p, x = pv
    assert reverse_step(p, step(p, x)) == x
    assert step(p, reverse_step(p, x)) == x


@given(params_and_vertex())
def test_cycle_contains_x_and_has_predicted_length(pv):
    # the walk sizes itself; stops that follow step, are distinct and end
    # at x pin that size to the true cycle length
    p, x = pv
    rems = period_digits(x, p).remainders
    assert rems[-1] == x
    assert len(set(rems)) == len(rems)
    assert all(step(p, a) == b for a, b in zip((x,) + rems, rems))


@given(st.integers(2, 16), st.integers(1, 150))
@settings(deadline=None)
def test_graph_is_permutation_and_census_agrees(base, n):
    p = GraphParams(base, n)
    g = build_graph(p)
    assert sorted(g.successor) == list(range(p.modulus))
    # every vertex in exactly one cycle, and cycles follow the successor map
    seen = [v for c in g.cycles for v in c]
    assert sorted(seen) == list(range(p.modulus))
    for c in g.cycles:
        for i, v in enumerate(c):
            assert g.successor[v] == c[(i + 1) % len(c)]
    # analytic census predicts the materialized cycle length multiset
    predicted = Counter()
    for row in census(p):
        predicted[row.cycle_length] += row.cycle_count
    assert predicted == Counter(map(len, g.cycles))


@given(st.integers(2, 16), st.integers(1, 400))
def test_census_phi_sum(base, n):
    p = GraphParams(base, n)
    rows = census(p)
    assert sum(r.phi for r in rows) == p.modulus
    assert [r.phi for r in rows] == [totient(r.d) for r in rows]
    assert all(r.phi == r.cycle_count * r.cycle_length for r in rows)
