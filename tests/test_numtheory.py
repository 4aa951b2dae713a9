import math

import pytest
from hypothesis import given, strategies as st

from radixgraph.errors import CapacityError, UndefinedInputError
from radixgraph.graph import GraphParams, census
from radixgraph.numtheory import FACTORIZATION_CAP, factorize


@pytest.mark.parametrize(
    "n,want",
    [
        (12, ((2, 2), (3, 1))),
        (1, ()),
        (2, ((2, 1),)),
        (119, ((7, 1), (17, 1))),
        (9999, ((3, 2), (11, 1), (101, 1))),
        (2**10, ((2, 10),)),
    ],
)
def test_factorize_examples(n, want):
    assert factorize(n) == want


def test_factorize_rejects_nonpositive():
    with pytest.raises(UndefinedInputError):
        factorize(0)
    with pytest.raises(UndefinedInputError):
        factorize(-6)


def test_factorize_cap():
    with pytest.raises(CapacityError):
        factorize(FACTORIZATION_CAP + 1)
    assert math.prod(p**e for p, e in factorize(FACTORIZATION_CAP - 1)) == FACTORIZATION_CAP - 1


def _is_prime(p):
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


@given(st.integers(1, 10**5))
def test_factorize_reconstructs_and_primes(n):
    pf = factorize(n)
    assert math.prod(p**e for p, e in pf) == n
    primes = [p for p, _ in pf]
    assert primes == sorted(primes)
    assert len(set(primes)) == len(primes)
    for p, e in pf:
        assert _is_prime(p)
        assert e >= 1


# Divisors, totients and orders are read off graph.census. Base n + 1 with
# multiplier 1 has modulus n; the row d of base b with multiplier
# b^-1 mod d (any n when d = 1) has order ord_d(b).


def _rows_of_modulus(n):
    return census(GraphParams(n + 1, 1))


def _order_row(b, d):
    n = pow(b, -1, d) or 1
    (row,) = [r for r in census(GraphParams(b, n)) if r.d == d]
    return row


@pytest.mark.parametrize(
    "n,want",
    [(39, [1, 3, 13, 39]), (1, [1]), (35, [1, 5, 7, 35]), (16, [1, 2, 4, 8, 16])],
)
def test_divisors_examples(n, want):
    assert [r.d for r in _rows_of_modulus(n)] == want


@given(st.integers(1, 2000))
def test_divisors_matches_enumeration(n):
    assert [r.d for r in _rows_of_modulus(n)] == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("n,want", [(39, 24), (119, 96), (1, 1), (17, 16), (2, 1)])
def test_euler_phi_examples(n, want):
    assert _rows_of_modulus(n)[-1].phi == want


@given(st.integers(1, 500))
def test_euler_phi_counts_coprimes(n):
    for r in _rows_of_modulus(n):
        assert r.phi == sum(1 for k in range(1, r.d + 1) if math.gcd(k, r.d) == 1)


@given(st.integers(1, 10**4))
def test_phi_divisor_sum(n):
    assert sum(r.phi for r in _rows_of_modulus(n)) == n


@pytest.mark.parametrize(
    "b,d,want",
    [(10, 13, 6), (10, 17, 16), (12, 5, 4), (10, 3, 1), (2, 7, 3), (10, 1, 1), (10, 9999, 4)],
)
def test_mult_order_examples(b, d, want):
    assert _order_row(b, d).order == want


@given(st.integers(2, 16), st.integers(1, 10**4))
def test_mult_order_law_and_minimality(b, d):
    if math.gcd(b, d) != 1:
        return
    t = _order_row(b, d).order
    assert pow(b, t, d) == 1 % d
    # minimality by direct scan
    acc = b % d
    expect = 1
    while acc != 1 % d:
        acc = acc * b % d
        expect += 1
    assert t == expect
