import math
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import phi_by_gcd, ref_zero_divisors
from znvce import (
    DomainError,
    ShapeKind,
    classify,
    factorize,
    is_prime,
    modulus_shape,
    nilpotents,
    zero_divisors,
)
from znvce import rings


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(17).factors == ((17, 1),)
    assert factorize(225).factors == ((3, 2), (5, 2))


def test_factorize_rejects_small_n():
    for bad in (1, 0, -5):
        with pytest.raises(DomainError):
            factorize(bad)


def test_factorization_accessors():
    f = factorize(360)
    assert f.primes == (2, 3, 5)
    assert f.exponents == (3, 2, 1)
    assert f.radical == 30
    assert not f.is_squarefree
    assert factorize(105).is_squarefree


@given(st.integers(min_value=2, max_value=200_000))
def test_factorize_reconstructs_n(n):
    f = factorize(n)
    prod = 1
    for p, e in f.factors:
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert list(f.primes) == sorted(set(f.primes))


def test_gcd_sieve_is_gcd_with_n():
    for n in range(2, 5001):
        g = rings.gcd_sieve(n)
        assert g.dtype == np.int64
        assert np.array_equal(g, np.gcd(np.arange(n), n)), n
    for n in (-5, 0, 1):
        with pytest.raises(DomainError):
            rings.gcd_sieve(n)


def test_zero_divisors_examples():
    assert zero_divisors(6).tolist() == [2, 3, 4]
    assert zero_divisors(7).tolist() == []
    assert zero_divisors(16).tolist() == [2, 4, 6, 8, 10, 12, 14]


def test_zero_divisors_match_product_definition():
    for n in range(2, 60):
        assert zero_divisors(n).tolist() == ref_zero_divisors(n)


def test_zero_divisors_rejects_small_n():
    with pytest.raises(DomainError):
        zero_divisors(1)


def test_nilpotents_examples():
    assert nilpotents(16).tolist() == [2, 4, 6, 8, 10, 12, 14]
    assert nilpotents(18).tolist() == [6, 12]
    assert nilpotents(30).tolist() == []
    assert nilpotents(12).tolist() == [6]
    assert nilpotents(27).tolist() == [3, 6, 9, 12, 15, 18, 21, 24]


def test_nilpotents_rejects_small_n():
    with pytest.raises(DomainError):
        nilpotents(1)


def test_zero_divisor_count_is_n_minus_phi_minus_one():
    # phi recomputed by gcd counting, not by the package's factorization
    for n in range(2, 10_001):
        assert zero_divisors(n).size == n - phi_by_gcd(n) - 1


def test_nilpotents_subset_of_zero_divisors():
    for n in range(2, 2001):
        nil = nilpotents(n)
        assert np.isin(nil, zero_divisors(n)).all()


def test_nilpotents_equal_zero_divisors_on_prime_powers():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        pe = p
        while pe <= 1024:
            assert nilpotents(pe).tolist() == zero_divisors(pe).tolist()
            pe *= p


def test_nilpotents_match_repeated_squaring():
    # k is nilpotent iff squaring k repeatedly reaches 0
    for n in range(2, 2001):
        ks = np.arange(1, n, dtype=np.int64)
        x = ks.copy()
        for _ in range(12):  # 2^12 > any nilpotency index at this scale
            x = (x * x) % n
        assert nilpotents(n).tolist() == ks[x == 0].tolist()


def test_classify_examples():
    assert classify(factorize(30)).kind is ShapeKind.SQUAREFREE_COMPOSITE
    assert len(classify(factorize(30)).primes) == 3

    s12 = classify(factorize(12))
    assert (s12.kind, s12.p, s12.q) == (ShapeKind.P_SQUARED_Q, 2, 3)

    s441 = classify(factorize(441))
    assert (s441.kind, s441.p, s441.q) == (ShapeKind.P_SQUARED_Q_SQUARED, 3, 7)


def test_classify_p_is_the_squared_prime_regardless_of_size():
    s98 = classify(factorize(98))  # 2 * 7^2
    assert (s98.kind, s98.p, s98.q) == (ShapeKind.P_SQUARED_Q, 7, 2)
    s75 = classify(factorize(75))  # 3 * 5^2
    assert (s75.kind, s75.p, s75.q) == (ShapeKind.P_SQUARED_Q, 5, 3)


def test_classify_remaining_shapes():
    assert classify(factorize(7)).kind is ShapeKind.PRIME
    assert classify(factorize(49)).kind is ShapeKind.P_SQUARED
    assert classify(factorize(8)).kind is ShapeKind.P_CUBED
    assert classify(factorize(16)).kind is ShapeKind.OTHER
    assert classify(factorize(360)).kind is ShapeKind.OTHER
    assert classify(factorize(100)).kind is ShapeKind.P_SQUARED_Q_SQUARED
    s = classify(factorize(15))
    assert (s.kind, s.p, s.q) == (ShapeKind.SQUAREFREE_COMPOSITE, 3, 5)


def test_is_prime_small_values():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes_below_50)


def test_modulus_shape_is_classify_of_factorize():
    for n in range(2, 5001):
        assert modulus_shape(n) == classify(factorize(n)), n
        assert modulus_shape(n) is modulus_shape(n)


def test_modulus_shape_keeps_a_fixed_number_of_shapes():
    info = modulus_shape.cache_info()
    assert info.maxsize == rings._SHAPES_KEPT
    assert isinstance(info.maxsize, int) and info.currsize <= info.maxsize


@pytest.mark.parametrize("n", [1, 0, -7])
def test_modulus_shape_raises_below_two_on_every_call(n):
    modulus_shape.cache_clear()
    for _ in range(3):
        with pytest.raises(DomainError):
            modulus_shape(n)
    info = modulus_shape.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 3)


def _within_a_second(call):
    t0 = perf_counter()
    out = call()
    assert perf_counter() - t0 < 1.0
    return out


def test_a_large_prime_is_factorized_in_bounded_time():
    # trial division alone would run to 10^9 here
    p = 10**18 + 3
    assert _within_a_second(lambda: factorize(p)).factors == ((p, 1),)
    assert _within_a_second(lambda: is_prime(p))
    assert _within_a_second(lambda: nilpotents(p)).size == 0


def test_rho_splits_a_product_of_two_large_primes():
    p, q = 10**9 + 7, 10**9 + 9
    assert _within_a_second(lambda: factorize(p * q)).factors == ((p, 1), (q, 1))
    # prime powers and repeated cofactors past the trial bound
    assert factorize(1031**3 * 1033).factors == ((1031, 3), (1033, 1))
    assert factorize(2**10 * (2**31 - 1) ** 2).factors == ((2, 10), (2**31 - 1, 2))
    assert factorize(2**64 + 1).factors == ((274177, 1), (67280421310721, 1))


def test_rho_gives_up_on_two_30_digit_primes():
    # the first primes after 10^29 and 3 * 10^29: rho's step budget runs out
    # long before it could meet either factor
    p, q = 10**29 + 319, 3 * 10**29 + 7
    with pytest.raises(DomainError, match="rho steps"):
        _within_a_second(lambda: factorize(p * q))
    # Miller-Rabin shows the product composite without splitting it, but
    # past 3.3 * 10^24 its fixed bases do not prove a prime prime
    assert not is_prime(p * q)
    with pytest.raises(DomainError, match="prime"):
        is_prime(p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=10**18))
def test_factorize_reconstructs_large_n(n):
    f = factorize(n)
    assert math.prod(p**e for p, e in f.factors) == n
    assert list(f.primes) == sorted(set(f.primes))
    assert all(is_prime(p) for p in f.primes)


def test_is_prime_agrees_with_a_sieve_below_two_million():
    # past the trial bound's square, 2^20, Miller-Rabin decides
    n = 2_000_000
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = False
    for k in range(2**20 - 5000, n, 7):
        assert is_prime(k) == sieve[k], k
