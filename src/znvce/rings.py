"""Exact arithmetic over Z_n: factorization, zero divisors, nilpotents, shape classification."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Factorization:
    """Prime decomposition of n; primes strictly ascending, exponents >= 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.factors)

    @property
    def radical(self) -> int:
        """Product of the distinct primes dividing n."""
        return prod(self.primes)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for e in self.exponents)


# trial division tries every d below _TRIAL_LIMIT; a cofactor left over has
# no prime factor below it, so one under its square is prime
_TRIAL_LIMIT = 1 << 10
# Miller-Rabin on the first 13 primes as bases decides every m below
# _MR_EXACT_BELOW exactly (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# steps y -> y^2 + c that Pollard-Brent rho may take in one factorize call,
# over every restart and cofactor (about 0.1 s on a 2-core Xeon). rho meets
# a prime factor p in about sqrt(p) steps: each of 400 products of two
# primes in [5 * 10^8, 10^9] split well within it
_RHO_STEPS = 1 << 18
# rho multiplies this many differences together between two gcds
_RHO_BATCH = 128


def factorize(n: int) -> Factorization:
    """Trial division by every d below _TRIAL_LIMIT; a cofactor left over is
    told prime by Miller-Rabin and split by Pollard-Brent rho. Raises
    DomainError for n < 2, for a cofactor that rho cannot split within
    _RHO_STEPS steps, and for one past _MR_EXACT_BELOW that Miller-Rabin
    cannot show composite: each ends in bounded time."""
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    m = operator.index(n)
    factors = []
    d = 2
    while d < _TRIAL_LIMIT and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    # no prime below d divides m, so m < d^2 is 1 or a prime
    if m >= d * d:
        large = _large_factors(m, d)
        factors += [(p, large.count(p)) for p in sorted(set(large))]
    elif m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    """Exact below _MR_EXACT_BELOW, and DomainError past it for an n that
    Miller-Rabin cannot show composite."""
    if n < 2:
        return False
    n = operator.index(n)
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return _prime_cofactor(n, d)


def _large_factors(m: int, d: int) -> list[int]:
    """The prime factors of m, which no prime below d divides, with their
    multiplicity, from Miller-Rabin and at most _RHO_STEPS steps of rho."""
    large, budget, todo = [], _RHO_STEPS, [m]
    while todo:
        m = todo.pop()
        if _prime_cofactor(m, d):
            large.append(m)
        else:
            f, budget = _rho(m, budget)
            todo += [f, m // f]
    return large


def _prime_cofactor(m: int, d: int) -> bool:
    """Whether m > 1, which no prime below d divides, is prime."""
    if m < d * d:
        return True
    # m - 1 = 2^s * t with t odd; m is composite if some base a has
    # a^t != 1 and a^(2^i t) != -1 for every i < s
    s = ((m - 1) & (1 - m)).bit_length() - 1
    t = (m - 1) >> s
    for a in _MR_BASES:
        x = pow(a, t, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _MR_EXACT_BELOW:
        raise DomainError(f"cannot decide exactly whether the factor {m} is prime: "
                          f"it is {_MR_EXACT_BELOW} or more")
    return True


def _rho(m: int, budget: int) -> tuple[int, int]:
    """A proper factor of m, an odd composite, by Pollard-Brent rho, and the
    steps left of `budget`; DomainError when the steps run out first."""
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget < 2 * r:
                raise DomainError(f"cannot factorize {m} within {_RHO_STEPS} rho steps")
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            for k in range(0, r, _RHO_BATCH):
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                if g != 1:
                    break
            r *= 2
        if g == m:
            # the batch that met m: its steps again, one gcd each, find the
            # first that meets a factor, within the batch
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g, budget
    raise DomainError(f"cannot factorize {m}")


def gcd_sieve(n: int) -> np.ndarray:
    """gcd(k, n) for every k in [0, n), as int64, so gcd(0, n) = n.

    Every entry starts at 1, and for each prime power p^j dividing n every
    p^j-th entry, from 0, is multiplied by p: one strided multiply per prime
    power in place of a gcd per residue. Raises DomainError for n < 2, and
    MemoryError, before any trial division, for an n whose array does not
    fit: numpy's own, or in place of its ValueError past its largest array."""
    if n < 2:
        raise DomainError(f"gcd_sieve requires n >= 2, got {n}")
    try:
        g = np.ones(n, dtype=np.int64)
    except ValueError as exc:
        raise MemoryError(f"cannot allocate {n} int64 entries: {exc}") from None
    for p, e in factorize(n).factors:
        for j in range(1, e + 1):
            g[::p ** j] *= p
    return g


def zero_divisors(n: int) -> np.ndarray:
    """All k in [1, n-1] with gcd(k, n) > 1, ascending."""
    if n < 2:
        raise DomainError(f"zero_divisors requires n >= 2, got {n}")
    return np.flatnonzero(gcd_sieve(n)[1:] > 1).astype(np.int64) + 1


def nilpotents(n: int) -> np.ndarray:
    """Nonzero k with k^t = 0 mod n for some t: exactly the multiples of rad(n)."""
    if n < 2:
        raise DomainError(f"nilpotents requires n >= 2, got {n}")
    rad = factorize(n).radical
    return np.arange(rad, n, rad, dtype=np.int64)


class ShapeKind(Enum):
    PRIME = "Prime"
    SQUAREFREE_COMPOSITE = "SquarefreeComposite"
    P_SQUARED = "PSquared"
    P_CUBED = "PCubed"
    P_SQUARED_Q = "PSquaredQ"
    P_SQUARED_Q_SQUARED = "PSquaredQSquared"
    OTHER = "Other"


@dataclass(frozen=True)
class ModulusShape:
    """Dispatch key derived from the exponent pattern of a factorization.

    `primes` always lists every prime of n ascending. `p` and `q` are filled
    for the two-parameter shapes: for P_SQUARED_Q, p is the squared prime
    regardless of magnitude; for P_SQUARED_Q_SQUARED, p < q; for
    SQUAREFREE_COMPOSITE with exactly two primes, p < q.
    """

    kind: ShapeKind
    primes: tuple[int, ...]
    p: int | None = None
    q: int | None = None


def classify(f: Factorization) -> ModulusShape:
    ps = f.primes
    es = f.exponents
    if len(ps) == 1:
        p, e = ps[0], es[0]
        if e == 1:
            return ModulusShape(ShapeKind.PRIME, ps, p=p)
        if e == 2:
            return ModulusShape(ShapeKind.P_SQUARED, ps, p=p)
        if e == 3:
            return ModulusShape(ShapeKind.P_CUBED, ps, p=p)
        return ModulusShape(ShapeKind.OTHER, ps)
    if len(ps) == 2:
        if es == (2, 2):
            return ModulusShape(ShapeKind.P_SQUARED_Q_SQUARED, ps, p=ps[0], q=ps[1])
        if sorted(es) == [1, 2]:
            sq = ps[0] if es[0] == 2 else ps[1]
            other = ps[1] if es[0] == 2 else ps[0]
            return ModulusShape(ShapeKind.P_SQUARED_Q, ps, p=sq, q=other)
    if f.is_squarefree:
        p, q = (ps[0], ps[1]) if len(ps) == 2 else (None, None)
        return ModulusShape(ShapeKind.SQUAREFREE_COMPOSITE, ps, p=p, q=q)
    return ModulusShape(ShapeKind.OTHER, ps)


# moduli whose shapes `modulus_shape` keeps: every n of a survey to 1000
_SHAPES_KEPT = 1024


@lru_cache(maxsize=_SHAPES_KEPT)
def modulus_shape(n: int) -> ModulusShape:
    """`classify(factorize(n))`, computed once while n stays among the last
    `_SHAPES_KEPT` moduli asked for. Shapes are frozen, so callers may share
    one. n < 2 raises DomainError, and nothing is kept for it."""
    return classify(factorize(n))
