"""Exact arithmetic over Z_n: factorization, zero divisors, nilpotents, shape classification."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod

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


def factorize(n: int) -> Factorization:
    """Trial division; moduli here are desk scale, nothing fancier is warranted."""
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    m = n
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).factors == ((n, 1),)


def zero_divisors(n: int) -> np.ndarray:
    """All k in [1, n-1] with gcd(k, n) > 1, ascending."""
    if n < 2:
        raise DomainError(f"zero_divisors requires n >= 2, got {n}")
    ks = np.arange(1, n, dtype=np.int64)
    return ks[np.gcd(ks, n) > 1]


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
