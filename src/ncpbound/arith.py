"""Exact arithmetic in Q/Z and in prime fields.

Elements of Q/Z are kept as reduced fractions a/b with 0 <= a < b; the order
of a/b is exactly b.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantError, ValidationError


@dataclass(frozen=True, order=True)
class QZ:
    """An element of Q/Z, normalized to 0 <= num < den with gcd(num, den) = 1."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValidationError("denominator must be positive")
        g = math.gcd(self.num % self.den, self.den)
        object.__setattr__(self, "num", (self.num % self.den) // g)
        object.__setattr__(self, "den", self.den // g)

    @property
    def order(self) -> int:
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "QZ") -> "QZ":
        return QZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QZ":
        return QZ(-self.num, self.den)

    def scale(self, k: int) -> "QZ":
        """k-fold sum of self; the order divides den/gcd(den, k)."""
        return QZ(self.num * k, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "QZ":
        s = text.strip()
        try:
            if "/" in s:
                a, b = s.split("/")
                return cls(int(a), int(b))
            return cls(int(s), 1)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"not a rational: {text!r}") from exc


QZ_ZERO = QZ(0, 1)


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValidationError("vp(0) is undefined")
    if p < 2:
        raise ValidationError("p must be at least 2")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


MAX_TRIAL = 10**12  # trial divisors d run while d^2 <= MAX_TRIAL


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division by d with d^2 <= MAX_TRIAL;
    refused when a cofactor of at least d^2 is left past that."""
    n = m = abs(n)
    if n == 0:
        raise ValidationError("cannot factor 0")
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        if d * d > MAX_TRIAL:
            raise ValidationError(f"{n} exceeds the trial-division ceiling {MAX_TRIAL}")
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def require_prime(n: int, name: str = "p") -> None:
    if not is_prime(n):
        raise ValidationError(f"{name} must be prime, got {n}")


def require_tame(M, p: int, why: str) -> None:
    """Reject p equal to the characteristic of M's base field, saying why."""
    if M.base.char == p:
        raise ValidationError(f"p = {p} equals the field characteristic; {why}")


def primes_upto(bound: int):
    """Yield primes <= bound (sieve)."""
    if bound < 2:
        return
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    yield from itertools.compress(range(bound + 1), sieve)


def squarefree_part(n: int) -> int:
    """The squarefree integer representing n modulo rational squares."""
    if n == 0:
        raise ValidationError("0 has no squarefree part")
    out = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def is_squarefree(n: int) -> bool:
    return n != 0 and abs(squarefree_part(n)) == abs(n)


def mul_order_mod(a: int, m: int) -> int:
    """Multiplicative order of a modulo m (m >= 1, gcd(a, m) = 1)."""
    if m < 1:
        raise ValidationError("modulus must be positive")
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValidationError(f"{a} is not a unit mod {m}")
    x, order = a % m, 1
    while x != 1:
        x = x * a % m
        order += 1
    return order


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, values in {-1, 0, 1}."""
    if p == 2 or not is_prime(p):
        raise ValidationError(f"legendre needs an odd prime, got {p}")
    return _legendre_unchecked(a, p)


def _legendre_unchecked(a: int, p: int) -> int:
    """Legendre symbol (a|p) by Euler's criterion, for a p the caller has
    already proved to be an odd prime (a place of Q, say)."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class PrimeField:
    """F_q for prime q: multiplicative orders, discrete logs in mu_n, and
    the order of an element in F_q*/(F_q*)^n.

    The fixed primitive n-th root of unity is zeta = g^((q-1)/n) for g the
    smallest primitive root mod q; discrete logs of elements of mu_n are
    taken base zeta throughout.  The primitive root is computed once per
    instance; `prime_field` keeps one instance per q.
    """

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValidationError(f"{q} is not prime")
        self.q = q
        self._root: int | None = None

    def mul_order(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ValidationError("0 has no multiplicative order")
        return mul_order_mod(a, self.q)

    def primitive_root(self) -> int:
        if self._root is None:
            self._root = self._find_primitive_root()
        return self._root

    def _find_primitive_root(self) -> int:
        q = self.q
        if q == 2:
            return 1
        group = q - 1
        primes = list(factorize(group))
        for g in range(2, q):
            if all(pow(g, group // p, q) != 1 for p in primes):
                return g
        raise InvariantError(f"no primitive root found mod {q}")

    def nth_root_of_unity(self, n: int) -> int:
        if (self.q - 1) % n != 0:
            raise ValidationError(f"mu_{n} is not contained in F_{self.q}")
        return pow(self.primitive_root(), (self.q - 1) // n, self.q)

    def dlog_in_mu(self, x: int, n: int) -> int:
        """Discrete log k of x base zeta_n, x in mu_n, by baby-step giant-step:
        x * zeta^(-i*m) first meets {zeta^j: j < m} at i = k // m, as m^2 >= n."""
        q, zeta, m = self.q, self.nth_root_of_unity(n), math.isqrt(n - 1) + 1
        baby, y = {}, 1
        for j in range(m):
            baby[y] = j
            y = y * zeta % q
        giant, y = pow(zeta, -m, q), x % q
        for i in range(m):
            j = baby.get(y)
            if j is not None:
                return i * m + j
            y = y * giant % q
        raise ValidationError(f"{x} is not an n-th root of unity in F_{self.q}")

    def power_class_order(self, a: int, n: int) -> int:
        """Order of the class of a in F_q*/(F_q*)^n (requires n | q-1).

        The class group is cyclic of order n; a^((q-1)/n) lands in mu_n and
        its multiplicative order equals the class order.
        """
        if (self.q - 1) % n != 0:
            raise ValidationError(f"n = {n} does not divide q - 1 = {self.q - 1}")
        a %= self.q
        if a == 0:
            raise ValidationError("0 has no power class")
        return self.mul_order(pow(a, (self.q - 1) // n, self.q)) if n > 1 else 1


@lru_cache(maxsize=None)
def prime_field(q: int) -> PrimeField:
    """The one shared PrimeField for q (validated on first use)."""
    return PrimeField(q)


def power_class_order(a: int, q: int, n: int) -> int:
    """Convenience wrapper over PrimeField.power_class_order."""
    return prime_field(q).power_class_order(a, n)
