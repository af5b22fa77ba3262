"""Exact arithmetic in Q/Z and in prime fields.

Elements of Q/Z are kept as reduced fractions a/b with 0 <= a < b; the order
of a/b is exactly b.  The p-primary decomposition splits a/b into summands of
prime-power order via CRT on the denominator.
"""

from __future__ import annotations

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

    def __sub__(self, other: "QZ") -> "QZ":
        return self + (-other)

    def scale(self, k: int) -> "QZ":
        """k-fold sum of self; the order divides den/gcd(den, k)."""
        return QZ(self.num * k, self.den)

    def p_primary(self) -> dict[int, "QZ"]:
        """Decompose into parts of prime-power order, one per prime of den.

        The parts sum to self and the part at p has order p^vp(den).
        """
        parts = {}
        for p, e in factorize(self.den).items():
            pe = p**e
            m = self.den // pe
            parts[p] = QZ(self.num * pow(m, -1, pe), pe)
        return parts

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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk scale)."""
    n = abs(n)
    if n == 0:
        raise ValidationError("cannot factor 0")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def require_prime(n: int, name: str = "p") -> None:
    if not is_prime(n):
        raise ValidationError(f"{name} must be prime, got {n}")


def primes_upto(bound: int):
    """Yield primes <= bound (sieve)."""
    if bound < 2:
        return
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    for i in range(2, bound + 1):
        if sieve[i]:
            yield i


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
        """Discrete log of x base zeta_n; x must lie in mu_n."""
        zeta = self.nth_root_of_unity(n)
        y = 1
        for i in range(n):
            if y == x % self.q:
                return i
            y = y * zeta % self.q
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
