"""Small finite fields GF(q) for q = p^k <= 343, and polynomials over F_p.

An element of GF(q) is an integer 0..q-1 whose base-p digits are the
coefficients, lowest first, of a polynomial over F_p modulo a recorded
irreducible polynomial of degree k (x when k = 1); any would do, since only
the groups built on top matter.  GF(q) is built on discrete logarithms
(Lidl and Niederreiter, Finite Fields): the powers of the least primitive
element, walked once, give powers, inverses, orders and the q x q tables.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .cyclo import _prime_factors
from .errors import InvalidSpec

# irreducible polynomial coefficients, ascending degree, monic
IRREDUCIBLE = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (5, 2): (2, 0, 1),          # x^2 + 2
    (7, 2): (1, 0, 1),          # x^2 + 1
    (7, 3): (2, 0, 0, 1),       # x^3 + 2
}


class GF:
    """GF(q) by discrete logarithms: exp[i] == primitive^i, log[exp[i]] == i."""

    def __init__(self, q):
        if not 2 <= q <= 343:
            raise InvalidSpec(f"field size {q} outside supported range 2..343")
        primes = _prime_factors(q)
        if len(primes) != 1:
            raise InvalidSpec(f"{q} is not a prime power")
        p = primes[0]
        k = 1
        while p**k < q:
            k += 1
        f = (0, 1) if k == 1 else IRREDUCIBLE.get((p, k))
        if f is None:
            raise InvalidSpec(f"no recorded irreducible polynomial for GF({q})")
        self.q = q
        self.p = p
        self.k = k

        def poly(a):
            return [a // p**i % p for i in range(k)]

        def value(x):
            return sum(c * p**i for i, c in enumerate(x))

        self.primitive = _least_of_order(
            q - 1, lambda a, e: value(_poly_powmod(poly(a), e, f, p))
        )
        g = poly(self.primitive)
        exp = self.exp = [1]
        for _ in range(q - 2):
            x = _poly_divmod(_poly_mul(poly(exp[-1]), g), f, p)[1]
            exp.append(value(x))
        log = self.log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        # a b = g^(log a + log b): row a is exp from log a on, read at the logs
        exp2 = exp * 2
        mul = [(0,) * q] + [
            (0,) + tuple(map(exp2[log[a]:].__getitem__, log[1:])) for a in range(1, q)
        ]
        # a + b = a (1 + b/a); adding 1 steps the lowest digit
        step = [b + 1 if (b + 1) % p else b + 1 - p for b in range(q)]
        add = [tuple(range(q))] + [
            tuple(map(mul[a].__getitem__, map(step.__getitem__, mul[self.inverse(a)])))
            for a in range(1, q)
        ]
        self.add = lambda a, b: add[a][b]
        self.mul = lambda a, b: mul[a][b]

    def power(self, a, n):
        """a^n for n >= 0."""
        if a == 0:
            return 0 if n else 1
        return self.exp[self.log[a] * n % (self.q - 1)]

    def inverse(self, a):
        if a == 0:
            raise InvalidSpec("zero has no multiplicative inverse")
        return self.exp[-self.log[a] % (self.q - 1)]

    def element_order(self, a):
        if a == 0:
            raise InvalidSpec("zero has no multiplicative order")
        return (self.q - 1) // gcd(self.log[a], self.q - 1)


@lru_cache(maxsize=None)
def gf(q):
    return GF(q)


def _least_of_order(n, power):
    """The least g in 1..n with power(g, n // r) != 1 for every prime r | n."""
    primes = _prime_factors(n)
    return next(g for g in range(1, n + 1) if all(power(g, n // r) != 1 for r in primes))


def _poly_monic(f, p):
    """f mod p without leading zeros, scaled to leading coefficient 1
    ([] for the zero polynomial)."""
    f = [c % p for c in f]
    while f and not f[-1]:
        f.pop()
    if f and f[-1] != 1:
        inv = pow(f[-1], p - 2, p)
        f = [c * inv % p for c in f]
    return f


def _poly_divmod(a, f, p):
    """Quotient and remainder of a by the monic f, both reduced mod p."""
    n = len(f) - 1
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = r[i] % p
        if c:
            q[i - n] = c
            for j in range(n):
                r[i - n + j] -= c * f[j]
    r = [c % p for c in r[:n]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_powmod(a, e, f, p):
    """a^e mod (f, p) by squaring, f monic of degree at least 1."""
    result = [1]
    a = _poly_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, a), f, p)[1]
        e >>= 1
        if e:
            a = _poly_divmod(_poly_mul(a, a), f, p)[1]
    return result


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_gcd(a, b, p):
    """Monic gcd of a and b mod p."""
    a, b = _poly_monic(a, p), _poly_monic(b, p)
    while b:
        a, b = b, _poly_monic(_poly_divmod(a, b, p)[1], p)
    return a
