"""Small finite fields GF(q) for q = p^k <= 343, as lookup tables.

Field elements are integers 0..q-1 encoding coefficient vectors base p.  Any
fixed irreducible polynomial of the right degree works here, since only the
abstract groups built on top matter; the polynomials below are recorded so
the tables are reproducible.
"""

from __future__ import annotations

from functools import lru_cache

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
    """Arithmetic tables for GF(q)."""

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
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: (a * b) % p
        else:
            poly = IRREDUCIBLE.get((p, k))
            if poly is None:
                raise InvalidSpec(f"no recorded irreducible polynomial for GF({q})")
            self._add_table, self._mul_table = _build_tables(p, k, poly)
            self.add = lambda a, b: self._add_table[a][b]
            self.mul = lambda a, b: self._mul_table[a][b]
        self.one = 1
        self.zero = 0
        self.primitive = self._find_primitive()

    def power(self, a, n):
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def _find_primitive(self):
        for g in range(2, self.q):
            seen = set()
            x = self.one
            for _ in range(self.q - 1):
                x = self.mul(x, g)
                seen.add(x)
            if len(seen) == self.q - 1:
                return g
        raise InvalidSpec(f"no primitive element in GF({self.q})")

    def element_order(self, a):
        if a == 0:
            raise InvalidSpec("zero has no multiplicative order")
        x = a
        n = 1
        while x != self.one:
            x = self.mul(x, a)
            n += 1
        return n


def _build_tables(p, k, poly):
    q = p**k

    def to_digits(a):
        out = []
        for _ in range(k):
            out.append(a % p)
            a //= p
        return out

    def from_digits(ds):
        out = 0
        for d in reversed(ds):
            out = out * p + d
        return out

    add_table = []
    for a in range(q):
        da = to_digits(a)
        row = []
        for b in range(q):
            db = to_digits(b)
            row.append(from_digits([(x + y) % p for x, y in zip(da, db)]))
        add_table.append(tuple(row))

    mul_table = []
    for a in range(q):
        da = to_digits(a)
        row = []
        for b in range(q):
            db = to_digits(b)
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
            for i in range(len(prod) - 1, k - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(k):
                        prod[i - k + j] = (prod[i - k + j] - c * poly[j]) % p
            row.append(from_digits(prod[:k]))
        mul_table.append(tuple(row))
    return tuple(add_table), tuple(mul_table)


@lru_cache(maxsize=None)
def gf(q):
    return GF(q)
