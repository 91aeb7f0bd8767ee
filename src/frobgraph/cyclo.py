"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

A value is a conductor e together with an integer coefficient vector of
length e giving the coefficients of zeta_e^k.  Vectors are kept reduced
modulo the e-th cyclotomic polynomial, so only the first phi(e) entries can
be nonzero and two values with the same conductor are equal iff their
vectors are equal.  Mixed-conductor arithmetic lifts both operands to the
lcm conductor first.  Python integers are unbounded, so coefficient overflow
cannot occur.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .config import DEFAULT_CONDUCTOR_CAP
from .errors import ConductorOverflow, NotCoprime, NotRational


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Coefficients of Phi_e, ascending degree, monic.

    With e = p m, p the largest prime factor of e: Phi_e(x) = Phi_m(x^p) when
    p divides m, and Phi_m(x^p) / Phi_m(x) otherwise.
    """
    if e == 1:
        return (-1, 1)
    p = _prime_factors(e)[-1]
    m = e // p
    phi_m = cyclotomic_polynomial(m)
    stretched = [0] * ((len(phi_m) - 1) * p + 1)
    stretched[::p] = phi_m
    if m % p == 0:
        return tuple(stretched)
    return tuple(_polydiv_exact(stretched, phi_m))


def _polydiv_exact(num, den):
    """Exact division of integer polynomials (den monic, remainder zero)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _reduce(e, raw):
    """Fold exponents mod e, then reduce mod Phi_e; returns a length-e tuple."""
    vec = [0] * e
    for j, c in enumerate(raw):
        if c:
            vec[j % e] += c
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    for i in range(e - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j in range(deg):
                pc = phi[j]
                if pc:
                    vec[base + j] -= c * pc
    return tuple(vec)


class Cyclotomic:
    """An element of Z[zeta_conductor] in reduced canonical form."""

    __slots__ = ("conductor", "coeffs", "_minimal")

    def __init__(self, conductor, coeffs, _reduced=False):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        self.coeffs = coeffs if _reduced else _reduce(conductor, coeffs)
        self._minimal = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(c):
        return Cyclotomic(1, (c,), _reduced=True)

    @staticmethod
    def zeta(e, k=1):
        raw = [0] * e
        raw[k % e] = 1
        return Cyclotomic(e, raw)

    @staticmethod
    def from_terms(e, terms):
        """Sum of terms[k] * zeta_e^k over a {exponent: coefficient} dict."""
        raw = [0] * e
        for k, c in terms.items():
            raw[k % e] += c
        return Cyclotomic(e, raw)

    # -- basic queries ----------------------------------------------------

    @property
    def is_rational(self):
        return not any(self.coeffs[1:])

    def to_rational_integer(self):
        if any(self.coeffs[1:]):
            raise NotRational(f"{self} is not a rational integer")
        return self.coeffs[0]

    # -- conductor handling ------------------------------------------------

    def lift(self, e2):
        """Rewrite on conductor e2 (a multiple of the current conductor)."""
        e = self.conductor
        if e2 == e:
            return self
        step = e2 // e
        raw = [0] * e2
        for j, c in enumerate(self.coeffs):
            if c:
                raw[j * step] = c
        return Cyclotomic(e2, raw)

    def key_at(self, e2):
        """Coefficient tuple at conductor e2; a total ordering key."""
        return self.lift(e2).coeffs

    def _common(self, other):
        e = lcm(self.conductor, other.conductor)
        if e > DEFAULT_CONDUCTOR_CAP:
            raise ConductorOverflow(f"conductor {e} exceeds cap {DEFAULT_CONDUCTOR_CAP}")
        return self.lift(e), other.lift(e)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Cyclotomic.from_int(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == other.conductor:
            return Cyclotomic(
                self.conductor,
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                _reduced=True,
            )
        a, b = self._common(other)
        return a + b

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs), _reduced=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Cyclotomic.from_int(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return Cyclotomic(self.conductor, tuple(c * x for x in self.coeffs), _reduced=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.is_rational:
            return other.scale(self.coeffs[0])
        if other.is_rational:
            return self.scale(other.coeffs[0])
        a, b = self._common(other)
        e = a.conductor
        raw = [0] * (2 * e)
        bc = b.coeffs
        nz = [(j, c) for j, c in enumerate(bc) if c]
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in nz:
                    raw[i + j] += ca * cb
        return Cyclotomic(e, raw)

    __rmul__ = __mul__

    # -- Galois action ------------------------------------------------------

    def galois_conjugate(self, k):
        """Apply zeta_e -> zeta_e^k; k must be coprime to the conductor."""
        e = self.conductor
        k %= e
        if gcd(k, e) != 1:
            raise NotCoprime(f"gcd({k}, {e}) != 1")
        if self.is_rational or k == 1:
            return self
        raw = [0] * e
        for j, c in enumerate(self.coeffs):
            if c:
                raw[(j * k) % e] += c
        return Cyclotomic(e, raw)

    def conjugate(self):
        """Complex conjugation (zeta -> zeta^(e-1))."""
        if self.conductor <= 2:
            return self
        return self.galois_conjugate(self.conductor - 1)

    # -- canonical form across conductors -----------------------------------

    def minimal(self):
        """Equal value at the least possible conductor (cached)."""
        if self._minimal is not None:
            return self._minimal
        if self.is_rational:
            m = Cyclotomic.from_int(self.coeffs[0])
        else:
            m = self
            changed = True
            while changed:
                changed = False
                e = m.conductor
                for q in _prime_factors(e):
                    f = e // q
                    if _fixed_by_subfield_galois(m, f):
                        m = _rewrite_on_subfield(m, f)
                        changed = True
                        break
        self._minimal = m
        m._minimal = m
        return m

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        e = lcm(self.conductor, other.conductor)
        return self.lift(e).coeffs == other.lift(e).coeffs

    def __hash__(self):
        m = self.minimal()
        return hash((m.conductor, m.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self.coeffs})"

    def __str__(self):
        m = self.minimal()
        if m.is_rational:
            return str(m.coeffs[0])
        parts = []
        for k, c in enumerate(m.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            mag = abs(c)
            term = f"z({m.conductor})^{k}" if mag == 1 else f"{mag}*z({m.conductor})^{k}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


ZERO = Cyclotomic.from_int(0)


@lru_cache(maxsize=None)
def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n):
    return _prime_factors(n) == (n,)


def _fixed_by_subfield_galois(v, f):
    """Whether v is fixed by Gal(Q(zeta_e)/Q(zeta_f)), i.e. lies in Q(zeta_f)."""
    e = v.conductor
    for k in range(1 + f, e, f):
        if gcd(k, e) == 1 and v.galois_conjugate(k) != v:
            return False
    return True


@lru_cache(maxsize=None)
def _subfield_basis(e, f):
    """Power basis of Q(zeta_f) written at conductor e: columns zeta_e^(e/f * i)."""
    step = e // f
    deg_f = len(cyclotomic_polynomial(f)) - 1
    cols = []
    for i in range(deg_f):
        raw = [0] * e
        raw[(i * step) % e] = 1
        cols.append(_reduce(e, raw))
    return tuple(cols)


def _rewrite_on_subfield(v, f):
    """Express v (known to lie in Q(zeta_f)) at conductor f by linear solve."""
    e = v.conductor
    cols = _subfield_basis(e, f)
    deg_e = len(cyclotomic_polynomial(e)) - 1
    deg_f = len(cols)
    # Gaussian elimination over Q on the deg_e x deg_f system
    rows = [[Fraction(cols[j][i]) for j in range(deg_f)] + [Fraction(v.coeffs[i])]
            for i in range(deg_e)]
    pivots = []
    r = 0
    for c in range(deg_f):
        piv = next((i for i in range(r, deg_e) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(deg_e):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    coeffs = [0] * deg_f
    for rr, cc in pivots:
        val = rows[rr][deg_f]
        if val.denominator != 1:
            raise ArithmeticError("subfield rewrite produced non-integer")
        coeffs[cc] = int(val)
    out = Cyclotomic(f, coeffs + [0] * (f - deg_f))
    if out.lift(e).coeffs != v.coeffs:
        raise ArithmeticError("subfield rewrite failed verification")
    return out


def cyc_sum(values):
    """Exact sum of an iterable of Cyclotomic/int values."""
    total = ZERO
    for v in values:
        total = total + v
    return total
