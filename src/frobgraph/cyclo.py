"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

A value is a conductor e together with an integer coefficient vector of
length e giving the coefficients of zeta_e^k.  Vectors are kept reduced
modulo the e-th cyclotomic polynomial, so only the first phi(e) entries can
be nonzero and two values with the same conductor are equal iff their
vectors are equal.  Every sum of products is one pair of `cyc_gram`, which
computes sum_j w_j a_rj b_sj for many row pairs (r, s) at once (`cyc_dot`,
and through it + and *, is its one-pair case).  A column rational in every
row is an integer dot product; the other products are accumulated per pair
and conductor pair, and reduced mod Phi_m once at the lcm m of that pair;
rational parts add as integers, the rest are lifted to L, the lcm of every
conductor in the sum.  An L above the conductor cap raises ConductorOverflow
before any accumulation.  Python integers are unbounded, so coefficient
overflow cannot occur.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from operator import add, mul

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


@lru_cache(maxsize=1024)
def _nonzero_pairs(coeffs):
    """Nonzero (exponent, coefficient) pairs; equal vectors share one tuple."""
    return tuple(compress(enumerate(coeffs), coeffs))


@lru_cache(maxsize=None)
def _phi_terms(e):
    """deg Phi_e and the nonzero (j, coefficient) pairs of Phi_e below x^deg."""
    low = cyclotomic_polynomial(e)[:-1]
    return len(low), _nonzero_pairs(low)


def _reduce(e, raw):
    """Reduce a raw vector of length e or 2e mod Phi_e (exponents j and j + e
    fold together); returns a length-e tuple."""
    vec = list(map(add, raw[:e], raw[e:])) if len(raw) == 2 * e else list(raw)
    deg, terms = _phi_terms(e)
    for i in range(e - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j, pc in terms:
                vec[base + j] -= c * pc
    return tuple(vec)


class Cyclotomic:
    """An element of Z[zeta_conductor] in reduced canonical form."""

    __slots__ = ("conductor", "coeffs", "_minimal", "_nonzero")

    def __init__(self, conductor, coeffs, _reduced=False):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        self.coeffs = coeffs if _reduced else _reduce(conductor, coeffs)
        self._minimal = None
        self._nonzero = None

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

    @property
    def nonzero(self):
        """The (exponent, coefficient) pairs with nonzero coefficient (cached)."""
        if self._nonzero is None:
            self._nonzero = _nonzero_pairs(self.coeffs)
        return self._nonzero

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
        for j, c in self.nonzero:
            raw[j * step] = c
        # a vector with no exponent at or above deg Phi_e2 is already reduced
        top = self.nonzero[-1][0] * step if self.nonzero else 0
        return Cyclotomic(e2, tuple(raw), _reduced=top < _phi_terms(e2)[0])

    def key_at(self, e2):
        """Coefficient tuple at conductor e2; a total ordering key."""
        return self.lift(e2).coeffs

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Cyclotomic)):
            return NotImplemented
        return cyc_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs), _reduced=True)

    def __sub__(self, other):
        if not isinstance(other, (int, Cyclotomic)):
            return NotImplemented
        return cyc_sum((self, -other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return Cyclotomic(self.conductor, tuple(c * x for x in self.coeffs), _reduced=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return cyc_dot(((self, other, 1),))

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
        for j, c in self.nonzero:
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
    one = Cyclotomic.from_int(1)
    return cyc_dot((v, one, 1) if isinstance(v, Cyclotomic) else (one, one, v) for v in values)


def cyc_dot(terms):
    """Exact sum of w * a * b over (a, b, w): Cyclotomic factors, int weights.
    The one-pair case of `cyc_gram`."""
    cols = tuple(zip(*terms)) or ((), (), ())
    return next(cyc_gram(cols[:1], cols[1:2], cols[2], ((0, 0),)))


def cyc_gram(rows_a, rows_b, weights, pairs):
    """Exact sums of weights[j] * rows_a[r][j] * rows_b[s][j] over j: yields
    one Cyclotomic per (r, s) in pairs, in order.

    A column whose values are rational in every row of both sides is an
    integer dot product.  In the other columns each row keeps its nonzero
    (exponent, coefficient) pairs, the `rows_a` side scaled by the weight
    once; per pair the products of each conductor pair are accumulated
    unreduced at the lcm m of that pair and reduced mod Phi_m once.  A part
    that reduces to a rational adds as an integer, any other is lifted to L,
    the lcm of every conductor in the sum (both rows, zeros included), where
    sums stay reduced.  The result is the reduced value at L.  An L above the
    conductor cap raises ConductorOverflow before anything is accumulated.
    """
    L_a = [lcm(*(v.conductor for v in row)) for row in rows_a]
    L_b = [lcm(*(v.conductor for v in row)) for row in rows_b]
    Ls = [lcm(L_a[r], L_b[s]) for r, s in pairs]
    for L in Ls:
        if L > DEFAULT_CONDUCTOR_CAP:
            raise ConductorOverflow(f"conductor {L} exceeds cap {DEFAULT_CONDUCTOR_CAP}")
    irrational = [False] * len(weights)
    for row in (*rows_a, *rows_b):
        for j, v in enumerate(row):
            nz = v._nonzero or v.nonzero  # the slot first: cheaper than the property
            if nz and nz[-1][0]:
                irrational[j] = True
    rat = [j for j, f in enumerate(irrational) if not f]
    irr = [j for j, f in enumerate(irrational) if f]
    int_a = [[weights[j] * row[j].coeffs[0] for j in rat] for row in rows_a]
    int_b = [[row[j].coeffs[0] for j in rat] for row in rows_b]
    # conductors at the irrational positions, numbered; a part's key is
    # index(na) * K + index(nb), and steps[key] is (m, m // na, m // nb)
    index = {}
    for row in (*rows_a, *rows_b):
        for j in irr:
            index.setdefault(row[j].conductor, len(index))
    K = len(index)
    steps = [None] * (K * K)
    for na, ia in index.items():
        for nb, ib in index.items():
            m = lcm(na, nb)
            steps[ia * K + ib] = (m, m // na, m // nb)
    # side a, per row: (position, index(na) * K, weighted pairs) for each
    # nonzero value, equal (pairs, weight) sharing one tuple; side b, per
    # row: (index(nb), pairs) or None at each position, one tuple per value
    weighted = {}
    sparse_a = []
    for row in rows_a:
        entries = []
        for t, j in enumerate(irr):
            v = row[j]
            nz = v._nonzero or v.nonzero
            if nz:
                w = weights[j]
                key = (id(nz), w)
                if key not in weighted:
                    weighted[key] = nz if w == 1 else tuple((i, c * w) for i, c in nz)
                entries.append((t, index[v.conductor] * K, weighted[key]))
        sparse_a.append(entries)
    info = {}
    for row in rows_b:
        for j in irr:
            v = row[j]
            if id(v) not in info:
                nz = v._nonzero or v.nonzero
                info[id(v)] = (index[v.conductor], nz) if nz else None
    dense_b = [[info[id(row[j])] for j in irr] for row in rows_b]
    for (r, s), L in zip(pairs, Ls):
        total = sum(map(mul, int_a[r], int_b[s]))
        parts = {}
        row_b = dense_b[s]
        for t, ka, nza in sparse_a[r]:
            eb = row_b[t]
            if eb is None:
                continue
            key = ka + eb[0]
            m, sa, sb = steps[key]
            raw = parts.get(key)
            if raw is None:
                raw = parts[key] = [0] * (2 * m)
            for i, ca in nza:
                i *= sa
                for j, cb in eb[1]:
                    raw[i + j * sb] += ca * cb
        vec = None
        for key, raw in parts.items():
            m = steps[key][0]
            red = _reduce(m, raw)
            if any(red[1:]):
                lifted = Cyclotomic(m, red, _reduced=True).lift(L).coeffs
                vec = list(lifted) if vec is None else list(map(add, vec, lifted))
            else:
                total += red[0]
        if vec is None:
            yield Cyclotomic(L, (total,) + (0,) * (L - 1), _reduced=True)
        else:
            vec[0] += total
            yield Cyclotomic(L, tuple(vec), _reduced=True)
