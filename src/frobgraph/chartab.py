"""Exact character tables via finite-field eigenspace splitting.

Pipeline: pick a prime p = 1 (mod exponent) with p > 2*floor(sqrt(|G|)),
split F_p^k into the common eigenspaces of the class-sum matrices (kept as
sparse rows, mostly zero, their products composed in C by
`right_products`), read the central characters off the one-dimensional
pieces, recover degrees from the orthogonality normalization mod p, and
lift each value to Z[zeta] through root-of-unity multiplicities.  The bound
on p makes every multiplicity and degree smaller than p/2, so the lift is
unique.  A linear character is read off as one root of unity per class and
checked to be a homomorphism on the powers of the representative.

The eigenvalues of a class matrix on a d-dimensional space are the roots
mod p of its characteristic polynomial.  While p <= 3 * d * (bit length
of p) + 200 they are found by scanning F_p, p*d steps; above that the
roots are split out by gcds (Rabin 1980), about d^2 log p steps plus a
fixed cost per call, which the constant term counts.  Which path runs
depends on p and d, not on the size of the group: at p = 241 (AGL(1, 16))
the scan takes every d >= 2; at p = 337 (SL(2, 7)) the split takes
d <= 5 and the scan d >= 6; at p = 6 841 (PSL(2, 19)) the split takes every
d up to 170.  Both paths were timed on each of the 660 searches of one
pass of the four benchmark workloads: this rule picks the faster one for
all but one of the 103 (p, d) pairs among them, 39.4 ms of root finding
per pass against 41.9 ms under the earlier rule p <= 6 * d * (bit length
of p), on a 2-vCPU Xeon with Python 3.11.  Polynomials mod p and the
primitive root's order test are `smallfield`'s.

An abelian group skips all of that: its table is the dual group
Hom(G, mu_e), written down along the generators as integer exponents of
zeta_e (`_dual_rows`).  The rows of either path are ordered the same way.

Every finished table is checked exactly before it is returned; nothing
downstream ever sees an unchecked table.  An abelian group's table passes a
certificate (`_certify_abelian`): each value is read back as a root of
unity of its own conductor, each row must be a homomorphism on every
(element, generator) pair, and the |G| rows must be distinct, which makes
them all of Irr(G).  Every other table is re-verified by row and column
orthogonality (`_verify_table`, each relation one batch of `cyc_gram`), the
degree identities and the abelianization count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt, lcm
from operator import sub

from .cyclo import Cyclotomic, cyc_gram, is_prime
from .errors import InternalInconsistency
from .group import conjugacy_classes, derived_order, kept_on, powers, right_products
from .smallfield import _least_of_order, _poly_divmod, _poly_gcd, _poly_monic, _poly_powmod

# ----------------------------------------------------------------------
# class multiplication coefficients


def class_multiplication_coefficients(cd, i, j, k):
    """Number of ways x*y = rep_k with x in class i, y in class j."""
    # every count is at most |G|, so the modulus leaves it unchanged
    return dict(_class_matrix(cd, i, cd.group.order + 1)[j]).get(k, 0)


def _class_matrix(cd, i, p):
    """Sparse rows of A with A[j][m] = a(i, j, m) reduced mod p: row j holds
    the (m, A[j][m]) pairs with A[j][m] nonzero mod p, m ascending.

    The common eigenvectors of these matrices over F_p are the central
    characters: A_i v = omega_i v with v_j = |C_j| chi(g_j) / chi(1).
    """
    G = cd.group
    cls = cd.class_of_index.__getitem__
    invs = [G.inverse(x) for x in cd.members[i]]
    rows = [[] for _ in range(len(cd))]
    for m, t in enumerate(cd.rep_indices):
        for j, c in Counter(map(cls, right_products(G, invs, t))).items():
            if c % p:
                rows[j].append((m, c % p))
    return rows


# ----------------------------------------------------------------------
# small linear algebra over F_p


def _mat_vec(A, v, p):
    """A v mod p, A in the sparse rows of `_class_matrix`."""
    return [sum(a * v[m] for m, a in row) % p for row in A]


def _solve_coords(basis, pivots, w, p):
    """Coordinates of w in an echelonized basis (rows with unit pivots)."""
    w = list(w)
    coords = [0] * len(basis)
    for i, (row, piv) in enumerate(zip(basis, pivots)):
        c = w[piv] % p
        if c:
            coords[i] = c
            for j, x in enumerate(row):
                if x:
                    w[j] = (w[j] - c * x) % p
    if any(w):
        raise InternalInconsistency("vector outside invariant subspace")
    return coords


def _echelonize(vectors, p):
    """Gauss-Jordan reduce vectors mod p; returns (rows, pivot positions).

    Every pivot column is cleared in all other rows, so nullspace reads and
    coordinate solves can treat the rows independently.
    """
    rows = []
    pivots = []
    for vec in vectors:
        v = list(vec)
        for row, piv in zip(rows, pivots):
            c = v[piv] % p
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = (v[j] - c * x) % p
        piv = next((j for j, x in enumerate(v) if x % p), None)
        if piv is None:
            continue
        inv = pow(v[piv], p - 2, p)
        v = [(x * inv) % p for x in v]
        for row in rows:
            c = row[piv]
            if c:
                for j, x in enumerate(v):
                    if x:
                        row[j] = (row[j] - c * x) % p
        rows.append(v)
        pivots.append(piv)
    return rows, pivots


def _charpoly_mod(A, p):
    """Characteristic polynomial mod p by Hessenberg reduction, ascending coeffs."""
    n = len(A)
    H = [row[:] for row in A]
    for m in range(1, n):
        # find a nonzero pivot below the subdiagonal
        piv = next((i for i in range(m, n) if H[i][m - 1] % p), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(H[m][m - 1], p - 2, p)
        for i in range(m + 1, n):
            c = (H[i][m - 1] * inv) % p
            if c:
                for j in range(n):
                    H[i][j] = (H[i][j] - c * H[m][j]) % p
                for j in range(n):
                    H[j][m] = (H[j][m] + c * H[j][i]) % p
    # p_m(x) = det(x I - H_m) over leading principal minors of Hessenberg H
    polys = [[1]]
    for m in range(1, n + 1):
        # (x - H[m-1][m-1]) * p_{m-1}
        prev = polys[m - 1]
        cur = [0] * (len(prev) + 1)
        h = H[m - 1][m - 1] % p
        for i, c in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + c) % p
            cur[i] = (cur[i] - h * c) % p
        beta = 1
        for i in range(m - 2, -1, -1):
            beta = (beta * H[i + 1][i]) % p
            coef = (H[i][m - 1] * beta) % p
            if coef:
                for j, c in enumerate(polys[i]):
                    cur[j] = (cur[j] - coef * c) % p
        polys.append(cur)
    return polys[n]


def _poly_roots_mod(poly, p):
    """The distinct roots in F_p of poly (monic of degree d >= 1, ascending
    coefficients), ascending.

    Scanning F_p costs about p*d steps; it is kept while p <= 3*d*(bit
    length of p) + 200, where it measured cheaper than the split with its
    fixed cost per call (two `_poly_powmod` runs).  Otherwise the
    linear factors are kept by g = gcd(poly, x^p - x) and split apart by
    gcd(g, (x + delta)^((p-1)/2) - 1) for delta = 0, 1, 2, ... (Rabin 1980),
    about d^2 log p steps.  Each delta that splits nothing is skipped by
    every factor of g too, and some delta below p splits any two roots
    apart, so the search ends.
    """
    d = len(poly) - 1
    if p <= 3 * d * p.bit_length() + 200:
        roots = []
        for x in range(p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
            if acc == 0:
                roots.append(x)
        return roots
    f = _poly_monic(poly, p)
    # x^p - x mod f, padded so that it has an x term
    xp = _poly_powmod([0, 1], p, f, p) + [0, 0]
    xp[1] -= 1
    roots = []
    _split_roots(_poly_gcd(f, xp, p), p, 0, roots)
    return sorted(roots)


def _split_roots(g, p, delta, out):
    """Append the roots of g (monic, a product of distinct x - a) to out,
    trying the splitting shifts from delta on.  While g has degree >= 2 it
    does not divide a power of x + delta, so h below is never zero."""
    while len(g) > 2:
        h = _poly_powmod([delta, 1], (p - 1) // 2, g, p)
        h[0] -= 1
        a = _poly_gcd(g, h, p)
        delta += 1
        if 1 < len(a) < len(g):
            _split_roots(a, p, delta, out)
            g = _poly_divmod(g, a, p)[0]
    if len(g) == 2:
        out.append(-g[0] % p)


def _nullspace_in_subspace(R, basis, pivots, lam, p):
    """Ambient basis of ker(R - lam) where R acts in subspace coordinates."""
    d = len(R)
    M = [[(R[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
    rows, rpiv = _echelonize(M, p)
    free = [j for j in range(d) if j not in rpiv]
    out = []
    for f in free:
        coord = [0] * d
        coord[f] = 1
        for row, piv in zip(rows, rpiv):
            coord[piv] = (-row[f]) % p
        amb = [0] * len(basis[0])
        for c, bvec in zip(coord, basis):
            if c:
                for j, x in enumerate(bvec):
                    amb[j] = (amb[j] + c * x) % p
        out.append(amb)
    return out


# ----------------------------------------------------------------------
# prime selection and lifting


def dixon_prime(exponent, order):
    """Smallest prime p = 1 (mod exponent) with p > 2*floor(sqrt(order))."""
    bound = 2 * isqrt(order)
    p = exponent + 1
    while p <= bound or not is_prime(p):
        p += exponent
    return p


def _primitive_root(p):
    return _least_of_order(p - 1, lambda g, e: pow(g, e, p))


def _sqrt_mod_small_half(a, p):
    """The square root of a mod p lying in (0, p/2); degrees always do."""
    for r in range(1, p // 2 + 1):
        if (r * r) % p == a:
            return r
    raise InternalInconsistency(f"{a} has no square root in (0, {p}/2)")


# ----------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class TableStats:
    """T = sum of degrees, k = number of characters, b = largest degree."""

    T: int
    k: int
    b: int


class CharacterTable:
    """Exact character table: rows are irreducibles, columns are classes.

    Row 0 is the trivial character; the remaining rows sort by (degree, value
    key), so two runs produce identical tables.
    """

    def __init__(self, group, classes, exponent, values, degrees):
        self.group = group
        self.classes = classes
        self.exponent = exponent
        self.values = values
        self.degrees = degrees

    @property
    def k(self):
        return len(self.degrees)

    @kept_on("_conj_values")
    def conj_values(self):
        """Complex conjugates of `values`.  Each distinct value is conjugated
        once, and a conjugate that is itself a table value is that object."""
        shared = {(v.conductor, v.coeffs): v for row in self.values for v in row}
        conj = {}
        for key, v in shared.items():
            c = v.conjugate()
            conj[key] = shared.get((c.conductor, c.coeffs), c)
        return tuple(tuple(conj[v.conductor, v.coeffs] for v in row) for row in self.values)

    def row_permutation(self, class_perm):
        """Entry i is the row j with values[j][c] == values[i][class_perm[c]]
        for every class c: the rows read through a permutation of the classes.

        class_perm must preserve element orders, as conjugation by an element
        of an overgroup does.  Every value in a column has the class's
        element order as its conductor, so rows match by coefficients.
        Raises InternalInconsistency when a permuted row is not in the table.
        """
        index = {tuple(v.coeffs for v in row): j for j, row in enumerate(self.values)}
        perm = []
        for row in self.values:
            j = index.get(tuple(row[c].coeffs for c in class_perm))
            if j is None:
                raise InternalInconsistency("permuted character row not in table")
            perm.append(j)
        return perm

    def _cells(self):
        """The values as strings; each distinct value object is formatted once."""
        distinct = {id(v): v for row in self.values for v in row}
        text = {i: str(v) for i, v in distinct.items()}
        return [list(map(text.__getitem__, map(id, row))) for row in self.values]

    def text(self):
        cd = self.classes
        head = ["class size"] + [str(s) for s in cd.sizes]
        head2 = ["elt order"] + [str(o) for o in cd.element_orders]
        rows = [head, head2]
        for i, cells in enumerate(self._cells()):
            rows.append([f"X{i + 1}"] + cells)
        widths = [max(len(r[c]) for r in rows) for c in range(len(head))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows
        )

    def to_json_dict(self):
        return {
            "order": self.group.order,
            "exponent": self.exponent,
            "class_sizes": list(self.classes.sizes),
            "element_orders": list(self.classes.element_orders),
            "rows": self._cells(),
        }


def table_stats(table):
    return TableStats(T=sum(table.degrees), k=table.k, b=max(table.degrees))


@kept_on("_chartable")
def character_table(G):
    """Exact character table of G (`kept_on` the group): the dual group if G
    is abelian, otherwise the eigenspace split.  Equal values are one object:
    one per (conductor, coefficients) in the table."""
    return _table(G, _dual_rows if G.is_abelian() else _eigenspace_rows)


def _table(G, row_source):
    """The verified table of G from the rows that row_source(cd, e) lifts."""
    cd = conjugacy_classes(G)
    e = lcm(*cd.element_orders)
    shared = {}
    rows = [
        [shared.setdefault((v.conductor, v.coeffs), v) for v in row]
        for row in row_source(cd, e)
    ]
    rows = _order_rows(rows, e, shared)
    degrees = tuple(r[0].to_rational_integer() for r in rows)
    table = CharacterTable(G, cd, e, tuple(tuple(r) for r in rows), degrees)
    (_certify_abelian if G.is_abelian() else _verify_table)(table)
    return table


def _eigenspace_rows(cd, e):
    """The rows of any G: split the class matrices mod the Dixon prime, lift."""
    p = dixon_prime(e, cd.group.order)
    return [_lift_row(cd, w, e, p) for w in _split_eigenspaces(cd, p)]


def _dual_rows(cd, e):
    """The rows of an abelian G as its dual group Hom(G, mu_e) (Serre 1977,
    section 3.1), built along the generators.

    With K the group generated so far and m the least exponent with
    g^m in K, each character chi of K extends in exactly m ways,
    chi'(k g^j) = chi(k) + j w, one per solution w of m w = chi(g^m) mod e.
    Values are exponents of zeta_e until the end, where each distinct one
    becomes one root of unity of its class's element order.
    """
    G = cd.group
    elements = [0]  # K, listed
    rows = [[0]]  # each character of K as exponents, aligned with elements
    for g in G.generator_indices:
        where = dict(zip(elements, range(len(elements))))
        gs = powers(G, g, where)  # g^j for j < m
        m = len(gs)
        if m == 1:
            continue
        at = where[G.mult(gs[-1], g)]
        extended = []
        for chi in rows:
            a, r = divmod(chi[at], m)
            if r:
                raise InternalInconsistency("character value at g^m has no m-th root")
            for w in range(a, a + e, e // m):
                extended.append([(c + j * w) % e for j in range(m) for c in chi])
        elements = [G.mult(k, h) for h in gs for k in elements]
        rows = extended
    if len(elements) != G.order:
        raise InternalInconsistency("generators do not reach every element")
    where = dict(zip(elements, range(len(elements))))
    cols = [(where[r], n) for r, n in zip(cd.rep_indices, cd.element_orders)]
    value = {
        (n, x): Cyclotomic.from_terms(n, {x * n // e: 1}) if n > 1 else Cyclotomic.from_int(1)
        for n, x in {(n, chi[c]) for chi in rows for c, n in cols}
    }
    return [[value[n, chi[c]] for c, n in cols] for chi in rows]


def _split_eigenspaces(cd, p):
    """Common eigenvectors (normalized at the identity class) of class matrices."""
    k = len(cd)
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for i in range(1, k):
        if all(len(b) == 1 for b in spaces):
            break
        A = _class_matrix(cd, i, p)
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            ech, pivots = _echelonize(basis, p)
            imgs = [_mat_vec(A, b, p) for b in ech]
            R = [_solve_coords(ech, pivots, w, p) for w in imgs]
            # columns of R are coordinates of A*b_j, so transpose for action
            d = len(ech)
            Rt = [[R[j][i] for j in range(d)] for i in range(d)]
            poly = _charpoly_mod(Rt, p)
            for lam in _poly_roots_mod(poly, p):
                vecs = _nullspace_in_subspace(Rt, ech, pivots, lam, p)
                if vecs:
                    nxt.append(vecs)
            if sum(len(v) for v in nxt) > k:
                raise InternalInconsistency("eigenspace splitting overshot")
        spaces = nxt
    if not all(len(b) == 1 for b in spaces) or len(spaces) != k:
        raise InternalInconsistency("class matrices did not split to dimension one")
    out = []
    for (v,) in spaces:
        if v[0] % p == 0:
            raise InternalInconsistency("central character vanishes at the identity")
        inv0 = pow(v[0], p - 2, p)
        out.append([(x * inv0) % p for x in v])
    return out


def _lift_row(cd, omega, e, p):
    """One character row as exact cyclotomic values from its omega vector.

    The value at class i (element order n) is sum_j m_j zeta_n^j, with m_j
    the multiplicity of the eigenvalue zeta_n^j, read off theta(g^t) over
    t < n by a discrete Fourier transform mod p (n^2 steps).  A linear
    character (degree 1) is one root of unity: its exponent j is read off
    theta(g), and theta(g^t) = zeta_n^(jt) is checked for every t, which
    holds exactly when the transform would give the multiplicities delta_j.
    """
    G = cd.group
    k = len(cd)
    inv_class = [cd.class_of_index[G.inverse(r)] for r in cd.rep_indices]
    s = 0
    for i in range(k):
        s = (s + omega[i] * omega[inv_class[i]] * pow(cd.sizes[i], p - 2, p)) % p
    if s == 0:
        raise InternalInconsistency("degenerate norm in degree recovery")
    d2 = (G.order % p) * pow(s, p - 2, p) % p
    d = _sqrt_mod_small_half(d2, p)
    theta = [
        (d * omega[i] * pow(cd.sizes[i], p - 2, p)) % p for i in range(k)
    ]
    wp = pow(_primitive_root(p), (p - 1) // e, p)
    row = []
    for i in range(k):
        n = cd.element_orders[i]
        if n == 1:
            row.append(Cyclotomic.from_int(d))
            continue
        zn = pow(wp, e // n, p)
        zpows = [1] * n  # zpows[u] = zn^u
        for u in range(1, n):
            zpows[u] = zpows[u - 1] * zn % p
        values = [theta[c] for c in cd.power_map[i]]  # theta(g^t), t < n
        if d == 1:
            if values[1] not in zpows:
                raise InternalInconsistency("linear character value is not a root of unity")
            j = zpows.index(values[1])
            if any(v != zpows[j * t % n] for t, v in enumerate(values)):
                raise InternalInconsistency("linear character is not a homomorphism")
            row.append(Cyclotomic.from_terms(n, {j: 1}))
            continue
        n_inv = pow(n, p - 2, p)
        terms = {}
        for j in range(n):
            # zn^(-jt) = zpows[-jt mod n]
            acc = sum(v * zpows[-j * t % n] for t, v in enumerate(values))
            m = (acc * n_inv) % p
            if m:
                if m > d:
                    raise InternalInconsistency("root-of-unity multiplicity too large")
                terms[j] = m
        if sum(terms.values()) != d:
            raise InternalInconsistency("multiplicities do not sum to the degree")
        row.append(Cyclotomic.from_terms(n, terms))
    return row


def _order_rows(rows, e, shared):
    """Trivial row first, then by degree and the values lifted to exponent e.
    Each distinct value in `shared` is lifted once, however often it occurs."""
    trivial = None
    rest = []
    for r in rows:
        if all(v == 1 for v in r):
            trivial = r
        else:
            rest.append(r)
    if trivial is None:
        raise InternalInconsistency("trivial character missing")
    key = {c: v.key_at(e) for c, v in shared.items()}
    rest.sort(key=lambda r: (r[0].to_rational_integer(), [key[v.conductor, v.coeffs] for v in r]))
    return [trivial] + rest


def _certify_abelian(table):
    """The exact check of an abelian G's table, in place of `_verify_table`;
    raises InternalInconsistency on any failure.

    Each stored value is read back as a root of unity zeta_e^x, so each row
    is a map x: G -> Z/e.  Every row must be a homomorphism,
    x(rep_c g) = x(rep_c) + x(g) for each class c and generator g, and the
    |G| rows must be distinct.  An abelian group of order n has exactly n
    homomorphisms to C^x (Serre 1977, section 3.1), so the rows are all of
    Irr(G): both orthogonality relations and the degree identities follow,
    and each value is tied to its own element, which they do not ensure.
    """
    G = table.group
    cd = table.classes
    e = table.exponent
    n = G.order
    if len(cd) != n or any(s != 1 for s in cd.sizes) or len(table.values) != n:
        raise InternalInconsistency("abelian table is not one class and one row per element")
    if table.degrees != (1,) * n or any(len(row) != n for row in table.values):
        raise InternalInconsistency("abelian table has a degree other than 1 or a short row")
    distinct = {}  # id -> value, each value object once
    for row in table.values:
        distinct.update(zip(map(id, row), row))
    roots = {}  # conductor -> {coefficients: exponent of zeta_e}
    exponent = {}
    for i, v in distinct.items():
        if v.conductor not in roots:
            roots[v.conductor] = _roots_of_unity(v.conductor, e)
        exponent[i] = roots[v.conductor].get(v.coeffs)
        if exponent[i] is None:
            raise InternalInconsistency(f"{v} is not a root of unity of order dividing {e}")
    rows = [tuple(map(exponent.__getitem__, map(id, row))) for row in table.values]
    at = cd.class_of_index
    for g in G.generator_indices:
        times_g = [at[G.mult(r, g)] for r in cd.rep_indices]
        c = at[g]
        for x in rows:
            # exponents lie in [0, e), so a difference is x(g) or x(g) - e
            if not set(map(sub, map(x.__getitem__, times_g), x)) <= {x[c], x[c] - e}:
                raise InternalInconsistency("abelian table row is not a homomorphism")
    if len(set(rows)) != n:
        raise InternalInconsistency("abelian table repeats a row")


def _roots_of_unity(c, e):
    """{coefficients: x} over the roots of unity zeta_e^x stored at conductor
    c: the +-zeta_c^j of Q(zeta_c), the negatives only when e is even.  Empty
    unless c divides e, as the conductor of every table value does."""
    out = {}
    if e % c == 0:
        for j in range(c):
            z = Cyclotomic.zeta(c, j)
            out[z.coeffs] = j * (e // c)
            if e % 2 == 0:
                out[(-z).coeffs] = (j * (e // c) + e // 2) % e
    return out


def _verify_table(table):
    """All exact invariants; raises InternalInconsistency on any failure."""
    G = table.group
    cd = table.classes
    k = table.k
    n = G.order
    degrees = table.degrees
    if sum(d * d for d in degrees) != n:
        raise InternalInconsistency("degree squares do not sum to the group order")
    for d in degrees:
        if d <= 0 or n % d != 0:
            raise InternalInconsistency(f"bad degree {d}")
    vals = table.values
    conj = table.conj_values()
    upper = [(r, s) for r in range(k) for s in range(r, k)]
    for (r, s), total in zip(upper, cyc_gram(vals, conj, cd.sizes, upper)):
        if total != (n if r == s else 0):
            raise InternalInconsistency(f"row orthogonality failed at ({r},{s})")
    columns = cyc_gram(tuple(zip(*vals)), tuple(zip(*conj)), (1,) * k, upper)
    for (j, m), total in zip(upper, columns):
        if total != (cd.centralizer_orders[j] if j == m else 0):
            raise InternalInconsistency(f"column orthogonality failed at ({j},{m})")
    # |G| = T*b - [G:G']*(b-1) - sum over middle degrees of d*(b-d),
    # with the abelianization order taken from the derived subgroup.
    st = table_stats(table)
    ab = G.order // derived_order(G)
    if ab != sum(1 for d in degrees if d == 1):
        raise InternalInconsistency("linear character count != abelianization order")
    mid = sum(d * (st.b - d) for d in degrees if 1 < d < st.b)
    if n != st.T * st.b - ab * (st.b - 1) - mid:
        raise InternalInconsistency("degree-sum identity failed")
    if (n == st.T * st.b) != G.is_abelian():
        raise InternalInconsistency("abelian equality case failed")
