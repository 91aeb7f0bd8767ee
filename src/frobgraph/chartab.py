"""Exact character tables via finite-field eigenspace splitting.

Pipeline: pick a prime p = 1 (mod exponent) with p > 2*floor(sqrt(|G|)),
split F_p^k into the common eigenspaces of the class-sum matrices, read the
central characters off the one-dimensional pieces, recover degrees from the
orthogonality normalization mod p, and lift each value to Z[zeta] through
root-of-unity multiplicities.  The bound on p makes every multiplicity and
degree smaller than p/2, so the lift is unique.  The finished table is
re-verified exactly before it is returned; nothing downstream ever sees an
unchecked table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

from .cyclo import Cyclotomic, _prime_factors, cyc_sum, is_prime
from .errors import InternalInconsistency
from .group import conjugacy_classes, derived_subgroup

# ----------------------------------------------------------------------
# class multiplication coefficients


def class_multiplication_coefficients(cd, i, j, k):
    """Number of ways x*y = rep_k with x in class i, y in class j."""
    # every count is at most |G|, so the modulus leaves it unchanged
    return _class_matrix(cd, i, cd.group.order + 1)[j][k]


def _class_matrix(cd, i, p):
    """Matrix A with A[j][m] = a(i, j, m) reduced mod p.

    The common eigenvectors of these matrices over F_p are the central
    characters: A_i v = omega_i v with v_j = |C_j| chi(g_j) / chi(1).
    """
    G = cd.group
    k = len(cd)
    rows = [[0] * k for _ in range(k)]
    inv = G.inverse
    mult = G.mult
    cls = cd.class_of_index
    for m, t in enumerate(cd.rep_indices):
        for x in cd.members[i]:
            rows[cls[mult(inv(x), t)]][m] += 1
    return [[v % p for v in row] for row in rows]


# ----------------------------------------------------------------------
# small linear algebra over F_p


def _mat_vec(A, v, p):
    return [sum(a * x for a, x in zip(row, v)) % p for row in A]


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
    """All roots in F_p by direct scan (p stays small at desk scale)."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


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
    fac = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise InternalInconsistency(f"no primitive root mod {p}")


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
        self._conj_values = None

    @property
    def k(self):
        return len(self.degrees)

    def conj_values(self):
        if self._conj_values is None:
            self._conj_values = tuple(
                tuple(v.conjugate() for v in row) for row in self.values
            )
        return self._conj_values

    def stats(self):
        return TableStats(T=sum(self.degrees), k=self.k, b=max(self.degrees))

    def text(self):
        cd = self.classes
        head = ["class size"] + [str(s) for s in cd.sizes]
        head2 = ["elt order"] + [str(o) for o in cd.element_orders]
        rows = [head, head2]
        for i, row in enumerate(self.values):
            rows.append([f"X{i + 1}"] + [str(v) for v in row])
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
            "rows": [[str(v) for v in row] for row in self.values],
        }


def table_stats(table):
    return table.stats()


def character_table(G):
    """Exact character table of G (cached on the group)."""
    if G._chartable is not None:
        return G._chartable
    cd = conjugacy_classes(G)
    e = lcm(*cd.element_orders)
    p = dixon_prime(e, G.order)
    omega_vectors = _split_eigenspaces(cd, p)
    rows = [_lift_row(cd, v, e, p) for v in omega_vectors]
    rows = _order_rows(rows, e)
    degrees = tuple(r[0].to_rational_integer() for r in rows)
    table = CharacterTable(G, cd, e, tuple(tuple(r) for r in rows), degrees)
    _verify_table(table)
    G._chartable = table
    return table


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
    """One character row as exact cyclotomic values from its omega vector."""
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
        zn_inv = pow(zn, p - 2, p)
        n_inv = pow(n, p - 2, p)
        terms = {}
        for j in range(n):
            acc = 0
            zpow = 1
            zstep = pow(zn_inv, j, p)
            for t in range(n):
                acc = (acc + theta[cd.power_map[i][t]] * zpow) % p
                zpow = (zpow * zstep) % p
            m = (acc * n_inv) % p
            if m:
                if m > d:
                    raise InternalInconsistency("root-of-unity multiplicity too large")
                terms[j] = m
        if sum(terms.values()) != d:
            raise InternalInconsistency("multiplicities do not sum to the degree")
        row.append(Cyclotomic.from_terms(n, terms))
    return row


def _order_rows(rows, e):
    trivial = None
    rest = []
    for r in rows:
        if all(v == 1 for v in r):
            trivial = r
        else:
            rest.append(r)
    if trivial is None:
        raise InternalInconsistency("trivial character missing")
    rest.sort(key=lambda r: (r[0].to_rational_integer(), [v.key_at(e) for v in r]))
    return [trivial] + rest


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
    for r in range(k):
        for s in range(r, k):
            total = cyc_sum(
                vals[r][i] * conj[s][i] * cd.sizes[i] for i in range(k)
            )
            want = n if r == s else 0
            if total != want:
                raise InternalInconsistency(f"row orthogonality failed at ({r},{s})")
    for j in range(k):
        for m in range(j, k):
            total = cyc_sum(vals[r][j] * conj[r][m] for r in range(k))
            want = cd.centralizer_orders[j] if j == m else 0
            if total != want:
                raise InternalInconsistency(f"column orthogonality failed at ({j},{m})")
    # |G| = T*b - [G:G']*(b-1) - sum over middle degrees of d*(b-d),
    # with the abelianization order taken from the derived subgroup.
    st = table.stats()
    ab = G.order // derived_subgroup(G).order
    if ab != sum(1 for d in degrees if d == 1):
        raise InternalInconsistency("linear character count != abelianization order")
    mid = sum(d * (st.b - d) for d in degrees if 1 < d < st.b)
    if n != st.T * st.b - ab * (st.b - 1) - mid:
        raise InternalInconsistency("degree-sum identity failed")
    if (n == st.T * st.b) != G.is_abelian():
        raise InternalInconsistency("abelian equality case failed")
