"""Restriction/induction bookkeeping: the Frobenius matrix and its predicates.

M = F(G, H) has rows indexed by the irreducible characters of H and columns
by those of G; the (phi, chi) entry is the multiplicity of phi in the
restriction of chi, which by Frobenius reciprocity is also the multiplicity
of chi in the induced character phi^G.  S = M M^T collects the inner
products of induced characters; the same numbers recomputed through the
double-coset (Mackey) sum serve as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartab import character_table
from .cyclo import cyc_dot
from .errors import InternalInconsistency, NotProper
from .group import (
    conjugacy_classes,
    conjugations,
    core,
    kept_on,
    normalizer,
    orbit,
    orbit_partition,
    right_multiplications,
)


def fusion_map(G, H, tG, tH):
    """For each class of H, the index of the G-class containing it."""
    pos = H.sorted_indices()
    fuse = [tG.classes.class_of_index[pos[r]] for r in tH.classes.rep_indices]
    if fuse[0] != 0:
        raise InternalInconsistency("identity class did not fuse to identity")
    for hc, gc in enumerate(fuse):
        if tH.classes.element_orders[hc] != tG.classes.element_orders[gc]:
            raise InternalInconsistency("element order changed under fusion")
    return tuple(fuse)


@dataclass(frozen=True)
class FrobeniusMatrix:
    """Nonnegative integer matrix of restriction multiplicities."""

    group: object
    subgroup: object
    table_g: object
    table_h: object
    fusion: tuple
    entries: tuple  # rows = Irr(H), columns = Irr(G)

    @property
    def n_rows(self):
        return len(self.entries)

    @property
    def n_cols(self):
        return len(self.entries[0])

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def text(self):
        widths = [
            max(len(str(self.entries[r][c])) for r in range(self.n_rows))
            for c in range(self.n_cols)
        ]
        return "\n".join(
            "[" + " ".join(str(v).rjust(w) for v, w in zip(row, widths)) + "]"
            for row in self.entries
        )

    def to_json_dict(self):
        return {
            "rows": self.n_rows,
            "cols": self.n_cols,
            "row_degrees": list(self.table_h.degrees),
            "col_degrees": list(self.table_g.degrees),
            "entries": [list(r) for r in self.entries],
        }


@dataclass(frozen=True)
class InducedGram:
    """S = M M^T: inner products of induced characters over Irr(H)."""

    entries: tuple

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


@kept_on("_fmatrix")
def frobenius_matrix(G, H):
    """F(G, H), computed exactly and `kept_on` the subgroup object."""
    tG = character_table(G)
    HG = H.as_group()
    tH = character_table(HG)
    fuse = fusion_map(G, H, tG, tH)
    kH, kG = tH.k, tG.k
    sizes = tH.classes.sizes
    conj_h = tH.conj_values()
    entries = []
    for r in range(kH):
        row = []
        phi_conj = conj_h[r]
        for c in range(kG):
            chi = tG.values[c]
            total = cyc_dot((chi[fuse[hc]], phi_conj[hc], sizes[hc]) for hc in range(kH))
            num = total.to_rational_integer()
            val, rem = divmod(num, H.order)
            if rem or val < 0:
                raise InternalInconsistency(
                    f"non-integral or negative multiplicity at ({r},{c})"
                )
            row.append(val)
        entries.append(tuple(row))
    M = FrobeniusMatrix(G, H, tG, tH, fuse, tuple(entries))
    if M.entries[0][0] != 1:
        raise InternalInconsistency("trivial-on-trivial entry is not 1")
    for c in range(kG):
        if sum(entries[r][c] * tH.degrees[r] for r in range(kH)) != tG.degrees[c]:
            raise InternalInconsistency(f"degree bookkeeping failed in column {c}")
    return M


def permutation_character(G, H):
    """Multiplicities of each irreducible of G in the permutation character."""
    M = frobenius_matrix(G, H)
    mults = M.row(0)
    index = G.order // H.order
    if sum(m * d for m, d in zip(mults, M.table_g.degrees)) != index:
        raise InternalInconsistency("permutation character degree mismatch")
    return mults


def induced_gram(M):
    kH = M.n_rows
    rows = tuple(
        tuple(sum(M.entries[i][c] * M.entries[j][c] for c in range(M.n_cols))
              for j in range(kH))
        for i in range(kH)
    )
    for i in range(kH):
        if rows[i][i] < 1:
            raise InternalInconsistency("induced character with zero norm")
    return InducedGram(rows)


# ----------------------------------------------------------------------
# double cosets and the Mackey sum


def double_coset_reps(G, H):
    """Representatives of H\\G/H, least element of each coset first."""
    mult = G.mult
    steps = [lambda y, g=g: mult(g, y) for g in H.generator_indices]
    steps += right_multiplications(G, H.generator_indices)
    return [points[0] for points in orbit_partition(G.order, steps)]


@kept_on("_hclass_of")
def _hclass_of(H):
    """Map from parent element index to H-class index, for elements of H."""
    return dict(zip(H.sorted_indices(), conjugacy_classes(H.as_group()).class_of_index))


@kept_on("_mackey")
def _mackey_intersections(G, H):
    """Per double-coset representative, the pairs (x, g x g^-1) over H^g n H,
    already mapped to H-class indices (`kept_on` the subgroup)."""
    hclass = _hclass_of(H)
    data = []
    for g in double_coset_reps(G, H):
        members = []
        for x in H.indices:
            y = G.conj(g, x)
            if y in H.indices:
                members.append((hclass[x], hclass[y]))
        data.append(members)
    return data


def mackey_inner_product(G, H, phi_idx, psi_idx):
    """[phi^G, psi^G] as the double-coset sum of intersection inner products.

    For each representative g the summand is the inner product, over
    I = H^g n H, of phi with the conjugated psi; this never touches M and is
    the independent oracle for the entries of S = M M^T.
    """
    M = frobenius_matrix(G, H)
    tH = M.table_h
    phi = tH.values[phi_idx]
    psi_conj = tH.conj_values()[psi_idx]
    total = 0
    for members in _mackey_intersections(G, H):
        s = cyc_dot((phi[cx], psi_conj[cy], 1) for cx, cy in members)
        num = s.to_rational_integer()
        val, rem = divmod(num, len(members))
        if rem:
            raise InternalInconsistency("Mackey summand is not an integer")
        total += val
    return total


# ----------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class Verdict:
    """Boolean with an optional witness for the failing (or succeeding) case."""

    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def is_rich(G, H):
    """Every irreducible of G restricts to H with a trivial constituent.

    Only defined for proper subgroups; H = G raises NotProper rather than
    silently answering.
    """
    if H.order == G.order:
        raise NotProper("richness is defined for proper subgroups only")
    mults = frobenius_matrix(G, H).row(0)
    for c, m in enumerate(mults):
        if m == 0:
            return Verdict(False, witness=c)
    return Verdict(True)


def satisfies_bii(G, H):
    """All inner products of induced characters are nonzero."""
    S = induced_gram(frobenius_matrix(G, H))
    k = len(S.entries)
    for i in range(k):
        for j in range(i, k):
            if S.entries[i][j] == 0:
                return Verdict(False, witness=(i, j))
    return Verdict(True)


def is_diameter_three(G, H):
    """Nontrivial, proper, rich, and all induced inner products positive."""
    if H.order == 1 or H.order == G.order:
        return Verdict(False, witness="degenerate")
    rich = is_rich(G, H)
    if not rich:
        return Verdict(False, witness=("b(i)", rich.witness))
    bii = satisfies_bii(G, H)
    if not bii:
        return Verdict(False, witness=("b(ii)", bii.witness))
    return Verdict(True)


@dataclass(frozen=True)
class BiiShortcuts:
    trivial_intersection: bool
    transitive_normalizer: bool


def bii_shortcuts(G, H):
    """Two sufficient conditions for positivity of all induced inner products:
    some conjugate of H meets H trivially, or H is core-free with all its
    nontrivial elements conjugate under the normalizer.
    """
    trivial_int = any(len(m) == 1 for m in _mackey_intersections(G, H))
    transitive = False
    if not H.is_trivial() and core(G, H).order == 1:
        N = normalizer(G, H)
        nontrivial = set(H.indices) - {0}
        steps = conjugations(G, N.generator_indices)
        transitive = set(orbit(min(nontrivial), steps)) == nontrivial
    return BiiShortcuts(trivial_int, transitive)
