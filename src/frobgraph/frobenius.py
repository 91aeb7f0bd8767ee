"""Restriction/induction bookkeeping: the Frobenius matrix and its predicates.

M = F(G, H) has rows indexed by the irreducible characters of H and columns
by those of G; the (phi, chi) entry is the multiplicity of phi in the
restriction of chi, which by Frobenius reciprocity is also the multiplicity
of chi in the induced character phi^G.  S = M M^T collects the inner
products of induced characters; the same numbers recomputed through the
double-coset (Mackey) sum serve as an independent oracle.

M is one `cyc_gram` batch: each distinct restricted column chi|_H against
every conj(phi), so characters of G that agree on H cost one column.  The
Mackey summands are one batch per double coset over the pairs of Irr(H),
with repeated class pairs of the intersection folded into weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul

from .chartab import character_table
from .cyclo import cyc_gram
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
    # chi restricted to H: one column per distinct tuple of shared value objects
    position = {}
    cols = []
    column_of = []
    for chi in tG.values:
        col = tuple(chi[f] for f in fuse)
        key = tuple(map(id, col))
        if key not in position:
            position[key] = len(cols)
            cols.append(col)
        column_of.append(position[key])
    nc = len(cols)
    pairs = [(c, r) for r in range(kH) for c in range(nc)]
    values = []
    for t, total in enumerate(cyc_gram(cols, tH.conj_values(), tH.classes.sizes, pairs)):
        val, rem = divmod(total.to_rational_integer(), H.order)
        if rem or val < 0:
            r, c = divmod(t, nc)
            raise InternalInconsistency(
                f"non-integral or negative multiplicity at ({r},{column_of.index(c)})"
            )
        values.append(val)
    entries = [tuple(values[r * nc + c] for c in column_of) for r in range(kH)]
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
    rows = tuple(tuple(sum(map(mul, a, b)) for b in M.entries) for a in M.entries)
    for i in range(M.n_rows):
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


def _mackey_sums(G, H, pairs):
    """[phi_r^G, phi_s^G] for each (r, s) in pairs, as double-coset sums.

    Each double coset is one batch over the pairs: its intersection pairs
    (x, g x g^-1), folded to H-class pairs weighted by their count, are the
    columns, and every summand is checked to be an integer."""
    tH = character_table(H.as_group())
    totals = [0] * len(pairs)
    for members in _mackey_intersections(G, H):
        folded = Counter(members)
        rows_a = [[phi[cx] for cx, _ in folded] for phi in tH.values]
        rows_b = [[psi[cy] for _, cy in folded] for psi in tH.conj_values()]
        summands = cyc_gram(rows_a, rows_b, tuple(folded.values()), pairs)
        for t, summand in enumerate(summands):
            val, rem = divmod(summand.to_rational_integer(), len(members))
            if rem:
                raise InternalInconsistency("Mackey summand is not an integer")
            totals[t] += val
    return zip(pairs, totals)


@kept_on("_mackey_totals")
def _mackey_totals(H):
    """The Mackey totals computed so far, by ordered pair (`kept_on` the
    subgroup)."""
    return {}


def mackey_inner_product(G, H, phi_idx, psi_idx):
    """[phi^G, psi^G] as the double-coset sum of intersection inner products.

    For each representative g the summand is the inner product, over
    I = H^g n H, of phi with the conjugated psi; this never touches M and is
    the independent oracle for the entries of S = M M^T.  The pairs with
    phi <= psi are one batch and those with phi > psi another, each computed
    on first use: a check of the symmetric S usually reads one triangle.
    """
    k = frobenius_matrix(G, H).n_rows
    r, s = range(k)[phi_idx], range(k)[psi_idx]
    totals = _mackey_totals(H)
    if (r, s) not in totals:
        half = [(a, b) for a in range(k) for b in range(k) if (a <= b) == (r <= s)]
        totals.update(_mackey_sums(G, H, half))
    return totals[r, s]


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
