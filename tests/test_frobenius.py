from collections import Counter

import pytest

from helpers import group, subgroup_of_order, tampered_table

import frobgraph.frobenius as frobenius
from frobgraph.chartab import character_table
from frobgraph.cyclo import Cyclotomic, cyc_gram, cyc_sum
from frobgraph.errors import InternalInconsistency, NotProper
from frobgraph.frobenius import (
    _mackey_intersections,
    _mackey_sums,
    bii_shortcuts,
    double_coset_reps,
    frobenius_matrix,
    fusion_map,
    induced_gram,
    is_diameter_three,
    is_rich,
    mackey_inner_product,
    permutation_character,
    satisfies_bii,
)
from frobgraph.group import core, coset_action, normalizer
from frobgraph.perm import Permutation
from frobgraph.subgroups import enumerate_subgroup_classes


def s2_in_s3():
    S3 = group("S3")
    return S3, S3.subgroup([Permutation.from_cycles(3, [(0, 1)])])


def test_fusion_identity_when_h_is_g():
    S3 = group("S3")
    H = S3.whole_subgroup()
    tG = character_table(S3)
    fuse = fusion_map(S3, H, tG, character_table(H.as_group()))
    assert list(fuse) == list(range(3))


def test_fusion_s2_in_s3():
    S3, H = s2_in_s3()
    tG = character_table(S3)
    tH = character_table(H.as_group())
    fuse = fusion_map(S3, H, tG, tH)
    transp_g = tG.classes.class_of(Permutation.from_cycles(3, [(0, 1)]))
    assert fuse[1] == transp_g


def test_fusion_c2_in_a4():
    A4 = group("A4")
    H = subgroup_of_order(A4, 2)
    tG = character_table(A4)
    tH = character_table(H.as_group())
    fuse = fusion_map(A4, H, tG, tH)
    # the nonidentity class lands in the double-transposition class (size 3)
    assert tG.classes.sizes[fuse[1]] == 3


def test_matrix_trivial_subgroup_is_degree_row():
    S3 = group("S3")
    M = frobenius_matrix(S3, S3.trivial_subgroup())
    assert M.entries == (tuple(character_table(S3).degrees),)


def test_matrix_whole_subgroup_is_identity():
    S4 = group("S4")
    M = frobenius_matrix(S4, S4.whole_subgroup())
    k = M.n_cols
    assert M.entries == tuple(
        tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
    )


def test_matrix_s2_in_s3_by_direct_summation():
    S3, H = s2_in_s3()
    M = frobenius_matrix(S3, H)
    # oracle: sum chi(h) * phi(h^-1-ish) directly over the two elements of H
    tG = character_table(S3)
    tH = character_table(H.as_group())
    HG = H.as_group()
    for r in range(2):
        for c in range(3):
            total = cyc_sum(
                tG.values[c][tG.classes.class_of(p)]
                * tH.values[r][tH.classes.class_of(p)].conjugate()
                for p in map(Permutation, HG.elements)
            )
            assert total.to_rational_integer() == 2 * M.entries[r][c]
    assert sorted(M.entries) == sorted([(1, 0, 1), (0, 1, 1)])


def test_permutation_character_examples():
    S3, H = s2_in_s3()
    assert permutation_character(S3, S3.whole_subgroup()) == (1, 0, 0)
    assert permutation_character(S3, H) == (1, 0, 1)
    G351 = group("Named:G351")
    H9 = subgroup_of_order(G351, 9)
    assert permutation_character(G351, H9) == (1,) * 15


def test_permutation_character_against_fixed_cosets():
    # reciprocity oracle: multiplicities of 1_H^G from fixed points of the
    # coset action, decomposed with plain character inner products
    for name, order in (("S4", 6), ("A5", 10), ("Named:D12", 4)):
        G = group(name)
        H = subgroup_of_order(G, order)
        act = coset_action(G, H)
        tG = character_table(G)
        cd = tG.classes
        fixed = []
        for rep in cd.rep_indices:
            img = act.image_of(rep)
            fixed.append(sum(1 for i, v in enumerate(img.images) if v == i))
        mults = []
        for row, conj in zip(tG.values, tG.conj_values()):
            tot = cyc_sum(fixed[i] * conj[i] * cd.sizes[i] for i in range(tG.k))
            val, rem = divmod(tot.to_rational_integer(), G.order)
            assert rem == 0
            mults.append(val)
        assert tuple(mults) == permutation_character(G, H)


def test_induced_gram_examples():
    S3, H = s2_in_s3()
    S = induced_gram(frobenius_matrix(S3, H))
    assert S.entries == ((2, 1), (1, 2))
    M = frobenius_matrix(S3, S3.trivial_subgroup())
    assert induced_gram(M).entries == ((6,),)


def test_mackey_examples():
    S3, H = s2_in_s3()
    # phi = psi = trivial: number of H-H double cosets
    assert mackey_inner_product(S3, H, 0, 0) == len(double_coset_reps(S3, H)) == 2
    assert mackey_inner_product(S3, H, 0, 1) == 1


def test_mackey_oracle_builds_no_frobenius_matrix():
    S4 = group("S4")
    H = S4.subgroup([Permutation.from_cycles(4, [(0, 1, 2)]), Permutation.from_cycles(4, [(0, 1)])])
    assert H.order == 6
    assert mackey_inner_product(S4, H, 0, 0) == len(double_coset_reps(S4, H)) == 2
    assert "_fmatrix" not in H.__dict__


def test_mackey_equals_gram_small_sweep():
    from frobgraph.subgroups import enumerate_subgroup_classes

    for name in ("S4", "A4", "Named:D12", "SL2:3"):
        G = group(name)
        for cls in enumerate_subgroup_classes(G):
            if cls.rep.is_whole():
                continue
            S = induced_gram(frobenius_matrix(G, cls.rep))
            k = len(S.entries)
            for i in range(k):
                for j in range(k):
                    assert mackey_inner_product(G, cls.rep, i, j) == S.entries[i][j]


def _gram_per_double_coset(G, H, pairs):
    """Reference Mackey sums: one cyc_gram per double coset, none shared and
    no summand read off a permutation of Irr(H)."""
    tH = character_table(H.as_group())
    totals = [0] * len(pairs)
    for members in _mackey_intersections(G, H):
        folded = Counter(members)
        rows_a = [[phi[cx] for cx, _ in folded] for phi in tH.values]
        rows_b = [[psi[cy] for _, cy in folded] for psi in tH.conj_values()]
        summands = cyc_gram(rows_a, rows_b, tuple(folded.values()), pairs)
        for t, summand in enumerate(summands):
            val, rem = divmod(summand.to_rational_integer(), len(members))
            assert rem == 0
            totals[t] += val
    return list(zip(pairs, totals))


def test_mackey_sums_match_one_gram_per_double_coset():
    kinds = set()
    for name in ("Named:G351", "AGL1:13", "SL2:7", "PSL2:11", "S4", "A5"):
        G = group(name)
        for cls in enumerate_subgroup_classes(G):
            H = cls.rep
            if H.is_whole():
                continue
            kinds.add("trivial" if H.is_trivial() else "normal" if H.is_normal() else
                      "self-normalizing" if normalizer(G, H).order == H.order else "other")
            k = character_table(H.as_group()).k
            for lower in (False, True):
                pairs = [(r, s) for r in range(k) for s in range(k) if (r > s) == lower]
                expected = _gram_per_double_coset(G, H, pairs)
                assert list(_mackey_sums(G, H, pairs)) == expected, (name, H.order)
    assert kinds == {"trivial", "normal", "self-normalizing", "other"}


def _with_h_table(monkeypatch, H, table):
    HG = H.as_group()
    real = frobenius.character_table
    monkeypatch.setattr(frobenius, "character_table", lambda X: table if X is HG else real(X))


def test_mackey_refuses_a_permuted_row_missing_from_the_table(monkeypatch):
    # A3 in S3: a transposition normalizes it and swaps the two classes of
    # 3-cycles, so it sends the row of omega to that of omega^2; with that
    # row overwritten by the row of omega, the image is not in the table
    S3 = group("S3")
    H = subgroup_of_order(S3, 3)
    t = character_table(H.as_group())
    _with_h_table(monkeypatch, H, tampered_table(t, 2, t.values[1]))
    with pytest.raises(InternalInconsistency, match="permuted character row not in table"):
        list(_mackey_sums(S3, H, [(0, 0), (1, 2)]))


def test_mackey_refuses_a_non_integral_summand_off_the_normalizer(monkeypatch):
    # S3 in S4 is self-normalizing and meets its other conjugates in order 2;
    # the sign character with 0 at the transpositions has norm 1/2 there
    S4 = group("S4")
    H = subgroup_of_order(S4, 6)
    t = character_table(H.as_group())
    sign = next(r for r in range(1, t.k) if t.degrees[r] == 1)
    c = t.classes.element_orders.index(2)
    row = list(t.values[sign])
    row[c] = Cyclotomic.from_int(0)
    _with_h_table(monkeypatch, H, tampered_table(t, sign, row))
    assert sorted(map(len, _mackey_intersections(S4, H))) == [2, 6]
    with pytest.raises(InternalInconsistency, match="not an integer"):
        list(_mackey_sums(S4, H, [(sign, sign)]))


def test_is_rich_examples():
    A4 = group("A4")
    assert is_rich(A4, subgroup_of_order(A4, 2)).ok
    S3, H = s2_in_s3()
    v = is_rich(S3, H)
    assert not v.ok and v.witness is not None
    G351 = group("Named:G351")
    assert is_rich(G351, subgroup_of_order(G351, 9)).ok


def test_is_rich_rejects_whole_group():
    S3 = group("S3")
    with pytest.raises(NotProper):
        is_rich(S3, S3.whole_subgroup())


def test_bii_examples():
    S3, H = s2_in_s3()
    assert satisfies_bii(S3, H).ok
    G351 = group("Named:G351")
    v = satisfies_bii(G351, subgroup_of_order(G351, 9))
    assert not v.ok
    assert satisfies_bii(S3, S3.trivial_subgroup()).ok


def test_g351_bii_witness_is_the_three_chi_pair():
    G351 = group("Named:G351")
    H = subgroup_of_order(G351, 9)
    M = frobenius_matrix(G351, H)
    i, j = satisfies_bii(G351, H).witness
    deg13 = [c for c, d in enumerate(M.table_g.degrees) if d == 13]
    rows = sorted((M.row(i), M.row(j)))
    for row in rows:
        support = [c for c, v in enumerate(row) if v]
        assert len(support) == 1 and support[0] in deg13
        assert row[support[0]] == 3


def test_is_diameter_three():
    A4 = group("A4")
    assert is_diameter_three(A4, subgroup_of_order(A4, 2)).ok
    G351 = group("Named:G351")
    assert not is_diameter_three(G351, subgroup_of_order(G351, 9)).ok
    S3 = group("S3")
    assert not is_diameter_three(S3, S3.trivial_subgroup()).ok


def test_bii_shortcuts():
    A4 = group("A4")
    sc = bii_shortcuts(A4, subgroup_of_order(A4, 2))
    assert sc.trivial_intersection or sc.transitive_normalizer
    # a non-normal S3 inside S3 x S3: neither shortcut applies, yet the
    # condition itself holds (conjugates meet in order 2 or 3)
    G = group("S3xS3")
    from frobgraph.subgroups import enumerate_subgroup_classes

    diag = None
    for cls in enumerate_subgroup_classes(G):
        if cls.order == 6 and not cls.rep.is_normal():
            H = cls.rep
            if H.as_group().is_abelian() or core(G, H).order > 1:
                continue
            diag = H
            break
    assert diag is not None
    sc = bii_shortcuts(G, diag)
    assert not sc.trivial_intersection and not sc.transitive_normalizer
    assert satisfies_bii(G, diag).ok
    assert core(G, diag).order == 1


def test_bii_shortcuts_whole_group():
    # H = G: the core is all of G, so the normalizer clause cannot fire, and
    # no conjugate meets H trivially
    S3 = group("S3")
    sc = bii_shortcuts(S3, S3.whole_subgroup())
    assert not sc.trivial_intersection and not sc.transitive_normalizer


def test_frobenius_reciprocity_by_direct_induction():
    # induce phi explicitly: phi^G(g) = (1/|H|) sum over x with x g x^-1 in H
    for name, horder in (("S4", 4), ("A4", 3)):
        G = group(name)
        H = subgroup_of_order(G, horder)
        M = frobenius_matrix(G, H)
        tG, tH = M.table_g, M.table_h
        hclass = {idx: tH.classes.class_of(Permutation(G.elements[idx])) for idx in H.indices}
        for r in range(tH.k):
            induced = []
            for rep in tG.classes.rep_indices:
                tot = cyc_sum(
                    tH.values[r][hclass[G.conj(x, rep)]]
                    for x in range(G.order)
                    if G.conj(x, rep) in H.indices
                )
                induced.append(tot)
            for c in range(tG.k):
                tot = cyc_sum(
                    induced[i] * tG.conj_values()[c][i] * tG.classes.sizes[i]
                    for i in range(tG.k)
                )
                num = tot.to_rational_integer()
                assert num % (G.order * H.order) == 0
                assert num // (G.order * H.order) == M.entries[r][c]


def test_richness_passes_to_factor_subgroups():
    # if G = HU and H is rich in G, then U n H is rich in U
    from frobgraph.subgroups import classify_subgroups, enumerate_subgroup_classes

    triples = 0
    for name in ("A4", "S4", "A5", "Named:G80", "AGL1:8"):
        G = group(name)
        rich = [
            r.subgroup
            for r in classify_subgroups(G).rows
            if r.is_rich and r.order > 1
        ]
        for H in rich:
            for cls in enumerate_subgroup_classes(G):
                U = cls.rep
                inter = U.indices & H.indices
                if U.order * H.order != G.order * len(inter):
                    continue  # HU is not all of G
                if U.order == 1:
                    continue
                UG = U.as_group()
                sub = UG.subgroup([Permutation(G.elements[i]) for i in inter])
                if sub.order == UG.order:
                    continue
                assert is_rich(UG, sub).ok, (name, H.order, U.order)
                triples += 1
    assert triples > 5


def test_richness_passes_to_quotients():
    # if H is rich in G and N is a proper normal subgroup, the image of H is
    # a proper rich subgroup of G/N
    from frobgraph.subgroups import classify_subgroups, enumerate_subgroup_classes

    checked = 0
    for name in ("A4", "S4", "C2xA4", "Named:G80", "AGL1:8"):
        G = group(name)
        rich = [
            r.subgroup
            for r in classify_subgroups(G).rows
            if r.is_rich and r.order > 1
        ]
        normals = [
            c.rep
            for c in enumerate_subgroup_classes(G)
            if c.rep.is_normal() and 1 < c.order < G.order
        ]
        for H in rich:
            for N in normals:
                act = coset_action(G, N)
                Q = act.image
                image = act.image_subgroup(H.sorted_indices())
                assert image.order < Q.order  # rich subgroups are core-free
                assert is_rich(Q, image).ok, (name, H.order, N.order)
                checked += 1
    assert checked > 5


def test_burnside_rank_via_coset_orbits():
    # S[0][0] equals the number of H-orbits on the cosets of H
    for name, horder in (("S5", 24), ("A5", 12), ("Named:G80", 4)):
        G = group(name)
        H = subgroup_of_order(G, horder)
        S = induced_gram(frobenius_matrix(G, H))
        act = coset_action(G, H)
        seen = set()
        orbits = 0
        for c in range(len(act.coset_reps)):
            if c in seen:
                continue
            orbits += 1
            stack = [c]
            seen.add(c)
            while stack:
                cur = stack.pop()
                for h in H.generator_indices:
                    nxt = act.coset_of[G.mult(h, act.coset_reps[cur])]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        assert S.entries[0][0] == orbits == len(double_coset_reps(G, H))
