"""Reproductions of the small-group survey tables.

Three sweeps: classification rows for small simple groups, the census of
groups with a nontrivial rich subgroup of index at most 45 (restricted to
the cataloged constructions), and the minimal-with-a-rich-subgroup rows.
"""

import pytest

from helpers import group

from frobgraph.frobenius import (
    frobenius_matrix,
    induced_gram,
    is_diameter_three,
    is_rich,
    permutation_character,
)
from frobgraph.chartab import character_table, table_stats
from frobgraph.subgroups import (
    classify_subgroups,
    enumerate_subgroup_classes,
    has_diameter_three_subgroup,
    is_minimal_rich_group,
)

# (n, g, m) classification rows plus the orders of the inclusion-maximal
# rich classes, for the simple groups within desk scale
SIMPLE_GROUP_ROWS = {
    "A5": (9, 2, 2, [2, 3]),
    "PSL3:2": (15, 3, 2, [3, 4]),
    "A6": (22, 9, 6, [4, 4, 4, 5, 6, 6]),
    "PSL2:8": (12, 4, 3, [3, 4, 7]),
    "PSL2:11": (16, 7, 5, [4, 5, 6, 6, 6]),
    "PSL2:13": (16, 7, 5, [4, 6, 6, 6, 7]),
}


def test_simple_group_classification_rows():
    for name, (n, g, m, maximal) in SIMPLE_GROUP_ROWS.items():
        rep = classify_subgroups(group(name))
        assert (rep.n, rep.g, rep.m) == (n, g, m), name
        assert rep.maximal_rich_orders == maximal, name
        # in all of these, every rich subgroup is a diameter-3 subgroup
        assert all(r.is_diam3 for r in rep.rows if r.is_rich and r.order > 1), name


# groups with a nontrivial rich subgroup of index <= 45, restricted to the
# constructible ones: spec -> set of (index, is_diameter_three) pairs.
# The census is complete for each listed group: rich classes at index <= 45
# beyond the listed pairs would be a failure.
SMALL_INDEX_RICH = {
    "A4": {(6, True)},
    "S4": {(12, True)},
    "C2xA4": {(12, True)},
    "AGL1:8": {(14, True), (28, True)},
    "Named:V9C2x2": {(18, True)},
    "C3xA4": {(18, True)},
    "A5": {(20, True), (30, True)},
    "Named:G80": {(20, True), (40, True)},
    "AGL1:9": {(24, True)},
    "C2xS4": {(24, True)},
    "EA:2:2xA4": {(24, True)},
    "C5xA4": {(30, True)},
    "AGL1:16": {(30, True)},
    "C2xNamed:V9C2x2": {(36, True)},
    "C3xS4": {(36, True)},
    "A4xS3": {(36, True)},
    "C6xA4": {(36, True)},
    "A4xA4": {(36, True)},
    "Named:G351": {(39, False)},
    "S5": {(40, True)},
    "C2xA5": {(40, True)},
    "C2xNamed:G80": {(40, True)},
    "C7xA4": {(42, True)},
    "PSL3:2": {(42, True)},
    "C3xAGL1:8": {(42, True)},
    "C2xAGL1:8": {(28, True)},
}


def test_small_index_rich_census():
    for name, expected in SMALL_INDEX_RICH.items():
        G = group(name)
        found = set()
        for cls in enumerate_subgroup_classes(G):
            H = cls.rep
            if H.order == 1 or H.is_whole():
                continue
            index = G.order // H.order
            if index > 45:
                continue
            if is_rich(G, H).ok:
                found.add((index, is_diameter_three(G, H).ok))
        assert found == expected, (name, found)


# minimal-with-a-nontrivial-rich-subgroup verdicts; the False rows contain a
# smaller cataloged group from the True rows
MINIMAL_ROWS = {
    "A4": True,
    "AGL1:8": True,          # 2^3:7
    "AGL1:9": True,          # 3^2:8
    "Named:G80": True,       # 2^4:5
    "SL2:7": True,
    "Named:G351": True,      # 3^3:13
    "AGL1:25": True,         # 5^2:24
    "AGL1:49:16": True,      # 7^2:16
    "AGL1:32": True,         # 2^5:31
    "SL2:11": True,
    "A5": False,             # contains A4
    "S4": False,             # contains A4
    "AGL1:16": False,        # contains 2^4:5
    "AGL1:49": False,        # contains 7^2:16
}


def test_minimal_rich_group_rows():
    for name, want in MINIMAL_ROWS.items():
        assert is_minimal_rich_group(group(name)) == want, name


def test_sl2_family_small_orders():
    # quasisimple SL(2, q): a diameter-3 subgroup exists except at q = 5, 9;
    # for odd q it has order 3, for even q the group is simple and order 2
    # works
    assert has_diameter_three_subgroup(group("SL2:4")).ok
    assert not has_diameter_three_subgroup(group("SL2:5")).ok
    v = has_diameter_three_subgroup(group("SL2:7"))
    assert v.ok and v.witness.order == 3
    assert has_diameter_three_subgroup(group("SL2:8")).ok
    assert not has_diameter_three_subgroup(group("SL2:9")).ok
    v = has_diameter_three_subgroup(group("SL2:11"))
    assert v.ok and v.witness.order == 3
    # above the 2048 table cutoff
    for q in (13, 16, 17, 19):
        v = has_diameter_three_subgroup(group(f"SL2:{q}"))
        assert v.ok and v.witness.order == (2 if q % 2 == 0 else 3), q


@pytest.mark.parametrize(
    "name", ["PSL2:17", "A7", "PSL2:19", "PSL2:16", "PSL2:23", "PSL2:25", "PSL2:27"]
)
def test_diameter_three_above_the_table_cutoff(name):
    # orders 2448 to 9828, all of them above the 2048 table cutoff
    v = has_diameter_three_subgroup(group(name))
    assert v.ok and v.witness.order == 2


def test_agl1_343_19_has_diameter_three_despite_three_kernel_plane_classes():
    # the order 7^3 * 19 subgroup of AGL(1, 343): although its 57 kernel
    # planes fall into 3 conjugacy classes (so no single class covers every
    # nontrivial kernel character), an order-7 diameter-3 subgroup exists
    G = group("AGL1:343:19")
    assert G.order == 343 * 19
    t = character_table(G)
    assert sorted(set(t.degrees)) == [1, 19]
    assert t.degrees.count(1) == 19 and t.degrees.count(19) == 18
    # kernel elements are the translations; read the vector off image of 0
    from frobgraph.smallfield import gf

    F = gf(343)
    planes = set()
    nonzero = list(range(1, 343))
    for a in nonzero:
        for b in nonzero:
            span = frozenset(
                F.add(F.mul(x, a), F.mul(y, b)) for x in range(7) for y in range(7)
            )
            if len(span) == 49:
                planes.add(span)
    assert len(planes) == 57
    s = F.power(F.primitive, (343 - 1) // 19)  # the order-19 scaling
    orbits = 0
    seen = set()
    for pl in planes:
        if pl in seen:
            continue
        orbits += 1
        cur = pl
        while cur not in seen:
            seen.add(cur)
            cur = frozenset(F.mul(s, v) for v in cur)
    assert orbits == 3
    v = has_diameter_three_subgroup(G)
    assert v.ok and v.witness.order == 7


def test_agl1_even_char_extremal_subgroup():
    # in AGL(1, 2^n), a subgroup of half the kernel order is rich with
    # [G:H] = T(G): the largest order a rich subgroup can have; the rank of
    # the coset action then equals the class number
    for q in (8, 16):
        G = group(f"AGL1:{q}")
        st = table_stats(character_table(G))
        target = q // 2
        hits = [
            c.rep
            for c in enumerate_subgroup_classes(G)
            if c.order == target and is_rich(G, c.rep).ok
        ]
        assert hits, q
        H = hits[0]
        index = G.order // H.order
        assert index == st.T  # the least index a rich subgroup can have
        assert permutation_character(G, H) == (1,) * st.k
        S = induced_gram(frobenius_matrix(G, H))
        assert S.entries[0][0] == st.k
        assert is_diameter_three(G, H).ok
