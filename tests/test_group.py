import pytest

from helpers import brute_conjugacy_partition, brute_core, group, subgroup_of_order

from frobgraph.errors import DeskScaleExceeded
from frobgraph.group import (
    conjugacy_classes,
    core,
    coset_action,
    derived_subgroup,
    group_from_generators,
    is_solvable,
    normalizer,
    orbit,
    subgroups_conjugate,
)
from frobgraph.perm import Permutation


def test_group_from_generators_s3():
    G = group_from_generators(
        3,
        [Permutation.from_cycles(3, [(0, 1)]), Permutation.from_cycles(3, [(0, 1, 2)])],
    )
    assert G.order == 6


def test_trivial_group():
    G = group_from_generators(1, [])
    assert G.order == 1 and G.elements[0].is_identity()


def test_agl17_order():
    # translation x -> x+1 and scaling x -> 3x on GF(7); order q(q-1) = 42
    t = Permutation(tuple((x + 1) % 7 for x in range(7)))
    s = Permutation(tuple((3 * x) % 7 for x in range(7)))
    G = group_from_generators(7, [t, s])
    assert G.order == 42


def test_order_cap_enforced():
    gens = [
        Permutation.from_cycles(6, [(0, 1)]),
        Permutation.from_cycles(6, [tuple(range(6))]),
    ]
    with pytest.raises(DeskScaleExceeded):
        group_from_generators(6, gens, order_cap=100)


def test_orbit_cap_start_and_order():
    step = lambda x: (x + 3) % 12  # orbit of 1 is {1, 4, 7, 10}
    assert orbit(1, [step]) == [1, 4, 7, 10]
    assert orbit(1, [step], cap=4) == [1, 4, 7, 10]
    assert orbit(1, [step], cap=3) is None
    assert orbit(5, []) == [5]
    # breadth first: both neighbours of the start come before distance two
    assert orbit(0, [lambda x: (x + 1) % 6, lambda x: (x - 1) % 6]) == [0, 1, 5, 2, 4, 3]


def test_orbit_partition_matches_conjugacy_classes_s4():
    G = group("S4")
    steps = [lambda x, g=g: G.conj(g, x) for g in G.generator_indices]
    parts = []
    for x in range(G.order):
        if not any(x in p for p in parts):
            parts.append(set(orbit(x, steps)))
    cd = conjugacy_classes(G)
    assert [sorted(p) for p in parts] == [list(m) for m in cd.members]
    assert [min(p) for p in parts] == list(cd.rep_indices)


def test_conjugacy_classes_against_brute_force():
    for name, want in (("S3", {1, 3, 2}), ("C4", {1}), ("A5", {1, 15, 20, 12, 12})):
        G = group(name)
        cd = conjugacy_classes(G)
        brute = brute_conjugacy_partition(G)
        assert sorted(cd.sizes) == sorted(len(c) for c in brute)
        if name == "S3":
            assert set(cd.sizes) == want
        assert sum(cd.sizes) == G.order
        assert all(G.order % s == 0 for s in cd.sizes)
        # canonical representatives are the least member of each class
        for rep, members in zip(cd.rep_indices, cd.members):
            assert rep == min(members)


def test_class_data_invariants():
    G = group("S4")
    cd = conjugacy_classes(G)
    assert cd.class_of_index[0] == 0 and cd.sizes[0] == 1
    for i in range(len(cd)):
        assert cd.sizes[i] * cd.centralizer_orders[i] == G.order
        rep = cd.rep_indices[i]
        for t, cls in enumerate(cd.power_map[i]):
            assert cd.class_of_index[G.power(rep, t)] == cls


def test_core_normal_subgroup_is_itself():
    A4 = group("A4")
    V4 = subgroup_of_order(A4, 4)
    assert V4.is_normal()
    assert core(A4, V4).indices == V4.indices


def test_core_point_stabilizer_s3():
    S3 = group("S3")
    H = S3.subgroup([Permutation.from_cycles(3, [(0, 1)])])
    K = core(S3, H)
    assert K.order == 1
    assert K.indices == brute_core(S3, H)


def test_core_d12_sylow2():
    D12 = group("Named:D12")
    H = subgroup_of_order(D12, 4)
    K = core(D12, H)
    assert K.order == 2
    assert K.indices == brute_core(D12, H)


def test_coset_action_whole_and_trivial():
    S3 = group("S3")
    act = coset_action(S3, S3.whole_subgroup())
    assert act.image.order == 1
    act = coset_action(S3, S3.trivial_subgroup())
    assert act.image.order == 6 and act.image.degree == 6
    assert act.kernel.order == 1


def test_coset_action_a4_c2():
    A4 = group("A4")
    C2 = subgroup_of_order(A4, 2)
    act = coset_action(A4, C2)
    assert act.image.degree == 6
    assert act.image.order == 12  # faithful because the core is trivial
    assert act.kernel.order == 1


def test_coset_action_kernel_equals_core():
    for name in ("S4", "Named:D12", "A4"):
        G = group(name)
        from frobgraph.subgroups import enumerate_subgroup_classes

        for cls in enumerate_subgroup_classes(G):
            act = coset_action(G, cls.rep)
            assert act.kernel.indices == core(G, cls.rep).indices
            assert act.image.order * act.kernel.order == G.order


def test_normalizer_examples():
    S3 = group("S3")
    H = S3.subgroup([Permutation.from_cycles(3, [(0, 1)])])
    assert normalizer(S3, H).indices == H.indices
    A5 = group("A5")
    C5 = subgroup_of_order(A5, 5)
    assert normalizer(A5, C5).order == 10
    A4 = group("A4")
    V4 = subgroup_of_order(A4, 4)
    assert normalizer(A4, V4).order == 12


def test_derived_subgroup():
    assert derived_subgroup(group("C12")).order == 1
    D = derived_subgroup(group("S3"))
    assert D.order == 3
    assert derived_subgroup(group("A4")).order == 4
    assert derived_subgroup(group("A5")).order == 60


def test_solvability():
    assert is_solvable(group("S4"))
    assert not is_solvable(group("A5"))
    assert not is_solvable(group("SL2:5"))


def test_subgroups_conjugate():
    S3 = group("S3")
    H1 = S3.subgroup([Permutation.from_cycles(3, [(0, 1)])])
    H2 = S3.subgroup([Permutation.from_cycles(3, [(1, 2)])])
    ok, g = subgroups_conjugate(S3, H1, H1)
    assert ok and g.is_identity()
    ok, g = subgroups_conjugate(S3, H1, H2)
    assert ok
    gi = S3.index[g.images]
    assert {S3.conj(gi, h) for h in H1.indices} == set(H2.indices)
    # different cycle types can never be conjugate
    S4 = group("S4")
    A = S4.subgroup([Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    B = S4.subgroup([Permutation.from_cycles(4, [(0, 1)])])
    ok, g = subgroups_conjugate(S4, A, B)
    assert not ok and g is None


def test_subgroups_conjugate_is_equivalence():
    from frobgraph.subgroups import enumerate_subgroup_classes

    S4 = group("S4")
    reps = [c.rep for c in enumerate_subgroup_classes(S4) if c.order == 2]
    for a in reps:
        assert subgroups_conjugate(S4, a, a)[0]
        for b in reps:
            ab = subgroups_conjugate(S4, a, b)[0]
            assert ab == subgroups_conjugate(S4, b, a)[0]
            for c in reps:
                if ab and subgroups_conjugate(S4, b, c)[0]:
                    assert subgroups_conjugate(S4, a, c)[0]
