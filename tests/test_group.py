import pytest

from helpers import brute_conjugacy_partition, brute_core, group, subgroup_of_order

from frobgraph.catalog import construct, parse_group_spec
from frobgraph.errors import DeskScaleExceeded, InternalInconsistency
from frobgraph.group import (
    closure_indices,
    conjugacy_classes,
    conjugations,
    conjugators,
    core,
    coset_action,
    derived_subgroup,
    group_from_generators,
    is_solvable,
    normalizer,
    orbit,
    right_multiplications,
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


def test_degree_cap_binds_raw_input_only():
    with pytest.raises(DeskScaleExceeded, match="degree 129"):
        group_from_generators(129, [Permutation.from_cycles(129, [(0, 1)])])
    # catalog constructions carry their own degree past the cap
    C129 = construct(parse_group_spec("C129"))
    assert (C129.order, C129.degree) == (129, 129)


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
            acts_trivially = {
                g for g in range(G.order) if act.image_of(g).is_identity()
            }
            assert core(G, cls.rep).indices == acts_trivially
            assert act.image.order * act.kernel.order == G.order


def _assert_image_is_closure(G, H):
    """The counted image equals the closure of the generator images."""
    act = coset_action(G, H)
    degree = len(act.coset_reps)
    gens = [act.image_of(g) for g in G.generator_indices]
    closed = group_from_generators(degree, gens, order_cap=G.order, degree_cap=degree)
    assert act.image.elements == closed.elements
    assert act.image.generators == closed.generators
    assert act.image.generator_indices == closed.generator_indices


@pytest.mark.parametrize("name", ["S4", "A5", "Named:D12", "AGL1:9:4"])
def test_coset_action_image_equals_generator_closure(name):
    G, reps = _class_reps(name)
    for H in reps:
        _assert_image_is_closure(G, H)


def test_coset_action_image_equals_generator_closure_above_the_cutoff():
    G = group("PSL2:19")
    assert G.order > 2048
    _assert_image_is_closure(G, G.subgroup([G.generators[0]]))


def test_coset_action_order_check_reads_core(monkeypatch):
    A4 = group("A4")
    V4 = subgroup_of_order(A4, 4)
    monkeypatch.setattr("frobgraph.group.core", lambda G, H: G.trivial_subgroup())
    with pytest.raises(InternalInconsistency, match="image/kernel"):
        coset_action(A4, V4)


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


def _class_reps(name):
    from frobgraph.subgroups import enumerate_subgroup_classes

    G = group(name)
    return G, [c.rep for c in enumerate_subgroup_classes(G)]


def _conjugate_set(G, g, indices):
    """g S g^-1 from Permutation products, not from the index arithmetic."""
    p = G.elements[g]
    pinv = p.inverse()
    return frozenset(G.index[(p * G.elements[x] * pinv).images] for x in indices)


@pytest.mark.parametrize("name", ["S4", "A5", "AGL1:9:4"])
def test_conjugators_match_set_definitions(name):
    G, reps = _class_reps(name)
    for H in reps:
        stabilizer = {g for g in range(G.order) if _conjugate_set(G, g, H.indices) == H.indices}
        assert normalizer(G, H).indices == stabilizer
    elems = G.elements
    for x in range(G.order):
        commuting = [g for g in range(G.order) if elems[g] * elems[x] == elems[x] * elems[g]]
        assert list(conjugators(G, (x,), (x,))) == commuting


def test_subgroups_conjugate_witnesses_on_s4_classes():
    G, reps = _class_reps("S4")
    for H1 in reps:
        for H2 in reps:
            if H1.order != H2.order:
                continue
            conjugates = {_conjugate_set(G, g, H2.indices) for g in range(G.order)}
            for K in conjugates:
                ok, w = subgroups_conjugate(G, H1, G.subgroup([G.elements[k] for k in K]))
                if H1 is H2:
                    assert ok and _conjugate_set(G, G.index[w.images], H1.indices) == K
                else:
                    assert (ok, w) == (False, None)


@pytest.mark.parametrize("name", ["S4", "AGL1:9:4"])
def test_as_group_elements_follow_sorted_indices(name):
    G, reps = _class_reps(name)
    for H in reps:
        HG = H.as_group()
        pos = H.sorted_indices()
        assert HG.order == len(pos)
        assert all(HG.elements[i] is G.elements[j] for i, j in enumerate(pos))


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


def _check_arithmetic(G, pairs):
    """mult, inverse, conj and the step helpers against Permutation products."""
    E = G.elements
    for a, b in pairs:
        assert E[G.mult(a, b)] == E[a] * E[b]
        assert E[G.conj(a, b)] == E[a] * E[b] * E[a].inverse()
        (right,) = right_multiplications(G, (b,))
        assert right(a) == G.mult(a, b)
        (conj,) = conjugations(G, (a,))
        assert conj(b) == G.conj(a, b)
    for a in {a for a, _ in pairs}:
        assert E[G.inverse(a)] == E[a].inverse()
        assert list(G.conj_map(a)) == [G.conj(a, x) for x in range(G.order)]


@pytest.mark.parametrize("name", ["A5", "S4", "AGL1:9:4"])
def test_table_agrees_with_permutation_products(name):
    G = group(name)
    n = G.order
    assert G.elements == tuple(sorted(G.elements))
    _check_arithmetic(G, [(a, b) for a in range(n) for b in range(n)])
    rows = G._rows
    assert len(rows) == n
    assert all(row.typecode == "H" and len(row) == n for row in rows)


@pytest.mark.parametrize("name, classes", [("S7", 15), ("PSL2:19", 12)], ids=["S7", "PSL2:19"])
def test_no_table_above_the_cutoff(name, classes):
    G = group(name)
    n = G.order
    assert n > 2048
    assert G.elements == tuple(sorted(G.elements))
    step = 997  # coprime to 5040 and 3420, so the pairs spread over the group
    _check_arithmetic(G, [(a * step % n, (a * a + 1) * step % n) for a in range(60)])
    assert len(closure_indices(G, (1, n - 1))) > 1
    assert len(conjugacy_classes(G)) == classes
    assert G._rows is None
