from helpers import group, subgroup_of_order

from frobgraph.frobenius import frobenius_matrix
from frobgraph.graph import INFINITE, frobenius_graph, irr_action_orbits
from frobgraph.group import core
from frobgraph.perm import Permutation
from frobgraph.subgroups import enumerate_subgroup_classes


def graph_of(G, H):
    return frobenius_graph(frobenius_matrix(G, H))


def path_components(g):
    """Component vertex sets with a path check: 2 ends, rest degree 2."""
    comps = {}
    for v, c in enumerate(g.component_id):
        comps.setdefault(c, []).append(v)
    out = []
    for vs in comps.values():
        degs = sorted(len(g.adjacency[v]) for v in vs)
        is_path = degs == [1, 1] + [2] * (len(vs) - 2)
        out.append((len(vs), is_path))
    return out


def test_s3_s2_is_a_path_of_five_vertices():
    S3 = group("S3")
    H = S3.subgroup([Permutation.from_cycles(3, [(0, 1)])])
    g = graph_of(S3, H)
    assert g.n_components == 1
    assert g.diameter == 4
    assert path_components(g) == [(5, True)]


def test_symmetric_chain_diameters():
    import math

    for n in (2, 3, 4):
        G = group(f"S{n + 1}")
        gens = [Permutation.from_cycles(n + 1, [(0, 1)])]
        if n >= 3:
            gens.append(Permutation.from_cycles(n + 1, [tuple(range(n))]))
        H = G.subgroup(gens)
        assert H.order == math.factorial(n)
        assert graph_of(G, H).diameter == 2 * n


def test_d12_sylow2_two_paths():
    D12 = group("Named:D12")
    H = subgroup_of_order(D12, 4)
    g = graph_of(D12, H)
    assert g.n_components == 2
    assert g.diameter == INFINITE
    assert path_components(g) == [(5, True), (5, True)]


def test_degenerate_diameters():
    C1 = group("C1")
    g = graph_of(C1, C1.trivial_subgroup())
    assert g.diameter == 1
    S4 = group("S4")
    g = graph_of(S4, S4.trivial_subgroup())
    assert g.diameter == 2
    assert g.n_components == 1


def test_connected_iff_core_trivial():
    for name in ("S4", "Named:D12", "A4", "Named:G80"):
        G = group(name)
        for cls in enumerate_subgroup_classes(G):
            if cls.rep.is_whole():
                continue
            g = graph_of(G, cls.rep)
            K = core(G, cls.rep)
            assert (g.n_components == 1) == (K.order == 1)
            cnt, orbits = irr_action_orbits(G, K)
            assert cnt == g.n_components


def schoolbook_distances(g, u):
    """Distances from u by breadth-first search over g.adjacency; INFINITE
    where no path reaches."""
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return [dist.get(v, INFINITE) for v in range(len(g.adjacency))]


def test_distance_rows_match_a_search_from_every_vertex():
    # the graph searches once per neighbour set; every vertex is checked here,
    # on connected and disconnected graphs, with the components and diameter
    for name in ("S4", "Named:D12", "A5", "AGL1:9:4", "Named:G80"):
        G = group(name)
        for cls in enumerate_subgroup_classes(G):
            g = graph_of(G, cls.rep)
            n = len(g.adjacency)
            rows = [schoolbook_distances(g, u) for u in range(n)]
            assert [[g.distance(u, v) for v in range(n)] for u in range(n)] == rows
            assert g.eccentricity == tuple(max(r) for r in rows)
            assert g.diameter == max(map(max, rows))
            least = [min(v for v in range(n) if r[v] < INFINITE) for r in rows]
            assert g.component_id == tuple(sorted(set(least)).index(x) for x in least)


def test_path_from_trivial_char_has_odd_length():
    S4 = group("S4")
    H = subgroup_of_order(S4, 6)  # S3 point stabilizer
    g = graph_of(S4, H)
    # vertex 0 is the trivial character of G; right vertices start at n_left
    for r in range(1, g.n_right):
        d = g.distance(0, g.n_left + r)
        assert d % 2 == 1 and d > 1


def test_irr_action_orbits_examples():
    A4 = group("A4")
    assert irr_action_orbits(A4, A4.trivial_subgroup())[0] == 1
    S4 = group("S4")
    V4 = [
        c.rep
        for c in enumerate_subgroup_classes(S4)
        if c.order == 4 and c.rep.is_normal()
    ][0]
    cnt, orbits = irr_action_orbits(S4, V4)
    assert cnt == 2
    assert sorted(len(o) for o in orbits) == [1, 3]
    D12 = group("Named:D12")
    K = core(D12, subgroup_of_order(D12, 4))
    assert irr_action_orbits(D12, K)[0] == 2


def test_irr_action_orbits_on_every_nontrivial_normal_subgroup():
    # pinned outputs, in subgroup-enumeration order
    expected = {
        "S4": [(4, ((0,), (1, 2, 3))), (12, ((0,), (1, 2), (3,))), (24, tuple((i,) for i in range(5)))],
        "Named:G351": [
            (27, (
                (0,),
                (1, 2, 4, 5, 7, 9, 12, 15, 16, 22, 23, 24, 25),
                (3, 6, 8, 10, 11, 13, 14, 17, 18, 19, 20, 21, 26),
            )),
            (351, tuple((i,) for i in range(15))),
        ],
        "AGL1:13": [
            (13, ((0,), tuple(range(1, 13)))),
            (26, ((0,), (1,), (2, 3, 4, 5, 6, 7))),
            (39, ((0,), (1,), (2,), (3, 4, 5, 6))),
            (52, ((0,), (1,), (2,), (3,), (4, 5, 6))),
            (78, ((0,), (1,), (2,), (3,), (4,), (5,), (6, 7))),
            (156, tuple((i,) for i in range(13))),
        ],
        "Named:D12": [
            (2, ((0,), (1,))),
            (3, ((0,), (1, 2))),
            (6, ((0,), (1,), (2,))),
            (6, ((0,), (1,), (2,))),
            (6, ((0,), (1,), (2, 3), (4, 5))),
            (12, tuple((i,) for i in range(6))),
        ],
    }
    for name, pinned in expected.items():
        G = group(name)
        got = []
        for cls in enumerate_subgroup_classes(G):
            K = cls.rep
            if K.is_normal() and not K.is_trivial():
                cnt, orbits = irr_action_orbits(G, K)
                assert cnt == len(orbits)
                got.append((K.order, orbits))
        assert got == pinned, name


def test_dot_export():
    S3 = group("S3")
    H = S3.subgroup([Permutation.from_cycles(3, [(0, 1)])])
    dot = graph_of(S3, H).to_dot()
    assert dot.startswith("graph frobenius {")
    assert 'chi2 [label="2"' in dot
    assert dot.count("--") == 4
