import random

import pytest

from helpers import group, subgroup_of_order

from frobgraph.catalog import SCAN_SPECS, construct
from frobgraph.depth import minimal_depth, support_containment_has_scalar
from frobgraph.errors import NotProper
from frobgraph.frobenius import frobenius_matrix
from frobgraph.graph import INFINITE, frobenius_graph
from frobgraph.group import core
from frobgraph.subgroups import enumerate_subgroup_classes


def test_normal_subgroup_has_depth_two():
    A4 = group("A4")
    V4 = subgroup_of_order(A4, 4)
    assert V4.is_normal()
    assert minimal_depth(A4, V4).minimal_depth == 2


def test_s2_in_s3_depth_three():
    S3 = group("S3")
    from frobgraph.perm import Permutation

    H = S3.subgroup([Permutation.from_cycles(3, [(0, 1)])])
    rep = minimal_depth(S3, H)
    assert rep.minimal_depth == 3
    assert frobenius_graph(frobenius_matrix(S3, H)).diameter == 4


def test_d12_sylow2_depth_three_despite_disconnection():
    D12 = group("Named:D12")
    H = subgroup_of_order(D12, 4)
    g = frobenius_graph(frobenius_matrix(D12, H))
    assert g.n_components == 2
    assert minimal_depth(D12, H).minimal_depth == 3


def test_depth_at_most_two_iff_normal_sweep():
    # "of depth 2" is the monotone condition, so it reads minimal_depth <= 2;
    # central subgroups legitimately reach the degenerate depth 1
    for name in ("S4", "A4", "Named:D12", "SL2:3"):
        G = group(name)
        for cls in enumerate_subgroup_classes(G):
            H = cls.rep
            if H.is_whole():
                continue
            rep = minimal_depth(G, H)
            if H.order > 1:
                assert (rep.minimal_depth <= 2) == H.is_normal(), (name, cls.order)
                if rep.minimal_depth == 1:
                    assert rep.degenerate_depth_one
            assert rep.minimal_depth <= 2 * len(rep.support_chain_lengths) + 1


def test_central_subgroup_reaches_degenerate_depth_one():
    D12 = group("Named:D12")
    centre = [
        c.rep
        for c in enumerate_subgroup_classes(D12)
        if c.order == 2 and c.rep.is_normal()
    ]
    assert len(centre) == 1
    rep = minimal_depth(D12, centre[0])
    assert rep.minimal_depth == 1 and rep.degenerate_depth_one


def test_diameter_three_implies_depth_three_and_back():
    # with trivial core: diameter 3 -> depth 3, and depth 3 -> diameter 3 or 4
    for name in ("S4", "A5", "Named:G80", "A4"):
        G = group(name)
        for cls in enumerate_subgroup_classes(G):
            H = cls.rep
            if H.is_whole() or H.order == 1:
                continue
            if core(G, H).order != 1:
                continue
            g = frobenius_graph(frobenius_matrix(G, H))
            rep = minimal_depth(G, H)
            if g.diameter == 3:
                assert rep.minimal_depth <= 3
            if rep.minimal_depth == 3:
                assert g.diameter in (3, 4)


def test_whole_group_rejected():
    S3 = group("S3")
    with pytest.raises(NotProper):
        minimal_depth(S3, S3.whole_subgroup())


def test_support_chain_monotone_and_report_shape():
    S4 = group("S4")
    H = subgroup_of_order(S4, 6)
    rep = minimal_depth(S4, H)
    lens = rep.support_chain_lengths
    assert all(a <= b for a, b in zip(lens, lens[1:]))
    d = rep.to_json_dict()
    assert set(d) == {"minimal_depth", "odd_m", "even_m", "support_chain_lengths"}


def test_support_containment_matches_scalar_oracle():
    rng = random.Random(3)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.choice((0, 0, 1, 2, 5)) for _ in range(cols)] for _ in range(rows)]
        B = [[rng.choice((0, 0, 1, 3)) for _ in range(cols)] for _ in range(rows)]
        supp = all(
            all(not a or b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
        )
        assert supp == support_containment_has_scalar(A, B)


def _mult(A, B):
    cols = list(zip(*B))
    return [[sum(map(int.__mul__, row, col)) for col in cols] for row in A]


def _depth_by_definition(M):
    """(minimal depth, odd m, even m, supp(S^m) sizes) from exact powers of
    S = M M^T and the scalar oracle, with no graph in sight."""
    kH = len(M)
    S = _mult(M, list(zip(*M)))
    powers = [[[int(i == j) for j in range(kH)] for i in range(kH)]]

    def power(m):
        while len(powers) <= m:
            assert len(powers) <= kH * kH + 1, "supports failed to stabilize"
            powers.append(_mult(powers[-1], S))
        return powers[m]

    odd = next(m for m in range(kH * kH + 1)
               if support_containment_has_scalar(power(m + 1), power(m)))
    lengths = tuple(sum(map(bool, sum(P, []))) for P in powers[:odd + 2])
    even = next(m for m in range(1, kH * kH + 2)
                if support_containment_has_scalar(_mult(power(m), M), _mult(power(m - 1), M)))
    depth = 1 if odd == 0 else min(2 * odd + 1, 2 * even)
    return depth, odd, even, lengths


def test_depth_matches_its_definition_on_every_scan_pair():
    pairs = 0
    for spec in SCAN_SPECS:
        G = construct(spec)
        for cls in enumerate_subgroup_classes(G):
            H = cls.rep
            if H.is_whole():
                continue
            M = frobenius_matrix(G, H)
            rep = minimal_depth(G, H)
            depth, odd, even, lengths = _depth_by_definition([list(r) for r in M.entries])
            where = (spec.label(), cls.order)
            assert rep.minimal_depth == depth, where
            assert rep.odd_certificate == odd and rep.even_certificate == even, where
            assert rep.degenerate_depth_one == (odd == 0), where
            assert rep.support_chain_lengths == lengths, where
            # the largest eccentricity of an Irr(H) vertex within its component
            g = frobenius_graph(M)
            n = g.n_left + g.n_right
            ecc = max(
                max(d for v in range(n) if (d := g.distance(u, v)) != INFINITE)
                for u in range(g.n_left, n)
            )
            assert rep.minimal_depth == ecc, where
            pairs += 1
    assert pairs == 490
