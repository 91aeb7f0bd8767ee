from helpers import group

from frobgraph.group import normalizer
from frobgraph.subgroups import (
    classify_subgroups,
    enumerate_subgroup_classes,
    has_diameter_three_subgroup,
    is_minimal_rich_group,
    maximal_subgroup_classes,
    prime_order_subgroup_classes,
)


def test_a5_class_list():
    A5 = group("A5")
    classes = enumerate_subgroup_classes(A5)
    assert len(classes) == 9
    assert sorted(c.order for c in classes) == [1, 2, 3, 4, 5, 6, 10, 12, 60]


def test_psl32_class_count():
    assert len(enumerate_subgroup_classes(group("PSL3:2"))) == 15


def test_cyclic_prime_has_two_classes():
    for name in ("C2", "C3", "C5"):
        assert len(enumerate_subgroup_classes(group(name))) == 2


def test_s4_class_list():
    S4 = group("S4")
    classes = enumerate_subgroup_classes(S4)
    assert len(classes) == 11
    assert sorted(c.order for c in classes) == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]
    # cyclic C4 must be found (needs the non-prime-order extension element)
    c4 = [
        c
        for c in classes
        if c.order == 4 and any(S4.element_order(i) == 4 for i in c.rep.indices)
    ]
    assert len(c4) == 1


def test_total_subgroup_counts():
    # oracle: every subgroup of these groups is 2-generated, so the distinct
    # closures of all element pairs enumerate the full subgroup set
    for name in ("A4", "S4"):
        G = group(name)
        from frobgraph.group import closure_indices

        brute = {closure_indices(G, (x, y)) for x in range(G.order) for y in range(G.order)}
        brute.add(frozenset((0,)))
        total = sum(c.length for c in enumerate_subgroup_classes(G))
        assert total == len(brute), name
    # EA:p:k totals are sums of Gaussian binomials over the subspace dimensions
    totals = {"S4": 30, "A4": 10, "A5": 59, "EA:2:4": 67, "EA:3:2": 6, "EA:3:3": 28}
    for name, total in totals.items():
        assert sum(c.length for c in enumerate_subgroup_classes(group(name))) == total, name


def test_class_lengths_match_normalizers():
    for name in ("S4", "A5", "Named:G80"):
        G = group(name)
        for cls in enumerate_subgroup_classes(G):
            assert cls.length == G.order // normalizer(G, cls.rep).order


def test_prime_class_completeness():
    # sum of class lengths of order-p classes = number of order-p subgroups,
    # counted directly from elements of order p
    for name in ("S4", "A5", "SL2:5", "Named:G351"):
        G = group(name)
        classes = enumerate_subgroup_classes(G)
        primes = {c.order for c in classes if c.order > 1 and _is_prime(c.order)}
        for p in primes:
            by_class = sum(c.length for c in classes if c.order == p)
            count = sum(1 for x in range(G.order) if G.element_order(x) == p)
            assert by_class == count // (p - 1)
            light = [c for c in prime_order_subgroup_classes(G) if c.order == p]
            assert sum(c.length for c in light) == by_class


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_has_diameter_three_examples():
    v = has_diameter_three_subgroup(group("A4"))
    assert v.ok and v.witness.order == 2
    assert not has_diameter_three_subgroup(group("SL2:5")).ok
    for name in ("Named:D12", "S3xC4", "D8", "EA:2:3", "C12"):
        assert not has_diameter_three_subgroup(group(name)).ok


def test_prime_scan_agrees_with_full_scan():
    # three-way equivalence: a prime-order rich class exists iff some class
    # is diameter-3 iff some nontrivial class is rich
    for name in ("A4", "S4", "SL2:3", "Named:D12", "AGL1:8", "Named:G351", "S3xS3"):
        G = group(name)
        report = classify_subgroups(G)
        any_d3 = any(r.is_diam3 for r in report.rows if r.is_diam3 is not None)
        any_rich = report.g > 0
        fast = has_diameter_three_subgroup(G).ok
        assert fast == any_d3 == any_rich, name


def test_classify_a5():
    rep = classify_subgroups(group("A5"))
    assert (rep.n, rep.g, rep.m) == (9, 2, 2)
    assert rep.rich_orders == [2, 3]
    assert rep.maximal_rich_orders == [2, 3]
    assert all(r.is_diam3 for r in rep.rows if r.is_rich and r.order > 1)


def test_classify_psl32():
    rep = classify_subgroups(group("PSL3:2"))
    assert (rep.n, rep.g, rep.m) == (15, 3, 2)
    assert rep.rich_orders == [2, 3, 4]
    assert rep.maximal_rich_orders == [3, 4]


def test_classify_g351_one_rich_class_not_diam3():
    rep = classify_subgroups(group("Named:G351"))
    bad = [r for r in rep.rows if r.is_rich and r.order > 1 and not r.is_diam3]
    assert len(bad) == 1 and bad[0].order == 9
    good = [r for r in rep.rows if r.is_diam3]
    assert len(good) == 1 and good[0].order == 3


def test_maximal_subgroup_classes_a5():
    orders = sorted(c.order for c in maximal_subgroup_classes(group("A5")))
    assert orders == [6, 10, 12]
    orders = sorted(c.order for c in maximal_subgroup_classes(group("S4")))
    assert orders == [6, 8, 12]


def test_minimality():
    assert is_minimal_rich_group(group("A4"))
    assert not is_minimal_rich_group(group("A5"))  # contains A4
    assert not is_minimal_rich_group(group("SL2:5"))  # has nothing at all
    assert is_minimal_rich_group(group("Named:G351"))


def test_report_json_shape():
    d = classify_subgroups(group("A4")).to_json_dict()
    assert d["n"] == 5 and d["g"] == 1
    assert all({"order", "length", "rich", "diameter_three", "depth"} <= set(c) for c in d["classes"])
