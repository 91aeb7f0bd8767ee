import random
from math import lcm

import pytest
from helpers import deadline, group, tampered_table

import frobgraph.chartab as chartab
import frobgraph.cli as cli
from frobgraph.catalog import SCAN_SPECS, construct
from frobgraph.chartab import (
    CharacterTable,
    _eigenspace_rows,
    _lift_row,
    _poly_roots_mod,
    _primitive_root,
    _split_eigenspaces,
    _table,
    _verify_table,
    character_table,
    class_multiplication_coefficients,
    dixon_prime,
    table_stats,
)
from frobgraph.cyclo import Cyclotomic
from frobgraph.errors import InternalInconsistency
from frobgraph.group import conjugacy_classes, group_from_generators
from frobgraph.perm import Permutation
from frobgraph.subgroups import enumerate_subgroup_classes


def test_class_coefficients_identity():
    cd = conjugacy_classes(group("S3"))
    assert class_multiplication_coefficients(cd, 0, 0, 0) == 1


def test_class_coefficients_c2():
    cd = conjugacy_classes(group("C2"))
    # t * t = 1
    assert class_multiplication_coefficients(cd, 1, 1, 0) == 1
    assert class_multiplication_coefficients(cd, 1, 1, 1) == 0


def test_class_coefficients_s3_by_enumeration():
    G = group("S3")
    cd = conjugacy_classes(G)
    transp = cd.class_of(Permutation.from_cycles(3, [(0, 1)]))
    three = cd.class_of(Permutation.from_cycles(3, [(0, 1, 2)]))
    # oracle: count ordered pairs of transpositions multiplying to the fixed
    # 3-cycle representative; each of the three transpositions occurs once as
    # the left factor, so the count is 3
    rep = cd.rep_indices[three]
    count = sum(
        1
        for x in cd.members[transp]
        for y in cd.members[transp]
        if G.mult(x, y) == rep
    )
    assert count == class_multiplication_coefficients(G._classdata, transp, transp, three)
    assert count == 3


def test_class_coefficients_above_the_cutoff_by_enumeration():
    # PSL(2, 19) has no multiplication table, so the class matrices compose
    # base images; oracle: count the pairs with G.mult over both classes
    G = group("PSL2:19")
    cd = conjugacy_classes(G)
    assert G._rows is None
    involution, nineteen = cd.element_orders.index(2), cd.element_orders.index(19)
    counts = []
    for i, j, k in ((involution, involution, 0), (involution, involution, 1),
                    (involution, nineteen, 8), (nineteen, nineteen + 1, 0)):
        rep = cd.rep_indices[k]
        count = sum(1 for x in cd.members[i] for y in cd.members[j] if G.mult(x, y) == rep)
        assert class_multiplication_coefficients(cd, i, j, k) == count, (i, j, k)
        counts.append(count)
    assert counts[0] == 171 and all(counts)


def _from_roots(roots, p):
    """Ascending coefficients of the product of x - a over roots, mod p."""
    f = [1]
    for a in roots:
        f = [(lo - a * hi) % p for lo, hi in zip([0] + f, f + [0])]
    return f


def _scan_roots(f, p):
    return [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0]


def test_poly_roots_agree_with_a_scan(monkeypatch):
    # degrees 1-16 at these primes fall on both sides of the scan/split rule;
    # repeated roots and a root at 0 included.  A side is recorded by
    # whether the split ran, not by restating the rule.
    rng = random.Random(14)
    split = chartab._split_roots
    calls = []
    monkeypatch.setattr(chartab, "_split_roots", lambda *a: (calls.append(a[1]), split(*a))[1])
    sides = set()
    with deadline(10):
        for p in (7, 13, 241, 547, 6841):
            for d in range(1, 17):
                roots = [rng.randrange(p) for _ in range(d)]
                if d >= 3:
                    roots[1] = roots[2] = roots[0]
                if d >= 4:
                    roots[3] = 0
                f = _from_roots(roots, p)
                calls.clear()
                assert _poly_roots_mod(f, p) == _scan_roots(f, p) == sorted(set(roots)), (p, d)
                sides.add(bool(calls))
    assert sides == {True, False}


def test_poly_roots_skip_an_irreducible_quadratic():
    # x^2 - r with r a non-residue has no roots in F_p: only the linear
    # factors' roots come back, and the splitting ends
    with deadline(10):
        for p in (7, 13, 241, 547, 6841):
            r = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
            quadratic = [-r % p, 0, 1]
            assert _poly_roots_mod(quadratic, p) == []
            f = _from_roots([5, 3, 3, 0], p)
            prod = [0] * (len(f) + 2)
            for i, a in enumerate(f):
                for j, b in enumerate(quadratic):
                    prod[i + j] = (prod[i + j] + a * b) % p
            assert _poly_roots_mod(prod, p) == [0, 3, 5], p


def test_dixon_prime_rule():
    assert dixon_prime(6, 6) == 7
    assert dixon_prime(60, 720) == 61
    assert dixon_prime(1, 1) == 3


def test_c2_table():
    t = character_table(group("C2"))
    assert t.degrees == (1, 1)
    flat = [[v.to_rational_integer() for v in row] for row in t.values]
    assert flat == [[1, 1], [1, -1]]


def test_s3_table_matches_explicit_representation():
    # oracle: the 2-dimensional real representation of S3 (symmetries of a
    # triangle) has traces 2, 0, -1 on identity, transpositions, 3-cycles
    t = character_table(group("S3"))
    assert sorted(t.degrees) == [1, 1, 2]
    cd = t.classes
    transp = cd.class_of(Permutation.from_cycles(3, [(0, 1)]))
    three = cd.class_of(Permutation.from_cycles(3, [(0, 1, 2)]))
    row = t.values[t.degrees.index(2)]
    assert row[transp] == 0
    assert row[three] == -1


def test_g351_table():
    t = character_table(group("Named:G351"))
    assert sorted(t.degrees) == [1] * 13 + [13, 13]
    st = table_stats(t)
    assert (st.T, st.k, st.b) == (39, 15, 13)


def test_agl18_stats():
    t = character_table(group("AGL1:8"))
    assert sorted(t.degrees) == [1] * 7 + [7]
    st = table_stats(t)
    assert (st.T, st.k, st.b) == (14, 8, 7)


def test_table_determinism():
    G1 = group("S4")
    t1 = character_table(G1)
    # rebuild the same group from scratch and compare value-for-value
    from frobgraph.group import group_from_generators

    G2 = group_from_generators(G1.degree, list(G1.generators))
    t2 = character_table(G2)
    assert t1.degrees == t2.degrees
    for r1, r2 in zip(t1.values, t2.values):
        assert list(r1) == list(r2)


def test_row_norm_is_one():
    # [chi, chi] = 1 exercises conjugation of every stored value
    t = character_table(group("A5"))
    cd = t.classes
    for row, conj in zip(t.values, t.conj_values()):
        total = Cyclotomic.from_int(0)
        for i in range(t.k):
            total = total + row[i] * conj[i] * cd.sizes[i]
        assert total == t.group.order


def test_tables_of_catalog_sample():
    # construction re-verifies both orthogonality relations, the degree
    # identities and the abelianization count; failure raises
    for name in ("C6", "D8", "S4", "A4", "SL2:3", "AGL1:9", "Named:V9C2x2"):
        t = character_table(group(name))
        assert sum(d * d for d in t.degrees) == t.group.order


def test_stats_c2():
    st = table_stats(character_table(group("C2")))
    assert (st.T, st.k, st.b) == (2, 2, 1)


def test_export_shapes():
    t = character_table(group("S3"))
    d = t.to_json_dict()
    assert d["order"] == 6 and len(d["rows"]) == 3
    text = t.text()
    assert "X1" in text and "X3" in text


def _eigenvectors(spec):
    cd = conjugacy_classes(group(spec))
    e = lcm(*cd.element_orders)
    p = dixon_prime(e, cd.group.order)
    return cd, e, p, _split_eigenspaces(cd, p)


def _reference_lift(cd, omega, e, p):
    """The multiplicity of every zeta_n^j by the full n^2 transform, for every
    degree; returns (degree, exponent -> multiplicity per class)."""
    G = cd.group
    k = len(cd)
    inv_class = [cd.class_of_index[G.inverse(r)] for r in cd.rep_indices]
    s = sum(omega[i] * omega[inv_class[i]] * pow(cd.sizes[i], -1, p) for i in range(k)) % p
    d = next(r for r in range(1, p // 2 + 1) if r * r * s % p == G.order % p)
    theta = [d * omega[i] * pow(cd.sizes[i], -1, p) % p for i in range(k)]
    wp = pow(_primitive_root(p), (p - 1) // e, p)
    out = []
    for i, n in enumerate(cd.element_orders):
        zn = pow(wp, e // n, p)
        mults = {}
        for j in range(n):
            acc = sum(theta[cd.power_map[i][t]] * pow(zn, -j * t, p) for t in range(n))
            if acc * pow(n, -1, p) % p:
                mults[j] = acc * pow(n, -1, p) % p
        out.append(mults)
    return d, out


@pytest.mark.parametrize("spec", ["C12", "S4", "A4", "Named:G80", "SL2:3", "C3xS3"])
def test_lift_equals_the_full_transform(spec):
    # linear rows take the O(n) path, the others the n^2 loop; both must give
    # the multiplicities of the full transform
    cd, e, p, omegas = _eigenvectors(spec)
    degrees = []
    for omega in omegas:
        d, mults = _reference_lift(cd, omega, e, p)
        degrees.append(d)
        row = _lift_row(cd, omega, e, p)
        for value, n, m in zip(row, cd.element_orders, mults):
            assert value == Cyclotomic.from_terms(n, m)
    assert 1 in degrees and (spec.startswith("C") or max(degrees) > 1)


def test_lift_refuses_a_linear_character_that_is_not_a_homomorphism():
    # swapping the values at g^2 and g^4 = (g^2)^-1 in a faithful linear
    # character of C6 keeps the degree 1 and every value a root of unity of
    # the right order; only theta(g^t) = theta(g)^t over t < 6 can catch it
    cd, e, p, omegas = _eigenvectors("C6")
    g = cd.element_orders.index(6)
    x, y = cd.power_map[g][2], cd.power_map[g][4]
    faithful = next(w for w in omegas if pow(w[g], 2, p) != 1 and pow(w[g], 3, p) != 1)
    v = _lift_row(cd, faithful, e, p)[g]  # a primitive 6th root of unity
    assert v * v != 1 and v * v * v != 1 and v * v * v * v * v * v == 1
    tampered = list(faithful)
    tampered[x], tampered[y] = tampered[y], tampered[x]
    with pytest.raises(InternalInconsistency, match="not a homomorphism"):
        _lift_row(cd, tampered, e, p)


def _same_table(a, b):
    return (a.values, a.degrees, a.exponent) == (b.values, b.degrees, b.exponent)


@pytest.mark.parametrize("spec", ["C32", "C64", "EA:2:6", "C5xC5xC4", "EA:5:3"])
def test_abelian_tables_have_one_class_per_element(spec):
    # every character of an abelian group is linear: the table is the dual
    # group, built along the generators, and equals the eigenspace path's
    G = group(spec)
    t = character_table(G)
    assert t.k == G.order
    assert set(t.degrees) == {1}
    assert _same_table(t, _table(G, _eigenspace_rows))


def test_dual_group_tables_of_every_abelian_scan_class():
    # the abelian proper subgroups of every scanned catalog group: the same
    # rows, in the same order, by either path
    checked = 0
    for spec in SCAN_SPECS:
        G = construct(spec)
        for c in enumerate_subgroup_classes(G):
            H = c.rep.as_group()
            if H.order < G.order and H.is_abelian():
                assert _same_table(character_table(H), _table(H, _eigenspace_rows)), (spec, c.order)
                checked += 1
    assert checked > 100


def test_abelian_tables_never_split_eigenspaces(monkeypatch):
    def refuse(cd, e):
        raise AssertionError("eigenspace split on an abelian group")

    monkeypatch.setattr(chartab, "_eigenspace_rows", refuse)
    # a fresh group object, so that no kept table answers
    G = group_from_generators(6, [Permutation.from_cycles(6, [(0, 1, 2, 3)]),
                                  Permutation.from_cycles(6, [(4, 5)])])
    assert character_table(G).k == 8


def test_verification_refuses_a_dual_row_with_a_wrong_root():
    # C4 x C2 = <g> x <h>: the character trivial on K = <g> extends to h by
    # a w with 2w = 0 mod 4, so w is 0 or 2; w = 1 puts zeta_4 on the coset
    # hK, a root of unity at every class but no homomorphism
    G = group("C4xC2")
    t = character_table(G)
    g = next(x for x in range(G.order) if G.element_order(x) == 4)
    K = {G.power(g, j) for j in range(4)}
    in_K = [x in K for x in t.classes.rep_indices]
    r = next(
        i for i, row in enumerate(t.values)
        if all(v == (1 if k else -1) for v, k in zip(row, in_K))
    )
    wrong = [Cyclotomic.from_int(1) if k else Cyclotomic.zeta(4) for k in in_K]
    _verify_table(t)
    with pytest.raises(InternalInconsistency, match="orthogonality"):
        _verify_table(tampered_table(t, r, wrong))


def test_verification_refuses_a_dual_row_with_two_entries_swapped():
    # two values of a nontrivial row of EA:3:2 at classes of the same
    # element order: the row keeps norm 1 and every value a cube root of 1
    t = character_table(group("EA:3:2"))
    row = list(t.values[1])
    i, j = next((i, j) for i in range(1, t.k) for j in range(i + 1, t.k) if row[i] != row[j])
    row[i], row[j] = row[j], row[i]
    with pytest.raises(InternalInconsistency, match="orthogonality"):
        _verify_table(tampered_table(t, 1, row))


# The certificate of abelian tables (`_certify_abelian`): each row read back
# as exponents of zeta_e must be a homomorphism, and the |G| rows distinct.


def _certificate_refuses(table):
    with pytest.raises(InternalInconsistency):
        chartab._certify_abelian(table)


def test_certificate_refuses_the_wrong_root_and_the_swapped_entries():
    # the two tampered rows that `_verify_table` refuses by orthogonality
    G = group("C4xC2")
    t = character_table(G)
    g = next(x for x in range(G.order) if G.element_order(x) == 4)
    K = {G.power(g, j) for j in range(4)}
    in_K = [x in K for x in t.classes.rep_indices]
    r = next(
        i for i, row in enumerate(t.values)
        if all(v == (1 if k else -1) for v, k in zip(row, in_K))
    )
    chartab._certify_abelian(t)
    _certificate_refuses(tampered_table(t, r, [Cyclotomic.from_int(1) if k else Cyclotomic.zeta(4) for k in in_K]))
    t = character_table(group("EA:3:2"))
    row = list(t.values[1])
    i, j = next((i, j) for i in range(1, t.k) for j in range(i + 1, t.k) if row[i] != row[j])
    row[i], row[j] = row[j], row[i]
    _certificate_refuses(tampered_table(t, 1, row))


def test_certificate_refuses_a_column_swap_that_orthogonality_accepts():
    # swapping two columns in every row keeps both orthogonality relations
    # (every centralizer has order 9), but moves values off their elements
    t = character_table(group("EA:3:2"))
    i, j = 1, 2
    swapped = []
    for row in t.values:
        row = list(row)
        row[i], row[j] = row[j], row[i]
        swapped.append(tuple(row))
    tampered = CharacterTable(t.group, t.classes, t.exponent, tuple(swapped), t.degrees)
    assert tampered.values != t.values
    _verify_table(tampered)
    _certificate_refuses(tampered)


def test_certificate_refuses_a_duplicated_row():
    t = character_table(group("C4xC2"))
    _certificate_refuses(tampered_table(t, 3, t.values[2]))


@pytest.mark.parametrize("value", [
    Cyclotomic.from_int(2),  # not a root of unity
    Cyclotomic.from_terms(4, {0: 1, 1: 1}),  # 1 + zeta_4, nor is this
    Cyclotomic.zeta(3),  # conductor 3 does not divide e = 4
])
def test_certificate_refuses_a_value_that_is_no_root_of_unity_of_order_dividing_e(value):
    t = character_table(group("C4xC2"))
    assert t.exponent == 4
    row = list(t.values[5])
    row[3] = value
    with pytest.raises(InternalInconsistency, match="not a root of unity"):
        chartab._certify_abelian(tampered_table(t, 5, row))


def test_certificate_refuses_a_table_one_row_short():
    t = character_table(group("C4xC2"))
    short = CharacterTable(t.group, t.classes, t.exponent, t.values[:-1], t.degrees[:-1])
    _certificate_refuses(short)


def test_orthogonality_accepts_every_certified_table():
    # agreement: every table the certificate passes also passes both
    # orthogonality relations and the degree identities
    checked = 0
    for spec in SCAN_SPECS:
        G = construct(spec)
        for c in enumerate_subgroup_classes(G):
            H = c.rep.as_group()
            if H.order < G.order and H.is_abelian():
                _verify_table(character_table(H))
                checked += 1
    for spec in ("C32", "C64", "EA:2:6", "C5xC5xC4", "EA:5:3"):
        _verify_table(character_table(group(spec)))
    assert checked > 100


def test_large_abelian_tables_are_quick():
    # were about 3 s of CPU together while both orthogonality relations ran;
    # fresh group objects, so that no kept table answers
    fresh = []
    for spec in ("EA:5:3", "C100", "C125"):
        G = group(spec)
        fresh.append(group_from_generators(G.degree, list(G.generators)))
    with deadline(2):
        assert [character_table(G).k for G in fresh] == [125, 100, 125]


def test_scan_sends_abelian_tables_to_the_certificate_and_no_others(monkeypatch, capsys):
    G = group("AGL1:16")
    fresh = group_from_generators(G.degree, list(G.generators))
    monkeypatch.setattr(cli, "construct", lambda spec, cap=None: fresh)
    seen = {"certificate": [], "orthogonality": []}
    certify, verify = chartab._certify_abelian, chartab._verify_table

    def counted(name, check):
        def run(table):
            seen[name].append(table.group.is_abelian())
            check(table)
        return run

    monkeypatch.setattr(chartab, "_certify_abelian", counted("certificate", certify))
    monkeypatch.setattr(chartab, "_verify_table", counted("orthogonality", verify))
    assert cli.main(["scan", "--group", "AGL1:16"]) == 0
    capsys.readouterr()
    assert all(seen["certificate"]) and not any(seen["orthogonality"])
    groups = [c.rep.as_group() for c in enumerate_subgroup_classes(fresh)]
    abelian = sum(H.is_abelian() for H in groups)
    assert (len(seen["certificate"]), len(seen["orthogonality"])) == (abelian, len(groups) - abelian)
    assert seen["certificate"] and seen["orthogonality"]


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["EA:2:10", "EA:3:6"])
def test_table_of_an_elementary_abelian_group_of_order_about_a_thousand(spec, capsys):
    # 1 024 and 729 classes; orthogonality alone ran past 40 s on these
    with deadline(20):
        assert cli.main(["table", "--group", spec]) == 0
    # a title line, the class sizes, the element orders, then one row each
    assert len(capsys.readouterr().out.splitlines()) == 3 + group(spec).order


def test_root_finder_path_counts_the_split_fixed_cost(monkeypatch):
    # timed on the benchmark searches: a cubic at p = 241 is cheaper to scan
    # (the split's fixed cost per call dominates), a quartic at p = 331 and
    # a quadratic at p = 6841 cheaper to split; the roots are the same
    split = chartab._split_roots
    calls = []
    monkeypatch.setattr(chartab, "_split_roots", lambda *a: (calls.append(a[1]), split(*a))[1])
    for p, roots in ((241, [1, 7, 9]), (331, [0, 2, 3, 5]), (6841, [4, 6840])):
        f = _from_roots(roots, p)
        assert _poly_roots_mod(f, p) == _scan_roots(f, p) == roots
    assert sorted(set(calls)) == [331, 6841]  # split recurses, so p repeats


def test_certificate_refuses_a_negated_value_when_the_exponent_is_odd():
    # -zeta_3 has order 6, which does not divide e = 3
    t = character_table(group("EA:3:2"))
    row = list(t.values[1])
    i = next(i for i, v in enumerate(row) if v != 1)
    row[i] = -row[i]
    with pytest.raises(InternalInconsistency, match="not a root of unity"):
        chartab._certify_abelian(tampered_table(t, 1, row))
