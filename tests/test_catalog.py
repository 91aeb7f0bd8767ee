import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import group

from frobgraph.catalog import (
    CATALOG_SPECS,
    GroupSpec,
    affine_diam3_criterion,
    construct,
    expected_order,
    parse_group_spec,
    parse_permutation_spec,
)
from frobgraph.errors import DeskScaleExceeded, InvalidSpec, ParseError
from frobgraph.group import conjugacy_classes, derived_subgroup
from frobgraph.smallfield import IRREDUCIBLE, gf
from frobgraph.subgroups import enumerate_subgroup_classes, has_diameter_three_subgroup


def test_spec_parsing():
    assert parse_group_spec("S5") == GroupSpec("Symmetric", (5,))
    assert parse_group_spec("A6") == GroupSpec("Alternating", (6,))
    assert parse_group_spec("C12") == GroupSpec("Cyclic", (12,))
    assert parse_group_spec("D12") == GroupSpec("Dihedral", (12,))
    assert parse_group_spec("EA:3:2") == GroupSpec("ElementaryAbelian", (3, 2))
    assert parse_group_spec("AGL1:9") == GroupSpec("AGL1", (9,))
    assert parse_group_spec("AGL1:9:4") == GroupSpec("AGL1Subgroup", (9, 4))
    assert parse_group_spec("SL2:7") == GroupSpec("SL2", (7,))
    assert parse_group_spec("Named:G80") == GroupSpec("Named", ("G80",))
    prod = parse_group_spec("S3xC4")
    assert prod.kind == "DirectProduct" and len(prod.params) == 2
    with pytest.raises(InvalidSpec):
        parse_group_spec("XYZ9")
    with pytest.raises(InvalidSpec):
        parse_group_spec("Named:NoSuch")


def test_constructed_orders():
    for text, order in (
        ("S4", 24),
        ("A6", 360),
        ("C7", 7),
        ("D12", 12),
        ("EA:2:4", 16),
        ("AGL1:8", 56),
        ("AGL1:53", 2756),
        ("AGL1:27:13", 351),
        ("SL2:5", 120),
        ("PSL2:7", 168),
        ("PSL2:9", 360),
        ("PSL3:2", 168),
        ("S3xC4", 24),
        ("Named:V9C2x2", 36),
    ):
        G = group(text)
        assert G.order == order, text
        assert expected_order(parse_group_spec(text)) == order


def test_agl_structure():
    # AGL1(q) has a regular normal elementary abelian kernel of order q
    for q in (8, 9, 16):
        G = group(f"AGL1:{q}")
        assert G.order == q * (q - 1)
        kernel = derived_subgroup(G)
        assert kernel.order == q
        assert kernel.is_normal()
        KG = kernel.as_group()
        p = min(KG.element_order(i) for i in range(1, q))
        assert all(KG.element_order(i) == p for i in range(1, q))
        # regular: only the identity fixes a point
        assert all(
            not any(perm.images[x] == x for x in range(G.degree))
            for perm in KG.elements[1:]
        )


def test_g80_is_agl116_subgroup():
    G80 = group("Named:G80")
    assert G80.order == 80
    assert derived_subgroup(G80).order == 16


def test_sl2_faithful_degree():
    G = group("SL2:5")
    assert G.degree == 24 and G.order == 120
    # one involution only (the central -identity)
    assert sum(1 for i in range(G.order) if G.element_order(i) == 2) == 1


def test_sl27_exponent_and_classes():
    G = group("SL2:7")
    cd = conjugacy_classes(G)
    assert len(cd) == 11
    assert G.order == 336


def test_v9c2x2_structure():
    G = group("Named:V9C2x2")
    assert G.order == 36
    D = derived_subgroup(G)
    assert D.order == 4  # the Klein four kernel


def test_direct_product_action_disjoint():
    G = group("S3xC4")
    assert G.degree == 7
    assert G.order == 24


def test_parse_permutation_spec_roundtrip():
    text = """# symmetric group of degree 3
degree 3
(1,2)
(1,2,3)  # the rotation
"""
    degree, gens = parse_permutation_spec(text)
    assert degree == 3 and len(gens) == 2
    from frobgraph.group import group_from_generators

    assert group_from_generators(degree, gens).order == 6


def test_parse_permutation_spec_trivial():
    degree, gens = parse_permutation_spec("degree 1\n")
    assert degree == 1 and gens == []


def test_parse_permutation_spec_errors():
    with pytest.raises(ParseError) as err:
        parse_permutation_spec("degree 4\n(1,2,3,4,5)\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_permutation_spec("(1,2)\n")


def test_affine_criterion_examples():
    assert affine_diam3_criterion(3, 8) is True
    assert affine_diam3_criterion(3, 4) is False
    assert affine_diam3_criterion(5, 24) is True
    with pytest.raises(InvalidSpec):
        affine_diam3_criterion(4, 5)
    with pytest.raises(InvalidSpec):
        affine_diam3_criterion(3, 5)
    with pytest.raises(DeskScaleExceeded, match="order cap"):
        affine_diam3_criterion(101, 2)


def test_affine_criterion_equals_odd_divisor_form():
    for p in (3, 5, 7, 11):
        for d in range(2, p * p):
            if (p * p - 1) % d:
                continue
            m = (p * p - 1) // d
            alt = (p - 1) % m == 0 and m % 2 == 1
            assert affine_diam3_criterion(p, d) == alt, (p, d)


def test_affine_criterion_huge_p_fails_without_hanging():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "from frobgraph import affine_diam3_criterion; affine_diam3_criterion(10**18 + 3, 2)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "DeskScaleExceeded" in proc.stderr


def test_index_two_subgroup_of_agl127_has_diameter_three_order3():
    # The index-2 subgroup of AGL(1,27) of order 351 has a diameter-3
    # subgroup of order 3 (the general affine construction for odd p and
    # n >= 3 predicts one), even though its order-9 point stabilizer is rich
    # without being a diameter-3 subgroup.  Both verdicts concern different
    # subgroups of the same group; checking both makes that explicit.
    G = group("Named:G351")
    assert G.order == 351
    v = has_diameter_three_subgroup(G)
    assert v.ok and v.witness.order == 3
    from frobgraph.frobenius import is_diameter_three, is_rich

    H9 = [c.rep for c in enumerate_subgroup_classes(G) if c.order == 9][0]
    assert is_rich(G, H9).ok and not is_diameter_three(G, H9).ok
    print(
        "NOTE: the order-351 group 3^3:13 has a diameter-three subgroup of "
        "order 3, while its order-9 point stabilizer is rich but not a "
        "diameter-three subgroup; the two verdicts concern different "
        "subgroups and are consistent."
    )


def test_recorded_irreducibles_are_irreducible():
    # brute factor check: no monic divisor of degree 1..deg/2
    for (p, k), poly in IRREDUCIBLE.items():
        assert len(poly) == k + 1 and poly[-1] == 1
        # no roots (catches all reducible cases for k <= 3)
        for x in range(p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
            assert acc != 0, (p, k)
        if k in (4, 5):  # also exclude irreducible quadratic factors
            assert _no_quadratic_factor(p, poly)


def _no_quadratic_factor(p, poly):
    from itertools import product

    for b, c in product(range(p), repeat=2):
        quad = (c, b, 1)
        if _polmod_has_zero_remainder(p, poly, quad):
            return False
    return True


def _polmod_has_zero_remainder(p, num, den):
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        f = num[i]
        if f:
            for j, dc in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - f * dc) % p
    return not any(num)


def test_field_tables_are_fields():
    for q in (4, 8, 9, 16, 25, 27, 32, 49, 53, 101):
        F = gf(q)
        assert F.element_order(F.primitive) == q - 1
        # distributivity spot check
        for a, b, c in ((2, 3, 1), (q - 1, 2, 3)):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_catalog_orders_all_verified():
    for spec in CATALOG_SPECS:
        assert expected_order(spec) == construct(spec).order


def test_catalog_labels_roundtrip():
    for spec in CATALOG_SPECS:
        assert parse_group_spec(spec.label()) == spec


def test_from_generators_spec(tmp_path):
    f = tmp_path / "quat.grp"
    # quaternion group of order 8 on 8 points (regular representation)
    f.write_text(
        "degree 8\n"
        "(1,2,4,7)(3,6,8,5)\n"
        "(1,3,4,8)(2,5,7,6)\n"
    )
    spec = parse_group_spec(f"file:{f}")
    assert spec.kind == "FromGenerators"
    G = construct(spec)
    assert G.order == 8
    assert sum(1 for i in range(8) if G.element_order(i) == 2) == 1  # Q8


def test_spec_validation_errors():
    with pytest.raises(InvalidSpec):
        construct(GroupSpec("AGL1Subgroup", (9, 5)))  # 5 does not divide 8
    with pytest.raises(InvalidSpec):
        construct(GroupSpec("Dihedral", (7,)))
    with pytest.raises(InvalidSpec):
        construct(GroupSpec("ElementaryAbelian", (4, 2)))
    with pytest.raises(InvalidSpec):
        construct(GroupSpec("PSL3", (3,)))


def test_huge_prime_spec_fails_without_hanging():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "frobgraph", "table", "--group", "EA:1000000000000000003:1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "order cap" in proc.stderr


@pytest.mark.parametrize("text", ["C20000", "S20000"])
def test_spec_with_more_points_than_the_order_cap_is_refused(text):
    with pytest.raises(DeskScaleExceeded, match="order cap"):
        construct(parse_group_spec(text))
