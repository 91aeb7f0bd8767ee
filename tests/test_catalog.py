import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from helpers import group

from frobgraph import catalog
from frobgraph.catalog import (
    CATALOG_SPECS,
    GroupSpec,
    affine_diam3_criterion,
    construct,
    expected_order,
    parse_group_spec,
    parse_permutation_spec,
)
from frobgraph.config import DEFAULT_ORDER_CAP
from frobgraph.cyclo import is_prime
from frobgraph.errors import DeskScaleExceeded, FrobgraphError, InvalidSpec, ParseError
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
        ("A1", 1),
        ("AGL1:2", 2),
        ("SL2:2", 6),
        ("PSL2:2", 6),
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
            not any(images[x] == x for x in range(G.degree))
            for images in KG.elements[1:]
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


class _SchoolbookField:
    """GF(q) by definition, the reference for gf(q): the base-p digits of an
    element are a polynomial over F_p, and a product is reduced modulo
    IRREDUCIBLE[(p, k)] (modulo x when k = 1) from its top degree down.  The
    primitive element is the least one whose powers reach every unit."""

    def __init__(self, q):
        self.q = q
        self.p = next(d for d in range(2, q + 1) if q % d == 0)
        self.k = 1
        while self.p**self.k < q:
            self.k += 1
        self.poly = IRREDUCIBLE[(self.p, self.k)] if self.k > 1 else (0, 1)
        self.primitive = next(g for g in range(1, q) if len(set(self.powers(g, q - 1))) == q - 1)

    def digits(self, a):
        return [a // self.p**i % self.p for i in range(self.k)]

    def value(self, digits):
        return sum(c * self.p**i for i, c in enumerate(digits))

    def add(self, a, b):
        return self.value([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a, b):
        k = self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            for j in range(k):
                prod[i - k + j] -= prod[i] * self.poly[j]
        return self.value([c % self.p for c in prod[:k]])

    def powers(self, a, n):
        """[a^1, ..., a^n]"""
        out = [a]
        for _ in range(n - 1):
            out.append(self.mul(out[-1], a))
        return out


@lru_cache(maxsize=None)
def _field(q):
    return _SchoolbookField(q)


# the 68 primes up to 343 and the 9 recorded prime powers
_FIELD_SIZES = [q for q in range(2, 344) if is_prime(q)] + sorted(p**k for p, k in IRREDUCIBLE)


@pytest.mark.parametrize("q", _FIELD_SIZES)
def test_gf_agrees_with_a_schoolbook_field(q):
    F, R = gf(q), _field(q)
    assert (F.q, F.p, F.k, F.primitive) == (R.q, R.p, R.k, R.primitive)
    # every element up to q = 64, a stride above
    xs = range(0, q, 1 if q <= 64 else 1 + q // 64)
    for a in xs:
        assert [F.add(a, b) for b in xs] == [R.add(a, b) for b in xs], a
        assert [F.mul(a, b) for b in xs] == [R.mul(a, b) for b in xs], a
    assert F.power(0, 0) == 1 and F.power(0, 1) == F.power(0, q) == 0
    for a in xs[1:]:
        pw = [1] + R.powers(a, q + 1)
        assert [F.power(a, n) for n in range(q + 2)] == pw, a
        order = pw.index(1, 1)
        assert F.element_order(a) == order
        assert F.inverse(a) == pw[order - 1] and R.mul(a, pw[order - 1]) == 1
    with pytest.raises(InvalidSpec, match="zero has no multiplicative order"):
        F.element_order(0)
    with pytest.raises(InvalidSpec, match="zero has no multiplicative inverse"):
        F.inverse(0)


def test_field_tables_are_fields():
    for q in (4, 8, 9, 16, 25, 27, 32, 49, 53, 101):
        F = gf(q)
        assert F.element_order(F.primitive) == q - 1
        # distributivity spot check
        for a, b, c in ((2, 3, 1), (q - 1, 2, 3)):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    # 1 generates the units of GF(2) only
    assert gf(2).primitive == 1


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


def test_file_spec_is_recognised_before_products():
    # the path contains the product separator 'x'
    assert parse_group_spec("file:/tmp/box.txt") == GroupSpec("FromGenerators", ("/tmp/box.txt",))


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


def test_file_spec_reads_the_file_again(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("degree 3\n(1,2)\n")
    spec = parse_group_spec(f"file:{f}")
    assert construct(spec).order == 2
    f.write_text("degree 3\n(1,2)\n(1,2,3)\n")
    assert construct(spec).order == 6
    assert construct(parse_group_spec(f"file:{f}")).order == 6


@pytest.mark.parametrize("text, error, message", [
    ("PSL3:3", InvalidSpec, "only PSL(3,2) is cataloged"),
    ("D7", InvalidSpec, "dihedral spec takes the group order, an even number >= 6"),
    ("EA:4:2", InvalidSpec, "4 is not prime"),
    ("AGL1:9:5", InvalidSpec, "index parameter 5 must divide 8"),
    ("S0", InvalidSpec, "degree must be at least 1"),
    ("A0", InvalidSpec, "degree must be at least 1"),
    ("C0", InvalidSpec, "order must be positive"),
    ("XYZ9", InvalidSpec, "cannot parse group spec 'XYZ9'"),
    ("Named:NoSuch", InvalidSpec, "unknown named group 'NoSuch'"),
    ("SL2", InvalidSpec, "SL2 takes 1 parameter(s), got 0"),
    ("PSL2:6", InvalidSpec, "6 is not a prime power"),
    ("EA:3", InvalidSpec, "ElementaryAbelian takes 2 parameter(s), got 1"),
    ("PSL3:2:2", InvalidSpec, "PSL3 takes 1 parameter(s), got 2"),
    ("AGL1:a", InvalidSpec, "bad parameters in 'AGL1:a'"),
    ("A20000", DeskScaleExceeded, "A20000 acts on 20000 points, more than the order cap 10080"),
    ("D30000", DeskScaleExceeded, "D30000 acts on 15000 points, more than the order cap 10080"),
    ("AGL1:1000000000000000003", DeskScaleExceeded,
     "AGL1:1000000000000000003 acts on 1000000000000000003 points, more than the order cap 10080"),
    ("S\u00b2", InvalidSpec, "cannot parse group spec 'S\u00b2'"),
    ("EA:2:0", InvalidSpec, "rank must be at least 1"),
    ("EA:2:-1", InvalidSpec, "rank must be at least 1"),
    ("EA:1000000000000000003:0", InvalidSpec, "rank must be at least 1"),
    ("AGL1:9:-2", InvalidSpec, "index parameter -2 must be a positive divisor of 8"),
    ("AGL1:9:0", InvalidSpec, "index parameter 0 must be a positive divisor of 8"),
    ("AGL1::4", InvalidSpec, "empty parameter in 'AGL1::4'"),
    ("AGL1:9::4", InvalidSpec, "empty parameter in 'AGL1:9::4'"),
    ("EA:2:", InvalidSpec, "empty parameter in 'EA:2:'"),
    ("SL2:", InvalidSpec, "empty parameter in 'SL2:'"),
    ("S3x", InvalidSpec, "empty factor in product 'S3x'"),
    ("xS3", InvalidSpec, "empty factor in product 'xS3'"),
    ("S3xxC2", InvalidSpec, "empty factor in product 'S3xxC2'"),
    ("Named:V9C2x2x", InvalidSpec, "empty factor in product 'Named:V9C2x2x'"),
])
def test_spec_error_type_and_message(text, error, message):
    with pytest.raises(FrobgraphError) as err:
        construct(parse_group_spec(text))
    assert err.type is error and str(err.value) == message


# Reference actions, one explicit loop per group: the shared linear action
# must reproduce their point numbering and generator images exactly.

def _reference_sl2_matrices(q):
    F = _field(q)
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    if F.k > 1:
        g = F.primitive
        mats.append(((1, g), (0, 1)))
        mats.append(((1, 0), (g, 1)))
    return F, mats


def _reference_sl2(q):
    F, mats = _reference_sl2_matrices(q)
    vecs = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}
    gens = []
    for (m00, m01), (m10, m11) in mats:
        images = []
        for a, b in vecs:
            na = F.add(F.mul(m00, a), F.mul(m01, b))
            nb = F.add(F.mul(m10, a), F.mul(m11, b))
            images.append(idx[(na, nb)])
        gens.append(images)
    return gens


def _reference_psl2(q):
    F, mats = _reference_sl2_matrices(q)
    # point i < q is [1 : i], point q is [0 : 1]
    def point_index(a, b):
        if a != 0:
            ainv = next(x for x in range(1, q) if F.mul(a, x) == 1)
            return F.mul(b, ainv)
        return q

    gens = []
    for (m00, m01), (m10, m11) in mats:
        images = []
        for i in range(q + 1):
            a, b = (1, i) if i < q else (0, 1)
            na = F.add(F.mul(m00, a), F.mul(m01, b))
            nb = F.add(F.mul(m10, a), F.mul(m11, b))
            images.append(point_index(na, nb))
        gens.append(images)
    return gens


def _reference_agl1(q, d):
    # translations by p^i, then the scaling by primitive^((q - 1) / d)
    F = _field(q)
    gens = [[F.add(x, F.p**i) for x in range(q)] for i in range(F.k)]
    if d > 1:
        s = F.powers(F.primitive, (q - 1) // d)[-1]
        gens.append([F.mul(s, x) for x in range(q)])
    return gens


def _reference_psl32():
    vecs = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)][1:]
    idx = {v: i for i, v in enumerate(vecs)}
    mats = [
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
    ]
    gens = []
    for m in mats:
        images = []
        for v in vecs:
            w = tuple(sum(m[r][c] * v[c] for c in range(3)) % 2 for r in range(3))
            images.append(idx[w])
        gens.append(images)
    return gens


def _images(gens):
    return [list(g.images) for g in gens]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_linear_groups_keep_their_point_numbering(q):
    sl2, psl2 = parse_group_spec(f"SL2:{q}"), parse_group_spec(f"PSL2:{q}")
    assert _images(catalog._sl2(q)) == _reference_sl2(q)
    assert _images(catalog._psl2(q)) == _reference_psl2(q)
    # SL(2, 25) and SL(2, 27) are above the order cap, so only PSL2 closes
    if expected_order(sl2) <= DEFAULT_ORDER_CAP:
        assert _images(construct(sl2).generators) == _reference_sl2(q)
    assert _images(construct(psl2).generators) == _reference_psl2(q)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49])
def test_affine_groups_keep_their_generators(q):
    for d in range(1, q):
        if (q - 1) % d == 0:
            G = construct(parse_group_spec(f"AGL1:{q}:{d}"))
            assert _images(G.generators) == _reference_agl1(q, d), d


def test_psl32_keeps_its_point_numbering():
    assert _images(construct(parse_group_spec("PSL3:2")).generators) == _reference_psl32()
