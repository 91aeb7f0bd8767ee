"""Constructors for the named groups used throughout the analyses.

Three tables say everything about the kinds a GroupSpec can name.
`_FAMILIES` has one entry per parametrised kind (symmetric, alternating,
cyclic, dihedral and elementary abelian groups, AGL(1, q) and its
kernel-preserving subgroups, SL(2, q), PSL(2, q), PSL(3, 2)): the spec
prefix, the parameter count, and functions of the parameters for the
degree, the order and the builder; parsing, labels, expected orders and
construction all read it.  `NAMED_SPECS` maps each Named label to another
GroupSpec or to (degree, generator cycles, order).  `CATALOG_SPECS` lists
the groups the CLI ships.  Direct products and generator files are the
only other kinds, and the linear groups share one action, `_linear_action`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce, update_wrapper
from itertools import product
from math import factorial, gcd, prod
from operator import mul

from .config import DEFAULT_ORDER_CAP
from .cyclo import is_prime
from .errors import DeskScaleExceeded, InvalidSpec, ParseError
from .group import group_from_generators
from .perm import Permutation, parse_cycles
from .smallfield import gf


def _close(degree, gens, order_cap):
    """Catalog constructions carry their exact degree, so only the order cap
    guards them; the degree cap stays strict for raw generator input."""
    return group_from_generators(degree, gens, order_cap=order_cap, degree_cap=degree)


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    params: tuple = ()

    def label(self):
        """Spec string in the same grammar parse_group_spec accepts."""
        if self.kind == "Named":
            return f"Named:{self.params[0]}"
        if self.kind == "DirectProduct":
            return "x".join(p.label() for p in self.params)
        if self.kind == "FromGenerators":
            return f"file:{self.params[0]}"
        return _family(self.kind).prefix + ":".join(map(str, self.params))


# A parametrised kind, written `prefix` then its `nparams` parameters ("S" +
# "5", "EA:" + "3:2").  degree(*params) is the number of points, known before
# building (None when only the builder knows it); build(*params, order_cap)
# returns the group, of order order(*params).
_Family = namedtuple("_Family", "prefix nparams degree order build")


def _family(kind):
    if kind not in _FAMILIES:
        raise InvalidSpec(f"unknown spec kind {kind!r}")
    return _FAMILIES[kind]


def _symmetric(n, order_cap):
    if n < 1:
        raise InvalidSpec("degree must be at least 1")
    if n == 1:
        return _close(1, [], order_cap)
    gens = [Permutation.from_cycles(n, [(0, 1)]),
            Permutation.from_cycles(n, [tuple(range(n))])]
    return _close(n, gens, order_cap)


def _alternating(n, order_cap):
    if n < 1:
        raise InvalidSpec("degree must be at least 1")
    if n < 3:
        return _close(n, [], order_cap)
    cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
    gens = [Permutation.from_cycles(n, [(0, 1, 2)]), Permutation.from_cycles(n, [cyc])]
    return _close(n, gens, order_cap)


def _cyclic(n, order_cap):
    if n < 1:
        raise InvalidSpec("order must be positive")
    return _close(n, [Permutation.from_cycles(n, [tuple(range(n))])], order_cap)


def _dihedral(order, order_cap):
    if order % 2 or order < 6:
        raise InvalidSpec("dihedral spec takes the group order, an even number >= 6")
    n = order // 2
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return _close(n, [rot, ref], order_cap)


def _elementary_abelian(p, k, order_cap):
    # before the primality test: EA:p:0 has degree 0, so no guard stops a huge p
    if k < 1:
        raise InvalidSpec("rank must be at least 1")
    if not is_prime(p):
        raise InvalidSpec(f"{p} is not prime")
    gens = [
        Permutation.from_cycles(p * k, [tuple(range(i * p, (i + 1) * p))])
        for i in range(k)
    ]
    return _close(p * k, gens, order_cap)


def _affine_group(q, d, order_cap):
    """Translations of GF(q) plus the order-d power of a primitive scaling.

    Translations by a basis of GF(q) over its prime field are all needed:
    for small d the scaling orbit of 1 does not span the field additively.
    """
    F = gf(q)
    gens = [
        Permutation(tuple(F.add(x, F.p**i) for x in range(q)))
        for i in range(F.k)
    ]
    if d > 1:
        s = F.power(F.primitive, (q - 1) // d)
        gens.append(Permutation(tuple(F.mul(s, x) for x in range(q))))
    return _close(q, gens, order_cap)


def _affine_subgroup(q, d, order_cap):
    if d < 1:
        raise InvalidSpec(f"index parameter {d} must be a positive divisor of {q - 1}")
    if (q - 1) % d:
        raise InvalidSpec(f"index parameter {d} must divide {q - 1}")
    return _affine_group(q, d, order_cap)


def _linear_action(F, matrices, points, projective):
    """The permutations v -> M v of `points`, vectors over the field F, one
    per matrix M.  A projective point is written with its first nonzero
    coordinate 1, and each image is scaled to that form."""
    index = {v: i for i, v in enumerate(points)}
    gens = []
    for M in matrices:
        images = []
        for v in points:
            w = tuple(reduce(F.add, map(F.mul, row, v)) for row in M)
            if projective:
                s = F.inverse(next(filter(None, w)))
                w = tuple(F.mul(s, c) for c in w)
            images.append(index[w])
        gens.append(Permutation(images))
    return gens


def _sl2_matrices(F):
    """Transvections generating SL(2, q).  Over a proper extension field the
    unit ones generate only SL(2, p), so those by a primitive element join."""
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    if F.k > 1:
        g = F.primitive
        mats += [((1, g), (0, 1)), ((1, 0), (g, 1))]
    return mats


def _sl2(q):
    """Generators of SL(2, q) on the q^2 - 1 nonzero vectors of the plane,
    in product order."""
    F = gf(q)
    return _linear_action(F, _sl2_matrices(F), list(product(range(q), repeat=2))[1:], False)


def _psl2(q):
    """Generators of PSL(2, q) on the q + 1 points of the projective line:
    point i < q is [1 : i], point q is [0 : 1]."""
    F = gf(q)
    return _linear_action(F, _sl2_matrices(F), [(1, i) for i in range(q)] + [(0, 1)], True)


_PSL32_MATRICES = (
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
)


def _psl3(n, order_cap):
    """PSL(3, 2) = GL(3, 2) on the 7 points of the projective plane over
    F_2, which are the nonzero vectors of F_2^3, in product order."""
    if n != 2:
        raise InvalidSpec("only PSL(3,2) is cataloged")
    points = list(product(range(2), repeat=3))[1:]
    return _close(7, _linear_action(gf(2), _PSL32_MATRICES, points, True), order_cap)


_FAMILIES = {
    "Symmetric": _Family("S", 1, lambda n: n, factorial, _symmetric),
    # the trivial A1 and A2 count as one point
    "Alternating": _Family("A", 1, lambda n: n if n >= 3 else 1,
                           lambda n: max(factorial(n) // 2, 1), _alternating),
    "Cyclic": _Family("C", 1, lambda n: n, lambda n: n, _cyclic),
    "Dihedral": _Family("D", 1, lambda n: n // 2, lambda n: n, _dihedral),
    "ElementaryAbelian": _Family("EA:", 2, mul, pow, _elementary_abelian),
    "AGL1": _Family("AGL1:", 1, lambda q: q, lambda q: q * (q - 1),
                    lambda q, cap: _affine_group(q, q - 1, cap)),
    "AGL1Subgroup": _Family("AGL1:", 2, lambda q, d: q, mul, _affine_subgroup),
    "SL2": _Family("SL2:", 1, lambda q: q * q - 1, lambda q: q * (q * q - 1),
                   lambda q, cap: _close(q * q - 1, _sl2(q), cap)),
    "PSL2": _Family("PSL2:", 1, lambda q: q + 1, lambda q: q * (q * q - 1) // (2 if q % 2 else 1),
                    lambda q, cap: _close(q + 1, _psl2(q), cap)),
    # the parameter is checked before any degree is known
    "PSL3": _Family("PSL3:", 1, lambda n: None,
                    lambda n: n**3 * (n**3 - 1) * (n * n - 1) // gcd(3, n - 1), _psl3),
}

NAMED_SPECS = {
    "G351": GroupSpec("AGL1Subgroup", (27, 13)),
    "G80": GroupSpec("AGL1Subgroup", (16, 5)),
    "D12": GroupSpec("Dihedral", (12,)),
    # 2^2:9 of order 36 on 13 points: a Klein four group on {1..4} rotated
    # by a 9-cycle whose cube acts trivially on it
    "V9C2x2": (13, ("(1,2)(3,4)", "(2,3,4)(5,6,7,8,9,10,11,12,13)"), 36),
    # the Mathieu group M11, sharply 4-transitive on 11 points
    "M11": (11, ("(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"), 7920),
}


def parse_group_spec(text):
    """Parse CLI spec strings like S5, A6, C12, D12, EA:3:2, AGL1:9:4,
    SL2:7, PSL2:8, PSL3:2, Named:G80, and x-products such as S3xC4."""
    text = text.strip()
    # a path may contain 'x', so files are recognised before products
    if text.startswith("file:"):
        return GroupSpec("FromGenerators", (text[5:],))
    if text.startswith("Named:") and text[6:] in NAMED_SPECS:
        return GroupSpec("Named", (text[6:],))
    if "x" in text:
        # a Named label may itself contain 'x'; re-join split fragments
        raw = text.split("x")
        parts = []
        i = 0
        while i < len(raw):
            part = raw[i]
            while (
                part.startswith("Named:")
                and part[6:] not in NAMED_SPECS
                and i + 1 < len(raw)
            ):
                i += 1
                part = part + "x" + raw[i]
            parts.append(part)
            i += 1
        if len(parts) > 1:
            if not all(p.strip() for p in parts):
                raise InvalidSpec(f"empty factor in product {text!r}")
            return GroupSpec(
                "DirectProduct", tuple(parse_group_spec(p) for p in parts)
            )
    if text.startswith("Named:"):
        raise InvalidSpec(f"unknown named group {text[6:]!r}")
    head, colon, rest = text.partition(":")
    kinds = [kind for kind, f in _FAMILIES.items() if f.prefix == head + ":"]
    if kinds:
        fields = rest.split(":") if colon else []
        if "" in fields:
            raise InvalidSpec(f"empty parameter in {text!r}")
        try:
            params = tuple(map(int, fields))
        except ValueError:
            raise InvalidSpec(f"bad parameters in {text!r}")
        # AGL1:q and AGL1:q:d share a prefix; the parameter count picks the kind
        kind = next((k for k in kinds if _FAMILIES[k].nparams == len(params)), kinds[0])
        return GroupSpec(kind, params)
    for kind, f in _FAMILIES.items():
        digits = text[len(f.prefix) :]
        if text.startswith(f.prefix) and digits.isdecimal():
            return GroupSpec(kind, (int(digits),))
    raise InvalidSpec(f"cannot parse group spec {text!r}")


def expected_order(spec):
    """Group order from the construction parameters, without building."""
    kind, p = spec.kind, spec.params
    if kind == "FromGenerators":
        return None  # only known after closure
    if kind == "DirectProduct":
        return prod(map(expected_order, p))
    if kind == "Named":
        entry = NAMED_SPECS[p[0]]
        return expected_order(entry) if isinstance(entry, GroupSpec) else entry[2]
    return _family(kind).order(*p)


def _uncached_for_files(cached):
    """The lru_cache `cached`, bypassed for generator files (their contents can
    change under the same path); its cache_info and cache_clear are kept."""
    def construct(spec, order_cap=None):
        return (cached.__wrapped__ if spec.kind == "FromGenerators" else cached)(spec, order_cap)
    construct.cache_info, construct.cache_clear = cached.cache_info, cached.cache_clear
    return update_wrapper(construct, cached)


@_uncached_for_files
@lru_cache(maxsize=None)
def construct(spec, order_cap=None):
    """Build the permutation group for a spec; order is verified exactly
    whenever the construction predicts it.  Generator files are not cached."""
    G = _build(spec, order_cap)
    want = expected_order(spec)
    if want is not None and G.order != want:
        raise InvalidSpec(
            f"{spec.label()} built with order {G.order}, expected {want}"
        )
    return G


def _build(spec, order_cap):
    kind, p = spec.kind, spec.params
    if kind == "FromGenerators":
        degree, gens = read_permutation_spec(p[0])
        return group_from_generators(degree, gens, order_cap=order_cap)
    if kind == "Named":
        entry = NAMED_SPECS[p[0]]
        if isinstance(entry, GroupSpec):
            return _build(entry, order_cap)
        degree, cycles, _ = entry
        return _close(degree, [parse_cycles(c, degree=degree) for c in cycles], order_cap)
    if kind == "DirectProduct":
        groups = [construct(s, order_cap) for s in p]
        degree = sum(g.degree for g in groups)
        gens = []
        offset = 0
        for g in groups:
            for gen in g.generators:
                images = list(range(degree))
                for i, v in enumerate(gen.images):
                    images[offset + i] = offset + v
                gens.append(Permutation(images))
            offset += g.degree
        return _close(degree, gens, order_cap)
    family = _family(kind)
    if len(p) != family.nparams:
        raise InvalidSpec(f"{kind} takes {family.nparams} parameter(s), got {len(p)}")
    degree = family.degree(*p)
    cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    # a catalog group has at least as many elements as points, so this
    # refuses before any primality test or permutation of that degree
    if degree is not None and degree > cap:
        raise DeskScaleExceeded(
            f"{spec.label()} acts on {degree} points, more than the order cap {cap}"
        )
    return family.build(*p, order_cap)


# ----------------------------------------------------------------------
# text format for generator files


def parse_permutation_spec(text):
    """Parse a group spec file: first line "degree N", one generator per
    line in 1-based cycle notation, '#' starts a comment."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdecimal():
                raise ParseError('first line must be "degree N"', line=lineno, column=1)
            degree = int(parts[1])
            continue
        gens.append(parse_cycles(line, degree=degree, line=lineno))
    if degree is None:
        raise ParseError("missing degree header", line=1, column=1)
    return degree, gens


def read_permutation_spec(path):
    """parse_permutation_spec on the contents of a file; a file that cannot
    be read is an InvalidSpec."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidSpec(f"cannot read generator file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidSpec(f"generator file {path!r} is not UTF-8 text") from None
    return parse_permutation_spec(text)


# ----------------------------------------------------------------------
# the affine diameter-three criterion


def affine_diam3_criterion(p, d):
    """Whether the order-(p^2 d) subgroup of AGL(1, p^2) has a diameter-3
    subgroup: d must be divisible by (p + 1) times the 2-part of (p - 1).

    AGL(1, p^2) acts on p^2 points, so p^2 above the order cap is refused
    before p is tested for primality, as `construct` refuses such specs.
    """
    if p * p > DEFAULT_ORDER_CAP:
        raise DeskScaleExceeded(
            f"AGL1:{p * p} acts on {p * p} points, more than the order cap {DEFAULT_ORDER_CAP}"
        )
    if not is_prime(p):
        raise InvalidSpec(f"{p} is not prime")
    if d <= 1 or (p * p - 1) % d:
        raise InvalidSpec(f"{d} must be a divisor of {p * p - 1} greater than 1")
    two_part = (p - 1) & -(p - 1)
    return d % ((p + 1) * two_part) == 0


# ----------------------------------------------------------------------
# the catalog shipped with the CLI; everything here is desk scale

CATALOG_SPECS = tuple(
    parse_group_spec(s)
    for s in (
        "C6", "C12", "D8", "Named:D12", "EA:2:3", "EA:3:2",
        "S3", "S4", "S5", "S6", "A4", "A5", "A6",
        "S3xC4", "S3xS3", "C2xA4", "C3xA4",
        "AGL1:5", "AGL1:7", "AGL1:8", "AGL1:9", "AGL1:16",
        "AGL1:25", "AGL1:32", "AGL1:9:2", "AGL1:9:4", "AGL1:49:16",
        "AGL1:343:19",
        "Named:G80", "Named:G351", "Named:V9C2x2",
        "SL2:3", "SL2:5", "SL2:7", "SL2:9", "SL2:11",
        "PSL3:2", "PSL2:8", "PSL2:11", "PSL2:13",
    )
)

# groups the equivalence suites sweep: all catalog entries of order <= 2000
SCAN_SPECS = tuple(s for s in CATALOG_SPECS if expected_order(s) <= 2000)
