"""Constructors for the named groups used throughout the analyses.

Each GroupSpec names a permutation construction: symmetric/alternating/cyclic
/dihedral groups, elementary abelian groups, direct products, affine groups
AGL(1, q) and their kernel-preserving subgroups, SL/PSL over small fields,
and a handful of fixed generator lists under Named labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, update_wrapper
from math import factorial

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
        short = {
            "Symmetric": "S",
            "Alternating": "A",
            "Cyclic": "C",
            "Dihedral": "D",
        }.get(self.kind)
        if short:
            return f"{short}{self.params[0]}"
        prefix = {
            "ElementaryAbelian": "EA",
            "AGL1Subgroup": "AGL1",
            "FromGenerators": "file",
        }.get(self.kind, self.kind)
        return ":".join([prefix] + [str(p) for p in self.params])


NAMED_SPECS = {
    "G351": GroupSpec("AGL1Subgroup", (27, 13)),
    "G80": GroupSpec("AGL1Subgroup", (16, 5)),
    "D12": GroupSpec("Dihedral", (12,)),
}

_ALL_NAMED = set(NAMED_SPECS) | {"V9C2x2"}

# 2^2:9 of order 36 on 13 points: a Klein four group on {1..4} rotated by a
# 9-cycle whose cube acts trivially on it
_V9C2X2_GENS = ["(1,2)(3,4)", "(2,3,4)(5,6,7,8,9,10,11,12,13)"]


def parse_group_spec(text):
    """Parse CLI spec strings like S5, A6, C12, D12, EA:3:2, AGL1:9:4,
    SL2:7, PSL2:8, PSL3:2, Named:G80, and x-products such as S3xC4."""
    text = text.strip()
    # a path may contain 'x', so files are recognised before products
    if text.startswith("file:"):
        return GroupSpec("FromGenerators", (text[5:],))
    if text.startswith("Named:") and text[6:] in _ALL_NAMED:
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
                and part[6:] not in _ALL_NAMED
                and i + 1 < len(raw)
            ):
                i += 1
                part = part + "x" + raw[i]
            parts.append(part)
            i += 1
        if len(parts) > 1:
            return GroupSpec(
                "DirectProduct", tuple(parse_group_spec(p) for p in parts)
            )
    if text.startswith("Named:"):
        raise InvalidSpec(f"unknown named group {text[6:]!r}")
    for prefix, kind in (("EA", "ElementaryAbelian"), ("AGL1", "AGL1"),
                         ("SL2", "SL2"), ("PSL2", "PSL2"), ("PSL3", "PSL3")):
        if text == prefix or text.startswith(prefix + ":"):
            args = text[len(prefix) + 1 :].split(":") if ":" in text else []
            try:
                params = tuple(int(a) for a in args if a)
            except ValueError:
                raise InvalidSpec(f"bad parameters in {text!r}")
            if kind == "AGL1" and len(params) == 2:
                return GroupSpec("AGL1Subgroup", params)
            return GroupSpec(kind, params)
    for prefix, kind in (("S", "Symmetric"), ("A", "Alternating"),
                         ("C", "Cyclic"), ("D", "Dihedral")):
        if text.startswith(prefix) and text[len(prefix) :].isdigit():
            return GroupSpec(kind, (int(text[len(prefix) :]),))
    raise InvalidSpec(f"cannot parse group spec {text!r}")


def expected_order(spec):
    """Group order from the construction parameters, without building."""
    kind, p = spec.kind, spec.params
    if kind == "Symmetric":
        return factorial(p[0])
    if kind == "Alternating":
        return factorial(p[0]) // 2
    if kind == "Cyclic":
        return p[0]
    if kind == "Dihedral":
        return p[0]
    if kind == "ElementaryAbelian":
        return p[0] ** p[1]
    if kind == "DirectProduct":
        n = 1
        for sub in p:
            n *= expected_order(sub)
        return n
    if kind == "AGL1":
        q = p[0]
        return q * (q - 1)
    if kind == "AGL1Subgroup":
        q, d = p
        return q * d
    if kind == "SL2":
        q = p[0]
        return q * (q * q - 1)
    if kind == "PSL2":
        q = p[0]
        return q * (q * q - 1) // (2 if q % 2 else 1)
    if kind == "PSL3":
        if p[0] != 2:
            raise InvalidSpec("only PSL(3,2) is cataloged")
        return 168
    if kind == "Named":
        if p[0] == "V9C2x2":
            return 36
        return expected_order(NAMED_SPECS[p[0]])
    if kind == "FromGenerators":
        return None  # only known after closure
    raise InvalidSpec(f"unknown spec kind {kind!r}")


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
    degree = _degree(spec)
    cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    # a catalog group has at least as many elements as points, so this
    # refuses before any primality test or permutation of that degree
    if degree is not None and degree > cap:
        raise DeskScaleExceeded(
            f"{spec.label()} acts on {degree} points, more than the order cap {cap}"
        )
    if kind == "Named":
        if p[0] == "V9C2x2":
            gens = [parse_cycles(s, degree=13) for s in _V9C2X2_GENS]
            return _close(13, gens, order_cap)
        return _build(NAMED_SPECS[p[0]], order_cap)
    if kind == "FromGenerators":
        degree, gens = read_permutation_spec(p[0])
        return group_from_generators(degree, gens, order_cap=order_cap)
    if kind == "Symmetric":
        n = _need(p, 1, kind)[0]
        if n < 1:
            raise InvalidSpec("degree must be at least 1")
        if n == 1:
            return _close(1, [], order_cap)
        gens = [Permutation.from_cycles(n, [(0, 1)]),
                Permutation.from_cycles(n, [tuple(range(n))])]
        return _close(n, gens, order_cap)
    if kind == "Alternating":
        n = _need(p, 1, kind)[0]
        if n < 3:
            return _close(max(n, 1), [], order_cap)
        cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
        gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
        if len(cyc) > 1:
            gens.append(Permutation.from_cycles(n, [cyc]))
        return _close(n, gens, order_cap)
    if kind == "Cyclic":
        n = _need(p, 1, kind)[0]
        if n < 1:
            raise InvalidSpec("order must be positive")
        if n == 1:
            return _close(1, [], order_cap)
        return _close(n, [Permutation.from_cycles(n, [tuple(range(n))])], order_cap)
    if kind == "Dihedral":
        order = _need(p, 1, kind)[0]
        if order % 2 or order < 6:
            raise InvalidSpec("dihedral spec takes the group order, an even number >= 6")
        n = order // 2
        rot = Permutation.from_cycles(n, [tuple(range(n))])
        ref = Permutation(tuple((n - i) % n for i in range(n)))
        return _close(n, [rot, ref], order_cap)
    if kind == "ElementaryAbelian":
        pr, k = _need(p, 2, kind)
        if not is_prime(pr):
            raise InvalidSpec(f"{pr} is not prime")
        gens = [
            Permutation.from_cycles(pr * k, [tuple(range(i * pr, (i + 1) * pr))])
            for i in range(k)
        ]
        return _close(pr * k, gens, order_cap)
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
    if kind == "AGL1":
        q = _need(p, 1, kind)[0]
        return _affine_group(q, q - 1, order_cap)
    if kind == "AGL1Subgroup":
        q, d = _need(p, 2, kind)
        if d < 1 or (q - 1) % d:
            raise InvalidSpec(f"index parameter {d} must divide {q - 1}")
        return _affine_group(q, d, order_cap)
    if kind == "SL2":
        return _sl2(_need(p, 1, kind)[0], order_cap)
    if kind == "PSL2":
        return _psl2(_need(p, 1, kind)[0], order_cap)
    if kind == "PSL3":
        if _need(p, 1, kind)[0] != 2:
            raise InvalidSpec("only PSL(3,2) is cataloged")
        return _psl32(order_cap)
    raise InvalidSpec(f"unknown spec kind {kind!r}")


def _degree(spec):
    """Points a parametrised family acts on, known before building; the
    trivial A1 and A2 count as one point.  None for the other kinds."""
    kind, p = spec.kind, spec.params
    if kind in ("Symmetric", "Cyclic", "AGL1"):
        return _need(p, 1, kind)[0]
    if kind == "Alternating":
        n = _need(p, 1, kind)[0]
        return n if n >= 3 else 1
    if kind == "Dihedral":
        return _need(p, 1, kind)[0] // 2
    if kind == "ElementaryAbelian":
        pr, k = _need(p, 2, kind)
        return pr * k
    if kind == "AGL1Subgroup":
        return _need(p, 2, kind)[0]
    if kind == "SL2":
        q = _need(p, 1, kind)[0]
        return q * q - 1
    if kind == "PSL2":
        return _need(p, 1, kind)[0] + 1
    return None


def _need(params, n, kind):
    if len(params) != n:
        raise InvalidSpec(f"{kind} takes {n} parameter(s), got {len(params)}")
    return params


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


def _sl2_matrices(q):
    F = gf(q)
    mats = [
        ((F.one, F.one), (F.zero, F.one)),
        ((F.one, F.zero), (F.one, F.one)),
    ]
    if F.k > 1:
        g = F.primitive
        mats.append(((F.one, g), (F.zero, F.one)))
        mats.append(((F.one, F.zero), (g, F.one)))
    return F, mats


def _sl2(q, order_cap):
    """SL(2, q) acting on the q^2 - 1 nonzero vectors of the plane."""
    F, mats = _sl2_matrices(q)
    vecs = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}
    gens = []
    for (m00, m01), (m10, m11) in mats:
        images = []
        for a, b in vecs:
            na = F.add(F.mul(m00, a), F.mul(m01, b))
            nb = F.add(F.mul(m10, a), F.mul(m11, b))
            images.append(idx[(na, nb)])
        gens.append(Permutation(images))
    return _close(len(vecs), gens, order_cap)


def _psl2(q, order_cap):
    """PSL(2, q) on the q + 1 points of the projective line."""
    F, mats = _sl2_matrices(q)
    # point i < q is [1 : i], point q is [0 : 1]
    def point_index(a, b):
        if a != 0:
            ainv = next(x for x in range(1, q) if F.mul(a, x) == F.one)
            return F.mul(b, ainv)
        return q

    gens = []
    for (m00, m01), (m10, m11) in mats:
        images = []
        for i in range(q + 1):
            a, b = (F.one, i) if i < q else (F.zero, F.one)
            na = F.add(F.mul(m00, a), F.mul(m01, b))
            nb = F.add(F.mul(m10, a), F.mul(m11, b))
            images.append(point_index(na, nb))
        gens.append(Permutation(images))
    return _close(q + 1, gens, order_cap)


def _psl32(order_cap):
    """PSL(3, 2) = GL(3, 2) on the 7 nonzero vectors of F_2^3."""
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
        gens.append(Permutation(images))
    return _close(7, gens, order_cap)


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
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
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
