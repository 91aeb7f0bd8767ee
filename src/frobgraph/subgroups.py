"""Subgroup classes up to conjugacy, and whole-group classification scans.

Enumeration strategy: seed with the trivial subgroup (and, for nonsolvable
groups, all perfect subgroups found by two-generator closure), then extend
every known class representative H by elements z of its normalizer with
z^p in H for a prime p.  Every subgroup sits above its perfect core through
a chain of such prime extensions, so the sweep is complete.  Conjugacy
dedup keeps the full orbit of every discovered class in one hash set, so a
repeat candidate costs one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import is_prime
from .errors import DeskScaleExceeded
from .frobenius import Verdict, is_diameter_three, is_rich
from .depth import minimal_depth
from .group import (
    Subgroup,
    closure_indices,
    conjugacy_classes,
    conjugations,
    conjugators,
    derived_subset,
    is_solvable,
    normalizer,
    orbit,
    orbit_partition,
    right_multiplications,
    _greedy_generators,
)


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups: canonical representative and length."""

    rep: Subgroup
    length: int

    @property
    def order(self):
        return self.rep.order


def _subgroup_class(G, members, gen_indices=None):
    """The class of the subgroup `members` and the list of its G-conjugates.

    The representative is the least conjugate; it keeps gen_indices only
    when it is `members` itself.
    """
    fz = frozenset(members)
    steps = [
        lambda s, c=c: frozenset(map(c, s))
        for c in conjugations(G, G.generator_indices)
    ]
    conjugates = orbit(fz, steps)
    rep_set = min(conjugates, key=sorted)
    if rep_set != fz:
        gen_indices = None
    return SubgroupClass(Subgroup(G, rep_set, gen_indices), len(conjugates)), conjugates


class _Enumerator:
    def __init__(self, G):
        self.G = G
        self.seen = set()
        self.classes = []
        self.work = []

    def register(self, members, gen_indices):
        if frozenset(members) in self.seen:
            return
        record, conjugates = _subgroup_class(self.G, members, gen_indices)
        self.seen.update(conjugates)
        self.classes.append(record)
        self.work.append(record)

    def run(self):
        G = self.G
        self.register(frozenset((0,)), ())
        self.register(frozenset(range(G.order)), G.generator_indices)
        if not is_solvable(G):
            self._seed_perfect()
        while self.work:
            rec = self.work.pop()
            if not rec.rep.is_whole():
                self._extend(rec.rep)
        self.classes.sort(key=lambda c: (c.order, c.rep.sorted_indices()))
        return self.classes

    def _extend(self, H):
        """All prime-index cyclic extensions of H inside its normalizer."""
        G = self.G
        N = normalizer(G, H)
        hset = H.indices
        # H is normal in N, so a z inside an extension H<z0> of prime index
        # generates that same extension: skip it.
        covered = set(hset)
        for z in sorted(N.indices):
            if z in covered:
                continue
            # least m with z^m in H; extension is useful only for prime m
            m = 1
            zp = z
            while zp not in hset:
                zp = G.mult(zp, z)
                m += 1
            if not is_prime(m):
                continue
            members = set(hset)
            zt = z
            for _ in range(m - 1):
                (step,) = right_multiplications(G, (zt,))
                members.update(map(step, hset))
                zt = G.mult(zt, z)
            covered.update(members)
            self.register(members, tuple(H.generator_indices) + (z,))

    def _seed_perfect(self):
        """Perfect subgroups by two-generator closure over class-rep pairs.

        Complete as long as every perfect subgroup is 2-generated, which
        holds well beyond the desk cap; the guard below refuses the first
        order where a product of two simple factors could fit.
        """
        G = self.G
        if G.order % 3600 == 0:
            raise DeskScaleExceeded(
                "perfect-subgroup seeding is only guaranteed below order 3600"
            )
        cd = conjugacy_classes(G)
        half = G.order // 2
        for i in range(1, len(cd)):
            x = cd.rep_indices[i]
            cyclic_x = closure_indices(G, (x,))
            cent = frozenset(conjugators(G, (x,), (x,)))
            cent_gens = _greedy_generators(G, cent)
            # one y per orbit of the centralizer of x acting by conjugation
            for points in orbit_partition(G.order, conjugations(G, cent_gens)):
                y = points[0]
                if y in cyclic_x:
                    continue
                members = orbit(0, right_multiplications(G, (x, y)), half)
                if members is None:
                    continue
                n = len(members)
                if n < 60 or n % 12 or n == G.order:
                    continue
                if frozenset(members) in self.seen:
                    continue
                if len(derived_subset(G, (x, y))) == n:
                    self.register(members, (x, y))


def enumerate_subgroup_classes(G):
    """Complete list of subgroup classes up to conjugacy (cached on the group)."""
    if G._subgroup_classes is None:
        G._subgroup_classes = _Enumerator(G).run()
    return G._subgroup_classes


def prime_order_subgroup_classes(G):
    """Classes of prime-order subgroups, without the full enumeration."""
    seen = set()
    classes = []
    for x in range(1, G.order):
        if not is_prime(G.element_order(x)):
            continue
        members = closure_indices(G, (x,))
        if members in seen:
            continue
        record, conjugates = _subgroup_class(G, members)
        seen.update(conjugates)
        classes.append(record)
    classes.sort(key=lambda c: (c.order, c.rep.sorted_indices()))
    return classes


def has_diameter_three_subgroup(G):
    """Scan prime-order classes for a rich one; richness at prime order is
    enough because a non-normal prime-order subgroup meets some conjugate
    trivially.  Returns a Verdict whose witness is the rich class.
    """
    for cls in prime_order_subgroup_classes(G):
        if cls.rep.order == G.order:
            continue
        if is_rich(G, cls.rep):
            return Verdict(True, witness=cls)
    return Verdict(False)


@dataclass
class ClassRow:
    """Per-class verdicts of a classification scan."""

    order: int
    length: int
    subgroup: Subgroup
    is_rich: bool | None = None
    rich_witness: object = None
    is_diam3: bool | None = None
    diam3_witness: object = None
    depth: int | None = None


@dataclass
class ClassificationReport:
    """Scan results: per-class rows plus the aggregate counts.

    n counts all classes, g the nontrivial rich classes, m the rich classes
    maximal with respect to inclusion among rich classes.
    """

    group: object
    rows: list
    n: int
    g: int
    m: int
    maximal_rich_rows: list = field(default_factory=list)

    @property
    def rich_orders(self):
        return sorted(r.order for r in self.rows if r.is_rich and r.order > 1)

    @property
    def maximal_rich_orders(self):
        return sorted(r.order for r in self.maximal_rich_rows)

    def to_json_dict(self):
        return {
            "order": self.group.order,
            "n": self.n,
            "g": self.g,
            "m": self.m,
            "maximal_rich_orders": self.maximal_rich_orders,
            "classes": [
                {
                    "order": r.order,
                    "length": r.length,
                    "rich": r.is_rich,
                    "diameter_three": r.is_diam3,
                    "depth": r.depth,
                }
                for r in self.rows
            ],
        }


def _contained_up_to_conjugacy(G, small, big):
    """Whether some conjugate of `small` lies inside `big`."""
    if big.order % small.order:
        return False
    return next(conjugators(G, small.generator_indices, big.indices), None) is not None


def _maximal(G, subgroups):
    """The subgroups no larger one of the list contains up to conjugacy."""
    return [
        h for h in subgroups
        if not any(
            _contained_up_to_conjugacy(G, h, k) for k in subgroups if k.order > h.order
        )
    ]


def classify_subgroups(G):
    """Rich / diameter-3 / depth verdicts for every subgroup class."""
    classes = enumerate_subgroup_classes(G)
    rows = []
    for cls in classes:
        row = ClassRow(order=cls.order, length=cls.length, subgroup=cls.rep)
        if not cls.rep.is_whole():
            rich = is_rich(G, cls.rep)
            row.is_rich = rich.ok
            row.rich_witness = rich.witness
            d3 = is_diameter_three(G, cls.rep)
            row.is_diam3 = d3.ok
            row.diam3_witness = d3.witness
            row.depth = minimal_depth(G, cls.rep).minimal_depth
        rows.append(row)
    rich_rows = [r for r in rows if r.is_rich and r.order > 1]
    maximal_reps = _maximal(G, [r.subgroup for r in rich_rows])
    maximal = [r for r in rich_rows if r.subgroup in maximal_reps]
    return ClassificationReport(
        group=G,
        rows=rows,
        n=len(rows),
        g=len(rich_rows),
        m=len(maximal),
        maximal_rich_rows=maximal,
    )


def maximal_subgroup_classes(G):
    """Classes whose representatives are maximal proper subgroups."""
    classes = [c for c in enumerate_subgroup_classes(G) if not c.rep.is_whole()]
    maximal_reps = _maximal(G, [c.rep for c in classes])
    return [c for c in classes if c.rep in maximal_reps]


def is_minimal_rich_group(G):
    """G has a nontrivial rich subgroup but no proper subgroup does.

    Richness passes down into overgroups, so checking the maximal subgroup
    classes suffices.
    """
    if not has_diameter_three_subgroup(G):
        return False
    for cls in maximal_subgroup_classes(G):
        if cls.order == 1:
            continue
        M = cls.rep.as_group()
        if has_diameter_three_subgroup(M):
            return False
    return True
