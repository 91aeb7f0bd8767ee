"""Subgroup classes up to conjugacy, and whole-group classification scans.

Enumeration strategy: seed with the trivial subgroup (and, for nonsolvable
groups, all perfect subgroups found by two-generator closure), then extend
every known class representative H by elements z of its normalizer with
z^p in H for a prime p.  Every subgroup sits above its perfect core through
a chain of such prime extensions, so the sweep is complete.  Conjugacy
dedup keeps the full orbit of every discovered class in one hash set, so a
repeat candidate costs one lookup.

Three facts bound the perfect seeds.  Every perfect subgroup P lies in the
solvable residual D, the last term of the derived series, since P = P'
lies in every term.  A perfect group has no subgroup of index 2, 3 or 4,
since its action on the cosets would map it onto a nontrivial perfect
subgroup of the solvable S2, S3 or S4.  So seeding pairs are taken in D,
and a closure is cut off once its index in D falls below 5: it is then D.
Every element order divides |<x, y>| (Lagrange), so the lcm of the orders
of x, y and a few short words in them, read off the class table, names the
registrable orders <x, y> can have: a pair with none is never closed, and
any other is closed only up to the largest of them.  A pair whose y lies in
an earlier class than x is not taken: it spans a conjugate of the subgroup
of an earlier pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

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
    kept_on,
    normalizer,
    orbit,
    orbit_partition,
    powers,
    right_multiplications,
    solvable_residual,
    _commutator,
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
        return self.sorted_classes()

    def sorted_classes(self):
        """The classes registered, by order, then by representative."""
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
            zs = powers(G, z, hset)
            if not is_prime(len(zs)):
                continue
            members = set(hset)
            for step in right_multiplications(G, zs[1:]):
                members.update(map(step, hset))
            covered.update(members)
            self.register(members, tuple(H.generator_indices) + (z,))

    def _seed_perfect(self):
        """Perfect subgroups by two-generator closure over class-rep pairs.

        Three facts bound the search.  Every perfect subgroup P lies in the
        solvable residual D: P = P' = P'' = ... lies in every term of the
        derived series.  A perfect group has no subgroup of index 2, 3 or 4:
        its action on the cosets maps it to a perfect subgroup of S2, S3 or
        S4, which is trivial as those groups are solvable, so the subgroup
        holds the kernel, the whole group.  So both generators are taken in
        D, a closure stops past the largest registrable order of index at
        least 5 in D, and a pair of D whose closure passes |D|/5 generates D.
        Once D is registered, every element order divides |<x, y>|, so
        `_pair_cap` skips a pair whose element orders no registrable order
        admits and caps every other closure at the largest one that does.

        Complete as long as every perfect subgroup is 2-generated, which
        holds well beyond the desk cap; the guard below refuses the first
        order where a product of two simple factors could fit.
        """
        G = self.G
        if G.order % 3600 == 0:
            raise DeskScaleExceeded(
                "perfect-subgroup seeding is only guaranteed below order 3600"
            )
        D = solvable_residual(G)[0]
        order = len(D)
        # the orders registered below; a closure past them is skipped
        registrable = _registrable_orders(order)
        # until D is registered, closures run to |D|/5, and one past it is D
        pending = order < G.order
        if not (registrable or pending):
            return
        cd = conjugacy_classes(G)
        for x, y in _seeding_pairs(G, cd, D):
            if pending:
                limit = order // 5
            else:
                limit = _pair_cap(G, cd, x, y, registrable)
                if not limit:
                    continue
            members = orbit(0, right_multiplications(G, (x, y)), limit)
            if members is None:
                if pending:
                    self.register(D, (x, y))
                    pending = False
                    if not registrable:
                        return
                continue
            n = len(members)
            if n < 60 or n % 12:
                continue
            if frozenset(members) in self.seen:
                continue
            if len(derived_subset(G, (x, y))) == n:
                self.register(members, (x, y))


def _registrable_orders(n):
    """The orders seeding registers in a residual of order n, largest first:
    divisors of n of index at least 5, at least 60 and divisible by 12."""
    return [d for d in reversed(range(60, n // 5 + 1, 12)) if n % d == 0]


def _seeding_pairs(G, cd, D):
    """The pairs (x, y) of D that perfect seeding closes: x runs over the
    class representatives in D, y over one point of each orbit of the
    centralizer of x acting by conjugation, outside <x>.

    y is taken only from x's class or a later one.  If y lies in an earlier
    class j, some g conjugates <x, y> to <x_j, x^g>, and an earlier pair
    (x_j, y') spans a conjugate of it: every outcome of the later pair, a
    registration or a reason to drop it, was already met there.
    """
    cls = cd.class_of_index
    for i in range(1, len(cd)):
        x = cd.rep_indices[i]
        if x not in D:
            continue
        cyclic_x = closure_indices(G, (x,))
        cent = frozenset(conjugators(G, (x,), (x,)))
        cent_gens = _greedy_generators(G, cent)
        for points in orbit_partition(G.order, conjugations(G, cent_gens)):
            y = points[0]
            if cls[y] >= i and y not in cyclic_x and y in D:
                yield x, y


def _pair_cap(G, cd, x, y, registrable):
    """The largest of the orders `registrable` (largest first) that <x, y>
    can have, or 0 when it can have none.

    Every element order divides |<x, y>|, so the lcm of the orders of x, y
    and a fixed handful of short words in them does; each order is two
    table lookups.
    """
    mult, cls, orders = G.mult, cd.class_of_index, cd.element_orders
    xy = mult(x, y)
    words = (
        x, y, xy, mult(x, G.inverse(y)), _commutator(G, x, y),
        mult(mult(x, x), y), mult(x, mult(y, y)), mult(xy, xy),
    )
    ell = lcm(*(orders[cls[w]] for w in words))
    return next((d for d in registrable if d % ell == 0), 0)


@kept_on("_subgroup_classes")
def enumerate_subgroup_classes(G):
    """Complete list of subgroup classes up to conjugacy (`kept_on` the group)."""
    return _Enumerator(G).run()


def prime_order_subgroup_classes(G):
    """Classes of prime-order subgroups, without the full enumeration."""
    # every prime-order subgroup class contains <rep> for a class rep
    cd = conjugacy_classes(G)
    found = _Enumerator(G)
    for x, o in zip(cd.rep_indices, cd.element_orders):
        if is_prime(o):
            found.register(closure_indices(G, (x,)), None)
    return found.sorted_classes()


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
        M = cls.rep.as_group()
        if has_diameter_three_subgroup(M):
            return False
    return True
