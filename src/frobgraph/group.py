"""Finite permutation groups with explicit element enumeration.

Everything is desk scale: a group is a sorted tuple of all its elements plus
an index for O(1) membership, and the expensive operations (normalizers,
cores, conjugacy of subgroups) are element filters.  The filter "every g with
g x g^-1 in T for each x in X" is `conjugators`; normalizers, centralizers
and subgroup conjugacy all go through it.  Index 0 is always the identity
because image tuples sort lexicographically.

Index arithmetic has two paths, chosen once per group from its order.  Up to
order _TABLE_MAX_ORDER (2048) a right-multiplication table of uint16 rows is
built on first use, 2 n^2 bytes (8.4 MB at the cutoff), and products,
inverses and conjugates are lookups.  Larger groups compose image tuples
with `operator.itemgetter`, so the per-point work runs in C; their inverses
are an array built on first use, as on the table path.  `conj_map` is one
expression over a whole right-multiplication row on both paths.  Both paths
return the same indices.  Nothing outside this module sees the table:
callers use `mult`, `inverse`, `conj`, `conj_map` and the step helpers
`right_multiplications` and `conjugations`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations
from math import lcm
from operator import attrgetter, itemgetter

from .config import DEFAULT_DEGREE_CAP, DEFAULT_ORDER_CAP
from .errors import DeskScaleExceeded, InternalInconsistency
from .perm import Permutation


# Largest order that gets a multiplication table (n rows of n uint16).
_TABLE_MAX_ORDER = 2048


class PermGroup:
    """Group of permutations of {0..degree-1}.

    Elements are addressed by their index in the sorted element tuple; all
    arithmetic helpers (`mult`, `inverse`, `conj`) work on indices.  Instances
    are immutable after construction and cache derived data (conjugacy
    classes, character table, derived subgroup) on first use.

    Up to order 2048 the arithmetic reads a table of n uint16 rows (2 n^2
    bytes) built on first use.  Larger groups compose image tuples with
    `itemgetter` and look the result up in `index`; their `inverse` reads an
    array built on first use.  `conj_map` is shared by both paths.
    """

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.elements = tuple(sorted(elements, key=attrgetter("images")))
        self.order = len(self.elements)
        self.index = {p.images: i for i, p in enumerate(self.elements)}
        if not self.elements or not self.elements[0].is_identity():
            raise InternalInconsistency("identity missing from element list")
        gens = tuple(generators)
        if not gens and self.order > 1:
            raise InternalInconsistency("nontrivial group needs generators")
        self.generators = gens if gens else (Permutation.identity(degree),)
        self.generator_indices = tuple(self.index[g.images] for g in self.generators)
        self._rows = None
        self._images = None
        self._inverses = None
        self._conj_maps = {}
        self._orders = None
        self._classdata = None
        self._chartable = None
        self._derived = None
        self._solvable = None
        self._subgroup_classes = None
        if self.order > _TABLE_MAX_ORDER:
            imgs = self._images = [p.images for p in self.elements]
            index = self.index
            self.mult = lambda a, b: index[itemgetter(*imgs[b])(imgs[a])]

    # ------------------------------------------------------------------
    # index arithmetic
    #
    # mult, inverse and conj below run at most once per group: _table binds
    # instance attributes of the same names, which shadow them.  Above the
    # cutoff __init__ binds mult, and _table binds inverse and conj.

    def mult(self, a, b):
        """Index of elements[a] * elements[b] (b acts first)."""
        self._table()
        return self.mult(a, b)

    def inverse(self, a):
        self._table()
        return self.inverse(a)

    def conj(self, g, x):
        """Index of g x g^-1."""
        self._table()
        return self.conj(g, x)

    def _table(self):
        """Rows with rows[b][x] == mult(x, b), or None above the cutoff.

        The first call builds the table and the inverses (only the inverses
        above the cutoff) and binds the arithmetic that reads them.
        """
        if self._inverses is None:
            if self.order <= _TABLE_MAX_ORDER:
                rows = self._rows = _right_multiplication_rows(self)
                inv = array("H", [r.index(0) for r in rows])
                self.mult = lambda a, b: rows[b][a]
                self.conj = lambda g, x: rows[inv[g]][rows[x][g]]
            else:
                imgs = self._images
                index = self.index
                points = range(self.degree)
                inv = array(
                    "H",
                    [index[tuple(sorted(points, key=im.__getitem__))] for im in imgs],
                )
                # g x g^-1: compose x into g, then g^-1 into that
                self.conj = lambda g, x: index[
                    itemgetter(*imgs[inv[g]])(itemgetter(*imgs[x])(imgs[g]))
                ]
            self._inverses = inv
            self.inverse = inv.__getitem__
        return self._rows

    def _row(self, b):
        """Sequence x -> mult(x, b) over all x: a table row, or above the
        cutoff one array built with a single itemgetter."""
        imgs = self._images
        if imgs is None:
            return self._table()[b]
        right = itemgetter(*imgs[b])
        return array("H", map(self.index.__getitem__, map(right, imgs)))

    def conj_map(self, g):
        """Map x -> g x g^-1 as a sequence indexed by x; cached for generators."""
        cm = self._conj_maps.get(g)
        if cm is None:
            right = self._row(self.inverse(g)).__getitem__
            inv = self._inverses
            # x -> x^-1 g^-1 -> g x -> g x g^-1
            cm = array("H", map(right, map(inv.__getitem__, map(right, inv))))
            if g in self.generator_indices:
                self._conj_maps[g] = cm
        return cm

    def power(self, a, k):
        return self.index[(self.elements[a] ** k).images]

    def element_order(self, a):
        if self._orders is None:
            self._orders = [p.order() for p in self.elements]
        return self._orders[a]

    def exponent(self):
        return lcm(*(self.element_order(i) for i in range(self.order)))

    def is_abelian(self):
        gi = self.generator_indices
        return all(self.mult(a, b) == self.mult(b, a) for a in gi for b in gi)

    def whole_subgroup(self):
        return Subgroup(self, frozenset(range(self.order)), self.generator_indices)

    def trivial_subgroup(self):
        return Subgroup(self, frozenset((0,)), ())

    def subgroup(self, perms):
        """Subgroup generated by the given permutations."""
        gen_idx = tuple(self.index[p.images] for p in perms)
        members = closure_indices(self, gen_idx)
        return Subgroup(self, members, gen_idx)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def group_from_generators(degree, generators, order_cap=None, degree_cap=None):
    """Close a generating set; exact order, bounded by the desk-scale caps."""
    order_cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    degree_cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    if degree > degree_cap:
        raise DeskScaleExceeded(f"degree {degree} exceeds cap {degree_cap}")
    gens = [Permutation(g.images) if not isinstance(g, Permutation) else g for g in generators]
    for g in gens:
        if g.degree != degree:
            raise DeskScaleExceeded(f"generator degree {g.degree} != {degree}")
    steps = [lambda p, g=g.images: tuple(map(g.__getitem__, p)) for g in gens]
    images = orbit(tuple(range(degree)), steps, order_cap)
    if images is None:
        raise DeskScaleExceeded(f"group closure exceeded order cap {order_cap}")
    return PermGroup(degree, gens, map(Permutation.trusted, images))


def _right_multiplication_rows(G):
    """rows[b][x] = index of x * b, for every b.

    Each generator's row comes from the image tuples; breadth-first search
    from the identity fills the rest, rows[b * g][x] = rows[g][rows[b][x]].
    """
    n = G.order
    index = G.index
    gen_rows = []
    for g in G.generator_indices:
        gi = G.elements[g].images
        gen_rows.append(
            array("H", [index[tuple(map(x.images.__getitem__, gi))] for x in G.elements])
        )
    rows = [None] * n
    rows[0] = array("H", range(n))
    found = [0]
    for b in found:
        rb = rows[b]
        for rg in gen_rows:
            c = rg[b]
            if rows[c] is None:
                rows[c] = array("H", map(rg.__getitem__, rb))
                found.append(c)
    if len(found) != n:
        raise InternalInconsistency("generators do not reach every element")
    return rows


def closure_indices(G, gen_indices):
    """Closure of an index set under G.mult, as a frozenset of indices."""
    return frozenset(orbit(0, right_multiplications(G, gen_indices)))


def right_multiplications(G, gen_indices):
    """Steps x -> x * g; their orbit from 0 is the subgroup generated.

    Above the cutoff each step holds one itemgetter and composes per point
    visited, so a small closure in a large group does not pay for whole rows.
    """
    imgs = G._images
    if imgs is None:
        rows = G._table()
        return [rows[g].__getitem__ for g in gen_indices]
    index = G.index
    return [
        lambda x, right=itemgetter(*imgs[g]): index[right(imgs[x])]
        for g in gen_indices
    ]


def conjugations(G, gen_indices):
    """Steps x -> g x g^-1; their orbits are the classes under <gen_indices>."""
    if G._table() is not None:
        return [G.conj_map(g).__getitem__ for g in gen_indices]
    conj = G.conj
    return [lambda x, g=g: conj(g, x) for g in gen_indices]


def orbit(start, steps, cap=None):
    """Points reachable from start under the callables in steps.

    Breadth-first order with start first, or None as soon as more than cap
    points are found.
    """
    seen = {start}
    points = [start]
    for x in points:
        for step in steps:
            y = step(x)
            if y not in seen:
                seen.add(y)
                points.append(y)
                if cap is not None and len(points) > cap:
                    return None
    return points


def orbit_partition(n, steps):
    """The orbits on range(n), each listed from its least point, by least point."""
    done = bytearray(n)
    out = []
    for start in range(n):
        if not done[start]:
            points = orbit(start, steps)
            for y in points:
                done[y] = 1
            out.append(points)
    return out


class Subgroup:
    """Subgroup of a PermGroup, held as a frozenset of parent element indices."""

    def __init__(self, parent, indices, generator_indices=None):
        self.parent = parent
        self.indices = frozenset(indices)
        self.order = len(self.indices)
        if generator_indices is None:
            generator_indices = _greedy_generators(parent, self.indices)
        self.generator_indices = tuple(generator_indices)
        self._as_group = None
        self._sorted = None
        self._fmatrix = None
        self._hclass_of = None
        self._mackey = None
        self._normalizer = None

    @property
    def generators(self):
        return tuple(self.parent.elements[i] for i in self.generator_indices)

    def sorted_indices(self):
        if self._sorted is None:
            self._sorted = tuple(sorted(self.indices))
        return self._sorted

    def permutations(self):
        return tuple(self.parent.elements[i] for i in self.sorted_indices())

    def as_group(self):
        """The subgroup as a standalone PermGroup of the same degree.

        Both sides sort by image tuple, so element i of the result is parent
        element sorted_indices()[i].
        """
        if self._as_group is None:
            self._as_group = PermGroup(
                self.parent.degree, self.generators, self.permutations()
            )
        return self._as_group

    def __contains__(self, idx):
        return idx in self.indices

    def is_trivial(self):
        return self.order == 1

    def is_whole(self):
        return self.order == self.parent.order

    def is_normal(self):
        G = self.parent
        return all(
            G.conj(g, h) in self.indices
            for g in G.generator_indices
            for h in self.generator_indices
        )

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


def _greedy_generators(G, indices):
    if len(indices) == 1:
        return ()
    gens = []
    closed = frozenset((0,))
    for i in sorted(indices):
        if i not in closed:
            gens.append(i)
            closed = closure_indices(G, gens)
            if len(closed) == len(indices):
                break
    return tuple(gens)


# ----------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ClassData:
    """Conjugacy class bookkeeping for a PermGroup.

    Classes are ordered by their least element index, so class 0 is the
    identity class and representatives are lexicographically minimal.
    power_map[c][t] is the class of rep_c ** t, for 0 <= t < element order.
    """

    group: PermGroup
    rep_indices: tuple
    sizes: tuple
    members: tuple
    class_of_index: tuple
    centralizer_orders: tuple
    element_orders: tuple
    power_map: tuple

    @property
    def representatives(self):
        return tuple(self.group.elements[i] for i in self.rep_indices)

    def __len__(self):
        return len(self.rep_indices)

    def class_of(self, x):
        if isinstance(x, Permutation):
            x = self.group.index[x.images]
        return self.class_of_index[x]


def conjugacy_classes(G):
    """Orbit partition of G under conjugation (cached on the group)."""
    if G._classdata is not None:
        return G._classdata
    n = G.order
    orbits = orbit_partition(n, [G.conj_map(g).__getitem__ for g in G.generator_indices])
    reps = [o[0] for o in orbits]
    members = [tuple(sorted(o)) for o in orbits]
    class_of = [0] * n
    for cls, o in enumerate(orbits):
        for x in o:
            class_of[x] = cls
    sizes = tuple(len(m) for m in members)
    if sum(sizes) != n:
        raise InternalInconsistency("class sizes do not sum to the group order")
    cents = tuple(n // s for s in sizes)
    orders = tuple(G.element_order(r) for r in reps)
    pmap = []
    for r, o in zip(reps, orders):
        row = []
        x = 0
        for _ in range(o):
            row.append(class_of[x])
            x = G.mult(x, r)
        pmap.append(tuple(row))
    cd = ClassData(
        group=G,
        rep_indices=tuple(reps),
        sizes=sizes,
        members=tuple(members),
        class_of_index=tuple(class_of),
        centralizer_orders=cents,
        element_orders=orders,
        power_map=tuple(pmap),
    )
    G._classdata = cd
    return cd


# ----------------------------------------------------------------------
# classical subgroup operations


def core(G, H):
    """Largest normal subgroup of G inside H: the intersection of the
    conjugates r H r^-1 over left-coset representatives r."""
    hset = H.indices
    K = set(hset)
    for r in _left_cosets(G, H)[0]:
        if len(K) == 1:
            break
        rinv = G.inverse(r)
        K = {k for k in K if G.conj(rinv, k) in hset}
    return Subgroup(G, frozenset(K))


def _left_cosets(G, H):
    """Least element of each left coset xH, and the coset number of each element."""
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] < 0:
            for h in H.indices:
                coset_of[G.mult(x, h)] = len(reps)
            reps.append(x)
    return tuple(reps), tuple(coset_of)


@dataclass
class CosetAction:
    """Action of G on the left cosets of H, with homomorphism data."""

    group: PermGroup
    subgroup: Subgroup
    coset_reps: tuple
    coset_of: tuple
    image: PermGroup
    kernel: Subgroup

    def image_of(self, g):
        """Permutation of coset indices induced by element index g."""
        G = self.group
        return Permutation.trusted(
            tuple(self.coset_of[G.mult(g, r)] for r in self.coset_reps)
        )

    def image_subgroup(self, indices):
        """Image in the quotient of the subgroup generated by given indices."""
        return self.image.subgroup({self.image_of(i) for i in indices})


def coset_action(G, H):
    """G acting on the left cosets of H; the kernel is core(G, H).

    The image is counted over every element of G, not closed from
    generators, so its order times the order of the core (an intersection
    of conjugates) must be |G|: two independent computations.
    """
    reps, coset_of = _left_cosets(G, H)
    gens = G.generator_indices
    rows = [tuple(G._row(g)) for g in gens]
    # columns[j][x] is the coset of x t for any t in coset j, so x's image is
    # (columns[j][x] for each j).  The column of coset g t is columns[j] read
    # at x g: one gather per coset, not one product per element and coset.
    # Tuples, not arrays, so every column shares coset_of's int objects.
    columns = [coset_of] + [None] * (len(reps) - 1)
    found = [0]
    for j in found:
        for g, row in zip(gens, rows):
            k = columns[j][g]
            if columns[k] is None:
                columns[k] = tuple(map(columns[j].__getitem__, row))
                found.append(k)
    image = PermGroup(
        len(reps),
        [Permutation.trusted(tuple(col[g] for col in columns)) for g in gens],
        map(Permutation.trusted, set(zip(*columns))),
    )
    act = CosetAction(G, H, reps, coset_of, image, core(G, H))
    if image.order * act.kernel.order != G.order:
        raise InternalInconsistency("coset action image/kernel orders inconsistent")
    return act


def conjugators(G, xs, target):
    """The g, in index order, with g x g^-1 in target for every x in xs.

    Yields index 0 (the identity) when xs already lies in target, so test a
    first witness against None, not by truthiness.
    """
    conj = G.conj
    for g in range(G.order):
        for x in xs:
            if conj(g, x) not in target:
                break
        else:
            yield g


def normalizer(G, H):
    """N_G(H): the elements conjugating H's generators into H (cached)."""
    if H._normalizer is None:
        H._normalizer = Subgroup(
            G, frozenset(conjugators(G, H.generator_indices, H.indices))
        )
    return H._normalizer


def _commutator(G, a, b):
    return G.mult(
        G.mult(G.inverse(a), G.inverse(b)),
        G.mult(a, b),
    )


def derived_subset(G, gen_indices):
    """Derived subgroup of the subgroup <gen_indices>, as indices.

    It is the normal closure, inside the subgroup, of the commutators of its
    generators ([b, a] is the inverse of [a, b]): the orbit of the identity
    under right multiplication by those commutators and conjugation by the
    generators.
    """
    comms = {_commutator(G, a, b) for a, b in combinations(gen_indices, 2)} - {0}
    steps = right_multiplications(G, sorted(comms))
    steps += [G.conj_map(g).__getitem__ for g in gen_indices]
    return frozenset(orbit(0, steps))


def derived_subgroup(G):
    """Commutator subgroup of G (cached)."""
    if G._derived is None:
        members = derived_subset(G, G.generator_indices)
        G._derived = Subgroup(G, members)
    return G._derived


def derived_subgroup_of(H):
    """Commutator subgroup of a Subgroup, as a Subgroup of the same parent."""
    members = derived_subset(H.parent, H.generator_indices)
    return Subgroup(H.parent, members)


def is_solvable(G):
    """Derived series terminates at the trivial subgroup."""
    if G._solvable is None:
        gens = G.generator_indices
        size = G.order
        while True:
            D = derived_subset(G, gens)
            if len(D) == 1:
                G._solvable = True
                break
            if len(D) == size:
                G._solvable = False
                break
            size = len(D)
            gens = _greedy_generators(G, D)
    return G._solvable


def subgroups_conjugate(G, H1, H2):
    """Whether some g in G maps H1 onto H2; returns (bool, witness or None).

    At equal orders g H1 g^-1 = H2 exactly when g maps H1's generators into
    H2, so the first such g is the witness.
    """
    if H1.order == H2.order:
        g = next(conjugators(G, H1.generator_indices, H2.indices), None)
        if g is not None:
            return True, G.elements[g]
    return False, None
