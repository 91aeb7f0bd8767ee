"""Finite permutation groups with explicit element enumeration.

Everything is desk scale: a group is the sorted tuple of its elements' image
tuples (index 0 is the identity) plus a dict for O(1) membership
(`position`), and the expensive operations (normalizers, cores, conjugacy of
subgroups) are element filters, all through `conjugators`: every g with
g x g^-1 in T for each x in X.  `Permutation` objects are made only at the
edges: parsing and the catalog builders, and what is handed back
(`generators`, `Subgroup.generators`, a witness, `CosetAction.image_of`).

`group_from_generators` closes its generators with a deterministic
Schreier-Sims stabilizer chain (`_Chain`), which is then dropped.  The
order, the product of the chain's orbit lengths, is known and checked
against the order cap before any element is listed; the elements are the
transversal products, each level composed in C.  `normal_closure_order`
reads a subgroup's order off such a chain without listing it.

Index arithmetic has two paths, chosen once per group from its order and
bound when the group is built.  Up to order _TABLE_MAX_ORDER (2048) a
right-multiplication table of uint16 rows is built with the group, 2 n^2
bytes (8.4 MB at the cutoff), and products, inverses and conjugates are
lookups.  Larger groups look products up by base image.  A base is a few
points whose images tell the elements apart (3 of the q + 1 points for
PSL(2, q)); one dict maps each element's base image to its index, and a
product's base image is read from the factors' images with
`operator.itemgetter`.  Inverses are an array on both paths, and both
return the same indices.  Nothing outside this module sees the table or
the base: callers use `mult`, `inverse`, `conj`, `conj_map`, `position`,
the step helpers `right_multiplications` and `conjugations`, and
`right_products`, which composes many products by one element at once.

Whole rows are composed in C.  `_gather(src, idx)` is one
`operator.itemgetter(*idx)` applied to a tuple; table rows and conjugation
maps are gathered so and packed back into uint16 arrays by one
`struct.Struct` per group, and `_coset_columns` gathers a coset action's
columns with one itemgetter per generator.  Stored rows stay `array("H")`:
tuples of ints would take four times the memory.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from functools import wraps
from itertools import chain as concat, combinations
from math import inf
from operator import itemgetter

from .config import DEFAULT_DEGREE_CAP, DEFAULT_ORDER_CAP
from .errors import DeskScaleExceeded, InternalInconsistency, InvalidSpec
from .perm import Permutation, format_cycles


# Largest order that gets a multiplication table (n rows of n uint16).
_TABLE_MAX_ORDER = 2048


def kept_on(attr):
    """Decorator: f(..., x) is computed once per object x, its last argument,
    and kept in x.__dict__ under attr.  Membership, not None, marks a kept
    result, so a falsy one is kept too; the result lives as long as x."""
    def decorate(f):
        @wraps(f)
        def kept(*args):
            d = args[-1].__dict__
            if attr not in d:
                d[attr] = f(*args)
            return d[attr]
        return kept
    return decorate


class PermGroup:
    """Group of permutations of {0..degree-1}, its elements image tuples.

    Elements are addressed by their index in the sorted element tuple; all
    arithmetic helpers (`mult`, `inverse`, `conj`) work on indices.  Instances
    are immutable after construction; derived data (conjugacy classes,
    character table, derived subgroup) is computed on first use and kept on
    the group by `kept_on`.

    `__init__` takes generators and elements as image tuples and binds the
    arithmetic: table rows and `index` (image tuple -> index) up to order
    2048, a `base` and `_at` (base image -> index) above.  Either dict must
    have one key per element.
    """

    def __init__(self, degree, generators, elements):
        self.degree = degree
        els = self.elements = tuple(sorted(elements))
        n = self.order = len(els)
        if not els or els[0] != tuple(range(degree)):
            raise InternalInconsistency("identity missing from element list")
        self._conj_maps = {}
        # packs a gathered tuple of n indices into the bytes of a uint16 row
        self._packer = struct.Struct(f"{n}H")
        gens = tuple(generators)
        if not gens and n > 1:
            raise InternalInconsistency("nontrivial group needs generators")
        self._rows = self._keys = None
        if n <= _TABLE_MAX_ORDER:
            keyed = self.index = dict(zip(els, range(n)))
        else:
            self.base = _base(els)
            self._key = itemgetter(*self.base)
            keys = self._keys = list(map(self._key, els))
            keyed = at = self._at = dict(zip(keys, range(n)))
        if len(keyed) != n:
            raise InternalInconsistency("repeated element in element list")
        self.generator_indices = tuple(map(self.position, gens)) if gens else (0,)
        if None in self.generator_indices:
            raise InternalInconsistency("generator missing from element list")
        # the arithmetic, bound once: mult(a, b) is the index of
        # elements[a] * elements[b] (b acts first), inverse(a) that of
        # elements[a]^-1 and conj(g, x) that of g x g^-1
        if self._keys is None:
            rows = self._rows = _right_multiplication_rows(self)
            inv = array("H", [r.index(0) for r in rows])
            self.mult = lambda a, b: rows[b][a]
            self.conj = lambda g, x: rows[inv[g]][rows[x][g]]
        else:
            # g^-1 sends b to the point g sends to b
            inv = array("H", [at[tuple(map(im.index, self.base))] for im in els])
            self.mult = lambda a, b: at[itemgetter(*keys[b])(els[a])]
            # base images of g x g^-1: those of x g^-1, read through x, then g
            self.conj = lambda g, x: at[
                itemgetter(*itemgetter(*keys[inv[g]])(els[x]))(els[g])
            ]
        self._inverses = inv
        self.inverse = inv.__getitem__

    @property
    def generators(self):
        return tuple(Permutation.trusted(self.elements[i]) for i in self.generator_indices)

    def _row(self, b):
        """Sequence x -> mult(x, b) over all x: a table row, or above the
        cutoff one array built with a single itemgetter."""
        if self._keys is None:
            return self._rows[b]
        right = itemgetter(*self._keys[b])
        return array("H", map(self._at.__getitem__, map(right, self.elements)))

    def conj_map(self, g):
        """Map x -> g x g^-1 as a sequence indexed by x; cached for generators."""
        cm = self._conj_maps.get(g)
        if cm is None:
            pack, unpack = self._packer.pack, self._packer.unpack
            right = unpack(self._row(self.inverse(g)))
            inv = unpack(self._inverses)
            # x -> x^-1 g^-1 -> g x -> g x g^-1
            cm = array("H", pack(*_gather(right, _gather(inv, _gather(right, inv)))))
            if g in self.generator_indices:
                self._conj_maps[g] = cm
        return cm

    def position(self, images):
        """Index of the element with these images, or None if it is not in G.

        Above the cutoff the base image names the only candidate, and the
        full tuple must match it.
        """
        if self._keys is None:
            return self.index.get(images)
        if len(images) != self.degree:
            return None
        i = self._at.get(self._key(images))
        return i if i is not None and self.elements[i] == images else None

    def power(self, a, k):
        return self.position((Permutation.trusted(self.elements[a]) ** k).images)

    def element_order(self, a):
        return Permutation.trusted(self.elements[a]).order()

    def is_abelian(self):
        gi = self.generator_indices
        return all(self.mult(a, b) == self.mult(b, a) for a in gi for b in gi)

    def whole_subgroup(self):
        return Subgroup(self, frozenset(range(self.order)), self.generator_indices)

    def trivial_subgroup(self):
        return Subgroup(self, frozenset((0,)), ())

    def subgroup(self, perms):
        """Subgroup generated by the given permutations, which must lie in G."""
        gen_idx = []
        for p in perms:
            i = self.position(p.images)
            if i is None:
                raise InvalidSpec(f"generator {format_cycles(p)} is not in the group")
            gen_idx.append(i)
        members = closure_indices(self, gen_idx)
        return Subgroup(self, members, gen_idx)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def group_from_generators(degree, generators, order_cap=None, degree_cap=None):
    """Close a generating set; exact order, bounded by the desk-scale caps."""
    order_cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    degree_cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    if degree < 1:
        raise InvalidSpec("degree must be at least 1")
    if degree > degree_cap:
        raise DeskScaleExceeded(f"degree {degree} exceeds cap {degree_cap}")
    images = [(g if isinstance(g, Permutation) else Permutation(g.images)).images for g in generators]
    for im in images:
        if len(im) != degree:
            raise DeskScaleExceeded(f"generator degree {len(im)} != {degree}")
    return PermGroup(degree, images, _Chain(degree, images, order_cap).elements())


class _Chain:
    """Stabilizer chain (Sims 1970; Seress 2003, ch. 4) of the group that image
    tuples generate.  Level i is (base point b, strong generators fixing the
    earlier base points, with inverses, transversal {y: (u, u^-1)} with
    u(b) = y, pending (point, generator) pairs).  The order is the product of
    the orbit lengths; mid-build a lower bound, checked against `cap`."""

    def __init__(self, degree, gens=(), cap=inf):
        self.ident, self.levels, self.order, self.cap = tuple(range(degree)), [], 1, cap
        for g in gens:
            self.add(g)

    def _sift(self, h, start):
        """Strip h through the levels from start on: (residue, level it stopped at)."""
        for i in range(start, len(self.levels)):
            b, _, trans, _ = self.levels[i]
            u = trans.get(h[b])
            if u is None:
                return h, i
            h = itemgetter(*h)(u[1])
        return h, len(self.levels)

    def _insert(self, h, top, j):
        """Make the residue h (fixing the base points above level j) a strong
        generator of levels top .. j, opening level j at h's first moved point."""
        if j == len(self.levels):
            b = next(x for x, y in enumerate(h) if x != y)
            self.levels.append((b, [], {b: (self.ident, self.ident)}, []))
        h = (h, tuple(sorted(self.ident, key=h.__getitem__)))
        for b, gens, trans, pending in self.levels[top : j + 1]:
            gens.append(h)
            pending += [(y, h) for y in trans]

    def add(self, g):
        """Add g to the group; False when it already was an element.  The
        deepest level with pairs pending is closed first, so the levels a
        Schreier generator is sifted through are complete."""
        h, i = self._sift(g, 0)
        if h == self.ident:
            return False
        self._insert(h, 0, i)
        while i >= 0:
            b, gens, trans, pending = self.levels[i]
            if not pending:
                i -= 1
                continue
            y, (s, s_inv) = pending.pop()
            t = itemgetter(*trans[y][0])(s)
            known = trans.get(t[b])
            if known is None:
                self.order = self.order // len(trans) * (len(trans) + 1)
                trans[t[b]] = (t, itemgetter(*s_inv)(trans[y][1]))
                pending += [(t[b], g) for g in gens]
                if self.order > self.cap:
                    raise DeskScaleExceeded(f"group closure exceeded order cap {self.cap}")
            elif t != known[0]:
                h, j = self._sift(itemgetter(*t)(known[1]), i + 1)
                if h != self.ident:
                    self._insert(h, i + 1, j)
                    i = j
        return True

    def elements(self):
        """Every element once: the products u_0 u_1 ... with one transversal
        element per level, a level at a time, one C-level map per product."""
        out = [self.ident]
        for _, _, trans, _ in reversed(self.levels):
            us = [u for u, _ in trans.values()]
            out = list(concat.from_iterable(map(itemgetter(*x), us) for x in out))
        return out


def _base(imgs):
    """Points whose images tell the elements (image tuples) apart.

    A point is kept when some element fixing every point kept so far moves
    it; once only the identity fixes them all, an element is known by its
    images of the kept points.  At least two points, so that an itemgetter
    over them returns a tuple.
    """
    base = []
    fixing = imgs
    for x in range(len(imgs[0])):
        if len(fixing) == 1:
            break
        kept = [im for im in fixing if im[x] == x]
        if len(kept) < len(fixing):
            base.append(x)
            fixing = kept
    base += [x for x in range(2) if x not in base][: 2 - len(base)]
    return tuple(base)


def _gather(src, idx):
    """The tuple (src[i] for i in idx), gathered in C by one itemgetter.

    An itemgetter over a single index returns the item itself, so a
    one-entry idx is wrapped by hand.
    """
    if len(idx) == 1:
        return (src[idx[0]],)
    return itemgetter(*idx)(src)


def _right_multiplication_rows(G):
    """rows[b][x] = index of x * b, for every b.

    Each generator's row comes from the image tuples; breadth-first search
    from the identity fills the rest, rows[b * g][x] = rows[g][rows[b][x]].
    Rows are gathered as tuples and packed into uint16 arrays.
    """
    n = G.order
    index = G.index
    packer = G._packer
    gen_rows = []
    for g in G.generator_indices:
        gi = G.elements[g]
        gen_rows.append(tuple(index[_gather(x, gi)] for x in G.elements))
    rows = [None] * n
    rows[0] = array("H", range(n))
    found = [0]
    for b in found:
        rb = packer.unpack(rows[b])
        for rg in gen_rows:
            c = rg[b]
            if rows[c] is None:
                rows[c] = array("H", packer.pack(*_gather(rg, rb)))
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
    if G._keys is None:
        return [G._rows[g].__getitem__ for g in gen_indices]
    imgs = G.elements
    at = G._at
    keys = G._keys
    return [
        lambda x, right=itemgetter(*keys[g]): at[right(imgs[x])]
        for g in gen_indices
    ]


def right_products(G, xs, t):
    """The tuple of indices of x * t for x in xs (nonempty), composed in C:
    one gather from table row t, or above the cutoff one gather of the
    factors' images, each read at t's base image and looked up."""
    if G._keys is None:
        return _gather(G._rows[t], xs)
    right = itemgetter(*G._keys[t])
    return tuple(map(G._at.__getitem__, map(right, _gather(G.elements, xs))))


def conjugations(G, gen_indices):
    """Steps x -> g x g^-1; their orbits are the classes under <gen_indices>."""
    return [G.conj_map(g).__getitem__ for g in gen_indices]


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

    @property
    def generators(self):
        return tuple(Permutation.trusted(self.parent.elements[i]) for i in self.generator_indices)

    @kept_on("_sorted")
    def sorted_indices(self):
        return tuple(sorted(self.indices))

    @kept_on("_as_group")
    def as_group(self):
        """The subgroup as a standalone PermGroup of the same degree.

        Both sides sort by image tuple, so element i of the result is parent
        element sorted_indices()[i], the same tuple object.
        """
        at = self.parent.elements.__getitem__
        return PermGroup(self.parent.degree, map(at, self.generator_indices), map(at, self.sorted_indices()))

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

    def __len__(self):
        return len(self.rep_indices)

    def class_of(self, x):
        if isinstance(x, Permutation):
            x = self.group.position(x.images)
        return self.class_of_index[x]


@kept_on("_classdata")
def conjugacy_classes(G):
    """Orbit partition of G under conjugation (`kept_on` the group)."""
    n = G.order
    orbits = orbit_partition(n, conjugations(G, G.generator_indices))
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
    # walk r^t until it returns to the identity: the row length is the order
    pmap = []
    for r in reps:
        row = [class_of[0]]
        x = r
        while x:
            row.append(class_of[x])
            x = G.mult(x, r)
        pmap.append(tuple(row))
    orders = tuple(map(len, pmap))
    return ClassData(
        group=G,
        rep_indices=tuple(reps),
        sizes=sizes,
        members=tuple(members),
        class_of_index=tuple(class_of),
        centralizer_orders=cents,
        element_orders=orders,
        power_map=tuple(pmap),
    )


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
    kernel: Subgroup

    @property
    @kept_on("_image")
    def image(self):
        """The image as a PermGroup on the cosets, built on first read."""
        G = self.group
        columns = _coset_columns(G, self.coset_of, len(self.coset_reps))
        return PermGroup(
            len(columns),
            [tuple(col[g] for col in columns) for g in G.generator_indices],
            set(zip(*columns)),
        )

    def image_of(self, g):
        """Permutation of coset indices induced by element index g."""
        G = self.group
        return Permutation.trusted(
            tuple(self.coset_of[G.mult(g, r)] for r in self.coset_reps)
        )

    def image_subgroup(self, indices):
        """Image in the quotient of the subgroup generated by given indices."""
        return self.image.subgroup({self.image_of(i) for i in indices})


def _coset_columns(G, coset_of, n_cosets):
    """columns[j][x] is the coset of x t for any t in coset j, so x's image
    in the coset action is (columns[j][x] for each j).

    The column of coset g t is columns[j] read at x g: one gather per coset,
    not one product per element and coset.  Tuples, not arrays, so every
    column shares coset_of's int objects.
    """
    gens = G.generator_indices
    # an itemgetter over one index returns a scalar, but a group of order 1
    # has one coset, so the gathers below never run on it
    gathers = [itemgetter(*G._row(g)) for g in gens]
    columns = [coset_of] + [None] * (n_cosets - 1)
    found = [0]
    for j in found:
        for g, gather in zip(gens, gathers):
            k = columns[j][g]
            if columns[k] is None:
                columns[k] = gather(columns[j])
                found.append(k)
    return columns


def coset_action(G, H):
    """G acting on the left cosets of H; the kernel is core(G, H).

    Two checks against the core, an intersection of conjugates computed
    apart: the image, counted over every element of G rather than closed
    from generators, has order |G| / |core|, and the elements fixing every
    coset (a subset of H, coset 0) are the core's.
    """
    reps, coset_of = _left_cosets(G, H)
    columns = _coset_columns(G, coset_of, len(reps))
    kernel = core(G, H)
    fixing = H.indices
    for j, col in enumerate(columns):
        fixing = [x for x in fixing if col[x] == j]
    if (len(set(zip(*columns))) * kernel.order != G.order
            or set(fixing) != kernel.indices):
        raise InternalInconsistency("coset action image/kernel inconsistent with the core")
    return CosetAction(G, H, reps, coset_of, kernel)


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


@kept_on("_normalizer")
def normalizer(G, H):
    """N_G(H): the elements conjugating H's generators into H (`kept_on` H)."""
    return Subgroup(G, frozenset(conjugators(G, H.generator_indices, H.indices)))


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
    steps += conjugations(G, gen_indices)
    return frozenset(orbit(0, steps))


def normal_closure_order(G, xs):
    """Order of the normal closure in G of the elements xs (indices), read
    off a stabilizer chain without listing its elements: each element that
    enlarges the chain queues its conjugates by G's generators."""
    chain, el = _Chain(G.degree), G.elements
    by = [(el[g], el[G.inverse(g)]) for g in G.generator_indices]
    todo = [el[x] for x in xs]
    while todo and chain.order < G.order:
        x = todo.pop()
        if chain.add(x):
            # g x g^-1 reads a point through g^-1, then x, then g
            todo += [itemgetter(*itemgetter(*gi)(x))(g) for g, gi in by]
    return chain.order


def derived_order(G):
    """|G'|: the normal closure of the generators' commutators, off a chain."""
    gens = G.generator_indices
    return normal_closure_order(G, {_commutator(G, a, b) for a, b in combinations(gens, 2)})


@kept_on("_derived")
def derived_subgroup(G):
    """Commutator subgroup of G (`kept_on` the group)."""
    return Subgroup(G, derived_subset(G, G.generator_indices))


def derived_subgroup_of(H):
    """Commutator subgroup of a Subgroup, as a Subgroup of the same parent."""
    members = derived_subset(H.parent, H.generator_indices)
    return Subgroup(H.parent, members)


@kept_on("_solvable_residual")
def solvable_residual(G):
    """The last term D of the derived series, as (indices, generator indices)
    (`kept_on` the group).  D is perfect and holds every perfect subgroup,
    since the derived series of a perfect subgroup stays at that subgroup."""
    members, gens = frozenset(range(G.order)), G.generator_indices
    while len(members) > 1:
        D = derived_subset(G, gens)
        if len(D) == len(members):
            break
        members, gens = D, _greedy_generators(G, D)
    return members, gens


@kept_on("_solvable")
def is_solvable(G):
    """Derived series terminates at the trivial subgroup (`kept_on` the group)."""
    return len(solvable_residual(G)[0]) == 1


def subgroups_conjugate(G, H1, H2):
    """Whether some g in G maps H1 onto H2; returns (bool, witness or None).

    At equal orders g H1 g^-1 = H2 exactly when g maps H1's generators into
    H2, so the first such g is the witness.
    """
    if H1.order == H2.order:
        g = next(conjugators(G, H1.generator_indices, H2.indices), None)
        if g is not None:
            return True, Permutation.trusted(G.elements[g])
    return False, None
