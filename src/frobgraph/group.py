"""Finite permutation groups with explicit element enumeration.

Everything is desk scale: a group is a sorted tuple of all its elements plus
an index for O(1) membership, and the expensive operations (normalizers,
cores, conjugacy of subgroups) are element filters.  Index 0 is always the
identity because image tuples sort lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .config import DEFAULT_DEGREE_CAP, DEFAULT_ORDER_CAP
from .errors import DeskScaleExceeded, InternalInconsistency
from .perm import Permutation


class PermGroup:
    """Group of permutations of {0..degree-1}.

    Elements are addressed by their index in the sorted element tuple; all
    arithmetic helpers (`mult`, `inverse`, `conj`) work on indices.  Instances
    are immutable after construction and cache derived data (conjugacy
    classes, character table, derived subgroup) on first use.
    """

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self.index = {p.images: i for i, p in enumerate(self.elements)}
        if not self.elements or not self.elements[0].is_identity():
            raise InternalInconsistency("identity missing from element list")
        gens = tuple(generators)
        if not gens and self.order > 1:
            raise InternalInconsistency("nontrivial group needs generators")
        self.generators = gens if gens else (Permutation.identity(degree),)
        self.generator_indices = tuple(self.index[g.images] for g in self.generators)
        self._inverses = None
        self._conj_maps = {}
        self._orders = None
        self._classdata = None
        self._chartable = None
        self._derived = None
        self._solvable = None
        self._subgroup_classes = None

    # ------------------------------------------------------------------
    # index arithmetic

    def mult(self, a, b):
        """Index of elements[a] * elements[b] (b acts first)."""
        ia = self.elements[a].images
        ib = self.elements[b].images
        return self.index[tuple(ia[x] for x in ib)]

    def inverse(self, a):
        if self._inverses is None:
            inv = [0] * self.order
            for i, p in enumerate(self.elements):
                inv[i] = self.index[p.inverse().images]
            self._inverses = inv
        return self._inverses[a]

    def conj(self, g, x):
        """Index of g x g^-1."""
        return self.mult(self.mult(g, x), self.inverse(g))

    def conj_map(self, g):
        """Cached table x -> g x g^-1 for a fixed conjugator g."""
        cm = self._conj_maps.get(g)
        if cm is None:
            gi = self.elements[g].images
            ginv = self.elements[self.inverse(g)].images
            idx = self.index
            cm = [
                idx[tuple(gi[x.images[ginv[t]]] for t in range(self.degree))]
                for x in self.elements
            ]
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
    return PermGroup(degree, gens, map(Permutation, images))


def group_from_elements(degree, elements, generators=None):
    """Wrap an explicitly known element set (e.g. a subgroup) as a group."""
    elements = list(elements)
    if generators is None:
        generators = elements
    return PermGroup(degree, generators, elements)


def closure_indices(G, gen_indices):
    """Closure of an index set under G.mult, as a frozenset of indices."""
    return frozenset(orbit(0, right_multiplications(G, gen_indices)))


def right_multiplications(G, gen_indices):
    """Steps x -> x * g; their orbit from 0 is the subgroup generated."""
    mult = G.mult
    return [lambda x, g=g: mult(x, g) for g in gen_indices]


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
        """The subgroup as a standalone PermGroup of the same degree."""
        if self._as_group is None:
            gens = self.generators or (Permutation.identity(self.parent.degree),)
            self._as_group = group_from_elements(
                self.parent.degree, self.permutations(), gens
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
        return Permutation(
            tuple(self.coset_of[G.mult(g, r)] for r in self.coset_reps)
        )

    def image_subgroup(self, indices):
        """Image in the quotient of the subgroup generated by given indices."""
        perms = {self.image_of(i).images for i in indices}
        return self.image.subgroup([Permutation(p) for p in perms])


def coset_action(G, H):
    """G acting on the cosets of H; kernel equals the core of H."""
    reps, coset_of = _left_cosets(G, H)
    gen_perms = []
    for g in G.generator_indices:
        gen_perms.append(Permutation(tuple(coset_of[G.mult(g, r)] for r in reps)))
    # coset images may exceed the input degree cap (regular representation)
    image = group_from_generators(
        len(reps), gen_perms, order_cap=G.order, degree_cap=len(reps)
    )
    act = CosetAction(
        group=G,
        subgroup=H,
        coset_reps=reps,
        coset_of=coset_of,
        image=image,
        kernel=core(G, H),
    )
    if image.order * act.kernel.order != G.order:
        raise InternalInconsistency("coset action image/kernel orders inconsistent")
    return act


def normalizer(G, H):
    """N_G(H) by element filtering."""
    if H._normalizer is not None:
        return H._normalizer
    gens = H.generator_indices
    members = []
    hset = H.indices
    for g in range(G.order):
        ginv = G.inverse(g)
        ok = True
        for h in gens:
            if G.mult(G.mult(g, h), ginv) not in hset:
                ok = False
                break
        if ok:
            members.append(g)
    N = Subgroup(G, frozenset(members))
    H._normalizer = N
    return N


def centralizer_of_element(G, x):
    """Indices of elements commuting with element index x."""
    return [g for g in range(G.order) if G.mult(g, x) == G.mult(x, g)]


def _commutator(G, a, b):
    return G.mult(
        G.mult(G.inverse(a), G.inverse(b)),
        G.mult(a, b),
    )


def derived_subset(G, gen_indices):
    """Derived subgroup of the subgroup <gen_indices>, as indices.

    Normal closure (inside the subgroup) of the commutators of its generators.
    """
    dgens = []
    seen_gens = set()
    for a in gen_indices:
        for b in gen_indices:
            c = _commutator(G, a, b)
            if c != 0 and c not in seen_gens:
                seen_gens.add(c)
                dgens.append(c)
    D = closure_indices(G, dgens)
    while True:
        new = []
        for g in gen_indices:
            for d in dgens:
                c = G.conj(g, d)
                if c not in D and c not in seen_gens:
                    seen_gens.add(c)
                    new.append(c)
        if not new:
            return D
        dgens.extend(new)
        D = closure_indices(G, dgens)


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


def is_perfect_subset(G, member_set, gen_indices):
    return len(derived_subset(G, gen_indices)) == len(member_set)


def conjugate_indices(G, indices, g):
    """The set g S g^-1 for an index set S."""
    ginv = G.inverse(g)
    mult = G.mult
    return frozenset(mult(mult(g, x), ginv) for x in indices)


def subgroups_conjugate(G, H1, H2):
    """Whether some g in G maps H1 onto H2; returns (bool, witness or None)."""
    if H1.order != H2.order:
        return False, None
    if H1.indices == H2.indices:
        return True, Permutation.identity(G.degree)
    target = H2.indices
    for g in range(G.order):
        if conjugate_indices(G, H1.indices, g) == target:
            return True, G.elements[g]
    return False, None
