"""The bipartite graph on Irr(G) and Irr(H) with edges at nonzero multiplicities."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chartab import character_table
from .errors import InternalInconsistency
from .frobenius import _hclass_of
from .group import orbit_partition

INFINITE = math.inf


@dataclass(frozen=True)
class FrobeniusGraph:
    """Left vertices are characters of G, right vertices characters of H.

    Vertex v < n_left is the v-th column character; vertex n_left + r is the
    r-th row character.  diameter is INFINITE exactly when the graph is
    disconnected.
    """

    matrix: object
    left_degrees: tuple
    right_degrees: tuple
    adjacency: tuple
    component_id: tuple
    n_components: int
    eccentricity: tuple
    diameter: object

    @property
    def n_left(self):
        return len(self.left_degrees)

    @property
    def n_right(self):
        return len(self.right_degrees)

    def distance(self, u, v):
        dist = _bfs(self.adjacency, u)
        return dist[v] if dist[v] >= 0 else INFINITE

    def to_dot(self):
        lines = ["graph frobenius {", "  rankdir=BT;"]
        for c, d in enumerate(self.left_degrees):
            lines.append(f'  chi{c} [label="{d}", shape=circle];')
        for r, d in enumerate(self.right_degrees):
            lines.append(f'  phi{r} [label="{d}", shape=doublecircle];')
        for c in range(self.n_left):
            for r in self.adjacency[c]:
                lines.append(f"  chi{c} -- phi{r - self.n_left};")
        lines.append("}")
        return "\n".join(lines)


def _bfs(adjacency, start):
    dist = [-1] * len(adjacency)
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def frobenius_graph(M):
    """Components, eccentricities and diameter of the graph of F(G, H)."""
    n_left = M.n_cols
    n_right = M.n_rows
    n = n_left + n_right
    adjacency = [[] for _ in range(n)]
    for r in range(n_right):
        for c in range(n_left):
            if M.entries[r][c]:
                adjacency[c].append(n_left + r)
                adjacency[n_left + r].append(c)
    least = []  # least vertex of each vertex's component
    ecc = []
    for v in range(n):
        dist = _bfs(adjacency, v)
        least.append(next(u for u, d in enumerate(dist) if d >= 0))
        ecc.append(INFINITE if -1 in dist else max(dist))
    roots = sorted(set(least))
    n_comp = len(roots)
    diameter = INFINITE if n_comp > 1 else max(ecc)
    return FrobeniusGraph(
        matrix=M,
        left_degrees=tuple(M.table_g.degrees),
        right_degrees=tuple(M.table_h.degrees),
        adjacency=tuple(tuple(a) for a in adjacency),
        component_id=tuple(roots.index(r) for r in least),
        n_components=n_comp,
        eccentricity=tuple(ecc),
        diameter=diameter,
    )


def irr_action_orbits(G, K):
    """Orbits of G, acting by conjugation, on the irreducible characters of K.

    K must be normal in G.  Each generator of G permutes the classes of K;
    the induced permutation of Irr(K) is read off by matching value rows.
    """
    if not K.is_normal():
        raise InternalInconsistency("irr_action_orbits requires a normal subgroup")
    tK = character_table(K.as_group())
    cd = tK.classes
    kk = tK.k
    e = tK.exponent
    row_key = {tuple(v.key_at(e) for v in tK.values[i]): i for i in range(kk)}
    pos = K.sorted_indices()
    class_of = _hclass_of(K)
    row_perms = []
    for g in G.generator_indices:
        class_perm = [class_of[G.conj(g, pos[r])] for r in cd.rep_indices]
        perm = []
        for i in range(kk):
            permuted = tuple(tK.values[i][class_perm[c]].key_at(e) for c in range(kk))
            j = row_key.get(permuted)
            if j is None:
                raise InternalInconsistency("permuted character row not in table")
            perm.append(j)
        row_perms.append(perm)
    steps = [perm.__getitem__ for perm in row_perms]
    orbits = [tuple(sorted(points)) for points in orbit_partition(kk, steps)]
    return len(orbits), tuple(orbits)
