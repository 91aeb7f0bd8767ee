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
    r-th row character.  distances[u][v] is the length of a shortest path,
    -1 where none exists.  diameter is INFINITE exactly when the graph is
    disconnected.
    """

    matrix: object
    left_degrees: tuple
    right_degrees: tuple
    adjacency: tuple
    distances: tuple
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
        d = self.distances[u][v]
        return d if d >= 0 else INFINITE

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


def _adjacency(M):
    """Neighbour lists of the graph of F(G, H), numbered as in FrobeniusGraph.

    Column vertex c and row vertex n_left + r are joined exactly when entry
    (r, c) of M is nonzero; every list is a tuple in increasing vertex order.
    """
    n_left = M.n_cols
    adjacency = [[] for _ in range(n_left + M.n_rows)]
    for r, row in enumerate(M.entries):
        for c, m in enumerate(row):
            if m:
                adjacency[c].append(n_left + r)
                adjacency[n_left + r].append(c)
    return tuple(map(tuple, adjacency))


def _bfs(adjacency, start):
    """Distance from start to every vertex by breadth-first search; -1 where
    no path reaches."""
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


def _distance_rows(adjacency, vertices):
    """The distance row of each of the vertices.  Vertices with the same
    neighbours, at least one, are 2 apart and equally far from all others:
    one search serves them all."""
    rows, first = [], {}
    for v in vertices:
        key = adjacency[v] or v
        if key in first:
            u, dist = first[key]
            row = list(dist)
            row[u], row[v] = 2, 0
        else:
            row = _bfs(adjacency, v)
            first[key] = (v, row)
        rows.append(row)
    return rows


def frobenius_graph(M):
    """Distances, components, eccentricities and diameter of the graph of
    F(G, H).  Not kept on M: each graph holds |Irr(G) + Irr(H)|^2 distances."""
    adjacency = _adjacency(M)
    distances = _distance_rows(adjacency, range(len(adjacency)))
    # components numbered by least vertex: the first not yet numbered starts one
    component, n_comp = [-1] * len(adjacency), 0
    for v, dist in enumerate(distances):
        if component[v] < 0:
            component = [c if d < 0 else n_comp for d, c in zip(dist, component)]
            n_comp += 1
    # in a disconnected graph every vertex has some vertex out of reach
    ecc = list(map(max, distances)) if n_comp == 1 else [INFINITE] * len(adjacency)
    return FrobeniusGraph(
        matrix=M,
        left_degrees=tuple(M.table_g.degrees),
        right_degrees=tuple(M.table_h.degrees),
        adjacency=adjacency,
        distances=tuple(map(tuple, distances)),
        component_id=tuple(component),
        n_components=n_comp,
        eccentricity=tuple(ecc),
        diameter=max(ecc),
    )


def irr_action_orbits(G, K):
    """Orbits of G, acting by conjugation, on the irreducible characters of K.

    K must be normal in G.  Each generator of G permutes the classes of K,
    and through them the rows of K's table (`CharacterTable.row_permutation`).
    """
    if not K.is_normal():
        raise InternalInconsistency("irr_action_orbits requires a normal subgroup")
    tK = character_table(K.as_group())
    pos = K.sorted_indices()
    class_of = _hclass_of(K)
    steps = []
    for g in G.generator_indices:
        class_perm = [class_of[G.conj(g, pos[r])] for r in tK.classes.rep_indices]
        steps.append(tK.row_permutation(class_perm).__getitem__)
    orbits = [tuple(sorted(points)) for points in orbit_partition(tK.k, steps)]
    return len(orbits), tuple(orbits)
