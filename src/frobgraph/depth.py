"""Minimal subgroup depth, read off distances in the Frobenius graph.

With S = M M^T, depth 2m+1 holds iff S^(m+1) <= q S^m for some q > 0, and
depth 2m iff S^m M <= q S^(m-1) M (Burciu, Kadison and Kuelshammer, "On
subgroup depth", 2011).  For nonnegative integer A, B such a q exists exactly
when supp(A) lies inside supp(B): q = max(A) works.  As M is nonnegative,
supp(S^m) holds the pairs of characters of H joined by a walk of length 2m in
the graph of F(G, H), and supp(S^m M) the pairs (phi, chi) joined by a walk
of length 2m+1.  Every character of H has a neighbour in Irr(G) to step back
and forth on, so such a walk exists iff the distance is at most its length.
Let D_HH be the largest finite distance between two characters of H and D_HG
the largest from a character of H to one of G.  The odd chain stops growing
at m = D_HH // 2, the even chain at m = (D_HG + 1) // 2, and the distances
differ by exactly one.  So the minimal depth is max(D_HH, D_HG): the largest
eccentricity of an Irr(H) vertex within its component.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import InternalInconsistency, NotProper
from .frobenius import frobenius_matrix
from .graph import _adjacency, _distance_rows


@dataclass(frozen=True)
class DepthReport:
    """minimal_depth with the two certificates it came from.

    odd_certificate is the least m with supp(S^(m+1)) inside supp(S^m)
    (depth 2m+1); even_certificate the least m with supp(S^m M) inside
    supp(S^(m-1) M) (depth 2m).  m = 0 in the odd chain is the degenerate
    depth-1 case, flagged separately.  support_chain_lengths[m] is the size
    of supp(S^m) for m = 0 ... odd_certificate + 1.
    """

    minimal_depth: int
    odd_certificate: int
    even_certificate: int
    degenerate_depth_one: bool
    support_chain_lengths: tuple

    def to_json_dict(self):
        return {
            "minimal_depth": self.minimal_depth,
            "odd_m": self.odd_certificate,
            "even_m": self.even_certificate,
            "support_chain_lengths": list(self.support_chain_lengths),
        }


def minimal_depth(G, H):
    """Depth report for a proper subgroup H of G (nontrivial core allowed)."""
    if H.order == G.order:
        raise NotProper("depth is defined for proper subgroups")
    M = frobenius_matrix(G, H)
    adjacency = _adjacency(M)
    n_left = M.n_cols
    if not all(adjacency[n_left:]):
        raise InternalInconsistency("induced character with zero norm")
    # only the rows of the Irr(H) vertices are read, so only they are searched
    rows = _distance_rows(adjacency, range(n_left, len(adjacency)))
    # the finite distances between characters of H, and the largest to one of G
    hh = sorted(d for dist in rows for d in dist[n_left:] if d >= 0)
    d_hh, d_hg = hh[-1], max(max(dist[:n_left]) for dist in rows)
    if abs(d_hh - d_hg) != 1:
        raise InternalInconsistency(
            f"distances {d_hh} within Irr(H) and {d_hg} to Irr(G) break depth monotonicity"
        )
    odd_m, even_m = d_hh // 2, (d_hg + 1) // 2
    degenerate = odd_m == 0
    return DepthReport(
        minimal_depth=1 if degenerate else min(2 * odd_m + 1, 2 * even_m),
        odd_certificate=odd_m,
        even_certificate=even_m,
        degenerate_depth_one=degenerate,
        support_chain_lengths=tuple(bisect_right(hh, 2 * m) for m in range(odd_m + 2)),
    )


def support_containment_has_scalar(A, B):
    """Reference oracle: exists rational q > 0 with A <= qB entrywise.

    Used by tests to confirm the support-containment reformulation.
    """
    from fractions import Fraction

    q = Fraction(0)
    for arow, brow in zip(A, B):
        for a, b in zip(arow, brow):
            if a:
                if not b:
                    return False
                q = max(q, Fraction(a, b))
    return True
