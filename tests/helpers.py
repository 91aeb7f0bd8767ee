"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: conjugacy classes by
raw double loops over image tuples, containment checks by set algebra, and
matrix comparison up to row/column permutation by explicit search.
`deadline` fails a test that runs too long rather than letting it hang, and
`tampered_table` builds a character table that no check has passed.
"""

import signal
from contextlib import contextmanager
from itertools import permutations as iter_permutations

from frobgraph.catalog import construct, parse_group_spec
from frobgraph.chartab import CharacterTable


def group(spec_text):
    return construct(parse_group_spec(spec_text))


class Hang(Exception):
    """Raised inside a `deadline` block that runs past its time."""


def _raise_hang(signum, frame):
    raise Hang


@contextmanager
def deadline(seconds):
    """Raise Hang in the block once it has run `seconds` of wall time, so
    that a test fails rather than hangs (SIGALRM; the main thread only)."""
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tampered_table(table, r, row):
    """A copy of a character table with row r replaced, left unchecked."""
    values = list(table.values)
    values[r] = tuple(row)
    return CharacterTable(table.group, table.classes, table.exponent, tuple(values), table.degrees)


def brute_conjugacy_partition(G):
    """Conjugacy classes by conjugating every element by every element."""
    elems = G.elements
    n = G.degree

    def compose(a, b):
        return tuple(a[x] for x in b)

    def inverse(a):
        out = [0] * n
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    classes = []
    seen = set()
    for x in elems:
        if x in seen:
            continue
        orbit = {compose(compose(g, x), inverse(g)) for g in elems}
        seen |= orbit
        classes.append(orbit)
    return classes


def brute_core(G, H):
    """Intersection of all conjugates of H, on raw index sets."""
    K = set(H.indices)
    for g in range(G.order):
        K &= {G.conj(g, h) for h in H.indices}
    return frozenset(K)


def matrices_permutation_equal(A, B):
    """Whether B is A with rows and columns permuted (small matrices only)."""
    A = [tuple(r) for r in A]
    B = [tuple(r) for r in B]
    if len(A) != len(B) or len(A[0]) != len(B[0]):
        return False
    assert len(A) <= 8, "row search is factorial; keep the smaller side small"
    b_cols = sorted(zip(*B))
    for perm in iter_permutations(range(len(A))):
        a_cols = sorted(zip(*[A[i] for i in perm]))
        if a_cols == b_cols:
            return True
    return False


def subgroup_of_order(G, order, which=0):
    from frobgraph.subgroups import enumerate_subgroup_classes

    matches = [c for c in enumerate_subgroup_classes(G) if c.order == order]
    return matches[which].rep
