"""Permutations of {0..n-1} and the 1-based disjoint-cycle text format."""

from __future__ import annotations

from math import lcm

from .errors import InvalidPermutation, ParseError


class Permutation:
    """Immutable permutation, stored as the tuple of images of 0..n-1.

    Composition is function composition: ``(p * q)(i) == p(q(i))``, so the
    right factor acts first.  Permutations compare and sort by image tuple.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise InvalidPermutation(f"not a bijection on 0..{n - 1}: {images!r}")
            seen[v] = True
        self.images = images

    @classmethod
    def trusted(cls, images):
        """Wrap an image tuple without the bijection check; only for tuples
        composed from permutations that were already checked."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build from 0-based cycles, e.g. ``from_cycles(5, [(0, 1), (2, 3, 4)])``."""
        images = list(range(degree))
        touched = [False] * degree
        for cyc in cycles:
            cyc = tuple(cyc)
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise InvalidPermutation(f"point {pt} outside 0..{degree - 1}")
                if touched[pt]:
                    raise InvalidPermutation(f"point {pt} repeated across cycles")
                touched[pt] = True
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        if self.images == tuple(range(len(self.images))):
            return other
        img = self.images
        return Permutation(tuple(img[x] for x in other.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(inv)

    def __pow__(self, k):
        n = len(self.images)
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles, each starting at its least point, sorted."""
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                cyc.append(pt)
                seen[pt] = True
                pt = self.images[pt]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Sorted tuple of cycle lengths, fixed points included."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (len(self.images) - sum(lengths))
        return tuple(sorted(lengths))

    def order(self):
        return lcm(*(len(c) for c in self.cycles()))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return format_cycles(self)


def format_cycles(perm):
    """Render in 1-based disjoint-cycle notation; identity renders as "()"."""
    cycs = perm.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycs)


def parse_cycles(text, degree=None, line=None):
    """Parse 1-based disjoint-cycle text like "(1,2)(3,4,5)"; "()" is the identity.

    If ``degree`` is None it is inferred as the largest point mentioned.
    """
    points_seen = set()
    cycles = []
    i = 0
    text = text.strip()
    if not text:
        raise ParseError("empty permutation", line=line, column=1)
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(', found {ch!r}", line=line, column=i + 1)
        close = text.find(")", i)
        if close < 0:
            raise ParseError("unterminated cycle", line=line, column=i + 1)
        body = text[i + 1 : close].strip()
        if body:
            cyc = []
            for part in body.split(","):
                part = part.strip()
                if not part.isdigit():
                    raise ParseError(f"bad point {part!r}", line=line, column=i + 1)
                pt = int(part) - 1
                if pt < 0:
                    raise ParseError("points are 1-based", line=line, column=i + 1)
                if degree is not None and pt >= degree:
                    raise ParseError(
                        f"point {pt + 1} out of range for degree {degree}",
                        line=line,
                        column=i + 1,
                    )
                if pt in points_seen:
                    raise ParseError(f"point {pt + 1} repeated", line=line, column=i + 1)
                points_seen.add(pt)
                cyc.append(pt)
            if len(cyc) > 1:
                cycles.append(tuple(cyc))
        i = close + 1
    if degree is None:
        degree = max(points_seen, default=-1) + 1
    return Permutation.from_cycles(degree, cycles)
