"""Integral 2x2 matrix images of three-strand braids.

The generator images used here send the squared half-twist to minus the
identity.  The matrix carries the first homology of the double branched
cover of the braid closure: |det(M - I)| is the order of that group, with
0 standing for an infinite group.  All arithmetic is exact over unbounded
integers.  Braid identity is decided in ``modular``, not here.

A word is read as maximal runs of one letter (``words.run_ends``).  The
closed forms s1^e -> [[1, e], [0, 1]] and s2^e -> [[1, 0], [-e, 1]] make
right multiplication by a run one column operation on the running
product, so no matrix is built and no Python step is taken per letter.
"""

from __future__ import annotations

from ._record import Record
from .words import BraidWord, run_ends

__all__ = [
    "SL2Matrix",
    "classify_monodromy",
    "homology_order",
    "represent",
    "trace",
]

class SL2Matrix(Record):
    """A 2x2 integer matrix of determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "SL2Matrix":
        return SL2Matrix(-self.a, -self.b, -self.c, -self.d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


def represent(w: BraidWord) -> SL2Matrix:
    """Image of a word, letters multiplied left to right.

    The product is kept as four integers.  A run s1^e adds e times the
    first column to the second (b += e*a, d += e*c); a run s2^e subtracts
    e times the second column from the first (a -= e*b, c -= e*d); a run
    of inverse letters does the same with -e.  The runs are read off the
    word's letter bytes (``BraidWord.letter_bytes``): bytes 1 and 255 are
    s1 and its inverse, and a byte of 128 or more is an inverse letter.
    The result is validated as an SL2Matrix once.
    """
    a, b, c, d = 1, 0, 0, 1
    data = w.letter_bytes
    start = 0
    for end in run_ends(data):
        letter = data[start]
        e = end - start if letter < 128 else start - end
        start = end
        if letter == 1 or letter == 255:
            b += e * a
            d += e * c
        else:
            a -= e * b
            c -= e * d
    return SL2Matrix(a, b, c, d)


def trace(w: BraidWord) -> int:
    return represent(w).trace


def homology_order(w: BraidWord) -> int:
    """Order of the first homology of the double branched cover of the
    closure of ``w``; 0 encodes an infinite group.

    This is |det(M - I)|, and det(M - I) = 2 - tr M because det M = 1.
    """
    return abs(2 - represent(w).trace)


def classify_monodromy(w: BraidWord) -> str:
    """Nielsen-Thurston type of the mapping class of ``w`` on the
    once-punctured torus, read off its homology action M: "pseudo-Anosov"
    if |tr M| > 2, "reducible" if |tr M| = 2 and M is not +-I, else
    "periodic".  M = +-I (det M = 1, tr M = +-2, b = c = 0) is the identity
    or the hyperelliptic involution, of finite order."""
    m = represent(w)
    t = abs(m.trace)
    if t > 2:
        return "pseudo-Anosov"
    if t == 2 and (m.b, m.c) != (0, 0):
        return "reducible"
    return "periodic"

