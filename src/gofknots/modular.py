"""Conjugacy decisions through the central quotient of the braid group.

The quotient of the three-strand braid group by its center is the free
product of cyclic groups of orders two and three.  Its elements have a
unique reduced syllable form over the torsion generators X (order two) and
Y, Y^2 (order three), and two elements of infinite order are conjugate
exactly when their cyclically reduced syllable words agree up to rotation.
Together with the exponent sum, which separates the central powers the
quotient forgets, this decides conjugacy of braids exactly.

Every step is linear in the word length, and a syllable word is one
``bytes`` object from projection to the rotation test.  Projection walks
the word's maximal runs of one letter, one Python step for a run that
meets no cancellation whatever its length.  Cyclic reduction moves two
indices inward and slices once, the rotation test is a substring search
of one core in the other core doubled, and the canonical rotation printed
by ``nf`` comes from Duval's Lyndon factorization.
"""

from __future__ import annotations

from ._record import Record
from .words import BraidWord, exponent_sum, run_ends

__all__ = [
    "FreeProductWord",
    "X",
    "Y",
    "Y2",
    "are_conjugate",
    "cyclic_normal_form",
    "project",
]

# Syllables, one byte each.  The values double as Y-exponents (X carries
# none) and order the alphabet X < Y < Y^2 for canonical rotations.
X, Y, Y2 = 0, 1, 2
_ALPHABET = bytes((X, Y, Y2))
_CODES = {s: s for s in _ALPHABET}
_SYLLABLE_NAMES = ("X", "Y", "Y2")


class FreeProductWord(Record):
    """A reduced word in Z/2 * Z/3: no two adjacent syllables lie in the
    same free factor.  The empty word is the identity.  ``syllables`` is
    ``bytes``; another sequence is stored as bytes if each entry equals a
    syllable, so ``1.0`` is read as Y and ``"a"`` refused."""

    syllables: bytes = b""

    def __post_init__(self) -> None:
        sylls = self.syllables
        if sylls.__class__ is not bytes:
            try:
                sylls = bytes(map(_CODES.__getitem__, sylls))
            except KeyError as exc:
                raise ValueError(f"invalid syllable {exc.args[0]!r}") from None
            object.__setattr__(self, "syllables", sylls)
        bad = sylls.translate(None, _ALPHABET)  # what is left is no syllable
        if bad:
            raise ValueError(f"invalid syllable {bad[0]!r}")
        # Reduced means alternating factors: one parity class of positions
        # is all X and the other holds no X.
        even, odd = sylls[0::2], sylls[1::2]
        even_x, odd_x = even.count(X), odd.count(X)
        if not ((even_x == len(even) and odd_x == 0) or (even_x == 0 and odd_x == len(odd))):
            raise ValueError("word is not reduced")

    def __len__(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        return " ".join(_SYLLABLE_NAMES[s] for s in self.syllables) or "1"


# Letter images in the quotient.  The relation check: s1 s2 s1 maps to
# (XY)(YX)(XY) = X, the same as s2 s1 s2, and each generator cancels its
# inverse.  s1 and s2^-1 map to X Y^e, s2 and s1^-1 to Y^e X; per letter
# the table holds whether the image starts with X, its Y-type syllable and
# the image as bytes.
_LETTER_IMAGES = {
    1: (True, Y, bytes((X, Y))),
    -1: (False, Y2, bytes((Y2, X))),
    2: (False, Y, bytes((Y, X))),
    -2: (True, Y2, bytes((X, Y2))),
}
# The bottom of the projection stack: no syllable reduces against it, and
# like X it is 0 mod 3, so ``top % 3`` is nonzero exactly on Y and Y^2.
_BOTTOM = 3


def project(w: BraidWord) -> FreeProductWord:
    """Image of a braid word in the central quotient, fully reduced.

    The word is read run by run (``words.run_ends``).  Copies of one
    image repeat without reducing (XY XY, YX YX, Y2X Y2X and XY2 XY2 are
    reduced words), so a run is reduced against the top of the stack only
    until one copy stays on it and the rest is appended at once; each copy
    that cancels costs one step.  Two bottom markers spare every emptiness
    check and keep a syllable under the top.  The stack is a bytearray,
    frozen once into the word's bytes.
    """
    letters = w.letters
    stack = bytearray((_BOTTOM, _BOTTOM))
    push, pop = stack.append, stack.pop
    start = 0
    for end in run_ends(letters):
        x_first, y, image = _LETTER_IMAGES[letters[start]]
        count = end - start
        start = end
        if x_first:  # X Y^y reduces while X is on top
            while stack[-1] == X:
                count -= 1
                below = stack[-2]
                if below == _BOTTOM:  # X cancels, Y^y stays
                    stack[-1] = y
                    break
                pop()  # X against X cancels
                merged = (below + y) % 3
                if merged:
                    stack[-1] = merged
                    break
                pop()  # the whole copy cancels
                if not count:
                    break
        else:  # Y^y X reduces while Y or Y^2 is on top
            while stack[-1] % 3:
                count -= 1
                merged = (stack[-1] + y) % 3
                if merged:
                    stack[-1] = merged
                    push(X)
                    break
                if stack[-2] == _BOTTOM:  # Y-types cancel, X stays
                    stack[-1] = X
                    break
                pop()  # the whole copy cancels
                pop()
                if not count:
                    break
        if count:
            stack += image * count
    del stack[:2]
    return FreeProductWord(bytes(stack))


def cyclic_normal_form(fw: FreeProductWord) -> FreeProductWord:
    """Canonical representative of the conjugacy class of ``fw``.

    The word is cyclically reduced by merging wrap-around syllables from
    the same factor, then the lexicographically least rotation under
    X < Y < Y^2 is chosen in linear time through Duval's Lyndon
    factorization (J.-P. Duval, *Factorizing words over an ordered
    alphabet*, J. Algorithms 1983).  Torsion classes (length at most one)
    compare literally; in particular Y and Y^2 stay distinct.
    """
    return FreeProductWord(_least_rotation(_cyclic_core(fw.syllables)))


def _cyclic_core(data: bytes) -> bytes:
    """Cyclic reduction of a reduced syllable word: ends from the same
    factor are stripped from both sides at once.  X against X cancels
    (X + X = 0), Y-type ends merge mod 3, and a nonzero merge, which sits
    between two X syllables, ends the reduction."""
    first, last = 0, len(data) - 1
    while first < last and (data[first] == X) == (data[last] == X):
        merged = (data[first] + data[last]) % 3
        first += 1
        last -= 1
        if merged:
            return data[first:last + 1] + bytes((merged,))
    return data[first:last + 1]


def _least_rotation(core: bytes) -> bytes:
    """Least rotation by Duval's Lyndon factorization of the doubled word:
    the last Lyndon factor to start in the first copy begins the least
    rotation.  Each pass of the outer loop moves ``start`` past the factors
    it has read, so the whole scan is linear."""
    size = len(core)
    doubled = core + core
    start = least = 0
    while start < size:
        least = start
        ahead, mark = start + 1, start
        while ahead < 2 * size and doubled[mark] <= doubled[ahead]:
            mark = start if doubled[mark] < doubled[ahead] else mark + 1
            ahead += 1
        while start <= mark:
            start += ahead - mark
    return doubled[least:least + size]


def are_conjugate(u: BraidWord, v: BraidWord) -> bool:
    """Exact conjugacy decision for three-strand braids.

    Conjugacy in the quotient is rotation of cyclically reduced words, so
    the two cores are compared by a substring search of one in the other
    doubled, which CPython runs in linear time; no canonical rotation is
    needed.  The exponent sum then pins down the central factor, because
    conjugating in the braid group cannot absorb a central power.
    """
    if exponent_sum(u) != exponent_sum(v):
        return False
    a = _cyclic_core(project(u).syllables)
    b = _cyclic_core(project(v).syllables)
    return len(a) == len(b) and b in a + a
