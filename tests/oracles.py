"""Independent oracles the tests compare the library against.

Neither is used by the library: ``psl_matrix`` multiplies a second image
table over the quotient syllables, and ``find_conjugator_brute`` searches
conjugators exhaustively instead of deciding conjugacy in the quotient.
"""

from typing import Optional

from gofknots.burau import IDENTITY_MATRIX, SL2Matrix, represent
from gofknots.modular import X, Y, Y2, FreeProductWord
from gofknots.words import BraidWord, exponent_sum

_PSL_IMAGES = {
    X: SL2Matrix(0, -1, 1, 0),
    Y: SL2Matrix(0, -1, 1, 1),
    Y2: SL2Matrix(-1, -1, 1, 0),
}


def psl_matrix(fw: FreeProductWord) -> SL2Matrix:
    """Matrix image of a syllable word; agrees with the braid matrix of any
    preimage up to one global sign."""
    matrix = IDENTITY_MATRIX
    for syllable in fw.syllables:
        matrix = matrix * _PSL_IMAGES[syllable]
    return matrix


_SEARCH_LETTERS = (1, -1, 2, -2)


def find_conjugator_brute(u: BraidWord, v: BraidWord, max_len: int) -> Optional[BraidWord]:
    """Exhaustive conjugator search, independent of the quotient machinery.

    Words g over the four letters are enumerated in shortlex order
    (letter order a, A, b, B) up to length ``max_len``; the first g with
    g u g^-1 equal to v as a braid is returned, or None.  A validation
    oracle for ``are_conjugate``.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if exponent_sum(u) != exponent_sum(v):
        return None  # conjugation preserves the exponent sum
    source = represent(u)
    target = represent(v)
    images = {letter: represent(BraidWord((letter,))) for letter in _SEARCH_LETTERS}

    # g u g^-1 = v exactly when G A = V G: the exponent sums already match,
    # so the matrix test is equivalent to equality in the braid group.
    def search(prefix: tuple[int, ...], matrix: SL2Matrix, remaining: int) -> Optional[tuple[int, ...]]:
        if remaining == 0:
            return prefix if matrix * source == target * matrix else None
        for letter in _SEARCH_LETTERS:
            found = search(prefix + (letter,), matrix * images[letter], remaining - 1)
            if found is not None:
                return found
        return None

    for length in range(max_len + 1):
        found = search((), IDENTITY_MATRIX, length)
        if found is not None:
            return BraidWord(found)
    return None
