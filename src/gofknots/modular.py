"""Equality and conjugacy of braids through the central quotient.

The quotient of the three-strand braid group by its center is the free
product of cyclic groups of orders two and three.  Its elements have a
unique reduced syllable form over the torsion generators X (order two) and
Y, Y^2 (order three), and two elements of infinite order are conjugate
exactly when their cyclically reduced syllable words agree up to rotation.
The kernel is the center <h>, h = (s1 s2)^3, and h^m has exponent sum 6m,
so the exponent sum separates the central powers the quotient forgets:
with it, equal images decide equality of braids exactly, and conjugate
images conjugacy.

Every step is linear in the word length, and a syllable word is one
``bytes`` object from projection to the rotation test.  Projection reads
the word's letter bytes eight letters per Python step, through a table of
the images of blocks of four and a table of the images of pairs of those,
and a run of eight or more letters in one step whatever its length.  Each
piece is reduced against the stack only at the seam, and every reducing
step removes a syllable that was stacked once, so the whole projection
stays linear, ``w w^-1`` included; a piece whose image stacks whole is
appended without a call.  Cyclic reduction finds the ends that cancel by
doubling and bisection over slice comparisons, and the canonical rotation
printed by ``nf`` comes from Duval's Lyndon factorization.

A cyclic core of two or more syllables alternates X with Y-types, so it
is a cyclic word in L = X Y and R = X Y2, and the rotation test searches
its Y-type syllables alone: half the bytes of the syllable word.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator
from itertools import chain

from ._record import Record
from .words import BraidWord, exponent_sum

__all__ = [
    "FreeProductWord",
    "X",
    "Y",
    "Y2",
    "are_conjugate",
    "cyclic_normal_form",
    "equal_in_b3",
    "project",
]

# Syllables, one byte each.  The values double as Y-exponents (X carries
# none) and order the alphabet X < Y < Y^2 for canonical rotations.
X, Y, Y2 = 0, 1, 2
_ALPHABET = bytes((X, Y, Y2))
_CODES = {s: s for s in _ALPHABET}
_SYLLABLE_NAMES = ("X", "Y", "Y2")
# Each syllable to its inverse: X to X, Y to Y2 and back.
_INVERSE_SYLLABLES = bytes.maketrans(bytes((Y, Y2)), bytes((Y2, Y)))


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


# Letter images in the quotient, keyed by letter byte.  The relation
# check: s1 s2 s1 maps to (XY)(YX)(XY) = X, the same as s2 s1 s2, and each
# generator cancels its inverse.
_LETTER_IMAGES = {
    1: bytes((X, Y)),
    0xFF: bytes((Y2, X)),  # s1^-1
    2: bytes((Y, X)),
    0xFE: bytes((X, Y2)),  # s2^-1
}
# The bottom of the projection stack: nothing reduces against it.
_BOTTOM = 3
# _SEAM[top][syllable] is what a syllable does on top of the stack: 0
# cancels the top, Y or Y2 replaces it with the product of the two, and
# _KEEP stacks it, since the two lie in different factors.
_KEEP = 3
_SEAM = (
    bytes((0, _KEEP, _KEEP)),  # on X
    bytes((_KEEP, Y2, 0)),  # on Y
    bytes((_KEEP, 0, Y)),  # on Y2
    bytes((_KEEP, _KEEP, _KEEP)),  # on the bottom
)
# Runs of at least this many letters are pushed in one step.
_LONG_RUN = 8
_RUN_SEEDS = {code: bytes((code,)) * _LONG_RUN for code in _LETTER_IMAGES}
# A whole run: each branch repeats one literal byte, which the regex
# engine counts in a C loop.
_RUN = re.compile(rb"\x01+|\x02+|\xfe+|\xff+")


def _push(stack: bytearray, piece: bytes) -> None:
    """Append the reduced word ``piece`` to the reduced word on ``stack``.

    Both are reduced, so they reduce against each other only at the seam.
    Each step cancels the top, merges two Y-types, or stacks the rest of
    the piece and stops; a merged Y-type is followed by an X, which stacks.
    A step that cancels removes a syllable that was stacked once, so a
    whole projection takes steps linear in its syllables, ``w w^-1``
    included.
    """
    for i, syllable in enumerate(piece):
        seam = _SEAM[stack[-1]][syllable]
        if seam == _KEEP:
            stack += piece[i:]
            return
        if seam:
            stack[-1] = seam
        else:
            del stack[-1]


class _BlockImages(dict):
    """Reduced images of blocks of four letters, keyed by the four letter
    bytes read as one native unsigned int.  An entry is made the first time
    its block is met: at most 256 of them, and none at import."""

    def __missing__(self, key: int) -> bytes:
        stack = bytearray((_BOTTOM,))
        for code in key.to_bytes(4, sys.byteorder):
            _push(stack, _LETTER_IMAGES[code])
        image = self[key] = bytes(stack[1:])
        return image


class _PairImages(dict):
    """Reduced images of two blocks of four letters in a row, keyed by the
    pair of their block images.  The 256 blocks have only 61 distinct
    images, so there are at most 61 * 61 = 3,721 entries, each made the
    first time its pair is met, and none at import."""

    def __missing__(self, key: tuple[bytes, bytes]) -> bytes:
        first, second = key
        stack = bytearray((_BOTTOM,)) + first
        _push(stack, second)
        image = self[key] = bytes(stack[1:])
        return image


_BLOCK_IMAGES = _BlockImages()
_PAIR_IMAGES = _PairImages()


def project(w: BraidWord) -> FreeProductWord:
    """Image of a braid word in the central quotient, fully reduced.

    The word's letter bytes (``BraidWord.letter_bytes``) are read eight
    letters per step: each block of four has its reduced image in one
    table, and each pair of block images the reduced image of the pair in
    another, which ``_push`` reduces against the stack.  A run of eight or
    more letters is one step too: the copies of one letter's image repeat
    without reducing (XY XY, YX YX, Y2X Y2X and XY2 XY2 are reduced words),
    so the whole run's image is pushed at once.
    """
    return FreeProductWord(_reduce(w.letter_bytes))


def _reduce(data: bytes) -> bytes:
    """The reduced syllables of the letter bytes ``data``: the stack is a
    bytearray over one bottom marker, frozen once into bytes."""
    stack = bytearray((_BOTTOM,))
    start = 0
    for run_start, run_end in _long_runs(data):
        _push_letters(stack, data, start, run_start)
        _push(stack, _LETTER_IMAGES[data[run_start]] * (run_end - run_start))
        start = run_end
    _push_letters(stack, data, start, len(data))
    del stack[0]
    return bytes(stack)


def _push_letters(stack: bytearray, data: bytes, start: int, end: int) -> None:
    """Push ``data[start:end]`` in pairs of blocks of four, then the one
    block of four and the one to three letters left over, one by one.  A
    piece that stacks whole, because its first syllable lies in another
    factor than the top of the stack, is appended in place; an empty piece
    or a seam that reduces goes through ``_push``."""
    view = memoryview(data)
    pairs_end = end - (end - start) % 8
    blocks_end = end - (end - start) % 4
    blocks = map(_BLOCK_IMAGES.__getitem__, view[start:pairs_end].cast("I"))
    pieces = chain(
        map(_PAIR_IMAGES.__getitem__, zip(blocks, blocks)),
        map(_BLOCK_IMAGES.__getitem__, view[pairs_end:blocks_end].cast("I")),
        map(_LETTER_IMAGES.__getitem__, data[blocks_end:end]),
    )
    for piece in pieces:
        if piece and _SEAM[stack[-1]][piece[0]] == _KEEP:
            stack += piece
        else:
            _push(stack, piece)


def _long_runs(data: bytes) -> Iterator[tuple[int, int]]:
    """Start and end of each maximal run of at least ``_LONG_RUN`` letters,
    in order.  Each letter's next run is searched for from where its last
    one ended, so every search reads new bytes, and the whole scan reads
    the word at most once per letter, at C speed."""
    ahead = {code: start for code, seed in _RUN_SEEDS.items() if (start := data.find(seed)) >= 0}
    while ahead:
        code = min(ahead, key=ahead.__getitem__)
        start = ahead[code]
        end = _RUN.match(data, start).end()
        yield start, end
        ahead[code] = data.find(_RUN_SEEDS[code], end)
        if ahead[code] < 0:
            del ahead[code]


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
    between two X syllables, ends the reduction.

    The pairs that cancel are the longest common prefix of the word and
    its reversal with Y and Y2 swapped, at most half the word.  The prefix
    is found by doubling, then bisection: each step compares a slice of
    the word's head not yet known to agree with the slice of its tail
    that faces it, reversed and swapped.  Only those slices are read, so
    the steps are logarithmic and the bytes read linear in the pairs that
    cancel, a few of each when none do.  The pair after the prefix merges
    if its two syllables are equal, which makes them Y-types, since X
    cancels X.

    A core of two or more syllables has ends in different factors, so it
    has even length and X fills one parity class: it is a cyclic word in
    L = X Y and R = X Y2, read off its Y-type syllables.
    """
    size = len(data)
    same, most, step = 0, size // 2, 1  # the first same pairs cancel; no more than most do
    while same < most:
        middle = same + min(step, (most - same + 1) // 2)
        if data[same:middle] == data[size - middle:size - same][::-1].translate(_INVERSE_SYLLABLES):
            same, step = middle, 2 * step
        else:
            most = middle - 1
    first, last = same, size - 1 - same
    if first < last and data[first] == data[last]:
        return data[first + 1:last] + bytes((3 - data[first],))
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
    ``_is_rotation`` compares the two cyclic cores, read as words in
    L = X Y and R = X Y2; no canonical rotation is needed.  The exponent sum then pins down the central
    factor, because conjugating in the braid group cannot absorb a central
    power.  The reduced syllables go to the cyclic core as bytes, with no
    record built.
    """
    if exponent_sum(u) != exponent_sum(v):
        return False
    return _is_rotation(_cyclic_core(_reduce(u.letter_bytes)), _cyclic_core(_reduce(v.letter_bytes)))


def _is_rotation(a: bytes, b: bytes) -> bool:
    """Whether the cyclic cores ``a`` and ``b`` are rotations of each other.

    Cores of at most one syllable (the identity and the torsion classes X,
    Y, Y^2) are compared literally.  Longer cores of equal length are read
    as words in L = X Y and R = X Y2, their Y-type syllables alone: a
    rotation by an odd number of syllables takes X onto a Y-type, so the
    cores are rotations of each other exactly when their Y-types are.
    Those are compared by a substring search of one in the other doubled,
    which CPython runs in linear time.
    """
    if len(a) != len(b):
        return False
    if len(a) < 2:
        return a == b
    # The Y-types start at index 1 when the core starts with X.
    a, b = a[a[0] == X :: 2], b[b[0] == X :: 2]
    return b in a + a


def equal_in_b3(u: BraidWord, v: BraidWord) -> bool:
    """Exact equality of braids: equal exponent sums and equal reduced
    images in the quotient, compared as bytes with no record built."""
    return exponent_sum(u) == exponent_sum(v) and _reduce(u.letter_bytes) == _reduce(v.letter_bytes)
