"""Exact word algebra in the braid group on three strands.

Words are stored as flat letter sequences and are never reduced behind the
caller's back, so building, formatting, and parsing round-trip letter for
letter.  A letter is a signed integer: ``+1``/``-1`` for the first Artin
generator and its inverse, ``+2``/``-2`` for the second.

Token grammar (whitespace separated, forms may be mixed):

    a  A  b  B      single letters; capitals are the inverses
    s1^e  s2^e      powers with a nonzero integer exponent, e.g. ``s2^-3``
"""

from __future__ import annotations

import random
import re

from ._record import Record

__all__ = [
    "BraidParseError",
    "BraidWord",
    "IDENTITY",
    "beta",
    "concat",
    "conjugate_by",
    "exponent_sum",
    "format_braid",
    "free_reduce",
    "insert_full_twists",
    "inverse",
    "mirror",
    "parse_braid",
    "scramble",
    "standard_form",
]

_VALID_LETTERS = frozenset((1, -1, 2, -2))


class BraidParseError(ValueError):
    """A braid token string violates the grammar."""


class BraidWord(Record):
    """An unreduced word in the generators of the three-strand braid group.

    The empty word is the identity.  Instances are immutable; every
    operation in this module is a pure function returning a new word.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        if not _VALID_LETTERS.issuperset(self.letters):
            bad = next(letter for letter in self.letters if letter not in _VALID_LETTERS)
            raise ValueError(f"invalid braid letter {bad!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_braid(self)


IDENTITY = BraidWord()

_SINGLE_TOKENS = {"a": 1, "A": -1, "b": 2, "B": -2}
_TOKENS_BACK = {1: "a", -1: "A", 2: "b", -2: "B"}
# ASCII digits only: \d would also take digits of other scripts.
_POWER_TOKEN = re.compile(r"s([0-9]+)(?:\^(-?[0-9]+))?")


def parse_braid(text: str) -> BraidWord:
    """Parse a token string into a braid word, letter for letter."""
    letters: list[int] = []
    for token in text.split():
        if token in _SINGLE_TOKENS:
            letters.append(_SINGLE_TOKENS[token])
            continue
        match = _POWER_TOKEN.fullmatch(token)
        if match is None:
            raise BraidParseError(f"malformed token {token!r}")
        index, power = match.groups()
        if index not in ("1", "2"):
            raise BraidParseError(f"generator index out of range in token {token!r}")
        exponent = int(power) if power is not None else 1
        if exponent == 0:
            raise BraidParseError(f"zero exponent in token {token!r}")
        letters.extend(_power(int(index), exponent))
    return BraidWord(tuple(letters))


def format_braid(w: BraidWord) -> str:
    """Render a word in single-letter tokens; the empty word renders as ''."""
    return " ".join(_TOKENS_BACK[letter] for letter in w.letters)


def _power(gen: int, exponent: int) -> tuple[int, ...]:
    letter = gen if exponent > 0 else -gen
    return (letter,) * abs(exponent)


def concat(u: BraidWord, v: BraidWord) -> BraidWord:
    return BraidWord(u.letters + v.letters)


def inverse(w: BraidWord) -> BraidWord:
    """Reverse the word and invert each letter."""
    return BraidWord(tuple(-letter for letter in reversed(w.letters)))


def mirror(w: BraidWord) -> BraidWord:
    """Invert each letter in place; the closure becomes its mirror image."""
    return BraidWord(tuple(-letter for letter in w.letters))


def conjugate_by(w: BraidWord, g: BraidWord) -> BraidWord:
    """The word g w g^-1, unreduced."""
    return concat(concat(g, w), inverse(g))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain.

    Only free cancellation is applied; the braid relation is never used, so
    distinct braid words with equal images stay distinct.
    """
    stack: list[int] = []
    for letter in w.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(tuple(stack))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs, a conjugacy invariant.

    Letters are exactly +-1 and +-2, so counting the two negative letters
    gives the sum without a pass in Python.
    """
    letters = w.letters
    return len(letters) - 2 * (letters.count(-1) + letters.count(-2))


def beta(k: int, n: int) -> BraidWord:
    """The braid (s2 s1 s2)^k s1^n, expanded letter by letter.

    Negative powers expand through inverse letters, so the length is
    always 3|k| + |n| and the exponent sum 3k + n.
    """
    triple = (2, 1, 2) if k >= 0 else (-2, -1, -2)
    return BraidWord(triple * abs(k) + _power(1, n))


def standard_form(p: int, q: int) -> BraidWord:
    """The word s2^-1 s1^p s2^2 s1^q, the reference shape for two-bridge
    closures of three-strand braids."""
    return BraidWord((-2,) + _power(1, p) + (2, 2) + _power(1, q))


def insert_full_twists(w: BraidWord, count: int) -> BraidWord:
    """Prepend (s2 s1 s2)^(4*count); the exponent sum grows by 12*count."""
    triple = (2, 1, 2) if count >= 0 else (-2, -1, -2)
    return BraidWord(triple * (4 * abs(count)) + w.letters)


# Insertion blocks for scramble: four cancelling pairs, then the braid
# relator s1 s2 s1 (s2 s1 s2)^-1 and its inverse.
_PADDING_BLOCKS = (
    (1, -1),
    (-1, 1),
    (2, -2),
    (-2, 2),
    (1, 2, 1, -2, -1, -2),
    (2, 1, 2, -1, -2, -1),
)


def scramble(w: BraidWord, seed: int, steps: int) -> BraidWord:
    """Grow ``w`` into a longer word equal to it in the braid group.

    Each step inserts a cancelling pair or a relator block at a position
    drawn from a generator seeded with ``seed``, so identical arguments
    always produce identical output.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = random.Random(seed)
    letters = w.letters
    for _ in range(steps):
        position = rng.randrange(len(letters) + 1)
        block = _PADDING_BLOCKS[rng.randrange(len(_PADDING_BLOCKS))]
        letters = letters[:position] + block + letters[position:]
    return BraidWord(letters)
