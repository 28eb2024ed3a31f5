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

import re
from collections.abc import Iterator
from itertools import chain, compress, islice
from operator import ne

from ._record import Record

__all__ = [
    "BraidParseError",
    "BraidWord",
    "beta",
    "concat",
    "conjugate_by",
    "exponent_sum",
    "format_braid",
    "inverse",
    "mirror",
    "parse_braid",
    "standard_form",
]

_VALID_LETTERS = frozenset((1, -1, 2, -2))
# The most letters beta or a parsed word may have; beta and power tokens
# past it are refused before any allocation instead of exhausting memory.
_MAX_LETTERS = 10**7


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
        power = power or "1"
        # int() has its own error past 4,300 digits, so a power with more
        # digits than the budget is taken, unread, as just past it
        too_long = len(power.lstrip("-0")) > len(str(_MAX_LETTERS))
        exponent = _MAX_LETTERS + 1 if too_long else int(power)
        if exponent == 0:
            raise BraidParseError(f"zero exponent in token {token!r}")
        if len(letters) + abs(exponent) > _MAX_LETTERS:
            raise BraidParseError(f"token {token!r} makes the word longer than {_MAX_LETTERS} letters")
        letters.extend(_power(int(index), exponent))
    # single letters are checked once here: each costs a token of input
    if len(letters) > _MAX_LETTERS:
        raise BraidParseError(f"the word has {len(letters)} letters, more than {_MAX_LETTERS}")
    return BraidWord(tuple(letters))


def format_braid(w: BraidWord) -> str:
    """Render a word in single-letter tokens; the empty word renders as ''."""
    return " ".join(_TOKENS_BACK[letter] for letter in w.letters)


def _power(gen: int, exponent: int) -> tuple[int, ...]:
    letter = gen if exponent > 0 else -gen
    return (letter,) * abs(exponent)


def run_ends(letters: tuple[int, ...]) -> Iterator[int]:
    """The end index of every maximal run of one letter, in order, as a
    lazy iterator: ``run_ends((1, 1, -1))`` yields 2 and 3.  A run ends
    where a letter differs from the next, and that comparison runs at C
    speed, so the matrix and the quotient layers take one Python step per
    run, not per letter."""
    following = chain(islice(letters, 1, None), (0,))  # 0 is no letter: the last run ends
    return compress(range(1, len(letters) + 1), map(ne, letters, following))


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
    check_beta(k, n)
    triple = (2, 1, 2) if k >= 0 else (-2, -1, -2)
    return BraidWord(triple * abs(k) + _power(1, n))


def check_beta(k: int, n: int) -> None:
    """Refuse beta(k, n) past the letter budget, before anything is built."""
    length = 3 * abs(k) + abs(n)
    if length > _MAX_LETTERS:
        raise ValueError(f"beta({k}, {n}) has {length} letters, more than {_MAX_LETTERS}")


def standard_form(p: int, q: int) -> BraidWord:
    """The word s2^-1 s1^p s2^2 s1^q, the reference shape for two-bridge
    closures of three-strand braids, |p| + |q| + 3 letters long.  Refused
    past the letter budget plus eight, the most a candidate classify builds
    can pass its word by, so that every word under the budget is decided."""
    length, limit = abs(p) + abs(q) + 3, _MAX_LETTERS + 8
    if length > limit:
        raise ValueError(f"standard_form({p}, {q}) has {length} letters, more than {limit}")
    return BraidWord((-2,) + _power(1, p) + (2, 2) + _power(1, q))
