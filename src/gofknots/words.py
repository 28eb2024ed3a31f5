"""Exact word algebra in the braid group on three strands.

Words are stored as flat letter sequences and are never reduced behind the
caller's back, so building, formatting, and parsing round-trip letter for
letter.  A letter is a signed integer: ``+1``/``-1`` for the first Artin
generator and its inverse, ``+2``/``-2`` for the second.

A word stores its letters once, as bytes, one signed byte per letter
(``BraidWord.letter_bytes``), made while the letters are checked; the
tuple of ints in ``BraidWord.letters`` is unpacked from them on each read.
Validation, ``exponent_sum``, the word builders (``inverse``, ``mirror``,
``concat``, ``format_braid``), the quotient's ``project`` and the matrix
layer's ``represent`` read those bytes at C speed instead of walking a
tuple of ints.  ``parse_braid`` reads its text as bytes too.

Token grammar (whitespace separated, forms may be mixed):

    a  A  b  B      single letters; capitals are the inverses
    s1^e  s2^e      powers with a nonzero integer exponent, e.g. ``s2^-3``
"""

from __future__ import annotations

import re
import struct
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
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

_LETTERS = (1, -1, 2, -2)
_LETTER_BYTES = bytes(letter & 0xFF for letter in _LETTERS)  # -1 is 255, -2 is 254
# The most letters beta or a parsed word may have; beta and power tokens
# past it are refused before any allocation instead of exhausting memory.
_MAX_LETTERS = 10**7


class BraidParseError(ValueError):
    """A braid token string violates the grammar."""


class _Letters:
    """The ``letters`` field of a word, unpacked from its letter bytes by
    one ``struct.unpack`` on each read.  Read on the class, it is the
    field's default, the empty word."""

    def __get__(self, word: BraidWord | None, owner: type | None = None) -> tuple[int, ...]:
        if word is None:
            return ()
        data = word.letter_bytes
        return struct.unpack(f"{len(data)}b", data)


class BraidWord(Record):
    """An unreduced word in the generators of the three-strand braid group.

    The empty word is the identity.  Instances are immutable; every
    operation in this module is a pure function returning a new word.

    Each letter is read as the letter it equals, so ``1.0`` and ``True``
    are read as ``1``; a letter equal to none of +-1, +-2 (``3``, ``0``,
    ``10**30``, ``"a"``) raises ``ValueError`` naming it.  The word keeps
    one copy of its letters, as signed bytes in ``letter_bytes``, a slot;
    ``letters`` is unpacked from them on each read.  Equality compares the
    bytes, and hashing, repr, pickling and copying see the ``letters``
    tuple, as for any other record with that one field.
    """

    __slots__ = ("letter_bytes",)

    letters: tuple[int, ...] = _Letters()

    def __post_init__(self) -> None:
        letters = self.__dict__.pop("letters")
        if letters.__class__ is not tuple and not isinstance(letters, array):
            letters = tuple(letters)
        try:
            codes = array("b", letters)
        except (TypeError, OverflowError):  # a letter that is no small int
            codes = array("b", map(_equal_letter, letters))
        data = codes.tobytes()
        if data.translate(None, _LETTER_BYTES):  # what is left is no letter
            raise ValueError(f"invalid braid letter {next(c for c in codes if c not in _LETTERS)!r}")
        object.__setattr__(self, "letter_bytes", data)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.letter_bytes == other.letter_bytes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(letters={self.letters!r})"

    def __reduce__(self):
        return self.__class__, (self.letters,)

    def __len__(self) -> int:
        return len(self.letter_bytes)

    def __str__(self) -> str:
        return format_braid(self)


def _equal_letter(letter: object) -> int:
    """The letter that ``letter`` equals, as an int."""
    for valid in _LETTERS:
        if letter == valid:
            return valid
    raise ValueError(f"invalid braid letter {letter!r}")


_SINGLE_TOKENS = {"a": 1, "A": -1, "b": 2, "B": -2}
# Single-letter tokens to letter bytes through bytes.translate; every other
# byte, the UTF-8 bytes of non-ASCII characters too, becomes 0, no letter.
_TOKEN_CODES = {ord(token): letter & 0xFF for token, letter in _SINGLE_TOKENS.items()}
_TOKEN_BYTES = bytes(map(_TOKEN_CODES.get, range(256), bytes(256)))
# ASCII digits only: \d would also take digits of other scripts.
_POWER_TOKEN = re.compile(r"s([0-9]+)(?:\^(-?[0-9]+))?")
# Text made of these bytes alone, with single spaces between tokens and
# none at the ends, is what joining text.split() with spaces would give.
_NORMAL_BYTES = b"aAbBs0123456789^- "
# Letter bytes of canonical power tokens with |e| <= _MEMO_EXPONENT, keyed
# by the text after the "s"; filled by _power_letters.
_MEMO_EXPONENT = 64
_POWERS: dict[bytes, bytes] = {}
# Letter bytes to their negations, and to their single-letter tokens.
_NEGATE = bytes.maketrans(b"\x01\xff\x02\xfe", b"\xff\x01\xfe\x02")
_TOKEN_TEXT = bytes.maketrans(b"\x01\xff\x02\xfe", b"aAbB")


def parse_braid(text: str) -> BraidWord:
    """Parse a token string into a braid word, letter for letter.

    The text is read as bytes.  Text already in normal form (ASCII, made
    of grammar characters, single spaces between tokens and none at the
    ends) is read as it is; any other is first joined from
    ``text.split()`` with single spaces.  With one space before each
    token, a power token starts at every ``b" s"``, and between two power
    tokens lies a stretch of single-letter tokens, which is converted by
    one ``translate`` call: its even bytes are the spaces and its odd
    ones the letters.  A canonical power token with a small exponent
    comes from a memo that ``_power_letters`` fills on first use.  Tokens
    are still judged in order, so the first bad token is the one named.
    """
    data = text.encode("utf-8", "surrogatepass")
    if data.translate(None, _NORMAL_BYTES) or b"  " in data or data.strip(b" ") != data:
        data = " ".join(text.split()).encode("utf-8", "surrogatepass")
    pieces = (b" " + data).split(b" s")
    codes = bytearray(_single_letters(pieces[0]))
    for piece in pieces[1:]:
        power, space, stretch = piece.partition(b" ")
        letters = _POWERS.get(power)
        if letters is None or len(codes) + len(letters) > _MAX_LETTERS:
            letters = _power_letters(power, len(codes))
        codes += letters
        codes += _single_letters(space + stretch)
    # single letters are checked once here: each costs a token of input
    if len(codes) > _MAX_LETTERS:
        raise BraidParseError(f"the word has {len(codes)} letters, more than {_MAX_LETTERS}")
    return _word(codes)


def _single_letters(stretch: bytes) -> bytes:
    """The letter bytes of ``b" t t ... t"``, single-letter tokens each
    after one space; a stretch that is not one is decoded and read token
    by token to name its first bad token."""
    codes = stretch[1::2].translate(_TOKEN_BYTES)
    if stretch[0::2].strip() or 0 in codes:
        for token in _decode(stretch).split():
            if token not in _SINGLE_TOKENS:
                raise BraidParseError(f"malformed token {token!r}")
    return codes


def _power_letters(key: bytes, length: int) -> bytes:
    """The letter bytes of the power token ``b"s" + key``, read after
    ``length`` letters.  A canonical spelling with an exponent of at most
    ``_MEMO_EXPONENT`` is kept in ``_POWERS`` under ``key``: at most 258
    entries, none made at import."""
    token = "s" + _decode(key)
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
    if length + abs(exponent) > _MAX_LETTERS:
        raise BraidParseError(f"token {token!r} makes the word longer than {_MAX_LETTERS} letters")
    letters = _power(int(index), exponent)
    if abs(exponent) <= _MEMO_EXPONENT and power == str(exponent):
        _POWERS[key] = letters
    return letters


def _decode(data: bytes) -> str:
    """The text that ``parse_braid`` encoded as ``data``."""
    return data.decode("utf-8", "surrogatepass")


def format_braid(w: BraidWord) -> str:
    """Render a word in single-letter tokens; the empty word renders as ''.
    The tokens fill the even bytes and spaces the odd ones."""
    data = w.letter_bytes
    text = bytearray(b" ") * (2 * len(data))
    text[0::2] = data.translate(_TOKEN_TEXT)
    return text[:-1].decode()


def _power(gen: int, exponent: int) -> bytes:
    """The letter bytes of ``s<gen>^exponent``."""
    letter = gen if exponent > 0 else -gen
    return bytes((letter & 0xFF,)) * abs(exponent)


def _word(data: bytes | bytearray) -> BraidWord:
    """The word whose letter bytes are ``data``: read as signed bytes, they
    are copied into the word without a pass over ints."""
    return BraidWord(array("b", data))


def run_ends(letters: Sequence[int]) -> Iterator[int]:
    """The end index of every maximal run of one letter, in order, as a
    lazy iterator: ``run_ends((1, 1, -1))`` yields 2 and 3, and so do the
    letter bytes ``run_ends(b"\\x01\\x01\\xff")``.  A run ends where a
    letter differs from the next, and that comparison runs at C speed, so
    the matrix layer takes one Python step per run, not per letter."""
    following = chain(islice(letters, 1, None), (0,))  # 0 is no letter: the last run ends
    return compress(range(1, len(letters) + 1), map(ne, letters, following))


def concat(u: BraidWord, v: BraidWord) -> BraidWord:
    return _word(u.letter_bytes + v.letter_bytes)


def inverse(w: BraidWord) -> BraidWord:
    """Reverse the word and invert each letter."""
    return _word(w.letter_bytes[::-1].translate(_NEGATE))


def mirror(w: BraidWord) -> BraidWord:
    """Invert each letter in place; the closure becomes its mirror image."""
    return _word(w.letter_bytes.translate(_NEGATE))


def conjugate_by(w: BraidWord, g: BraidWord) -> BraidWord:
    """The word g w g^-1, unreduced."""
    return concat(concat(g, w), inverse(g))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs, a conjugacy invariant.

    Letters are exactly +-1 and +-2, so counting the bytes of the two
    negative letters (255 and 254) gives the sum without a pass in Python.
    """
    data = w.letter_bytes
    return len(data) - 2 * (data.count(255) + data.count(254))


def beta(k: int, n: int) -> BraidWord:
    """The braid (s2 s1 s2)^k s1^n, expanded letter by letter.

    Negative powers expand through inverse letters, so the length is
    always 3|k| + |n| and the exponent sum 3k + n.  For odd k the trace
    of its matrix is -eps n, eps = (-1)^((k-1)/2) (``classify._cell_invariants``).
    """
    check_beta(k, n)
    triple = b"\x02\x01\x02" if k >= 0 else b"\xfe\xff\xfe"
    return _word(triple * abs(k) + _power(1, n))


def check_beta(k: int, n: int) -> None:
    """Refuse beta(k, n) past the letter budget, before anything is built."""
    length = 3 * abs(k) + abs(n)
    if length > _MAX_LETTERS:
        raise ValueError(f"beta({k}, {n}) has {length} letters, more than {_MAX_LETTERS}")


def check_beta_row(k: int, ns: Sequence[int]) -> None:
    """Refuse the row beta(k, n), n in the ascending nonempty ``ns`` (a
    sorted list or a range of positive step), at its first cell past the
    letter budget.  3|k| + |n| passes exactly when |n| <= bound = budget -
    3|k|; past a passing ns[0] >= -bound, the refused n are those above
    bound, a suffix from index (bound - ns[0]) // step + 1 of a range (not
    measured: len() overflows past sys.maxsize) or bisect_right(ns, bound).
    """
    check_beta(k, ns[0])
    bound = _MAX_LETTERS - 3 * abs(k)
    if ns[-1] > bound:
        first = (bound - ns[0]) // ns.step + 1 if isinstance(ns, range) else bisect_right(ns, bound)
        check_beta(k, ns[first])


def standard_form(p: int, q: int) -> BraidWord:
    """The word s2^-1 s1^p s2^2 s1^q, the reference shape for two-bridge
    closures of three-strand braids, |p| + |q| + 3 letters long.  Refused
    past the letter budget plus eight, the most a candidate classify builds
    can pass its word by, so that every word under the budget is decided."""
    length, limit = abs(p) + abs(q) + 3, _MAX_LETTERS + 8
    if length > limit:
        raise ValueError(f"standard_form({p}, {q}) has {length} letters, more than {limit}")
    return _word(b"\xfe" + _power(1, p) + b"\x02\x02" + _power(1, q))
