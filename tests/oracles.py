"""Independent oracles the tests compare the library against, and the
generators of their test words.

None is used by the library: ``psl_matrix`` multiplies a second image
table over the quotient syllables, ``find_conjugator_brute`` searches
conjugators exhaustively instead of deciding conjugacy in the quotient,
``matrix_equal_in_b3`` compares matrices and exponent sums instead of
deciding equality in the quotient,
``two_sign_candidate_pq`` solves the candidate quadratic for both signs of
the homology order instead of the signed trace, ``table_label`` writes
the theorem's labels out by cell instead of reading them off the witness,
``fraction_from_conway_by_fractions`` evaluates Conway tuples with
``fractions.Fraction`` instead of integer continuants, and the ``old_``
two-bridge functions spell out the canonical-pair rule once per function
on plain (p, q) tuples instead of sharing one private rule.
``old_project`` reduces the quotient image two syllables per letter and
``old_represent`` multiplies the matrix over ``groupby`` runs of one
generator, where the library walks blocks of four letters and maximal
runs.  ``old_parse_braid`` reads a token string one token per step, where
the library converts each stretch of single letters in one call.
``old_format_braid``, ``old_inverse`` and ``old_mirror`` build a word
letter by letter, where the library translates its letter bytes, and
``old_cyclic_core`` strips one pair of ends per step, where the library
finds the pairs that cancel by doubling and bisection, and
``old_is_rotation`` searches a core in the other written twice, where the
library searches their Y-type syllables alone.  ``old_check_grid`` checks
every cell of a grid, where the library checks each row from its ends.
``old_pairs`` solves the candidate quadratic in p and q with a parity
test, where the library solves it in the odd factors 2p+1 and 2q+1, and
``old_standard_pairs`` tries four residues and a modular inverse, where the
library tries two residues by divisibility.  ``scramble``
grows a word into a longer one equal to it in the braid group, and
``free_reduce`` cancels adjacent inverse pairs.
"""

import math
import random
import re
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Optional

from gofknots import words
from gofknots.burau import SL2Matrix, homology_order, represent
from gofknots.classify import ExceptionL72, HopfPlumbing, Label, NotLensSpace
from gofknots.modular import X, Y, Y2, FreeProductWord
from gofknots.twobridge import (
    ConwayTuple,
    DegenerateNotationError,
    NotTwoBridgeLinkError,
    TwoBridgeForm,
)
from gofknots.words import BraidParseError, BraidWord, exponent_sum

_PSL_IMAGES = {
    X: SL2Matrix(0, -1, 1, 0),
    Y: SL2Matrix(0, -1, 1, 1),
    Y2: SL2Matrix(-1, -1, 1, 0),
}


def psl_matrix(fw: FreeProductWord) -> SL2Matrix:
    """Matrix image of a syllable word; agrees with the braid matrix of any
    preimage up to one global sign."""
    matrix = SL2Matrix(1, 0, 0, 1)
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
        found = search((), SL2Matrix(1, 0, 0, 1), length)
        if found is not None:
            return BraidWord(found)
    return None


def matrix_equal_in_b3(u: BraidWord, v: BraidWord) -> bool:
    """The earlier matrix decision of braid equality, kept verbatim as a
    reference.

    The matrix alone misses only central powers, and those shift the
    exponent sum by a nonzero multiple of twelve, so the pair decides
    equality.
    """
    return exponent_sum(u) == exponent_sum(v) and represent(u) == represent(v)


def two_sign_candidate_pq(w: BraidWord) -> list[tuple[int, int]]:
    """The earlier candidate list, kept verbatim as a reference.

    Conjugacy forces p + q + 1 to equal the exponent sum and |2pq + p + q|
    to equal the homology order, so p and q are roots of
    z^2 - sigma z + pi with sigma = e - 1 and pi = (s d - sigma)/2 for a
    sign s.  Both root orders are returned, larger root first, duplicates
    removed; the list is a superset of every match.
    """
    e = exponent_sum(w)
    d = homology_order(w)
    sigma = e - 1
    pairs: list[tuple[int, int]] = []
    for s in (1, -1):
        doubled = s * d - sigma
        if doubled % 2:
            continue
        pi = doubled // 2
        disc = sigma * sigma - 4 * pi
        if disc < 0:
            continue
        root = math.isqrt(disc)
        if root * root != disc:
            continue
        low, high = (sigma - root) // 2, (sigma + root) // 2
        for pair in ((high, low), (low, high)):
            if pair not in pairs:
                pairs.append(pair)
    return pairs


def table_label(k: int, n: int) -> Label:
    """The theorem's labels written out by cell, kept verbatim as a
    reference for the labels read off the witness."""
    if k in (1, -1):
        return HopfPlumbing(r=n + 2 * k, band_sign=k)
    if (k, n) in ((-3, 3), (3, -3)):
        # conjugate to beta(-+1, -+3), so the same plumbing as those rows
        sign = 1 if k > 0 else -1
        return HopfPlumbing(r=5 * sign, band_sign=sign)
    if (k, n) in ((-3, 5), (3, -5)):
        return ExceptionL72(sign=1 if k < 0 else -1)
    return NotLensSpace()


def fraction_from_conway_by_fractions(entries: ConwayTuple) -> tuple[int, int]:
    """The earlier ``Fraction`` evaluator of ``fraction_from_conway``, kept
    verbatim as a reference for the integer continuants."""
    if not entries:
        raise ValueError("Conway tuple must be nonempty")
    value = Fraction(entries[-1])
    for entry in reversed(entries[:-1]):
        if value == 0:
            raise DegenerateNotationError(f"division by zero while evaluating {entries!r}")
        value = entry + 1 / value
    numerator, denominator = value.numerator, value.denominator
    if numerator < 0:
        numerator, denominator = -numerator, -denominator
    return numerator, denominator


# The two-bridge and lens-space normalizers and validators as they were
# before they shared one canonical-pair rule, kept verbatim as a reference
# but for records: a form or space is a plain (p, q) tuple, and each
# validator is a function of the pair that raises where __post_init__ did.


def _canonical_residue(alpha: int, beta: int) -> int:
    """min(beta, beta^-1) mod alpha for alpha >= 1; alpha = 1 gives 0."""
    if alpha == 1:
        return 0
    residue = beta % alpha
    return min(residue, pow(residue, -1, alpha))


def old_check_two_bridge_form(alpha: int, beta_canonical: int) -> None:
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if not 0 <= beta_canonical < alpha:
        raise ValueError("beta_canonical out of range")
    if alpha == 1:
        if beta_canonical != 0:
            raise ValueError("alpha = 1 forces beta_canonical = 0")
        return
    if math.gcd(alpha, beta_canonical) != 1:
        raise ValueError("parameters must be coprime")
    if beta_canonical != _canonical_residue(alpha, beta_canonical):
        raise ValueError("beta_canonical is not canonical")


def old_check_lens_space(p: int, q_canonical: int) -> None:
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p == 0:
        if q_canonical != 1:
            raise ValueError("p = 0 forces q_canonical = 1")
        return
    if p == 1:
        if q_canonical != 0:
            raise ValueError("p = 1 forces q_canonical = 0")
        return
    if not 0 < q_canonical < p:
        raise ValueError("q_canonical out of range")
    if math.gcd(p, q_canonical) != 1:
        raise ValueError("parameters must be coprime")
    if q_canonical != _canonical_residue(p, q_canonical):
        raise ValueError("q_canonical is not canonical")


def old_normalize_two_bridge(alpha: int, beta: int) -> tuple[int, int]:
    if alpha == 0:
        raise NotTwoBridgeLinkError("alpha = 0 names the unlink class")
    if alpha < 0:
        alpha, beta = -alpha, -beta
    if math.gcd(alpha, beta) != 1:
        raise ValueError(f"parameters ({alpha}, {beta}) are not coprime")
    form = (alpha, _canonical_residue(alpha, beta))
    old_check_two_bridge_form(*form)
    return form


def old_mirror_two_bridge(a: tuple[int, int]) -> tuple[int, int]:
    return old_normalize_two_bridge(a[0], -a[1])


def old_lens_space(p: int, q: int) -> tuple[int, int]:
    if p < 0:
        p, q = -p, -q
    if p == 0:
        if abs(q) != 1:
            raise ValueError("L(0, q) requires q = +-1")
        old_check_lens_space(0, 1)
        return (0, 1)
    if math.gcd(p, q) != 1:
        raise ValueError(f"parameters ({p}, {q}) are not coprime")
    space = (p, _canonical_residue(p, q))
    old_check_lens_space(*space)
    return space


def old_lens_space_of(a: tuple[int, int]) -> tuple[int, int]:
    return old_lens_space(a[0], a[1])


def old_lens_equiv(a: tuple[int, int], b: tuple[int, int], oriented: bool = True) -> bool:
    if a[0] != b[0]:
        return False
    if a[1] == b[1]:
        return True
    if oriented or a[0] <= 1:
        return False
    return b[1] == _canonical_residue(a[0], -a[1])


_OLD_LETTER_IMAGES = {
    1: (X, Y),
    -1: (Y2, X),
    2: (Y, X),
    -2: (X, Y2),
}


def old_project(w: BraidWord) -> FreeProductWord:
    """The earlier letter-by-letter projection, kept verbatim as a reference."""
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for letter in w.letters:
        for syllable in _OLD_LETTER_IMAGES[letter]:
            if not stack:
                push(syllable)
                continue
            top = stack[-1]
            if top == X or syllable == X:
                if top == syllable:
                    pop()  # X against X cancels
                else:
                    push(syllable)
                continue
            merged = (top + syllable) % 3
            if merged:
                stack[-1] = merged
            else:
                pop()
    return FreeProductWord(tuple(stack))


def old_represent(w: BraidWord) -> SL2Matrix:
    """The earlier fold over groupby runs of one generator, kept verbatim
    as a reference."""
    a, b, c, d = 1, 0, 0, 1
    for gen, run in groupby(w.letters, abs):
        e = sum(run) // gen
        if gen == 1:
            b += e * a
            d += e * c
        else:
            a -= e * b
            c -= e * d
    return SL2Matrix(a, b, c, d)


_OLD_SINGLE_TOKENS = {"a": 1, "A": -1, "b": 2, "B": -2}
_OLD_POWER_TOKEN = re.compile(r"s([0-9]+)(?:\^(-?[0-9]+))?")


def _old_power(gen: int, exponent: int) -> tuple[int, ...]:
    letter = gen if exponent > 0 else -gen
    return (letter,) * abs(exponent)


def old_parse_braid(text: str) -> BraidWord:
    """The earlier token-by-token parser, kept verbatim as a reference; it
    reads the letter budget from ``words`` at each call, so a patched
    budget holds for both parsers."""
    _MAX_LETTERS = words._MAX_LETTERS
    letters: list[int] = []
    for token in text.split():
        if token in _OLD_SINGLE_TOKENS:
            letters.append(_OLD_SINGLE_TOKENS[token])
            continue
        match = _OLD_POWER_TOKEN.fullmatch(token)
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
        letters.extend(_old_power(int(index), exponent))
    # single letters are checked once here: each costs a token of input
    if len(letters) > _MAX_LETTERS:
        raise BraidParseError(f"the word has {len(letters)} letters, more than {_MAX_LETTERS}")
    return BraidWord(tuple(letters))


_OLD_TOKENS_BACK = {letter: token for token, letter in _OLD_SINGLE_TOKENS.items()}


def old_format_braid(w: BraidWord) -> str:
    """The earlier letter-by-letter formatter, kept verbatim as a reference."""
    return " ".join(_OLD_TOKENS_BACK[letter] for letter in w.letters)


def old_inverse(w: BraidWord) -> BraidWord:
    """The earlier letter-by-letter inverse, kept verbatim as a reference."""
    return BraidWord(tuple(-letter for letter in reversed(w.letters)))


def old_mirror(w: BraidWord) -> BraidWord:
    """The earlier letter-by-letter mirror, kept verbatim as a reference."""
    return BraidWord(tuple(-letter for letter in w.letters))


def old_cyclic_core(data: bytes) -> bytes:
    """The earlier cyclic reduction, one stripped pair per step, kept
    verbatim as a reference."""
    first, last = 0, len(data) - 1
    while first < last and (data[first] == X) == (data[last] == X):
        merged = (data[first] + data[last]) % 3
        first += 1
        last -= 1
        if merged:
            return data[first:last + 1] + bytes((merged,))
    return data[first:last + 1]


def old_is_rotation(a: bytes, b: bytes) -> bool:
    """The earlier rotation test of two cyclic cores, over every syllable,
    kept verbatim as a reference."""
    return len(a) == len(b) and b in a + a


def old_check_grid(k_values, n_values) -> None:
    """The earlier grid check of ``table_cells``, one ``check_beta`` per
    cell in k-then-n order, kept as a reference."""
    ks, ns = sorted(set(k_values)), sorted(set(n_values))
    if ns:
        for k in ks:
            if k % 2 == 0:
                raise ValueError(f"k must be odd, got {k}")
            for n in ns:
                words.check_beta(k, n)


def old_pairs(e: int, tr: int) -> list[tuple[int, int]]:
    """The earlier ``classify._pairs``, kept verbatim as a reference.

    Conjugacy keeps the exponent sum e and the trace of the matrix, and
    2 - tr represent(standard_form(p, q)) = 2pq + p + q, so p and q are the
    roots of z^2 - sigma z + pi with sigma = e - 1 and 2 pi = 2 - tr - sigma.
    Both orders are returned, larger root first, once if the roots are
    equal: at most two candidates, a superset of every match.
    """
    sigma = e - 1
    doubled = 2 - tr - sigma
    disc = sigma * sigma - 2 * doubled
    root = math.isqrt(max(disc, 0))
    if doubled % 2 or root * root != disc:
        return []
    high, low = (sigma + root) // 2, (sigma - root) // 2
    return [(high, low)] if root == 0 else [(high, low), (low, high)]


def old_standard_pairs(a: TwoBridgeForm, shift: int) -> Iterator[tuple[int, int]]:
    """The earlier ``twobridge._standard_pairs``, kept verbatim as a
    reference: the (p, q), p, q >= 1, with alpha - shift = p(2q+1) + q,
    where 2q+1 is an odd representative in (0, alpha) of +-beta^{+-1} mod
    alpha.

    There are at most four representatives, so at most four pairs.
    """
    alpha, beta = a.alpha, a.beta_canonical
    inverse = pow(beta, -1, alpha)
    for c in {beta, inverse, alpha - beta, alpha - inverse}:
        if c % 2:
            q = c // 2
            p, rest = divmod(alpha - shift - q, c)
            if rest == 0 and p >= 1 and q >= 1:
                yield p, q


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
