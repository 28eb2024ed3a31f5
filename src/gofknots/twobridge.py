"""Two-bridge link normal forms, lens spaces, and braid-index criteria.

A two-bridge link is written b(alpha, beta) with coprime parameters; the
unoriented link type depends only on alpha and the class of beta up to
inversion mod alpha, so forms are stored with the canonical representative
min(beta, beta^-1) mod alpha.  The double branched cover of b(alpha, beta)
is the lens space L(alpha, beta), which gets the same canonicalization.
Conway tuples are evaluated as exact continued fractions in integers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from ._record import Record

__all__ = [
    "ConwayTuple",
    "DegenerateNotationError",
    "LensSpace",
    "NotTwoBridgeLinkError",
    "TwoBridgeForm",
    "fraction_from_conway",
    "lens_equiv",
    "lens_space",
    "lens_space_of",
    "mirror_two_bridge",
    "murasugi_braid_index",
    "normalize_two_bridge",
    "stoimenow_form",
]

ConwayTuple = tuple[int, ...]


class DegenerateNotationError(ValueError):
    """A Conway tuple hits a division by zero during evaluation."""


class NotTwoBridgeLinkError(ValueError):
    """The parameters name the unlink class, which has no normal form here."""


def fraction_from_conway(entries: ConwayTuple) -> tuple[int, int]:
    """Evaluate a Conway tuple as the continued fraction
    a1 + 1/(a2 + 1/(... + 1/am)), right to left and exactly.

    Returns a coprime (numerator, denominator) pair, signs arranged so the
    numerator is nonnegative.  Each step (num, den) -> (a num + den, num)
    keeps the pair coprime, as consecutive continuants are.
    """
    if not entries:
        raise ValueError("Conway tuple must be nonempty")
    num, den = entries[-1], 1
    for entry in reversed(entries[:-1]):
        if num == 0:
            raise DegenerateNotationError(f"division by zero while evaluating {entries!r}")
        num, den = entry * num + den, num
    return (-num, -den) if (num, den) < (0, 0) else (num, den)


def _canonical_residue(alpha: int, beta: int) -> int:
    """min(beta, beta^-1) mod alpha for alpha >= 1; alpha = 1 gives 0."""
    if alpha == 1:
        return 0
    residue = beta % alpha
    return min(residue, pow(residue, -1, alpha))


class TwoBridgeForm(Record):
    """Canonical parameters of an unoriented two-bridge link.

    alpha >= 1; alpha = 1 is the unknot.  beta_canonical is the least of
    beta and its inverse mod alpha.
    """

    alpha: int
    beta_canonical: int

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if not 0 <= self.beta_canonical < self.alpha:
            raise ValueError("beta_canonical out of range")
        if self.alpha == 1:
            if self.beta_canonical != 0:
                raise ValueError("alpha = 1 forces beta_canonical = 0")
            return
        if math.gcd(self.alpha, self.beta_canonical) != 1:
            raise ValueError("parameters must be coprime")
        if self.beta_canonical != _canonical_residue(self.alpha, self.beta_canonical):
            raise ValueError("beta_canonical is not canonical")

    def __str__(self) -> str:
        return f"b({self.alpha},{self.beta_canonical})"


def normalize_two_bridge(alpha: int, beta: int) -> TwoBridgeForm:
    """Canonical form of b(alpha, beta).

    Negative alpha is flipped through (alpha, beta) -> (-alpha, -beta);
    alpha = 0 names the unlink class and is rejected.
    """
    if alpha == 0:
        raise NotTwoBridgeLinkError("alpha = 0 names the unlink class")
    if alpha < 0:
        alpha, beta = -alpha, -beta
    if math.gcd(alpha, beta) != 1:
        raise ValueError(f"parameters ({alpha}, {beta}) are not coprime")
    return TwoBridgeForm(alpha, _canonical_residue(alpha, beta))


def mirror_two_bridge(a: TwoBridgeForm) -> TwoBridgeForm:
    """The mirror image b(alpha, -beta)."""
    return normalize_two_bridge(a.alpha, -a.beta_canonical)


class LensSpace(Record):
    """Canonical parameters of a lens space L(p, q).

    p >= 0; p = 0 encodes S^1 x S^2 and p = 1 encodes S^3.  q_canonical is
    the least of q and its inverse mod p (1 when p = 0, 0 when p = 1).
    """

    p: int
    q_canonical: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.p == 0:
            if self.q_canonical != 1:
                raise ValueError("p = 0 forces q_canonical = 1")
            return
        if self.p == 1:
            if self.q_canonical != 0:
                raise ValueError("p = 1 forces q_canonical = 0")
            return
        if not 0 < self.q_canonical < self.p:
            raise ValueError("q_canonical out of range")
        if math.gcd(self.p, self.q_canonical) != 1:
            raise ValueError("parameters must be coprime")
        if self.q_canonical != _canonical_residue(self.p, self.q_canonical):
            raise ValueError("q_canonical is not canonical")

    def __str__(self) -> str:
        return f"L({self.p},{self.q_canonical})"


def lens_space(p: int, q: int) -> LensSpace:
    """Canonical form of L(p, q); negative p flips both signs."""
    if p < 0:
        p, q = -p, -q
    if p == 0:
        if abs(q) != 1:
            raise ValueError("L(0, q) requires q = +-1")
        return LensSpace(0, 1)
    if math.gcd(p, q) != 1:
        raise ValueError(f"parameters ({p}, {q}) are not coprime")
    return LensSpace(p, _canonical_residue(p, q))


def lens_space_of(a: TwoBridgeForm) -> LensSpace:
    """The double branched cover of the link b(alpha, beta)."""
    return lens_space(a.alpha, a.beta_canonical)


def lens_equiv(a: LensSpace, b: LensSpace, oriented: bool = True) -> bool:
    """Homeomorphism of lens spaces: q' = q^{+-1} mod p, with the mirror
    classes -q^{+-1} also admitted when ``oriented`` is false."""
    if a.p != b.p:
        return False
    if a.q_canonical == b.q_canonical:
        return True
    if oriented or a.p <= 1:
        return False
    return b.q_canonical == _canonical_residue(a.p, -a.q_canonical)


def _standard_pairs(a: TwoBridgeForm, shift: int) -> Iterator[tuple[int, int]]:
    """The (p, q), p, q >= 1, with alpha - shift = p(2q+1) + q, where 2q+1
    is an odd representative in (0, alpha) of +-beta^{+-1} mod alpha.

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


def murasugi_braid_index(a: TwoBridgeForm) -> int | None:
    """Braid index certificate for a two-bridge link: 2, 3, or None.

    The link has braid index 2 when 1 is an odd representative of the
    class, that is beta = +-1 mod alpha.  It has braid index 3 when an odd
    representative c = 2q+1 satisfies alpha = p(2q+1) + q or
    alpha - 1 = p(2q+1) + q for integers p, q >= 1; the first clause
    certifies every closure of standard_form(p, q) with p, q >= 1,
    boundary families such as b(7,2) included.
    """
    if a.alpha == 1:
        return None  # the unknot has braid index 1
    if a.beta_canonical in (1, a.alpha - 1):
        return 2
    if any(_standard_pairs(a, 0)) or any(_standard_pairs(a, 1)):
        return 3
    return None


def stoimenow_form(a: TwoBridgeForm) -> ConwayTuple | None:
    """The least Conway tuple (p, 2, q), p, q >= 1, whose fraction
    normalizes to ``a`` or to its mirror, or None.

    (p, 2, q) evaluates to (p(2q+1) + q)/(2q+1) in lowest terms, and
    alpha = p(2q+1) + q > 2q+1, so 2q+1 is an odd representative in
    (0, alpha) of +-beta^{+-1} mod alpha: the candidates are closed-form,
    at most four.  Links whose only three-entry notations need negative
    entries, such as the figure-eight class b(5,2), have none.
    """
    pair = min(_standard_pairs(a, 0), default=None)
    return None if pair is None else (pair[0], 2, pair[1])
