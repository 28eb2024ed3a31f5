"""Two-bridge link normal forms, lens spaces, and braid-index criteria.

The two-bridge link b(p, q) and its double branched cover, the lens space
L(p, q), are named by one coprime pair and stored in one canonical form:
a negative p flips the signs of both entries, and q becomes the least of
q and q^-1 mod p, (0, 1) for p = 0 and (1, 0) for p = 1.  The unoriented
link and the oriented lens space depend only on that form.  Conway tuples
are evaluated as exact continued fractions in integers.
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


def _canonical(p: int, q: int) -> tuple[int, int]:
    """The canonical form of the coprime pair (p, q): both signs flipped
    when p < 0, then (0, 1) for p = 0, (1, 0) for p = 1, and otherwise p
    with the least of q and q^-1 mod p."""
    if p < 0:
        p, q = -p, -q
    if math.gcd(p, q) != 1:
        raise ValueError(f"parameters ({p}, {q}) are not coprime")
    if p <= 1:
        return p, 1 - p
    residue = q % p
    return p, min(residue, pow(residue, -1, p))


class TwoBridgeForm(Record):
    """Canonical parameters of an unoriented two-bridge link.

    alpha >= 1; alpha = 1 is the unknot.  beta_canonical is the least of
    beta and its inverse mod alpha.
    """

    alpha: int
    beta_canonical: int

    def __post_init__(self) -> None:
        pair = (self.alpha, self.beta_canonical)
        if pair[0] < 1 or _canonical(*pair) != pair:
            raise ValueError(f"{self} is not canonical")

    def __str__(self) -> str:
        return f"b({self.alpha},{self.beta_canonical})"


def normalize_two_bridge(alpha: int, beta: int) -> TwoBridgeForm:
    """Canonical form of b(alpha, beta).

    Negative alpha is flipped through (alpha, beta) -> (-alpha, -beta);
    alpha = 0 names the unlink class and is rejected.
    """
    if alpha == 0:
        raise NotTwoBridgeLinkError("alpha = 0 names the unlink class")
    return TwoBridgeForm(*_canonical(alpha, beta))


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
        pair = (self.p, self.q_canonical)
        if _canonical(*pair) != pair:  # a negative p is never canonical
            raise ValueError(f"{self} is not canonical")

    def __str__(self) -> str:
        return f"L({self.p},{self.q_canonical})"


def lens_space(p: int, q: int) -> LensSpace:
    """Canonical form of L(p, q); negative p flips both signs."""
    return LensSpace(*_canonical(p, q))


def lens_space_of(a: TwoBridgeForm) -> LensSpace:
    """The double branched cover of the link b(alpha, beta)."""
    return LensSpace(a.alpha, a.beta_canonical)


def lens_equiv(a: LensSpace, b: LensSpace, oriented: bool = True) -> bool:
    """Homeomorphism of lens spaces: q' = q^{+-1} mod p, with the mirror
    classes -q^{+-1} also admitted when ``oriented`` is false."""
    return a == b or (not oriented and b == lens_space(a.p, -a.q_canonical))


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
