"""Reference answers for the benchmark, computed without importing gofknots.

Every verdict the benchmark times is checked against this module, which
shares no code with the package under test:

- beta(k, n) cells (k odd) follow the paper's theorem: the closure is a
  two-bridge link exactly on the rows k = +-1, except the unlink cells
  (1, -2) and (-1, 2), and on the cells +-(-3, 3) and +-(-3, 5).
- A closure of standard_form(p, q) is b(2pq+p+q, 2q+1), mirrored to
  b(alpha, -beta) when the word was mirrored, and no normal form when
  alpha = 0.
- Non-conjugacy is certified by the trace of the 2x2 integer image of the
  braid (s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]]), a conjugacy invariant,
  or by closures of different two-bridge forms.
- The checks of the paper that ``verify-paper`` reports take their values
  from the theorem, each certified as above.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Form = tuple[int, int]  # (alpha, beta_canonical) of b(alpha, beta), also L(alpha, beta)


def two_bridge(alpha: int, beta: int) -> Optional[Form]:
    """Unoriented canonical form of b(alpha, beta): alpha >= 1 and the least
    of beta and beta^-1 mod alpha.  alpha = 0 is the unlink class: None."""
    if alpha == 0:
        return None
    if alpha < 0:
        alpha, beta = -alpha, -beta
    if alpha == 1:
        return (1, 0)
    residue = beta % alpha
    return (alpha, min(residue, pow(residue, -1, alpha)))


def standard_form_closure(p: int, q: int, mirrored: bool) -> Optional[Form]:
    """The closure of standard_form(p, q), or of its mirror."""
    beta = 2 * q + 1
    return two_bridge(2 * p * q + p + q, -beta if mirrored else beta)


def _beta_cell_standard_form(k: int, n: int) -> Optional[tuple[int, int]]:
    """(p, q) with beta(k, n) conjugate to standard_form(p, q), per the theorem;
    None for the cells whose closure is not a two-bridge link."""
    if k in (1, -1):
        return (n + 2 * k, 0)  # b(n+2k, 1): the Hopf-band plumbing in L(n+2k, 1)
    if (k, n) == (-3, 3):
        return (-5, 0)  # conjugate to beta(-1, -3)
    if (k, n) == (3, -3):
        return (5, 0)  # conjugate to beta(1, 3)
    if (k, n) == (-3, 5):
        return (-2, -3)  # b(7, 2)
    if (k, n) == (3, -5):
        return (2, 1)  # b(7, 3), the mirror of b(7, 2)
    return None


def beta_label(k: int, n: int) -> str:
    """The structural label the theorem attaches to the cell (k odd)."""
    if k in (1, -1):
        return f"HopfPlumbing(r={n + 2 * k},band={k:+d})"
    if (k, n) in ((-3, 3), (3, -3)):
        sign = 1 if k > 0 else -1
        return f"HopfPlumbing(r={5 * sign},band={sign:+d})"
    if (k, n) in ((-3, 5), (3, -5)):
        return f"ExceptionL72({1 if k < 0 else -1:+d})"
    return "NotLensSpace"


def beta_cell(k: int, n: int) -> tuple[Optional[Form], str]:
    """(two-bridge form or None, label) of the closure of beta(k, n)."""
    pq = _beta_cell_standard_form(k, n)
    form = None if pq is None else standard_form_closure(pq[0], pq[1], False)
    return form, beta_label(k, n)


def lens_class(p: int, q: int) -> Optional[Form]:
    """L(p, q) up to homeomorphism, orientation ignored: p >= 1 and the least
    of +-q, +-q^-1 mod p.  p = 0 (S^1 x S^2) is None."""
    if p == 0:
        return None
    p = abs(p)
    if p == 1:
        return (1, 0)
    residue = q % p
    inverse = pow(residue, -1, p)
    return (p, min(residue, p - residue, inverse, p - inverse))


# The case analysis of the paper: beta(k, n) against the standard form on
# {p, q}, either order.  Only the rows in CONJUGATE_ROWS are conjugate.
CASE_ROWS = (
    ("A", 5, -13, (-2, 3)),
    ("A", 5, -15, (2, -3)),
    ("A", 5, -19, (1, -6)),
    ("A", 5, -9, (-1, 6)),
    ("B", -3, 15, (2, 3)),
    ("B", -3, 17, (1, 6)),
    ("B", -3, 5, (-2, -3)),
    ("B", -3, 3, (-1, -6)),
)
CONJUGATE_ROWS = {(-3, 5), (-3, 3)}
KNOWN_PAIRS = (((-3, 3), (-1, -3)), ((3, -3), (1, 3)))  # conjugate, distinct (k, n)


def _certified(conjugate: bool, form, others) -> bool:
    """``conjugate`` for a braid closing to ``form`` against braids closing to
    ``others``: a conjugate pair has equal closures, and a non-conjugate
    one is certified by different closures."""
    if conjugate != (form in others):
        raise ValueError(f"cannot certify conjugate={conjugate} for {form} against {others}")
    return conjugate


def verify_paper_checks() -> tuple[list[tuple[str, bool]], list[tuple[str, bool]]]:
    """(name, value) of each check ``verify-paper`` runs: the case rows, then
    the additional checks (known pairs, then isolation of the exceptions)."""
    rows = []
    for case, k, n, (p, q) in CASE_ROWS:
        others = (standard_form_closure(p, q, False), standard_form_closure(q, p, False))
        value = _certified((k, n) in CONJUGATE_ROWS, beta_cell(k, n)[0], others)
        rows.append((f"case {case}: beta({k},{n}) vs standard form on {{{p},{q}}}", value))
    extra = []
    for (k1, n1), (k2, n2) in KNOWN_PAIRS:
        value = _certified(True, beta_cell(k1, n1)[0], (beta_cell(k2, n2)[0],))
        extra.append((f"beta({k1},{n1}) ~ beta({k2},{n2})", value))
    for k, n in ((-3, 5), (3, -5)):
        for eps in (1, -1):
            other_n = 3 * k + n - 3 * eps  # the n of equal exponent sum
            value = _certified(False, beta_cell(k, n)[0], (beta_cell(eps, other_n)[0],))
            extra.append((f"beta({k},{n}) ~ beta({eps},{other_n})", value))
    for q in (2, -2):
        lens = two_bridge(7, q)
        value = all(lens_class(n + 2 * eps, 1) != lens_class(*lens) for n in range(-40, 41) for eps in (1, -1))
        extra.append((f"L({lens[0]},{lens[1]}) differs from every L(n+-2,1), n in [-40,40]", value))
    return rows, extra


def trace(letters) -> int:
    """Trace of the integer matrix image of a letter sequence (+-1, +-2)."""
    a, b, c, d = 1, 0, 0, 1
    for letter in letters:
        # right multiplication by the generator image, two additions each
        if letter == 1:
            b += a
            d += c
        elif letter == -1:
            b -= a
            d -= c
        elif letter == 2:
            a -= b
            c -= d
        else:
            a += b
            c += d
    return a + d


def conway_fraction(entries) -> Optional[tuple[int, int]]:
    """a1 + 1/(a2 + 1/(... + 1/am)) as (numerator >= 0, denominator), or
    None when the evaluation divides by zero."""
    value = Fraction(entries[-1])
    for entry in reversed(entries[:-1]):
        if value == 0:
            return None
        value = entry + 1 / value
    numerator, denominator = value.numerator, value.denominator
    if numerator < 0:
        numerator, denominator = -numerator, -denominator
    return numerator, denominator
