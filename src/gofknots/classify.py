"""Which braids beta(k, n) close to two-bridge links, and what that says
about the genus-one fibered knot living over the braid axis.

The closure of a three-strand braid is a two-bridge link exactly when the
braid is conjugate to standard_form(p, q) for some integers p, q, and then
the closure is b(2pq+p+q, 2q+1); the pair (p, q) is the witness.  Its
mirror needs no test of its own: s1^2 mirror(standard_form(p, q)) s1^-2 =
standard_form(-p-1, -q-1), so a braid whose mirror matches a standard form
matches one itself.
The exponent sum and the signed trace of a word fix the sum and the
product of the odd factors 2p+1 and 2q+1, which leaves at most two (p, q)
candidates, each settled by the exact conjugacy test: a finite
closed-form computation per word.

For odd k, the lift of the braid axis of the closure of beta(k, n) is a
genus-one fibered knot with tunnel number one in the double branched
cover, and every such knot in a lens space arises this way; classify_gof
reports which (k, n) give lens spaces and reads the label of the knot
off the two-bridge witness.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from ._record import Record
from .burau import trace
from .modular import are_conjugate
from .twobridge import (
    LensSpace,
    TwoBridgeForm,
    lens_equiv,
    lens_space,
    lens_space_of,
    normalize_two_bridge,
)
from .words import BraidWord, beta, check_beta_row, exponent_sum, standard_form

__all__ = [
    "CheckResult",
    "ClassificationResult",
    "ExceptionL72",
    "HopfPlumbing",
    "Label",
    "NotLensSpace",
    "candidate_pq",
    "classify_gof",
    "is_two_bridge_closure",
    "paper_checks",
    "scan_table",
]

Witness = tuple[int, int]


class HopfPlumbing(Record):
    """Plumbing of an r-Hopf band and a (band_sign)-Hopf band; the knot
    lives in the lens space L(r, 1), reading L(r,1) as L(-r,-1) for r < 0."""

    r: int
    band_sign: int

    def __str__(self) -> str:
        return f"HopfPlumbing(r={self.r},band={self.band_sign:+d})"


class ExceptionL72(Record):
    """The one knot outside the plumbing family, in L(7,2) or its mirror."""

    sign: int

    def __str__(self) -> str:
        return f"ExceptionL72({self.sign:+d})"


class NotLensSpace(Record):
    """The double branched cover of the closure is not a lens space."""

    def __str__(self) -> str:
        return "NotLensSpace"


Label = HopfPlumbing | ExceptionL72 | NotLensSpace
# Records are immutable and compare by value, so every cell without a
# witness shares one label.
_NOT_LENS_SPACE = NotLensSpace()


class ClassificationResult(Record):
    """The verdict for a single (k, n) cell."""

    k: int
    n: int
    word: BraidWord
    is_two_bridge: bool
    two_bridge: TwoBridgeForm | None
    lens_space: LensSpace | None
    witness: Witness | None
    label: Label
    description: str


def candidate_pq(w: BraidWord) -> list[tuple[int, int]]:
    """All (p, q) that could make standard_form(p, q) conjugate to ``w``."""
    return _pairs(exponent_sum(w), trace(w))


def _pairs(e: int, tr: int) -> list[tuple[int, int]]:
    """The (p, q) whose standard form has exponent sum e and trace tr.

    Conjugacy keeps e = p + q + 1 and the trace, 2 - tr = 2pq + p + q for
    standard_form(p, q).  So the odd factors 2p+1 and 2q+1 sum to 2e and
    multiply to 5 - 2tr: they are e +- root, root^2 = e^2 + 2tr - 5, and
    root^2 = e^2 + 1 mod 2 makes both odd.  Both orders are returned, larger
    root first, once if equal: at most two candidates, a superset of every match.
    """
    disc = e * e + 2 * tr - 5
    root = math.isqrt(max(disc, 0))
    if root * root != disc:
        return []
    high, low = (e + root - 1) // 2, (e - root - 1) // 2
    return [(high, low)] if root == 0 else [(high, low), (low, high)]


def _witness(w: BraidWord, pairs: Iterable[Witness]) -> tuple[Witness | None, TwoBridgeForm | None]:
    """The first (p, q) of ``pairs`` whose standard form is conjugate to
    ``w``, with its closure b(2pq+p+q, 2q+1); (None, None) without one.

    The form is None when 2pq+p+q = 0: homology order zero, the
    two-component unlink, which has no normal form.  Only the witnesses
    (0, 0) and (-1, -1) have it, because 2(2pq+p+q) + 1 = (2p+1)(2q+1).

    The mirror is never tested: by the identity s1^2
    mirror(standard_form(p, q)) s1^-2 = standard_form(-p-1, -q-1), a word
    whose mirror is conjugate to standard_form(p, q) is itself conjugate to
    standard_form(-p-1, -q-1), which has the word's exponent sum and trace
    and so is among its candidates.

    Candidates with |p| + |q| > len(w) + 5 are skipped unbuilt: conjugates
    have cores of one length, the core of ``w`` has at most 2 len(w)
    syllables (two per letter), and that of standard_form(p, q) at least
    2(|p| + |q|) - 10.  Proof: with T = XY, the image of s1, and s2 = X s1
    X, the form is the cyclic word X T^-1 X T^p X T^2 X T^q, and X T^-1 X
    = T X T turns it into X T^u X T^2 X T^v, u = p + 1, v = q + 1.  For
    |a| >= 2, X T^a reduces to 2|a| - 1 syllables if a > 0, 2|a| + 1 if
    a < 0, and blocks cancel only at their joins: one syllable between two
    positive blocks, three between two negative ones; a lone X T^a keeps
    2|a| - 2.  So |u|, |v| >= 2 gives 2(|p| + |q|) + 2, or - 2 when u, v
    < 0.  Else X T^0 X = 1 and X T^+-1 X = T^-+1 X T^-+1 leave X T^(p+3)
    for v = 0, X T^(p-2) for v = 1 and X T^(p+2) X T^3 for v = -1 (u
    likewise: reversal swaps p and q).  The least is 2|p| - 8 = 2(|p| +
    |q|) - 10 at q = -1, p <= -5; an exponent left in {-1, 0, 1} means
    |p| + |q| <= 5, where the bound is not positive.
    """
    bound = len(w) + 5
    for p, q in pairs:
        if abs(p) + abs(q) <= bound and are_conjugate(w, standard_form(p, q)):
            alpha = 2 * p * q + p + q
            return (p, q), normalize_two_bridge(alpha, 2 * q + 1) if alpha else None
    return None, None


def is_two_bridge_closure(w: BraidWord) -> tuple[TwoBridgeForm, Witness] | None:
    """Decide whether the closure of ``w`` is a two-bridge link: its form
    and witness (p, q), or None for no witness or an unlink witness."""
    witness, form = _witness(w, candidate_pq(w))
    return None if form is None else (form, witness)


def classify_gof(k: int, n: int) -> ClassificationResult:
    """Classify the genus-one fibered knot over the braid axis of the
    closure of beta(k, n); k must be odd.  The label is read off the
    witness, NotLensSpace without one; the unlink cells (1, -2) and (-1, 2)
    have a witness but no form, and their record shows neither."""
    _require_odd(k)
    word = beta(k, n)
    witness, form = _witness(word, _pairs(*_cell_invariants(k, n)))
    space = None if form is None else lens_space_of(form)
    label = _NOT_LENS_SPACE if witness is None else _label_for(k, witness, space)
    return ClassificationResult(
        k, n, word, form is not None, form, space, form and witness, label, _describe(label)
    )


def _cell_invariants(k: int, n: int) -> tuple[int, int]:
    """The exponent sum and trace (3k + n, -eps n) of beta(k, n), k odd, with
    eps = (-1)^((k-1)/2): represent(s2 s1 s2) = S = [[0, 1], [-1, 0]] and S^2 =
    -I, so beta(k, n) maps to S^k [[1, n], [0, 1]] = eps S [[1, n], [0, 1]] =
    eps C_n, C_n = [[0, 1], [-1, -n]], of trace -eps n."""
    eps = 1 if k % 4 == 1 else -1
    return 3 * k + n, -eps * n


def _require_odd(k: int) -> None:
    if k % 2 == 0:
        raise ValueError(f"k must be odd, got {k}")


def _label_for(k: int, witness: Witness, space: LensSpace | None) -> Label:
    """The label of beta(k, n), read off its witness (p, q).

    standard_form(x, 0) ~ beta(1, x - 2) and standard_form(y, -1) ~
    beta(-1, y + 3): a witness with a root 0 is on the +1 plumbing row,
    one with a root -1 on the -1 row, and r = band (2pq + p + q).  The S^3
    cells (1, -3) and (-1, 3) have both roots and keep the band of k's
    sign.  The unlink witnesses (0, 0) and (-1, -1) give r = 0 on the
    +1 and -1 rows.  Any other witness is the exception in L(7, 2) or
    L(7, 3).
    """
    p, q = witness
    if {p, q} == {0, -1}:
        band = 1 if k > 0 else -1
    elif 0 in (p, q):
        band = 1
    elif -1 in (p, q):
        band = -1
    else:
        sign = {lens_space(7, 2): 1, lens_space(7, 3): -1}.get(space)
        if sign is None:
            raise RuntimeError(f"the theorem gives {space} no label")
        return ExceptionL72(sign=sign)
    return HopfPlumbing(r=band * (2 * p * q + p + q), band_sign=band)


def _describe(label: Label) -> str:
    if isinstance(label, HopfPlumbing):
        r_text = str(label.r) if label.r >= 0 else f"({label.r})"
        base = (
            f"plumbing of a {r_text}-Hopf band and a "
            f"({label.band_sign:+d})-Hopf band in L({label.r},1)"
        )
        if label.r == 0:  # no two-bridge hit has 2pq + p + q = 0
            return base + "; the closure is the two-component unlink, outside the two-bridge normal forms"
        return base
    if isinstance(label, ExceptionL72):
        if label.sign > 0:
            return (
                "(-1)-Dehn surgery on the plumbing of a 7-Hopf band and a "
                "(+1)-Hopf band; knot in L(7,2)"
            )
        return (
            "(+1)-Dehn surgery on the plumbing of a (-7)-Hopf band and a "
            "(-1)-Hopf band; knot in the mirror class L(7,3)"
        )
    return "the closure is not a two-bridge link, so the double branched cover is not a lens space"


def table_cells(k_values: Iterable[int], n_values: Iterable[int]) -> Iterator[ClassificationResult]:
    """The cells of a (k, n) grid, k ascending then n ascending, each
    classified as it is read, so a caller can print a cell and drop it.

    The grid is checked first, row by row in closed form
    (``words.check_beta_row``): the ValueError of its first bad cell (an
    even k, or a word past the letter budget) is raised before any cell
    is classified.
    """
    # a range of positive step is sorted with no repeats, and may be too wide to copy
    ks, ns = (v if isinstance(v, range) and v.step > 0 else sorted(set(v)) for v in (k_values, n_values))
    if ns:
        for k in ks:
            _require_odd(k)
            check_beta_row(k, ns)
    return (classify_gof(k, n) for k in ks for n in ns)


def scan_table(k_values: Iterable[int], n_values: Iterable[int]) -> list[ClassificationResult]:
    """Classify every cell of a (k, n) grid, k ascending then n ascending."""
    return list(table_cells(k_values, n_values))


class CheckResult(Record):
    """One named boolean check with its expected and computed values."""

    name: str
    expected: bool
    computed: bool

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


# The paper's case rows (A: k = 5, B: k = -3), n in its order, which no rule gives.
_CASE_ROWS = (("A", 5, (-13, -15, -19, -9)), ("B", -3, (15, 17, 5, 3)))
_CONJUGATE_CELLS = {(-3, 5), (-3, 3)}


def paper_checks() -> tuple[list[CheckResult], list[CheckResult]]:
    """The checks of ``verify-paper``: the eight case rows, then the
    additional checks.

    The case rows are every cell of rows 5 and -3 with a candidate, each
    decided by classify_gof and named by its candidate {p, q} with the
    smaller |p|.  The additional checks are two beta pairs conjugate
    despite distinct (k, n), the exceptional rows +-(-3,5) against the
    plumbing rows beta(+-1, n'), and their lens spaces against the
    plumbing ones.  Conjugate braids have equal exponent sums and
    beta(eps, n') has 3 eps + n', so n' = 3k + n - 3 eps is the one row
    that could match.  L(n+2eps, 1) has order |n+2eps|, which is 7 only at
    n = +-7 - 2eps, so checking those four spaces settles every n; the
    name keeps the range [-40,40] that the benchmark and the README print.
    """
    case_rows = []
    for case, k, ns in _CASE_ROWS:
        for n in ns:
            p, q = min(_pairs(*_cell_invariants(k, n)), key=lambda pair: abs(pair[0]))
            name = f"case {case}: beta({k},{n}) vs standard form on {{{p},{q}}}"
            computed = classify_gof(k, n).witness is not None
            case_rows.append(CheckResult(name, (k, n) in _CONJUGATE_CELLS, computed))
    pairs = [((-3, 3), (-1, -3), True), ((3, -3), (1, 3), True)]
    for k, n in ((-3, 5), (3, -5)):
        pairs += [((k, n), (eps, 3 * k + n - 3 * eps), False) for eps in (1, -1)]
    additional = []
    for (k1, n1), (k2, n2), expected in pairs:
        computed = are_conjugate(beta(k1, n1), beta(k2, n2))
        additional.append(CheckResult(f"beta({k1},{n1}) ~ beta({k2},{n2})", expected, computed))
    for exceptional in (lens_space(7, 2), lens_space(7, -2)):
        separated = not any(
            lens_equiv(exceptional, lens_space(n + 2 * eps, 1), oriented=False)
            for eps in (1, -1) for n in (7 - 2 * eps, -7 - 2 * eps)
        )
        name = f"{exceptional} differs from every L(n+-2,1), n in [-40,40]"
        additional.append(CheckResult(name, True, separated))
    return case_rows, additional
