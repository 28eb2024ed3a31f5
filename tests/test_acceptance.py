"""Acceptance gate: nine numbered end-to-end criteria.

Each criterion test prints exactly one scoreboard line

    criterion N: PASS|FAIL - <short name>

before asserting, so the full scoreboard is visible in the test log even
when a criterion fails.  Criterion 5 asserts the paper's signed law
homology_order(beta(k, n)) = |n + 2 eps(k)| with eps(k) = (-1)^((k-1)/2);
an earlier unsigned form |n + 2| is false on every k = 3 (mod 4) row,
because the full twist (s2 s1 s2)^2 maps to minus the identity.  Total
runtime is a few seconds.
"""

import contextlib
import io
import random
from fractions import Fraction
from functools import lru_cache

from gofknots.burau import (
    SL2Matrix,
    classify_monodromy,
    homology_order,
    represent,
    trace,
)
from gofknots.classify import ExceptionL72, HopfPlumbing, scan_table
from gofknots.cli import main
from gofknots.modular import are_conjugate, project
from gofknots.twobridge import (
    fraction_from_conway,
    lens_equiv,
    lens_space,
    murasugi_braid_index,
    normalize_two_bridge,
)
from gofknots.words import (
    BraidWord,
    beta,
    conjugate_by,
    exponent_sum,
    standard_form,
)

from oracles import find_conjugator_brute, free_reduce, psl_matrix, scramble

GRID_K = tuple(range(-9, 10, 2))
GRID_N = tuple(range(-30, 31))


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {name}")


def _random_word(rng: random.Random, max_len: int) -> BraidWord:
    return BraidWord(
        tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, max_len + 1)))
    )


@lru_cache(maxsize=1)
def _full_scan():
    return tuple(scan_table(GRID_K, GRID_N))


# --- criterion 1: the eight documented conjugacy booleans -------------------

CASE_ROWS = (
    (5, -13, (-2, 3), False),
    (5, -15, (2, -3), False),
    (5, -19, (1, -6), False),
    (5, -9, (-1, 6), False),
    (-3, 15, (2, 3), False),
    (-3, 17, (1, 6), False),
    (-3, 5, (-2, -3), True),
    (-3, 3, (-1, -6), True),
)


def test_criterion_1_case_analysis_reproduction():
    problems = []
    for k, n, (p, q), expected in CASE_ROWS:
        computed = any(
            are_conjugate(beta(k, n), standard_form(x, y))
            for x, y in ((p, q), (q, p))
        )
        if computed != expected:
            problems.append(f"beta({k},{n}) vs {{{p},{q}}}: got {computed}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main(["verify-paper"])
    if exit_code != 0:
        problems.append(f"verify-paper exited {exit_code}")
    if "case rows: 8/8 passed" not in out.getvalue():
        problems.append("verify-paper did not report 8/8 case rows")
    ok = not problems
    _report(1, "case-analysis reproduction (8 booleans, verify-paper exit 0)", ok)
    assert ok, problems


# --- criterion 2: which grid cells have two-bridge closures -----------------


def test_criterion_2_two_bridge_cell_set():
    computed = {(r.k, r.n) for r in _full_scan() if r.is_two_bridge}
    # Every k = +-1 cell is listed except (1,-2) and (-1,2): those close to
    # the two-component unlink, whose double branched cover has infinite
    # first homology, so no two-bridge normal form exists to report.
    expected = (
        {(k, n) for k in (-1, 1) for n in GRID_N}
        | {(-3, 3), (3, -3), (-3, 5), (3, -5)}
    ) - {(1, -2), (-1, 2)}
    ok = computed == expected
    _report(2, "two-bridge closures exactly on k=+-1 rows plus 4 exceptional cells", ok)
    assert ok, (sorted(computed - expected), sorted(expected - computed))


# --- criterion 3: labels, lens classes, homology orders ---------------------


def test_criterion_3_labels_and_lens_classes():
    problems = []
    for r in _full_scan():
        if r.k in (1, -1):
            r_value = r.n + 2 * r.k
            if r.label != HopfPlumbing(r=r_value, band_sign=r.k):
                problems.append(f"({r.k},{r.n}): label {r.label}")
            if r.is_two_bridge:
                if not lens_equiv(r.lens_space, lens_space(r_value, 1)):
                    problems.append(f"({r.k},{r.n}): lens {r.lens_space}")
                if homology_order(r.word) != abs(r_value):
                    problems.append(f"({r.k},{r.n}): order {homology_order(r.word)}")
        elif (r.k, r.n) in ((-3, 5), (3, -5)):
            expected_space = lens_space(7, 2) if r.k == -3 else lens_space(7, -2)
            if not isinstance(r.label, ExceptionL72):
                problems.append(f"({r.k},{r.n}): label {r.label}")
            if not lens_equiv(r.lens_space, expected_space):
                problems.append(f"({r.k},{r.n}): lens {r.lens_space}")
            if homology_order(r.word) != 7:
                problems.append(f"({r.k},{r.n}): order {homology_order(r.word)}")
    ok = not problems
    _report(3, "HopfPlumbing r=n+-2 with L(r,1), exceptional pair in L(7,2) class", ok)
    assert ok, problems


# --- criterion 4: the conjugate pairs and the isolation of the exception ----


def test_criterion_4_conjugate_pairs_and_exception_isolation():
    problems = []
    if not are_conjugate(beta(-3, 3), beta(-1, -3)):
        problems.append("beta(-3,3) !~ beta(-1,-3)")
    if not are_conjugate(beta(3, -3), beta(1, 3)):
        problems.append("beta(3,-3) !~ beta(1,3)")
    for k, n in ((-3, 5), (3, -5)):
        e = 3 * k + n
        for eps in (1, -1):
            # the only n' with matching exponent sum
            other_n = e - 3 * eps
            if are_conjugate(beta(k, n), beta(eps, other_n)):
                problems.append(f"beta({k},{n}) ~ beta({eps},{other_n})")
    for space in (lens_space(7, 2), lens_space(7, -2)):
        for n in range(-40, 41):
            for eps in (1, -1):
                if lens_equiv(space, lens_space(n + 2 * eps, 1), oriented=False):
                    problems.append(f"{space} = L({n + 2 * eps},1)")
    ok = not problems
    _report(4, "two conjugate beta pairs; exceptional cells isolated from plumbing rows", ok)
    assert ok, problems


# --- criterion 5: the signed homology-order law |n + 2 eps(k)| -------------
#
# The unsigned |n + 2| is wrong on every k = 3 (mod 4) row.  At t = -1 the
# Burau matrix of (s2 s1 s2)^2 is -I, so beta(k, n) has the matrix of
# beta(eps, n) with eps = (-1)^((k-1)/2), and the order is that of the
# k = eps row.  On the k = -1 row that is |n - 2|: beta(-1, n) is conjugate
# to s2^-1 s1^(n-2), whose closure destabilizes to the torus link
# T(2, n-2) of determinant |n - 2|, as criterion 3 also asserts.


def _signed_order(k: int, n: int) -> int:
    eps = 1 if k % 4 == 1 else -1  # (-1)^((k-1)/2) for odd k
    return abs(n + 2 * eps)


def test_criterion_5_homology_order_absolute_law():
    failures = [
        (k, n, homology_order(beta(k, n)))
        for k in GRID_K
        for n in GRID_N
        if homology_order(beta(k, n)) != _signed_order(k, n)
    ]
    ok = not failures
    _report(5, "homology_order(beta(k,n)) = |n+2eps(k)| on the full odd-k grid", ok)
    first = failures[0] if failures else None
    assert ok, (
        "homology_order(beta(k,n)) breaks the signed law |n + 2 eps(k)|.  "
        f"First counterexample (k, n, order): {first}; "
        f"{len(failures)} of {len(GRID_K) * len(GRID_N)} cells disagree."
    )


def test_criterion_5_companion_signed_law_holds():
    # the law the grid actually satisfies, split by k mod 4
    assert all(
        homology_order(beta(k, n))
        == (abs(n + 2) if k % 4 == 1 else abs(n - 2))
        for k in GRID_K
        for n in GRID_N
    )


# --- criterion 6: conjugacy engine validation --------------------------------


def test_criterion_6_conjugacy_engine_validation():
    rng = random.Random(20260815)
    problems = []
    positive_pairs = []

    # (a) scrambled-and-conjugated copies are always recognized
    for trial in range(500):
        word = _random_word(rng, 12)
        g = _random_word(rng, 6)
        other = conjugate_by(scramble(word, trial, 20), g)
        if are_conjugate(word, other):
            positive_pairs.append((word, other))
        else:
            problems.append(f"scrambled copy missed at trial {trial}")

    # (b) the brute-force witness search never disagrees
    for trial in range(500):
        u = _random_word(rng, 8)
        if trial % 5 < 3:
            v = free_reduce(conjugate_by(u, _random_word(rng, 3)))
            built = True
        else:
            v = _random_word(rng, 8)
            built = False
        found = find_conjugator_brute(u, v, 6)
        if built and found is None:
            problems.append(f"brute search missed a depth-3 conjugator at trial {trial}")
        if found is not None and not are_conjugate(u, v):
            problems.append(f"brute witness but negative verdict at trial {trial}")
        if are_conjugate(u, v):
            positive_pairs.append((u, v))

    # (c) every positive verdict preserves the invariants
    for u, v in positive_pairs:
        if (
            trace(u) != trace(v)
            or homology_order(u) != homology_order(v)
            or exponent_sum(u) != exponent_sum(v)
        ):
            problems.append(f"invariant mismatch on {u} ~ {v}")

    ok = not problems
    _report(6, "500 scrambled conjugates, 500 brute cross-checks, invariants", ok)
    assert ok, problems[:10]


# --- criterion 7: representation sanity --------------------------------------


def test_criterion_7_representation_sanity():
    rng = random.Random(7777)
    problems = []
    for _ in range(1000):
        word = _random_word(rng, 40)
        m = represent(word)
        if m.a * m.d - m.b * m.c != 1:
            problems.append(f"determinant != 1 on {word}")
        p = psl_matrix(project(word))
        if p != m and p != -m:
            problems.append(f"quotient matrix off by more than sign on {word}")
    if represent(BraidWord((2, 1, 2) * 4)) != SL2Matrix(1, 0, 0, 1):
        problems.append("(s2 s1 s2)^4 does not map to the identity")
    for n in range(-20, 21):
        if trace(beta(1, n)) != -n:
            problems.append(f"trace(beta(1,{n})) != {-n}")
    ok = not problems
    _report(7, "det 1, (s2 s1 s2)^4 -> I, quotient sign match, trace(beta(1,n)) = -n", ok)
    assert ok, problems[:10]


# --- criterion 8: two-bridge arithmetic ---------------------------------------


def test_criterion_8_two_bridge_arithmetic():
    problems = []
    for p in range(-10, 11):
        for q in range(-10, 11):
            if q in (0, -1):
                continue
            if fraction_from_conway((p, 1, 1, q)) != fraction_from_conway(
                (p, 2, -q - 1)
            ):
                problems.append(f"(p,1,1,q) identity fails at ({p},{q})")
            numerator, denominator = fraction_from_conway((p, 2, q))
            if Fraction(numerator, denominator) != Fraction(
                2 * p * q + p + q, 2 * q + 1
            ):
                problems.append(f"(p,2,q) fraction fails at ({p},{q})")
    for p in range(2, 9):
        for q in range(2, 9):
            form = normalize_two_bridge(2 * p * q + p + q, 2 * q + 1)
            if murasugi_braid_index(form) != 3:
                problems.append(f"braid index 3 not certified for {form}")
    for alpha in range(2, 21):
        if murasugi_braid_index(normalize_two_bridge(alpha, 1)) != 2:
            problems.append(f"braid index 2 not certified for b({alpha},1)")
    ok = not problems
    _report(8, "Conway identities on the grid; braid-index certificates", ok)
    assert ok, problems[:10]


# --- criterion 9: monodromy trichotomy ----------------------------------------


def test_criterion_9_monodromy_classification():
    problems = [
        n
        for n in range(-20, 21)
        if (classify_monodromy(beta(1, n)) == "pseudo-Anosov") != (abs(n) > 2)
    ]
    ok = not problems
    _report(9, "pseudo-Anosov exactly when |n| > 2 on beta(1,n)", ok)
    assert ok, problems
