"""Seeded input generator for the benchmark workloads.

Inputs come in passes: pass ``i`` of a workload is a pure function of
``(seed, i)``, built with the standard ``random`` module and this file's
own word helpers, padding blocks, conjugators and mirroring.  Nothing here
imports gofknots (in particular not ``words.scramble``), so a rewrite of
the package cannot change the inputs.  Every case carries its reference
answer from :mod:`oracle`, and every pass records its size.

Sizes are fixed by design and never depend on the seed, which only picks
the content.  They keep the known slow paths in view: |n| up to 200 on the
grid, ~400-bit matrix entries in closure-mix, and the periodic
s1^m s2^-1 family at up to 20k letters in conjugacy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

LETTERS = (1, -1, 2, -2)
TOKENS = {1: "a", -1: "A", 2: "b", -2: "B"}

# Words equal to the identity in the braid group: four cancelling pairs,
# then the relator s1 s2 s1 (s2 s1 s2)^-1 and its inverse.
PADDING = (
    (1, -1),
    (-1, 1),
    (2, -2),
    (-2, 2),
    (1, 2, 1, -2, -1, -2),
    (2, 1, 2, -1, -2, -1),
)

K_VALUES = tuple(range(-49, 50, 2))  # the 20,050-cell grid: k odd in [-49, 49]
N_VALUES = tuple(range(-200, 201))  # and n in [-200, 200]
SPECIAL_CELLS = ((-3, 3), (3, -3), (-3, 5), (3, -5), (1, -2), (-1, 2))
GRID_CLASSES = 10  # pass i of grid-scan holds the cells with n + 200 in one class mod 10

CLOSURE_HITS = 50  # disguised standard forms per closure-mix pass
CLOSURE_MISSES = 50  # disguised beta(k, n), |k| >= 5, per pass
CLOSURE_LETTERS = 2500
CLOSURE_CONJUGATOR = 650  # freely reduced letters each side: ~400-bit entries
CLOSURE_PQ = 150  # |p|, |q| bound of the hidden standard forms

CONJUGACY_KINDS = ((False, True), (False, False), (True, True), (True, False))  # (periodic, conjugate)
# Letters per word, one size per pair: 40 sizes spread evenly over 2k..20k, so
# latency quantiles fall between neighbouring sizes and not between clusters.
CONJUGACY_SIZES = tuple(2000 + 18000 * i // 39 for i in range(40))
PERIODIC_SLACK = 60  # letters of each periodic word spent on its disguise

# Letters of each closure word of the cli workload.  The other commands all
# cost about one interpreter start-up; the closure calls, 8 of a pass's 35,
# are long enough to form a slower group of their own, so the 90th percentile
# falls inside that group, where the work sets it, and not in the tail of the
# start-ups, where the host's noise does.
CLI_CLOSURE_LETTERS = 10000


@dataclass
class Pass:
    """One batch of cases.  ``sizes`` counts what the batch holds."""

    cases: list
    sizes: dict


def _rng(seed: int, workload: str, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{workload}:{index}")


# ---- word helpers (letters are +-1, +-2) -------------------------------


def beta_letters(k: int, n: int) -> list[int]:
    triple = [2, 1, 2] if k >= 0 else [-2, -1, -2]
    return triple * abs(k) + [1 if n > 0 else -1] * abs(n)


def standard_letters(p: int, q: int) -> list[int]:
    def power(e):
        return [1 if e > 0 else -1] * abs(e)

    return [-2] + power(p) + [2, 2] + power(q)


def inverse(letters: list[int]) -> list[int]:
    return [-x for x in reversed(letters)]


def mirror(letters: list[int]) -> list[int]:
    return [-x for x in letters]


def random_word(rng: random.Random, length: int) -> list[int]:
    return rng.choices(LETTERS, k=length)


def reduced_word(rng: random.Random, length: int) -> list[int]:
    """A random freely reduced word: its matrix entries grow linearly in bits."""
    out: list[int] = []
    previous = 0
    for _ in range(length):
        letter = rng.choice(LETTERS)
        while letter == -previous:
            letter = rng.choice(LETTERS)
        out.append(letter)
        previous = letter
    return out


def conjugate(core: list[int], g: list[int]) -> list[int]:
    return g + core + inverse(g)


def rotate(letters: list[int], r: int) -> list[int]:
    """A cyclic permutation, which is a conjugation."""
    return letters[r:] + letters[:r]


def pad(rng: random.Random, letters: list[int], target: int) -> list[int]:
    """Insert identity blocks at random positions until ``target`` letters."""
    out = list(letters)
    while len(out) < target:
        position = rng.randrange(len(out) + 1)
        out[position:position] = PADDING[rng.randrange(len(PADDING))]
    return out


def to_text(rng: random.Random, letters: list[int]) -> str:
    """Token string; runs of three or more letters become ``s1^e`` tokens
    half of the time, so both token forms of the grammar are parsed."""
    tokens: list[str] = []
    i, size = 0, len(letters)
    while i < size:
        letter = letters[i]
        j = i + 1
        while j < size and letters[j] == letter:
            j += 1
        run = j - i
        if run >= 3 and rng.random() < 0.5:
            tokens.append(f"s{abs(letter)}^{run if letter > 0 else -run}")
        else:
            tokens.extend([TOKENS[letter]] * run)
        i = j
    return " ".join(tokens)


def disguise(rng: random.Random, core: list[int], conjugator: int, target: int, mirrored: bool) -> list[int]:
    """Rotate, conjugate by a random reduced word, pad, and maybe mirror."""
    word = rotate(core, rng.randrange(len(core))) if core else []
    word = pad(rng, conjugate(word, reduced_word(rng, conjugator)), target)
    return mirror(word) if mirrored else word


# ---- workloads -----------------------------------------------------------


def grid_scan_pass(seed: int, index: int) -> Pass:
    """One residue class of n mod 10 over every k: a tenth of the grid with
    the same spread of word lengths in every pass.  The classes come in a
    seeded order, the cells in a seeded shuffle, and the first pass also
    holds the four exceptional and the two unlink cells."""
    order = list(range(GRID_CLASSES))
    random.Random(f"{seed}:grid-scan:order").shuffle(order)
    residue = order[index % GRID_CLASSES]
    cells = [(k, n) for k in K_VALUES for n in N_VALUES if (n + 200) % GRID_CLASSES == residue]
    _rng(seed, "grid-scan", index).shuffle(cells)
    if index == 0:
        cells = list(SPECIAL_CELLS) + cells
    cases = [(k, n) + oracle.beta_cell(k, n) for k, n in cells]
    return Pass(cases, {"cells": len(cases)})


def closure_mix_pass(seed: int, index: int) -> Pass:
    """Disguised standard forms (hits) and disguised beta(k, n) with
    |k| >= 5 (misses), each ~2.5k letters, half of each mirrored."""
    rng = _rng(seed, "closure-mix", index)
    wide_k = [k for k in K_VALUES if abs(k) >= 5]
    cases = []
    for i in range(CLOSURE_HITS + CLOSURE_MISSES):
        mirrored = rng.random() < 0.5
        if i < CLOSURE_HITS:
            p = rng.randint(-CLOSURE_PQ, CLOSURE_PQ)
            q = rng.randint(-CLOSURE_PQ, CLOSURE_PQ)
            core = standard_letters(p, q)
            expected = oracle.standard_form_closure(p, q, mirrored)
        else:
            core = beta_letters(rng.choice(wide_k), rng.choice(N_VALUES))
            expected = None
        word = disguise(rng, core, CLOSURE_CONJUGATOR, CLOSURE_LETTERS, mirrored)
        cases.append((to_text(rng, word), expected, len(word)))
    rng.shuffle(cases)
    return Pass(cases, {"words": len(cases), "letters": sum(c[2] for c in cases)})


def _near_miss(rng: random.Random, core: list[int]) -> list[int]:
    """Swap one letter for the other generator of the same sign, which keeps
    the exponent sum."""
    out = list(core)
    i = rng.randrange(len(out))
    out[i] = (3 - abs(out[i])) * (1 if out[i] > 0 else -1)
    return out


def _conjugacy_pair(rng: random.Random, size: int, periodic: bool, conjugate_pair: bool):
    mirrored = rng.random() < 0.5
    for _ in range(100):
        if periodic:
            m = size - PERIODIC_SLACK
            first = [1] * m + [-2]
            if conjugate_pair:
                second = first
            else:
                j = rng.randint(1, 3)  # s1^(m+j) s2^-(1+j): same exponent sum
                second = [1] * (m + j) + [-2] * (1 + j)
            conjugator = PERIODIC_SLACK // 3
        else:
            first = random_word(rng, size * 7 // 10)
            second = first if conjugate_pair else _near_miss(rng, first)
            conjugator = size // 10
        u = disguise(rng, first, conjugator, size, mirrored)
        v = disguise(rng, second, conjugator, size, mirrored)
        same_trace = oracle.trace(u) == oracle.trace(v)
        if conjugate_pair and not same_trace:
            raise RuntimeError("generator bug: conjugate words with different traces")
        if conjugate_pair or not same_trace:
            return u, v
    raise RuntimeError("no certified non-conjugate pair found")


def conjugacy_pass(seed: int, index: int) -> Pass:
    """Forty pairs of 2k to 20k letters, a quarter of each kind: conjugate
    and non-conjugate random words, and the same of the periodic family
    s1^m s2^-1.  Non-conjugate pairs have equal exponent sums and certified
    different traces."""
    rng = _rng(seed, "conjugacy", index)
    cases = []
    for i, size in enumerate(CONJUGACY_SIZES):
        periodic, expected = CONJUGACY_KINDS[i % len(CONJUGACY_KINDS)]
        u, v = _conjugacy_pair(rng, size, periodic, expected)
        cases.append((to_text(rng, u), to_text(rng, v), expected, len(u) + len(v)))
    rng.shuffle(cases)
    return Pass(cases, {"pairs": len(cases), "letters": sum(c[3] for c in cases)})


def _fmt(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _form_lines(form, verdict_key: str) -> list[str]:
    alpha, beta = form if form else (None, None)
    return [
        f"{verdict_key}: {_fmt(form is not None)}",
        f"alpha: {_fmt(alpha)}",
        f"beta: {_fmt(beta)}",
        f"lens_p: {_fmt(alpha)}",
        f"lens_q: {_fmt(beta)}",
    ]


def _cli_cell(rng: random.Random) -> tuple[int, int]:
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(SPECIAL_CELLS)
    k = rng.choice((1, -1)) if roll < 0.5 else rng.choice(K_VALUES)
    return k, rng.choice(N_VALUES)


def cli_pass(seed: int, index: int) -> Pass:
    """Thirty-five CLI calls: classify, closure on 10k letters,
    verify-paper, table and conway.
    A case is (argv, lines stdout must contain, stdout line count)."""
    rng = _rng(seed, "cli", index)
    cases = []
    for _ in range(8):
        k, n = _cli_cell(rng)
        form, label = oracle.beta_cell(k, n)
        word = " ".join(TOKENS[x] for x in beta_letters(k, n))
        lines = [f"k: {k}", f"n: {n}", f"word: {word}", f"label: {label}"]
        lines += _form_lines(form, "is_two_bridge")
        cases.append((("classify", str(k), str(n)), lines, 13))
    closure_letters = 0
    for i in range(8):
        mirrored = i % 4 >= 2  # two of each: hit or miss, mirrored or not
        if i % 2 == 0:
            p, q = rng.randint(-20, 20), rng.randint(-20, 20)
            core = standard_letters(p, q)
            form = oracle.standard_form_closure(p, q, mirrored)
        else:
            core = beta_letters(rng.choice([k for k in K_VALUES if abs(k) >= 5]), rng.randint(-20, 20))
            form = None
        word = disguise(rng, core, CLI_CLOSURE_LETTERS // 8, CLI_CLOSURE_LETTERS, mirrored)
        closure_letters += len(word)
        cases.append((("closure", to_text(rng, word)), _form_lines(form, "two_bridge"), 8))
    rows, extra = oracle.verify_paper_checks()
    lines = [f"[ok] {name}: expected {_fmt(value)}, computed {_fmt(value)}" for name, value in rows]
    lines.append(f"case rows: {len(rows)}/{len(rows)} passed")
    lines += [f"[ok] {name}: expected {_fmt(value)}, computed {_fmt(value)}" for name, value in extra]
    lines += [f"additional checks: {len(extra)}/{len(extra)} passed", "verify-paper: PASS"]
    for _ in range(3):
        cases.append((("verify-paper",), lines, len(lines)))
    for _ in range(8):
        ks = sorted(rng.sample(K_VALUES[20:30], 3))  # k in [-9, 9]: the rows that hold every hit
        lo = rng.randint(-200, 192)
        lines = ["k\tn\ttwo_bridge\talpha\tbeta\tlens\tlabel"]
        for k in ks:
            for n in range(lo, lo + 9):
                form, label = oracle.beta_cell(k, n)
                lens = "null" if form is None else f"L({form[0]},{form[1]})"
                alpha, beta = form if form else (None, None)
                lines.append("\t".join((str(k), str(n), _fmt(form is not None), _fmt(alpha), _fmt(beta), lens, label)))
        argv = ("table", "--k=" + ",".join(map(str, ks)), f"--n={lo}..{lo + 8}")
        cases.append((argv, lines, len(lines)))
    for _ in range(8):
        while True:
            entries = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(3)]
            fraction = oracle.conway_fraction(entries)
            if fraction is not None and fraction[0] != 0:
                break
        form = oracle.two_bridge(*fraction)
        lines = [f"fraction: {fraction[0]}/{fraction[1]}"] + _form_lines(form, "two_bridge")[1:]
        cases.append((("conway", ",".join(map(str, entries))), lines, 5))
    rng.shuffle(cases)
    return Pass(cases, {"calls": len(cases), "closure_letters": closure_letters})


PASSES = {
    "grid-scan": grid_scan_pass,
    "closure-mix": closure_mix_pass,
    "conjugacy": conjugacy_pass,
    "cli": cli_pass,
}
