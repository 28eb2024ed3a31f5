"""Words walked run by run and block by block: the run finder, the
projection (pairs of blocks of four letters, long runs in one step) and the
run-wise matrix against their letter-by-letter references, a pair table
that starts empty and holds pairs of block images only, a cost per run
that does not grow with the length of the run, a projection cost of one
step per eight letters on random words, a cyclic core whose cost does not
grow with the ends that cancel, a periodic conjugacy verdict whose cost
does not grow with the period, and a closure decision past four runs whose
cost past its one reduction does not grow with the runs."""

import gc
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from gofknots import modular
from gofknots.burau import represent
from gofknots.classify import is_two_bridge_closure
from gofknots.modular import FreeProductWord, _cyclic_core, are_conjugate, equal_in_b3, project
from gofknots.words import BraidWord, beta, concat, conjugate_by, inverse, parse_braid, run_ends

from oracles import old_project, old_represent


LETTERS = (1, -1, 2, -2)
LETTER_BYTES = (1, 255, 2, 254)


def periodic(m):
    """s1^m s2^-1, the periodic family: two runs of any length."""
    return BraidWord((1,) * m + (-2,))


class TestRunEnds:
    def test_empty_word_has_no_runs(self):
        assert list(run_ends(())) == []

    def test_single_letter(self):
        assert list(run_ends(parse_braid("a").letters)) == [1]

    def test_inverse_letters_end_a_run(self):
        assert list(run_ends(parse_braid("a a A").letters)) == [2, 3]

    @pytest.mark.parametrize("k", [1, 2, 5, -1, -4])
    def test_full_twist_powers(self, k):
        # (s2 s1 s2)^k reads b | a | b b | a | ... | a | b: 2|k| + 1 runs
        ends = list(run_ends(beta(k, 0).letters))
        assert len(ends) == 2 * abs(k) + 1
        assert ends[0] == 1 and ends[-1] == 3 * abs(k)

    def test_ends_are_lazy(self):
        assert not isinstance(run_ends((1, 1, 2)), (list, tuple))

    def test_runs_rebuild_the_word(self):
        rng = random.Random(7)
        for _ in range(200):
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(30)))
            start, rebuilt = 0, ()
            for end in run_ends(letters):
                run = letters[start:end]
                assert len(set(run)) == 1  # one letter per run
                assert end == len(letters) or letters[end] != run[0]  # maximal
                rebuilt += run
                start = end
            assert rebuilt == letters


class TestAgainstLetterByLetter:
    CASES = [
        "",
        "a",
        "A",
        "b",
        "B",
        "s1^50 s1^-50",
        "s1^50 s2 s2^-1 s1^-50",
        "s1^50 s2^3 s2^-3 s1^-49",
        "s2^7 s2^-9 s1^4",
        "s1^-30 s2 s1^30",
        "s2^-40 s1^-1 s2^40 s1^3",
        "a b a B A B",
        "s1^3 s2^-2 s1^-3 s2^2 s1 s2 s1",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_listed_words(self, text):
        w = parse_braid(text)
        assert project(w) == old_project(w)
        assert represent(w) == old_represent(w)

    def test_periodic_family_under_random_conjugators(self):
        rng = random.Random(13)
        for m in (1, 2, 3, 19, 20000):
            for _ in range(3):
                g = BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(40))))
                w = conjugate_by(periodic(m), g)
                assert project(w) == old_project(w)
                assert represent(w) == old_represent(w)
                assert are_conjugate(w, periodic(m))

    def test_beta_grid(self):
        for k in range(-9, 10):
            for n in range(-12, 13):
                w = beta(k, n)
                assert project(w) == old_project(w)
                assert represent(w) == old_represent(w)

    def test_runs_cancelling_runs_of_random_words(self):
        rng = random.Random(29)
        for _ in range(300):
            runs = [(rng.choice((1, -1, 2, -2)), rng.choice((1, 2, 3, 60))) for _ in range(rng.randrange(8))]
            u = BraidWord(tuple(letter for letter, count in runs for _ in range(count)))
            middle = BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(4))))
            w = concat(concat(u, middle), inverse(u))
            assert project(w) == old_project(w)
            assert represent(w) == old_represent(w)


class TestBlocksAndLongRuns:
    """Runs of 1 to 12 letters after 0 to 3 other letters put block edges
    at every offset of a run and on both sides of the long-run threshold."""

    def test_runs_at_every_offset(self):
        rng = random.Random(31)
        for offset in range(4):
            for length in range(1, 13):
                for letter in LETTERS:
                    for _ in range(4):
                        prefix = tuple(rng.choice(LETTERS) for _ in range(offset))
                        suffix = tuple(rng.choice(LETTERS) for _ in range(rng.randrange(6)))
                        w = BraidWord(prefix + (letter,) * length + suffix)
                        assert project(w) == old_project(w), w

    def test_cancelling_inverse_runs_at_every_offset(self):
        rng = random.Random(37)
        for offset in range(4):
            for length in range(1, 13):
                for letter in LETTERS:
                    prefix = tuple(rng.choice(LETTERS) for _ in range(offset))
                    u = BraidWord(prefix + (letter,) * length)
                    for middle in ((), (rng.choice(LETTERS),), tuple(rng.choice(LETTERS) for _ in range(5))):
                        w = concat(concat(u, BraidWord(middle)), inverse(u))
                        assert project(w) == old_project(w), w

    def test_blocks_with_empty_images_at_every_offset(self):
        # a A b B projects to the empty word, so its block pushes nothing
        rng = random.Random(59)
        empty = (1, -1, 2, -2)
        for offset in range(4):
            for _ in range(40):
                parts = [tuple(rng.choice(LETTERS) for _ in range(offset))]
                for _ in range(rng.randrange(1, 6)):
                    parts.append(rng.choice((
                        empty,
                        empty * rng.randrange(1, 4),
                        (rng.choice(LETTERS),) * rng.choice((8, 9, 13, 30)),
                        tuple(rng.choice(LETTERS) for _ in range(rng.randrange(1, 9))),
                    )))
                w = BraidWord(sum(parts, ()))
                assert project(w) == old_project(w), w

    def test_two_runs_of_any_two_letters(self):
        for length in range(1, 13):
            for other in range(1, 13):
                for letter in LETTERS:
                    for next_letter in LETTERS:
                        w = BraidWord((letter,) * length + (next_letter,) * other)
                        assert project(w) == old_project(w), w


class TestPairsOfBlocks:
    """Eight letters per step: pairs of block images after 0 to 7 other
    letters, so that pair edges fall at every offset mod 8 of what follows,
    with 0 to 7 letters left over at the end."""

    EMPTY = (1, -1, 2, -2)  # a A b B: its block image is empty

    def test_pairs_that_project_to_nothing_at_every_offset(self):
        rng = random.Random(61)
        for offset in range(8):
            for _ in range(30):
                block = tuple(rng.choice(LETTERS) for _ in range(4))
                inverse_block = tuple(-letter for letter in reversed(block))
                prefix = tuple(rng.choice(LETTERS) for _ in range(offset))
                parts = [prefix]
                for _ in range(rng.randrange(1, 5)):
                    parts.append(rng.choice((
                        self.EMPTY * 2,  # both images empty
                        block + inverse_block,  # the second image cancels the first whole
                        inverse_block + block,
                        block + self.EMPTY,
                        tuple(rng.choice(LETTERS) for _ in range(rng.randrange(1, 9))),
                    )))
                w = BraidWord(sum(parts, ()))
                assert project(w) == old_project(w), w
                assert project(concat(w, inverse(w))) == FreeProductWord()

    def test_pairs_straddling_a_long_run(self):
        rng = random.Random(67)
        for offset in range(16):
            for length in (7, 8, 9, 12, 20):
                for letter in LETTERS:
                    prefix = tuple(rng.choice(LETTERS) for _ in range(offset))
                    suffix = tuple(rng.choice(LETTERS) for _ in range(rng.randrange(17)))
                    w = BraidWord(prefix + (letter,) * length + suffix)
                    assert project(w) == old_project(w), w
                    u = BraidWord(prefix + (letter,) * length)
                    w = concat(concat(u, BraidWord(suffix)), inverse(u))
                    assert project(w) == old_project(w), w

    def test_tails_of_zero_to_seven_letters(self):
        rng = random.Random(71)
        for pairs in range(4):
            for tail in range(8):
                for _ in range(25):
                    w = BraidWord(tuple(rng.choice(LETTERS) for _ in range(8 * pairs + tail)))
                    assert project(w) == old_project(w), w

    def test_the_pair_table_is_empty_at_import(self):
        script = "import gofknots.modular as m; print(len(m._PAIR_IMAGES))"
        env = dict(os.environ, PYTHONPATH=str(Path(modular.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout == "0\n", done.stderr

    def test_pair_keys_are_pairs_of_the_61_block_images(self):
        rng = random.Random(73)
        for _ in range(200):
            project(BraidWord(tuple(rng.choice(LETTERS) for _ in range(rng.randrange(8, 400)))))
        blocks = (int.from_bytes(bytes(block), sys.byteorder) for block in product(LETTER_BYTES, repeat=4))
        block_images = set(map(modular._BLOCK_IMAGES.__getitem__, blocks))
        assert len(block_images) == 61
        assert 0 < len(modular._PAIR_IMAGES) <= 61 * 61
        for first, second in modular._PAIR_IMAGES:
            assert first in block_images and second in block_images


def _line_events(function, w):
    """Line events of every Python frame run by ``function(w)``.

    The collector is off while the call is traced: a collection inside it
    would run the Python callbacks in ``gc.callbacks`` (hypothesis installs
    one) and count their lines too, at whichever call the allocation count
    happens to trip it."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(lambda frame, event, arg: local)
    try:
        function(w)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


def two_long_runs_of_one_letter(m):
    """s1^m s2 s1^m s2^-1: the second long run of s1 is found from where the
    first ended, not by steps of eight letters."""
    return BraidWord((1,) * m + (2,) + (1,) * m + (-2,))


@pytest.mark.parametrize("function", [project, represent], ids=["project", "represent"])
def test_steps_per_run_do_not_grow_with_the_run(function):
    for family in (periodic, two_long_runs_of_one_letter):
        assert _line_events(function, family(10)) == _line_events(function, family(100_000)), family


def test_a_periodic_verdict_costs_the_same_steps_for_any_period():
    # The projection, the search for the ends that cancel (none do, so the
    # first comparison ends it) and the rotation test each take a fixed
    # number of steps; bisecting from the middle took a step per halving.
    def verdict(w):
        return are_conjugate(w, w)

    assert verdict(periodic(100_000))
    assert _line_events(verdict, periodic(10)) == _line_events(verdict, periodic(100_000))


def test_a_closure_decision_past_four_runs_costs_one_reduction_and_fixed_steps():
    # (s1 s2^-1)^m has the core (L R)^m, 2m runs: no trace, no candidate,
    # and past its one reduction the decision takes the same steps for 10
    # runs as for 10,000, since the runs are counted at C speed.
    def extra(w):
        return _line_events(is_two_bridge_closure, w) - _line_events(project, w)

    def alternating(m):
        return BraidWord((1, -2) * m)

    assert is_two_bridge_closure(alternating(5_000)) is None
    assert extra(alternating(5)) == extra(alternating(5_000))


def test_a_random_word_costs_one_step_per_four_letters():
    # One step per block of four letters, each with its seam reduction well
    # under 16 line events; walking runs took one step per run, some 3,000
    # steps here at about 38 line events per four letters.
    rng = random.Random(41)
    w = BraidWord(tuple(rng.choice(LETTERS) for _ in range(4000)))
    project(w)  # every block image is made on first use, so make them first
    assert _line_events(project, w) <= 16 * len(w) // 4


def test_a_random_word_costs_one_step_per_eight_letters():
    # One step per pair of blocks, each with its seam reduction well under
    # 16 line events; a step per block of four would take about 10,000.
    rng = random.Random(41)
    w = BraidWord(tuple(rng.choice(LETTERS) for _ in range(4000)))
    project(w)  # every block and pair image is made on first use, so make them first
    assert _line_events(project, w) <= 8_000


def test_equality_costs_two_projections_and_no_matrix():
    # Two projections of some 5,800 line events each; comparing matrices
    # took a step per run of the word, 41,849 line events here.
    rng = random.Random(41)
    w = BraidWord(tuple(rng.choice(LETTERS) for _ in range(4000)))
    project(w)  # every block and pair image is made on first use, so make them first
    assert _line_events(lambda word: equal_in_b3(word, word), w) <= 16_000


def test_the_cyclic_core_costs_a_few_steps_however_many_ends_cancel():
    # Doubling, then bisection, takes a step per doubling and per halving,
    # some 21 here; stripping one pair of ends per step took one step per
    # pair, thousands here.
    rng = random.Random(43)
    g = BraidWord(tuple(rng.choice(LETTERS) for _ in range(5000)))
    syllables = project(conjugate_by(periodic(3), g)).syllables
    assert len(syllables) - len(_cyclic_core(syllables)) > 2000
    assert _line_events(_cyclic_core, syllables) <= 200
