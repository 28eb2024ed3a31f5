"""The block projection and the run-wise matrix, swept over words made of
runs: long runs, runs of 1 to 12 letters at every offset from a block
edge, pieces at every offset from a pair of blocks, blocks whose images
are empty or cancel whole, runs that cancel earlier runs, the empty word,
single letters and the periodic family s1^m s2^-1 under random
conjugators all give what the letter-by-letter references give."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.burau import represent  # noqa: E402
from gofknots.modular import project  # noqa: E402
from gofknots.words import BraidWord, conjugate_by  # noqa: E402

from oracles import old_project, old_represent  # noqa: E402

LETTERS = (1, -1, 2, -2)
# mostly short runs, as random words have, and now and then a long one
run_lengths = st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=400))
runs = st.lists(st.tuples(st.sampled_from(LETTERS), run_lengths), max_size=8)
short_words = st.lists(st.sampled_from(LETTERS), max_size=6).map(lambda letters: BraidWord(tuple(letters)))


@st.composite
def run_words(draw):
    """A word of runs, then possibly a short middle and the inverse of a
    suffix, as in s1^m s1^-m and s1^m s2 s2^-1 s1^-m."""
    letters = tuple(letter for letter, count in draw(runs) for _ in range(count))
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=0, max_value=len(letters)))
        suffix = letters[len(letters) - cut:]
        letters += draw(short_words).letters + tuple(-letter for letter in reversed(suffix))
    return BraidWord(letters)


# runs on both sides of the long-run threshold, after 0 to 3 letters that
# shift them against the blocks of four
offsets = st.lists(st.sampled_from(LETTERS), max_size=3)
short_runs = st.lists(st.tuples(st.sampled_from(LETTERS), st.integers(min_value=1, max_value=12)), max_size=10)


@st.composite
def block_words(draw):
    """An offset, then runs of 1 to 12 letters, then possibly a short middle
    and the inverse of a suffix, so that inverse runs cancel across blocks."""
    letters = tuple(draw(offsets)) + tuple(letter for letter, count in draw(short_runs) for _ in range(count))
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=0, max_value=len(letters)))
        suffix = letters[len(letters) - cut:]
        letters += draw(short_words).letters + tuple(-letter for letter in reversed(suffix))
    return BraidWord(letters)


# pieces that meet at pair edges: blocks whose images are empty or cancel
# whole, long runs, random letters; after 0 to 7 letters that shift them
# against the pairs of blocks
blocks = st.tuples(*[st.sampled_from(LETTERS)] * 4)
pieces = st.one_of(
    st.just((1, -1, 2, -2)),
    blocks.map(lambda block: block + tuple(-letter for letter in reversed(block))),
    st.tuples(st.sampled_from(LETTERS), st.integers(min_value=8, max_value=20)).map(lambda run: (run[0],) * run[1]),
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=9).map(tuple),
)


@st.composite
def pair_words(draw):
    """An offset of 0 to 7 letters, then pieces, then 0 to 7 letters."""
    offset = draw(st.lists(st.sampled_from(LETTERS), max_size=7))
    tail = draw(st.lists(st.sampled_from(LETTERS), max_size=7))
    return BraidWord(tuple(offset) + sum(draw(st.lists(pieces, max_size=8)), ()) + tuple(tail))


@hypothesis.given(pair_words())
def test_pairs_of_blocks_match_the_letter_by_letter_reference(w):
    assert project(w) == old_project(w)


@hypothesis.given(block_words())
def test_blocks_match_the_letter_by_letter_reference(w):
    assert project(w) == old_project(w)


@hypothesis.given(run_words())
def test_projection_matches_the_letter_by_letter_reference(w):
    assert project(w) == old_project(w)


@hypothesis.given(run_words())
def test_matrix_matches_the_groupby_reference(w):
    assert represent(w) == old_represent(w)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.integers(min_value=1, max_value=20000), st.lists(st.sampled_from(LETTERS), max_size=40))
def test_periodic_family_under_a_random_conjugator(m, conjugator):
    w = conjugate_by(BraidWord((1,) * m + (-2,)), BraidWord(tuple(conjugator)))
    assert project(w) == old_project(w)
    assert represent(w) == old_represent(w)
