"""The central quotient, swept over random words: the cyclic normal form is
a conjugacy invariant, the conjugacy decision accepts every conjugate and
is symmetric, and projected words are bytes and rebuild unchanged from
any sequence type."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.modular import FreeProductWord, are_conjugate, cyclic_normal_form, project  # noqa: E402
from gofknots.words import BraidWord, conjugate_by  # noqa: E402

words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=30).map(
    lambda letters: BraidWord(tuple(letters))
)


@hypothesis.given(words, st.integers(min_value=0, max_value=30))
def test_rotating_letters_keeps_the_normal_form(w, shift):
    shift %= len(w) + 1
    rotated = BraidWord(w.letters[shift:] + w.letters[:shift])
    assert cyclic_normal_form(project(rotated)) == cyclic_normal_form(project(w))


@hypothesis.given(words, words)
def test_conjugates_are_conjugate(w, g):
    assert are_conjugate(w, conjugate_by(w, g))


@hypothesis.given(words, words)
def test_conjugacy_is_symmetric(u, v):
    assert are_conjugate(u, v) == are_conjugate(v, u)


@hypothesis.given(words)
def test_projected_word_round_trips(w):
    fw = project(w)
    assert type(fw.syllables) is bytes
    assert type(cyclic_normal_form(fw).syllables) is bytes
    for form in (bytes, list, tuple, bytearray):
        assert FreeProductWord(form(fw.syllables)) == fw
