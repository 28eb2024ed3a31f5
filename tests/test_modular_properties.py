"""The central quotient, swept over random words: the cyclic normal form is
a conjugacy invariant, the conjugacy decision accepts every conjugate and
is symmetric, projected words are bytes and rebuild unchanged from any
sequence type, the cyclic core found by doubling and bisection agrees with
the pair-by-pair reference, and equality in the quotient agrees with the
matrix decision."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.modular import (  # noqa: E402
    X,
    Y,
    Y2,
    FreeProductWord,
    _cyclic_core,
    are_conjugate,
    cyclic_normal_form,
    equal_in_b3,
    project,
)
from gofknots.words import BraidWord, conjugate_by  # noqa: E402

from oracles import matrix_equal_in_b3, old_cyclic_core  # noqa: E402

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


@st.composite
def reduced_words(draw):
    """Reduced syllable words of either parity, X at either end or not."""
    ys = draw(st.lists(st.sampled_from((Y, Y2)), max_size=20))
    lead, trail = draw(st.booleans()), draw(st.booleans())
    if not ys:
        return bytes((X,)) if lead else b""
    syllables = [X] if lead else []
    for y in ys:
        syllables += [y, X]
    return bytes(syllables if trail else syllables[:-1])


@hypothesis.given(words, words)
def test_the_core_of_a_conjugate_agrees_with_the_reference(w, g):
    for word in (w, conjugate_by(w, g)):
        syllables = project(word).syllables
        assert _cyclic_core(syllables) == old_cyclic_core(syllables)


@hypothesis.given(reduced_words())
def test_the_core_of_a_reduced_word_agrees_with_the_reference(syllables):
    FreeProductWord(syllables)  # reduced
    assert _cyclic_core(syllables) == old_cyclic_core(syllables)


# the empty block, the relator s1 s2 s1 (s2 s1 s2)^-1, two cancelling pairs,
# and the central words (s1 s2)^3 and (s1 s2)^6
blocks = st.sampled_from(((), (1, 2, 1, -2, -1, -2), (1, -1), (2, -2), (1, 2) * 3, (1, 2) * 6))


@hypothesis.given(words, words, blocks, st.integers(min_value=0, max_value=30))
def test_equality_agrees_with_the_matrix_decision(u, v, block, at):
    at %= len(u) + 1
    padded = BraidWord(u.letters[:at] + block + u.letters[at:])
    assert equal_in_b3(u, v) == matrix_equal_in_b3(u, v)
    assert equal_in_b3(u, padded) == matrix_equal_in_b3(u, padded)
