"""Word algebra, swept over random words: formatting and parsing
round-trip, the parser agrees with the token-by-token reference on any
token stream, the word builders agree with their letter-by-letter
references, scrambling keeps the braid, and the two-bridge verdict is a
conjugacy invariant."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.classify import is_two_bridge_closure  # noqa: E402
from gofknots.modular import are_conjugate, equal_in_b3  # noqa: E402
from gofknots.words import (  # noqa: E402
    BraidWord,
    concat,
    conjugate_by,
    format_braid,
    inverse,
    mirror,
    parse_braid,
    standard_form,
)

from oracles import (  # noqa: E402
    matrix_equal_in_b3,
    old_format_braid,
    old_inverse,
    old_mirror,
    old_parse_braid,
    scramble,
)

words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=30).map(
    lambda letters: BraidWord(tuple(letters))
)
small = st.integers(min_value=-8, max_value=8)
# random words are rarely two-bridge, so standard forms supply the hits
closures = st.one_of(words, st.builds(standard_form, small, small))
tokens = st.one_of(
    st.sampled_from(("a", "A", "b", "B", "s1", "s2")),
    st.builds(
        "s{}^{}".format,
        st.sampled_from((1, 2)),
        st.integers(min_value=-5, max_value=5).filter(bool),
    ),
)


@hypothesis.given(words)
def test_format_then_parse_is_the_identity(w):
    assert parse_braid(format_braid(w)) == w


@hypothesis.given(st.lists(tokens, max_size=12))
def test_parse_then_format_keeps_every_letter(parts):
    w = parse_braid(" ".join(parts))
    assert parse_braid(format_braid(w)) == w


@hypothesis.given(words, st.integers(min_value=0), st.integers(min_value=0, max_value=20))
def test_scramble_keeps_the_braid_and_its_class(w, seed, steps):
    scrambled = scramble(w, seed, steps)
    assert equal_in_b3(scrambled, w)
    assert matrix_equal_in_b3(scrambled, w)
    assert are_conjugate(scrambled, w)


@hypothesis.given(closures, words)
def test_conjugating_keeps_the_two_bridge_verdict(w, g):
    assert is_two_bridge_closure(conjugate_by(w, g)) == is_two_bridge_closure(w)


# Token streams for the parser: every token form of the grammar, powers
# spelled with leading zeros, minus signs and -0, malformed tokens, and the
# whitespace str.split() reads as a separator.
powers = st.builds(
    "s{}^{}{}{}".format,
    st.sampled_from((1, 2)),
    st.sampled_from(("", "-")),
    st.sampled_from(("", "0", "00")),
    st.integers(min_value=0, max_value=12),
)
stream_tokens = st.one_of(
    st.sampled_from(("a", "A", "b", "B", "s1", "s2")),
    powers,
    st.sampled_from(("ab", "as1", "s", "s3", "s01", "s1^", "x", "\u00e9")),
)
separators = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u3000", min_size=1, max_size=3)


@st.composite
def token_streams(draw):
    parts = draw(st.lists(stream_tokens, max_size=16))
    gaps = draw(st.lists(separators, min_size=len(parts) + 1, max_size=len(parts) + 1))
    if draw(st.booleans()):  # no leading or trailing whitespace
        gaps[0] = gaps[-1] = ""
    return "".join(gap + part for gap, part in zip(gaps, parts + [""]))


def _outcome(parse, text):
    try:
        return parse(text).letters
    except Exception as exc:  # the kind and message are what is compared
        return type(exc), str(exc)


@hypothesis.given(token_streams())
def test_parser_agrees_with_the_token_by_token_reference(text):
    assert _outcome(parse_braid, text) == _outcome(old_parse_braid, text)


@hypothesis.given(words, words)
def test_word_builders_agree_with_the_letter_by_letter_references(u, v):
    # the words strategy draws the empty word too
    assert inverse(u) == old_inverse(u)
    assert mirror(u) == old_mirror(u)
    assert format_braid(u) == old_format_braid(u)
    assert concat(u, v) == BraidWord(u.letters + v.letters)
