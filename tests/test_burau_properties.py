"""The matrix image, swept over random words: it is a homomorphism, so a
generator run that straddles the seam of two words is read correctly."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.burau import represent  # noqa: E402
from gofknots.words import BraidWord, concat  # noqa: E402

words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=30).map(
    lambda letters: BraidWord(tuple(letters))
)


@hypothesis.given(words, words)
def test_represent_is_multiplicative(u, v):
    assert represent(concat(u, v)) == represent(u) * represent(v)
