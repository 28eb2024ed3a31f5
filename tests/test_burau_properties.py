"""The matrix image, swept over random words: it is a homomorphism, so a
generator run that straddles the seam of two words is read correctly; and
over far-out cells, where beta(k, n) maps to eps(k) C_n."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.burau import SL2Matrix, represent, trace  # noqa: E402
from gofknots.words import BraidWord, beta, concat  # noqa: E402

words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=30).map(
    lambda letters: BraidWord(tuple(letters))
)


@hypothesis.given(words, words)
def test_represent_is_multiplicative(u, v):
    assert represent(concat(u, v)) == represent(u) * represent(v)


@hypothesis.settings(deadline=None)
@hypothesis.given(
    st.integers(-50_000, 49_999).map(lambda j: 2 * j + 1), st.integers(-100_000, 100_000)
)
def test_beta_maps_to_eps_c_n(k, n):
    # the closed form classify_gof reads its candidates from:
    # represent(beta(k, n)) = eps C_n, C_n = [[0, 1], [-1, -n]]
    eps = (-1) ** abs((k - 1) // 2)
    assert represent(beta(k, n)) == SL2Matrix(0, eps, -eps, -eps * n)
    assert trace(beta(k, n)) == -eps * n
