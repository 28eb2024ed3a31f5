"""Mirroring, swept over random words: the matrix is conjugated by
D = diag(1, -1), the homology order is kept, and the two-bridge verdict
moves to the mirror form."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.burau import SL2Matrix, homology_order, represent  # noqa: E402
from gofknots.classify import is_two_bridge_closure  # noqa: E402
from gofknots.twobridge import mirror_two_bridge, normalize_two_bridge  # noqa: E402
from gofknots.words import BraidWord, mirror  # noqa: E402

words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=30).map(
    lambda letters: BraidWord(tuple(letters))
)


@hypothesis.given(words)
def test_mirror_matrix_is_conjugated_by_diag_one_minus_one(w):
    m = represent(w)
    assert represent(mirror(w)) == SL2Matrix(m.a, -m.b, -m.c, m.d)


@hypothesis.given(words)
def test_mirror_keeps_homology_order(w):
    assert homology_order(mirror(w)) == homology_order(w)


@hypothesis.given(words)
def test_mirror_closure_is_the_mirror_form(w):
    direct = is_two_bridge_closure(w)
    flipped = is_two_bridge_closure(mirror(w))
    if direct is None:
        assert flipped is None
        return
    assert flipped is not None
    assert flipped[0] == mirror_two_bridge(direct[0])
    for form, (p, q) in (direct, flipped):
        assert normalize_two_bridge(2 * p * q + p + q, 2 * q + 1) == form
