"""The candidate quadratic, swept over exponent sums and traces near
perfect squares up to 10**12."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.classify import _pairs  # noqa: E402
from oracles import old_pairs  # noqa: E402


@hypothesis.given(
    st.integers(-10**12, 10**12), st.integers(0, 10**12), st.integers(-2, 2)
)
def test_pairs_match_the_sigma_quadratic_near_squares(e, root, offset):
    # tr puts e^2 + 2tr - 5 on root^2 when root and e differ in parity
    # and offset is 0, and next to it otherwise
    tr = (root * root - e * e + 5) // 2 + offset
    pairs = _pairs(e, tr)
    assert pairs == old_pairs(e, tr)
    if offset == 0 and (root + e) % 2:
        assert len(pairs) == (1 if root == 0 else 2)
    for p, q in pairs:
        assert p + q + 1 == e and 2 * p * q + p + q == 2 - tr
