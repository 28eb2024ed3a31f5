"""The braid-index certificates of standard-form closures, swept over
p, q up to 10**6, far past the reference searches of test_twobridge."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gofknots.twobridge import (  # noqa: E402
    fraction_from_conway,
    mirror_two_bridge,
    murasugi_braid_index,
    normalize_two_bridge,
    stoimenow_form,
)

exponents = st.integers(1, 10**6)


@hypothesis.example(1, 1)
@hypothesis.given(exponents, exponents)
def test_closures_of_standard_forms(p, q):
    # the closure of standard_form(p, q) is b(2pq+p+q, 2q+1)
    alpha = 2 * p * q + p + q
    form = normalize_two_bridge(alpha, 2 * q + 1)
    assert murasugi_braid_index(form) == (2 if (p, q) == (1, 1) else 3)
    found = stoimenow_form(form)
    assert found is not None and found[1] == 2
    least, _, other = found
    assert (2 * least + 1) * (2 * other + 1) == 2 * alpha + 1
    assert 1 <= least <= min(p, q)
    value = normalize_two_bridge(*fraction_from_conway(found))
    assert value in (form, mirror_two_bridge(form))


@hypothesis.given(exponents, exponents)
def test_second_clause_of_the_braid_index(p, q):
    # alpha - 1 = p(2q+1) + q: (2p+1)(2q+1) = 2 alpha - 1, and 2q+1 is
    # never +-1 mod alpha
    alpha = 2 * p * q + p + q + 1
    assert murasugi_braid_index(normalize_two_bridge(alpha, 2 * q + 1)) == 3
