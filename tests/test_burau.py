"""Matrix images, homology orders, and the trace trichotomy."""

import random

import pytest

from gofknots import burau
from gofknots.burau import (
    SL2Matrix,
    classify_monodromy,
    homology_order,
    represent,
    trace,
)
from gofknots.modular import equal_in_b3
from gofknots.words import (
    BraidWord,
    beta,
    concat,
    inverse,
    parse_braid,
    standard_form,
)


def random_word(rng, max_len=40):
    return BraidWord(
        tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, max_len)))
    )


# Reference implementation: one validated matrix product per letter, against
# which the run-by-run column operations of represent are compared.
_REFERENCE_IMAGES = {
    1: SL2Matrix(1, 1, 0, 1),
    -1: SL2Matrix(1, -1, 0, 1),
    2: SL2Matrix(1, 0, -1, 1),
    -2: SL2Matrix(1, 0, 1, 1),
}


def reference_represent(w):
    matrix = SL2Matrix(1, 0, 0, 1)
    for letter in w.letters:
        matrix = matrix * _REFERENCE_IMAGES[letter]
    return matrix


def reference_homology_order(w):
    m = reference_represent(w)
    return abs((m.a - 1) * (m.d - 1) - m.b * m.c)


class TestSL2Matrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            SL2Matrix(1, 0, 0, 2)

    def test_multiplication_and_negation(self):
        j = SL2Matrix(0, 1, -1, 0)
        assert j * j == -SL2Matrix(1, 0, 0, 1)
        assert (-j).rows() == [[0, -1], [1, 0]]

    def test_trace_and_rows(self):
        m = SL2Matrix(2, 1, 1, 1)
        assert m.trace == 3
        assert m.rows() == [[2, 1], [1, 1]]


class TestRepresent:
    def test_generator_images(self):
        assert represent(parse_braid("a")).rows() == [[1, 1], [0, 1]]
        assert represent(parse_braid("b")).rows() == [[1, 0], [-1, 1]]
        assert represent(parse_braid("A")).rows() == [[1, -1], [0, 1]]
        assert represent(parse_braid("B")).rows() == [[1, 0], [1, 1]]

    def test_braid_relation_holds(self):
        assert represent(parse_braid("a b a")) == represent(parse_braid("b a b"))

    def test_half_twist_image_has_order_four(self):
        half_twist = represent(parse_braid("b a b"))
        assert half_twist.rows() == [[0, 1], [-1, 0]]
        assert half_twist * half_twist == -SL2Matrix(1, 0, 0, 1)
        assert represent(parse_braid("b a b b a b b a b b a b")) == SL2Matrix(1, 0, 0, 1)

    def test_inverse_words_invert_matrices(self):
        rng = random.Random(3)
        for _ in range(30):
            word = random_word(rng)
            assert represent(concat(word, inverse(word))) == SL2Matrix(1, 0, 0, 1)

    def test_determinant_one_on_random_words(self):
        rng = random.Random(5)
        for _ in range(200):
            m = represent(random_word(rng))
            assert m.a * m.d - m.b * m.c == 1


class TestAgainstPerLetterReference:
    def test_random_words(self):
        rng = random.Random(2026)
        for _ in range(5000):
            word = random_word(rng, 61)
            assert represent(word) == reference_represent(word), word
            assert homology_order(word) == reference_homology_order(word), word

    def test_acceptance_grid_of_beta_words(self):
        for k in range(-9, 10, 2):
            for n in range(-30, 31):
                word = beta(k, n)
                assert represent(word) == reference_represent(word), (k, n)

    def test_standard_forms(self):
        for p in range(-12, 13):
            for q in range(-12, 13):
                word = standard_form(p, q)
                assert represent(word) == reference_represent(word), (p, q)

    @pytest.mark.parametrize(
        "text",
        [
            "s1^3000 s2^-2000 s1^-1",
            "s2^-2500 a A a s1^1200 b B s2^7",
            "a a a A A b b B B B a",
            "s1^40 s1^-40 s2^13",
        ],
    )
    def test_long_and_mixed_runs(self, text):
        word = parse_braid(text)
        assert represent(word) == reference_represent(word)

    def test_one_validated_matrix_per_call(self, monkeypatch):
        built = []

        class CountingMatrix(SL2Matrix):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(burau, "SL2Matrix", CountingMatrix)
        represent(parse_braid("s1^300 s2^-200 a b A B"))
        assert len(built) == 1


class TestTraceAndHomology:
    def test_trace_of_beta_one_n_is_minus_n(self):
        for n in range(-20, 21):
            assert trace(beta(1, n)) == -n

    def test_trace_frozen_values(self):
        assert trace(beta(1, 5)) == -5
        assert trace(beta(-3, 5)) == -5

    def test_homology_order_frozen_values(self):
        assert homology_order(beta(1, 3)) == 5
        assert homology_order(beta(-3, 5)) == 7
        assert homology_order(beta(3, 1)) == 1
        assert homology_order(standard_form(2, 2)) == 12

    def test_homology_order_of_standard_form_matches_closed_formula(self):
        # the closure of s2^-1 s1^p s2^2 s1^q is b(2pq+p+q, 2q+1)
        for p in range(-6, 7):
            for q in range(-6, 7):
                expected = abs(2 * p * q + p + q)
                assert homology_order(standard_form(p, q)) == expected

    def test_homology_order_zero_for_unlink_rows(self):
        assert homology_order(beta(1, -2)) == 0
        assert homology_order(beta(-1, 2)) == 0

    def test_homology_order_is_a_conjugacy_invariant(self):
        rng = random.Random(9)
        for _ in range(50):
            word = random_word(rng, 20)
            g = random_word(rng, 8)
            conjugated = concat(concat(g, word), inverse(g))
            assert homology_order(conjugated) == homology_order(word)

    def test_full_twists_preserve_matrix_image(self):
        word = beta(1, 3)
        assert represent(concat(beta(12, 0), word)) == represent(word)


class TestMonodromy:
    def test_trichotomy_on_beta_family(self):
        assert classify_monodromy(beta(1, 5)) == "pseudo-Anosov"
        assert classify_monodromy(beta(1, 2)) == "reducible"
        assert classify_monodromy(beta(1, -2)) == "reducible"
        assert classify_monodromy(beta(1, 1)) == "periodic"
        assert classify_monodromy(beta(1, 0)) == "periodic"

    def test_plus_and_minus_identity_are_periodic(self):
        # trace +-2 with b = c = 0 is +-I: the identity and the
        # hyperelliptic involution, of finite order, not reducible
        for text, sign in (("", 1), ("a b a b a b", -1), ("a b a b a b a b a b a b", 1)):
            word = parse_braid(text)
            assert represent(word) == SL2Matrix(sign, 0, 0, sign)
            assert classify_monodromy(word) == "periodic", text

    def test_pseudo_anosov_iff_large_trace(self):
        for n in range(-20, 21):
            expected = "pseudo-Anosov" if abs(n) > 2 else (
                "reducible" if abs(n) == 2 else "periodic"
            )
            assert classify_monodromy(beta(1, n)) == expected


class TestEquality:
    def test_braid_relation_words_are_equal(self):
        assert equal_in_b3(parse_braid("a b a"), parse_braid("b a b"))

    def test_distinct_generators_are_not_equal(self):
        assert not equal_in_b3(parse_braid("a"), parse_braid("b"))

    def test_central_powers_are_separated_by_exponent_sum(self):
        # (b a b)^4 maps to the identity matrix but is not the identity braid
        full_twist_squared = parse_braid("b a b b a b b a b b a b")
        assert represent(full_twist_squared) == SL2Matrix(1, 0, 0, 1)
        assert not equal_in_b3(full_twist_squared, BraidWord())

    def test_free_insertion_preserves_equality(self):
        u = parse_braid("a b a B")
        v = parse_braid("a b b B a B")
        assert equal_in_b3(u, v)
