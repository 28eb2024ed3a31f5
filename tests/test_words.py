"""Word-level algebra: parsing, formatting, and the generating families."""

import random

import pytest

from gofknots.burau import represent
from gofknots.words import (
    BraidParseError,
    BraidWord,
    beta,
    concat,
    conjugate_by,
    exponent_sum,
    format_braid,
    inverse,
    mirror,
    parse_braid,
    standard_form,
)

from oracles import free_reduce, scramble


class TestParseFormat:
    def test_single_letters(self):
        assert parse_braid("a A b B").letters == (1, -1, 2, -2)

    def test_power_tokens(self):
        assert parse_braid("s1^3").letters == (1, 1, 1)
        assert parse_braid("s2^-2").letters == (-2, -2)

    def test_bare_power_token_means_exponent_one(self):
        assert parse_braid("s1 s2").letters == (1, 2)

    def test_mixed_grammars(self):
        assert parse_braid("B s1^2 b b a").letters == (-2, 1, 1, 2, 2, 1)

    def test_empty_string_is_identity(self):
        assert parse_braid("") == BraidWord()
        assert parse_braid("   ") == BraidWord()

    def test_format_round_trip(self):
        for text in ("a b a", "B A B B A B B A B a a a a a", ""):
            assert format_braid(parse_braid(text)) == text

    def test_parse_format_round_trip_on_random_words(self):
        rng = random.Random(11)
        for _ in range(50):
            letters = tuple(
                rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, 30))
            )
            word = BraidWord(letters)
            assert parse_braid(format_braid(word)) == word

    @pytest.mark.parametrize(
        "bad",
        ["xyz", "c", "s3", "s0", "s1^0", "s1^", "a^2", "-1", "s01^2", "s02", "s1^\u0663", "s\u0662^-1"],
    )
    def test_malformed_tokens_rejected(self, bad):
        with pytest.raises(BraidParseError):
            parse_braid(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("s01^2", "generator index out of range in token 's01^2'"),
            ("s3", "generator index out of range in token 's3'"),
            ("s1^\u0663", "malformed token 's1^\u0663'"),
            ("s\u0662^-1", "malformed token 's\u0662^-1'"),
        ],
    )
    def test_error_names_the_token(self, bad, message):
        with pytest.raises(BraidParseError) as excinfo:
            parse_braid(bad)
        assert str(excinfo.value) == message

    def test_parse_error_is_a_value_error(self):
        assert issubclass(BraidParseError, ValueError)

    @pytest.mark.parametrize(
        "text",
        [
            "s1^1000000000",
            "s2^-10000001",
            "a a a s1^9999998",
            # int() itself refuses strings over 4,300 digits with its own message
            pytest.param("s1^" + "9" * 5000, id="s1^<5000 nines>"),
            pytest.param("s2^-" + "9" * 5000, id="s2^-<5000 nines>"),
        ],
    )
    def test_power_tokens_past_the_letter_budget_are_refused(self, text):
        # refused before the letters are built, so the huge values cost nothing
        with pytest.raises(BraidParseError) as excinfo:
            parse_braid(text)
        token = text.split()[-1]
        assert str(excinfo.value) == f"token {token!r} makes the word longer than 10000000 letters"

    def test_leading_zeros_do_not_count_against_the_budget(self):
        assert parse_braid("s1^0000000000001") == parse_braid("a")
        assert parse_braid("s2^-000000000000003").letters == (-2, -2, -2)
        with pytest.raises(BraidParseError, match="^zero exponent"):
            parse_braid("s1^-0000000000000")


class TestBraidWord:
    def test_letters_are_validated(self):
        with pytest.raises(ValueError):
            BraidWord((3,))
        with pytest.raises(ValueError):
            BraidWord((0,))
        with pytest.raises(ValueError, match="^invalid braid letter 3$"):
            BraidWord((1, -2, 3, 0))

    def test_sequence_input_is_coerced_to_tuple(self):
        assert BraidWord([1, -2]).letters == (1, -2)

    def test_len_and_str(self):
        word = parse_braid("a B a")
        assert len(word) == 3
        assert str(word) == "a B a"
        assert len(BraidWord()) == 0


class TestFreeAlgebra:
    def test_concat(self):
        assert concat(parse_braid("a b"), parse_braid("B")).letters == (1, 2, -2)

    def test_inverse_reverses_and_flips(self):
        assert inverse(parse_braid("a b B a")).letters == (-1, 2, -2, -1)
        word = parse_braid("a b a B")
        assert free_reduce(concat(word, inverse(word))) == BraidWord()

    def test_mirror_flips_in_place(self):
        assert mirror(parse_braid("a b A")).letters == (-1, -2, 1)
        word = beta(-3, 5)
        assert mirror(mirror(word)) == word

    def test_mirror_of_beta(self):
        assert mirror(beta(1, 3)) == beta(-1, -3)

    def test_conjugate_by(self):
        word = conjugate_by(parse_braid("a"), parse_braid("b"))
        assert word.letters == (2, 1, -2)

    def test_free_reduce(self):
        assert free_reduce(parse_braid("a A b B a")).letters == (1,)
        assert free_reduce(parse_braid("a b B A")) == BraidWord()
        # only free cancellation: the braid relation is not applied
        assert free_reduce(parse_braid("a b a")).letters == (1, 2, 1)

    def test_exponent_sum(self):
        assert exponent_sum(parse_braid("a b B A")) == 0
        assert exponent_sum(beta(-3, 5)) == -4
        assert exponent_sum(standard_form(2, -3)) == 0

    def test_exponent_sum_equals_the_sum_of_letter_signs(self):
        def sign_sum(word):
            return sum(1 if letter > 0 else -1 for letter in word.letters)

        rng = random.Random(10)
        for _ in range(5000):
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, 61)))
            word = BraidWord(letters)
            assert exponent_sum(word) == sign_sum(word), word
        for k in range(-9, 10, 2):
            for n in range(-30, 31):
                assert exponent_sum(beta(k, n)) == sign_sum(beta(k, n)) == 3 * k + n


class TestWordFamilies:
    def test_beta_layout(self):
        assert beta(1, 2).letters == (2, 1, 2, 1, 1)
        assert beta(-1, 1).letters == (-2, -1, -2, 1)
        assert beta(0, 3).letters == (1, 1, 1)
        assert beta(2, 0).letters == (2, 1, 2, 2, 1, 2)
        assert beta(1, -2).letters == (2, 1, 2, -1, -1)

    def test_beta_past_the_letter_budget_is_refused(self):
        with pytest.raises(ValueError, match=r"^beta\(1000000000, 0\) has 3000000000 letters"):
            beta(10**9, 0)
        with pytest.raises(ValueError, match="more than 10000000$"):
            beta(-1, 9999998)

    def test_standard_form_past_the_letter_budget_is_refused(self):
        # eight letters of slack over the budget: see the classify test
        # test_words_at_the_letter_budget_are_decided
        with pytest.raises(ValueError, match=r"^standard_form\(100000000, 0\) has 100000003 letters"):
            standard_form(10**8, 0)
        with pytest.raises(ValueError, match="has 10000009 letters, more than 10000008$"):
            standard_form(-5000003, 5000003)

    def test_beta_length_and_exponent_sum(self):
        for k in range(-5, 6):
            for n in range(-7, 8):
                word = beta(k, n)
                assert len(word) == 3 * abs(k) + abs(n)
                assert exponent_sum(word) == 3 * k + n

    def test_standard_form_layout(self):
        assert standard_form(2, 1).letters == (-2, 1, 1, 2, 2, 1)
        assert standard_form(-1, -2).letters == (-2, -1, 2, 2, -1, -1)
        assert standard_form(0, 0).letters == (-2, 2, 2)

    # c full twists squared are prepended as beta(4 * c, 0): (s2 s1 s2)^4 is
    # central with matrix I, so the word's matrix is kept and e moves by 12c

    def test_insert_full_twists(self):
        word = parse_braid("a b A")
        twisted = concat(beta(4 * 2, 0), word)
        assert len(twisted) == len(word) + 24
        assert twisted.letters[:6] == (2, 1, 2, 2, 1, 2)
        assert twisted.letters[-3:] == word.letters
        assert exponent_sum(twisted) == exponent_sum(word) + 24
        assert represent(twisted) == represent(word)

    def test_insert_full_twists_negative_count(self):
        word = parse_braid("a")
        twisted = concat(beta(4 * -1, 0), word)
        assert twisted.letters[:3] == (-2, -1, -2)
        assert exponent_sum(twisted) == exponent_sum(word) - 12
        assert represent(twisted) == represent(word)

    def test_insert_zero_twists_is_identity_operation(self):
        word = parse_braid("a b")
        assert concat(beta(4 * 0, 0), word) == word


class TestScramble:
    def test_deterministic_under_seed(self):
        word = beta(1, 3)
        assert scramble(word, 7, 20) == scramble(word, 7, 20)
        assert scramble(word, 7, 20) != scramble(word, 8, 20)

    def test_zero_steps_returns_word(self):
        word = beta(1, 3)
        assert scramble(word, 7, 0) == word

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            scramble(BraidWord(), 0, -1)

    def test_length_grows_by_inserted_blocks(self):
        word = parse_braid("a b A")
        scrambled = scramble(word, 13, 20)
        assert len(scrambled) > len(word)
        assert exponent_sum(scrambled) == exponent_sum(word)
