"""Word-level algebra: parsing, formatting, and the generating families."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gofknots import words
from gofknots.burau import represent
from gofknots.modular import project
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

from oracles import free_reduce, old_parse_braid, old_represent, scramble


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

    def test_single_letters_past_the_letter_budget_are_refused(self, monkeypatch):
        # every parsed word is within the budget, however it is spelled
        monkeypatch.setattr(words, "_MAX_LETTERS", 20)
        assert len(parse_braid("A" + " B" * 19)) == 20
        for text in ["A" + " B" * 30, "A s2^-19 b", "a " * 21]:
            with pytest.raises(BraidParseError, match="more than 20"):
                parse_braid(text)
        with pytest.raises(BraidParseError, match="^the word has 31 letters, more than 20$"):
            parse_braid("A" + " B" * 30)

    def test_a_power_past_the_budget_is_named_before_a_later_bad_token(self, monkeypatch):
        # tokens are judged in order, with the budget read at the power token
        monkeypatch.setattr(words, "_MAX_LETTERS", 10)
        text = "a b s1^11 A ab s3"
        message = "token 's1^11' makes the word longer than 10 letters"
        for parse in (parse_braid, old_parse_braid):
            with pytest.raises(BraidParseError, match=f"^{re.escape(message)}$"):
                parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a b ab s1", "malformed token 'ab'"),
            ("a s1^2 b B x A", "malformed token 'x'"),
            ("s2^-3 A\tas1", "malformed token 'as1'"),
            ("a \u00e9 b", "malformed token '\u00e9'"),
            ("A s", "malformed token 's'"),
            ("b s1^ a", "malformed token 's1^'"),
            # a lone surrogate, as os.fsdecode makes of a byte that is no UTF-8
            ("a \udcff b", "malformed token '\\udcff'"),
            ("s1^2 s\udcff a", "malformed token 's\\udcff'"),
        ],
    )
    def test_a_bad_stretch_names_its_first_bad_token(self, text, message):
        with pytest.raises(BraidParseError, match=f"^{re.escape(message)}$"):
            parse_braid(text)

    def test_leading_zeros_do_not_count_against_the_budget(self):
        assert parse_braid("s1^0000000000001") == parse_braid("a")
        assert parse_braid("s2^-000000000000003").letters == (-2, -2, -2)
        with pytest.raises(BraidParseError, match="^zero exponent"):
            parse_braid("s1^-0000000000000")

    @pytest.mark.parametrize(
        "text",
        [
            "a  b",
            " a",
            "a ",
            "s1^2  A",
            "a\tb",
            "a\r\nb",
            "a\x0bb\x0cA",
            "a\x1cb",
            "s1^2\x1db\x1eA\x1fs2",
            "a\u3000s1",
        ],
    )
    def test_text_not_in_normal_form_is_split_as_str_split_splits_it(self, text):
        assert parse_braid(text) == old_parse_braid(text)

    def test_the_power_memo_holds_canonical_small_exponents_only(self, monkeypatch):
        monkeypatch.setattr(words, "_POWERS", {})
        text = "s1^3 s1^03 s1^003 s2^-65 s1^1000 s2 s2^-64"
        assert parse_braid(text) == old_parse_braid(text)
        assert words._POWERS == {b"1^3": b"\x01" * 3, b"2": b"\x02", b"2^-64": b"\xfe" * 64}
        assert parse_braid(text) == old_parse_braid(text)  # read from the memo

    def test_the_power_memo_is_empty_at_import(self):
        script = "import gofknots.words as w; print(len(w._POWERS))"
        env = dict(os.environ, PYTHONPATH=str(Path(words.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout == "0\n", done.stderr

    def test_a_power_from_the_memo_still_meets_the_budget(self, monkeypatch):
        parse_braid("s1^3 s2^-2")  # both in the memo
        monkeypatch.setattr(words, "_MAX_LETTERS", 10)
        assert words._POWERS[b"1^3"] == b"\x01" * 3
        assert len(parse_braid("a a a a a a a s1^3")) == 10
        for text in ("a a a a a a a a s1^3", "s2^-2 b b b b b b s1^3 a", "A s1^3 s1^3 s1^3 s2^-2"):
            outcomes = []
            for parse in (parse_braid, old_parse_braid):
                with pytest.raises(BraidParseError) as excinfo:
                    parse(text)
                outcomes.append(str(excinfo.value))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0].endswith("makes the word longer than 10 letters")


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

    @pytest.mark.parametrize("letter, stored", [(True, 1), (1.0, 1), (-2.0, -2)])
    def test_a_letter_is_read_as_the_int_it_equals(self, letter, stored):
        word = BraidWord((2, letter))
        assert [type(each) for each in word.letters] == [int, int]
        assert repr(word) == f"BraidWord(letters=(2, {stored}))"
        assert word == BraidWord((2, stored))
        assert word.letter_bytes == BraidWord((2, stored)).letter_bytes

    @pytest.mark.parametrize("letter", [3, 0, -3, 10**30, -(10**30), "a", 1.5, None, [1]])
    def test_a_letter_equal_to_no_letter_is_refused(self, letter):
        with pytest.raises(ValueError, match=f"^invalid braid letter {re.escape(repr(letter))}$"):
            BraidWord((1, -2, letter, 2))

    def test_the_first_bad_letter_is_named(self):
        with pytest.raises(ValueError, match="^invalid braid letter 3$"):
            BraidWord((1.0, 3, "a"))
        with pytest.raises(ValueError, match="^invalid braid letter 'a'$"):
            BraidWord((1, "a", 3))
        with pytest.raises(ValueError, match="^invalid braid letter 255$"):
            BraidWord(bytes((1, 255)))  # bytes are read as the ints they hold

    def test_the_byte_view_holds_one_signed_byte_per_letter(self):
        word = parse_braid("a A b B s1^2")
        assert word.letter_bytes == bytes((1, 255, 2, 254, 1, 1))
        assert BraidWord().letter_bytes == b""
        assert "letter_bytes" not in vars(word)  # a slot: eq, hash and repr never see it
        with pytest.raises(AttributeError):
            word.letter_bytes = b""

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [lambda w, protocol=protocol: pickle.loads(pickle.dumps(w, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
        ids=["copy", "deepcopy"] + [f"pickle-{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copies_rebuild_the_byte_view(self, clone):
        word = parse_braid("a b B s1^9 A s2^-3")
        twin = clone(word)
        assert twin == word
        assert repr(twin) == repr(word)
        assert hash(twin) == hash(word)
        assert twin.letter_bytes == word.letter_bytes
        assert project(twin) == project(word)

    def test_a_parsed_word_keeps_one_byte_per_letter(self):
        # The letter bytes are the word's one copy of its letters; a tuple
        # of ints beside them would keep 8 more bytes per letter.
        text = " ".join(["a", "B"] * 500_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            word = parse_braid(text)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(word) == 1_000_000
        assert kept <= 1.1 * len(word)

    def test_letters_are_unpacked_from_the_bytes_on_each_read(self):
        word = parse_braid("a A b B s1^3 s2^-2")
        assert word.letters == (1, -1, 2, -2, 1, 1, 1, -2, -2)
        assert word.letters == word.letters and word.letters is not word.letters
        assert BraidWord.letters == ()  # the field's default
        assert vars(word) == {}
        rng = random.Random(83)
        for _ in range(200):
            runs = [(rng.choice((1, -1, 2, -2)), rng.choice((1, 2, 5, 40))) for _ in range(rng.randrange(9))]
            word = BraidWord(tuple(letter for letter, count in runs for _ in range(count)))
            assert represent(word) == old_represent(word)
            assert represent(parse_braid(str(word))) == old_represent(word)

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
