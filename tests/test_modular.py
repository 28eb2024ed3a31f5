"""The central quotient: syllable words, normal forms, conjugacy."""

import random
import re
from itertools import product

import pytest

from gofknots.burau import represent
from gofknots.modular import (
    X,
    Y,
    Y2,
    FreeProductWord,
    _cyclic_core,
    _is_rotation,
    are_conjugate,
    cyclic_normal_form,
    equal_in_b3,
    project,
)
from gofknots.words import (
    BraidWord,
    beta,
    concat,
    conjugate_by,
    exponent_sum,
    inverse,
    parse_braid,
    standard_form,
)

from oracles import (
    find_conjugator_brute,
    matrix_equal_in_b3,
    old_cyclic_core,
    old_is_rotation,
    old_project,
    psl_matrix,
    scramble,
)


INVERT = bytes.maketrans(bytes((Y, Y2)), bytes((Y2, Y)))


def words_up_to(length):
    """Every braid word of at most ``length`` letters."""
    for size in range(length + 1):
        for letters in product((1, -1, 2, -2), repeat=size):
            yield BraidWord(letters)


def alternating(rng, size, last_is_x):
    """A reduced syllable word of ``size`` syllables that ends in X or, if
    not ``last_is_x``, in a random Y-type."""
    return bytes(X if ((size - 1 - i) % 2 == 0) == last_is_x else rng.choice((Y, Y2)) for i in range(size))


def random_word(rng, max_len=30):
    return BraidWord(
        tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, max_len)))
    )


# Reference implementation: the plain quadratic algorithm (oracles.old_project
# pushes one syllable at a time; strip one wrap-around pair per slice, minimum
# over every rotation slice), against which the linear-time code is compared.
def reference_cyclic_normal_form(syllables):
    sylls = list(syllables)
    while len(sylls) >= 2 and (sylls[0] == X) == (sylls[-1] == X):
        first, last = sylls[0], sylls[-1]
        sylls = sylls[1:-1]
        if first == X:
            continue
        merged = (first + last) % 3
        if merged:
            sylls.append(merged)
    if len(sylls) <= 1:
        return bytes(sylls)
    doubled = bytes(sylls) * 2
    return min(doubled[i:i + len(sylls)] for i in range(len(sylls)))


def reference_are_conjugate(u, v):
    if exponent_sum(u) != exponent_sum(v):
        return False
    return reference_cyclic_normal_form(old_project(u).syllables) == reference_cyclic_normal_form(
        old_project(v).syllables
    )


class TestFreeProductWord:
    def test_rejects_invalid_syllables(self):
        with pytest.raises(ValueError):
            FreeProductWord((3,))
        # bytes input is checked on the bytes, other sequences entry by entry
        for syllables, bad in [
            ((X, 3), "3"),
            ((Y, -1, 5), "-1"),
            ((X, 300), "300"),
            ((Y, "a"), "'a'"),
            ((X, 1.5), "1.5"),
            (bytes((X, 3)), "3"),
            (b"\x01\x00\xff", "255"),
            (bytearray((Y, X, 7)), "7"),
        ]:
            with pytest.raises(ValueError, match=f"^invalid syllable {re.escape(bad)}$"):
                FreeProductWord(syllables)

    def test_rejects_unreduced_words(self):
        with pytest.raises(ValueError):
            FreeProductWord((X, X))
        with pytest.raises(ValueError):
            FreeProductWord((Y, Y2))
        for syllables in [(Y, X, X), (Y2, Y), (X, Y, Y2), (Y, X, Y, X, X), (Y, Y, X)]:
            for form in (syllables, bytes(syllables), bytearray(syllables)):
                with pytest.raises(ValueError, match="^word is not reduced$"):
                    FreeProductWord(form)

    def test_accepts_alternating_words(self):
        assert FreeProductWord((X, Y, X, Y2)).syllables == bytes((X, Y, X, Y2))
        # either parity class may hold the X syllables, at odd and even length
        for syllables in [(Y,), (Y2,), (X,), (Y, X), (Y2, X, Y), (Y, X, Y2, X), (X, Y, X)]:
            assert FreeProductWord(syllables).syllables == bytes(syllables)
            assert FreeProductWord(bytes(syllables)).syllables == bytes(syllables)

    def test_str(self):
        assert str(FreeProductWord(())) == "1"
        assert str(FreeProductWord((X, Y2))) == "X Y2"
        assert str(FreeProductWord(b"\x02\x00\x01")) == "Y2 X Y"

    def test_sequence_input_is_stored_as_bytes(self):
        word = FreeProductWord(b"\x00\x01\x00")
        for syllables in [(X, Y, X), [X, Y, X], bytearray((X, Y, X)), b"\x00\x01\x00"]:
            built = FreeProductWord(syllables)
            assert built == word
            assert type(built.syllables) is bytes
        # entries equal to a syllable are read as it: 1.0 == Y, True == Y
        assert FreeProductWord((X, 1.0, X)) == word
        assert FreeProductWord((X, True, X)) == word


class TestProject:
    def test_frozen_images(self):
        assert project(parse_braid("a b a")).syllables == bytes((X,))
        assert project(parse_braid("a b")).syllables == bytes((X, Y2, X))
        assert project(parse_braid("a")).syllables == bytes((X, Y))
        assert project(parse_braid("A")).syllables == bytes((Y2, X))

    def test_center_dies(self):
        # the full twist (b a b)^2 generates the center; its image is trivial
        assert project(parse_braid("b a b b a b")).syllables == b""

    def test_inverse_words_project_to_inverses(self):
        rng = random.Random(21)
        for _ in range(40):
            word = random_word(rng)
            assert project(concat(word, inverse(word))).syllables == b""

    def test_relation_respected(self):
        assert project(parse_braid("a b a")) == project(parse_braid("b a b"))


class TestPslMatrix:
    def test_agrees_with_braid_matrix_up_to_sign(self):
        rng = random.Random(33)
        for _ in range(200):
            word = random_word(rng)
            m = represent(word)
            p = psl_matrix(project(word))
            assert p == m or p == -m

    def test_torsion_orders(self):
        x = psl_matrix(FreeProductWord((X,)))
        y = psl_matrix(FreeProductWord((Y,)))
        assert x * x == -psl_matrix(FreeProductWord())
        assert y * y == psl_matrix(FreeProductWord((Y2,)))


class TestCyclicNormalForm:
    def test_wraparound_x_cancellation(self):
        assert cyclic_normal_form(FreeProductWord((X, Y, X))).syllables == bytes((Y,))

    def test_wraparound_y_merge(self):
        assert cyclic_normal_form(FreeProductWord((Y, X, Y))).syllables == bytes((X, Y2))
        assert cyclic_normal_form(FreeProductWord((Y, X, Y2))).syllables == bytes((X,))

    def test_torsion_classes_stay_distinct(self):
        assert cyclic_normal_form(FreeProductWord((Y,))) != cyclic_normal_form(
            FreeProductWord((Y2,))
        )

    def test_rotation_invariance(self):
        rng = random.Random(17)
        for _ in range(60):
            word = random_word(rng)
            reduced = cyclic_normal_form(project(word))
            sylls = reduced.syllables
            for shift in range(len(sylls)):
                rotated = FreeProductWord(sylls[shift:] + sylls[:shift])
                assert cyclic_normal_form(rotated) == reduced

    def test_least_rotation_is_chosen(self):
        assert cyclic_normal_form(FreeProductWord((Y, X, Y2, X))).syllables == bytes((X, Y, X, Y2))


class TestCyclicCore:
    """The cyclic reduction by doubling and bisection against the
    pair-by-pair loop."""

    @pytest.mark.parametrize(
        "syllables, core",
        [
            ((), ()),
            ((X,), (X,)),
            ((Y2,), (Y2,)),
            ((X, Y), (X, Y)),  # even length: the ends lie in different factors
            ((X, Y, X), (Y,)),  # X against X cancels
            ((Y, X, Y), (X, Y2)),  # Y against Y merges to Y2
            ((Y2, X, Y2), (X, Y)),
            ((X, Y, X, Y, X), (X, Y2)),  # X cancels, then Y against Y merges
            ((Y, X, Y, X, Y2), (Y,)),  # Y against Y2 cancels, then X against X
            ((Y2, X, Y2, X, Y, X, Y2), (X, Y2, X, Y, X, Y)),  # Y2 against Y2 merges to Y
            ((Y, X, Y2, X, Y, X, Y2), (X,)),  # every pair cancels
            ((X, Y2, X, Y, X, Y2, X, Y, X), (X,)),
        ],
    )
    def test_listed_words(self, syllables, core):
        data = bytes(syllables)
        assert _cyclic_core(data) == old_cyclic_core(data) == bytes(core)

    def test_fully_cancelling_words_of_every_odd_length(self):
        # w X w^-1, w Y w^-1 and w Y2 w^-1 for reduced w of every length
        # up to 40: every pair but the middle cancels
        rng = random.Random(47)
        for half in range(41):
            for middle in (X, Y, Y2):
                left = alternating(rng, half, middle != X)
                data = left + bytes((middle,)) + left[::-1].translate(INVERT)
                FreeProductWord(data)  # reduced
                assert _cyclic_core(data) == old_cyclic_core(data) == bytes((middle,))

    def test_projections_of_long_conjugates(self):
        rng = random.Random(53)
        for length in (1, 2, 3, 50, 999, 4000):
            g = BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(length)))
            for w in (BraidWord(), parse_braid("a"), parse_braid("s1^7 s2^-1"), random_word(rng)):
                data = project(conjugate_by(w, g)).syllables
                assert _cyclic_core(data) == old_cyclic_core(data)

    def test_cores_past_one_syllable_alternate_x_with_y_types(self):
        # the fact the rotation test reads: even length, X filling exactly
        # one parity class, so the Y-type syllables fix the core
        lengths = set()
        for w in words_up_to(8):
            core = _cyclic_core(project(w).syllables)
            lengths.add(len(core))
            if len(core) >= 2:
                assert len(core) % 2 == 0, (w, core)
                x_class, y_class = (core[0::2], core[1::2]) if core[0] == X else (core[1::2], core[0::2])
                assert x_class == bytes(len(core) // 2) and X not in y_class, (w, core)
        assert lengths >= {0, 1, 2, 4, 6, 8}, lengths

    def test_every_pair_cancels_up_to_the_half_of_even_words(self):
        # w w^-1 is no reduced word, but it is the input on which every
        # pair of an even word cancels, so the search for the pairs that
        # cancel reads the reversed half to its last byte
        rng = random.Random(59)
        for size in range(0, 42, 2):
            for _ in range(3):
                w = bytes(rng.choice((X, Y, Y2)) for _ in range(size // 2))
                data = w + w[::-1].translate(INVERT)
                assert _cyclic_core(data) == old_cyclic_core(data) == b""

    def test_y_type_ends_that_merge_at_every_depth(self):
        # w t m t w^-1 with a Y-type t and m running from X to X: the pairs
        # of w cancel, then t against t merges, wherever the half falls
        rng = random.Random(67)
        for size in range(41):
            for middle_size in (1, 3, 5, 21):
                for t in (Y, Y2):
                    w, m = alternating(rng, size, True), alternating(rng, middle_size, True)
                    data = w + bytes((t,)) + m + bytes((t,)) + w[::-1].translate(INVERT)
                    FreeProductWord(data)  # reduced
                    core = m + bytes((3 - t,))
                    assert _cyclic_core(data) == old_cyclic_core(data) == core


class TestIsRotation:
    """The rotation test over Y-type syllables against the one over every
    syllable."""

    def test_every_ordered_pair_of_short_cores(self):
        cores = sorted({_cyclic_core(project(w).syllables) for w in words_up_to(5)})
        verdicts = set()
        for a in cores:
            for b in cores:
                if a != b:
                    verdict = _is_rotation(a, b)
                    assert verdict is old_is_rotation(a, b), (a, b)
                    verdicts.add(verdict)
        assert len(cores) > 100 and verdicts == {True, False}, len(cores)

    def test_periodic_family_and_its_rotations(self):
        # s1^m s2^-k, the benchmark's periodic family, with the rotations
        # s2^-k s1^m and its conjugates by a few letters
        cores = set()
        for m in (1, 2, 3, 7, 50, 301):
            for k in (1, 2, 3, 4):
                for text in (f"s1^{m} s2^-{k}", f"s2^-{k} s1^{m}", f"a s1^{m} s2^-{k} A", f"B s2^-{k} s1^{m} b"):
                    cores.add(_cyclic_core(project(parse_braid(text)).syllables))
        rotations = 0
        for a in cores:
            for b in cores:
                verdict = _is_rotation(a, b)
                assert verdict is old_is_rotation(a, b), (a, b)
                rotations += verdict and a != b
        assert rotations > 0


class TestAreConjugate:
    def test_braid_relation_conjugates(self):
        assert are_conjugate(parse_braid("b a b"), parse_braid("a b a"))

    def test_rotated_words_are_conjugate(self):
        assert are_conjugate(parse_braid("a b"), parse_braid("b a"))
        assert are_conjugate(parse_braid("a b B A a b"), parse_braid("a b"))

    def test_exponent_sum_separates_central_powers(self):
        # equal quotient images, different central parts
        u = parse_braid("a")
        v = parse_braid("b a b b a b b a b b a b a")
        assert project(u) == project(v)
        assert not are_conjugate(u, v)

    def test_known_beta_pairs(self):
        assert are_conjugate(beta(-3, 3), beta(-1, -3))
        assert are_conjugate(beta(3, -3), beta(1, 3))
        assert not are_conjugate(beta(-3, 5), beta(1, -7))
        assert not are_conjugate(beta(1, 3), beta(1, 4))

    def test_conjugates_built_by_scrambling(self):
        rng = random.Random(99)
        for trial in range(100):
            word = random_word(rng, 12)
            g = random_word(rng, 6)
            other = conjugate_by(scramble(word, trial, 10), g)
            assert are_conjugate(word, other)

    def test_invariants_match_on_positive_verdicts(self):
        from gofknots.burau import homology_order, trace
        from gofknots.words import exponent_sum

        rng = random.Random(101)
        seen_positive = 0
        for trial in range(100):
            word = random_word(rng, 10)
            g = random_word(rng, 5)
            other = conjugate_by(word, g)
            if are_conjugate(word, other):
                seen_positive += 1
                assert trace(word) == trace(other)
                assert homology_order(word) == homology_order(other)
                assert exponent_sum(word) == exponent_sum(other)
        assert seen_positive == 100


class TestAgainstQuadraticReference:
    def test_normal_forms_on_random_words(self):
        rng = random.Random(2024)
        for _ in range(5000):
            word = random_word(rng, 41)
            fw = project(word)
            assert fw == old_project(word)
            assert cyclic_normal_form(fw).syllables == reference_cyclic_normal_form(fw.syllables)

    def test_conjugacy_verdicts_on_random_pairs(self):
        rng = random.Random(2025)
        verdicts = set()
        for trial in range(5000):
            u = random_word(rng, 41)
            if trial % 4 == 0:
                shift = rng.randrange(len(u) + 1)
                v = BraidWord(u.letters[shift:] + u.letters[:shift])
            elif trial % 4 == 1:
                v = conjugate_by(u, random_word(rng, 8))
            else:
                v = BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(len(u))))
            expected = reference_are_conjugate(u, v)
            verdicts.add(expected)
            assert are_conjugate(u, v) is expected
            assert are_conjugate(v, u) is expected
        assert verdicts == {True, False}


class TestLongPeriodicWords:
    # s1^m s2^-1 is the worst case of a quadratic rotation minimum; these pin
    # the results at a length where that takes seconds, without timing.
    WORD = parse_braid("s1^50000 s2^-1")

    def test_normal_form(self):
        assert cyclic_normal_form(project(self.WORD)).syllables == bytes((X, Y) * 50000 + (X, Y2))

    def test_rotation_is_conjugate(self):
        assert are_conjugate(self.WORD, parse_braid("s2^-1 s1^50000"))

    def test_near_miss_with_equal_exponent_sum(self):
        other = parse_braid("s1^50002 s2^-3")
        assert exponent_sum(other) == exponent_sum(self.WORD)
        assert not are_conjugate(self.WORD, other)


class TestFindConjugatorBrute:
    def test_finds_witness_for_known_pair(self):
        g = find_conjugator_brute(beta(-3, 3), beta(-1, -3), 6)
        assert g is not None
        assert g.letters == (1, -2)
        assert equal_in_b3(conjugate_by(beta(-3, 3), g), beta(-1, -3))
        assert matrix_equal_in_b3(conjugate_by(beta(-3, 3), g), beta(-1, -3))

    def test_identity_conjugator(self):
        word = parse_braid("a b")
        assert find_conjugator_brute(word, word, 3) == BraidWord()

    def test_returns_none_on_exponent_mismatch(self):
        assert find_conjugator_brute(parse_braid("a"), parse_braid("b b"), 6) is None

    def test_returns_none_below_required_depth(self):
        # the pair needs a conjugator; depth 0 only allows the identity
        u = parse_braid("a")
        v = parse_braid("b a B")
        assert find_conjugator_brute(u, v, 0) is None
        found = find_conjugator_brute(u, v, 2)
        assert found is not None
        assert equal_in_b3(conjugate_by(u, found), v)
        assert matrix_equal_in_b3(conjugate_by(u, found), v)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            find_conjugator_brute(BraidWord(), BraidWord(), -1)

    def test_agrees_with_are_conjugate_on_random_pairs(self):
        rng = random.Random(55)
        for _ in range(60):
            u = random_word(rng, 8)
            v = random_word(rng, 8)
            found = find_conjugator_brute(u, v, 4)
            if found is not None:
                assert are_conjugate(u, v)
                assert equal_in_b3(conjugate_by(u, found), v)
                assert matrix_equal_in_b3(conjugate_by(u, found), v)


# Blocks that keep a braid: the relator s1 s2 s1 (s2 s1 s2)^-1 and two
# cancelling pairs.  Blocks that change it: the central h = (s1 s2)^3, whose
# matrix is minus the identity, and h^2, whose matrix is the identity.
RELATORS = ((1, 2, 1, -2, -1, -2), (1, -1), (2, -2))
CENTRAL_WORDS = ((1, 2) * 3, (1, 2) * 6)


class TestEqualInB3:
    def test_agrees_with_the_matrix_decision_on_random_pairs(self):
        # pairs of up to 12 letters; a third of them one word with a block
        # inserted, so both verdicts are common
        rng = random.Random(61)
        equal = 0
        for trial in range(20_000):
            u = random_word(rng, 13)
            if trial % 3:
                v = random_word(rng, 13)
            else:
                at = rng.randrange(len(u) + 1)
                v = BraidWord(u.letters[:at] + rng.choice(RELATORS + CENTRAL_WORDS) + u.letters[at:])
            verdict = equal_in_b3(u, v)
            assert verdict == matrix_equal_in_b3(u, v), (u, v)
            equal += verdict
        assert 1_000 < equal < 19_000, equal
