"""The classification driver: candidates, closures, labels, check battery."""

import random
import re
import tracemalloc

import pytest

from gofknots import burau, classify, modular, words
from gofknots.burau import homology_order, trace
from gofknots.classify import (
    ExceptionL72,
    HopfPlumbing,
    NotLensSpace,
    _label_for,
    candidate_pq,
    classify_gof,
    is_two_bridge_closure,
    paper_checks,
    scan_table,
    table_cells,
)
from gofknots.cli import result_to_record
from gofknots.modular import _cyclic_core, are_conjugate, core_trace, equal_in_b3, project, word_core
from gofknots.twobridge import (
    TwoBridgeForm,
    lens_space,
    mirror_two_bridge,
    normalize_two_bridge,
)
from gofknots.words import (
    BraidWord,
    beta,
    concat,
    conjugate_by,
    exponent_sum,
    mirror,
    parse_braid,
    standard_form,
)
from oracles import (
    core_runs,
    lr_runs,
    matrix_equal_in_b3,
    old_check_grid,
    old_is_two_bridge_closure,
    old_pairs,
    scramble,
    table_label,
    two_sign_candidate_pq,
)


def acceptance_grid():
    """The 610 beta(k, n) of the acceptance grid: k odd in [-9, 9],
    n in [-30, 30]."""
    return [beta(k, n) for k in range(-9, 10, 2) for n in range(-30, 31)]


def standard_forms_and_mirrors():
    for p in range(-12, 13):
        for q in range(-12, 13):
            yield standard_form(p, q)
            yield mirror(standard_form(p, q))


def random_words(seed, count, max_letters):
    rng = random.Random(seed)
    for _ in range(count):
        yield BraidWord(
            tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, max_letters)))
        )


class TestCandidatePq:
    def test_frozen_candidates(self):
        assert candidate_pq(beta(1, 3)) == [(5, 0), (0, 5)]
        assert candidate_pq(beta(-3, 5)) == [(-2, -3), (-3, -2)]

    def test_candidates_are_sound(self):
        # every candidate reproduces the exponent sum and homology order
        from gofknots.burau import homology_order
        from gofknots.words import exponent_sum

        for word in (beta(1, 3), beta(-3, 5), beta(5, -13), standard_form(2, 3)):
            e, d = exponent_sum(word), homology_order(word)
            for p, q in candidate_pq(word):
                assert p + q + 1 == e
                assert abs(2 * p * q + p + q) == d

    def test_every_actual_match_is_listed(self):
        # the standard form itself must appear among its own candidates
        for p in range(-4, 5):
            for q in range(-4, 5):
                word = standard_form(p, q)
                if (p, q) == (0, 0) or 2 * p * q + p + q == 0:
                    continue
                assert any(
                    are_conjugate(word, standard_form(x, y))
                    for x, y in candidate_pq(word)
                )

    def test_pairs_match_the_sigma_quadratic(self):
        # the odd-factor discriminant e^2 + 2tr - 5 against the earlier
        # sigma quadratic with its parity test
        nonempty = 0
        for e in range(-60, 61):
            for tr in range(-600, 601):
                pairs = classify._pairs(e, tr)
                assert pairs == old_pairs(e, tr), (e, tr)
                nonempty += bool(pairs)
        assert nonempty == 2_111


def two_sign_closure(w):
    """The decision over the two-sign candidate list: the same loop as
    is_two_bridge_closure, with candidates that may have the wrong trace."""
    for p, q in two_sign_candidate_pq(w):
        alpha = 2 * p * q + p + q
        if alpha and are_conjugate(w, standard_form(p, q)):
            return normalize_two_bridge(alpha, 2 * q + 1), (p, q)
    return None


class TestSignedTraceCandidates:
    def test_trace_identity_of_standard_forms(self):
        for p in range(-30, 31):
            for q in range(-30, 31):
                assert 2 - trace(standard_form(p, q)) == 2 * p * q + p + q, (p, q)

    def test_frozen_signed_candidates(self):
        # the opposite sign of |2 - tr| adds roots that can never match
        assert candidate_pq(beta(-7, 30)) == [(6, 2), (2, 6)]
        assert len(two_sign_candidate_pq(beta(-7, 30))) == 4
        assert candidate_pq(beta(-9, 14)) == []
        assert len(two_sign_candidate_pq(beta(-9, 14))) == 2

    def test_candidates_are_the_two_sign_list_filtered_by_trace(self):
        words = [
            *acceptance_grid(),
            *standard_forms_and_mirrors(),
            *random_words(2026, 5000, 30),
        ]
        for word in words:
            signed = 2 - trace(word)
            expected = [
                (p, q) for p, q in two_sign_candidate_pq(word)
                if 2 * p * q + p + q == signed
            ]
            if core_runs(word) > 4:  # no standard form's core has more runs
                expected = []
            assert candidate_pq(word) == expected, word
            assert len(expected) <= 2

    def test_closure_equals_two_sign_decision_on_acceptance_grid(self):
        for word in acceptance_grid():
            assert is_two_bridge_closure(word) == two_sign_closure(word), word

    def test_closure_equals_two_sign_decision_on_standard_forms(self):
        for word in standard_forms_and_mirrors():
            assert is_two_bridge_closure(word) == two_sign_closure(word), word

    def test_closure_equals_two_sign_decision_on_random_words(self):
        for word in random_words(8, 5000, 30):
            assert is_two_bridge_closure(word) == two_sign_closure(word), word


def assert_old_route(word):
    """The closure verdict equals the earlier matrix route's, and the trace
    read off the core equals the matrix trace wherever there is one."""
    assert is_two_bridge_closure(word) == old_is_two_bridge_closure(word), word
    tr = core_trace(word_core(word), exponent_sum(word))
    assert tr is None or tr == trace(word), word


class TestOneReduction:
    """is_two_bridge_closure reduces the word once, reads its candidates off
    the cyclic core and compares cores: no matrix, the old verdicts."""

    def test_the_word_is_reduced_once_per_decision(self, monkeypatch):
        reduced, built = [], []
        reduce, form = modular._reduce, classify.standard_form
        monkeypatch.setattr(modular, "_reduce", lambda data: reduced.append(data) or reduce(data))
        monkeypatch.setattr(classify, "standard_form", lambda p, q: built.append((p, q)) or form(p, q))
        words = [*acceptance_grid(), *random_words(5, 300, 30), parse_braid("a B a a B B a B a a a B")]
        for word in words:
            reduced.clear()
            built.clear()
            is_two_bridge_closure(word)
            assert reduced == [word.letter_bytes, *(standard_form(p, q).letter_bytes for p, q in built)], word
        assert sum(bool(candidate_pq(word)) for word in words) > 100
        # a cell without a candidate is never reduced
        reduced.clear()
        assert classify_gof(5, 7).witness is None
        assert reduced == []

    def test_old_route_on_random_words(self):
        rng = random.Random(12)
        for _ in range(30_000):
            assert_old_route(BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 24)))))

    def test_old_route_on_standard_forms_and_mirrors(self):
        for p in range(-30, 31):
            for q in range(-30, 31):
                assert_old_route(standard_form(p, q))
                assert_old_route(mirror(standard_form(p, q)))

    def test_old_route_on_the_acceptance_grid(self):
        for word in acceptance_grid():
            assert_old_route(word)

    def test_old_route_on_scrambled_standard_forms(self):
        # conjugates of 10,000 letters and more, and near misses one letter off
        for trial, (p, q) in enumerate(((5, 7), (-4, 9), (-6, -3), (0, 11))):
            g = next(random_words(trial, 1, 9))
            word = conjugate_by(scramble(standard_form(p, q), trial, 3_200), g)
            assert len(word) >= 10_000
            assert is_two_bridge_closure(word)[1] in ((p, q), (q, p))
            assert_old_route(word)
            assert_old_route(concat(word, BraidWord((1,))))

    def test_standard_forms_have_four_runs_at_most(self):
        # the bound of candidate_pq's proof, and the trace 2 - (2pq + p + q)
        for p in range(-60, 61):
            for q in range(-60, 61):
                word = standard_form(p, q)
                core = word_core(word)
                assert lr_runs(core) <= 4, (p, q)
                assert core_trace(core, p + q + 1) == 2 - (2 * p * q + p + q), (p, q)


class TestLabelsFromTheWitness:
    def test_plumbing_rows_are_standard_forms_with_root_zero_or_minus_one(self):
        for x in range(-40, 41):
            assert are_conjugate(standard_form(x, 0), beta(1, x - 2)), x
            assert are_conjugate(standard_form(x, -1), beta(-1, x + 3)), x

    def test_labels_equal_the_table_on_a_grid(self):
        for result in scan_table(range(-25, 26, 2), range(-120, 121)):
            assert result.label == table_label(result.k, result.n), (result.k, result.n)

    def test_labels_equal_the_table_far_out(self):
        rng = random.Random(17)
        cells = [(k, n) for k in (1, -1) for n in (10**5, -(10**5))]
        cells += [(rng.randrange(-2001, 2002, 2), rng.randint(-5000, 5000)) for _ in range(50)]
        for k, n in cells:
            assert classify_gof(k, n).label == table_label(k, n), (k, n)

    def test_s3_cells_keep_the_band_of_k(self):
        # both roots 0 and -1: beta(1, -3) and beta(-1, 3) share a witness
        # pair but sit on opposite plumbing rows
        assert classify_gof(1, -3).label == HopfPlumbing(r=-1, band_sign=1)
        assert classify_gof(-1, 3).label == HopfPlumbing(r=1, band_sign=-1)

    def test_unlink_cells_are_plumbings_without_a_witness(self):
        for k, n in ((1, -2), (-1, 2)):
            result = classify_gof(k, n)
            assert result.witness is None
            assert result.label == HopfPlumbing(r=0, band_sign=exponent_sum(result.word))

    def test_plumbing_has_r_zero_exactly_off_the_two_bridge_cells(self):
        # the rule _describe reads the unlink cells by: no hit has r = 0
        plumbings = [
            result
            for result in scan_table(range(-9, 10, 2), range(-30, 31))
            if isinstance(result.label, HopfPlumbing)
        ]
        assert plumbings
        for result in plumbings:
            assert (result.label.r == 0) == (not result.is_two_bridge), (result.k, result.n)

    def test_a_hit_outside_the_theorem_raises(self):
        with pytest.raises(RuntimeError):
            _label_for(5, (2, 3), lens_space(17, 7))


class TestIsTwoBridgeClosure:
    def test_hopf_plumbing_row(self):
        form, witness = is_two_bridge_closure(beta(1, 3))
        assert form == TwoBridgeForm(5, 1)
        assert witness == (5, 0)

    def test_exceptional_row(self):
        form, witness = is_two_bridge_closure(beta(-3, 5))
        assert form == TwoBridgeForm(7, 2)
        assert witness == (-2, -3)

    def test_generic_row_is_not_two_bridge(self):
        assert is_two_bridge_closure(beta(5, 7)) is None
        assert is_two_bridge_closure(beta(-3, 4)) is None

    def test_unlink_closure_short_circuits(self):
        assert is_two_bridge_closure(beta(1, -2)) is None
        assert is_two_bridge_closure(beta(-1, 2)) is None

    def test_mirror_image_words_resolve_directly(self):
        # mirroring is a braid automorphism, so the mirror of a standard
        # form is itself conjugate to a standard form on negated roots and
        # the direct pass finds it
        word = parse_braid("b A A B B A")  # mirror of standard_form(2, 1)
        form, witness = is_two_bridge_closure(word)
        assert form == TwoBridgeForm(7, 2)
        assert witness == (-2, -3)

    def test_mirror_covariance(self):
        # the closure of the mirror word carries the mirror two-bridge form
        for k in (-3, -1, 1, 3):
            for n in range(-6, 7):
                direct = is_two_bridge_closure(beta(k, n))
                flipped = is_two_bridge_closure(mirror(beta(k, n)))
                if direct is None:
                    assert flipped is None
                else:
                    assert flipped is not None
                    assert flipped[0] == mirror_two_bridge(direct[0])

    def test_standard_form_core_is_at_least_twice_its_exponents_less_ten(self):
        # the bound _witness skips candidates by, tight at q = -1, p <= -5
        slack = {}
        for p in range(-60, 61):
            for q in range(-60, 61):
                core = _cyclic_core(project(standard_form(p, q)).syllables)
                slack[p, q] = len(core) - 2 * (abs(p) + abs(q))
        assert min(slack.values()) == -10
        assert [pq for pq, value in slack.items() if value == -10 and pq[0] <= pq[1]] == [
            (p, -1) for p in range(-60, -4)
        ]

    @pytest.mark.parametrize(
        "text", ["s1^263 s2^-15145 s1^263 s2^-15145", "s1^109 s2^-50101 s1^109 s2^-50101"]
    )
    def test_candidates_longer_than_the_word_are_not_built(self, text, monkeypatch):
        # the candidates have millions of letters: building one takes
        # seconds and hundreds of MB
        word = parse_braid(text)
        candidates = candidate_pq(word)
        assert candidates and all(abs(p) + abs(q) > len(word) + 5 for p, q in candidates)
        built = []
        monkeypatch.setattr(classify, "standard_form", lambda p, q: built.append((p, q)))
        assert is_two_bridge_closure(word) is None
        assert built == []

    def test_words_at_the_letter_budget_are_decided(self, monkeypatch):
        # a match can be longer than the word: s1^-1 s2^-m (m + 1 letters)
        # is conjugate to standard_form(-m-1, -1) (m + 5), and a candidate
        # can pass the word by eight letters; standard_form admits them
        monkeypatch.setattr(words, "_MAX_LETTERS", 40)
        for text, witness in [("s1^-1 s2^-39", (-1, -40)), ("s1 s2^39", (39, 0))]:
            word = parse_braid(text)
            assert len(word) == 40
            assert is_two_bridge_closure(word)[1] == witness
        assert len(standard_form(-44, -1)) == 48
        with pytest.raises(ValueError, match="more than 48$"):
            standard_form(-45, -1)

    def test_markov_destabilized_companions(self):
        # beta(+1, n) is conjugate to s2 s1^(n+2), and beta(-1, n) to
        # s2^-1 s1^(n-2): the one-strand-stabilized descriptions agree
        def sigma1_power(m):
            return BraidWord(((1,) if m >= 0 else (-1,)) * abs(m))

        for n in range(-10, 11):
            assert are_conjugate(
                beta(1, n), concat(BraidWord((2,)), sigma1_power(n + 2))
            )
            assert are_conjugate(
                beta(-1, n), concat(BraidWord((-2,)), sigma1_power(n - 2))
            )


def two_sided_reference(w):
    """The earlier two-pass decision, kept verbatim as a reference: a
    homology-order guard, then the word and its mirror each tested against
    their own candidates."""
    if homology_order(w) == 0:
        return None
    for mirrored, candidate_word in ((False, w), (True, mirror(w))):
        for p, q in candidate_pq(candidate_word):
            if are_conjugate(candidate_word, standard_form(p, q)):
                form = normalize_two_bridge(2 * p * q + p + q, 2 * q + 1)
                if mirrored:
                    form = mirror_two_bridge(form)
                return form, (p, q, mirrored)
    return None


def direct_reference(w):
    """two_sided_reference with its mirrored flag dropped from the witness,
    after checking that the flag is False: the mirror pass never fires."""
    hit = two_sided_reference(w)
    if hit is None:
        return None
    form, (p, q, mirrored) = hit
    assert mirrored is False, w
    return form, (p, q)


class TestMirrorPassIsRedundant:
    def test_s1_squared_conjugates_mirror_to_shifted_standard_form(self):
        # s1^2 mirror(standard_form(p, q)) s1^-2 = standard_form(-p-1, -q-1)
        # as braids, so a mirror match is also a direct match
        s1_squared = parse_braid("a a")
        for p in range(-12, 13):
            for q in range(-12, 13):
                assert equal_in_b3(
                    conjugate_by(mirror(standard_form(p, q)), s1_squared),
                    standard_form(-p - 1, -q - 1),
                ), (p, q)
                assert matrix_equal_in_b3(
                    conjugate_by(mirror(standard_form(p, q)), s1_squared),
                    standard_form(-p - 1, -q - 1),
                ), (p, q)

    def test_matches_two_sided_reference_on_acceptance_grid(self):
        for k in range(-9, 10, 2):
            for n in range(-30, 31):
                word = beta(k, n)
                assert is_two_bridge_closure(word) == direct_reference(word), (k, n)

    def test_matches_two_sided_reference_on_standard_forms(self):
        for p in range(-12, 13):
            for q in range(-12, 13):
                for word in (standard_form(p, q), mirror(standard_form(p, q))):
                    assert is_two_bridge_closure(word) == direct_reference(word), (p, q)

    def test_matches_two_sided_reference_on_random_words(self):
        rng = random.Random(4)
        for _ in range(2000):
            word = BraidWord(
                tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 24)))
            )
            assert is_two_bridge_closure(word) == direct_reference(word), word


class TestClassifyGof:
    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            classify_gof(2, 5)
        with pytest.raises(ValueError):
            classify_gof(0, 1)

    def test_hopf_plumbing_cell(self):
        result = classify_gof(1, 3)
        assert result.label == HopfPlumbing(r=5, band_sign=1)
        assert result.is_two_bridge
        assert result.two_bridge == TwoBridgeForm(5, 1)
        assert result.lens_space == lens_space(5, 1)
        assert str(result.label) == "HopfPlumbing(r=5,band=+1)"

    def test_negative_band_cell(self):
        result = classify_gof(-1, -3)
        assert result.label == HopfPlumbing(r=-5, band_sign=-1)
        assert result.lens_space == lens_space(-5, 1)

    def test_exceptional_cells(self):
        plus = classify_gof(-3, 5)
        assert plus.label == ExceptionL72(sign=1)
        assert plus.lens_space == lens_space(7, 2)
        assert plus.witness == (-2, -3)
        assert "L(7,2)" in plus.description
        minus = classify_gof(3, -5)
        assert minus.label == ExceptionL72(sign=-1)
        assert minus.lens_space == lens_space(7, -2)
        assert str(minus.label) == "ExceptionL72(-1)"

    def test_conjugate_shadow_cells_get_plumbing_labels(self):
        assert classify_gof(-3, 3).label == HopfPlumbing(r=-5, band_sign=-1)
        assert classify_gof(3, -3).label == HopfPlumbing(r=5, band_sign=1)
        assert classify_gof(3, -3).lens_space == lens_space(5, 1)

    def test_not_lens_space_cell(self):
        result = classify_gof(5, 7)
        assert result.label == NotLensSpace()
        assert not result.is_two_bridge
        assert result.two_bridge is None
        assert result.lens_space is None
        assert result.witness is None
        assert "not a two-bridge link" in result.description

    def test_cells_without_a_witness_share_one_label(self):
        assert classify_gof(5, 7).label is classify_gof(-7, 9).label

    def test_unlink_cell_is_flagged_in_description(self):
        result = classify_gof(1, -2)
        assert result.label == HopfPlumbing(r=0, band_sign=1)
        assert not result.is_two_bridge
        assert "unlink" in result.description


class TestCellClosedForm:
    """classify_gof takes a cell's candidates from its closed-form exponent
    sum 3k + n and trace -eps(k) n, not from a walk of the word."""

    def test_no_matrix_is_built_for_a_cell(self, monkeypatch):
        calls = []
        walk = burau.represent
        monkeypatch.setattr(burau, "represent", lambda w: calls.append(w) or walk(w))
        assert is_two_bridge_closure(beta(-3, 5)) is not None
        for word in (beta(5, 7), standard_form(5, 7), parse_braid("a B a a B B a B a a a B")):
            is_two_bridge_closure(word)
            candidate_pq(word)
        assert calls == []  # the word path reads its trace off the cyclic core
        for k, n in ((-3, 5), (3, -5), (1, 3), (-1, 2), (5, -13), (5, 7), (-49, 200)):
            classify_gof(k, n)
        scan_table(range(-9, 10, 2), range(-30, 31))
        paper_checks()  # the case rows too, through classify_gof
        assert calls == []

    def test_cell_candidates_are_the_word_candidates_on_the_grid(self, monkeypatch):
        # the 20,050 cells of k odd in [-49, 49], n in [-200, 200]
        seen = []
        witness = classify._witness
        monkeypatch.setattr(
            classify, "_witness", lambda w, pairs: seen.append((w, pairs)) or witness(w, pairs)
        )
        scan_table(range(-49, 50, 2), range(-200, 201))
        assert len(seen) == 20_050
        assert sum(1 for _, pairs in seen if pairs) == 1_196
        assert [w for w, pairs in seen if pairs != candidate_pq(w)] == []


class TestTheDecidersAgree:
    """A record's form and witness are the closure verdict of its word:
    classify_gof and is_two_bridge_closure read one witness search."""

    def test_on_the_acceptance_grid(self):
        results = scan_table(range(-9, 10, 2), range(-30, 31))
        assert len(results) == 610
        for r in results:
            expected = (r.two_bridge, r.witness) if r.is_two_bridge else None
            assert is_two_bridge_closure(r.word) == expected, (r.k, r.n)

    def test_unlink_cells_have_a_label_but_no_closure(self):
        for k, n in ((1, -2), (-1, 2)):
            result = classify_gof(k, n)
            assert result.label == HopfPlumbing(r=0, band_sign=k)
            assert is_two_bridge_closure(result.word) is None


class TestScanTable:
    def test_small_grid(self):
        results = scan_table([1], range(0, 4))
        assert [(r.k, r.n) for r in results] == [(1, 0), (1, 1), (1, 2), (1, 3)]
        for r in results:
            assert r.label == HopfPlumbing(r=r.n + 2, band_sign=1)

    def test_empty_inputs_give_empty_table(self):
        assert scan_table([], []) == []
        assert scan_table([1], []) == []

    def test_inputs_are_deduplicated_and_sorted(self):
        results = scan_table([3, 1, 1], [5, 5, -5])
        assert [(r.k, r.n) for r in results] == [(1, -5), (1, 5), (3, -5), (3, 5)]
        # a range of negative step is sorted too, not read in its own order
        results = scan_table([1], range(3, -4, -1))
        assert [r.n for r in results] == list(range(-3, 4))

    def test_cells_are_classified_as_they_are_read(self, monkeypatch):
        seen = []
        monkeypatch.setattr(classify, "classify_gof", lambda k, n: seen.append((k, n)) or (k, n))
        cells = table_cells([3, 1], [0, -1])
        assert seen == []
        assert next(cells) == (1, -1) and seen == [(1, -1)]
        assert list(cells) == [(1, 0), (3, -1), (3, 0)]

    def test_a_bad_grid_fails_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(classify, "classify_gof", lambda k, n: pytest.fail("a cell was classified"))
        with pytest.raises(ValueError, match="^k must be odd, got 2$"):
            table_cells([1, 2, 4], [0, 1])
        monkeypatch.setattr(words, "_MAX_LETTERS", 40)
        # the error of the first bad cell in grid order: n = 38 on the k = 1 row
        with pytest.raises(ValueError, match=r"^beta\(1, 38\) has 41 letters, more than 40$"):
            table_cells([2, 1], range(-37, 40))
        with pytest.raises(ValueError, match=r"^beta\(3, -32\) has 41 letters, more than 40$"):
            table_cells([3], range(-32, 33))
        assert list(table_cells([2], [])) == []

    def test_a_wide_range_is_refused_without_copying_it(self):
        # 2,000,001 values of n: a sorted set of them peaked at 147.9 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^beta\(3333333, -1000000\) has 10999999 letters, more than 10000000$"):
                table_cells([3333333], range(-1_000_000, 1_000_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize(
        "row",
        [
            range(-1_000_000, 2_000_001),
            sorted(random.Random(24).sample(range(-1_000_000, 2_000_000), 100_000) + [1_000_004, 1_500_000]),
        ],
        ids=["range", "list"],
    )
    def test_a_row_is_checked_from_its_ends(self, monkeypatch, row):
        # k = 1 passes the whole row; on the k = 2999999 row, 8999997 + |n|
        # passes the budget from n = 1000004 on, the first bad cell of the
        # grid.  The row rule checks a row's first cell, and its first cell
        # past the budget if it has one, and nothing else.
        calls = []
        check_beta = words.check_beta
        monkeypatch.setattr(words, "check_beta", lambda k, n: calls.append(k) or check_beta(k, n))
        monkeypatch.setattr(classify, "classify_gof", lambda k, n: pytest.fail("a cell was classified"))
        message = r"^beta\(2999999, 1000004\) has 10000001 letters, more than 10000000$"
        with pytest.raises(ValueError, match=message):
            table_cells([1, 2999999, 3000001], row)
        assert calls.count(1) == 1
        assert calls.count(2999999) == 2
        assert 3000001 not in calls

    def test_a_row_wider_than_sys_maxsize_is_refused(self):
        # len() of this range overflows; the first bad cell is still found
        with pytest.raises(ValueError, match=r"^beta\(1, 9999998\) has 10000001 letters, more than 10000000$"):
            table_cells([1], range(0, 10**20))

    def test_grid_checks_agree_with_the_cell_by_cell_reference(self, monkeypatch):
        monkeypatch.setattr(words, "_MAX_LETTERS", 30)
        rng = random.Random(2024)
        refusals = 0
        for _ in range(5_000):
            ks = [rng.randrange(-13, 14) for _ in range(rng.randrange(4))]
            if rng.random() < 0.5:
                start = rng.randrange(-60, 60)
                ns = range(start, start + rng.randrange(90), rng.randrange(1, 4))
            else:
                ns = [rng.randrange(-60, 60) for _ in range(rng.randrange(30))]
            try:
                old_check_grid(ks, ns)
                expected = None
            except ValueError as exc:
                expected = str(exc)
                refusals += 1
            try:
                table_cells(ks, ns)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (ks, ns)
        assert 1_000 < refusals < 4_000, refusals


class TestCheckBattery:
    def test_case_analysis_booleans(self):
        results, _ = paper_checks()
        assert len(results) == 8
        assert [r.computed for r in results] == [
            False, False, False, False, False, False, True, True,
        ]
        assert all(r.ok for r in results)

    def test_case_analysis_names_are_informative(self):
        names = [r.name for r in paper_checks()[0]]
        assert names[0] == "case A: beta(5,-13) vs standard form on {-2,3}"
        assert names[7] == "case B: beta(-3,3) vs standard form on {-1,-6}"

    def test_case_rows_try_both_orders(self, monkeypatch):
        # standard_form(p, q) and standard_form(q, p) are not conjugate in
        # general, so a row on {p, q} hands _witness both orders: the
        # cell's candidates
        seen = []
        witness = classify._witness
        monkeypatch.setattr(
            classify, "_witness", lambda w, pairs: seen.append((w, pairs)) or witness(w, pairs)
        )
        results = paper_checks()[0]
        assert all(r.ok for r in results)
        cells = [(5, -13), (5, -15), (5, -19), (5, -9), (-3, 15), (-3, 17), (-3, 5), (-3, 3)]
        assert [w for w, _ in seen] == [beta(k, n) for k, n in cells]
        named = [tuple(map(int, re.search(r"\{(-?\d+),(-?\d+)\}$", r.name).groups())) for r in results]
        assert named == [(-2, 3), (2, -3), (1, -6), (-1, 6), (2, 3), (1, 6), (-2, -3), (-1, -6)]
        for (p, q), (w, pairs) in zip(named, seen):
            assert sorted(pairs) == sorted([(p, q), (q, p)])
            assert pairs == candidate_pq(w)

    def test_case_rows_are_every_candidate_cell_of_their_rows(self):
        # n has a candidate when the discriminant (m - eps)^2 - N, m = 3k + n,
        # N = 6(1 - eps k), is a square r^2: (m - eps - r)(m - eps + r) = N,
        # a factor pair d, N/d of equal parity, so m - eps = (d + N/d) / 2
        rows = {k: ns for _, k, ns in classify._CASE_ROWS}
        assert sorted(rows) == [-3, 5]
        for k, ns in rows.items():
            scanned = [n for n in range(-400, 401) if classify._pairs(*classify._cell_invariants(k, n))]
            eps = 1 if k % 4 == 1 else -1
            big_n = 6 * (1 - eps * k)
            assert abs(big_n) == 24
            divisors = [d for d in range(-abs(big_n), abs(big_n) + 1) if d and big_n % d == 0]
            derived = {(d + big_n // d) // 2 + eps - 3 * k for d in divisors if (d - big_n // d) % 2 == 0}
            assert sorted(ns) == scanned == sorted(derived), k

    def test_known_conjugate_pairs(self):
        results = paper_checks()[1][:2]
        assert [r.name for r in results] == ["beta(-3,3) ~ beta(-1,-3)", "beta(3,-3) ~ beta(1,3)"]
        assert all(r.expected and r.computed and r.ok for r in results)

    def test_separation_compares_every_space_of_order_seven(self, monkeypatch):
        # L(n+2eps, 1) for the n in [-40, 40] with |n + 2eps| = 7, once
        # against each exceptional space
        # (only the separation check compares lens spaces)
        calls = []
        equiv = classify.lens_equiv

        def record(a, b, oriented):
            calls.append(((a.p, a.q_canonical), (b.p, b.q_canonical), oriented))
            return equiv(a, b, oriented=oriented)

        monkeypatch.setattr(classify, "lens_equiv", record)
        assert all(r.ok for r in paper_checks()[1])
        solutions = [(n, eps) for n in range(-40, 41) for eps in (1, -1) if abs(n + 2 * eps) == 7]
        assert sorted(solutions) == [(-9, 1), (-5, -1), (5, 1), (9, -1)]
        exceptional = [lens_space(7, 2), lens_space(7, -2)]
        plumbing = [lens_space(n + 2 * eps, 1) for n, eps in solutions]
        assert sorted(calls) == sorted(
            ((a.p, a.q_canonical), (b.p, b.q_canonical), False) for a in exceptional for b in plumbing
        )

    def test_exception_isolation(self):
        results = paper_checks()[1][2:]
        assert len(results) == 6
        assert all(r.ok for r in results)
        conjugacy_checks = results[:4]
        assert all(not r.computed for r in conjugacy_checks)
        separation_checks = results[4:]
        assert all(r.computed for r in separation_checks)


class TestRecord:
    def test_field_order_and_values(self):
        record = result_to_record(classify_gof(-3, 5))
        assert list(record) == [
            "k", "n", "word", "is_two_bridge", "alpha", "beta", "lens_p",
            "lens_q", "witness_p", "witness_q", "mirrored", "label",
            "description",
        ]
        assert record["k"] == -3
        assert record["n"] == 5
        assert record["word"] == "B A B B A B B A B a a a a a"
        assert record["is_two_bridge"] is True
        assert record["alpha"] == 7
        assert record["beta"] == 2
        assert record["lens_p"] == 7
        assert record["lens_q"] == 2
        assert record["witness_p"] == -2
        assert record["witness_q"] == -3
        assert record["mirrored"] is False
        assert record["label"] == "ExceptionL72(+1)"

    def test_absent_fields_serialize_as_none(self):
        record = result_to_record(classify_gof(5, 7))
        assert record["is_two_bridge"] is False
        for key in ("alpha", "beta", "lens_p", "lens_q", "witness_p",
                    "witness_q", "mirrored"):
            assert record[key] is None
        assert record["label"] == "NotLensSpace"
