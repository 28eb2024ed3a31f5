"""Conway fractions, two-bridge normal forms, lens spaces, braid indices."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from gofknots.twobridge import (
    DegenerateNotationError,
    LensSpace,
    NotTwoBridgeLinkError,
    TwoBridgeForm,
    _standard_pairs,
    fraction_from_conway,
    lens_equiv,
    lens_space,
    lens_space_of,
    mirror_two_bridge,
    murasugi_braid_index,
    normalize_two_bridge,
    stoimenow_form,
)
import oracles
from oracles import fraction_from_conway_by_fractions


def canonical_forms(limit):
    """Every canonical b(alpha, beta) with alpha < limit, the unknot
    included."""
    return [TwoBridgeForm(1, 0)] + [
        TwoBridgeForm(alpha, beta)
        for alpha in range(2, limit)
        for beta in range(1, alpha)
        if gcd(alpha, beta) == 1 and beta <= pow(beta, -1, alpha)
    ]


CANONICAL_FORMS = canonical_forms(61)


class TestFractionFromConway:
    def test_single_entry(self):
        assert fraction_from_conway((5,)) == (5, 1)

    def test_frozen_example(self):
        assert fraction_from_conway((-2, 2, -3)) == (7, -5)

    def test_sign_convention_keeps_numerator_nonnegative(self):
        numerator, denominator = fraction_from_conway((-3,))
        assert (numerator, denominator) == (3, -1)

    def test_zero_value_is_allowed_when_no_division_occurs(self):
        assert fraction_from_conway((0,)) == (0, 1)

    def test_division_by_zero_raises(self):
        with pytest.raises(DegenerateNotationError):
            fraction_from_conway((2, 0))
        with pytest.raises(DegenerateNotationError):
            fraction_from_conway((5, 1, -1))

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            fraction_from_conway(())

    def test_result_is_coprime_and_exact(self):
        from math import gcd

        assert fraction_from_conway((2, 2)) == (5, 2)
        assert fraction_from_conway((4, -2)) == (7, 2)
        for entries in ((2, 2), (4, -2), (-6, 3, 2), (1, 1, 1, 1)):
            numerator, denominator = fraction_from_conway(entries)
            assert gcd(numerator, denominator) == 1

    def test_p_2_q_closed_formula(self):
        for p in range(-10, 11):
            for q in range(-10, 11):
                if q in (0, -1):
                    continue
                value = Fraction(2 * p * q + p + q, 2 * q + 1)
                numerator, denominator = fraction_from_conway((p, 2, q))
                assert Fraction(numerator, denominator) == value
                assert numerator >= 0

    def test_p_1_1_q_equals_p_2_minus_q_minus_1(self):
        for p in range(-10, 11):
            for q in range(-10, 11):
                if q in (0, -1):
                    continue
                assert fraction_from_conway((p, 1, 1, q)) == fraction_from_conway(
                    (p, 2, -q - 1)
                )

    def test_continuants_equal_the_fraction_evaluator(self):
        # every tuple of length 1-5 with entries in [-4, 4]: 66,429 tuples
        checked = 0
        for length in range(1, 6):
            for entries in itertools.product(range(-4, 5), repeat=length):
                try:
                    expected = fraction_from_conway_by_fractions(entries)
                except DegenerateNotationError as exc:
                    with pytest.raises(DegenerateNotationError) as raised:
                        fraction_from_conway(entries)
                    assert str(raised.value) == str(exc)
                else:
                    assert fraction_from_conway(entries) == expected, entries
                checked += 1
        assert checked == 66_429


class TestTwoBridgeForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoBridgeForm(0, 0)
        with pytest.raises(ValueError):
            TwoBridgeForm(1, 1)
        with pytest.raises(ValueError):
            TwoBridgeForm(4, 2)  # not coprime
        with pytest.raises(ValueError):
            TwoBridgeForm(7, 4)  # 4 is not canonical: inverse is 2
        assert TwoBridgeForm(7, 2).alpha == 7

    def test_str(self):
        assert str(TwoBridgeForm(7, 2)) == "b(7,2)"
        assert str(TwoBridgeForm(1, 0)) == "b(1,0)"


class TestNormalize:
    def test_unknot(self):
        assert normalize_two_bridge(1, 0) == TwoBridgeForm(1, 0)
        assert normalize_two_bridge(1, 17) == TwoBridgeForm(1, 0)

    def test_inverse_residues_identified(self):
        assert normalize_two_bridge(7, 2) == normalize_two_bridge(7, 4)
        assert normalize_two_bridge(7, -5) == TwoBridgeForm(7, 2)

    def test_negative_alpha_flips_both_signs(self):
        assert normalize_two_bridge(-7, 5) == TwoBridgeForm(7, 2)

    def test_unlink_class_rejected(self):
        with pytest.raises(NotTwoBridgeLinkError):
            normalize_two_bridge(0, 1)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            normalize_two_bridge(6, 3)

    def test_equiv_is_equality_of_normal_forms(self):
        assert normalize_two_bridge(7, 2) == normalize_two_bridge(7, 9)
        assert normalize_two_bridge(7, 2) != normalize_two_bridge(7, 3)

    def test_mirror(self):
        assert mirror_two_bridge(TwoBridgeForm(7, 2)) == TwoBridgeForm(7, 3)
        assert mirror_two_bridge(TwoBridgeForm(4, 1)) == TwoBridgeForm(4, 3)
        assert mirror_two_bridge(TwoBridgeForm(1, 0)) == TwoBridgeForm(1, 0)
        form = TwoBridgeForm(11, 3)
        assert mirror_two_bridge(mirror_two_bridge(form)) == form


class TestLensSpace:
    def test_construction_and_canonical_residue(self):
        assert lens_space(5, -1) == LensSpace(5, 4)
        assert lens_space(7, 5) == LensSpace(7, 3)
        assert lens_space(-5, 1) == LensSpace(5, 4)

    def test_degenerate_spaces(self):
        assert str(lens_space(0, 1)) == "L(0,1)"
        assert str(lens_space(0, -1)) == "L(0,1)"
        assert str(lens_space(1, 5)) == "L(1,0)"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lens_space(0, 3)
        with pytest.raises(ValueError):
            lens_space(6, 3)
        with pytest.raises(ValueError):
            LensSpace(7, 4)  # not the least of {4, 4^-1 mod 7}

    def test_lens_space_of_two_bridge(self):
        assert lens_space_of(TwoBridgeForm(7, 2)) == LensSpace(7, 2)
        assert lens_space_of(TwoBridgeForm(1, 0)) == LensSpace(1, 0)

    def test_oriented_equivalence(self):
        assert lens_equiv(lens_space(7, 2), lens_space(7, 4))
        assert not lens_equiv(lens_space(7, 2), lens_space(7, 3))
        assert not lens_equiv(lens_space(5, 1), lens_space(5, 4))

    def test_unoriented_equivalence(self):
        assert lens_equiv(lens_space(7, 2), lens_space(7, 3), oriented=False)
        assert lens_equiv(lens_space(5, 1), lens_space(5, 4), oriented=False)
        assert not lens_equiv(lens_space(7, 2), lens_space(5, 1), oriented=False)
        assert not lens_equiv(lens_space(7, 1), lens_space(7, 2), oriented=False)


class TestMurasugiBraidIndex:
    def test_torus_family_has_index_two(self):
        for alpha in range(2, 21):
            assert murasugi_braid_index(normalize_two_bridge(alpha, 1)) == 2

    def test_unknot_has_no_certificate(self):
        assert murasugi_braid_index(TwoBridgeForm(1, 0)) is None

    def test_boundary_case_differs_between_settings(self):
        assert murasugi_braid_index(normalize_two_bridge(7, 2)) == 3

    def test_relaxed_certifies_standard_form_closures(self):
        # closures of s2^-1 s1^p s2^2 s1^q are three-braid closures; all of
        # them with p, q >= 1 except (1, 1) avoid the index-two family
        for p in range(1, 9):
            for q in range(1, 9):
                form = normalize_two_bridge(2 * p * q + p + q, 2 * q + 1)
                expected = 2 if (p, q) == (1, 1) else 3
                assert murasugi_braid_index(form) == expected

    def test_interior_grid_agrees_between_settings(self):
        for p in range(2, 9):
            for q in range(2, 9):
                form = normalize_two_bridge(2 * p * q + p + q, 2 * q + 1)
                assert murasugi_braid_index(form) == 3

    def test_index_is_mirror_invariant(self):
        for alpha, beta in ((7, 2), (10, 3), (13, 3), (25, 7)):
            form = normalize_two_bridge(alpha, beta)
            assert murasugi_braid_index(form) == murasugi_braid_index(
                mirror_two_bridge(form)
            )

    def test_matches_reference_search(self):
        # the reference walks every p, q in [1, alpha] and asks whether
        # alpha or alpha - 1 is p(2q+1) + q for an odd representative 2q+1
        def reference(a):
            if a.alpha == 1:
                return None
            if a.beta_canonical in (1, a.alpha - 1):
                return 2
            targets = (a, mirror_two_bridge(a))
            for p in range(1, a.alpha + 1):
                for q in range(1, a.alpha + 1):
                    c = 2 * q + 1
                    if p * c + q in (a.alpha, a.alpha - 1) and gcd(a.alpha, c) == 1:
                        if normalize_two_bridge(a.alpha, c) in targets:
                            return 3
            return None

        for form in CANONICAL_FORMS:
            assert murasugi_braid_index(form) == reference(form), form


class TestStoimenowForm:
    def test_frozen_values(self):
        assert stoimenow_form(normalize_two_bridge(7, 3)) == (1, 2, 2)
        assert stoimenow_form(normalize_two_bridge(7, 2)) == (1, 2, 2)
        assert stoimenow_form(normalize_two_bridge(4, 1)) == (1, 2, 1)

    def test_figure_eight_class_has_no_positive_form(self):
        assert stoimenow_form(normalize_two_bridge(5, 2)) is None

    def test_returned_tuple_evaluates_back_to_the_class(self):
        for alpha, beta in ((7, 3), (9, 2), (11, 4), (15, 4)):
            form = normalize_two_bridge(alpha, beta)
            found = stoimenow_form(form)
            if found is None:
                continue
            numerator, denominator = fraction_from_conway(found)
            value = normalize_two_bridge(numerator, denominator)
            assert value in (form, mirror_two_bridge(form))

    def test_large_alpha_frozen_values(self):
        assert stoimenow_form(normalize_two_bridge(301, 3)) == (1, 2, 100)
        assert stoimenow_form(normalize_two_bridge(401, 2)) is None

    def test_matches_reference_search(self):
        # the reference walks p, q in [1, alpha] in lexicographic order and
        # keeps the first tuple whose fraction is the class or its mirror
        def reference(a):
            targets = (a, mirror_two_bridge(a))
            for p in range(1, a.alpha + 1):
                for q in range(1, a.alpha + 1):
                    if p * (2 * q + 1) + q != a.alpha:
                        continue
                    numerator, denominator = fraction_from_conway((p, 2, q))
                    if normalize_two_bridge(numerator, denominator) in targets:
                        return (p, 2, q)
            return None

        for form in CANONICAL_FORMS:
            assert stoimenow_form(form) == reference(form), form


def four_residue_braid_index(a):
    """murasugi_braid_index over the four-residue rule it replaced."""
    if a.alpha == 1:
        return None
    if a.beta_canonical in (1, a.alpha - 1):
        return 2
    if any(oracles.old_standard_pairs(a, 0)) or any(oracles.old_standard_pairs(a, 1)):
        return 3
    return None


def four_residue_stoimenow_form(a):
    """stoimenow_form over the four-residue rule it replaced."""
    pair = min(oracles.old_standard_pairs(a, 0), default=None)
    return None if pair is None else (pair[0], 2, pair[1])


class TestTwoResidues:
    """The standard-form pairs of a class are read off the divisors beta
    and alpha - beta of 2 alpha +- 1; the four residues +-beta^{+-1} that
    the rule tried before are the reference, on every canonical form with
    alpha < 400."""

    FORMS = canonical_forms(400)

    def test_pairs_are_the_four_residue_pairs_with_p_at_most_q(self):
        assert len(self.FORMS) == 25_099
        for form in self.FORMS:
            for sign, shift in ((1, 0), (-1, 1)):
                old = set(oracles.old_standard_pairs(form, shift))
                assert old == {(q, p) for p, q in old}, form
                assert _standard_pairs(form, sign) == {(p, q) for p, q in old if p <= q}, form

    def test_certificates_match_the_four_residue_rule(self):
        for form in self.FORMS:
            assert murasugi_braid_index(form) == four_residue_braid_index(form), form
            assert stoimenow_form(form) == four_residue_stoimenow_form(form), form


GRID = range(-60, 61)


def _outcome(call):
    """What ``call()`` returns, a form or space as its field pair, or the
    type of the ValueError it raises."""
    try:
        result = call()
    except ValueError as exc:
        return type(exc)
    return tuple(vars(result).values()) if isinstance(result, (TwoBridgeForm, LensSpace)) else result


class TestOneCanonicalRule:
    """The one canonical-pair rule against the rule as each function wrote
    it out before, on every (p, q) with |p|, |q| <= 60."""

    def test_normalizers_results_and_exception_types(self):
        for p, q in itertools.product(GRID, GRID):
            assert _outcome(lambda: normalize_two_bridge(p, q)) == _outcome(
                lambda: oracles.old_normalize_two_bridge(p, q)
            ), (p, q)
            assert _outcome(lambda: lens_space(p, q)) == _outcome(
                lambda: oracles.old_lens_space(p, q)
            ), (p, q)

    def test_records_accept_and_reject_the_same_pairs(self):
        accepted = 0
        for p, q in itertools.product(GRID, GRID):
            form = _outcome(lambda: TwoBridgeForm(p, q))
            assert form == _outcome(lambda: oracles.old_check_two_bridge_form(p, q) or (p, q)), (p, q)
            space = _outcome(lambda: LensSpace(p, q))
            assert space == _outcome(lambda: oracles.old_check_lens_space(p, q) or (p, q)), (p, q)
            accepted += (form == (p, q)) + (space == (p, q))
        assert accepted == 2 * len(CANONICAL_FORMS) + 1  # L(0,1) has no b(0, .)

    def test_mirror_and_lens_space_of(self):
        for form in CANONICAL_FORMS:
            old = (form.alpha, form.beta_canonical)
            assert _outcome(lambda: mirror_two_bridge(form)) == oracles.old_mirror_two_bridge(old)
            assert _outcome(lambda: lens_space_of(form)) == oracles.old_lens_space_of(old)

    def test_lens_equiv_in_both_orientations(self):
        # every pair of one order p, and of orders p and p + 1: spaces of
        # orders further apart take the same unequal-order path
        spaces = {lens_space(p, q) for p, q in itertools.product(GRID, GRID) if gcd(p, q) == 1}
        assert len(spaces) == len(CANONICAL_FORMS) + 1
        for a, b in [(a, b) for a in spaces for b in spaces if abs(a.p - b.p) <= 1]:
            for oriented in (True, False):
                old = oracles.old_lens_equiv((a.p, a.q_canonical), (b.p, b.q_canonical), oriented)
                assert lens_equiv(a, b, oriented) == old, (a, b, oriented)
