"""The value records of every layer: construction, equality, hashing,
printing, immutability and copying, pinned as literal values."""

import copy
import pickle

import pytest

from gofknots.burau import SL2Matrix
from gofknots.classify import (
    CheckResult,
    ClassificationResult,
    ExceptionL72,
    HopfPlumbing,
    NotLensSpace,
    classify_gof,
)
from gofknots.modular import FreeProductWord
from gofknots.twobridge import LensSpace, TwoBridgeForm
from gofknots.words import BraidWord, beta


class TestRepr:
    @pytest.mark.parametrize(
        "record, text",
        [
            (SL2Matrix(1, 0, 0, 1), "SL2Matrix(a=1, b=0, c=0, d=1)"),
            (BraidWord((1, -2)), "BraidWord(letters=(1, -2))"),
            (BraidWord(), "BraidWord(letters=())"),
            (FreeProductWord((0, 1)), "FreeProductWord(syllables=b'\\x00\\x01')"),
            (TwoBridgeForm(5, 2), "TwoBridgeForm(alpha=5, beta_canonical=2)"),
            (LensSpace(7, 2), "LensSpace(p=7, q_canonical=2)"),
            (HopfPlumbing(3, -1), "HopfPlumbing(r=3, band_sign=-1)"),
            (ExceptionL72(1), "ExceptionL72(sign=1)"),
            (NotLensSpace(), "NotLensSpace()"),
            (CheckResult("x", True, False), "CheckResult(name='x', expected=True, computed=False)"),
            (FreeProductWord(), "FreeProductWord(syllables=b'')"),
        ],
    )
    def test_dataclass_format(self, record, text):
        assert repr(record) == text

    def test_nested_record(self):
        assert repr(classify_gof(-3, 5)) == (
            "ClassificationResult(k=-3, n=5, word=BraidWord(letters="
            f"{beta(-3, 5).letters!r}), is_two_bridge=True, "
            "two_bridge=TwoBridgeForm(alpha=7, beta_canonical=2), "
            "lens_space=LensSpace(p=7, q_canonical=2), witness=(-2, -3), "
            "label=ExceptionL72(sign=1), description='(-1)-Dehn surgery on the "
            "plumbing of a 7-Hopf band and a (+1)-Hopf band; knot in L(7,2)')"
        )

    def test_str_is_the_class_own(self):
        assert str(TwoBridgeForm(5, 2)) == "b(5,2)"
        assert str(NotLensSpace()) == "NotLensSpace"


class TestEqualityAndHash:
    def test_equal_fields_equal_records(self):
        assert SL2Matrix(1, 2, 0, 1) == SL2Matrix(1, 2, 0, 1)
        assert SL2Matrix(1, 2, 0, 1) != SL2Matrix(1, 3, 0, 1)
        assert NotLensSpace() == NotLensSpace()
        assert classify_gof(-3, 5) == classify_gof(-3, 5)

    def test_other_classes_are_never_equal(self):
        assert TwoBridgeForm(5, 2) != LensSpace(5, 2)
        assert HopfPlumbing(1, 1) != (1, 1)
        assert TwoBridgeForm(5, 2).__eq__(LensSpace(5, 2)) is NotImplemented
        assert SL2Matrix(1, 0, 0, 1).__eq__((1, 0, 0, 1)) is NotImplemented

    def test_subclass_instances_are_not_equal_to_the_base(self):
        class Sub(SL2Matrix):
            pass

        assert Sub(1, 0, 0, 1) != SL2Matrix(1, 0, 0, 1)
        assert Sub(1, 0, 0, 1) == Sub(1, 0, 0, 1)
        assert repr(Sub(1, 0, 0, 1)).endswith("Sub(a=1, b=0, c=0, d=1)")

    def test_hash_is_the_hash_of_the_field_tuple(self):
        assert hash(SL2Matrix(1, 0, 0, 1)) == hash((1, 0, 0, 1))
        assert hash(BraidWord((1, 2))) == hash(((1, 2),))
        assert hash(FreeProductWord((0, 1))) == hash((b"\x00\x01",))
        assert hash(NotLensSpace()) == hash(())
        assert len({TwoBridgeForm(5, 2), TwoBridgeForm(5, 2), LensSpace(5, 2)}) == 2

    def test_equality_is_field_by_field_in_order(self):
        assert CheckResult("x", True, False) != CheckResult("x", False, True)


class TestImmutability:
    @pytest.mark.parametrize(
        "record, field",
        [
            (SL2Matrix(1, 0, 0, 1), "a"),
            (BraidWord((1,)), "letters"),
            (FreeProductWord(), "syllables"),
            (TwoBridgeForm(5, 2), "alpha"),
            (LensSpace(5, 2), "p"),
            (HopfPlumbing(0, 1), "r"),
            (ExceptionL72(1), "sign"),
            (CheckResult("x", True, True), "computed"),
        ],
    )
    def test_assigning_or_deleting_a_field_raises(self, record, field):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == before

    def test_new_attributes_are_refused(self):
        with pytest.raises(AttributeError):
            NotLensSpace().extra = 1
        with pytest.raises(AttributeError):
            classify_gof(1, 3).k = 2


class TestConstruction:
    def test_keyword_and_positional(self):
        assert HopfPlumbing(r=0, band_sign=1) == HopfPlumbing(0, 1)
        assert SL2Matrix(1, 0, c=2, d=1) == SL2Matrix(1, 0, 2, 1)
        assert CheckResult(name="x", computed=False, expected=True) == CheckResult("x", True, False)

    def test_defaults(self):
        assert BraidWord() == BraidWord(())
        assert BraidWord().letters == ()
        assert FreeProductWord().syllables == b""
        assert BraidWord(letters=[1, 2]).letters == (1, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SL2Matrix(1, 0, 0),
            lambda: SL2Matrix(1, 0, 0, 1, 5),
            lambda: SL2Matrix(1, 0, 0, 1, e=5),
            lambda: SL2Matrix(1, 0, 0, a=1),
            lambda: HopfPlumbing(r=1),
            lambda: BraidWord((), ()),
            lambda: BraidWord(word=()),
            lambda: NotLensSpace(1),
        ],
    )
    def test_missing_or_unexpected_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_post_init_runs_after_the_fields_are_set(self):
        with pytest.raises(ValueError, match="determinant"):
            SL2Matrix(a=2, b=0, c=0, d=1)
        with pytest.raises(ValueError, match="invalid braid letter 3"):
            BraidWord(letters=(1, 3))
        with pytest.raises(ValueError, match="not canonical"):
            TwoBridgeForm(beta_canonical=3, alpha=5)

    def test_post_init_of_a_subclass_sees_the_fields(self):
        seen = []

        class Seen(LensSpace):
            def __post_init__(self):
                seen.append((self.p, self.q_canonical))
                super().__post_init__()

        Seen(q_canonical=2, p=7)
        assert seen == [(7, 2)]


class TestCopying:
    def test_deepcopy_and_pickle_round_trip(self):
        result = classify_gof(-3, 5)
        for twin in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
            assert twin == result
            assert twin is not result
            assert repr(twin) == repr(result)
            assert hash(twin) == hash(result)

    def test_shallow_copy(self):
        word = BraidWord((1, 2))
        assert copy.copy(word) == word
        assert pickle.loads(pickle.dumps(SL2Matrix(2, 1, 1, 1))) == SL2Matrix(2, 1, 1, 1)
        assert pickle.loads(pickle.dumps(NotLensSpace())) == NotLensSpace()
