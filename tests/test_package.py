"""The package namespace re-exports exactly the layers' public names."""

import gofknots
from gofknots import burau, classify, modular, twobridge, words


def test_all_is_the_union_of_the_layer_exports():
    # gofknots.cli is the command; it defines no __all__ and exports nothing
    exported = {"__version__"}
    for module in (words, burau, modular, twobridge, classify):
        exported.update(module.__all__)
    assert sorted(gofknots.__all__) == sorted(exported)
    for name in gofknots.__all__:
        assert hasattr(gofknots, name), name


def test_modular_binds_nothing_from_burau():
    # the quotient decides conjugacy without matrices
    borrowed = [
        name
        for name, value in vars(modular).items()
        if getattr(value, "__module__", None) == burau.__name__
    ]
    assert borrowed == []


def test_test_oracles_are_not_exported():
    for name in ("find_conjugator_brute", "psl_matrix"):
        assert name not in gofknots.__all__
        assert not hasattr(gofknots, name)
