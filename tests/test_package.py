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
