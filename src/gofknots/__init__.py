"""Exact three-strand braid algebra and the classification of tunnel number
one, genus one fibered knots in lens spaces.

The package is organised in five layers:

``gofknots.words``
    Braid words in the three-strand braid group, each stored once as
    immutable signed letter bytes, with parsing, formatting and the word
    families the classification is built from.

``gofknots.burau``
    The integral representation of the three-strand braid group by
    determinant-one matrices (the reduced Burau representation evaluated
    at ``t = -1``), traces, homology orders of closures, and the
    periodic / reducible / pseudo-Anosov trichotomy.

``gofknots.modular``
    The quotient of the braid group by its centre, presented as the free
    product of a two-element and a three-element cyclic group.  Reduced
    and cyclically reduced words in this quotient, with the exponent sum,
    decide equality and conjugacy of braids exactly.

``gofknots.twobridge``
    Two-bridge link normal forms ``b(alpha, beta)``, Conway notation,
    lens spaces arising as double branched covers, and braid-index
    bounds for two-bridge links.

``gofknots.classify``
    The classification driver: decides whether the closure of a
    ``beta(k, n)`` braid is a two-bridge link, identifies the resulting
    lens space, and attaches the structural label (Hopf-band plumbing,
    the exceptional pair of knots in the lens spaces of order seven, or
    not a lens space at all), together with the bulk table scan and the
    self-check battery exposed on the command line as ``verify-paper``.
"""

from . import burau, classify, modular, twobridge, words
from .burau import *
from .classify import *
from .modular import *
from .twobridge import *
from .words import *

__version__ = "0.1.0"

__all__ = [
    *words.__all__,
    *burau.__all__,
    *modular.__all__,
    *twobridge.__all__,
    *classify.__all__,
    "__version__",
]
