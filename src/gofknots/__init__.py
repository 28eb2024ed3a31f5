"""Exact three-strand braid algebra and the classification of tunnel number
one, genus one fibered knots in lens spaces.

The package is organised in four layers:

``gofknots.words``
    Braid words in the three-strand braid group as immutable tuples of
    signed generator indices, with parsing, formatting, free reduction,
    and the word families the classification is built from.

``gofknots.burau``
    The integral representation of the three-strand braid group by
    determinant-one matrices (the reduced Burau representation evaluated
    at ``t = -1``), traces, homology orders of closures, and the
    periodic / reducible / pseudo-Anosov trichotomy.

``gofknots.modular``
    The quotient of the braid group by its centre, presented as the free
    product of a two-element and a three-element cyclic group.  Cyclic
    normal forms in this quotient decide conjugacy of braids exactly.

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

from .burau import (
    IDENTITY_MATRIX,
    MonodromyType,
    SL2Matrix,
    classify_monodromy,
    equal_in_b3,
    homology_order,
    represent,
    trace,
)
from .classify import (
    CheckResult,
    ClassificationResult,
    ExceptionL72,
    HopfPlumbing,
    Label,
    NotLensSpace,
    candidate_pq,
    classify_gof,
    exception_isolation_checks,
    is_two_bridge_closure,
    known_conjugate_pairs,
    result_to_record,
    scan_table,
    verify_case_analysis,
)
from .modular import (
    X,
    Y,
    Y2,
    FreeProductWord,
    are_conjugate,
    cyclic_normal_form,
    find_conjugator_brute,
    project,
    psl_matrix,
)
from .twobridge import (
    ConwayTuple,
    DegenerateNotationError,
    LensSpace,
    NotTwoBridgeLinkError,
    TwoBridgeForm,
    fraction_from_conway,
    lens_equiv,
    lens_space,
    lens_space_of,
    mirror_two_bridge,
    murasugi_braid_index,
    normalize_two_bridge,
    stoimenow_form,
)
from .words import (
    IDENTITY,
    BraidParseError,
    BraidWord,
    beta,
    concat,
    conjugate_by,
    exponent_sum,
    format_braid,
    free_reduce,
    insert_full_twists,
    inverse,
    mirror,
    parse_braid,
    scramble,
    standard_form,
)

__version__ = "0.1.0"

__all__ = [
    "BraidParseError",
    "BraidWord",
    "CheckResult",
    "ClassificationResult",
    "ConwayTuple",
    "DegenerateNotationError",
    "ExceptionL72",
    "FreeProductWord",
    "HopfPlumbing",
    "IDENTITY",
    "IDENTITY_MATRIX",
    "Label",
    "LensSpace",
    "MonodromyType",
    "NotLensSpace",
    "NotTwoBridgeLinkError",
    "SL2Matrix",
    "TwoBridgeForm",
    "X",
    "Y",
    "Y2",
    "are_conjugate",
    "beta",
    "candidate_pq",
    "classify_gof",
    "classify_monodromy",
    "concat",
    "conjugate_by",
    "cyclic_normal_form",
    "equal_in_b3",
    "exception_isolation_checks",
    "exponent_sum",
    "find_conjugator_brute",
    "format_braid",
    "fraction_from_conway",
    "free_reduce",
    "homology_order",
    "insert_full_twists",
    "inverse",
    "is_two_bridge_closure",
    "known_conjugate_pairs",
    "lens_equiv",
    "lens_space",
    "lens_space_of",
    "mirror",
    "mirror_two_bridge",
    "murasugi_braid_index",
    "normalize_two_bridge",
    "parse_braid",
    "project",
    "psl_matrix",
    "represent",
    "result_to_record",
    "scan_table",
    "scramble",
    "standard_form",
    "stoimenow_form",
    "trace",
    "verify_case_analysis",
    "__version__",
]
