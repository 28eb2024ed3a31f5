"""Command-line front end for the braid and lens-space calculators.

Every subcommand is pure computation on its arguments: no files, no
network, no randomness.  Output is deterministic — fixed field order,
fixed integer formatting, no timestamps — so invocations can be golden
tested byte for byte.  Booleans print as ``true``/``false`` and missing
values as ``null``, matching the vocabulary of the JSON output.

Braid words are quoted token strings (``"b a a B"`` or ``"s2^-1 s1^2"``),
which keeps negative exponents out of the option grammar.  The one
argument that must start with ``-`` on its own, the Conway tuple, is
handled by dropping any typed ``--`` and inserting one before the tuple,
so ``conway -2,2,-3``, ``conway -- -2,2,-3`` and ``conway -2,2,-3 --``
print the same bytes.  List-valued options with negative entries need the
equals form, e.g. ``--k=-3,-1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import __version__
from .burau import homology_order, represent
from .classify import (
    ClassificationResult,
    Witness,
    classify_gof,
    is_two_bridge_closure,
    paper_checks,
    table_cells,
)
from .modular import are_conjugate, cyclic_normal_form, equal_in_b3, project
from .twobridge import (
    LensSpace,
    TwoBridgeForm,
    fraction_from_conway,
    lens_equiv,
    lens_space,
    lens_space_of,
    normalize_two_bridge,
)
from .words import beta, exponent_sum, format_braid, parse_braid


def _fmt(value: object) -> str:
    """Render a value in the fixed CLI vocabulary (null/true/false/str)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _print_record(record: dict) -> None:
    """Print a text record, one ``key: value`` line per field."""
    for key, value in record.items():
        print(f"{key}: {_fmt(value)}")


def _form_fields(form: TwoBridgeForm | None, space: LensSpace | None) -> dict:
    """The two-bridge form and lens space fields of a record, null without a form."""
    if form is None:
        return dict.fromkeys(("alpha", "beta", "lens_p", "lens_q"))
    return dict(alpha=form.alpha, beta=form.beta_canonical, lens_p=space.p, lens_q=space.q_canonical)


def _closure_fields(
    form: TwoBridgeForm | None, space: LensSpace | None, witness: Witness | None
) -> dict:
    """The form fields, then the witness (p, q).  No mirror is ever tested,
    so ``mirrored`` is false on a two-bridge record and null otherwise."""
    p, q = witness or (None, None)
    mirrored = None if witness is None else False
    return {**_form_fields(form, space), "witness_p": p, "witness_q": q, "mirrored": mirrored}


def result_to_record(result: ClassificationResult) -> dict:
    """Flatten a ClassificationResult into its serialization record."""
    return {
        "k": result.k,
        "n": result.n,
        "word": format_braid(result.word),
        "is_two_bridge": result.is_two_bridge,
        **_closure_fields(result.two_bridge, result.lens_space, result.witness),
        "label": str(result.label),
        "description": result.description,
    }


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _int_range(text: str) -> range:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}") from None
    return range(lo, hi + 1)


def _cmd_two_words(ns: argparse.Namespace) -> int:
    print(_fmt(ns.decide(parse_braid(ns.word1), parse_braid(ns.word2))))
    return 0


def _cmd_nf(ns: argparse.Namespace) -> int:
    word = parse_braid(ns.word)
    matrix = represent(word)
    print(f"exponent_sum: {exponent_sum(word)}")
    print(f"matrix: {matrix.rows()}")
    print(f"psl_cyclic_normal_form: {cyclic_normal_form(project(word))}")
    return 0


def _cmd_beta(ns: argparse.Namespace) -> int:
    print(format_braid(beta(ns.k, ns.n)))
    return 0


def _cmd_det(ns: argparse.Namespace) -> int:
    print(homology_order(parse_braid(ns.word)))
    return 0


def _cmd_closure(ns: argparse.Namespace) -> int:
    hit = is_two_bridge_closure(parse_braid(ns.word))
    form, witness = hit or (None, None)
    space = None if form is None else lens_space_of(form)
    _print_record({"two_bridge": hit is not None, **_closure_fields(form, space, witness)})
    return 0


def _cmd_classify(ns: argparse.Namespace) -> int:
    record = result_to_record(classify_gof(ns.k, ns.n))
    if ns.json:
        import json  # on demand: most calls print no JSON

        print(json.dumps(record))
    else:
        _print_record(record)
    return 0


def _cmd_table(ns: argparse.Namespace) -> int:
    # Each row is printed as its cell is classified, so memory does not
    # grow with the grid; a bad grid is refused before the first byte.
    cells = table_cells(ns.k, ns.n)
    if ns.format == "json":
        import json  # on demand: most calls print no JSON

        # the bytes of json.dumps of the whole list, one element at a time
        print("[", end="")
        for i, r in enumerate(cells):
            print(", " if i else "", json.dumps(result_to_record(r)), sep="", end="")
        print("]")
        return 0
    print("k\tn\ttwo_bridge\talpha\tbeta\tlens\tlabel")
    for r in cells:
        fields = _form_fields(r.two_bridge, r.lens_space)
        row = (r.k, r.n, r.is_two_bridge, fields["alpha"], fields["beta"], r.lens_space, r.label)
        print("\t".join(map(_fmt, row)))
    return 0


def _cmd_conway(ns: argparse.Namespace) -> int:
    numerator, denominator = fraction_from_conway(tuple(ns.entries))
    form = normalize_two_bridge(numerator, denominator)
    fields = _form_fields(form, lens_space_of(form))
    _print_record({"fraction": f"{numerator}/{denominator}", **fields})
    return 0


def _cmd_lens_eq(ns: argparse.Namespace) -> int:
    first = lens_space(ns.p1, ns.q1)
    second = lens_space(ns.p2, ns.q2)
    print(_fmt(lens_equiv(first, second, oriented=not ns.unoriented)))
    return 0


def _cmd_verify_paper(ns: argparse.Namespace) -> int:
    all_ok = True
    for title, checks in zip(("case rows", "additional checks"), paper_checks()):
        for check in checks:
            status = "ok" if check.ok else "FAIL"
            expected, computed = _fmt(check.expected), _fmt(check.computed)
            print(f"[{status}] {check.name}: expected {expected}, computed {computed}")
        passed = sum(check.ok for check in checks)
        print(f"{title}: {passed}/{len(checks)} passed")
        all_ok = all_ok and passed == len(checks)
    print(f"verify-paper: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


_WORD_HELP = 'braid word in quotes, e.g. "b a a B" or "s2^-1 s1^2"'


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gofknots",
        description=(
            "Exact three-strand braid algebra, two-bridge arithmetic, and the "
            "classification of genus one fibered knots in lens spaces."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # built per call, so a rebinding of cli.are_conjugate (bench/spans.py) reaches it
    for name, help_text, decide in (
        ("conjugate", "decide whether two braid words are conjugate", are_conjugate),
        ("equal", "decide whether two braid words are equal in the group", equal_in_b3),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("word1", help=_WORD_HELP)
        p.add_argument("word2", help=_WORD_HELP)
        p.set_defaults(func=_cmd_two_words, decide=decide)

    p = sub.add_parser(
        "nf",
        help="print the exponent sum, integral matrix, and cyclic normal form",
    )
    p.add_argument("word", help=_WORD_HELP)
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("beta", help="print the word beta(k, n)")
    p.add_argument("k", type=int, help="full-twist half-count (odd for classify)")
    p.add_argument("n", type=int, help="exponent of the trailing twist region")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser(
        "det", help="print the homology order of the closure's double branched cover"
    )
    p.add_argument("word", help=_WORD_HELP)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser(
        "closure", help="decide whether the closure is a two-bridge link"
    )
    p.add_argument("word", help=_WORD_HELP)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser(
        "classify", help="classify the genus one fibered knot for beta(k, n)"
    )
    p.add_argument("k", type=int, help="odd number of half twists")
    p.add_argument("n", type=int, help="exponent of the trailing twist region")
    p.add_argument("--json", action="store_true", help="emit the record as JSON")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", help="classify every cell of a (k, n) grid")
    p.add_argument(
        "--k",
        required=True,
        type=_int_list,
        metavar="A,B,C",
        help="comma-separated k values (use --k=-3,-1 when negative)",
    )
    p.add_argument(
        "--n",
        required=True,
        type=_int_range,
        metavar="LO..HI",
        help="inclusive n range (use --n=-8..8 when negative)",
    )
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "conway",
        help="evaluate a Conway tuple to its fraction, two-bridge form, and lens space",
    )
    p.add_argument(
        "entries",
        type=_int_list,
        metavar="LIST",
        help="comma-separated integers, e.g. -2,2,-3",
    )
    p.set_defaults(func=_cmd_conway)

    p = sub.add_parser("lens-eq", help="decide whether L(p1,q1) and L(p2,q2) agree")
    p.add_argument("p1", type=int)
    p.add_argument("q1", type=int)
    p.add_argument("p2", type=int)
    p.add_argument("q2", type=int)
    p.add_argument(
        "--unoriented",
        action="store_true",
        help="also accept orientation-reversing homeomorphisms",
    )
    p.set_defaults(func=_cmd_lens_eq)

    p = sub.add_parser(
        "verify-paper",
        help="run the built-in case-analysis and exceptional-knot checks",
    )
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    # The Conway tuple may itself start with "-"; a "--" separator keeps
    # argparse from reading it as an option.  argparse refuses a second
    # one, so typed separators are dropped and one is put after "conway".
    if args[:1] == ["conway"] and not {"-h", "--help"} & set(args):
        args[1:] = ["--", *(arg for arg in args[1:] if arg != "--")]
    ns = _build_parser().parse_args(args)
    try:
        return ns.func(ns)
    except ValueError as exc:  # the package's input errors all subclass it
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as ``| head`` does
        # quiet the interpreter's last flush; exit as SIGPIPE would, 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    raise SystemExit(status)


if __name__ == "__main__":
    app()
