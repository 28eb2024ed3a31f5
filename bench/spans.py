"""Per-layer tracing from outside the package.

A ``Tracer`` wraps every public function of the layer modules and
rebinds the wrapper at every binding site in the package: because of
``from .x import y``, ``represent`` is bound in both ``burau`` and
``modular``, and ``homology_order`` in ``burau``, ``classify`` and ``cli``.
Each call opens a span whose parent is the innermost open span; its self
time is its duration minus the durations of its child spans.  Spans are
folded into per-function totals as they close.

``METRICS`` is the one table of the per-layer metrics: each one's name,
unit, direction and how it is counted.
"""

from __future__ import annotations

import inspect
from collections import namedtuple
from time import perf_counter

LAYERS = ("words", "burau", "modular", "twobridge", "classify", "cli")

# How a metric is counted.  The first three are taken at the boundary of the
# spans of the function the metric is named after (``<module>.<function>``).
Sum = namedtuple("Sum", "value")  # value(args, result) summed over calls
Max = namedtuple("Max", "value")  # the largest value(args, result)
Within = namedtuple("Within", "function")  # calls of another function inside the spans
Ratio = namedtuple("Ratio", "numerator denominator")  # of two other metrics or run values
CALLS = "spans of the function"
SELF_S = "span time minus child span time"
RUN = "measured by the runner"

Metric = namedtuple("Metric", "name unit better how")


def _bits(matrix) -> int:
    return max(abs(getattr(matrix, name)).bit_length() for name in "abcd")


def _calls(key):
    return Metric(f"{key}.calls", "count", "lower", CALLS)


def _self_s(key):
    return Metric(f"{key}.self_s", "s", "lower", SELF_S)


def _letters_in(args, out):
    return len(args[0])


METRICS = (
    _calls("words.parse_braid"),
    Metric("words.parse_braid.letters", "letters", "lower", Sum(lambda args, out: len(out))),
    _self_s("words.parse_braid"),
    _calls("words.beta"),
    _self_s("words.beta"),
    _calls("words.mirror"),
    _self_s("words.mirror"),
    _calls("words.standard_form"),
    _self_s("words.standard_form"),
    _calls("burau.represent"),
    Metric("burau.represent.letters", "letters", "lower", Sum(_letters_in)),
    _self_s("burau.represent"),
    Metric("burau.represent.max_entry_bits", "bits", "lower", Max(lambda args, out: _bits(out))),
    Metric("burau.represent.calls_per_verdict", "1/verdict", "lower", Ratio("burau.represent.calls", "verdicts")),
    _calls("burau.homology_order"),
    _self_s("burau.homology_order"),
    _calls("modular.project"),
    Metric("modular.project.letters", "letters", "lower", Sum(_letters_in)),
    Metric("modular.project.syllables_out", "syllables", "lower", Sum(lambda args, out: len(out))),
    _self_s("modular.project"),
    _calls("modular.cyclic_normal_form"),
    Metric("modular.cyclic_normal_form.syllables", "syllables", "lower", Sum(_letters_in)),
    _self_s("modular.cyclic_normal_form"),
    _calls("modular.are_conjugate"),
    Metric("modular.are_conjugate.true", "count", "higher", Sum(lambda args, out: int(out))),
    _self_s("modular.are_conjugate"),
    _calls("twobridge.normalize_two_bridge"),
    _self_s("twobridge.normalize_two_bridge"),
    _calls("twobridge.lens_space_of"),
    _self_s("twobridge.lens_space_of"),
    _calls("twobridge.mirror_two_bridge"),
    _self_s("twobridge.mirror_two_bridge"),
    _calls("classify.candidate_pq"),
    Metric("classify.candidate_pq.candidates", "count", "lower", Sum(lambda args, out: len(out))),
    _self_s("classify.candidate_pq"),
    _calls("classify.is_two_bridge_closure"),
    Metric("classify.is_two_bridge_closure.hits", "count", "higher", Sum(lambda args, out: int(out is not None))),
    Metric("classify.is_two_bridge_closure.conjugacy_tests", "count", "lower", Within("modular.are_conjugate")),
    _self_s("classify.is_two_bridge_closure"),
    _calls("classify.classify_gof"),
    _self_s("classify.classify_gof"),
    _calls("classify.scan_table"),
    _self_s("classify.scan_table"),
    Metric(
        "classify.conjugacy_hit_ratio",
        "ratio",
        "higher",
        Ratio("classify.is_two_bridge_closure.hits", "classify.is_two_bridge_closure.conjugacy_tests"),
    ),
    Metric("cli.startup_s", "s", "lower", RUN),
    Metric("cli.main_s", "s", "lower", RUN),
    Metric("cli.output_bytes", "bytes/call", "lower", RUN),
    Metric("trace.overhead_share", "ratio", "lower", RUN),
)


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Per-function totals of the spans seen while the tracer is active.

    ``with tracer:`` installs the wrappers in ``package`` and the layer
    ``modules`` (layer name -> module); leaving the block restores the
    original functions.  ``totals`` maps ``<key>.calls``, ``<key>.self_s``
    and the boundary metrics of ``METRICS`` to their values so far."""

    def __init__(self, package, modules):
        self.totals: dict[str, float] = {}
        self._stack: list[list] = []  # open spans, innermost last: [start, child time]
        wrappers = {}
        for layer, module in modules.items():
            for name, function in public_functions(module):
                wrappers[id(function)] = self._wrap(f"{layer}.{name}", function)
        self._sites = [
            (site, name, value, wrappers[id(value)])
            for site in [package, *modules.values()]
            for name, value in vars(site).items()
            if id(value) in wrappers
        ]

    def __enter__(self):
        for site, name, _, wrapper in self._sites:
            setattr(site, name, wrapper)
        return self

    def __exit__(self, *exc_info):
        for site, name, original, _ in self._sites:
            setattr(site, name, original)

    def report(self, run_values: dict) -> dict:
        """Every metric of ``METRICS``; ``run_values`` holds the runner's own
        measurements and the denominators that are not metrics (verdicts)."""
        values = {**self.totals, **run_values}
        for metric in METRICS:
            if isinstance(metric.how, Ratio):
                denominator = values[metric.how.denominator]
                values[metric.name] = values[metric.how.numerator] / denominator if denominator else 0.0
        return {metric.name: values[metric.name] for metric in METRICS}

    def _wrap(self, key: str, function):
        stack, totals = self._stack, self.totals
        calls, self_s = f"{key}.calls", f"{key}.self_s"
        totals[calls] = 0
        totals[self_s] = 0.0
        sums, maxes, within = [], [], []
        for metric in METRICS:
            if metric.name.rpartition(".")[0] != key:
                continue
            if isinstance(metric.how, Sum):
                sums.append((metric.name, metric.how.value))
            elif isinstance(metric.how, Max):
                maxes.append((metric.name, metric.how.value))
            elif isinstance(metric.how, Within):
                within.append((metric.name, f"{metric.how.function}.calls"))
            else:  # calls and self time are kept for every function
                continue
            totals[metric.name] = 0

        def wrapper(*args, **kwargs):
            marks = [totals[inner] for _, inner in within]
            span = [0.0, 0.0]
            stack.append(span)
            span[0] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = perf_counter() - span[0]
                stack.pop()
                if stack:  # the parent span
                    stack[-1][1] += duration
                totals[calls] += 1
                totals[self_s] += duration - span[1]
            for name, value in sums:
                totals[name] += value(args, result)
            for name, value in maxes:
                totals[name] = max(totals[name], value(args, result))
            for (name, inner), mark in zip(within, marks):
                totals[name] += totals[inner] - mark
            return result

        wrapper.__wrapped__ = function
        return wrapper
