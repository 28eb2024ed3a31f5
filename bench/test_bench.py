"""Tests of the benchmark's own oracle, generator and tracer.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

import inputs
import oracle
import run
from spans import METRICS, RUN, Tracer


class OracleTest(unittest.TestCase):
    def test_exceptional_cells(self):
        self.assertEqual(oracle.beta_cell(-3, 5), ((7, 2), "ExceptionL72(+1)"))
        self.assertEqual(oracle.standard_form_closure(-2, -3, False), (7, 2))
        self.assertEqual(oracle.standard_form_closure(-2, -3, True), (7, 3))  # L(7,3)
        self.assertEqual(oracle.beta_cell(3, -5), ((7, 3), "ExceptionL72(-1)"))

    def test_plumbing_rows_and_unlink_cells(self):
        self.assertEqual(oracle.beta_cell(1, 3), ((5, 1), "HopfPlumbing(r=5,band=+1)"))
        self.assertEqual(oracle.beta_cell(-1, -8), ((10, 9), "HopfPlumbing(r=-10,band=-1)"))
        self.assertEqual(oracle.beta_cell(-3, 3), ((5, 4), "HopfPlumbing(r=-5,band=-1)"))
        self.assertEqual(oracle.beta_cell(1, -3), ((1, 0), "HopfPlumbing(r=-1,band=+1)"))
        self.assertEqual(oracle.beta_cell(1, -2), (None, "HopfPlumbing(r=0,band=+1)"))
        self.assertEqual(oracle.beta_cell(-1, 2), (None, "HopfPlumbing(r=0,band=-1)"))
        self.assertEqual(oracle.beta_cell(5, -13), (None, "NotLensSpace"))

    def test_alpha_zero_has_no_form(self):
        self.assertIsNone(oracle.standard_form_closure(0, 0, False))
        self.assertIsNone(oracle.standard_form_closure(-1, -1, True))

    def test_trace_is_a_conjugacy_invariant(self):
        rng = random.Random(0)
        core = inputs.random_word(rng, 50)
        word = inputs.disguise(rng, core, 30, 200, mirrored=False)
        self.assertEqual(oracle.trace(word), oracle.trace(core))
        self.assertEqual(oracle.trace(inputs.mirror(word)), oracle.trace(core))
        for block in inputs.PADDING:
            self.assertEqual(oracle.trace(block), 2)

    def test_verify_paper_checks(self):
        rows, extra = oracle.verify_paper_checks()
        self.assertEqual(len(rows), 8)
        self.assertEqual([name for name, value in rows if value], [
            "case B: beta(-3,5) vs standard form on {-2,-3}",
            "case B: beta(-3,3) vs standard form on {-1,-6}",
        ])
        self.assertEqual([value for _, value in extra], [True, True] + [False] * 4 + [True, True])
        self.assertEqual(extra[-1][0], "L(7,3) differs from every L(n+-2,1), n in [-40,40]")

    def test_lens_class_ignores_orientation(self):
        self.assertEqual(oracle.lens_class(7, 2), oracle.lens_class(7, 3))
        self.assertEqual(oracle.lens_class(-5, 1), (5, 1))
        self.assertNotEqual(oracle.lens_class(7, 2), oracle.lens_class(7, 1))
        self.assertIsNone(oracle.lens_class(0, 1))

    def test_conway_fraction(self):
        self.assertEqual(oracle.conway_fraction((-2, 2, -3)), (7, -5))
        self.assertIsNone(oracle.conway_fraction((1, 1, -1)))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload, make in inputs.PASSES.items():
            with self.subTest(workload=workload):
                first = make(7, 1)
                self.assertEqual(first, make(7, 1))
                self.assertNotEqual(first.cases, make(8, 1).cases)
                self.assertTrue(first.sizes)

    def test_sizes_do_not_depend_on_the_seed(self):
        self.assertEqual(inputs.grid_scan_pass(1, 0).sizes, inputs.grid_scan_pass(2, 0).sizes)
        self.assertEqual(inputs.conjugacy_pass(1, 3).sizes["pairs"], 40)
        self.assertEqual(inputs.cli_pass(1, 0).sizes["calls"], 35)  # 3.5 beyond p90

    def test_grid_passes_cover_the_grid(self):
        cells = set()
        for index in range(inputs.GRID_CLASSES):
            cells |= {case[:2] for case in inputs.grid_scan_pass(3, index).cases}
        self.assertEqual(len(cells), 20050)
        first = {case[:2] for case in inputs.grid_scan_pass(3, 0).cases}
        self.assertTrue(set(inputs.SPECIAL_CELLS) <= first)

    def test_conjugacy_pairs_are_certified(self):
        rng = random.Random(1)
        for periodic, conjugate in inputs.CONJUGACY_KINDS:
            u, v = inputs._conjugacy_pair(rng, 2000, periodic, conjugate)
            self.assertEqual(sum(x // abs(x) for x in u), sum(x // abs(x) for x in v))
            self.assertEqual(oracle.trace(u) == oracle.trace(v), conjugate)

    def test_text_round_trips(self):
        rng = random.Random(2)
        letters = inputs.standard_letters(7, -4) + inputs.random_word(rng, 40)
        text = inputs.to_text(rng, letters)
        parsed = []
        for token in text.split():
            if token.startswith("s"):
                gen, exp = token[1:].split("^")
                parsed += [int(gen) if int(exp) > 0 else -int(gen)] * abs(int(exp))
            else:
                parsed.append({v: k for k, v in inputs.TOKENS.items()}[token])
        self.assertEqual(parsed, letters)


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_site_and_restores_them(self):
        sys.path.insert(0, str(run.SRC))
        package, mods = run.load_package()
        original = mods["burau"].represent
        tracer = Tracer(package, mods)
        with tracer:
            self.assertIs(mods["modular"].represent, mods["burau"].represent)
            self.assertIsNot(mods["burau"].represent, original)
            self.assertTrue(hasattr(mods["classify"].homology_order, "__wrapped__"))
            mods["classify"].classify_gof(-3, 5)
        self.assertIs(mods["modular"].represent, original)
        self.assertFalse(hasattr(mods["classify"].homology_order, "__wrapped__"))
        run_values = {metric.name: 0.0 for metric in METRICS if metric.how == RUN}
        metrics = tracer.report({**run_values, "verdicts": 1})
        self.assertEqual(metrics["classify.is_two_bridge_closure.hits"], 1)
        self.assertEqual(metrics["classify.is_two_bridge_closure.conjugacy_tests"], 1)
        self.assertEqual(metrics["classify.conjugacy_hit_ratio"], 1.0)
        self.assertGreater(metrics["burau.represent.calls_per_verdict"], 1)
        self.assertGreater(metrics["burau.represent.max_entry_bits"], 0)
        for name, value in tracer.totals.items():
            if name.endswith(".self_s"):
                self.assertGreaterEqual(value, 0.0)


class StatisticsTest(unittest.TestCase):
    def test_nearest_rank_percentile_leaves_ten_beyond_p90(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile(values, 0.5), 50)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_match_the_runner(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        # grid-scan and closure-mix stay runnable by hand; they are too unsteady
        # on a shared host to carry a bound.
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS) - {"grid-scan", "closure-mix"})
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], [(m.name, m.unit, m.better) for m in METRICS])


if __name__ == "__main__":
    unittest.main()
