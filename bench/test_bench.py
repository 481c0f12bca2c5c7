"""Self-tests of the benchmark: the checker rejects wrong outputs, the tracer
leaves the program as it found it, the latency quantiles do not depend on the
pass count, and the metric names match BENCHMARK.json.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from circledyn import arith, families, lifting, markov  # noqa: E402

TOL = workloads.VERIFY_TOL


def module_bindings() -> dict:
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] == tracer.PACKAGE and mod:
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in (lifting.Lifting, arith.IntPolynomial):
        out[(cls.__name__, "eval")] = vars(cls)["eval"]
    return out


class CheckerTest(unittest.TestCase):
    def test_accepts_bracket_and_rejects_it_shifted_by_its_width(self):
        br = markov.entropy(families.make("dream", 4).markov, TOL)
        poly = check.family_poly("dream", 4)
        self.assertEqual(check.bracket_problems("dream 4", poly, br.lower, br.upper, TOL), [])
        w = br.upper - br.lower
        for shift in (w, -w):
            problems = check.bracket_problems("dream 4", poly, br.lower + shift, br.upper + shift, TOL)
            self.assertTrue(problems, shift)

    def test_rejects_period_set_missing_one_element(self):
        item = ("family", "persistent", 9)
        rep = families.verify(families.make("persistent", 9), TOL)
        self.assertEqual(check.check_verify(item, rep, TOL), [])
        for k in sorted(rep.computed_per.finite):
            bad = dataclasses.replace(rep, computed_per=dataclasses.replace(
                rep.computed_per, finite=rep.computed_per.finite - {k}))
            self.assertTrue(check.check_verify(item, bad, TOL), k)

    def test_scan_rows_checked_across_items(self):
        rows = {}
        for n in (3, 4):
            res = workloads.run_item("scan", ("dream", n))
            self.assertEqual(check.check_scan(("dream", n), res, workloads.SCAN_TOL), [])
            rows[("dream", n)] = res.rows[0]
        self.assertEqual(check.check_scan_order(rows), {})
        swapped = {("dream", 3): rows[("dream", 4)], ("dream", 4): rows[("dream", 3)]}
        self.assertIn(("dream", 4), check.check_scan_order(swapped))

    def test_rejects_wrong_montevideo_literal(self):
        sbc, bc = check.cofiniteness(*check.period_set("montevideo", 3))
        self.assertEqual(bc, 6)
        self.assertEqual(check.cofin_problems("montevideo 3", sbc, bc, "montevideo", 3), [])
        self.assertTrue(check.cofin_problems("montevideo 3", sbc, bc + 1, "montevideo", 3))


class TracerTest(unittest.TestCase):
    def test_wrappers_restore_the_original_functions(self):
        before = module_bindings()
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(families.verify, before[("circledyn.families", "verify")])
            self.assertIsNot(families.rotation_interval, before[("circledyn.lifting", "rotation_interval")])
            out = workloads.run_item("verify", ("family", "dream", 3))
        finally:
            tr.uninstall()
        after = module_bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key, value in before.items() if after[key] is not value]
        self.assertEqual(changed, [])
        self.assertEqual(check.check_verify(("family", "dream", 3), out, TOL), [])
        times = tracer.self_times(tr.spans)
        for name in ("families.verify", "families.make", "lifting.rotation_interval",
                     "oracle.periods_up_to", "markov.perron_bracket"):
            self.assertIn(name, times)
        self.assertGreater(tr.counts["lifting.eval.calls"], 0)
        self.assertGreater(tr.counts["markov.classes"], 0)

    def test_self_time_subtracts_direct_children(self):
        spans = [("a", -1, 0, 100), ("b", 0, 10, 60), ("c", 1, 20, 30), ("b", 0, 70, 80)]
        self.assertEqual(
            tracer.self_times(spans),
            {"a": (40e-9, 1), "b": (50e-9, 2), "c": (10e-9, 1)},
        )
        self.assertEqual(tracer.top_level_seconds(spans), 100e-9)


class MetricTest(unittest.TestCase):
    def test_item_quantiles_do_not_depend_on_the_pass_count(self):
        # 29 items: 25 cheap ones, then four costly ones, as on verify
        costs = [0.05] * 25 + [0.35, 0.45, 0.55, 2.7]
        for passes in (3, 4, 5, 6):
            latencies = [[c] * passes for c in costs]
            p50, p90 = run.item_quantiles(latencies)
            self.assertEqual(p50, 0.05)
            self.assertAlmostEqual(p90, 0.8 * 0.35 + 0.2 * 0.45)

    def test_speed_scale_is_ref_s_over_the_median_sample(self):
        s = speed.Speed()
        s.samples = [0.004, 0.010, 0.006]
        self.assertAlmostEqual(s.scale(), speed.REF_S / 0.006)
        s.sample()
        self.assertGreater(s.samples[-1], 0)

    def test_items_are_scaled_by_the_samples_around_them(self):
        s = speed.Speed()
        # the host runs at half speed from the fifth item on
        s.samples = [0.005] * 5 + [0.010] * 8
        scaled = s.scale_items([0.1] * 12)
        self.assertAlmostEqual(scaled[0], 0.1 * speed.REF_S / 0.005)
        self.assertAlmostEqual(scaled[-1], 0.1 * speed.REF_S / 0.010)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_seed_only_permutes_items(self):
        for w in workloads.WORKLOADS:
            a = [workloads.label(it) for it in workloads.make_items(w, 1)]
            b = [workloads.label(it) for it in workloads.make_items(w, 2)]
            self.assertEqual(sorted(a), sorted(b))
            self.assertEqual(a, [workloads.label(it) for it in workloads.make_items(w, 1)])
        self.assertEqual(len(workloads.base_items("verify")), 29)
        self.assertEqual(len(workloads.base_items("beta")), 16)


if __name__ == "__main__":
    unittest.main()
