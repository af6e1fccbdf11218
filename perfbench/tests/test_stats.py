"""Unit tests for the aggregation rules and span accounting.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from hpabench import stats, trace  # noqa: E402


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 39 samples: p75 is rank 30, leaving 9 beyond it -- not enough.
        self.assertIsNone(stats.tail(list(range(39))))
        # 40 samples: p75 is rank 30 with 10 beyond.
        self.assertEqual(stats.tail(list(range(40))), (75.0, 29))

    def test_picks_highest_percentile_that_qualifies(self):
        xs = list(range(1, 201))  # 200 samples
        # p95 is rank 190 (10 beyond); p99 is rank 198 (2 beyond).
        self.assertEqual(stats.tail(xs), (95.0, 190))
        self.assertEqual(stats.tail(list(range(1, 1001)))[0], 99.0)

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 3.0] * 20
        self.assertEqual(stats.tail(xs), stats.tail(sorted(xs)))


class FastestRepetition(unittest.TestCase):
    def test_sum_of_each_operations_fastest(self):
        r = stats.Reps()
        for key, t in (("a", 3.0), ("a", 1.0), ("b", 2.0), ("a", 2.0), ("b", 5.0)):
            r.add(key, t)
        self.assertEqual(r.fastest("a"), 1.0)
        self.assertEqual(r.total_fastest(), 3.0)
        self.assertEqual(r.total_fastest(["b"]), 2.0)
        self.assertEqual(r.count(), 5)

    def test_slow_repetitions_do_not_move_the_total(self):
        r = stats.Reps()
        r.add("a", 1.0)
        r.add("b", 2.0)
        before = r.total_fastest()
        for _ in range(10):
            r.add("a", 9.0)
        self.assertEqual(r.total_fastest(), before)

    def test_spread_is_slowest_over_fastest(self):
        r = stats.Reps()
        r.add("a", 1.0)
        r.add("a", 1.5)
        r.add("b", 2.0)
        r.add("b", 6.0)
        r.add("c", 4.0)  # never repeated: not in the spread
        s = r.spread()
        self.assertEqual(s["ops_repeated"], 2)
        self.assertEqual(s["max"], 3.0)
        self.assertEqual(s["median"], 2.25)
        self.assertEqual(stats.Reps().spread()["ops_repeated"], 0)


class BracketedTiming(unittest.TestCase):
    @staticmethod
    def measure(slowdowns, op_cost=10.0, ref_cost=1.0):
        """Operation "a" then "b", each under its own host slowdown, with
        the calibration run just before and after each at that slowdown."""
        b = stats.Bracketed(nominal=1.0)
        for key, s in zip("ab", slowdowns):
            before = b.burst([ref_cost * s])
            after = b.burst([ref_cost * s])
            b.add(key, op_cost * s, before, after)
        return b

    def test_quiet_host_time_ignores_slow_stretches(self):
        self.assertAlmostEqual(self.measure([1.0, 1.0]).total(), 20.0)
        # "b" ran in a 2x slow stretch; the reference around it slowed too.
        self.assertAlmostEqual(self.measure([1.0, 2.0]).total(), 20.0)
        # A run with no quiet moment at all reads the same.
        self.assertAlmostEqual(self.measure([2.0, 2.0]).total(), 20.0)

    def test_a_slower_program_reads_slower(self):
        base = self.measure([1.0, 2.0]).total()
        self.assertAlmostEqual(self.measure([1.0, 2.0], op_cost=11.0).total(), base * 1.1)

    def test_a_slower_host_reads_the_same(self):
        # A host whose calibration runs 10% slower runs the operations 10%
        # slower too; quiet-host time does not move.
        both = self.measure([1.0, 2.0], op_cost=11.0, ref_cost=1.1).total()
        self.assertAlmostEqual(both, self.measure([1.0, 2.0]).total())

    def test_nominal_scale_and_median_ratio(self):
        b = stats.Bracketed(nominal=0.5)
        self.assertEqual(b.burst([3.0, 1.0, 2.0]), 2.0)
        b.add("x", 4.0, 2.0, 2.0)
        b.add("x", 8.0, 2.0, 2.0)
        b.add("x", 12.0, 2.0, 2.0)
        self.assertEqual(b.floor(), 1.0)
        self.assertEqual(b.total(), 2.0)
        self.assertEqual(b.quiet_median("x"), 2.0)


class FailureAccounting(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        t = stats.Tally()
        for _ in range(9):
            t.ok()
        t.fail("gzip", "emulator fault")
        t.fail("gzip", "emulator fault")
        t.fail("vortex", "checksum mismatch")
        self.assertEqual((t.attempted, t.failed), (12, 3))
        self.assertAlmostEqual(t.share(), 0.25)
        self.assertEqual(t.errors, {"gzip: emulator fault": 2, "vortex: checksum mismatch": 1})

    def test_empty_tally(self):
        self.assertEqual(stats.Tally().share(), 0.0)

    def test_keyed_tally_counts_each_operation_once(self):
        t = stats.KeyedTally()
        for _ in range(5):
            t.attempt("gap")
        t.attempt("gzip", "emulator fault")
        t.attempt("mcf")
        t.attempt("mcf", "checksum mismatch")
        t.attempt("mcf")
        self.assertEqual(t.failed_keys(), {"gzip", "mcf"})
        t.close()
        self.assertEqual((t.attempted, t.failed), (3, 2))
        self.assertEqual(t.errors, {"gzip: emulator fault": 1, "mcf: checksum mismatch": 1})


class Spans(unittest.TestCase):
    def test_accounting_is_the_share_children_cover(self):
        t = trace.Tracer()
        root = t.add("job", 0.0, 10.0)
        t.add("submit", 0.0, 2.0, root)
        t.add("run", 2.0, 9.0, root)
        self.assertAlmostEqual(t.accounted(("job",)), 0.9)

    def test_overlapping_children_count_once(self):
        t = trace.Tracer()
        root = t.add("job", 0.0, 10.0)
        t.add("a", 1.0, 5.0, root)
        t.add("b", 4.0, 6.0, root)
        self.assertAlmostEqual(t.accounted(("job",)), 0.5)

    def test_accounting_ignores_other_roots(self):
        t = trace.Tracer()
        root = t.add("cell", 0.0, 4.0)
        t.add("sim.run", 0.0, 4.0, root)
        t.add("cell.untraced", 4.0, 8.0)
        self.assertAlmostEqual(t.accounted(("cell",)), 1.0)

    def test_durations_by_job(self):
        t = trace.Tracer()
        t.add("emu.ff", 0.0, 1.0, job=3)
        t.add("emu.ff", 2.0, 2.5, job=3)
        t.add("emu.ff", 0.0, 4.0, job=4)
        self.assertEqual(t.durations_by_job(), {3: {"emu.ff": 1.5}, 4: {"emu.ff": 4.0}})


if __name__ == "__main__":
    unittest.main()
