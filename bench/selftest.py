"""Self-test of the benchmark's input generators and its own count oracle.

Run from the repository root:

    python3 bench/selftest.py

Like inputs.py it imports nothing from parteq.
"""

from __future__ import annotations

import random
import unittest

import inputs

LAMBDA_1, KAPPA_1 = "15^2 12 11 9 8 7^4 6^2 5 3 2^2 1", "21 18 11 8 7^4 5 4^3 3^3 2^5 1"
LAMBDA_2, KAPPA_2 = "24 21 20 17 15 14^4 9 7^2 2^5 1^3", "20 17 14^4 7^2 6 4^9 3^7 2^8 1^3"


def partitions(n: int, largest: int | None = None):
    """Every partition of n as a {part: multiplicity} dict, by plain recursion."""
    if n == 0:
        yield {}
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield {**rest, first: rest.get(first, 0) + 1}


class GeneratedInputs(unittest.TestCase):
    def test_every_input_meets_its_definition(self):
        for seed in range(5):
            self.assertEqual(inputs.check_map_ops(inputs.map_stream_ops(seed, 400)), [])

    def test_every_grid_triple_generates_members(self):
        rng = random.Random(0)
        for k in inputs.GRID_K:
            for d in inputs.MAP_D:
                for m in inputs.GRID_M:
                    for n in inputs.MAP_N:
                        self.assertTrue(inputs.in_A(inputs.gen_A(rng, n, k, d, m), n, k, d, m))
                        self.assertTrue(inputs.in_B(inputs.gen_B(rng, n, k, d, m), n, k, d, m))

    def test_both_B_branches_occur(self):
        for seed in range(5):
            ops = inputs.map_stream_ops(seed, 1000)
            self.assertEqual({m < k for start, _, (n, k, d, m) in ops if start == "B"}, {True, False})
            self.assertEqual(sum(start == "A" for start, _, _ in ops), 500)

    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.map_stream_ops(7, 200), inputs.map_stream_ops(7, 200))
        self.assertEqual(inputs.series_deep_ops(7), inputs.series_deep_ops(7))
        self.assertNotEqual(inputs.map_stream_ops(7, 200), inputs.map_stream_ops(8, 200))
        self.assertNotEqual(inputs.series_deep_ops(7), inputs.series_deep_ops(8))

    def test_series_ops_cover_the_grid_evenly(self):
        ops = inputs.series_deep_ops(3)
        triples = sorted((k, d, m) for ident, k, d, m, _ in ops if ident == "eq2")
        grid = [(k, d, m) for k in inputs.GRID_K for d in inputs.GRID_D for m in inputs.GRID_M]
        self.assertEqual(triples, sorted(grid * inputs.SERIES_PASSES))
        self.assertTrue(all(N >= 1000 for ident, *_, N in ops if ident == "eq2"))


class Definitions(unittest.TestCase):
    def test_golden_examples(self):
        # 123,7,3,4 takes the m < k branch of B; 189,4,3,7 the m >= k branch.
        self.assertTrue(inputs.in_A(inputs.parse(LAMBDA_1), 123, 7, 3, 4))
        self.assertTrue(inputs.in_B(inputs.parse(KAPPA_1), 123, 7, 3, 4))
        self.assertTrue(inputs.in_A(inputs.parse(LAMBDA_2), 189, 4, 3, 7))
        self.assertTrue(inputs.in_B(inputs.parse(KAPPA_2), 189, 4, 3, 7))
        self.assertFalse(inputs.in_A(inputs.parse(KAPPA_1), 123, 7, 3, 4))
        self.assertFalse(inputs.in_B(inputs.parse(LAMBDA_2), 189, 4, 3, 7))

    def test_text_form_round_trips(self):
        for text in (LAMBDA_1, KAPPA_1, LAMBDA_2, KAPPA_2, ""):
            self.assertEqual(inputs.render(inputs.parse(text)), text)

    def test_count_table_matches_brute_force(self):
        nmax = 14
        for k, d, m in [(1, 1, 1), (2, 2, 3), (3, 2, 1), (1, 3, 2), (2, 4, 1), (3, 2, None)]:
            table = inputs.count_A_table(k, d, m, nmax)
            bound = nmax + 1 if m is None else m
            for n in range(nmax + 1):
                want = sum(inputs.in_A(p, n, k, d, bound) for p in partitions(n))
                self.assertEqual(table[n], want, (k, d, m, n))

    def test_equinumerous_by_brute_force(self):
        # The theorem itself, on the local predicates: a predicate that
        # mis-read its definition would most likely break it.
        for n in range(13):
            parts = list(partitions(n))
            for k, d, m in [(1, 2, 1), (2, 2, 1), (2, 3, 4), (3, 2, 2), (1, 2, 3)]:
                count_a = sum(inputs.in_A(p, n, k, d, m) for p in parts)
                count_b = sum(inputs.in_B(p, n, k, d, m) for p in parts)
                self.assertEqual(count_a, count_b, (n, k, d, m))


if __name__ == "__main__":
    unittest.main()
