"""Tests of compare.py: deltas are reported and unequal counts flagged."""
import io
import unittest

import compare


def run(self_s, sanitize_spans, records):
    return {
        "manifest": {"git_describe": "x", "workload": "archive", "seed": 1},
        "trace": {
            "self_by_layer": {"core": self_s, "bgp": 0.5},
            "self_by_name": {"core.sanitize": {"self_s": self_s, "count": sanitize_spans}},
        },
        "metrics": {
            "core.sanitize_s": {"value": self_s, "unit": "s", "samples": 8},
            "core.sanitize.records": {"value": records, "unit": "count", "samples": 1},
        },
    }


class CompareTest(unittest.TestCase):
    def test_equal_counts_are_not_flagged(self):
        out = io.StringIO()
        flags = compare.compare(run(3.0, 8, 100), run(2.4, 8, 100), out)
        self.assertEqual(flags, [])
        self.assertIn("-20.0%", out.getvalue())

    def test_unequal_counts_are_flagged(self):
        out = io.StringIO()
        flags = compare.compare(run(3.0, 8, 100), run(3.0, 7, 101), out)
        self.assertEqual(len(flags), 2)
        self.assertIn("core.sanitize.records", " ".join(flags))
        self.assertIn("spans of core.sanitize", " ".join(flags))

    def test_metric_missing_from_one_run_is_flagged(self):
        new = run(3.0, 8, 100)
        del new["metrics"]["core.sanitize.records"]
        flags = compare.compare(run(3.0, 8, 100), new, io.StringIO())
        self.assertEqual(flags, ["core.sanitize.records reported by one run only"])


if __name__ == "__main__":
    unittest.main()
