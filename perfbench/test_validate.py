"""Self-test of the output checks: each corrupted report must be rejected.

Run with `python3 perfbench/test_validate.py` or
`python3 -m pytest perfbench/test_validate.py`.
"""

import json
import unittest

import validate
from inputs import MARKOFF_TRACES


def jsonl(records, aggregate):
    return "".join(json.dumps(row) + "\n" for row in [*records, aggregate])


def lemma_report():
    records = [{"suite": s, "cap": 200 if s == "recurrences" else 60,
                "checks": n, "failures": 0}
               for s, n in validate.LEMMA_CHECKS.items()]
    total = sum(validate.LEMMA_CHECKS.values())
    return records, {"suites": 4, "checks": total, "failures": 0}


def scan_report(max_den=20):
    oracle = validate.fricke_traces(*MARKOFF_TRACES, max_den)
    records = [{"p": p, "q": q, "len": p + q, "tr": [float(t), 0.0],
                "tl": 1.5, "ratio": 0.9, "flags": []}
               for (p, q), t in sorted(oracle.items())]
    return records, {"classes": len(records), "violations": 0}


def trial_report():
    records = [{"branch": "close", "d": 1.0, "ok": True}] * validate.TRIALS
    return records, {"trials": validate.TRIALS, "violations": 0,
                     "branches": {}}


class ValidatorTest(unittest.TestCase):
    def test_valid_reports_pass(self):
        self.assertEqual(validate.check_lemmas(jsonl(*lemma_report())), 0.0)
        self.assertEqual(validate.check_scan(jsonl(*scan_report()), 20), 0.0)
        self.assertEqual(validate.check_trials(jsonl(*trial_report())), 0.0)

    def test_fricke_oracle_counts_every_class(self):
        for max_den, classes in validate.SCAN_CLASSES.items():
            oracle = validate.fricke_traces(*MARKOFF_TRACES, max_den)
            self.assertEqual(len(oracle), classes)
        self.assertEqual(validate.fricke_traces(3, 3, 3, 2)[2, 1], 6)

    def test_check_count_off_by_one_is_rejected(self):
        records, aggregate = lemma_report()
        records[3]["checks"] -= 1
        with self.assertRaises(validate.Invalid):
            validate.check_lemmas(jsonl(records, aggregate))

    def test_lemma_failure_is_rejected(self):
        records, aggregate = lemma_report()
        aggregate["failures"] = 1
        with self.assertRaises(validate.Invalid):
            validate.check_lemmas(jsonl(records, aggregate))

    def test_nan_translation_length_is_rejected(self):
        records, aggregate = scan_report()
        records[100]["tl"] = float("nan")
        records[100]["ratio"] = float("nan")
        with self.assertRaises(validate.Invalid):
            validate.check_scan(jsonl(records, aggregate), 20)

    def test_infinite_number_is_rejected(self):
        records, aggregate = scan_report()
        text = jsonl(records, aggregate).replace('"tl": 1.5', '"tl": 1e999', 1)
        with self.assertRaises(validate.Invalid):
            validate.check_scan(text, 20)

    def test_violations_aggregate_is_rejected(self):
        for make, check in (
                (scan_report, lambda text: validate.check_scan(text, 20)),
                (trial_report, validate.check_trials)):
            records, aggregate = make()
            aggregate["violations"] = 1
            with self.assertRaises(validate.Invalid):
                check(jsonl(records, aggregate))

    def test_wrong_trace_is_rejected(self):
        records, aggregate = scan_report()
        records[-1]["tr"][0] *= 1 + 1e-6
        with self.assertRaises(validate.Invalid):
            validate.check_scan(jsonl(records, aggregate), 20)

    def test_malformed_trace_is_rejected(self):
        records, aggregate = scan_report()
        records[5]["tr"] = "3"
        with self.assertRaises(validate.Invalid):
            validate.check_scan(jsonl(records, aggregate), 20)

    def test_missing_class_is_rejected(self):
        records, aggregate = scan_report()
        with self.assertRaises(validate.Invalid):
            validate.check_scan(jsonl(records[:-1], aggregate), 20)

    def test_failed_trial_is_rejected(self):
        records, aggregate = trial_report()
        records = [*records[:-1], {"branch": "apart", "ok": False}]
        with self.assertRaises(validate.Invalid):
            validate.check_trials(jsonl(records, aggregate))

    def test_malformed_output_is_rejected(self):
        for text in ("", "not json\n", "[1, 2]\n"):
            with self.assertRaises(validate.Invalid):
                validate.check_trials(text)


if __name__ == "__main__":
    unittest.main()
