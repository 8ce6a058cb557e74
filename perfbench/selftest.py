"""Self-tests of the benchmark (stdlib unittest, about a minute).

    python3 perfbench/selftest.py

Each workload runs at smoke size, untraced and traced; a tampered output
counts as failed; a different seed changes the inputs; two traced runs
of one seed count the same calls; op times scale by the nearby samples
of the reference loop; the compare verdicts; and a directory without the
library is refused.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from monogenic import (CliffordNumber, CliffordPolynomial, fock, gauss,  # noqa: E402
                       transform, verify)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = HERE / ".work" / "selftest"


def run_bench(workload: str, seed: int, trace: int,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke", "--results", str(WORK / "results")],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_runs_and_checks_clean(self):
        names = {"0": {m["name"] for m in SPEC["end_to_end"]},
                 "1": {m["name"] for m in SPEC["per_layer"]}}
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_bench(w["name"], 1, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = last_json(proc)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(set(res["metrics"]), names[str(trace)])

    def test_traced_call_counts_repeat(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                a, b = (last_json(run_bench(w["name"], 3, 1))["metrics"] for _ in range(2))
                calls = {k: v["value"] for k, v in a.items() if k.endswith(".calls")}
                self.assertTrue(any(calls.values()))
                self.assertEqual(calls, {k: b[k]["value"] for k in calls})


class TamperedOutputs(unittest.TestCase):
    def test_gram_tables(self):
        (n, betas), _ = workloads.gram_inputs(5, smoke=True)
        ps = [transform.p_basis(n, b) for b in betas]
        hs = [transform.hermite(n, b) for b in betas]
        p_table = [[gauss.clifford_pairing(a, b, gauss.Measure.MU_TILDE) for b in ps] for a in ps]
        h_table = [[gauss.inner_rho(a, b) for b in hs] for a in hs]
        self.assertEqual(workloads.check_gram(betas, p_table, h_table), 0)
        h_table[0][0] = h_table[0][0] + 1
        p_table[0][1] = p_table[0][1] + CliffordNumber.blade(n, (1,))
        self.assertEqual(workloads.check_gram(betas, p_table, h_table), 3)

    def test_transform_stream(self):
        f = verify.rand_poly(random.Random(5), 3, 4)
        F = transform.sb_transform(f)
        G = fock.fock_to_monogenic(fock.taylor_map(F))
        g = transform.sb_inverse(G)
        self.assertTrue(workloads.check_stream(f, F, G, g))
        one = CliffordNumber.one(3)
        bumped = g + CliffordPolynomial.constant(one)
        self.assertFalse(workloads.check_stream(f, F, G, bumped))

    def test_cli_requests(self):
        wl = workloads.CliRequests()
        wl.setup(5, True, WORK / "cli")
        good = hashlib.sha256(wl.requests[0].expect().encode()).hexdigest()
        wl.results = [(0, 0, good), (0, 0, "0" * 64)]
        self.assertEqual(wl.finish(), 1)

    def test_wide_algebra(self):
        wl = workloads.WideAlgebra()
        wl.setup(5, True, WORK)
        x, y, _ = wl.triples[0][0]
        rng = random.Random(0)
        self.assertTrue(workloads.spot_check(x, y, x * y, rng))
        self.assertFalse(workloads.spot_check(x, y, x * y + CliffordNumber.one(x.n), rng))
        steps = [wl.step(i, None) for i in range(len(wl.GROUP))]
        self.assertEqual(sum(s.failed for s in steps), 0)
        wl.kept[0][0] = wl.kept[0][0] + CliffordNumber.one(x.n)
        self.assertEqual(wl.finish(), 1)


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                prints = []
                for seed in (1, 2, 1):
                    wl = cls()
                    wl.setup(seed, True, WORK / f"seed-{cls.name}-{len(prints)}")
                    prints.append(wl.fingerprint())
                self.assertNotEqual(prints[0], prints[1])
                self.assertEqual(prints[0], prints[2])


class Scaling(unittest.TestCase):
    def test_segments_scale_by_nearby_reference_samples(self):
        ref = speed.REF_S
        # one fast segment, then a long slow stretch: twice the reference time
        refs = [ref, ref] + [2 * ref] * 20
        segments = [[(1.0, [0.5, 0.5])]] + [[(2.0, [1.0, 1.0])] for _ in range(20)]
        wall, latencies = speed.scaled(segments, refs)
        self.assertAlmostEqual(latencies[-1], 0.5)
        window = refs[:speed.LOOP.smooth + 2]
        self.assertAlmostEqual(latencies[0], 0.5 * ref / statistics.fmean(window))
        self.assertEqual(len(latencies), 42)
        self.assertAlmostEqual(wall, sum(latencies))


class Compare(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        self.assertEqual(compare.verdict(base, [10.2, 10.1, 10.0, 10.3, 10.2], 0.1, "lower"),
                         "within")
        self.assertEqual(compare.verdict(base, [12.0, 12.1, 11.9, 12.2, 12.0], 0.1, "lower"),
                         "regression")
        self.assertEqual(compare.verdict(base, [5.0, 15.0, 10.0, 8.0, 13.0], 0.1, "lower"),
                         "unresolved")
        self.assertEqual(compare.verdict(base, [12.0, 12.1, 11.9, 12.2, 12.0], 0.1, "higher"),
                         "within")


class Refusal(unittest.TestCase):
    def test_refuses_a_directory_without_the_library(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("transform_stream", 1, 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
