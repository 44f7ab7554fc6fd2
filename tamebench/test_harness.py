"""Self-tests of the benchmark harness (not of tamenorm).

Run from the repository root:

    python3 -m unittest discover -s tamebench -p 'test_*.py'
"""

import os
import signal
import subprocess
import sys
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_ladder_step_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(range(1, 101)), (90.0, 90))
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(run.tail_percentile(list(range(200, 0, -1))), (95.0, 190))

    def test_nine_beyond_is_not_enough(self):
        # p90 of 99 samples is rank 90 with 9 beyond, so p75 (rank 75) is used
        self.assertEqual(run.tail_percentile(range(1, 100)), (75.0, 75))

    def test_too_few_samples_gives_the_median(self):
        self.assertEqual(run.tail_percentile(range(1, 16)), (50.0, 8))


class HostFactors(unittest.TestCase):
    def test_mean_of_the_references_inside_and_on_either_side(self):
        # references at t = 0..9; the op (4.4, 6.5) has t = 5, 6 inside and
        # t = 4, 7 on either side, so t = 3 and 8 do not count
        secs = [0.009, 0.009, 0.009, 0.009, 0.001, 0.002, 0.001, 0.004, 0.009, 0.009]
        refs = [(float(t), s) for t, s in enumerate(secs)]
        (f,) = run.host_factors([(4.4, 6.5)], refs, 0.002)
        self.assertAlmostEqual(f, 0.002 / 0.002)

    def test_short_op_between_two_references(self):
        refs = [(0.0, 0.001), (1.0, 0.003), (2.0, 0.009)]
        self.assertEqual(run.host_factors([(0.2, 0.8)], refs, 0.001), [0.5])


class Timing(unittest.TestCase):
    def test_wait_reports_the_childs_cpu_time_and_idles_meanwhile(self):
        calls = []
        code = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.2: pass"
        proc = subprocess.Popen([sys.executable, "-c", code])
        status, cpu_s = workloads.wait(proc, 60, idle=lambda: calls.append(1))
        self.assertEqual(status, 0)
        self.assertGreaterEqual(cpu_s, 0.2)
        self.assertLess(cpu_s, 5.0)
        self.assertGreater(len(calls), 0)

    def test_sampler_samples_inside_work_and_restores_the_signal(self):
        old = signal.getsignal(signal.SIGPROF)
        refs = []
        with run.Sampler(refs) as sampler:
            t = time.thread_time()
            while time.thread_time() - t < 10 * run.SAMPLE_EVERY_S:
                pass
        self.assertIs(signal.getsignal(signal.SIGPROF), old)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertGreaterEqual(len(refs), 3)
        self.assertTrue(all(s > 0 for _, s in refs))
        self.assertAlmostEqual(sampler.spent, sum(s for _, s in refs))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTime(unittest.TestCase):
    def test_span_tree(self):
        # A [0,10] with 1 s of aggregated leaf calls; B [1,4] with 0.5 s of
        # leaves; C [5,9] with child span D [6,7]
        spans = [(0, None, 0, "A", 0.0, 10.0, 1.0), (1, 0, 0, "B", 1.0, 4.0, 0.5),
                 (2, 0, 0, "C", 5.0, 9.0, 0.0), (3, 2, 0, "D", 6.0, 7.0, 0.0)]
        self.assertEqual(tracer.self_times(spans), {0: 2.0, 1: 2.5, 2: 3.0, 3: 1.0})

    def test_wrappers_on_a_fake_clock(self):
        clock = FakeClock()
        with mock.patch.object(tracer.time, "perf_counter", clock):
            t = tracer.Tracer()
            leaf = t.wrap(lambda: clock.advance(2.0), "exactnum", "leaf", span=False)

            def mid():
                clock.advance(1.0)
                leaf()
                clock.advance(1.0)

            mid_w = t.wrap(mid, "lattice", "mid", span=True)

            def top():
                clock.advance(3.0)
                mid_w()
                leaf()

            t.wrap(top, "hecke", "top", span=True)()
        totals = t.key_totals()
        self.assertEqual(totals["leaf"], (2, 4.0))
        self.assertEqual(totals["mid"], (1, 2.0))
        self.assertEqual(totals["top"], (1, 3.0))
        self.assertEqual(len(t.spans), 2)

    def test_an_error_counts_once_where_it_leaves_its_layer(self):
        t = tracer.Tracer()

        def boom():
            raise ZeroDivisionError

        inner = t.wrap(boom, "exactnum", "inner", span=False)
        outer = t.wrap(lambda: inner(), "exactnum", "outer", span=False)
        top = t.wrap(lambda: outer(), "lfactor", "top", span=True)
        with self.assertRaises(ZeroDivisionError):
            top()
        self.assertEqual(t.errors["exactnum"], 1)
        self.assertEqual(t.errors["lfactor"], 1)


class Generator(unittest.TestCase):
    def test_reproducible_and_no_repeats(self):
        for w in workloads.WORKLOADS:
            a, b = workloads.make_ops(w, 7), workloads.make_ops(w, 7)
            self.assertEqual(a, b, w)
            keys = [workloads.op_key(op) for op in a]
            self.assertEqual(len(set(keys)), len(keys), w)
            self.assertNotEqual(a, workloads.make_ops(w, 8), w)

    def test_same_size_classes_for_every_seed(self):
        def kinds(ops):
            return sorted(op[1] if op[0] == "cli" else op[0] for op in ops)

        for w in workloads.WORKLOADS:
            self.assertEqual(kinds(workloads.make_ops(w, 1)), kinds(workloads.make_ops(w, 2)), w)

    def test_tower_pool_is_the_stated_size_class(self):
        from tamenorm import classfield

        primes = [p for p in range(2, 60) if all(p % q for q in range(2, p))]
        pool = []
        for d in range(-3, -200, -1):
            if not classfield.is_fundamental_discriminant(d):
                continue
            for m in range(1, 9):
                for ell in primes:
                    if classfield.kronecker(d, ell) != 1 or m % ell == 0 or d % ell == 0:
                        continue
                    D = d * m * m * ell * ell
                    if 2000 <= -D <= 40000 and 26 <= len(classfield.reduced_forms(D)) <= 30:
                        pool.append((d, m, ell))
        self.assertEqual(tuple(pool), workloads.TOWER_POOL)

    def test_traced_round_is_a_prefix(self):
        for w in workloads.WORKLOADS:
            full, traced = workloads.make_ops(w, 3), workloads.make_ops(w, 3, trace=True)
            self.assertEqual(full[:len(traced)], traced, w)


class Installer(unittest.TestCase):
    def _snapshot(self):
        import tamenorm.cli  # noqa: F401  (imports every layer)

        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "tamenorm" or name.startswith("tamenorm."))]
        snap = {}
        for m in mods:
            for name, obj in vars(m).items():
                snap[(id(m), name)] = obj
                if isinstance(obj, type) and obj.__module__.startswith("tamenorm"):
                    for attr, val in vars(obj).items():
                        snap[(id(obj), attr)] = val
                elif isinstance(obj, dict):
                    for k, v in obj.items():
                        snap[(id(obj), "item", k)] = v
        return mods, snap

    def test_install_then_uninstall_restores_every_name(self):
        from tamenorm import cli, exactnum, fingroup, matrices

        mods, before = self._snapshot()
        t = tracer.Tracer().install()
        try:
            mul = before[(id(exactnum.ExactScalar), "__mul__")]
            self.assertIsNot(exactnum.ExactScalar.__dict__["__mul__"], mul)
            self.assertIsNot(exactnum.is_prime, before[(id(exactnum), "is_prime")])
            self.assertIs(exactnum.is_prime, matrices.is_prime)
            self.assertIsNot(cli.DRIVERS["coeffs"], before[(id(cli.DRIVERS), "item", "coeffs")])
            self.assertIsNot(fingroup.FiniteGroup.__init__, before[(id(fingroup.FiniteGroup), "__init__")])
            s = exactnum.ExactScalar.sqrt_ell(5)
            self.assertEqual((s * s).as_rational(), 5)
            self.assertEqual(t.stats["exactnum.ExactScalar.__mul__"][0], 1)
        finally:
            t.uninstall()
        _, after = self._snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])


class Oracle(unittest.TestCase):
    def test_zero_cases_and_wrong_exit_fail(self):
        op = ("cli", "verify-incl-excl", ["verify-incl-excl", "--n", "2", "--ell", "3"], 0)
        good = b'{"schema": "trc-1", "pass": true, "results": {"x": {"cases_checked": 3}}}'
        zero = b'{"schema": "trc-1", "pass": true, "results": {"x": {"cases_checked": 0}}}'
        self.assertEqual(workloads.judge_cli(op, 0, good)[0], [])
        self.assertNotEqual(workloads.judge_cli(op, 0, zero)[0], [])
        self.assertNotEqual(workloads.judge_cli(op, 1, good)[0], [])
        self.assertNotEqual(workloads.judge_cli(op, 0, b"not json")[0], [])

    def test_probes_follow_the_contract(self):
        crash = ("cli", "probe-alpha-zero-order", ["lfactor"], None)
        self.assertNotEqual(workloads.judge_cli(crash, 1, None)[0], [])
        self.assertEqual(workloads.judge_cli(crash, 2, None)[0], [])
        vacuous = ("cli", "probe-depth0", ["verify-incl-excl"], None)
        self.assertNotEqual(workloads.judge_cli(vacuous, 0, b'{"pass": true}')[0], [])
        self.assertEqual(workloads.judge_cli(vacuous, 2, None)[0], [])


if __name__ == "__main__":
    unittest.main()
